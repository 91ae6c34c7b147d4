"""Weighted-length min-max on the round sphere, with a convergent curve flow.

The functional is L^c(region) = length(boundary) - c * area(region).  For the
family of polar caps on a radius-R sphere everything is closed form, and the
family's max over colatitude phi, at cot(phi) = cR, is the min-max value
2*pi*R*(sqrt(1 + c^2 R^2) - c R).  The polygonal flow drives a closed curve to
the constant-geodesic-curvature latitude by moving each point along the
in-surface normal at speed kappa - c; starting below the pass this ascends
L^c of the enclosed (north) region up to the min-max level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence

# a curvature offset of d leaves the limit latitude's length off by ~2.2d,
# so stop well under the 1e-3 accuracy the flow advertises
CURVATURE_STOP = 1e-4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_CR = 1e300  # the estimate holds to a few ulps to 1e307; 2cR overflows at ~9e307


@dataclass(frozen=True)
class SphereConfig:
    radius: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and math.isfinite(self.c)):
            raise DomainError("sphere radius and curvature must be finite")
        if self.radius <= 0:
            raise DomainError("sphere radius must be positive")
        if self.c < 0:
            raise DomainError("prescribed curvature must be nonnegative")
        if self.c * self.radius > MAX_CR:
            raise DomainError(f"c times the radius must be at most {MAX_CR:g}")


@dataclass(frozen=True)
class CapRegion:
    """Polar cap of all points with colatitude at most polar_angle."""

    polar_angle: float

    def __post_init__(self):
        if not 0.0 <= self.polar_angle <= math.pi:
            raise DomainError("cap polar angle must lie in [0, pi]")


@dataclass(frozen=True)
class Sweepout:
    samples: tuple[tuple[float, CapRegion], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.samples]
        if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise DomainError("sweepout parameters must strictly increase")
        if self.samples[0][1].polar_angle != 0.0:
            raise DomainError("sweepout must start with the empty region")
        if abs(self.samples[-1][1].polar_angle - math.pi) > 1e-12:
            raise DomainError("sweepout must end with the full sphere")


def c_length(region: CapRegion, cfg: SphereConfig) -> float:
    """Closed form: 2*pi*R*sin(phi) - c * 2*pi*R^2 * 2*sin(phi/2)^2."""
    r = cfg.radius
    phi = region.polar_angle
    # 2 sin^2(phi/2) = 1 - cos(phi) without cancellation; each factor of it
    # multiplies 2cR in turn, since sin(phi/2)^2 underflows near the max at large cR
    half = math.sin(0.5 * phi)
    return 2.0 * math.pi * r * (math.sin(phi) - 2.0 * cfg.c * r * half * half)


def latitude_sweepout(n: int) -> Sweepout:
    if n < 3:
        raise DomainError("a sweepout needs at least three samples")
    return Sweepout(
        tuple(
            (k / (n - 1), CapRegion(math.pi * k / (n - 1))) for k in range(n)
        )
    )


@dataclass(frozen=True)
class MinmaxEstimate:
    value: float
    argmax_phi: float


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Maximizer of a unimodal f on [lo, hi] >= 0, to tol relative to a + b."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol * (a + b):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def minmax_estimate(sweep: Sweepout, cfg: SphereConfig) -> MinmaxEstimate:
    """Max of L^c over the sweepout, refined between neighboring samples."""
    phis = [region.polar_angle for _, region in sweep.samples]
    values = [c_length(region, cfg) for _, region in sweep.samples]
    k = max(range(len(values)), key=values.__getitem__)
    lo = phis[k - 1] if k > 0 else phis[0]
    hi = phis[k + 1] if k + 1 < len(phis) else phis[-1]
    best = _golden_section_max(lambda p: c_length(CapRegion(p), cfg), lo, hi)
    return MinmaxEstimate(value=c_length(CapRegion(best), cfg), argmax_phi=best)


def minmax_closed_form(cfg: SphereConfig) -> float:
    """2*pi*R*(sqrt(1 + (cR)^2) - cR), written without cancellation."""
    cr = cfg.c * cfg.radius
    return 2.0 * math.pi * cfg.radius / (math.hypot(1.0, cr) + cr)


# --- polygonal curves ----------------------------------------------------

class PolyCurve:
    """Closed polygon of unit vectors on the sphere (rows of an (n,3) array)."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 8:
            raise DomainError("curve needs at least 8 points in R^3")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise DomainError("curve points must lie on the unit sphere")
        if np.min(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1)) < 1e-15:
            raise DomainError("consecutive curve points must be distinct")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)


def latitude_curve(phi: float, n: int = 256) -> PolyCurve:
    """The colatitude-phi circle, oriented counterclockwise seen from north."""
    lam = 2.0 * np.pi * np.arange(n) / n
    s, c = math.sin(phi), math.cos(phi)
    return PolyCurve(
        np.stack([s * np.cos(lam), s * np.sin(lam), np.full(n, c)], axis=1)
    )


def _segment_tangents(pts: np.ndarray):
    """In and out geodesic tangents and arc lengths at every point."""
    prev = np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0)
    dot_in = np.clip(np.sum(prev * pts, axis=1), -1.0, 1.0)
    dot_out = np.clip(np.sum(nxt * pts, axis=1), -1.0, 1.0)
    arc_in = np.arccos(dot_in)
    arc_out = np.arccos(dot_out)
    u = pts * dot_in[:, None] - prev  # tangent at p of the geodesic prev -> p
    w = nxt - pts * dot_out[:, None]  # tangent at p of the geodesic p -> next
    u /= np.linalg.norm(u, axis=1)[:, None]
    w /= np.linalg.norm(w, axis=1)[:, None]
    return u, w, arc_in, arc_out


def _curvatures(pts: np.ndarray):
    """Curvatures, turning angles, in and out tangents, and the length."""
    u, w, arc_in, arc_out = _segment_tangents(pts)
    cross = np.cross(u, w)
    delta = np.arctan2(np.sum(cross * pts, axis=1), np.sum(u * w, axis=1))
    return delta / (0.5 * (arc_in + arc_out)), delta, u, w, float(np.sum(arc_out))


def curvature_profile(curve: PolyCurve) -> np.ndarray:
    """Discrete geodesic curvature at every vertex: turning angle over mean
    adjacent arc, +cot(phi) on a CCW latitude."""
    return _curvatures(curve.points)[0]


def curve_length(curve: PolyCurve) -> float:
    pts = curve.points
    dots = np.clip(np.sum(pts * np.roll(pts, -1, axis=0), axis=1), -1.0, 1.0)
    return float(np.sum(np.arccos(dots)))


def _c_length(turning: np.ndarray, length: float, cfg: SphereConfig) -> float:
    # L^c with the enclosed area from Gauss-Bonnet: A = 2*pi - sum(turning)
    area = 2.0 * math.pi - float(np.sum(turning))
    return cfg.radius * length - cfg.c * cfg.radius**2 * area


def enclosed_c_length(curve: PolyCurve, cfg: SphereConfig) -> float:
    """L^c of the curve: its length less c times its enclosed area."""
    _, turning, _, _, length = _curvatures(curve.points)
    return _c_length(turning, length, cfg)


def _resample_uniform(pts: np.ndarray) -> np.ndarray:
    """Redistribute the same number of points at equal geodesic arc spacing."""
    n = len(pts)
    nxt = np.roll(pts, -1, axis=0)
    arcs = np.arccos(np.clip(np.sum(pts * nxt, axis=1), -1.0, 1.0))
    cum = np.concatenate([[0.0], np.cumsum(arcs)])
    targets = np.arange(n) * cum[-1] / n
    seg = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, n - 1)
    span = cum[seg + 1] - cum[seg]
    frac = np.where(span < 1e-15, 0.0, (targets - cum[seg]) / np.where(span < 1e-15, 1.0, span))
    a, b = pts[seg], nxt[seg]
    omega = arcs[seg]
    # slerp, vectorized; tiny arcs fall back to linear blend before renormalizing
    sin_om = np.sin(omega)
    safe = sin_om > 1e-12
    wa = np.where(safe, np.sin((1.0 - frac) * omega) / np.where(safe, sin_om, 1.0), 1.0 - frac)
    wb = np.where(safe, np.sin(frac * omega) / np.where(safe, sin_om, 1.0), frac)
    out = wa[:, None] * a + wb[:, None] * b
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def flow_to_cmc(
    curve: PolyCurve,
    cfg: SphereConfig,
    *,
    max_iters: int = 100_000,
    trace: list | None = None,
) -> PolyCurve:
    """Drive the curve to constant geodesic curvature c.

    Each point moves along the outward in-surface normal (T cross p), then
    the points are redistributed at uniform arc spacing.  The normal speed
    has two parts: a tenth of the point spacing times (mean_kappa - c),
    capped at one point spacing, climbs the round mode toward the
    constant-curvature target, and a curve-shortening term on the deviation
    kappa - mean_kappa keeps the non-round modes from growing (a pointwise
    ascent alone blows up: the target is a saddle, and stray wiggles raise
    length faster than area).  The shortening coefficient is a quarter of
    the squared point spacing, the explicit-scheme stability limit.  The
    fixed point is kappa = c pointwise.  Stops once max |kappa_i - c| falls
    below CURVATURE_STOP (1e-4, which pins the limit length to a few 1e-4);
    raises NonConvergence (with the best iterate attached) if max_iters
    passes first.  With trace, one record per iteration is appended to it:
    the iteration, the max deviation and the curve's L^c.
    """
    if len(curve) < 32:
        raise DomainError("flow needs at least 32 points")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters}")
    pts = curve.points.copy()
    n = len(pts)
    best_pts = pts
    best_dev = math.inf
    for iteration in range(max_iters):
        # a curve shrunk below float resolution divides by zero-length arcs;
        # that shows as a non-finite deviation and raises NonConvergence
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa, turning, u, w, length = _curvatures(pts)
        deviation = float(np.max(np.abs(kappa - cfg.c)))
        if not math.isfinite(deviation):
            raise NonConvergence(
                f"flow became non-finite at iteration {iteration}",
                best=PolyCurve(best_pts),
            )
        if trace is not None:
            trace.append(
                {
                    "iteration": iteration,
                    "max_deviation": deviation,
                    "c_length": _c_length(turning, length, cfg),
                }
            )
        if deviation < best_dev:
            best_dev = deviation
            best_pts = pts.copy()
        if deviation < CURVATURE_STOP:
            return PolyCurve(pts)
        tangent = u + w
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        normal = np.cross(tangent, pts)  # outward: away from the north region
        spacing = length / n
        smooth = 0.25 * spacing**2
        mean_kappa = float(np.mean(kappa))
        # the round mode moves at most one point spacing per iteration
        climb = min(max(0.1 * spacing * (mean_kappa - cfg.c), -spacing), spacing)
        speed = climb - smooth * (kappa - mean_kappa)
        pts = pts + speed[:, None] * normal
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts = _resample_uniform(pts)
    raise NonConvergence(
        f"flow did not reach the curvature target in {max_iters} iterations",
        best=PolyCurve(best_pts),
    )
