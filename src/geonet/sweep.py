"""Weighted-length min-max on the round sphere, with a convergent curve flow.

The functional is L^c(region) = length(boundary) - c * area(region) on the
unit sphere; scaling it by R gives L^c(R region) = R * L^(cR)(region), so c
alone covers every size.  For the family of polar caps everything is closed
form, and the family's max over colatitude phi, at cot(phi) = c, is the
min-max value 2*pi*(sqrt(1 + c^2) - c).  The polygonal flow drives a closed
curve to the constant-geodesic-curvature latitude by moving each point along
the in-surface normal at speed kappa - c; starting below the pass this
ascends L^c of the enclosed (north) region up to the min-max level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, check_int

# a curvature offset of d leaves the limit latitude's length off by ~2.2d,
# so stop well under the 1e-3 accuracy the flow advertises
CURVATURE_STOP = 1e-4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_C = 1e300  # the estimate holds to a few ulps to 1e307; 2c overflows at ~9e307


@dataclass(frozen=True)
class SphereConfig:
    c: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise DomainError("prescribed curvature must be finite")
        if self.c < 0:
            raise DomainError("prescribed curvature must be nonnegative")
        if self.c > MAX_C:
            raise DomainError(f"prescribed curvature must be at most {MAX_C:g}")


@dataclass(frozen=True)
class CapRegion:
    """Polar cap of all points with colatitude at most polar_angle."""

    polar_angle: float

    def __post_init__(self):
        if not 0.0 <= self.polar_angle <= math.pi:
            raise DomainError("cap polar angle must lie in [0, pi]")


@dataclass(frozen=True, eq=False)
class Sweepout:
    """Sampled family of polar caps: at parameter params[k], the cap of
    colatitude polar_angles[k].

    Both fields are read-only float64 arrays of one length, at least two.  The
    parameters strictly increase, and the caps run from the empty region
    (angle 0) to the full sphere (angle pi).  Equality is identity.
    """

    params: np.ndarray
    polar_angles: np.ndarray

    def __post_init__(self):
        params = np.array(self.params, dtype=float)
        angles = np.array(self.polar_angles, dtype=float)
        if params.ndim != 1 or angles.shape != params.shape:
            raise DomainError("sweepout needs one polar angle per parameter")
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(angles))):
            raise DomainError("sweepout parameters and polar angles must be finite")
        if len(params) < 2 or np.any(params[1:] <= params[:-1]):
            raise DomainError("sweepout parameters must strictly increase")
        if np.any(angles < 0.0) or np.any(angles > math.pi):
            raise DomainError("cap polar angle must lie in [0, pi]")
        if angles[0] != 0.0:
            raise DomainError("sweepout must start with the empty region")
        if abs(angles[-1] - math.pi) > 1e-12:
            raise DomainError("sweepout must end with the full sphere")
        params.flags.writeable = False
        angles.flags.writeable = False
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "polar_angles", angles)


def _cap_c_length(phi, cfg: SphereConfig, sin):
    # 2 sin^2(phi/2) = 1 - cos(phi) without cancellation; each factor of it
    # multiplies 2c in turn, since sin(phi/2)^2 underflows near the max at large c
    half = sin(0.5 * phi)
    return 2.0 * math.pi * (sin(phi) - 2.0 * cfg.c * half * half)


def c_length(region: CapRegion, cfg: SphereConfig) -> float:
    """Closed form: 2*pi*sin(phi) - c * 2*pi * 2*sin(phi/2)^2."""
    return _cap_c_length(region.polar_angle, cfg, math.sin)


def latitude_sweepout(n: int) -> Sweepout:
    """n caps at the parameters k/(n - 1), of colatitude pi*k/(n - 1)."""
    check_int("n", n)
    if n < 3:
        raise DomainError("a sweepout needs at least three samples")
    k = np.arange(n)
    angles = math.pi * k / (n - 1)
    angles[-1] = math.pi  # pi*(n - 1)/(n - 1) rounds above pi for some n (14, 27, 48, ...)
    return Sweepout(k / (n - 1), angles)


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
    """Max of L^c over the sweepout, refined between the least and greatest
    angle of the best sample and its neighbors (the angles need not increase)."""
    phis = sweep.polar_angles
    # c_length of every sample at once; argmax takes the first best sample
    k = int(np.argmax(_cap_c_length(phis, cfg, np.sin)))
    near = phis[max(k - 1, 0) : k + 2].tolist()
    lo, hi = min(near), max(near)
    best = _golden_section_max(lambda p: c_length(CapRegion(p), cfg), lo, hi)
    return MinmaxEstimate(value=c_length(CapRegion(best), cfg), argmax_phi=best)


def minmax_closed_form(cfg: SphereConfig) -> float:
    """2*pi*(sqrt(1 + c^2) - c), written without cancellation."""
    return 2.0 * math.pi / (math.hypot(1.0, cfg.c) + cfg.c)


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
    check_int("n", n)
    lam = 2.0 * np.pi * np.arange(n) / n
    s, c = math.sin(phi), math.cos(phi)
    return PolyCurve(
        np.stack([s * np.cos(lam), s * np.sin(lam), np.full(n, c)], axis=1)
    )


# The curve kernel works on a C-contiguous (3, n) array, one row per
# coordinate.  add.reduce over its rows sums x + y + z in the order that
# np.sum(axis=1) uses on the (n, 3) points, and _cross multiplies and
# subtracts as np.cross does, so every value equals the (n, 3) form's bit for
# bit (tests/helpers.py keeps that form as the oracle).

_CYCLE = [1, 2, 0, 1]  # rows 0..2 are (y, z, x), rows 1..3 are (z, x, y)


def _coordinates(curve: PolyCurve) -> np.ndarray:
    return np.ascontiguousarray(curve.points.T)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduce(a * b, axis=0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = a[_CYCLE], b[_CYCLE]
    return a[:3] * b[1:] - a[1:] * b[:3]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _arcs(p: np.ndarray):
    """The points between copies of their neighbours (column k + 1 holds
    point k), and the clipped dot products and arc lengths of the n + 1
    consecutive column pairs: entry k belongs to the arc into point k, and
    entry k + 1 to the arc out of it."""
    ext = np.concatenate((p[:, -1:], p, p[:, :1]), axis=1)
    # np.clip to [-1, 1], bit for bit, at a third of its call cost
    dots = np.minimum(np.maximum(_dot(ext[:, 1:], ext[:, :-1]), -1.0), 1.0)
    return ext, dots, np.arccos(dots)


def _curvatures(p: np.ndarray):
    """Curvatures, turning angles, in and out tangents, and the length."""
    ext, dots, arcs = _arcs(p)
    u = p * dots[:-1] - ext[:, :-2]  # tangent at p of the geodesic prev -> p
    w = ext[:, 2:] - p * dots[1:]  # tangent at p of the geodesic p -> next
    u /= _norm(u)
    w /= _norm(w)
    delta = np.arctan2(_dot(_cross(u, w), p), _dot(u, w))
    kappa = delta / (0.5 * (arcs[:-1] + arcs[1:]))
    return kappa, delta, u, w, float(np.sum(arcs[1:]))


def curvature_profile(curve: PolyCurve) -> np.ndarray:
    """Discrete geodesic curvature at every vertex: turning angle over mean
    adjacent arc, +cot(phi) on a CCW latitude."""
    return _curvatures(_coordinates(curve))[0]


def curve_length(curve: PolyCurve) -> float:
    return float(np.sum(_arcs(_coordinates(curve))[2][1:]))


def _c_length(turning: np.ndarray, length: float, cfg: SphereConfig) -> float:
    # L^c with the enclosed area from Gauss-Bonnet: A = 2*pi - sum(turning)
    area = 2.0 * math.pi - float(np.sum(turning))
    return length - cfg.c * area


def enclosed_c_length(curve: PolyCurve, cfg: SphereConfig) -> float:
    """L^c of the curve: its length less c times its enclosed area."""
    _, turning, _, _, length = _curvatures(_coordinates(curve))
    return _c_length(turning, length, cfg)


def _resample_uniform(p: np.ndarray) -> np.ndarray:
    """Redistribute the same number of points at equal geodesic arc spacing."""
    n = p.shape[1]
    ext, _, arcs = _arcs(p)
    cum = np.concatenate(([0.0], np.cumsum(arcs[1:])))
    targets = np.arange(n) * cum[-1] / n
    # the segment seg (in 0..n - 1) holding each target starts at point seg,
    # which sits in column seg + 1 of ext, beside its out-arc arcs[seg + 1]
    col = np.minimum(np.maximum(cum.searchsorted(targets, side="right"), 1), n)
    start = cum[col - 1]
    span = cum[col] - start
    tiny = span < 1e-15
    frac = np.where(tiny, 0.0, (targets - start) / np.where(tiny, 1.0, span))
    omega = arcs[col]
    # slerp, vectorized; tiny arcs fall back to linear blend before renormalizing
    sin_om = np.sin(omega)
    safe = sin_om > 1e-12
    denom = np.where(safe, sin_om, 1.0)
    rest = 1.0 - frac
    wa = np.where(safe, np.sin(rest * omega) / denom, rest)
    wb = np.where(safe, np.sin(frac * omega) / denom, frac)
    out = wa * ext.take(col, axis=1) + wb * ext.take(col + 1, axis=1)
    out /= _norm(out)
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
    capped at one point spacing and at |mean_kappa - c|/(1 + mean_kappa^2),
    climbs the round mode toward the constant-curvature target without
    passing it, and a curve-shortening term on the deviation
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
    check_int("max_iters", max_iters)
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters}")
    pts = _coordinates(curve)
    n = pts.shape[1]
    # every iteration binds pts to a new array, so best_pts needs no copy
    best_pts = pts
    best_dev = math.inf
    for iteration in range(max_iters):
        # a curve shrunk below float resolution divides by zero-length arcs;
        # that shows as a non-finite deviation and raises NonConvergence
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa, turning, u, w, length = _curvatures(pts)
        deviation = float(np.abs(kappa - cfg.c).max())
        if not math.isfinite(deviation):
            raise NonConvergence(
                f"flow became non-finite at iteration {iteration}",
                best=PolyCurve(best_pts.T.copy()),
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
            best_pts = pts
        if deviation < CURVATURE_STOP:
            return PolyCurve(pts.T.copy())
        tangent = u + w
        tangent /= _norm(tangent)
        normal = _cross(tangent, pts)  # outward: away from the north region
        spacing = length / n
        smooth = 0.25 * spacing**2
        mean_kappa = float(kappa.mean())
        # the round mode moves at most one point spacing per iteration, and
        # never past the target: on a latitude dkappa/dphi = -(1 + kappa^2)
        cap = min(spacing, abs(mean_kappa - cfg.c) / (1.0 + mean_kappa * mean_kappa))
        climb = min(max(0.1 * spacing * (mean_kappa - cfg.c), -cap), cap)
        speed = climb - smooth * (kappa - mean_kappa)
        pts = pts + speed * normal
        pts /= _norm(pts)
        pts = _resample_uniform(pts)
    raise NonConvergence(
        f"flow did not reach the curvature target in {max_iters} iterations",
        best=PolyCurve(best_pts.T.copy()),
    )
