"""Points on the unit circle with an optional exact parametrization.

A point at angle theta is stored with its half-angle tangent t = tan(theta/2)
when that value is known exactly (a Fraction, a RadExpr, or INFINITY for the
angle pi).  Rational t gives rational coordinates ((1-t^2)/(1+t^2), 2t/(1+t^2)),
and angle sums and differences become field operations on t, so rotations and
chord directions can be computed without any floating error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence, Union

from .errors import DuplicateVertexAngle, InexactPosition, is_int
from .exact import RadExpr, simplify, squarefree_decompose, term, term_inverse, times_term

TAU = math.tau


class _InfinityType:
    """Half-angle tangent of the angle pi (the point (-1, 0))."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        # pickled by name, so every protocol and copy gives INFINITY itself back
        return "INFINITY"


INFINITY = _InfinityType()

ExactScalar = Union[Fraction, RadExpr]
TanHalf = Union[Fraction, RadExpr, _InfinityType]


def _recip(x: ExactScalar) -> TanHalf:
    if not x:
        return INFINITY
    return simplify(1 / x)


def as_tan_half(x) -> TanHalf:
    """Coerce an int, Fraction or RadExpr (or INFINITY) to a canonical tan-half.

    Anything else, a float or a bool among them, raises ValueError: a float's
    binary value is not the number it was written as, and True counts nothing.
    """
    if x is INFINITY:
        return INFINITY
    if isinstance(x, RadExpr):
        return simplify(x)
    if isinstance(x, Fraction):
        return x
    if is_int(x):
        return Fraction(x)
    raise ValueError(f"tan_half must be an int, Fraction, RadExpr or INFINITY, got {x!r}")


def tan_half_add(a: TanHalf, b: TanHalf) -> TanHalf:
    """tan((alpha+beta)/2) from the two half-angle tangents.

    Each argument goes through as_tan_half, here and in the other tan-half
    helpers: an int is taken as a Fraction, a float raises ValueError."""
    a, b = as_tan_half(a), as_tan_half(b)
    ainf = a is INFINITY
    binf = b is INFINITY
    if ainf and binf:
        return Fraction(0)
    if ainf or binf:
        # tan((alpha + pi)/2) = -1/tan(alpha/2)
        return tan_half_neg(_recip(a if binf else b))
    denom = 1 - a * b
    if not denom:
        return INFINITY
    return simplify((a + b) / denom)


def tan_half_sub(a: TanHalf, b: TanHalf) -> TanHalf:
    """tan((alpha-beta)/2) from the two half-angle tangents."""
    return tan_half_add(a, tan_half_neg(b))


def tan_half_neg(a: TanHalf) -> TanHalf:
    """Half-angle tangent of -alpha (reflection across the x-axis)."""
    a = as_tan_half(a)
    if a is INFINITY:
        return INFINITY
    return simplify(-a)


def exact_xy_of_tan(t: TanHalf) -> tuple[ExactScalar, ExactScalar]:
    """The exact point ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)).

    For rational t = a/b in lowest terms it is ((b^2 - a^2)/N, 2ab/N) with
    the norm N = a^2 + b^2 (norm_parts), two Fractions built from integers;
    INFINITY gives (-1, 0).  A radical t takes the formula in RadExpr
    arithmetic."""
    t = as_tan_half(t)
    if t is INFINITY:
        return Fraction(-1), Fraction(0)
    if isinstance(t, Fraction):
        a, b = t.numerator, t.denominator
        n = a * a + b * b
        return Fraction(b * b - a * a, n), Fraction(2 * a * b, n)
    one_plus = 1 + t * t
    return simplify((1 - t * t) / one_plus), simplify((2 * t) / one_plus)


def normalize_angle(angle: float) -> float:
    """The angle reduced to [0, tau); ValueError for NaN and infinities.

    For a tiny negative angle, angle % tau rounds up to tau itself; the largest
    float below tau is returned instead, so the point stays just below the cut.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle {angle} is not finite")
    a = angle % TAU
    return a if a < TAU else math.nextafter(TAU, 0.0)


def angle_of_tan(t: TanHalf) -> float:
    if t is INFINITY:
        return math.pi
    return normalize_angle(2.0 * math.atan(float(t)))


@dataclass(frozen=True)
class CirclePoint:
    """A unit-circle point: float angle in [0, tau), optional exact tan-half."""

    angle: float
    tan_half: TanHalf | None = None
    # exact (x, y) of tan_half, kept from the consistency check
    _xy: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.angle < TAU:
            raise ValueError(f"angle {self.angle} not normalized to [0, tau)")
        if self.tan_half is not None:
            object.__setattr__(self, "tan_half", as_tan_half(self.tan_half))
            ex, ey = exact_xy_of_tan(self.tan_half)
            if abs(float(ex) - math.cos(self.angle)) > 1e-9 or abs(
                float(ey) - math.sin(self.angle)
            ) > 1e-9:
                raise ValueError("angle and tan_half describe different points")
            object.__setattr__(self, "_xy", (ex, ey))

    @classmethod
    def from_angle(cls, angle: float) -> "CirclePoint":
        return cls(normalize_angle(angle), None)

    @classmethod
    def from_tan_half(cls, t) -> "CirclePoint":
        t = as_tan_half(t)
        return cls(angle_of_tan(t), t)

    @property
    def is_exact(self) -> bool:
        return self.tan_half is not None

    def xy(self) -> tuple[float, float]:
        return math.cos(self.angle), math.sin(self.angle)

    def exact_xy(self) -> tuple[ExactScalar, ExactScalar]:
        if self._xy is None:
            raise InexactPosition("point has no exact parametrization")
        return self._xy


# An exact point's float angle, angle_of_tan(t), is off by a few ulps of tau
# (~1e-15) for rational t and by ~1e-16 of the terms' size for radical t; a
# CirclePoint may also carry an angle ~1e-9 from its tan-half.  The margin lies
# far above these errors, so float angles at least this far apart are ordered
# exactly; closer pairs of exact points are decided on their tan-halves.
ANGLE_MARGIN = 1e-7


def _half(t: TanHalf) -> int:
    """0 for angles in [0, pi), 1 for pi itself, 2 for (pi, tau); exact."""
    return 1 if t is INFINITY else 2 * (RadExpr.of(t).sign() < 0)


def _sort_angle(p: CirclePoint) -> float:
    """The float angle; near the cut, an exact point's is moved to its own side."""
    a = p.angle
    if p.tan_half is None or ANGLE_MARGIN <= a <= TAU - ANGLE_MARGIN:
        return a
    side = -math.pi if _half(p.tan_half) == 0 else math.pi  # near 0 or near tau
    return (a - side) % TAU + side


def angle_order(points: Sequence[CirclePoint]) -> list[int]:
    """Indices of the points by increasing angle in [0, tau).

    Raises DuplicateVertexAngle when two points coincide, the pair across the
    cut included: equal tan-halves, or float angles within ANGLE_MARGIN when
    either point is inexact.
    """
    keys = [_sort_angle(p) for p in points]

    def compare(i: int, j: int) -> int:
        s, t = points[i].tan_half, points[j].tan_half
        if s is None or t is None or abs(keys[i] - keys[j]) >= ANGLE_MARGIN:
            return (keys[i] > keys[j]) - (keys[i] < keys[j])
        # within a half the angle 2*atan(t) grows with t
        hs, ht = _half(s), _half(t)
        return (hs > ht) - (hs < ht) or (0 if hs == 1 else RadExpr.of(s - t).sign())

    order = sorted(range(len(points)), key=cmp_to_key(compare))
    for i, j in zip(order, order[1:] + order[:1]):
        gap = abs(keys[j] - keys[i])
        near = i != j and min(gap, TAU - gap) < ANGLE_MARGIN
        if near and not (points[i].is_exact and points[j].is_exact and compare(i, j)):
            raise DuplicateVertexAngle(
                f"points at angles {points[i].angle} and {points[j].angle} coincide"
            )
    return order


def point_div(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """The point at the angle difference (rotation of p by -q)."""
    if p.tan_half is not None and q.tan_half is not None:
        return CirclePoint.from_tan_half(tan_half_sub(p.tan_half, q.tan_half))
    return CirclePoint.from_angle(p.angle - q.angle)


def chord_square(v: CirclePoint, w: CirclePoint) -> tuple[ExactScalar, ExactScalar, ExactScalar]:
    """(w - v) componentwise and |w - v|^2, exact.

    Each value is a Fraction when it is rational, so rational points give
    rational components."""
    vx, vy = v.exact_xy()
    wx, wy = w.exact_xy()
    dx, dy = simplify(wx - vx), simplify(wy - vy)
    return dx, dy, simplify(dx * dx + dy * dy)


def norm_parts(t: TanHalf | None) -> tuple[int, int, int, int] | None:
    """(a, b, d, k) with t = a/b in lowest terms, INFINITY as 1/0, and the
    norm a^2 + b^2 = d*k^2, d squarefree; None for a radical or missing
    tan-half.  The point is ((b^2 - a^2)/N, 2ab/N), N the norm."""
    if t is INFINITY:
        a, b = 1, 0
    elif isinstance(t, Fraction):
        a, b = t.numerator, t.denominator
    else:
        return None
    return a, b, *squarefree_decompose(a * a + b * b)


def _chord(v: CirclePoint, w: CirclePoint) -> tuple[ExactScalar, ExactScalar, ExactScalar]:
    """(w - v) componentwise and |w - v|, exact; needs a rational squared length.

    Each value is a Fraction when it is rational, as in chord_square.  For
    rational tan-halves a/b and c/e, |w - v| = 2|ae - cb|/sqrt(N_v*N_w), so
    only the two norms are factored (norm_parts): with N = d*k^2 and
    g = gcd(d_v, d_w), the length is 2|ae - cb|*sqrt(D)/(k_v*k_w*g*D), where
    D = d_v*d_w/g^2.  A radical tan-half takes the square root of
    chord_square's |w - v|^2."""
    s, t = norm_parts(v.tan_half), norm_parts(w.tan_half)
    if s is None or t is None:
        dx, dy, sq = chord_square(v, w)
        if isinstance(sq, RadExpr):
            raise InexactPosition("chord direction is not a representable radical")
        return dx, dy, simplify(RadExpr.sqrt(sq))
    (a, b, dv, kv), (c, e, dw, kw) = s, t
    (vx, vy), (wx, wy) = v.exact_xy(), w.exact_xy()
    g = math.gcd(dv, dw)
    big_d = (dv // g) * (dw // g)
    length = Fraction(2 * abs(a * e - c * b), kv * kw * g * big_d)
    return wx - vx, wy - vy, length if big_d == 1 else times_term(length, (big_d, 1))


def diameter_side(v: CirclePoint, w: CirclePoint) -> int:
    """Side of w relative to the diameter through v, decided exactly.

    The sign of vx*wy - vy*wx: 1 when w lies less than a half turn
    counterclockwise from v, -1 when clockwise, 0 when w is v or its antipode.
    Works for radical tan-halves too; needs both points exact.
    """
    vx, vy = v.exact_xy()
    wx, wy = w.exact_xy()
    return RadExpr.of(vx * wy - vy * wx).sign()


def tangent_components_exact(
    v: CirclePoint, w: CirclePoint
) -> tuple[RadExpr, RadExpr]:
    """(w - v)/|w - v| componentwise, exact; needs a rational squared length,
    so the length is one term and its inverse is one term too."""
    dx, dy, length = _chord(v, w)
    if not length:
        raise ValueError("tangent direction of coincident points")
    inv = term_inverse(term(length))
    return times_term(dx, inv), times_term(dy, inv)


def tangent_point(v: CirclePoint, w: CirclePoint) -> CirclePoint:
    """Unit direction from v toward w, itself as a circle point.

    Exact whenever both endpoints are exact with a rational squared chord
    length; the direction components then live in Q adjoined one square root,
    and its own tan-half is recovered from t = y/(1+x).
    """
    if v.tan_half is not None and w.tan_half is not None:
        try:
            ux, uy = tangent_components_exact(v, w)
        except InexactPosition:
            pass
        else:
            if (ux + 1).is_zero():
                return CirclePoint.from_tan_half(INFINITY)
            return CirclePoint.from_tan_half(uy / (ux + 1))
    vx, vy = v.xy()
    wx, wy = w.xy()
    return CirclePoint.from_angle(math.atan2(wy - vy, wx - vx))
