"""Points on the unit circle with an optional exact parametrization.

A point at angle theta is stored with its half-angle tangent t = tan(theta/2)
when that value is known exactly (a Fraction, a RadExpr, or INFINITY for the
angle pi).  Rational t gives rational coordinates ((1-t^2)/(1+t^2), 2t/(1+t^2)),
and angle sums and differences become field operations on t, so rotations and
chord directions can be computed without any floating error.  The point
formulas and the angle sum read t as a ratio p/q with INFINITY as 1/0;
elsewhere the angle pi is the test t is INFINITY.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Sequence, Union

from .errors import DuplicateVertexAngle, InexactPosition, is_int
from .exact import RadExpr, sign, simplify, squarefree_decompose, term, term_inverse, times_term

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


def _ratio(t: TanHalf) -> tuple:
    """A canonical tan-half as a ratio (p, q): a Fraction's numerator and
    denominator, INFINITY as 1/0, a radical over 1."""
    if t is INFINITY:
        return 1, 0
    if isinstance(t, Fraction):
        return t.numerator, t.denominator
    return t, 1


def _is_ratio(t: TanHalf | None) -> bool:
    """True when _ratio reads t as two ints: a Fraction or INFINITY."""
    return t is INFINITY or isinstance(t, Fraction)


def _quotient(p, q) -> TanHalf:
    """The tan-half p/q: INFINITY when q is zero, a Fraction for two ints,
    and simplify(p / q) otherwise."""
    if not q:
        return INFINITY
    if isinstance(p, int) and isinstance(q, int):
        return Fraction(p, q)
    return simplify(p / q)


def tan_half_add(a: TanHalf, b: TanHalf) -> TanHalf:
    """tan((alpha+beta)/2) from the two half-angle tangents.

    With a = p/q and b = r/s (_ratio, INFINITY as 1/0) it is
    (ps + qr)/(qs - pr), the product (q + ip)(s + ir) read as a ratio, so the
    point at pi takes no case of its own.  Each argument goes through
    as_tan_half, here and in the other tan-half helpers: an int is taken as a
    Fraction, a float raises ValueError."""
    (p, q), (r, s) = _ratio(as_tan_half(a)), _ratio(as_tan_half(b))
    return _quotient(p * s + q * r, q * s - p * r)


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
    """The exact point ((q^2 - p^2)/N, 2pq/N) of t = p/q, N = p^2 + q^2.

    Rational t in lowest terms and INFINITY as 1/0 (the point (-1, 0)) give
    two Fractions built from integers, as in norm_parts; a radical t is t/1,
    and both coordinates share one inverse of N."""
    p, q = _ratio(as_tan_half(t))
    n = p * p + q * q
    if isinstance(n, int):
        return Fraction(q * q - p * p, n), Fraction(2 * p * q, n)
    inv = n.inverse()
    return simplify((q * q - p * p) * inv), simplify(2 * q * p * inv)


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
    try:
        return normalize_angle(2.0 * math.atan(float(t)))
    except OverflowError:  # |t| >= 2**1024, where 2*atan(t) rounds to +-pi
        return math.pi


def check_same_point(angle: float, xy: tuple) -> None:
    """ValueError unless the float angle and the exact point xy agree within
    1e-9 in each coordinate: the one test that an angle and a tan-half
    describe the same point."""
    ex, ey = xy
    if abs(float(ex) - math.cos(angle)) > 1e-9 or abs(float(ey) - math.sin(angle)) > 1e-9:
        raise ValueError("angle and tan_half describe different points")


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
            xy = exact_xy_of_tan(self.tan_half)
            check_same_point(self.angle, xy)
            object.__setattr__(self, "_xy", xy)

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
    """0 for angles in [0, pi), 1 for pi itself, 2 for (pi, tau), exactly:
    INFINITY is pi, and exact.sign decides any other tan-half."""
    if t is INFINITY:
        return 1
    return 2 * (sign(t) < 0)


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
        if hs != ht or hs == 1:
            return (hs > ht) - (hs < ht)
        return sign(s - t)

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
    """(a, b, d, k) with (a, b) = _ratio(t), t = a/b in lowest terms and
    INFINITY as 1/0, and the norm a^2 + b^2 = d*k^2, d squarefree; None for
    a radical or missing tan-half.  The point is ((b^2 - a^2)/N, 2ab/N), N
    the norm."""
    if not _is_ratio(t):
        return None
    a, b = _ratio(t)
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


def chord_direction(
    v: CirclePoint, w: CirclePoint
) -> tuple[int | ExactScalar, int | ExactScalar, ExactScalar]:
    """(ux, uy, |u|) for a positive multiple u of w - v, exact; the solver's
    chord columns.

    For rational tan-halves a/b and c/e (INFINITY as 1/0), u is the pair of
    ints sgn(cb - ae)*(-(ae + bc), be - ac): the product (b + ia)(e + ic)
    turned by i, so w - v = (2|cb - ae|/(N_v*N_w))*u and |u|^2 = N_v*N_w
    with the norms N = a^2 + b^2.  With N = d*k^2 (norm_parts) and
    g = gcd(d_v, d_w), |u| = k_v*k_w*g*sqrt(D), D = d_v*d_w/g^2, one term
    and a Fraction when D is 1.  A radical tan-half gives _chord's
    (w - v, |w - v|).  Coincident points raise ValueError.
    """
    s, t = norm_parts(v.tan_half), norm_parts(w.tan_half)
    if s is None or t is None:
        return _chord(v, w)
    (a, b, dv, kv), (c, e, dw, kw) = s, t
    cross = c * b - a * e
    if not cross:
        raise ValueError("chord direction of coincident points")
    ux, uy = -(a * e + b * c), b * e - a * c
    if cross < 0:
        ux, uy = -ux, -uy
    g = math.gcd(dv, dw)
    big_d = (dv // g) * (dw // g)
    length = Fraction(kv * kw * g)
    return ux, uy, length if big_d == 1 else times_term(length, (big_d, 1))


def diameter_side(v: CirclePoint, w: CirclePoint) -> int:
    """Side of w relative to the diameter through v, decided exactly.

    The sign of vx*wy - vy*wx = sin(theta_w - theta_v): 1 when w lies less
    than a half turn counterclockwise from v, -1 when clockwise, 0 when w is
    v or its antipode.  For rational tan-halves a/b and c/e (_ratio,
    INFINITY as 1/0) it is 2(be + ac)(cb - ae)/(N_v*N_w) with the norms
    N = a^2 + b^2, so the side is the sign of (cb - ae)(be + ac), two int
    products.  A radical tan-half takes the sign of the cross product
    itself; both points must be exact.  Either sign is exact.sign's.
    """
    s, t = v.tan_half, w.tan_half
    if _is_ratio(s) and _is_ratio(t):
        (a, b), (c, e) = _ratio(s), _ratio(t)
        return sign((c * b - a * e) * (b * e + a * c))
    vx, vy = v.exact_xy()
    wx, wy = w.exact_xy()
    return sign(vx * wy - vy * wx)


def tangent_components_exact(
    v: CirclePoint, w: CirclePoint
) -> tuple[RadExpr, RadExpr]:
    """(w - v)/|w - v| componentwise, exact; needs a rational squared length,
    so each component is one term.  Coincident points raise ValueError.

    For rational tan-halves a/b and c/e (norm_parts, INFINITY as 1/0) the
    difference comes straight from the integers,
    w - v = ((e^2 - c^2)N_v - (b^2 - a^2)N_w, 2(ce*N_v - ab*N_w))/(N_v*N_w),
    and |w - v| = 2|ae - cb|/(k_v*k_w*g*sqrt(D)) as in _chord; with
    N_v*N_w = (k_v*k_w*g)^2*D each component is one Fraction over
    2|ae - cb|*k_v*k_w*g*D times sqrt(D).  It never reads chord_direction's
    u, so the residual stays independent of the solver's columns.  A
    radical tan-half divides _chord's (w - v) by its length.
    """
    s, t = norm_parts(v.tan_half), norm_parts(w.tan_half)
    if s is None or t is None:
        dx, dy, length = _chord(v, w)
        if not length:
            raise ValueError("tangent direction of coincident points")
        inv = term_inverse(term(length))
        return times_term(dx, inv), times_term(dy, inv)
    (a, b, dv, kv), (c, e, dw, kw) = s, t
    cross = a * e - c * b
    if not cross:
        raise ValueError("tangent direction of coincident points")
    nv, nw = a * a + b * b, c * c + e * e
    g = math.gcd(dv, dw)
    big_d = (dv // g) * (dw // g)
    den = 2 * abs(cross) * kv * kw * g * big_d
    root = (big_d, 1)
    return (
        times_term(Fraction((e * e - c * c) * nv - (b * b - a * a) * nw, den), root),
        times_term(Fraction(2 * (c * e * nv - a * b * nw), den), root),
    )


def tangent_point(v: CirclePoint, w: CirclePoint) -> CirclePoint:
    """Unit direction from v toward w, itself as a circle point.

    Exact whenever both endpoints are exact with a rational squared chord
    length; the direction components then live in Q adjoined one square root,
    and its own tan-half is the ratio y/(1 + x), INFINITY when x = -1.
    """
    if v.tan_half is not None and w.tan_half is not None:
        try:
            ux, uy = tangent_components_exact(v, w)
        except InexactPosition:
            pass
        else:
            return CirclePoint.from_tan_half(_quotient(uy, ux + 1))
    vx, vy = v.xy()
    wx, wy = w.xy()
    return CirclePoint.from_angle(math.atan2(wy - vy, wx - vx))
