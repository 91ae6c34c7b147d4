import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonet.circle import (
    INFINITY,
    CirclePoint,
    _chord,
    angle_of_tan,
    angle_order,
    as_tan_half,
    diameter_side,
    exact_xy_of_tan,
    normalize_angle,
    point_div,
    tan_half_add,
    tan_half_neg,
    tan_half_sub,
    tangent_components_exact,
    tangent_point,
)
from geonet.errors import InexactPosition
from geonet.exact import RadExpr
from helpers import (
    RECTANGLE_TANS,
    TAN_GRID,
    chord_by_square,
    fraction_xy_of_tan,
    point_mul,
    pt,
    reflect_point,
)

tan_halves = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def angle_of(t) -> float:
    return math.pi if t is INFINITY else 2.0 * math.atan(t)


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=200, deadline=None)
def test_add_matches_angles(a, b):
    s = tan_half_add(a, b)
    want = (angle_of(a) + angle_of(b)) % (2 * math.pi)
    assert angle_of_tan(s) == pytest.approx(want % (2 * math.pi), abs=1e-9)


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=200, deadline=None)
def test_sub_matches_angles(a, b):
    d = tan_half_sub(a, b)
    want = (angle_of(a) - angle_of(b)) % (2 * math.pi)
    assert angle_of_tan(d) == pytest.approx(want, abs=1e-9)


def test_projective_rules():
    assert tan_half_add(1, 1) is INFINITY  # pi/2 + pi/2
    assert tan_half_add(INFINITY, Fraction(2)) == Fraction(-1, 2)
    assert tan_half_sub(INFINITY, Fraction(2)) == Fraction(1, 2)
    assert tan_half_sub(Fraction(2), INFINITY) == Fraction(-1, 2)
    assert tan_half_add(INFINITY, INFINITY) == 0
    assert tan_half_sub(INFINITY, INFINITY) == 0
    assert tan_half_neg(INFINITY) is INFINITY
    assert tan_half_neg(Fraction(3)) == Fraction(-3)


@given(t=tan_halves)
@settings(max_examples=100, deadline=None)
def test_exact_xy_on_unit_circle(t):
    x, y = exact_xy_of_tan(t)
    assert x * x + y * y == 1


def test_exact_xy_at_infinity():
    assert exact_xy_of_tan(INFINITY) == (Fraction(-1), Fraction(0))


def test_point_from_norms_matches_the_fraction_formula():
    # criterion 04's grid, 0, the point at pi, a large and a negative tan-half
    for t in (*TAN_GRID, Fraction(0), INFINITY, Fraction(10000019, 3), Fraction(-7, 3)):
        got = exact_xy_of_tan(t)
        assert got == fraction_xy_of_tan(t), t
        assert all(type(c) is Fraction for c in got), t
    # a radical tan-half keeps the RadExpr formula: 1 + sqrt2 is 3pi/8
    half_root2 = RadExpr.sqrt(2) / 2
    got = exact_xy_of_tan(1 + RadExpr.sqrt(2))
    assert got == (-half_root2, half_root2)
    assert all(type(c) is RadExpr for c in got)


def test_point_round_trip():
    p = CirclePoint.from_tan_half(Fraction(4, 3))
    assert p.is_exact
    x, y = p.exact_xy()
    assert (x, y) == (Fraction(-7, 25), Fraction(24, 25))
    fx, fy = p.xy()
    assert (fx, fy) == (pytest.approx(-0.28), pytest.approx(0.96))


def test_point_consistency_guard():
    with pytest.raises(ValueError):
        CirclePoint(1.0, Fraction(4, 3))  # angle does not match the tan-half
    for angle in (-0.5, math.tau, 7.0, math.nan):
        with pytest.raises(ValueError, match="not normalized to"):
            CirclePoint(angle)


def test_int_tan_half_is_kept_exact():
    p = CirclePoint(angle_of_tan(3), 3)
    assert type(p.tan_half) is Fraction and p.tan_half == 3
    # at the point at pi the tan-half is inverted; an int kept as it was
    # became the float 1/3 there
    pi = CirclePoint.from_tan_half(INFINITY)
    assert point_div(pi, p).tan_half == Fraction(1, 3)
    assert point_div(pi, p) == point_div(pi, CirclePoint.from_tan_half(3))
    assert tan_half_add(INFINITY, p.tan_half) == Fraction(-1, 3)
    assert type(tan_half_add(INFINITY, p.tan_half)) is Fraction


def test_tan_half_helpers_take_ints_as_fractions():
    # int true division made floats here: tan_half_add(1, 2) was -3.0
    for a, b in [(1, 2), (3, 1), (0, 5), (-2, 7), (INFINITY, 3), (2, INFINITY)]:
        fa = a if a is INFINITY else Fraction(a)
        fb = b if b is INFINITY else Fraction(b)
        for fn in (tan_half_add, tan_half_sub):
            got = fn(a, b)
            assert got == fn(fa, fb) and type(got) is type(fn(fa, fb))
    assert [tan_half_add(1, 2), tan_half_sub(3, 1)] == [Fraction(-3), Fraction(1, 2)]
    assert type(tan_half_neg(2)) is Fraction and tan_half_neg(2) == -2
    assert exact_xy_of_tan(2) == exact_xy_of_tan(Fraction(2)) == (Fraction(-3, 5), Fraction(4, 5))
    assert all(type(x) is Fraction for x in exact_xy_of_tan(2))
    for call in (lambda: tan_half_add(0.5, 1), lambda: tan_half_sub(1, 2.0),
                 lambda: tan_half_neg(0.5), lambda: exact_xy_of_tan(2.0)):
        with pytest.raises(ValueError, match="tan_half must be an int"):
            call()


@pytest.mark.parametrize("t", [0.1, 0.5, 3.0, True, False, "1/2", None])
def test_tan_half_must_be_exact(t):
    message = re.escape(f"tan_half must be an int, Fraction, RadExpr or INFINITY, got {t!r}")
    with pytest.raises(ValueError, match=message):
        as_tan_half(t)
    with pytest.raises(ValueError, match=message):
        CirclePoint.from_tan_half(t)
    if t is not None:  # CirclePoint(angle, None) is a point without a tan-half
        with pytest.raises(ValueError, match=message):
            CirclePoint(1.0, t)


def test_float_only_point():
    p = CirclePoint.from_angle(1.234)
    assert not p.is_exact
    with pytest.raises(InexactPosition):
        p.exact_xy()


def test_infinity_survives_copy_and_pickle():
    # the point at pi is tested by identity, so every copy must be INFINITY itself
    assert copy.copy(INFINITY) is INFINITY
    assert copy.deepcopy(INFINITY) is INFINITY
    point = CirclePoint.from_tan_half(INFINITY)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INFINITY, protocol)) is INFINITY
        assert pickle.loads(pickle.dumps(point, protocol)).tan_half is INFINITY


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=100, deadline=None)
def test_mul_div_inverse(a, b):
    p = CirclePoint.from_tan_half(a)
    q = CirclePoint.from_tan_half(b)
    back = point_div(point_mul(p, q), q)
    assert back.tan_half == p.tan_half


@pytest.mark.parametrize("t", [Fraction(-1, 10**16), Fraction(-1, 10**20)])
def test_tiny_negative_tan_half_stays_below_tau(t):
    # 2*atan(t) % tau rounds up to tau itself for these
    p = CirclePoint.from_tan_half(t)
    assert 0.0 <= p.angle < math.tau
    assert p.tan_half == t


def test_tiny_negative_angle_stays_below_tau():
    p = CirclePoint.from_angle(-1e-17)
    assert 0.0 <= p.angle < math.tau


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_rejected(angle):
    with pytest.raises(ValueError):
        normalize_angle(angle)
    with pytest.raises(ValueError):
        CirclePoint.from_angle(angle)


def test_diameter_side():
    v = CirclePoint.from_tan_half(Fraction(1, 2))
    assert diameter_side(v, CirclePoint.from_tan_half(1)) == 1
    assert diameter_side(v, CirclePoint.from_tan_half(0)) == -1
    assert diameter_side(v, CirclePoint.from_tan_half(-2)) == 0  # antipode
    assert diameter_side(v, v) == 0
    # just past the antipode: the side flips
    assert diameter_side(v, CirclePoint.from_tan_half(Fraction(-199, 100))) == -1
    assert diameter_side(v, CirclePoint.from_tan_half(Fraction(-201, 100))) == 1
    # radical tan-halves: the diagonal at angle pi/4 and its antipode
    r = CirclePoint.from_tan_half(RadExpr.sqrt(2) - 1)
    assert diameter_side(r, CirclePoint.from_tan_half(-RadExpr.sqrt(2) - 1)) == 0
    assert diameter_side(CirclePoint.from_tan_half(INFINITY), r) == -1
    assert diameter_side(r, CirclePoint.from_tan_half(INFINITY)) == 1


def test_angle_order_puts_tiny_negative_point_last():
    points = [
        CirclePoint.from_tan_half(Fraction(-1, 10**20)),
        CirclePoint.from_tan_half(Fraction(0)),
        CirclePoint.from_tan_half(Fraction(1)),
    ]
    assert angle_order(points) == [1, 2, 0]


def test_reflect():
    p = CirclePoint.from_tan_half(Fraction(2, 5))
    assert reflect_point(p).tan_half == Fraction(-2, 5)
    assert reflect_point(CirclePoint.from_tan_half(INFINITY)).tan_half is INFINITY


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=150, deadline=None)
def test_chord_length_exact_matches_float(a, b):
    if a == b:
        return
    p = CirclePoint.from_tan_half(a)
    q = CirclePoint.from_tan_half(b)
    ln = _chord(p, q)[2]
    px, py = p.xy()
    qx, qy = q.xy()
    assert float(ln) == pytest.approx(math.hypot(qx - px, qy - py), abs=1e-9)


def test_chord_length_exact_edge_cases():
    p = CirclePoint.from_tan_half(Fraction(2, 3))
    assert _chord(p, p)[2] == 0
    with pytest.raises(ValueError, match="coincident"):
        tangent_components_exact(p, p)
    # v.w = 1/6 + sqrt(6)/3, so |w - v|^2 = 2 - 2 v.w is irrational
    v = CirclePoint.from_tan_half(RadExpr.sqrt(2))
    w = CirclePoint.from_tan_half(RadExpr.sqrt(3))
    with pytest.raises(InexactPosition):
        _chord(v, w)
    with pytest.raises(InexactPosition, match="chord direction"):
        tangent_components_exact(v, w)


def same_exact(x, y) -> bool:
    """Equal, of the same type, and a RadExpr only with a single term."""
    return type(x) is type(y) and x == y and (
        isinstance(x, Fraction) or len(x.terms()) == 1
    )


# criterion 04's grid with the rectangle tan-halves, 0 and the point at pi
NORM_POINTS = [pt(t) for t in (0, INFINITY, *sorted({*TAN_GRID, *RECTANGLE_TANS}))]
LARGE = pt(Fraction(10000019, 3))


def test_chord_lengths_from_norms_match_the_squared_chord():
    pairs = [(v, w) for i, v in enumerate(NORM_POINTS) for w in NORM_POINTS[i:]]
    # the oracle factors |w - v|^2, slow from 0 to LARGE but not from these
    others = (LARGE, pt(INFINITY), pt(Fraction(1, 7)), pt(Fraction(-3, 10000019)))
    pairs += [(LARGE, w) for w in others]
    for v, w in pairs:
        got, want = _chord(v, w), chord_by_square(v, w)
        assert all(same_exact(x, y) for x, y in zip(got, want)), (v, w)
    # coincident points: length Fraction(0)
    assert all(same_exact(_chord(v, v)[2], Fraction(0)) for v in (*NORM_POINTS, LARGE))


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=150, deadline=None)
def test_tangent_components_unit(a, b):
    if a == b:
        return
    p = CirclePoint.from_tan_half(a)
    q = CirclePoint.from_tan_half(b)
    tx, ty = tangent_components_exact(p, q)
    assert tx * tx + ty * ty == RadExpr.of(1)


def test_tangent_point_exact_irrational():
    # tangent of the chord from t=0 toward t=1 points along angle 3pi/4;
    # the direction (-1/sqrt2, 1/sqrt2) is not a rational point, but its
    # tan-half 1 + sqrt2 is still exactly representable
    p = tangent_point(CirclePoint.from_tan_half(Fraction(0)), CirclePoint.from_tan_half(Fraction(1)))
    assert p.angle == pytest.approx(3 * math.pi / 4)
    assert p.tan_half == RadExpr.of(1) + RadExpr.sqrt(2)
    assert p.is_exact


def test_tangent_point_rational_when_chord_squared_is_square():
    # from t=0 to t=4/3 the chord direction is (-4/5, 3/5): tangent at t=3
    p = tangent_point(CirclePoint.from_tan_half(Fraction(0)), CirclePoint.from_tan_half(Fraction(4, 3)))
    assert p.tan_half == Fraction(3)


def test_tangent_point_falls_back_on_irrational_squared_chord():
    # from pi/4 (tan-half sqrt2 - 1) to 0 the squared chord length 2 - sqrt2
    # is irrational, so the direction is taken from the float angles
    v = CirclePoint.from_tan_half(RadExpr.sqrt(2) - 1)
    p = tangent_point(v, CirclePoint.from_tan_half(Fraction(0)))
    assert p.tan_half is None
    assert p.angle == pytest.approx(13 * math.pi / 8)


def test_tangent_point_coincident_rejected():
    p = CirclePoint.from_tan_half(Fraction(1, 2))
    with pytest.raises(ValueError):
        tangent_point(p, p)


@given(a=tan_halves, b=tan_halves)
@settings(max_examples=150, deadline=None)
def test_tangent_point_matches_float_direction(a, b):
    if a == b:
        return
    p = CirclePoint.from_tan_half(a)
    q = CirclePoint.from_tan_half(b)
    t = tangent_point(p, q)
    px, py = p.xy()
    qx, qy = q.xy()
    want = math.atan2(qy - py, qx - px)
    # compare as directions: raw angles can straddle the 0 / 2*pi seam
    diff = (t.angle - want + math.pi) % (2 * math.pi) - math.pi
    assert abs(diff) < 1e-9
