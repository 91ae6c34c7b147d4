import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geonet import circle
from geonet.circle import (
    INFINITY,
    CirclePoint,
    _chord,
    angle_of_tan,
    angle_order,
    as_tan_half,
    chord_direction,
    diameter_side,
    exact_xy_of_tan,
    norm_parts,
    normalize_angle,
    point_div,
    tan_half_add,
    tan_half_neg,
    tan_half_sub,
    tangent_components_exact,
    tangent_point,
)
from geonet.errors import InexactPosition
from geonet.exact import RadExpr, term
from helpers import (
    RECTANGLE_TANS,
    TAN_GRID,
    cased_tan_half_add,
    chord_by_square,
    chord_tangent_components,
    counted,
    fraction_xy_of_tan,
    norm,
    point_mul,
    pt,
    radexpr_diameter_side,
    reflect_point,
    two_division_xy_of_tan,
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


tan_halves_and_pi = st.one_of(tan_halves, st.just(Fraction(0)), st.just(INFINITY))


def with_oracle(a, b) -> tuple:
    """(tan_half_add, its oracle) and (tan_half_sub, its oracle) at a, b."""
    return (
        (tan_half_add(a, b), cased_tan_half_add(a, b)),
        (tan_half_sub(a, b), cased_tan_half_add(a, tan_half_neg(b))),
    )


@given(a=tan_halves_and_pi, b=tan_halves_and_pi)
@example(a=Fraction(2), b=Fraction(1, 2))  # zero denominators: the sum is pi,
@example(a=Fraction(2), b=Fraction(-1, 2))  # and here the difference
@settings(max_examples=300, deadline=None)
def test_ratio_sum_matches_the_cased_sum(a, b):
    for got, want in with_oracle(a, b):
        if want is INFINITY:
            assert got is INFINITY
        else:
            assert type(got) is Fraction and got == want


ROOT3 = RadExpr.sqrt(3)
RADICAL_TANS = (ROOT3, 1 + RadExpr.sqrt(2), -ROOT3, -1 - RadExpr.sqrt(2))


def test_ratio_sum_matches_the_cased_sum_on_radicals():
    # each radical with each other, with 0 and with the point at pi, both
    # ways round; sqrt3 and sqrt3/3 sum to pi
    ends = (*RADICAL_TANS, Fraction(0), INFINITY)
    pairs = [(r, s) for r in RADICAL_TANS for s in ends]
    pairs += [(s, r) for r in RADICAL_TANS for s in ends[-2:]] + [(ROOT3, ROOT3 / 3)]
    for a, b in pairs:
        for got, want in with_oracle(a, b):
            assert got == want and type(got) is type(want), (a, b)
    assert tan_half_add(ROOT3, ROOT3 / 3) is INFINITY


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
    for t in (*RADICAL_TANS, ROOT3 / 3, RadExpr.sqrt(2) - 1):
        assert exact_xy_of_tan(t) == two_division_xy_of_tan(t), t


def test_radical_point_inverts_its_norm_once(monkeypatch):
    t = 1 + RadExpr.sqrt(2)
    calls = []
    inverse = RadExpr.inverse

    def counting(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(RadExpr, "inverse", counting)
    got = exact_xy_of_tan(t)
    assert len(calls) == 1
    calls.clear()
    assert CirclePoint.from_tan_half(t).exact_xy() == got
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == two_division_xy_of_tan(t)


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


def test_diameter_side_matches_the_radexpr_cross_product():
    # the ratio integers decide rational pairs; every ordered pair of the
    # grid, the point itself and its antipode included, and the radical
    # points above, on their own and against the grid
    grid = {Fraction(s * p, q) for s in (1, -1) for p in range(1, 7) for q in range(1, 6)}
    tans = [*sorted(grid), Fraction(0), INFINITY, RadExpr.sqrt(2) - 1, -RadExpr.sqrt(2) - 1]
    points = [CirclePoint.from_tan_half(t) for t in tans]
    sides = {-1: 0, 0: 0, 1: 0}
    for v in points:
        for w in points:
            side = diameter_side(v, w)
            assert side == radexpr_diameter_side(v, w), (v.tan_half, w.tan_half)
            sides[side] += 1
    assert len(points) == 46 and all(sides.values()), sides


def test_angle_order_puts_tiny_negative_point_last():
    points = [
        CirclePoint.from_tan_half(Fraction(-1, 10**20)),
        CirclePoint.from_tan_half(Fraction(0)),
        CirclePoint.from_tan_half(Fraction(1)),
    ]
    assert angle_order(points) == [1, 2, 0]


def test_angle_order_decides_near_ties_exactly():
    # float angles closer than ANGLE_MARGIN: the point at pi against one just
    # below it is decided by their halves, and two radicals 10^-9 apart by the
    # sign of their difference
    below_pi = CirclePoint.from_tan_half(10**8)
    assert angle_order([CirclePoint.from_tan_half(INFINITY), below_pi]) == [1, 0]
    root = RadExpr.sqrt(2)
    pair = [CirclePoint.from_tan_half(root + Fraction(1, 10**9)), CirclePoint.from_tan_half(root)]
    assert isinstance(pair[0].tan_half, RadExpr)
    assert angle_order(pair) == [1, 0]


def test_tan_halves_past_float_range_have_an_angle():
    # float(t) overflows for |t| >= 2**1024, where 2*atan(t) rounds to +-pi
    huge = Fraction(10**400)
    for t, angle in ((huge, math.pi), (-huge, math.pi), (1 / huge, 0.0), (-1 / huge, 0.0)):
        p = CirclePoint.from_tan_half(t)
        assert p.angle == angle and p.tan_half == t
    points = [CirclePoint.from_tan_half(t) for t in (-huge, INFINITY, huge, Fraction(0))]
    assert angle_order(points) == [3, 2, 1, 0]


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


def test_chord_direction_is_a_positive_multiple_of_the_chord():
    # u = sgn(cb - ae)*(-(ae + bc), be - ac) on criterion 04's grid, 0, pi
    # and LARGE: ints along w - v, |u|^2 = N_v*N_w, and |u| one term
    points = [pt(t) for t in (0, INFINITY, *TAN_GRID)] + [LARGE]
    for i, v in enumerate(points):
        for w in points[i + 1 :]:
            ux, uy, length = chord_direction(v, w)
            dx, dy, _ = _chord(v, w)
            assert type(ux) is int and type(uy) is int
            assert dx * uy == dy * ux and dx * ux + dy * uy > 0, (v, w)
            n = norm(v.tan_half) * norm(w.tan_half)
            assert ux * ux + uy * uy == n
            d, q = term(length)
            assert q > 0 and q * q * d == n
            assert type(length) is (Fraction if d == 1 else RadExpr)
            assert chord_direction(w, v) == (-ux, -uy, length)


def test_chord_direction_on_radical_points_is_the_chord():
    # the axis points turned by a quarter of pi: radical tan-halves, rational
    # squared chords, and a rational point beside them
    turn = RadExpr.sqrt(2) - 1
    turned = [CirclePoint.from_tan_half(tan_half_add(t, turn)) for t in (0, 1, INFINITY, -1)]
    for i, v in enumerate(turned):
        for w in turned[i + 1 :]:
            assert chord_direction(v, w) == _chord(v, w)
    with pytest.raises(InexactPosition):
        chord_direction(turned[0], pt(0))
    with pytest.raises(ValueError, match="coincident"):
        chord_direction(pt(Fraction(2, 3)), pt(Fraction(2, 3)))
    for v in (*turned, CirclePoint.from_tan_half(turn)):
        with pytest.raises(ValueError, match="chord direction of coincident points"):
            chord_direction(v, v)


# 0, +-p/q with p, q <= 6 and the point at pi: norms in several length classes
SMALL_GRID = [pt(0), pt(INFINITY)] + [
    pt(t)
    for t in sorted({Fraction(s * p, q) for s in (1, -1) for p in range(1, 7) for q in range(1, 7)})
]


def test_tangent_components_from_integers_match_the_chord(monkeypatch):
    chords = counted(monkeypatch, circle, "_chord")
    assert len({norm_parts(p.tan_half)[2] for p in SMALL_GRID}) > 1
    for v in SMALL_GRID:
        for w in SMALL_GRID:
            if v is w:
                continue
            got, want = tangent_components_exact(v, w), chord_tangent_components(v, w)
            # equal as values, and as term maps: one term each, on the same root
            assert got == want and [x.terms() for x in got] == [x.terms() for x in want], (v, w)
        with pytest.raises(ValueError, match="coincident"):
            tangent_components_exact(v, pt(v.tan_half))
    # a rational pair never builds the chord
    assert chords == []


def test_tangent_components_of_radical_points_take_the_chord(monkeypatch):
    # the axis points turned by a quarter of pi, and points at multiples of
    # pi/6: radical tan-halves; a pair of rational squared length compares
    # with the oracle, and any other raises InexactPosition in both
    chords = counted(monkeypatch, circle, "_chord")
    turn = RadExpr.sqrt(2) - 1
    turned = [CirclePoint.from_tan_half(tan_half_add(t, turn)) for t in (0, 1, INFINITY, -1)]
    sixth = RadExpr.sqrt(3) * Fraction(1, 3)  # tan(pi/6), a turn by pi/3
    sixths = [CirclePoint.from_tan_half(tan_half_add(t, sixth)) for t in (0, 1, INFINITY, -1)]
    points = turned + sixths + [pt(0), pt(1)]
    compared = raised = 0
    for v in points:
        for w in points:
            if v is w:
                continue
            try:
                want = chord_tangent_components(v, w)
            except InexactPosition:
                with pytest.raises(InexactPosition):
                    tangent_components_exact(v, w)
                raised += 1
                continue
            assert tangent_components_exact(v, w) == want, (v, w)
            compared += 1
    assert compared and raised
    assert len(chords) == compared + raised - 2  # pt(0) to pt(1) and back are rational
    for v in turned + sixths:
        with pytest.raises(ValueError, match="coincident"):
            tangent_components_exact(v, CirclePoint.from_tan_half(v.tan_half))


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
