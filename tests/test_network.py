import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonet import network
from geonet.circle import INFINITY, TAU, CirclePoint
from geonet.errors import (
    DuplicateEdge,
    DuplicateVertexAngle,
    InexactPosition,
    SelfLoopEdge,
    ZeroMultiplicity,
)
from geonet.exact import RadExpr
from geonet.network import (
    DEFAULT_TOL,
    InteriorEdge,
    Network,
    ValidationReport,
    Vertex,
    canonical_key,
    crossing_pairs,
    exterior_balance,
    invariant_report,
    is_admissible,
    is_stationary,
    make_network,
    stationarity_residual,
)
from helpers import (
    admissible_fan_rectangles,
    boundary_trace,
    counted,
    float_line_network,
    golden_triangle,
    line_network,
    point_mul,
    product_chain_residual,
    pt,
    radexpr_exterior_balance,
    rebuilt_canonical_key,
    rectangle_network,
    reflect_point,
    seeded_rng,
    square_network,
)


def test_vertex_multiplicity_guard():
    with pytest.raises(ZeroMultiplicity):
        Vertex(pt(0), 0)
    with pytest.raises(ZeroMultiplicity):
        InteriorEdge(0, 1, 0)


@pytest.mark.parametrize("m", [True, False])
def test_boolean_multiplicity_rejected(m):
    # bool subclasses int, but True is not a multiplicity
    with pytest.raises(ZeroMultiplicity):
        Vertex(pt(0), m)
    with pytest.raises(ZeroMultiplicity):
        InteriorEdge(0, 1, m)


def test_self_loop_guard():
    with pytest.raises(SelfLoopEdge):
        InteriorEdge(2, 2, 1)


def test_duplicate_angle_guard():
    with pytest.raises(DuplicateVertexAngle):
        make_network([Vertex(pt(0), 1), Vertex(pt(0), 2)], [])
    # the same exact point, its float angle 1e-10 below tau: equal across the cut
    with pytest.raises(DuplicateVertexAngle):
        zero = CirclePoint(TAU - 1e-10, Fraction(0))
        make_network([Vertex(zero, 1), Vertex(pt(0), 2)], [])


def test_duplicate_edge_guard():
    with pytest.raises(DuplicateEdge):
        make_network(
            [Vertex(pt(0), 1), Vertex(pt(1), 1)],
            [InteriorEdge(0, 1, 1), InteriorEdge(1, 0, 2)],
        )


def test_make_network_sorts_by_angle():
    net = make_network(
        [Vertex(pt(INFINITY), 2), Vertex(pt(0), 1)], [InteriorEdge(0, 1, 3)]
    )
    assert [v.exterior_mult for v in net.vertices] == [1, 2]
    assert net.edges[0] == InteriorEdge(0, 1, 3)  # indices remapped to sorted order
    # float angles 2e-14 apart, equal float angles, 2e-14 apart across the cut
    for tans in (
        [Fraction(10**7), Fraction(10**7 + 1)],
        [Fraction(10**6), 10**6 + Fraction(1, 10**6)],
        [Fraction(0), Fraction(-1, 10**14)],
    ):
        net = make_network([Vertex(pt(t), 1) for t in reversed(tans)], [])
        assert [v.position.tan_half for v in net.vertices] == tans
    # t = 0 comes first even when its float angle sits just below tau
    zero = CirclePoint(TAU - 1e-10, Fraction(0))
    net = make_network([Vertex(pt(1), 1), Vertex(zero, 2)], [])
    assert [v.exterior_mult for v in net.vertices] == [2, 1]


def test_line_is_exactly_stationary():
    net = line_network(3)
    assert is_stationary(net, mode="exact")
    rx, ry = stationarity_residual(net, 0, mode="exact")
    assert rx.is_zero() and ry.is_zero()


def test_line_with_mismatched_edge_mult_is_not_stationary():
    assert not is_stationary(line_network(2, m_edge=1), mode="exact")


def test_square_residual_value():
    net = square_network()
    rx, ry = stationarity_residual(net, 0, mode="exact")
    assert rx == RadExpr.of(1) - RadExpr.sqrt(2)
    assert ry.is_zero()
    assert not is_stationary(net)
    assert not is_admissible(net).admissible


def test_golden_triangle_admissible():
    report = is_admissible(golden_triangle(), mode="exact")
    assert report.admissible
    assert report.stationary
    assert not report.crossings
    assert report.violations == []


def test_rectangle_admissible():
    assert is_admissible(rectangle_network(), mode="exact").admissible


def test_residual_matches_the_product_chain():
    # every vertex of the stationary fixtures, and of each with one more unit
    # on every edge, whose residuals are not zero
    nets = [golden_triangle(), line_network(), rectangle_network(), *admissible_fan_rectangles()]
    for net in nets:
        edges = tuple(InteriorEdge(e.i, e.j, e.mult + 1) for e in net.edges)
        heavier = Network(net.vertices, edges)
        for n in (net, heavier):
            for i in range(n.n_vertices):
                got = stationarity_residual(n, i, mode="exact")
                assert got == product_chain_residual(n, i)
                assert (n is heavier) != (got[0].terms() == got[1].terms() == {})


def test_admissibility_needs_a_point():
    with pytest.raises(ValueError, match="need at least one point"):
        is_admissible(Network((), ()))


def test_crossing_pairs_detects_diagonals():
    net = make_network(
        [Vertex(pt(0), 1), Vertex(pt(1), 1), Vertex(pt(INFINITY), 1), Vertex(pt(-1), 1)],
        [InteriorEdge(0, 2, 1), InteriorEdge(1, 3, 1)],
    )
    assert crossing_pairs(net) == [(0, 1)]
    assert not is_admissible(net).admissible


def test_float_network_falls_back():
    net = float_line_network()
    assert not net.is_exact
    assert is_stationary(net)  # float mode within tolerance
    with pytest.raises(InexactPosition):
        stationarity_residual(net, 0, mode="exact")


def test_stationarity_residual_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        stationarity_residual(line_network(), 0, mode="fuzzy")


def test_float_network_invariants_and_key():
    net = float_line_network()
    rep = invariant_report(net)
    assert not rep.exact
    assert rep.exterior_balance == pytest.approx((0.0, 0.0), abs=1e-15)
    assert rep.mass_gap == pytest.approx(0.0, abs=1e-15)
    assert rep.exterior_parity == "even"
    # float positions are keyed by their rounded gaps: turning keeps the key
    turned = make_network(
        [Vertex(CirclePoint.from_angle(v.position.angle + 1.0), 1) for v in net.vertices],
        net.edges,
    )
    assert canonical_key(turned) == canonical_key(net)
    assert canonical_key(net) != canonical_key(line_network())


def test_invariant_report_falls_back_on_irrational_chord_length():
    # exact vertices at 0 and pi/4: the chord length sqrt(2 - sqrt2) has no
    # exact form, so the whole report is taken in floats
    net = make_network(
        [Vertex(pt(0), 1), Vertex(CirclePoint.from_tan_half(RadExpr.sqrt(2) - 1), 3)],
        [InteriorEdge(0, 1, 2)],
    )
    assert net.is_exact
    rep = invariant_report(net)
    assert not rep.exact
    half = math.sqrt(2) / 2
    assert rep.exterior_balance == pytest.approx((1 + 3 * half, 3 * half))
    assert rep.mass_gap == pytest.approx(4 - 2 * math.sqrt(2 - math.sqrt(2)))
    assert rep.exterior_parity == "even"


def test_invariant_report_exact_zero():
    rep = invariant_report(golden_triangle())
    assert rep.exact
    bx, by = rep.exterior_balance
    assert bx.is_zero() and by.is_zero()
    assert rep.mass_gap.is_zero()
    assert rep.exterior_parity == "even"


def test_invariant_report_odd_parity():
    net = make_network(
        [Vertex(pt(0), 2), Vertex(pt(INFINITY), 1)], [InteriorEdge(0, 1, 1)]
    )
    assert invariant_report(net).exterior_parity == "odd"


def test_invariant_report_exact_mass_gap():
    # four unit rays and four unit sides of length sqrt(2)
    rep = invariant_report(square_network())
    assert rep.exact
    assert rep.mass_gap == 4 - 4 * RadExpr.sqrt(2)
    assert rep.exterior_balance == (RadExpr(), RadExpr())


ray_tan_halves = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
    st.builds(
        lambda a, b: RadExpr.of(a) + RadExpr.sqrt(2) * b,
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    ),
    st.just(INFINITY),
)


@given(rays=st.lists(st.tuples(ray_tan_halves, st.integers(1, 20)), max_size=6))
@settings(max_examples=100, deadline=None)
def test_exterior_balance_matches_the_radexpr_sum(rays):
    # rational, Q(sqrt2) and pi rays, alone and mixed, and no ray at all
    rays = [(CirclePoint.from_tan_half(t), m) for t, m in rays]
    got = exterior_balance(rays)
    assert all(isinstance(c, RadExpr) for c in got)
    assert got == radexpr_exterior_balance(rays)
    assert exterior_balance(iter(rays)) == got


def test_exterior_balance_edge_cases():
    assert exterior_balance([]) == (RadExpr(), RadExpr())
    assert exterior_balance([(pt(INFINITY), 3)]) == (RadExpr.of(-3), RadExpr())
    # a rational ray first, then a radical one: the Fraction sum turns RadExpr
    mixed = [(pt(0), 2), (CirclePoint.from_tan_half(RadExpr.sqrt(2) - 1), 2)]
    assert exterior_balance(mixed) == (2 + RadExpr.sqrt(2), RadExpr.sqrt(2))
    with pytest.raises(InexactPosition):
        exterior_balance([(pt(0), 1), (CirclePoint.from_angle(1.0), 1)])


def test_is_admissible_computes_each_chord_tangent_once(monkeypatch):
    # one tangent per edge, negated at its other end; the network module's
    # binding is the one it calls
    calls = []
    real = network.tangent_components_exact

    def counted(v, w):
        calls.append((v, w))
        return real(v, w)

    monkeypatch.setattr(network, "tangent_components_exact", counted)
    for net in (golden_triangle(), rectangle_network(), *admissible_fan_rectangles()[:8]):
        calls.clear()
        assert is_admissible(net, mode="exact").admissible
        assert len(calls) == net.n_edges
    calls.clear()
    assert is_admissible(square_network(), mode="float").crossings == []
    assert calls == []


def mixed_network() -> Network:
    """Exact and float positions.  Vertex 0 has only exact neighbours with
    rational squared chord lengths; vertex 1's chord to the radical vertex 2
    has an irrational squared length, and vertex 3 is a float point."""
    root2 = RadExpr.sqrt(2)
    return make_network(
        [
            Vertex(pt(0), 2),
            Vertex(pt(Fraction(3, 4)), 1),
            Vertex(CirclePoint.from_tan_half(root2), 3),
            Vertex(CirclePoint.from_angle(2.5), 1),
            Vertex(pt(Fraction(-3, 4)), 2),
        ],
        [
            InteriorEdge(0, 1, 1),
            InteriorEdge(0, 2, 2),
            InteriorEdge(0, 4, 1),
            InteriorEdge(1, 2, 1),
            InteriorEdge(2, 3, 1),
            InteriorEdge(3, 4, 2),
        ],
    )


def test_auto_mode_falls_back_vertex_by_vertex():
    # is_admissible shares one tangent per chord between its vertices; the
    # report is the one that stationarity_residual gives vertex by vertex
    net = mixed_network()
    residuals = [stationarity_residual(net, i) for i in range(net.n_vertices)]
    exact = [isinstance(x, RadExpr) for x, _ in residuals]
    assert exact == [True, False, False, False, False]
    norms = [math.hypot(float(x), float(y)) for x, y in residuals]
    ok = [
        x.is_zero() and y.is_zero() if e else n <= DEFAULT_TOL * (
            net.vertices[i].exterior_mult + sum(m for _, m in net.neighbors(i))
        )
        for i, ((x, y), e, n) in enumerate(zip(residuals, exact, norms))
    ]
    violations = [f"vertex {i}: residual norm {n:.3g}" for i, n in enumerate(norms) if not ok[i]]
    assert violations
    want = ValidationReport(all(ok), max(norms), [], violations)
    assert is_admissible(net) == want
    assert is_admissible(net, mode="auto") == want
    with pytest.raises(InexactPosition):
        is_admissible(net, mode="exact")


def test_boundary_trace_parity_even():
    rng = seeded_rng(salt=11)
    for _ in range(25):
        n = rng.randint(3, 7)
        tans = sorted(
            {Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)}
        )
        if len(tans) < 3:
            continue
        assert invariant_report(boundary_trace(tans)).exterior_parity == "even"


def test_canonical_key_invariant_under_rotation():
    base = golden_triangle()
    # rotate so that vertex 1 sits at angle zero: same canonical key
    from geonet.circle import point_div

    anchor = base.vertices[1].position
    moved = make_network(
        [Vertex(point_div(v.position, anchor), v.exterior_mult) for v in base.vertices],
        base.edges,
    )
    assert canonical_key(moved) == canonical_key(base)


def test_canonical_key_invariant_under_reflection():
    base = golden_triangle()
    mirrored = make_network(
        [Vertex(reflect_point(v.position), v.exterior_mult) for v in base.vertices],
        [InteriorEdge(e.i, e.j, e.mult) for e in base.edges],
    )
    assert canonical_key(mirrored) == canonical_key(base)


def test_canonical_key_separates_different_networks():
    assert canonical_key(line_network(1)) != canonical_key(line_network(2))
    assert canonical_key(golden_triangle()) != canonical_key(rectangle_network())
    # tan-halves 1e6 and 1e6 + 1e-6 have the same float angle
    near = [
        make_network([Vertex(pt(0), 1), Vertex(pt(t), 1)], [InteriorEdge(0, 1, 1)])
        for t in (Fraction(10**6), 10**6 + Fraction(1, 10**6))
    ]
    assert canonical_key(near[0]) != canonical_key(near[1])


def _congruent_copies(rng, pool, count: int) -> list:
    """count seeded networks on 1-6 points drawn from pool, each followed by
    a rotated, a reflected and a rotated reflected copy."""

    def image(net, turn=None, mirror=False):
        ps = [v.position for v in net.vertices]
        if mirror:
            ps = [reflect_point(p) for p in ps]
        if turn is not None:
            ps = [point_mul(p, turn) for p in ps]
        return make_network(
            [Vertex(p, v.exterior_mult) for p, v in zip(ps, net.vertices)], net.edges
        )

    nets = []
    for _ in range(count):
        n = rng.randint(1, 6)
        points = [CirclePoint.from_tan_half(t) for t in rng.sample(pool, n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        base = make_network(
            [Vertex(p, rng.randint(1, 2)) for p in points],
            [InteriorEdge(i, j, rng.randint(1, 2)) for i, j in pairs if rng.random() < 0.4],
        )
        turn = CirclePoint.from_tan_half(rng.choice(pool))
        nets += [base, image(base, turn), image(base, mirror=True), image(base, turn, True)]
    return nets


def _mismatched_pairs(keys_a: list, keys_b: list) -> int:
    """Pairs of indices that one key list calls equal and the other does not."""

    def equal_pairs(keys) -> int:
        return sum(k * (k - 1) // 2 for k in Counter(keys).values())

    both = equal_pairs(list(zip(keys_a, keys_b)))
    return equal_pairs(keys_a) + equal_pairs(keys_b) - 2 * both


RATIONAL_POOL = [INFINITY, Fraction(0)] + [
    Fraction(s * p, q)
    for s in (1, -1)
    for p, q in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
]
RADICAL_POOL = [  # a + b*sqrt(2)
    RadExpr.of(a) + b * RadExpr.sqrt(2)
    for a in (0, 1, -1, Fraction(1, 2))
    for b in (1, -1, Fraction(1, 2))
]


@pytest.mark.parametrize(
    "pool, count", [(RATIONAL_POOL, 300), (RADICAL_POOL, 112)], ids=["rational", "radical"]
)
def test_canonical_key_partition_matches_rebuilt_images(pool, count):
    nets = _congruent_copies(seeded_rng(salt=91), pool, count)
    keys = [canonical_key(net) for net in nets]
    rebuilt = [rebuilt_canonical_key(net) for net in nets]
    assert _mismatched_pairs(keys, rebuilt) == 0
    # each base shares its class with its copies, and most bases differ
    assert all(len(set(keys[i : i + 4])) == 1 for i in range(0, len(nets), 4))
    assert len(set(keys)) > count // 2


def _float_twins(net) -> list:
    """net with every point at its float angle alone, the same mirrored, and
    net with its first point exact and the others float."""

    def twin(angle_of, keep_first):
        points = [CirclePoint.from_angle(angle_of(v)) for v in net.vertices]
        if keep_first:
            points[0] = net.vertices[0].position
        vertices = [Vertex(p, v.exterior_mult) for p, v in zip(points, net.vertices)]
        return make_network(vertices, net.edges)

    return [
        twin(lambda v: v.position.angle, False),
        twin(lambda v: -v.position.angle, False),
        twin(lambda v: v.position.angle, True),
    ]


def test_canonical_key_of_an_exact_network_builds_no_point(monkeypatch):
    radical = _congruent_copies(seeded_rng(salt=92), RADICAL_POOL, 3)
    exact = [line_network(), golden_triangle(), rectangle_network(), *admissible_fan_rectangles()]
    inexact = [float_line_network()] + [t for net in exact[:3] for t in _float_twins(net)]
    nets = exact + radical + inexact
    keys = [canonical_key(net) for net in nets]
    # the keys partition exact, radical and float-positioned networks as the
    # rebuilt images do
    assert _mismatched_pairs(keys, [rebuilt_canonical_key(net) for net in nets]) == 0
    assert len(set(keys)) < len(keys)  # the float mirrors share their twins' keys
    built = counted(monkeypatch, CirclePoint, "__post_init__")
    for net in exact + radical:
        canonical_key(net)
    assert built == []
    # a gap with an inexact end is still read through point_div, one point each
    canonical_key(inexact[0])
    assert len(built) == 2
