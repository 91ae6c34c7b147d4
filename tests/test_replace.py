import time
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonet import replace, solver
from geonet.chords import ChordSet, enumerate_chord_sets
from geonet.circle import (
    INFINITY,
    CirclePoint,
    _chord,
    chord_direction,
    tan_half_add,
    tan_half_neg,
)
from geonet.errors import DuplicateVertexAngle, InexactPosition, IsolatedVertex
from geonet.exact import RadExpr
from geonet.io import network_from_dict, network_to_dict
from geonet.network import (
    InteriorEdge,
    Network,
    Vertex,
    canonical_key,
    exterior_balance,
    make_network,
)
from geonet.replace import (
    MAX_AUDIT_DEPTH,
    AngleExpr,
    AuditEffort,
    ReplacementProblem,
    certify_no_good_n3,
    good_network_audit,
    n3_angle_map,
    rational_point_of_expr,
    replacement_feasible,
    replacement_problem,
)
from geonet.solver import build_system, peel_solve, positive_integer_solutions, solve
from helpers import (
    TAN_GRID,
    admissible_fan_rectangles,
    axis_point_angles,
    counted,
    diameter_sides,
    evaluate_angle,
    factored,
    field_peel,
    golden_triangle,
    in_balance_cone,
    irrational_chord_pairs,
    line_network,
    norm,
    pt,
    rectangle_network,
    seeded_rng,
    square_network,
    uncached_good_network_audit,
    unpruned_replacement_feasible,
)


def test_angle_expr_algebra():
    a = AngleExpr.variable("a12")
    b = AngleExpr.variable("a23")
    half_pi = AngleExpr.pi_multiple(Fraction(1, 2))
    e = a.scale(Fraction(1, 2)) + half_pi - b
    assert not e.is_constant
    assert str(e) == "(1/2)·a12 - a23 + (1/2)·π"
    import math

    value = evaluate_angle(e, {"a12": 1.0, "a23": 0.25})
    assert value == pytest.approx(0.5 - 0.25 + math.pi / 2)


def test_angle_expr_str_coefficients():
    a = AngleExpr.variable("a")
    assert str(AngleExpr()) == "0"
    assert str(a) == "a"
    assert str(AngleExpr.pi_multiple(1)) == "π"
    assert str(a.scale(2) - AngleExpr.pi_multiple(3)) == "2·a - 3·π"
    assert str(AngleExpr.pi_multiple(-2)) == "-2·π"


def test_angle_expr_cancellation():
    a = AngleExpr.variable("x")
    assert (a - a).is_constant
    assert (a - a) == AngleExpr.pi_multiple(0)


def test_rational_point_classification():
    axis = axis_point_angles()
    for num in range(0, 16):
        for den in range(1, 9):
            q = Fraction(num, den) % 2
            expected = "forced-rational" if q in axis else "forced-irrational"
            assert rational_point_of_expr(AngleExpr.pi_multiple(q)) == expected
    assert rational_point_of_expr(AngleExpr.variable("a")) == "depends-on-variables"


def test_angle_map_slots():
    exprs = tuple(AngleExpr.variable(s) for s in ("a12", "a13", "a23"))
    mapped = n3_angle_map(exprs, 1)
    # slots 12 and 13 name vertex 1: (x + pi)/2; slot 23 just halves
    assert str(mapped[0]) == "(1/2)·a12 + (1/2)·π"
    assert str(mapped[1]) == "(1/2)·a13 + (1/2)·π"
    assert str(mapped[2]) == "(1/2)·a23"
    with pytest.raises(ValueError):
        n3_angle_map(exprs, 4)
    with pytest.raises(ValueError):
        n3_angle_map(exprs[:2], 1)


def test_certificate():
    start = time.perf_counter()
    verdict = certify_no_good_n3()
    elapsed = time.perf_counter() - start
    assert verdict.refuted
    assert verdict.status == "refuted-at-depth-2"
    assert str(verdict.witness) == "(3/4)·π"
    assert "not a rational point" in verdict.detail
    assert elapsed < 1.0


def test_replacement_problem_of_line():
    problem = replacement_problem(line_network(3), 0)
    assert problem.exterior_mults == (3, 3)
    tans = [p.tan_half for p in problem.positions]
    assert tans == [Fraction(0), INFINITY]


def test_replacement_problem_rotates_to_anchor():
    # the problem at vertex 1 of the golden triangle starts at angle zero too
    problem = replacement_problem(golden_triangle(), 1)
    assert problem.positions[0].angle == 0.0
    assert len(problem.positions) == 3
    assert sum(problem.exterior_mults) == 56 + 35 + 35


def test_replacement_problem_isolated_vertex():
    net = make_network(
        [Vertex(pt(0), 1), Vertex(pt(1), 1), Vertex(pt(INFINITY), 1)],
        [InteriorEdge(0, 2, 1)],
    )
    with pytest.raises(IsolatedVertex):
        replacement_problem(net, 1)
    # an index off the network is not an isolated vertex
    for i in (3, 5, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"vertex {i} out of range"):
            replacement_problem(net, i)


def test_line_problem_is_its_own_replacement():
    problem = replacement_problem(line_network(2), 0)
    replacement = replacement_feasible(problem, bound=5)
    assert replacement is not None
    assert canonical_key(replacement) == canonical_key(line_network(2))


def test_replacement_problem_orders_close_rays_exactly():
    problem = ReplacementProblem((pt(0), pt(10**7 + 1), pt(10**7)), (1, 2, 3))
    assert [p.tan_half for p in problem.positions] == [0, 10**7, 10**7 + 1]
    assert problem.exterior_mults == (1, 3, 2)
    with pytest.raises(DuplicateVertexAngle):
        ReplacementProblem((pt(0), pt(10**7), pt(10**7)), (1, 1, 1))


def test_boolean_ray_multiplicity_rejected():
    with pytest.raises(ValueError):
        ReplacementProblem((pt(0), pt(INFINITY)), (True, True))


def test_replacement_problem_needs_one_multiplicity_per_ray():
    with pytest.raises(ValueError, match="at least one ray"):
        ReplacementProblem((), ())
    with pytest.raises(ValueError, match="one multiplicity per ray"):
        ReplacementProblem((pt(0), pt(INFINITY)), (1,))


def test_replacement_feasible_rejects_bound_below_one():
    problem = replacement_problem(line_network(), 0)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            replacement_feasible(problem, bound)


def test_unbalanced_problem_has_no_replacement():
    problem = ReplacementProblem((pt(0), pt(INFINITY)), (1, 2))
    assert replacement_feasible(problem, bound=20) is None


def test_golden_vertex_problem_infeasible():
    # the tangent rays at any golden-triangle vertex force irrational ratios
    problem = replacement_problem(golden_triangle(), 0)
    assert replacement_feasible(problem, bound=50) is None


def test_line_audits_good():
    verdict = good_network_audit(line_network(1), depth=4, bound=20)
    assert verdict.good
    assert verdict.status == "good-to-depth-4"
    assert verdict.depth == 4


def test_rectangle_refuted_at_depth_one():
    verdict = good_network_audit(rectangle_network(), depth=3, bound=50)
    assert verdict.refuted
    assert verdict.depth == 1
    assert "no replacement" in verdict.detail


def test_golden_triangle_refuted():
    verdict = good_network_audit(golden_triangle(), depth=2, bound=50)
    assert verdict.refuted
    assert verdict.depth <= 2


def test_audit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        good_network_audit(line_network(1), depth=9)
    with pytest.raises(ValueError):
        good_network_audit(line_network(1), depth=2, bound=0)
    with pytest.raises(ValueError):
        good_network_audit(square_network())  # not admissible


def test_refutation_below_depth_one_is_passed_up(monkeypatch):
    # the line's vertex problem is replaced by the rectangle, whose vertex
    # problems differ from it and have no replacement; the stub's answer
    # depends on its problem alone, so the refutation comes from the nested
    # level
    line_problem = replacement_problem(line_network(), 0)
    problems = []

    def feasible_for_the_line(problem, bound):
        problems.append(problem)
        return rectangle_network() if problem == line_problem else None

    monkeypatch.setattr(replace, "replacement_feasible", feasible_for_the_line)
    verdict = good_network_audit(line_network(), depth=2)
    assert verdict.status == "refuted-at-depth-2"
    assert verdict.depth == 2
    assert len(problems) == 2
    assert problems[0] == line_problem
    assert verdict.witness is problems[1]
    assert verdict.witness == replacement_problem(rectangle_network(), 0)


def test_depth_zero_is_vacuous():
    verdict = good_network_audit(rectangle_network(), depth=0)
    assert verdict.good
    assert verdict.status == "good-to-depth-0"
    assert verdict.effort == AuditEffort(networks=0, problems=0, searches=0, hits=0)


@pytest.mark.parametrize("bound", [20, 50])
@pytest.mark.parametrize("depth", range(MAX_AUDIT_DEPTH + 1))
def test_audit_matches_the_uncached_audit(depth, bound):
    nets = (line_network(), golden_triangle(), rectangle_network()) + admissible_fan_rectangles()
    for net in nets:
        verdict = good_network_audit(net, depth=depth, bound=bound)
        # status, depth, witness, detail and bound; effort is not compared
        assert verdict == uncached_good_network_audit(net, depth, bound)
        assert verdict.effort is not None


def test_line_audit_searches_and_keys_its_one_network_once(monkeypatch):
    # replacing the diameter at either vertex gives it back, so one problem
    # (both vertices' problems are equal) and one network are met throughout;
    # the audited line itself is not keyed, so depth 1 keys nothing
    names = ("canonical_key", "replacement_problem", "replacement_feasible")
    keys, problems, searches = calls = [counted(monkeypatch, replace, name) for name in names]
    for depth in range(1, MAX_AUDIT_DEPTH + 1):
        uncached = uncached_good_network_audit(line_network(), depth, 20)
        assert [len(c) for c in calls] == [2 * depth - 1, 2 * depth, 2 * depth]
        # the uncached audit keys its root once; the audit does not look it up
        lookups = sum(len(c) for c in calls) - 1
        for c in calls:
            c.clear()
        # a fresh audit searches again: no table outlives the call before it
        verdict = good_network_audit(line_network(), depth=depth, bound=20)
        assert verdict == uncached
        assert [len(c) for c in calls] == [min(1, depth - 1), 2, 1]
        assert verdict.effort == AuditEffort(
            networks=len(keys),
            problems=len(problems),
            searches=len(searches),
            hits=lookups - len(keys) - len(problems) - len(searches),
        )
        for c in calls:
            c.clear()


def test_golden_triangle_refutation_is_one_search(monkeypatch):
    searches = counted(monkeypatch, replace, "replacement_feasible")
    verdict = good_network_audit(golden_triangle(), depth=MAX_AUDIT_DEPTH, bound=50)
    assert verdict.status == "refuted-at-depth-1"
    assert len(searches) == 1
    assert verdict.effort == AuditEffort(networks=0, problems=1, searches=1, hits=0)
    assert "effort" not in repr(verdict)


def test_audit_never_keys_its_root(monkeypatch):
    # the root's memo entry, (key, depth), could never be read: only the root
    # has depth levels left.  A replacement equal to the root is still keyed.
    keys = counted(monkeypatch, replace, "canonical_key")
    nets = (line_network(), golden_triangle(), rectangle_network()) + admissible_fan_rectangles()
    for net in nets:
        for depth in range(1, MAX_AUDIT_DEPTH + 1):
            verdict = good_network_audit(net, depth=depth, bound=20)
            assert all(args[0] is not net for args in keys)
            assert verdict.effort.networks == len(keys)
            if depth == 1:
                assert keys == []
            keys.clear()


def test_problem_canonical_key_rotation_invariant():
    def key(problem):
        # a problem's key is that of its rays as a network without chords
        rays = zip(problem.positions, problem.exterior_mults)
        return canonical_key(make_network([Vertex(p, m) for p, m in rays], []))

    p1 = replacement_problem(golden_triangle(), 0)
    p2 = replacement_problem(golden_triangle(), 2)
    # vertices 0 and 2 are mirror images: same canonical problem
    assert key(p1) == key(p2)
    p_mid = replacement_problem(golden_triangle(), 1)
    assert key(p1) != key(p_mid)
    # rays at tan-halves 1e6 and 1e6 + 1e-6 have the same float angle
    near = [
        ReplacementProblem((pt(0), pt(t)), (1, 1))
        for t in (Fraction(10**6), 10**6 + Fraction(1, 10**6))
    ]
    assert key(near[0]) != key(near[1])


# --- balance-cone pruning against the unpruned search ----------------------

GOLDEN_RAYS = ((Fraction(0), 100), (Fraction(4, 3), 56), (Fraction(-24, 7), 100))


def ray_problem(rays) -> ReplacementProblem:
    """Rays as (exact tan-half, multiplicity) pairs."""
    rays = tuple(rays)
    points = tuple(CirclePoint.from_tan_half(t) for t, _ in rays)
    return ReplacementProblem(points, tuple(m for _, m in rays))


def antipodal(pairs) -> list:
    rays = []
    for t, m in pairs:
        rays += [(t, m), (-1 / Fraction(t), m)]
    return rays


def six_rays(sign: int) -> ReplacementProblem:
    tans = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))
    return ray_problem(antipodal([(sign * t, m) for t, m in zip(tans, (1, 2, 3))]))


def rotated_golden(r: Fraction) -> ReplacementProblem:
    return ray_problem([(tan_half_add(t, r), m) for t, m in GOLDEN_RAYS])


def vertex_problem(k: int) -> ReplacementProblem:
    """Vertex problem k of the golden triangle (0-2) and the 3-4-5 rectangle
    (3-6).

    Their rays have rational tan-halves, but most chords between them have
    irrational length, so the systems have radical column scales.
    """
    net, i = (golden_triangle(), k) if k < 3 else (rectangle_network(), k - 3)
    return replacement_problem(net, i)


SQRT2 = RadExpr.sqrt(2)
# the four diagonal directions: tan-halves tan(pi/8), tan(3pi/8), ...
DIAGONALS = (SQRT2 - 1, SQRT2 + 1, -SQRT2 - 1, 1 - SQRT2)


# name -> a function that makes the problem.  A problem is made on first
# use, inside the tests, so a fault in replacement_problem or the ray
# problems fails the tests that read it by name instead of failing this
# file's collection
ORACLE_PROBLEMS = {
    "six": partial(six_rays, 1),
    "six-mirrored": partial(six_rays, -1),
    "golden-plus-pair": lambda: ray_problem([*GOLDEN_RAYS, *antipodal([(Fraction(1, 2), 7)])]),
    "golden-plus-pair-2": lambda: ray_problem([*GOLDEN_RAYS, *antipodal([(Fraction(4, 5), 20)])]),
    "two-pairs": lambda: ray_problem(antipodal([(Fraction(1, 2), 3), (Fraction(2, 5), 8)])),
    "two-pairs-2": lambda: ray_problem(antipodal([(Fraction(1, 6), 1), (Fraction(2, 3), 9)])),
    "rotated-golden": partial(rotated_golden, Fraction(0)),
    "rotated-golden-2": partial(rotated_golden, Fraction(2, 5)),
    "rotated-golden-3": partial(rotated_golden, Fraction(-1, 3)),
    "line": lambda: replacement_problem(line_network(2), 0),
    "radical-two-pairs": lambda: ray_problem(zip(DIAGONALS, (1, 2, 1, 2))),
    **{f"vertex-{k}": partial(vertex_problem, k) for k in range(7)},
}


@cache
def oracle_problem(name: str) -> ReplacementProblem:
    return ORACLE_PROBLEMS[name]()


# (name, bound, structures in the balance cone, structures peeled by the
# search after the length cut, total)
ORACLE_CASES = [
    ("six", 50, 45, 0, 2880),
    ("six-mirrored", 50, 45, 0, 2880),
    ("golden-plus-pair", 50, 11, 0, 352),
    ("golden-plus-pair-2", 50, 11, 0, 352),
    ("two-pairs", 50, 3, 0, 48),
    ("two-pairs-2", 50, 3, 0, 48),
    ("rotated-golden", 75, 1, 1, 8),
    ("rotated-golden-2", 75, 1, 1, 8),
    ("rotated-golden-3", 75, 1, 1, 8),
    ("line", 5, 1, 1, 2),
    # radical rays: no length cut
    ("radical-two-pairs", 50, 3, 3, 48),
] + [(f"vertex-{k}", 50, None, None, None) for k in range(7)]
# every other problem has rational rays
RADICAL = {"radical-two-pairs"}
FEASIBLE = {"rotated-golden", "rotated-golden-2", "rotated-golden-3", "line"}


def count_solved(problem: ReplacementProblem, bound: int, monkeypatch) -> int:
    calls = []

    def counting(*args):
        calls.append(args)
        return peel_solve(*args)

    monkeypatch.setattr(replace, "peel_solve", counting)
    replacement_feasible(problem, bound)
    return len(calls)


def cone_only(problem: ReplacementProblem) -> list[ChordSet]:
    """The balance-cone enumeration without the length cut."""
    positions = problem.positions
    return list(
        enumerate_chord_sets(
            len(positions), allow_adjacent=True, vertex_ok=replace._balance_cone(positions)
        )
    )


@pytest.mark.parametrize(
    "name, bound, cone, peeled, total",
    ORACLE_CASES,
    ids=[case[0] for case in ORACLE_CASES],
)
def test_pruned_search_matches_unpruned(name, bound, cone, peeled, total, monkeypatch):
    problem = oracle_problem(name)
    assert is_rational(problem) == (name not in RADICAL)
    found = replacement_feasible(problem, bound)
    assert found == unpruned_replacement_feasible(problem, bound)
    assert (found is not None) == (name in FEASIBLE)
    if cone is not None:
        n = len(problem.positions)
        assert sum(1 for _ in enumerate_chord_sets(n, allow_adjacent=True)) == total
        assert len(cone_only(problem)) == cone
        assert count_solved(problem, bound, monkeypatch) == peeled


def test_pruned_search_fails_like_unpruned_on_inexact_chords():
    # the diagonals plus the axis rays: some chords between them have an
    # irrational squared length, which build_system cannot represent
    problem = ray_problem(zip((*DIAGONALS, 0, INFINITY), (1,) * 6))
    with pytest.raises(InexactPosition):
        unpruned_replacement_feasible(problem, 50)
    with pytest.raises(InexactPosition):
        replacement_feasible(problem, 50)


SOUNDNESS_CASES = [case[0] for case in ORACLE_CASES if not case[0].startswith("six")]


@pytest.mark.parametrize("name", SOUNDNESS_CASES, ids=SOUNDNESS_CASES)
def test_rejected_structures_have_no_positive_solution(name):
    problem = oracle_problem(name)
    side = diameter_sides(problem.positions)
    n = len(problem.positions)
    rejected = 0
    for cs in enumerate_chord_sets(n, allow_adjacent=True):
        if in_balance_cone(side, cs.chords):
            continue
        rejected += 1
        result = solve(build_system(problem.positions, cs, problem.exterior_mults))
        if result.particular is None:
            continue
        # fixed-exterior systems of non-crossing chords carry no self-stress
        assert result.nullity == 0
        assert any(RadExpr.of(x).sign() <= 0 for x in result.particular)
    assert rejected > 0


# --- the bound: one comparison with the forced multiplicities ---------------

BOUND_CASES = [
    ("golden", ray_problem(GOLDEN_RAYS), (35, 75, 35)),
    # turned by a quarter of pi: radical rays, rational squared chords
    ("golden-turned", ray_problem([(tan_half_add(t, SQRT2 - 1), m) for t, m in GOLDEN_RAYS]), (35, 75, 35)),
    ("line", ReplacementProblem((pt(0), pt(INFINITY)), (3, 3)), (3,)),
]


@pytest.mark.parametrize(
    "problem, want", [c[1:] for c in BOUND_CASES], ids=[c[0] for c in BOUND_CASES]
)
def test_bound_refuses_only_above_the_forced_multiplicities(problem, want):
    # the peel applies no bound; the largest forced value decides it
    assert replacement_feasible(problem, max(want) - 1) is None
    net = replacement_feasible(problem, max(want))
    assert tuple(e.mult for e in net.edges) == want
    assert replacement_feasible(problem, 10**18) == net


def test_certificate_refuses_a_peel_that_disagrees(monkeypatch):
    # the solve is an independent check: one off in every value is caught
    def off_by_one(*args):
        mults = peel_solve(*args)
        return None if mults is None else tuple(m - 1 for m in mults)

    monkeypatch.setattr(replace, "peel_solve", off_by_one)
    with pytest.raises(ArithmeticError, match="peel solve disagrees"):
        replacement_feasible(ray_problem(GOLDEN_RAYS), 75)


@pytest.mark.parametrize("case, routes", [(0, (0, 1)), (1, (1, 0))], ids=["golden", "golden-turned"])
def test_certificate_solves_each_winner_once(case, routes, monkeypatch):
    # (peel_solve's system route, the certificate's re-solve): the integer
    # pass's winner is re-solved once; a radical winner was solved by the
    # system route, and not again
    problem = BOUND_CASES[case][1]
    system = counted(monkeypatch, solver, "solve")
    certificate = counted(monkeypatch, replace, "solve")
    assert replacement_feasible(problem, 75) is not None
    assert (len(system), len(certificate)) == routes


# --- the peel solve against the rref path -----------------------------------

@cache
def fan_rectangles() -> list[Network]:
    """A seeded sample of six admissible fan rectangles, drawn on first use."""
    return seeded_rng(salt=6).sample(admissible_fan_rectangles(), 6)


def compare_peel_with_solver(problem: ReplacementProblem, bound: int) -> list:
    """Peel every in-cone structure and re-solve it through build_system,
    solve and positive_integer_solutions at the bound, which must give the
    peel's forced values when none exceeds the bound, and nothing otherwise;
    returns the structures solved within the bound."""
    side = diameter_sides(problem.positions)
    n = len(problem.positions)

    def chord(i, j):
        return _chord(problem.positions[i], problem.positions[j])

    def direction(i, j):
        return chord_direction(problem.positions[i], problem.positions[j])

    solved = []
    for cs in enumerate_chord_sets(n, allow_adjacent=True):
        if not in_balance_cone(side, cs.chords):
            continue
        result = solve(build_system(problem.positions, cs, problem.exterior_mults))
        # fixed-exterior systems of non-crossing chords have nullity 0
        assert result.nullity == 0
        expected = positive_integer_solutions(result, bound)
        peeled = field_peel(problem.positions, problem.exterior_mults, cs.chords, chord)
        # the library, on the search's lookup, a multiple of each chord,
        # forces the same values
        assert peel_solve(problem.positions, problem.exterior_mults, cs.chords, direction) == peeled
        if peeled is not None and max(peeled) > bound:
            peeled = None
        assert expected == ([] if peeled is None else [peeled])
        if peeled is not None:
            solved.append((cs.chords, peeled))
    return solved


# structures with a solution per ORACLE_CASES problem; every other has none,
# the four-, five- and six-ray benchmark configurations among them
PEEL_SOLVED = {"rotated-golden": 1, "rotated-golden-2": 1, "rotated-golden-3": 1, "line": 1}


@pytest.mark.parametrize(
    "name, bound", [c[:2] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
)
def test_peel_matches_solver(name, bound):
    problem = oracle_problem(name)
    assert len(compare_peel_with_solver(problem, bound)) == PEEL_SOLVED.get(name, 0)


def test_peel_routes_integer_chords_to_the_integer_pass(monkeypatch):
    # chord_direction's ints between rational rays take the integer pass,
    # irrational lengths included (the vertex problems); radical rays are
    # solved by the system, one solver.solve call per structure.  So
    # compare_peel_with_solver, which peels each structure with field_peel
    # and then with peel_solve on chord_direction, compares the field pass
    # with the integer pass, and with the system route on radical rays
    integer = counted(monkeypatch, solver, "_peel_integer")
    system = counted(monkeypatch, solver, "solve")
    for name, bound, *_ in ORACLE_CASES:
        problem = oracle_problem(name)
        compare_peel_with_solver(problem, bound)
        cone = len(cone_only(problem))
        routes = (0, cone) if name in RADICAL else (cone, 0)
        assert cone and (len(integer), len(system)) == routes, name
        integer.clear()
        system.clear()
    # _chord's Fractions take the system route on rational rays too
    problem = oracle_problem("rotated-golden")
    (cs,) = cone_only(problem)

    def chord(i, j):
        return _chord(problem.positions[i], problem.positions[j])

    assert peel_solve(problem.positions, problem.exterior_mults, cs.chords, chord) == (35, 75, 35)
    assert (len(integer), len(system)) == (0, 1)


def test_rational_searches_never_take_the_system_route(monkeypatch):
    # every solver.solve call inside peel_solve is the system route; the
    # search's own certificate calls solve through replace's binding
    system = counted(monkeypatch, solver, "solve")
    problems = [oracle_problem(name) for name, *_ in ORACLE_CASES if name not in RADICAL]
    for net in admissible_fan_rectangles():
        problems.append(
            ReplacementProblem(
                tuple(v.position for v in net.vertices), tuple(v.exterior_mult for v in net.vertices)
            )
        )
    for net in (line_network(), golden_triangle(), rectangle_network()):
        problems += [replacement_problem(net, i) for i in range(net.n_vertices)]
    assert len(problems) == 17 + 80 + 9
    for problem in problems:
        replacement_feasible(problem, 50)
    assert system == []
    # the radical oracle problem solves each of its in-cone structures so
    replacement_feasible(oracle_problem("radical-two-pairs"), 50)
    assert len(system) == 3


def test_rational_search_makes_no_sign_call_and_no_peel_product(monkeypatch):
    # the rays' sides, their order and the peel's arithmetic stay in ints;
    # the radical problem shows that the counters see both kinds of call
    signs, products, peels = [], [], []
    sign, mul = RadExpr.sign, RadExpr.__mul__

    def counting_mul(x, y):
        if peels and peels[-1]:
            products.append((x, y))
        return mul(x, y)

    def peel(*args):
        peels.append(True)
        try:
            return peel_solve(*args)
        finally:
            peels[-1] = False

    monkeypatch.setattr(RadExpr, "sign", lambda x: signs.append(x) or sign(x))
    monkeypatch.setattr(RadExpr, "__mul__", counting_mul)
    monkeypatch.setattr(RadExpr, "__rmul__", counting_mul)
    monkeypatch.setattr(replace, "peel_solve", peel)
    assert replacement_feasible(oracle_problem("rotated-golden"), 75) is not None
    assert len(peels) == 1 and signs == [] and products == []
    replacement_feasible(oracle_problem("radical-two-pairs"), 50)
    assert len(peels) == 4 and signs and products


@pytest.mark.parametrize("k", range(6))
def test_peel_matches_solver_on_fan_rectangles(k):
    net = fan_rectangles()[k]
    own = ReplacementProblem(
        tuple(v.position for v in net.vertices), tuple(v.exterior_mult for v in net.vertices)
    )
    solved = compare_peel_with_solver(own, 20)
    # the rectangle itself is one of its boundary data's solutions
    chords = tuple((e.i, e.j) for e in net.edges)
    assert (chords, tuple(e.mult for e in net.edges)) in solved
    for i in range(net.n_vertices):
        compare_peel_with_solver(replacement_problem(net, i), 20)


# ROADMAP's eight-ray problem: four antipodal pairs, 231168 structures
EIGHT_RAYS = ray_problem(
    antipodal(zip((Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(2, 5)), (1, 2, 3, 4)))
)


def test_eight_ray_problem_has_no_replacement():
    assert replacement_feasible(EIGHT_RAYS, 50) is None


def test_cone_cut_matches_uncut_enumeration_on_eight_rays():
    positions = EIGHT_RAYS.positions
    side = diameter_sides(positions)
    cut = enumerate_chord_sets(8, allow_adjacent=True, vertex_ok=replace._balance_cone(positions))
    uncut = enumerate_chord_sets(8, allow_adjacent=True)
    in_cone = [cs for cs in uncut if in_balance_cone(side, cs.chords)]
    assert list(cut) == in_cone
    assert len(in_cone) == 903
    # only the four diameters have rational length, and they pairwise cross
    irrational = irrational_chord_pairs(positions)
    assert len(irrational) == 28 - 4
    assert [cs for cs in in_cone if not irrational.intersection(cs.chords)] == []


# --- the length cut: pairs of irrational chord length carry no chord --------

WIDE_TANS = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(2, 5), Fraction(1, 6), Fraction(4, 5))
# five and six antipodal pairs with ray multiplicities 1, 2, ...; twelve rays
# is the enumeration cap
WIDE_ANTIPODAL = {
    n: ray_problem(antipodal(zip(WIDE_TANS[: n // 2], range(1, n)))) for n in (10, 12)
}
PYTHAGOREAN_TANS = (
    Fraction(3, 4), Fraction(5, 12), Fraction(8, 15), Fraction(7, 24),
    Fraction(20, 21), Fraction(12, 35), Fraction(9, 40),
)
# 1 + t^2 is a rational square for each tan-half, so every chord is rational
PYTHAGOREAN_EIGHT = ray_problem(antipodal(zip(PYTHAGOREAN_TANS[:4], (1, 2, 3, 4))))
# 1 + t^2 is 25/16 times a square for the pair at 3/4 and 5/4 times a square
# for the other two: chords within each class are rational, chords across not
MIXED_SIX = ray_problem(antipodal(zip((Fraction(3, 4), Fraction(1, 2), Fraction(-1, 2)), (1, 2, 3))))
# fourteen balanced rays, past the enumeration cap: seven pairs in seven
# length classes (1 + t^2 is 5/4, 13/9, 17/16, 29/25, 37/36, 41/25 and 10/9,
# no two a square apart), and seven Pythagorean pairs in one class
SEVEN_PAIRS = ray_problem(antipodal(zip((*WIDE_TANS, Fraction(1, 3)), range(1, 8))))
PYTHAGOREAN_FOURTEEN = ray_problem(antipodal(zip(PYTHAGOREAN_TANS, range(1, 8))))


def is_rational(problem: ReplacementProblem) -> bool:
    return all(isinstance(c, Fraction) for p in problem.positions for c in p.exact_xy())


# (name, problem factory, bound, in-cone structures that the length cut
# drops) for every problem with rational rays; a vertex problem has one
# in-cone structure
RATIONAL_CASES = [
    (name, partial(oracle_problem, name), bound, 1 if cone is None else cone - peeled)
    for name, bound, cone, peeled, _ in ORACLE_CASES
    if name not in RADICAL
] + [("eight", lambda: EIGHT_RAYS, 50, 903), ("mixed-six", lambda: MIXED_SIX, 50, 45)]


@pytest.mark.parametrize(
    "name, build, bound, dropped", RATIONAL_CASES, ids=[case[0] for case in RATIONAL_CASES]
)
def test_length_cut_drops_only_structures_without_solution(name, build, bound, dropped):
    problem = build()
    # the length test rules out every in-cone structure or none
    cut = [] if replace._one_length_class(problem.positions) else cone_only(problem)
    assert len(cut) == dropped
    for cs in cut:
        result = solve(build_system(problem.positions, cs, problem.exterior_mults))
        assert positive_integer_solutions(result, bound) == []
        if result.particular is not None:
            # at any bound: the one solution has an entry that is not a
            # positive integer
            assert result.nullity == 0
            assert not all(
                RadExpr.of(x).is_integer() and RadExpr.of(x).sign() > 0
                for x in result.particular
            )


@pytest.mark.parametrize("problem", [MIXED_SIX, six_rays(1)], ids=["mixed-six", "six"])
def test_length_cut_matches_uncut_enumeration(problem):
    # every in-cone structure has a chord of irrational length
    positions = problem.positions
    side = diameter_sides(positions)
    irrational = irrational_chord_pairs(positions)
    assert irrational
    uncut = enumerate_chord_sets(len(positions), allow_adjacent=True)
    assert [
        cs
        for cs in uncut
        if in_balance_cone(side, cs.chords) and not irrational.intersection(cs.chords)
    ] == []


CLASS_CASES = [(name, build) for name, build, *_ in RATIONAL_CASES] + [
    ("pythagorean-eight", lambda: PYTHAGOREAN_EIGHT),
    *((f"wide-{n}", partial(WIDE_ANTIPODAL.get, n)) for n in WIDE_ANTIPODAL),
    ("seven-pairs", lambda: SEVEN_PAIRS),
    ("pythagorean-fourteen", lambda: PYTHAGOREAN_FOURTEEN),
]


@pytest.mark.parametrize("build", [c[1] for c in CLASS_CASES], ids=[c[0] for c in CLASS_CASES])
def test_one_length_class_matches_every_pair(build):
    problem = build()
    assert is_rational(problem)
    assert replace._one_length_class(problem.positions) == (
        not irrational_chord_pairs(problem.positions)
    )


def spans_connected(n: int, chords) -> bool:
    """The chords connect all n rays."""
    reached, grew = {0}, True
    while grew:
        grew = False
        for i, j in chords:
            if (i in reached) != (j in reached):
                reached |= {i, j}
                grew = True
    return len(reached) == n


def test_cone_structures_are_connected_and_span_every_ray():
    # the lemma behind the length test's early return (_balance_cone)
    structures = 0
    oracles = [oracle_problem(case[0]) for case in ORACLE_CASES]
    for problem in oracles + [EIGHT_RAYS, PYTHAGOREAN_EIGHT, MIXED_SIX]:
        n = len(problem.positions)
        for cs in cone_only(problem):
            assert spans_connected(n, cs.chords), cs
            structures += 1
    assert structures == 1983


def test_length_cut_keeps_every_pythagorean_chord(monkeypatch):
    assert replace._one_length_class(PYTHAGOREAN_EIGHT.positions)
    assert irrational_chord_pairs(PYTHAGOREAN_EIGHT.positions) == set()
    assert len(cone_only(PYTHAGOREAN_EIGHT)) == 903
    assert count_solved(PYTHAGOREAN_EIGHT, 50, monkeypatch) == 903
    assert replacement_feasible(PYTHAGOREAN_EIGHT, 50) is None


@pytest.mark.parametrize("n", sorted(WIDE_ANTIPODAL))
def test_wide_antipodal_problems_peel_nothing(n, monkeypatch):
    problem = WIDE_ANTIPODAL[n]
    assert len(problem.positions) == n
    assert not replace._one_length_class(problem.positions)
    assert count_solved(problem, 50, monkeypatch) == 0
    assert replacement_feasible(problem, 50) is None


def test_length_classes_decide_past_the_enumeration_cap():
    # two or more classes: None before any enumeration; one class: the
    # enumeration is needed and refuses fourteen rays
    assert len(SEVEN_PAIRS.positions) == len(PYTHAGOREAN_FOURTEEN.positions) == 14
    assert replacement_feasible(SEVEN_PAIRS, 50) is None
    with pytest.raises(ValueError, match="capped at n <= 12"):
        replacement_feasible(PYTHAGOREAN_FOURTEEN, 50)


def test_length_cut_needs_rational_rays():
    # the diagonals' coordinates are +-sqrt(2)/2; their side chords have the
    # irrational length sqrt(2), which lies in the rays' field, so nothing is cut
    assert replace._one_length_class([CirclePoint.from_tan_half(t) for t in DIAGONALS])


# 1 + t^2 is 5 times a square at 1/2 and 2, the first two rays in angle order,
# and at -2 and -1/2; it is 10 times a square at 3 and -1/3
LATE_CLASS = ray_problem(antipodal(zip((Fraction(1, 2), Fraction(2), Fraction(3)), (1, 2, 3))))


def test_length_class_is_decided_before_the_balance(monkeypatch):
    balanced = []

    def counting(rays):
        balanced.append(rays)
        return exterior_balance(rays)

    monkeypatch.setattr(replace, "exterior_balance", counting)
    # two or more classes: refuted with no ray summed
    for problem in (SEVEN_PAIRS, LATE_CLASS):
        assert replacement_feasible(problem, 50) is None
    assert balanced == []
    # one class that does not balance: the balance refutes it
    unbalanced = ReplacementProblem((pt(0), pt(INFINITY)), (1, 2))
    assert replace._one_length_class(unbalanced.positions)
    assert replacement_feasible(unbalanced, 50) is None
    assert len(balanced) == 1


# --- only norms are factored ------------------------------------------------

LARGE_TAN = Fraction(10000019, 3)


def test_chords_factor_only_the_norms(monkeypatch):
    # |w - v|^2 from LARGE_TAN carries (s - t)^2, a product of large primes
    tans = (Fraction(0), LARGE_TAN, INFINITY, Fraction(-1, 2))
    seen = factored(monkeypatch)
    build_system([pt(t) for t in tans], ChordSet(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))))
    # a one-class pair, solved and certified; two classes, refuted at once
    pair = antipodal([(LARGE_TAN, 2)])
    assert replacement_feasible(ray_problem(pair), 5) is not None
    assert replacement_feasible(ray_problem([*pair, (Fraction(0), 1), (INFINITY, 1)]), 5) is None
    assert seen and set(seen) <= {norm(t) for t in (*tans, -1 / LARGE_TAN)}


# --- generated problems: the fan rectangles' boundary data ------------------


def rectangle_rays(net: Network, turn: Fraction, mirror: bool, k: int) -> list:
    """The network's exterior rays as (tan-half, multiplicity) pairs: turned
    by the tan-half turn, mirrored t -> -t when asked, multiplicities times k."""
    rays = []
    for v in net.vertices:
        t = tan_half_add(v.position.tan_half, turn)
        rays.append((tan_half_neg(t) if mirror else t, k * v.exterior_mult))
    return rays


@given(
    net=st.deferred(lambda: st.sampled_from(admissible_fan_rectangles())),
    turn=st.fractions(min_value=-10, max_value=10, max_denominator=10),
    mirror=st.booleans(),
    k=st.integers(1, 3),
    ray=st.integers(0, 3),
    step=st.sampled_from((1, -1)),
    pair=st.none() | st.sampled_from(TAN_GRID),
)
@settings(max_examples=6, deadline=None)
def test_generated_problems_match_the_unpruned_search(net, turn, mirror, k, ray, step, pair):
    rays = rectangle_rays(net, turn, mirror, k)
    bound = k * max(e.mult for e in net.edges)
    # feasible: the turned, mirrored and scaled rectangle is a solution
    problem = ray_problem(rays)
    found = replacement_feasible(problem, bound)
    assert found is not None and found == unpruned_replacement_feasible(problem, bound)
    assert max(e.mult for e in found.edges) <= bound
    # the bound is one comparison with the forced values, and the network
    # keeps its key through the file format
    assert replacement_feasible(problem, 10**18) == found
    assert canonical_key(network_from_dict(network_to_dict(found))) == canonical_key(found)
    # one multiplicity off by one: one length class, refuted by the balance
    t, m = rays[ray]
    off = ray_problem([*rays[:ray], (t, m + step or m + 1), *rays[ray + 1 :]])
    assert replace._one_length_class(off.positions)
    assert not all(c.is_zero() for c in exterior_balance(zip(off.positions, off.exterior_mults)))
    assert replacement_feasible(off, bound) is None
    assert replacement_feasible(off, 10**18) is None
    assert unpruned_replacement_feasible(off, bound) is None
    # an antipodal pair of another class: refuted by the length class
    if pair is not None and irrational_chord_pairs([pt(pair), problem.positions[0]]):
        wider = ray_problem([*rays, *antipodal([(pair, k)])])
        assert not replace._one_length_class(wider.positions)
        assert replacement_feasible(wider, bound) is None
        assert replacement_feasible(wider, 10**18) is None
        assert unpruned_replacement_feasible(wider, bound) is None
