import time
from fractions import Fraction

import pytest

from geonet import replace
from geonet.chords import ChordSet, enumerate_chord_sets
from geonet.circle import INFINITY, CirclePoint, _chord, tan_half_add
from geonet.errors import DuplicateVertexAngle, InexactPosition, IsolatedVertex
from geonet.exact import RadExpr
from geonet.network import InteriorEdge, Vertex, canonical_key, make_network
from geonet.replace import (
    AngleExpr,
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
    RECTANGLE_TANS,
    axis_point_angles,
    diameter_sides,
    evaluate_angle,
    fan_chords,
    golden_triangle,
    in_balance_cone,
    irrational_chord_pairs,
    line_network,
    pt,
    rectangle_network,
    seeded_rng,
    sorted_by_angle,
    square_network,
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
    for bound in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="bound must be an int"):
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
    for depth in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="depth must be an int"):
            good_network_audit(line_network(1), depth=depth)
    for bound in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="bound must be an int"):
            good_network_audit(line_network(1), depth=1, bound=bound)


def test_depth_zero_is_vacuous():
    verdict = good_network_audit(rectangle_network(), depth=0)
    assert verdict.good
    assert verdict.status == "good-to-depth-0"


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


def vertex_problems() -> list[ReplacementProblem]:
    """Every vertex problem of the golden triangle and the 3-4-5 rectangle.

    Their rays have rational tan-halves, but most chords between them have
    irrational length, so the systems have radical entries.
    """
    nets = (golden_triangle(), rectangle_network())
    return [replacement_problem(net, i) for net in nets for i in range(net.n_vertices)]


SQRT2 = RadExpr.sqrt(2)
# the four diagonal directions: tan-halves tan(pi/8), tan(3pi/8), ...
DIAGONALS = (SQRT2 - 1, SQRT2 + 1, -SQRT2 - 1, 1 - SQRT2)


# (name, problem, bound, structures in the balance cone, structures peeled
# by the search after the length cut, total)
ORACLE_CASES = [
    ("six", six_rays(1), 50, 45, 0, 2880),
    ("six-mirrored", six_rays(-1), 50, 45, 0, 2880),
    ("golden-plus-pair", ray_problem([*GOLDEN_RAYS, *antipodal([(Fraction(1, 2), 7)])]), 50, 11, 0, 352),
    ("golden-plus-pair-2", ray_problem([*GOLDEN_RAYS, *antipodal([(Fraction(4, 5), 20)])]), 50, 11, 0, 352),
    ("two-pairs", ray_problem(antipodal([(Fraction(1, 2), 3), (Fraction(2, 5), 8)])), 50, 3, 0, 48),
    ("two-pairs-2", ray_problem(antipodal([(Fraction(1, 6), 1), (Fraction(2, 3), 9)])), 50, 3, 0, 48),
    ("rotated-golden", rotated_golden(Fraction(0)), 75, 1, 1, 8),
    ("rotated-golden-2", rotated_golden(Fraction(2, 5)), 75, 1, 1, 8),
    ("rotated-golden-3", rotated_golden(Fraction(-1, 3)), 75, 1, 1, 8),
    ("line", replacement_problem(line_network(2), 0), 5, 1, 1, 2),
    # radical rays: no length cut
    ("radical-two-pairs", ray_problem(zip(DIAGONALS, (1, 2, 1, 2))), 50, 3, 3, 48),
] + [
    (f"vertex-{k}", problem, 50, None, None, None)
    for k, problem in enumerate(vertex_problems())
]
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
    "name, problem, bound, cone, peeled, total",
    ORACLE_CASES,
    ids=[case[0] for case in ORACLE_CASES],
)
def test_pruned_search_matches_unpruned(name, problem, bound, cone, peeled, total, monkeypatch):
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


SOUNDNESS_CASES = [case for case in ORACLE_CASES if not case[0].startswith("six")]


@pytest.mark.parametrize(
    "problem", [case[1] for case in SOUNDNESS_CASES], ids=[c[0] for c in SOUNDNESS_CASES]
)
def test_rejected_structures_have_no_positive_solution(problem):
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


# --- the peel solve against the rref path -----------------------------------

def admissible_fan_rectangles(count: int) -> list:
    """A seeded sample of the admissible fan-triangulated inscribed rectangles
    t, 1/t, -t, -1/t with every multiplicity in [1, 20]."""
    nets = []
    for t in RECTANGLE_TANS:
        points = [pt(x) for x in sorted_by_angle([t, 1 / t, -t, -1 / t])]
        chords = fan_chords(4)
        result = solve(build_system(points, ChordSet(4, chords)))
        for x in positive_integer_solutions(result, 20):
            vertices = [Vertex(pp, m) for pp, m in zip(points, x[:4])]
            edges = [InteriorEdge(i, j, m) for (i, j), m in zip(chords, x[4:])]
            nets.append(make_network(vertices, edges))
    return seeded_rng(salt=6).sample(nets, count)


FAN_RECTANGLES = admissible_fan_rectangles(6)


def compare_peel_with_solver(problem: ReplacementProblem, bound: int) -> list:
    """Peel every in-cone structure and re-solve it through build_system,
    solve and positive_integer_solutions; returns the solved structures."""
    side = diameter_sides(problem.positions)
    n = len(problem.positions)

    def chord(i, j):
        return _chord(problem.positions[i], problem.positions[j])

    solved = []
    for cs in enumerate_chord_sets(n, allow_adjacent=True):
        if not in_balance_cone(side, cs.chords):
            continue
        result = solve(build_system(problem.positions, cs, problem.exterior_mults))
        # fixed-exterior systems of non-crossing chords have nullity 0
        assert result.nullity == 0
        expected = positive_integer_solutions(result, bound)
        peeled = peel_solve(problem.positions, problem.exterior_mults, cs.chords, chord, bound)
        assert expected == ([] if peeled is None else [peeled])
        if peeled is not None:
            solved.append((cs.chords, peeled))
    return solved


# structures with a solution per ORACLE_CASES problem; every other has none,
# the four-, five- and six-ray benchmark configurations among them
PEEL_SOLVED = {"rotated-golden": 1, "rotated-golden-2": 1, "rotated-golden-3": 1, "line": 1}


@pytest.mark.parametrize(
    "name, problem, bound", [c[:3] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES]
)
def test_peel_matches_solver(name, problem, bound):
    assert len(compare_peel_with_solver(problem, bound)) == PEEL_SOLVED.get(name, 0)


@pytest.mark.parametrize("k", range(len(FAN_RECTANGLES)))
def test_peel_matches_solver_on_fan_rectangles(k):
    net = FAN_RECTANGLES[k]
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


# (name, problem, bound, in-cone structures that the length cut drops) for
# every problem with rational rays; a vertex problem has one in-cone structure
RATIONAL_CASES = [
    (name, problem, bound, 1 if cone is None else cone - peeled)
    for name, problem, bound, cone, peeled, _ in ORACLE_CASES
    if is_rational(problem)
] + [("eight", EIGHT_RAYS, 50, 903), ("mixed-six", MIXED_SIX, 50, 45)]


@pytest.mark.parametrize(
    "name, problem, bound, dropped", RATIONAL_CASES, ids=[case[0] for case in RATIONAL_CASES]
)
def test_length_cut_drops_only_structures_without_solution(name, problem, bound, dropped):
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


CLASS_CASES = [(name, problem) for name, problem, *_ in RATIONAL_CASES] + [
    ("pythagorean-eight", PYTHAGOREAN_EIGHT),
    *((f"wide-{n}", problem) for n, problem in WIDE_ANTIPODAL.items()),
    ("seven-pairs", SEVEN_PAIRS),
    ("pythagorean-fourteen", PYTHAGOREAN_FOURTEEN),
]


@pytest.mark.parametrize("problem", [c[1] for c in CLASS_CASES], ids=[c[0] for c in CLASS_CASES])
def test_one_length_class_matches_every_pair(problem):
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
    for problem in [case[1] for case in ORACLE_CASES] + [EIGHT_RAYS, PYTHAGOREAN_EIGHT, MIXED_SIX]:
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
