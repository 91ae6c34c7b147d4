from fractions import Fraction

import pytest

from geonet.chords import ChordSet
from geonet.circle import INFINITY, CirclePoint, _chord, tan_half_add
from geonet.errors import (
    CrossingEdges,
    DomainError,
    DuplicateVertexAngle,
    InexactPosition,
)
from geonet import solver
from geonet.exact import RadExpr
from geonet.linalg import kernel_from_rref, matvec, particular_from_rref, rref
from geonet.solver import (
    SolveResult,
    StationaritySystem,
    build_system,
    half_cos_sin,
    n3_closed_forms,
    n3_imaginary_kernel,
    normalize_vector,
    peel_solve,
    positive_integer_solutions,
    solve,
    system_residual,
)
from helpers import (
    RECTANGLE_TANS,
    TAN_GRID,
    box_walk_solutions,
    fan_chords,
    normalized_solve,
    pt,
    random_domain_pair,
    seeded_rng,
    sorted_by_angle,
)

HALF = Fraction(1, 2)


def n3_points(u12, u23):
    a12 = CirclePoint.from_tan_half(u12)
    a23 = CirclePoint.from_tan_half(u23)
    return a12, a23


def triangle_system(u12, u23, fixed=None):
    positions = [
        pt(0),
        CirclePoint.from_tan_half(u12),
        CirclePoint.from_tan_half(tan_half_add(u12, u23)),
    ]
    chords = ChordSet(3, ((0, 1), (0, 2), (1, 2)))
    return build_system(positions, chords, fixed_exterior=fixed)


def test_line_system():
    system = build_system(
        [pt(0), pt(INFINITY)], ChordSet(2, ((0, 1),))
    )
    result = solve(system)
    assert result.rank == 2
    assert result.nullity == 1
    assert result.kernel_basis == ((1, 1, 1),)
    assert positive_integer_solutions(result, 3) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]


def test_square_fixed_exterior():
    positions = [pt(0), pt(1), pt(INFINITY), pt(-1)]
    chords = ChordSet(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    system = build_system(positions, chords, fixed_exterior=[1, 1, 1, 1])
    result = solve(system)
    assert result.rank == 4
    assert result.nullity == 0
    want = RadExpr.sqrt(2) * HALF
    assert all(x == want for x in result.particular)
    assert all(r.is_zero() for r in system_residual(system, result.particular))
    # sqrt(2)/2 is not an integer: no integer multiplicities at any bound
    assert positive_integer_solutions(result, 50) == []


def test_golden_full_kernel():
    system = triangle_system(Fraction(4, 3), Fraction(4, 3))
    result = solve(system)
    assert result.rank == 5
    assert result.kernel_basis == ((100, 56, 100, 35, 75, 35),)
    assert all(r.is_zero() for r in system_residual(system, result.kernel_basis[0]))


def permuted_input(positions, chords, fixed, turn, mirror):
    """The same network listed from another start vertex, and backwards with
    mirror: input vertex k is positions[turn -/+ k]; the chords and the fixed
    exterior follow, and the chords still do not cross in input order."""
    n = len(positions)
    perm = [(turn - k if mirror else turn + k) % n for k in range(n)]
    where = {v: k for k, v in enumerate(perm)}
    pairs = tuple(tuple(sorted((where[i], where[j]))) for i, j in chords.chords)
    return (
        [positions[v] for v in perm],
        ChordSet(n, pairs),
        None if fixed is None else [fixed[v] for v in perm],
    )


def test_golden_fixed_exterior():
    system = triangle_system(Fraction(4, 3), Fraction(4, 3), fixed=[100, 56, 100])
    result = solve(system)
    assert result.nullity == 0
    assert positive_integer_solutions(result, 100) == [(35, 75, 35)]
    # listed as (4/3, 0, -24/7) with exteriors (56, 100, 100), the same answer
    listed = permuted_input(system.positions, system.edges, (100, 56, 100), 1, True)
    assert [p.tan_half for p in listed[0]] == [Fraction(4, 3), 0, Fraction(-24, 7)]
    assert listed[2] == [56, 100, 100]
    system = build_system(*listed)
    assert system.fixed_exterior == (100, 56, 100)
    assert positive_integer_solutions(solve(system), 100) == [(35, 75, 35)]


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("turn", [0, 1, 2])
def test_permuted_input_builds_the_sorted_system(turn, mirror, fixed):
    golden = [pt(0), pt(Fraction(4, 3)), pt(Fraction(-24, 7))]
    rectangle = [pt(x) for x in sorted_by_angle([Fraction(1, 2), 2, -2, Fraction(-1, 2)])]
    cases = [
        (golden, ChordSet(3, ((0, 1), (0, 2), (1, 2))), (100, 56, 100)),
        (rectangle, ChordSet(4, fan_chords(4)), (5, 5, 5, 5)),
        (rotated([0, 1, INFINITY, -1]), ChordSet(4, fan_chords(4)), (1, 2, 3, 4)),
    ]
    for positions, chords, ext in cases:
        ext = ext if fixed else None
        want = build_system(positions, chords, ext)
        got = build_system(*permuted_input(positions, chords, ext, turn, mirror))
        for name in StationaritySystem.__dataclass_fields__:
            assert getattr(got, name) == getattr(want, name), name


def test_infeasible_fixed_exterior():
    # the line balance needs equal endpoint multiplicities
    system = build_system(
        [pt(0), pt(INFINITY)], ChordSet(2, ((0, 1),)), fixed_exterior=[1, 2]
    )
    result = solve(system)
    assert result.particular is None
    assert positive_integer_solutions(result, 10) == []


def test_particular_checks_every_zero_row():
    # x = 1 and x = 2 leave the first zero row inconsistent, the second not
    m, pivots, b = rref([[1, 0], [1, 0], [2, 0]], [1, 2, 2])
    assert pivots == [0]
    assert particular_from_rref(m, pivots, b, 2) is None
    m, pivots, b = rref([[1, 1], [2, 2]], [1, 2])
    assert particular_from_rref(m, pivots, b, 2) == [RadExpr.of(1), RadExpr.of(0)]


def test_rref_on_ints_returns_fractions():
    m, pivots, b = rref([[2, 4, 1], [1, 3, 0], [3, 7, 1]], [2, 1, 3])
    assert pivots == [0, 1]
    entries = [x for row in m for x in row] + b
    entries += particular_from_rref(m, pivots, b, 3) + kernel_from_rref(m, pivots, 3)[0]
    assert all(type(x) is Fraction for x in entries)
    assert m == [[1, 0, Fraction(3, 2)], [0, 1, Fraction(-1, 2)], [0, 0, 0]]
    assert b == [1, 0, 0]


def test_rref_on_mixed_rows():
    # Fraction and RadExpr entries side by side reduce like an all-RadExpr copy
    root2 = RadExpr.sqrt(2)
    rows = [[Fraction(1), root2, Fraction(0)], [Fraction(1, 2), Fraction(3), root2 + 1]]
    rhs = [root2, Fraction(1)]
    m, pivots, b = rref(rows, rhs)
    want = rref([[RadExpr.of(x) for x in row] for row in rows], [RadExpr.of(y) for y in rhs])
    assert (m, pivots, b) == want
    x = particular_from_rref(m, pivots, b, 3)
    assert [p - y for p, y in zip(matvec(rows, x), rhs)] == [0, 0]
    k = kernel_from_rref(m, pivots, 3)[0]
    assert matvec(rows, k) == [0, 0]


def test_rref_without_rows():
    assert rref([]) == ([], [], None)
    assert rref([], []) == ([], [], [])


def test_rref_zero_row_with_nonzero_rhs():
    # the rhs column is never a pivot column, even where the coefficients vanish
    m, pivots, b = rref([[0, 0], [0, 1]], [3, 2])
    assert pivots == [1]
    assert m == [[RadExpr.of(0), RadExpr.of(1)], [RadExpr.of(0), RadExpr.of(0)]]
    assert b == [RadExpr.of(2), RadExpr.of(3)]
    assert particular_from_rref(m, pivots, b, 2) is None
    m, pivots, b = rref([[0]], [1])
    assert pivots == [] and particular_from_rref(m, pivots, b, 1) is None


def test_build_system_rejects_inexact():
    with pytest.raises(InexactPosition):
        build_system(
            [CirclePoint.from_angle(0.5), CirclePoint.from_angle(2.5)],
            ChordSet(2, ((0, 1),)),
        )


def test_build_system_rejects_crossings():
    # chords (0,1) and (2,3) do not cross as labeled, but the positions are
    # listed out of cyclic order; after angle sorting they become crossing
    # diagonals, which the assembly must reject
    with pytest.raises(CrossingEdges):
        build_system(
            [pt(1), pt(-1), pt(0), pt(INFINITY)],
            ChordSet(4, ((0, 1), (2, 3))),
        )


def test_build_system_orders_close_points_exactly():
    # float angles 2e-14 apart; given out of order, the chord is remapped
    system = build_system(
        [pt(10**7 + 1), pt(0), pt(10**7)], ChordSet(3, ((0, 1), (1, 2)))
    )
    assert [p.tan_half for p in system.positions] == [0, 10**7, 10**7 + 1]
    assert system.edges.chords == ((0, 1), (0, 2))
    with pytest.raises(DuplicateVertexAngle):
        build_system([pt(10**7), pt(10**7)], ChordSet(2, ((0, 1),)))


def test_normalize_vector():
    assert normalize_vector((Fraction(-2, 3), Fraction(-4, 3), Fraction(-2))) == (1, 2, 3)
    root = RadExpr.sqrt(2)
    normalized = normalize_vector((root, root * 3))
    assert normalized[0] == RadExpr.of(1)
    assert normalized[1] == RadExpr.of(3)
    # a multiple of a rational vector is rational once divided by its lead
    assert normalized == (1, 3)
    assert all(type(x) is int for x in normalized)
    normalized = normalize_vector((Fraction(0), Fraction(-3, 4), Fraction(1, 6), 2))
    assert normalized == (0, 9, -2, -24)
    assert all(type(x) is int for x in normalized)
    normalized = normalize_vector((Fraction(0), RadExpr.of(0), 0))
    assert normalized == (0, 0, 0)
    assert all(type(x) is int for x in normalized)
    # (2 + sqrt2, 1): the lead stays a RadExpr one, and the rest follows it
    normalized = normalize_vector((Fraction(0), root + 2, Fraction(1)))
    assert all(type(x) is RadExpr for x in normalized)
    assert normalized == (0, 1, (2 - root) / 2)


def test_solver_input_checks():
    line = [pt(0), pt(INFINITY)]
    with pytest.raises(ValueError, match="different number of points"):
        build_system(line, ChordSet(3, ()))
    with pytest.raises(ValueError, match="fixed_exterior length"):
        build_system(line, ChordSet(2, ((0, 1),)), (1,))
    result = solve(build_system(line, ChordSet(2, ((0, 1),))))
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound must be positive"):
            positive_integer_solutions(result, bound)
    for bound in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="bound must be an int"):
            positive_integer_solutions(result, bound)


def test_search_box_cap():
    system = build_system(
        [pt(0), pt(INFINITY)], ChordSet(2, ((0, 1),))
    )
    result = solve(system)
    with pytest.raises(ValueError):
        positive_integer_solutions(result, 6_000_000)


def fan_result(tans):
    tans = sorted_by_angle(tans)
    chords = ChordSet(len(tans), fan_chords(len(tans)))
    return solve(build_system([pt(t) for t in tans], chords))


def rectangle_results():
    """Fan-triangulated inscribed rectangles t, 1/t, -t, -1/t: rational kernels."""
    for t in RECTANGLE_TANS:
        yield f"rectangle-{t.numerator}-{t.denominator}", fan_result([t, 1 / t, -t, -1 / t])


def offset_lattice_result():
    """Fixed-exterior-like result whose integer solutions form a shifted line.

    A fixed-exterior system from build_system always has nullity zero (chords
    in convex position carry no self-stress), so this inhomogeneous case with
    a lattice of dimension one is built by hand.  x = (3 + sqrt2, 0, 0)
    + t1*(-sqrt2, 1, 0) + t2*(1/2, 0, 1): the radical part pins t1 = 1 and
    leaves t2 free, and x0 = 3 + t2/2 is an integer for even t2 only.
    """
    root2 = RadExpr.sqrt(2)
    return SolveResult(
        rank=1,
        kernel_basis=((-root2, 1, 0), (1, 0, 2)),
        particular=(3 + root2, 0, 0),
        free_columns=(1, 2),
        n_unknowns=3,
    )


def oracle_cases():
    line = [pt(0), pt(INFINITY)]
    square = [pt(0), pt(1), pt(INFINITY), pt(-1)]
    yield "line", solve(build_system(line, ChordSet(2, ((0, 1),)))), 3
    yield "square-fixed", solve(
        build_system(square, ChordSet(4, ((0, 1), (1, 2), (2, 3), (0, 3))), [1, 1, 1, 1])
    ), 50
    yield "golden-fixed", solve(
        triangle_system(Fraction(4, 3), Fraction(4, 3), fixed=[100, 56, 100])
    ), 100
    yield "line-infeasible", solve(
        build_system(line, ChordSet(2, ((0, 1),)), fixed_exterior=[1, 2])
    ), 10
    for name, result in rectangle_results():
        yield name, result, 20
    rng = seeded_rng(salt=11)
    for n, bound, count in ((4, 8, 6), (5, 4, 4)):
        for k in range(count):
            tans = [Fraction(0)] + rng.sample(TAN_GRID, n - 1)
            yield f"fan-{n}-{k}", fan_result(tans), bound
    yield "offset-lattice", offset_lattice_result(), 10


@pytest.mark.parametrize(
    "result,bound", [pytest.param(r, b, id=name) for name, r, b in oracle_cases()]
)
def test_positive_solutions_match_box_walk(result, bound):
    assert positive_integer_solutions(result, bound) == box_walk_solutions(result, bound)


def test_positive_solutions_on_offset_lattice():
    assert positive_integer_solutions(offset_lattice_result(), 10) == [
        (4, 1, 2), (5, 1, 4), (6, 1, 6), (7, 1, 8), (8, 1, 10)
    ]


def test_rectangle_solutions_are_many():
    # the box-walk comparison is not vacuous on the rectangles
    total = sum(len(positive_integer_solutions(r, 20)) for _, r in rectangle_results())
    assert total == 80


def test_fan_hexagon_bound_50_searches_without_cap():
    # nullity 4: the whole box 50^4 is above SEARCH_BOX_CAP, but the rational
    # lattice has dimension zero
    result = fan_result([Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-5),
                         Fraction(-2, 3), Fraction(-1, 7)])
    assert result.nullity == 4
    assert positive_integer_solutions(result, 50) == []


@pytest.mark.parametrize(
    "u,cs",
    [
        (Fraction(1), None),  # cos and sin both 1/sqrt2, irrational
        (INFINITY, (Fraction(0), Fraction(1))),
        (Fraction(-3, 4), (Fraction(-4, 5), Fraction(3, 5))),
        (Fraction(4, 3), (Fraction(3, 5), Fraction(4, 5))),
    ],
)
def test_half_cos_sin(u, cs):
    c, s = half_cos_sin(u)
    if cs is None:
        want = RadExpr.sqrt(2) * HALF
        assert c == want and s == want
    else:
        assert RadExpr.of(cs[0]) == RadExpr.of(c)
        assert RadExpr.of(cs[1]) == RadExpr.of(s)


def test_golden_closed_forms():
    forms = n3_closed_forms(*n3_points(Fraction(4, 3), Fraction(4, 3)))
    assert forms.rational
    assert forms.tan13 == Fraction(-24, 7)
    assert forms.edge_vector == (
        Fraction(-21, 125),
        Fraction(-9, 25),
        Fraction(-21, 125),
    )
    assert forms.exterior_vector == (
        Fraction(12, 25),
        Fraction(168, 625),
        Fraction(12, 25),
    )


def test_equilateral_closed_forms():
    root3 = RadExpr.sqrt(3)
    a12 = CirclePoint.from_tan_half(root3)
    a23 = CirclePoint.from_tan_half(root3)
    forms = n3_closed_forms(a12, a23)
    assert not forms.rational
    assert forms.tan13 == -root3
    quarter = Fraction(-1, 4)
    assert all(RadExpr.of(x) == RadExpr.of(quarter) for x in forms.edge_vector)
    assert all(x == root3 * Fraction(1, 4) for x in forms.exterior_vector)
    assert n3_imaginary_kernel(a12, a23) == (1, 1, 1)


@pytest.mark.parametrize(
    "u12,u23",
    [
        (Fraction(-1), Fraction(2)),  # alpha12 outside (0, pi)
        (Fraction(1, 2), Fraction(1)),  # sum below pi
        (Fraction(1), Fraction(1)),  # sum exactly pi
        (INFINITY, Fraction(2)),  # alpha12 on the boundary
    ],
)
def test_closed_forms_domain_errors(u12, u23):
    with pytest.raises(DomainError):
        n3_closed_forms(*n3_points(u12, u23))


def test_kernel_matches_closed_form_sample():
    rng = seeded_rng(salt=3)
    for _ in range(40):
        u12, u23 = random_domain_pair(rng)
        a12, a23 = n3_points(u12, u23)
        kernel = n3_imaginary_kernel(a12, a23)
        forms = n3_closed_forms(a12, a23)
        want = normalize_vector(forms.edge_vector)
        assert kernel == want or kernel == tuple(-RadExpr.of(x) for x in want)


def test_closed_form_solves_full_system():
    rng = seeded_rng(salt=4)
    for _ in range(15):
        u12, u23 = random_domain_pair(rng)
        forms = n3_closed_forms(*n3_points(u12, u23))
        system = triangle_system(u12, u23)
        # with beta = -1 the multiplicity vector is (exterior, -edge)
        vec = [RadExpr.of(x) for x in forms.exterior_vector]
        vec += [-RadExpr.of(x) for x in forms.edge_vector]
        assert all(r.is_zero() for r in system_residual(system, vec))


def test_closed_form_signs():
    rng = seeded_rng(salt=5)
    for _ in range(25):
        u12, u23 = random_domain_pair(rng)
        forms = n3_closed_forms(*n3_points(u12, u23))
        assert all(RadExpr.of(x).sign() < 0 for x in forms.edge_vector)
        assert all(RadExpr.of(x).sign() > 0 for x in forms.exterior_vector)


def peel(points, mults, chords, bound):
    def chord(i, j):
        return _chord(points[i], points[j])

    return peel_solve(points, mults, chords, chord, bound)


def rotated(tans, turn=RadExpr.sqrt(2) - 1):
    """The points at the given tan-halves turned by a quarter of pi: tan-halves
    a + b*sqrt2, radical coordinates, and every squared chord rational."""
    return [CirclePoint.from_tan_half(tan_half_add(t, turn)) for t in tans]


def test_peel_solves_fixed_exterior_structures():
    golden = [pt(0), pt(Fraction(4, 3)), pt(Fraction(-24, 7))]
    triangle = ((0, 1), (0, 2), (1, 2))
    assert peel(golden, (100, 56, 100), triangle, 100) == (35, 75, 35)
    assert peel(golden, (100, 56, 100), triangle, 74) is None
    assert peel([pt(0), pt(INFINITY)], (3, 3), ((0, 1),), 5) == (3,)
    assert peel([pt(0), pt(INFINITY)], (3, 4), ((0, 1),), 5) is None
    # the first vertex's one chord needs 3, which is above the bound
    assert peel([pt(0), pt(INFINITY)], (3, 3), ((0, 1),), 2) is None
    assert peel([pt(0), pt(INFINITY)], (3, 3), ((0, 1),), 3) == (3,)


def test_peel_checks_every_single_chord_vertex():
    # rays 25, 17 and 1 at tan-halves 3/4, inf and 0, chords 0-1 and 1-2: the
    # equations along each chord alone give (20, 1), which leaves no residual
    # at vertex 2, but vertex 0's ray is not parallel to its chord
    points = [pt(Fraction(3, 4)), pt(INFINITY), pt(0)]
    chords = ((0, 1), (1, 2))
    result = solve(build_system(points, ChordSet(3, chords), (25, 17, 1)))
    assert positive_integer_solutions(result, 50) == []
    assert peel(points, (25, 17, 1), chords, 50) is None


def test_peel_on_radical_positions():
    # chords w - v with radical components, so every residual is a RadExpr
    golden = rotated([Fraction(0), Fraction(4, 3), Fraction(-24, 7)])
    triangle = ((0, 1), (0, 2), (1, 2))
    looked_up = []

    def chord(i, j):
        looked_up.append(_chord(golden[i], golden[j]))
        return looked_up[-1]

    assert peel_solve(golden, (100, 56, 100), triangle, chord, 100) == (35, 75, 35)
    assert all(isinstance(x, RadExpr) and not x.is_rational() for c in looked_up for x in c[:2])
    assert peel(golden, (100, 56, 100), triangle, 74) is None
    line = rotated([Fraction(0), INFINITY])
    assert peel(line, (3, 3), ((0, 1),), 5) == (3,)
    assert peel(line, (3, 4), ((0, 1),), 5) is None
    # the turned axis square with unit rays needs sqrt2/2 on each side of
    # length sqrt2: y = 1/2 is rational, and x = y*sqrt2 is refused
    square = rotated([Fraction(0), Fraction(1), INFINITY, Fraction(-1)])
    sides = ((0, 1), (0, 3), (1, 2), (2, 3))
    result = solve(build_system(square, ChordSet(4, sides), (1, 1, 1, 1)))
    assert result.particular == (RadExpr.sqrt(2) * HALF,) * 4
    assert peel(square, (1, 1, 1, 1), sides, 50) is None


def test_multiplicity_needs_an_integer_product():
    root2 = RadExpr.sqrt(2)
    assert solver._multiplicity(Fraction(3, 2), Fraction(2), 10) == 3
    assert solver._multiplicity(root2 * HALF, root2, 10) == 1
    # 2 + 2*sqrt2: the rational term alone would pass
    assert solver._multiplicity(1 + root2, Fraction(2), 10) is None
    assert solver._multiplicity(Fraction(1), root2, 10) is None
    assert solver._multiplicity(Fraction(1, 3), Fraction(1), 10) is None
    assert solver._multiplicity(Fraction(3), Fraction(1), 2) is None
    assert solver._multiplicity(Fraction(-3), Fraction(1), 10) is None


# --- the column-scaled system against the unit-direction oracle -------------

def scaled_oracle_cases():
    """(name, positions, chords, fixed exterior): free-exterior grid triangles,
    fan quads and pentagons; fan rectangles, free and fixed; and the same
    shapes turned to tan-halves a + b*sqrt2."""
    rng = seeded_rng(salt=12)
    golden = [Fraction(0), Fraction(4, 3), Fraction(-24, 7)]
    cases = [("golden", golden, None)]
    fan_rect = ChordSet(4, fan_chords(4))
    for k in range(8):
        cases.append((f"triangle-{k}", [Fraction(0)] + rng.sample(TAN_GRID, 2), None))
    for n in (4, 5):
        for k in range(4):
            cases.append((f"fan-{n}-{k}", [Fraction(0)] + rng.sample(TAN_GRID, n - 1), None))
    for t in RECTANGLE_TANS[:4]:
        tans = [t, 1 / t, -t, -1 / t]
        result = solve(build_system([pt(x) for x in sorted_by_angle(tans)], fan_rect))
        exteriors = {x[:4] for x in positive_integer_solutions(result, 20)}
        odd = tuple(rng.randint(1, 9) for _ in range(4))
        for ext in [None, *sorted(exteriors)[:2], odd]:
            cases.append((f"rectangle-{t}-{ext}", tans, ext))
    for name, tans, fixed in cases:
        tans = sorted_by_angle(tans)
        chords = ChordSet(len(tans), fan_chords(len(tans)))
        yield name, [pt(x) for x in tans], chords, fixed
        if name.startswith(("golden", "triangle-0", "fan-4-0", "fan-5-0", "rectangle")):
            yield f"turned-{name}", rotated(tans), chords, fixed


SCALED_CASES = list(scaled_oracle_cases())


@pytest.mark.parametrize(
    "positions, chords, fixed", [pytest.param(*c[1:], id=c[0]) for c in SCALED_CASES]
)
def test_scaled_solve_matches_unit_directions(positions, chords, fixed):
    system = build_system(positions, chords, fixed)
    result = solve(system)
    want = normalized_solve(positions, chords, fixed)
    assert result == want
    # coprime integers stay ints and radicals RadExprs
    assert [type(x) for v in result.kernel_basis for x in v] == [
        type(x) for v in want.kernel_basis for x in v
    ]
    vectors = list(result.kernel_basis)
    if result.particular is not None:
        vectors.append(result.particular)
    for vec in vectors:
        assert all(r.is_zero() for r in system_residual(system, vec))


def test_scaled_cases_cover_every_kind():
    kinds = {"rational kernel": 0, "irrational kernel": 0, "irrational scale": 0,
             "particular": 0, "no particular": 0, "radical entries": 0}
    for _, positions, chords, fixed in SCALED_CASES:
        system = build_system(positions, chords, fixed)
        result = solve(system)
        for vec in result.kernel_basis:
            kind = "rational" if all(type(x) is int for x in vec) else "irrational"
            kinds[f"{kind} kernel"] += 1
        kinds["irrational scale"] += any(isinstance(s, RadExpr) for s in system.scale)
        kinds["particular" if result.particular else "no particular"] += fixed is not None
        kinds["radical entries"] += any(isinstance(x, RadExpr) for row in system.matrix for x in row)
    assert all(kinds.values()), kinds


def test_rational_kernel_with_irrational_column_scale():
    # the kernel x = (2, 3) of 3*x0 = 2*x1 in y-columns of scale sqrt2: the
    # y-kernel (2/3, 1) times the scale is (2, 3)*sqrt2/3, irrational in every
    # entry, and only divided by its lead does it become rational and come
    # out as coprime integers.  build_system gives no such pairing for
    # rational positions (a rational kernel is zero on every chord of
    # irrational length), so solve, which reads only matrix, rhs and scale,
    # gets the system by hand
    root2 = RadExpr.sqrt(2)
    system = StationaritySystem(
        positions=(),
        edges=None,
        matrix=((Fraction(3), Fraction(-2)),),
        rhs=(Fraction(0),),
        scale=(root2, root2),
        fixed_exterior=None,
    )
    result = solve(system)
    assert result.kernel_basis == ((2, 3),)
    assert all(type(x) is int for x in result.kernel_basis[0])
    assert all(r.is_zero() for r in system_residual(system, (2, 3)))


@pytest.mark.parametrize(
    "positions, chords, fixed",
    [pytest.param(*c[1:], id=c[0]) for c in SCALED_CASES if not c[0].startswith("turned")],
)
def test_build_system_on_rational_tan_halves_is_rational(positions, chords, fixed):
    system = build_system(positions, chords, fixed)
    assert all(type(x) is Fraction for row in system.matrix for x in row)
    assert all(type(x) is Fraction for x in system.rhs)

