import dataclasses
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonet.chords import ChordSet
from geonet.circle import INFINITY, CirclePoint, _chord, chord_direction, tan_half_add
from geonet.errors import (
    CrossingEdges,
    DomainError,
    DuplicateVertexAngle,
    InexactPosition,
)
from geonet import linalg, solver
from geonet.exact import RadExpr, term
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
    cased_half_cos_sin,
    difference_system,
    factored,
    fan_chords,
    field_multiplicity,
    norm,
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


def test_rref_on_ints_returns_integer_rows():
    # the integer echelon keeps each pivot row times its pivot, and the
    # readers divide by it: x = (1, 0, 0) and the kernel (-3/2, 1/2, 1)
    m, pivots, b = rref([[2, 4, 1], [1, 3, 0], [3, 7, 1]], [2, 1, 3])
    assert pivots == [0, 1]
    assert all(type(x) is int for x in [*(x for row in m for x in row), *b])
    assert m == [[2, 0, 3], [0, 2, -1], [0, 0, 0]]
    assert b == [2, 0, 0]
    x = particular_from_rref(m, pivots, b, 3)
    k = kernel_from_rref(m, pivots, 3)[0]
    assert all(type(v) is Fraction for v in x + k)
    assert x == [1, 0, 0] and k == [Fraction(-3, 2), HALF, 1]
    field = rref([[RadExpr.of(v) for v in row] for row in ([2, 4, 1], [1, 3, 0], [3, 7, 1])])
    assert field[0] == [[1, 0, Fraction(3, 2)], [0, 1, Fraction(-1, 2)], [0, 0, 0]]


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
    # the rhs column is never a pivot column, even where the coefficients
    # vanish; below the rank the integer pass keeps the row primitive and
    # does not scale it back, so the rhs 3 reads 1 there: only whether it is
    # zero is read
    m, pivots, b = rref([[0, 0], [0, 1]], [3, 2])
    assert pivots == [1]
    assert m == [[0, 1], [0, 0]] and b == [2, 1]
    assert all(type(x) is int for x in [*m[0], *m[1], *b])
    assert particular_from_rref(m, pivots, b, 2) is None
    zero, one = RadExpr.of(0), RadExpr.of(1)
    field = rref([[zero, zero], [zero, one]], [RadExpr.of(3), RadExpr.of(2)])
    assert field == ([[0, 1], [0, 0]], [1], [2, 3])
    m, pivots, b = rref([[0]], [1])
    assert pivots == [] and particular_from_rref(m, pivots, b, 1) is None


# ints, and Fractions with and without a denominator
RATIONALS = st.sampled_from(
    [*range(-4, 5), *sorted({Fraction(p, q) for p in range(-6, 7) for q in (1, 2, 3, 4, 6)})]
)


@st.composite
def rational_systems(draw):
    """(rows, rhs) of mixed ints and Fractions: every row a combination of
    `rank` base rows, some of them zero rows, and an rhs that is absent,
    consistent (the rows times a point) or drawn freely, which leaves a
    rank-deficient system inconsistent in general.  Zero rows give the empty
    system, with or without an empty rhs."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(nrows, ncols)))
    base = [[draw(RATIONALS) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if draw(st.booleans()):
            rows.append([0] * ncols)
            continue
        coeffs = [draw(RATIONALS) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), 0) for j in range(ncols)])
    kind = draw(st.sampled_from(["none", "consistent", "free"]))
    if kind == "none":
        return rows, None
    if kind == "free":
        return rows, [draw(RATIONALS) for _ in rows]
    point = [draw(RATIONALS) for _ in range(ncols)]
    return rows, [sum((a * x for a, x in zip(row, point)), 0) for row in rows]


@given(system=rational_systems())
@settings(max_examples=300, deadline=None)
def test_integer_pass_matches_the_field_pass(system):
    # rational rows take the integer pass, RadExpr copies the field pass:
    # the same pivots, each integer pivot row over its pivot the field row,
    # the same readings, zero coefficients below the rank in both, and a
    # zero rhs on the same rows there
    rows, rhs = system
    m, pivots, b = rref(rows, rhs)
    copies = [[RadExpr.of(x) for x in row] for row in rows]
    fm, fpivots, fb = rref(copies, None if rhs is None else [RadExpr.of(y) for y in rhs])
    assert pivots == fpivots
    assert all(type(x) is int for row in m for x in row)
    assert all(type(y) is int for y in b or ())
    rank, ncols = len(pivots), len(rows[0]) if rows else 0
    for r, p in enumerate(pivots):
        assert [Fraction(x, m[r][p]) for x in m[r]] == fm[r]
        if rhs is not None:
            assert Fraction(b[r], m[r][p]) == fb[r]
    assert not any(x for row in m[rank:] + fm[rank:] for x in row)
    kernel = kernel_from_rref(m, pivots, ncols)
    assert kernel == kernel_from_rref(fm, fpivots, ncols)
    assert all(type(x) is Fraction for v in kernel for x in v)
    if rhs is not None:
        assert [bool(y) for y in b[rank:]] == [bool(y) for y in fb[rank:]]
        x = particular_from_rref(m, pivots, b, ncols)
        assert x == particular_from_rref(fm, fpivots, fb, ncols)
        assert x is None or all(type(v) is Fraction for v in x)


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


def rectangle(t) -> list:
    """The inscribed rectangle t, 1/t, -t, -1/t, whose fan triangulation
    has a rational kernel."""
    return [t, 1 / t, -t, -1 / t]


def rectangle_results():
    for t in RECTANGLE_TANS:
        yield f"rectangle-{t.numerator}-{t.denominator}", fan_result(rectangle(t))


def offset_lattice_result():
    """Fixed-exterior-like result whose integer solutions form a shifted line.

    A fixed-exterior system from build_system always has nullity zero (chords
    in convex position carry no self-stress), so this inhomogeneous case with
    a lattice of dimension one is built by hand.  x = (3 + sqrt2, 0, 0)
    + t1*(-sqrt2, 1, 0) + t2*(1/2, 0, 1): the radical part pins t1 = 1 and
    leaves t2 free, and x0 = 3 + t2/2 is an integer for even t2 only.  The
    y fields that the search reads are the same vectors at unit scale, each
    kernel vector one in its own free column: the sqrt2 row of x0 is a
    singleton row, which pins t1 = 1 inside [1, bound].
    """
    root2 = RadExpr.sqrt(2)
    return SolveResult(
        rank=1,
        kernel_basis=((-root2, 1, 0), (1, 0, 2)),
        particular=(3 + root2, 0, 0),
        free_columns=(1, 2),
        n_unknowns=3,
        scale=(Fraction(1),) * 3,
        y_particular=(3 + root2, 0, 0),
        y_kernel=((-root2, 1, 0), (HALF, 0, 1)),
    )


def solved(positions, chords, fixed=None) -> SolveResult:
    return solve(build_system(positions, chords, fixed))


def oracle_cases():
    """(name, build, bound), where build() gives the SolveResult to search.
    Nothing is solved until a test calls build, so a fault in the solver
    fails these cases by name and leaves the file's other tests running."""
    line = partial(solved, [pt(0), pt(INFINITY)], ChordSet(2, ((0, 1),)))
    square = partial(solved, [pt(0), pt(1), pt(INFINITY), pt(-1)],
                     ChordSet(4, ((0, 1), (1, 2), (2, 3), (0, 3))))
    yield "line", line, 3
    yield "square-fixed", partial(square, [1, 1, 1, 1]), 50
    yield "golden-fixed", lambda: solve(
        triangle_system(Fraction(4, 3), Fraction(4, 3), fixed=[100, 56, 100])
    ), 100
    yield "line-infeasible", partial(line, [1, 2]), 10
    for t in RECTANGLE_TANS:
        yield f"rectangle-{t.numerator}-{t.denominator}", partial(fan_result, rectangle(t)), 20
    rng = seeded_rng(salt=11)
    for n, bound, count in ((4, 8, 6), (5, 4, 4)):
        for k in range(count):
            tans = [Fraction(0)] + rng.sample(TAN_GRID, n - 1)
            yield f"fan-{n}-{k}", partial(fan_result, tans), bound
    yield "offset-lattice", offset_lattice_result, 10
    # the turned cases put radical scales and radical y through the search; at
    # bound 6 the free rectangles, plain and turned, have a solution each
    for name, positions, chords, fixed in SCALED_CASES:
        yield f"scaled-{name}", partial(solved, positions, chords, fixed), 6


def test_positive_solutions_on_offset_lattice():
    assert positive_integer_solutions(offset_lattice_result(), 10) == [
        (4, 1, 2), (5, 1, 4), (6, 1, 6), (7, 1, 8), (8, 1, 10)
    ]


def test_search_reads_the_scaled_solution_alone(monkeypatch):
    # the search never inverts a RadExpr and never reads the x-space fields;
    # the grid triangle's chord 0-1 has length 2/sqrt5, so the sqrt5 part of
    # a coordinate is a singleton row, which pins t = 0 and refutes the
    # triangle before any elimination
    golden = solve(triangle_system(Fraction(4, 3), Fraction(4, 3)))
    grid = solve(triangle_system(HALF, HALF))
    assert isinstance(grid.scale[3], RadExpr) and grid.nullity == 1
    cases = [(golden, positive_integer_solutions(golden, 100), 1), (grid, [], 0)]
    assert cases[0][1] == box_walk_solutions(golden, 100) != []
    calls = {"inverse": 0, "rref": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RadExpr, "inverse", counted("inverse", RadExpr.inverse))
    monkeypatch.setattr(solver, "rref", counted("rref", solver.rref))
    for result, want, rrefs in cases:
        calls.update(inverse=0, rref=0)
        blind = dataclasses.replace(result, kernel_basis=None, particular=None)
        assert positive_integer_solutions(blind, 100) == want
        assert calls == {"inverse": 0, "rref": rrefs}


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


def test_half_cos_sin_matches_the_inverse_of_the_root():
    root3 = RadExpr.sqrt(3)
    for u in (*TAN_GRID, INFINITY, root3, -root3):
        assert half_cos_sin(u) == cased_half_cos_sin(u), u
    # the message of test_half_cos_sin_needs_a_rational_norm is the oracle's
    with pytest.raises(InexactPosition, match="half-angle norm is not a representable radical"):
        cased_half_cos_sin(1 + RadExpr.sqrt(2))


def test_closed_forms_factor_only_the_norms(monkeypatch):
    seen = factored(monkeypatch)
    n3_closed_forms(*n3_points(Fraction(4, 3), Fraction(4, 3)))
    assert seen == [25, 25, 625]
    rng = seeded_rng(salt=9)  # criterion 03's pairs
    for _ in range(200):
        points = n3_points(*random_domain_pair(rng))
        seen.clear()
        forms = n3_closed_forms(*points)
        assert seen == [norm(u) for u in (forms.tan12, forms.tan23, forms.tan13)]


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


def test_closed_forms_need_exact_angle_differences():
    with pytest.raises(InexactPosition, match="closed forms need exact angle differences"):
        n3_closed_forms(CirclePoint.from_angle(1.0), pt(Fraction(1, 2)))


def test_closed_forms_reject_a_second_difference_past_pi():
    with pytest.raises(
        DomainError, match=r"second angle difference must lie strictly in \(0, pi\)"
    ):
        n3_closed_forms(*n3_points(Fraction(2), Fraction(-1)))


def test_half_cos_sin_needs_a_rational_norm():
    # 1 + (1 + sqrt2)^2 = 4 + 2*sqrt2 has no representable square root
    with pytest.raises(InexactPosition, match="half-angle norm is not a representable radical"):
        half_cos_sin(1 + RadExpr.sqrt(2))


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


def test_closed_forms_decide_rational_signs_without_radexpr(monkeypatch):
    # the half-angle signs of rational tan-halves are int comparisons
    # (exact.sign); a radical tan-half still asks RadExpr.sign
    calls = []
    sign = RadExpr.sign
    monkeypatch.setattr(RadExpr, "sign", lambda x: calls.append(x) or sign(x))
    four_thirds = CirclePoint.from_tan_half(Fraction(4, 3))
    forms = n3_closed_forms(four_thirds, four_thirds)
    assert forms.rational and calls == []
    half_cos_sin(RadExpr.sqrt(3))
    assert calls


def peel(points, mults, chords):
    def chord(i, j):
        return _chord(points[i], points[j])

    return peel_solve(points, mults, chords, chord)


def rotated(tans, turn=RadExpr.sqrt(2) - 1):
    """The points at the given tan-halves turned by a quarter of pi: tan-halves
    a + b*sqrt2, radical coordinates, and every squared chord rational."""
    return [CirclePoint.from_tan_half(tan_half_add(t, turn)) for t in tans]


def test_peel_solves_fixed_exterior_structures():
    golden = [pt(0), pt(Fraction(4, 3)), pt(Fraction(-24, 7))]
    triangle = ((0, 1), (0, 2), (1, 2))
    # the peel applies no bound: it returns the forced values, and the bound
    # refusals are replacement_feasible's (tests/test_replace.py)
    assert peel(golden, (100, 56, 100), triangle) == (35, 75, 35)
    assert peel([pt(0), pt(INFINITY)], (3, 3), ((0, 1),)) == (3,)
    assert peel([pt(0), pt(INFINITY)], (3, 4), ((0, 1),)) is None


@pytest.mark.parametrize("lookup", [_chord, chord_direction])
def test_peel_refutes_an_unbalanced_last_vertex(lookup):
    # the rays at 0 and pi joined by their diameter: the first vertex fixes
    # the chord at its own multiplicity, and the last vertex, with no open
    # chord left, balances only when its multiplicity is the same; both
    # lookups, so the system route and the integer pass
    line = [pt(0), pt(INFINITY)]

    def chord(i, j):
        return lookup(line[i], line[j])

    assert peel_solve(line, (1, 2), ((0, 1),), chord) is None
    assert peel_solve(line, (2, 1), ((0, 1),), chord) is None
    assert peel_solve(line, (2, 2), ((0, 1),), chord) == (2,)


def test_peel_checks_every_single_chord_vertex():
    # rays 25, 17 and 1 at tan-halves 3/4, inf and 0, chords 0-1 and 1-2: the
    # equations along each chord alone give (20, 1), which leaves no residual
    # at vertex 2, but vertex 0's ray is not parallel to its chord
    points = [pt(Fraction(3, 4)), pt(INFINITY), pt(0)]
    chords = ((0, 1), (1, 2))
    result = solve(build_system(points, ChordSet(3, chords), (25, 17, 1)))
    assert positive_integer_solutions(result, 50) == []
    assert peel(points, (25, 17, 1), chords) is None


def test_peel_on_radical_positions():
    # chords w - v with radical components, solved by the system
    golden = rotated([Fraction(0), Fraction(4, 3), Fraction(-24, 7)])
    triangle = ((0, 1), (0, 2), (1, 2))
    looked_up = []

    def chord(i, j):
        looked_up.append(_chord(golden[i], golden[j]))
        return looked_up[-1]

    assert peel_solve(golden, (100, 56, 100), triangle, chord) == (35, 75, 35)
    assert all(isinstance(x, RadExpr) and not x.is_rational() for c in looked_up for x in c[:2])
    line = rotated([Fraction(0), INFINITY])
    assert peel(line, (3, 3), ((0, 1),)) == (3,)
    assert peel(line, (3, 4), ((0, 1),)) is None
    # the turned axis square with unit rays needs sqrt2/2 on each side of
    # length sqrt2: y = 1/2 is rational, and x = y*sqrt2 is refused
    square = rotated([Fraction(0), Fraction(1), INFINITY, Fraction(-1)])
    sides = ((0, 1), (0, 3), (1, 2), (2, 3))
    result = solve(build_system(square, ChordSet(4, sides), (1, 1, 1, 1)))
    assert result.particular == (RadExpr.sqrt(2) * HALF,) * 4
    assert peel(square, (1, 1, 1, 1), sides) is None


def test_system_route_returns_only_positive_integers():
    # radical positions are solved by the system, whose particular solution
    # is the structure's forced values: returned when all are positive
    # integers, None otherwise (at (100, 56, 100) the same triangle gives
    # (35, 75, 35), test_peel_on_radical_positions)
    golden = rotated([Fraction(0), Fraction(4, 3), Fraction(-24, 7)])
    triangle = ((0, 1), (0, 2), (1, 2))
    halved = solve(build_system(golden, ChordSet(3, triangle), (50, 28, 50)))
    assert halved.particular == (Fraction(35, 2), Fraction(75, 2), Fraction(35, 2))
    assert peel(golden, (50, 28, 50), triangle) is None
    # the rotated 3-4-5 rectangle with a diagonal: the sides keep 3 and 4,
    # and the diagonal, a diameter along both of its rays, is forced to 0
    rectangle = rotated([HALF, Fraction(2), Fraction(-2), -HALF])
    chords = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    forced = solve(build_system(rectangle, ChordSet(4, chords), (5, 5, 5, 5))).particular
    assert forced == (3, 0, 4, 4, 3)
    assert peel(rectangle, (5, 5, 5, 5), chords) is None
    # the four diagonal rays of the radical oracle problem: irrational values
    root2 = RadExpr.sqrt(2)
    diagonals = [CirclePoint.from_tan_half(t) for t in (root2 - 1, root2 + 1, -root2 - 1, 1 - root2)]
    forced = solve(build_system(diagonals, ChordSet(4, chords), (1, 2, 1, 2))).particular
    assert forced == (root2, -1, root2, root2, root2)
    assert peel(diagonals, (1, 2, 1, 2), chords) is None


def test_system_route_keeps_the_callers_order():
    # build_system sorts the positions by angle and the chords by pair; the
    # values come back in the caller's chord order
    points = [pt(Fraction(4, 3)), pt(Fraction(-24, 7)), pt(0)]
    chords = ((1, 2), (0, 1), (0, 2))
    assert peel(points, (56, 100, 100), chords) == (75, 35, 35)


def test_multiplicity_needs_an_integer_product():
    # the multiplicity test of the field peel, the test helpers' oracle
    root2 = RadExpr.sqrt(2)
    assert field_multiplicity(Fraction(3, 2), Fraction(2)) == 3
    assert field_multiplicity(root2 * HALF, root2) == 1
    # no upper limit: the bound is replacement_feasible's one comparison
    assert field_multiplicity(Fraction(10**18), Fraction(1)) == 10**18
    # 2 + 2*sqrt2: the rational term alone would pass
    assert field_multiplicity(1 + root2, Fraction(2)) is None
    assert field_multiplicity(Fraction(1), root2) is None
    assert field_multiplicity(Fraction(1, 3), Fraction(1)) is None
    assert field_multiplicity(Fraction(0), Fraction(1)) is None
    assert field_multiplicity(Fraction(-3), Fraction(1)) is None


# --- the column-scaled system against the unit-direction oracle -------------

# the two least exteriors of the first four rectangles' solutions within
# bound 20 (test_rectangle_exteriors_are_the_least_solutions)
RECTANGLE_EXTERIORS = {
    Fraction(1, 2): ((6, 5, 6, 5), (7, 5, 7, 5)),
    Fraction(1, 3): ((6, 5, 6, 5), (7, 5, 7, 5)),
    Fraction(2, 3): ((14, 13, 14, 13), (15, 13, 15, 13)),
    Fraction(1, 4): ((18, 17, 18, 17), (19, 17, 19, 17)),
}


def scaled_oracle_cases():
    """(name, positions, chords, fixed exterior): free-exterior grid triangles,
    fan quads and pentagons; fan rectangles, free and fixed; and the same
    shapes turned to tan-halves a + b*sqrt2."""
    rng = seeded_rng(salt=12)
    golden = [Fraction(0), Fraction(4, 3), Fraction(-24, 7)]
    cases = [("golden", golden, None)]
    for k in range(8):
        cases.append((f"triangle-{k}", [Fraction(0)] + rng.sample(TAN_GRID, 2), None))
    for n in (4, 5):
        for k in range(4):
            cases.append((f"fan-{n}-{k}", [Fraction(0)] + rng.sample(TAN_GRID, n - 1), None))
    for t, exteriors in RECTANGLE_EXTERIORS.items():
        odd = tuple(rng.randint(1, 9) for _ in range(4))
        for ext in [None, *exteriors, odd]:
            cases.append((f"rectangle-{t}-{ext}", rectangle(t), ext))
    for name, tans, fixed in cases:
        tans = sorted_by_angle(tans)
        chords = ChordSet(len(tans), fan_chords(len(tans)))
        yield name, [pt(x) for x in tans], chords, fixed
        if name.startswith(("golden", "triangle-0", "fan-4-0", "fan-5-0", "rectangle")):
            yield f"turned-{name}", rotated(tans), chords, fixed


SCALED_CASES = list(scaled_oracle_cases())


def test_rectangle_exteriors_are_the_least_solutions():
    assert list(RECTANGLE_EXTERIORS) == list(RECTANGLE_TANS[:4])
    for t, exteriors in RECTANGLE_EXTERIORS.items():
        solutions = positive_integer_solutions(fan_result(rectangle(t)), 20)
        assert tuple(sorted({x[:4] for x in solutions})[:2]) == exteriors


def pool_sample():
    """(name, positions, chords): a seeded sample of every solve_grid pool
    kind, free exteriors and fan chords on angle-ordered points: criterion
    04's anchored triangles, quads, pentagons and hexagons on its grid, and
    the inscribed rectangles."""
    rng = seeded_rng(salt=29)
    sizes = {"triangle": (3, 12), "quad": (4, 4), "pentagon": (5, 3), "hexagon": (6, 2)}
    for kind, (n, count) in sizes.items():
        for k in range(count):
            tans = sorted_by_angle([Fraction(0)] + rng.sample(TAN_GRID, n - 1))
            yield f"{kind}-{k}", [pt(t) for t in tans], ChordSet(n, fan_chords(n))
    for t in RECTANGLE_TANS:
        tans = sorted_by_angle(rectangle(t))
        yield f"rectangle-{t}", [pt(x) for x in tans], ChordSet(4, fan_chords(4))


@pytest.mark.parametrize(
    "positions, chords, fixed",
    [pytest.param(*c[1:], id=c[0]) for c in SCALED_CASES]
    + [pytest.param(p, c, None, id=f"pool-{name}") for name, p, c in pool_sample()],
)
def test_scaled_solve_matches_unit_directions(positions, chords, fixed):
    # the integer columns u, the (w - v, |w - v|) columns and the unit
    # directions give the same rank, kernel and particular solution
    system = build_system(positions, chords, fixed)
    result = solve(system)
    want = normalized_solve(positions, chords, fixed)
    assert result == solve(difference_system(positions, chords, fixed)) == want
    # coprime integers stay ints and radicals RadExprs
    assert [type(x) for v in result.kernel_basis for x in v] == [
        type(x) for v in want.kernel_basis for x in v
    ]
    vectors = list(result.kernel_basis)
    if result.particular is not None:
        vectors.append(result.particular)
    for vec in vectors:
        assert all(r.is_zero() for r in system_residual(system, vec))


def test_rational_systems_never_enter_the_field_pass(monkeypatch):
    # the field pass is for RadExpr entries alone: a rational system that
    # reached it (say as RadExpr-wrapped rationals) would still be right,
    # only slow, so the route is pinned here
    field, calls = linalg._rref_field, []
    monkeypatch.setattr(linalg, "_rref_field", lambda *a: calls.append(a) or field(*a))
    results = []
    for name, positions, chords, fixed in SCALED_CASES:
        results.append(solve(build_system(positions, chords, fixed)))
        # the turned cases' a + b*sqrt2 positions give RadExpr entries
        assert len(calls) == name.startswith("turned"), name
        calls.clear()
    # the split rows of the search are rational whatever y holds; the offset
    # lattice's sqrt2 row reaches the elimination
    rows = []
    monkeypatch.setattr(solver, "rref", lambda *a: rows.append(len(a[0])) or rref(*a))
    for result in (*results, offset_lattice_result()):
        positive_integer_solutions(result, 6)
    assert calls == [] and rows[-1] == 1


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


@pytest.mark.parametrize(
    "build,bound", [pytest.param(f, b, id=name) for name, f, b in oracle_cases()]
)
def test_positive_solutions_match_box_walk(build, bound):
    result = build()
    assert positive_integer_solutions(result, bound) == box_walk_solutions(result, bound)


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
    # the m_v columns and the rhs hold Fractions at scale one; a chord column
    # holds the ints u, a positive multiple of w - v, at its endpoints' rows
    # and scales by |u|, with |u|^2 = N_v*N_w for the norms N = a^2 + b^2
    system = build_system(positions, chords, fixed)
    n = len(system.positions)
    offset = 0 if fixed is not None else n
    assert all(type(x) is Fraction for row in system.matrix for x in row[:offset])
    assert all(type(x) is int for row in system.matrix for x in row[offset:] if x)
    assert all(type(x) is Fraction for x in system.rhs)
    assert system.scale[:offset] == (1,) * offset
    pos = system.positions
    for col, (i, j) in enumerate(system.edges.chords):
        c = offset + col
        ux, uy = system.matrix[2 * i][c], system.matrix[2 * i + 1][c]
        assert (system.matrix[2 * j][c], system.matrix[2 * j + 1][c]) == (-ux, -uy)
        assert not any(system.matrix[r][c] for r in range(2 * n) if r // 2 not in (i, j))
        dx, dy, _ = _chord(pos[i], pos[j])
        assert dx * uy == dy * ux and dx * ux + dy * uy > 0
        d, q = term(system.scale[c])
        assert q > 0 and q * q * d == ux * ux + uy * uy == norm(pos[i].tan_half) * norm(
            pos[j].tan_half
        )

