"""Exact solving of the stationarity system for multiplicities.

Unknowns are the exterior multiplicities (one per vertex) followed by the
interior edge multiplicities; each vertex contributes an x-row and a y-row

    m_v * v + sum_w m_vw * (w - v)/|w - v| = 0.

A chord column holds a positive multiple u of w - v, not the unit
direction: circle.chord_direction gives u as two ints for rational
positions, and w - v itself for radical ones.  The unknown of a chord
column is y = m_vw/|u|, and StationaritySystem.scale records the factor
x = scale * y that maps it back (one for the m_v columns, |u| for the
chords, which is sqrt(N_v*N_w) for rational tan-halves with the norms
N = a^2 + b^2).  Scaling a column by a nonzero factor moves no pivot, so
solve runs one elimination on the scaled matrix and maps its particular
solution and kernel back exactly.  Each scale is one radical term, and
exact's term helpers multiply by it without a RadExpr product, here and in
the search.  Rational positions give a matrix of ints and Fractions, which
linalg.rref eliminates on integer rows and returns fraction-free; solve
reads each pivot row over its pivot (kernel_from_rref,
particular_from_rref), so only the solution's own entries become
Fractions.  Radical positions keep RadExpr entries and take the field pass.
Each kernel vector is reported divided by its lead, and as coprime integers
when that leaves it rational.

Integer solutions are searched on the rational part of the solution space.
The search reads the scaled solution that solve keeps beside its output (the
column scale, the y-particular and the y-kernel), never the x-space fields.
Splitting every coordinate by radical term gives rational equations in the
free coordinates; a row with one unknown fixes it, and a value outside the
integers in [1, bound] refutes at once.  The rest leaves a rational lattice,
usually of much lower dimension than the kernel, and only its points within
the bound are enumerated.
The three-vertex case additionally gets the closed forms in half-angle
cosines/sines that drive the rationality analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .chords import ChordSet
from .circle import (
    CirclePoint,
    ExactScalar,
    TanHalf,
    _half,
    _is_ratio,
    _ratio,
    angle_order,
    chord_direction,
    tan_half_add,
)
from .errors import DomainError, InexactPosition, check_int
from .exact import (
    RadExpr,
    sign,
    simplify,
    term,
    term_inverse,
    term_product,
    times_term,
    times_term_map,
)
from .linalg import kernel_from_rref, matvec, particular_from_rref, rref

SEARCH_BOX_CAP = 5_000_000  # guard on bound**r', r' the rational lattice's dimension


@dataclass(frozen=True)
class StationaritySystem:
    positions: tuple[CirclePoint, ...]
    edges: ChordSet
    matrix: tuple[tuple[int | ExactScalar, ...], ...]
    rhs: tuple[ExactScalar, ...]
    # x = scale * y per column: 1 for an m_v column, |u| for a chord column
    # u (circle.chord_direction), sqrt(N_v*N_w) between rational tan-halves
    scale: tuple[ExactScalar, ...]
    fixed_exterior: tuple[int, ...] | None  # in angle order, as positions

    @property
    def n_unknowns(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


@dataclass(frozen=True)
class SolveResult:
    rank: int
    kernel_basis: tuple[tuple, ...]
    particular: tuple | None
    free_columns: tuple[int, ...]
    n_unknowns: int
    # the scaled solution that positive_integer_solutions reads: x = scale * y
    # per column, one term q*sqrt(d) each; the y-particular; and the y-kernel
    # as kernel_from_rref gives it, one in its free column and zero in the others
    scale: tuple[ExactScalar, ...] = field(compare=False, repr=False)
    y_particular: tuple | None = field(compare=False, repr=False)
    y_kernel: tuple[tuple, ...] = field(compare=False, repr=False)

    @property
    def nullity(self) -> int:
        return len(self.kernel_basis)


def build_system(
    positions: Sequence[CirclePoint],
    edges: ChordSet,
    fixed_exterior: Sequence[int] | None = None,
) -> StationaritySystem:
    """Assemble the 2N-row system on the angle-sorted positions.

    Positions are put in angle order (and chord indices remapped) so the
    cyclic order matches vertex order; chords that cross after the remap raise
    CrossingEdges.  With fixed_exterior, which is permuted in angle order with
    the positions, the m_v columns move to the right-hand side and only edge
    multiplicities remain unknown.  A chord's column holds the multiple u of
    w - v from circle.chord_direction, ints for rational positions, and its
    length |u| goes to scale.
    """
    n = len(positions)
    if edges.n != n:
        raise ValueError("chord set is on a different number of points")
    for p in positions:
        if not p.is_exact:
            raise InexactPosition("solver needs exact positions")
    order = angle_order(positions)
    pos = tuple(positions[k] for k in order)
    chord_set = edges
    if order != list(range(n)):
        remap = sorted(range(n), key=order.__getitem__)  # inverse permutation
        pairs = (tuple(sorted((remap[i], remap[j]))) for i, j in edges.chords)
        chord_set = ChordSet(n, tuple(pairs))
    pairs = chord_set.chords

    e = len(pairs)
    fixed = None
    if fixed_exterior is not None:
        if len(fixed_exterior) != n:
            raise ValueError("fixed_exterior length must equal the vertex count")
        fixed = tuple(fixed_exterior[k] for k in order)
    ncols = e if fixed is not None else n + e
    zero = Fraction(0)
    matrix = [[zero] * ncols for _ in range(2 * n)]
    rhs = [zero] * (2 * n)
    scale = [Fraction(1)] * ncols

    for k in range(n):
        px, py = pos[k].exact_xy()
        if fixed is None:
            matrix[2 * k][k] = px
            matrix[2 * k + 1][k] = py
        else:
            rhs[2 * k] = -fixed[k] * px
            rhs[2 * k + 1] = -fixed[k] * py
    for col, (i, j) in enumerate(pairs):
        c = col if fixed is not None else n + col
        ux, uy, scale[c] = chord_direction(pos[i], pos[j])
        matrix[2 * i][c] = ux
        matrix[2 * i + 1][c] = uy
        matrix[2 * j][c] = -ux
        matrix[2 * j + 1][c] = -uy

    return StationaritySystem(
        positions=pos,
        edges=chord_set,
        matrix=tuple(tuple(row) for row in matrix),
        rhs=tuple(rhs),
        scale=tuple(scale),
        fixed_exterior=fixed,
    )


def normalize_vector(vec: Sequence) -> tuple:
    """vec over its leading nonzero entry, then times the lcm of the
    denominators if every entry is rational: coprime ints with positive lead
    for a multiple of a rational vector, RadExprs with lead one otherwise,
    and int zeros for a zero vector."""
    exprs = [RadExpr.of(x) for x in vec]
    inv = next((x for x in exprs if x), RadExpr.of(1)).inverse()
    exprs = [x * inv for x in exprs]
    if not all(x.is_rational() for x in exprs):
        return tuple(exprs)
    qs = [x.rational_value() for x in exprs]
    mult = lcm(*(q.denominator for q in qs))
    return tuple(int(q * mult) for q in qs)


def solve(system: StationaritySystem) -> SolveResult:
    """Rank, kernel basis and a particular solution in the multiplicities x.

    One elimination on the scaled matrix gives them in y (on integer rows for
    a rational matrix, each pivot row read over its pivot, see rref), and
    x = scale * y, each coordinate built by
    exact.times_term from y_i and the one term of scale_i.  Each kernel vector
    scale * y is normalized as it is: all its multiples normalize alike, so a
    rational kernel comes out as the coprime integers of the unit-direction
    system.  The y-particular, the y-kernel and the scale ride along,
    uncompared, for positive_integer_solutions.
    """
    m, pivots, b = rref(system.matrix, system.rhs)
    ncols, scale = system.n_unknowns, system.scale
    terms = [term(s) for s in scale]

    def scaled(vec) -> list[RadExpr]:
        return [times_term(v, t) for v, t in zip(vec, terms)]

    y = particular_from_rref(m, pivots, b, ncols)
    kernel = tuple(tuple(k) for k in kernel_from_rref(m, pivots, ncols))
    return SolveResult(
        rank=len(pivots),
        kernel_basis=tuple(normalize_vector(scaled(k)) for k in kernel),
        particular=None if y is None else tuple(scaled(y)),
        free_columns=tuple(c for c in range(ncols) if c not in pivots),
        n_unknowns=ncols,
        scale=scale,
        y_particular=None if y is None else tuple(y),
        y_kernel=kernel,
    )


def positive_integer_solutions(
    result: SolveResult, bound: int
) -> list[tuple[int, ...]]:
    """All solutions with every coordinate an integer in [1, bound], sorted.

    A solution is x = particular + sum_k t_k * basis_k, with each kernel
    vector scaled to one in its free column, so t_k = x[free_k] is an integer.
    The search builds them from the scaled solution alone: coordinate i of the
    particular is scale_i * y_i, and the coefficient of t_k there is
    (scale_i / scale_{free_k}) * y_k[i], one radical times a Fraction, or times
    a RadExpr on radical positions.  Square roots of distinct squarefree
    integers are linearly independent over Q, so x is rational exactly when,
    in every coordinate, the coefficient of each sqrt(d) with d != 1 vanishes.
    Those equations are rational and linear in t, and are built coordinate by
    coordinate; one with a single unknown fixes it (the singleton rows of
    integer-programming presolve), and a value that is not an integer in
    [1, bound] returns [] before anything is eliminated.  The equations' other
    solutions are an affine family over the r' coordinates of t they leave
    free.  Only that rational lattice is walked: bound**r' points, refused
    above SEARCH_BOX_CAP, in integers over one common denominator.  Nullity
    zero is the case with no t.
    """
    check_int("bound", bound)
    if bound < 1:
        raise ValueError("bound must be positive")
    if result.y_particular is None:
        return []
    terms = [term(s) for s in result.scale]
    inverse_free = [term_inverse(terms[f]) for f in result.free_columns]

    # the irrational parts must cancel: one rational equation in t per
    # coordinate and radical
    part, coefficients, rows, rhs = [], [], [], []
    for i, t in enumerate(terms):
        p = times_term_map(result.y_particular[i], t)
        coeffs = [
            times_term_map(y[i], term_product(t, r))
            for y, r in zip(result.y_kernel, inverse_free)
        ]
        part.append(p)
        coefficients.append(coeffs)
        for rad in sorted(set(p).union(*coeffs) - {1}):
            row = [c.get(rad, 0) for c in coeffs]
            nonzero = [k for k, c in enumerate(row) if c]
            if len(nonzero) == 1:
                t = -p.get(rad, 0) / row[nonzero[0]]
                if t.denominator != 1 or not 1 <= t <= bound:
                    return []
            rows.append(row)
            rhs.append(-p.get(rad, 0))
    nullity = len(result.y_kernel)
    m, pivots, reduced = rref(rows, rhs)
    t0 = particular_from_rref(m, pivots, reduced, nullity)
    if t0 is None:
        return []
    lattice = kernel_from_rref(m, pivots, nullity)
    if bound ** len(lattice) > SEARCH_BOX_CAP:
        raise ValueError("search box too large for exhaustive enumeration")

    # x = origin + sum_j s_j * steps_j over the rational parts alone, with
    # s_j the t-coordinate left free by the split
    def rational_part(coeffs, i):
        return sum((c * b.get(1, 0) for c, b in zip(coeffs, coefficients[i])), Fraction(0))

    origin = [p.get(1, 0) + rational_part(t0, i) for i, p in enumerate(part)]
    steps = []
    for w in lattice:
        steps.append([rational_part(w, i) for i in range(len(part))])
    den = lcm(*(q.denominator for row in (origin, *steps) for q in row))
    origin = [int(q * den) for q in origin]
    steps = [[int(q * den) for q in s] for s in steps]

    out: list[tuple[int, ...]] = []

    def walk(k: int, acc: list[int]):
        if k == len(steps):
            if all(v % den == 0 and den <= v <= bound * den for v in acc):
                out.append(tuple(v // den for v in acc))
            return
        for _ in range(bound):
            acc = [a + s for a, s in zip(acc, steps[k])]
            walk(k + 1, acc)

    walk(0, origin)
    return sorted(out)


# --- fixed-exterior structures by peeling ---------------------------------

def peel_solve(
    positions: Sequence[CirclePoint],
    exterior_mults: Sequence[int],
    chords: Sequence[tuple[int, int]],
    chord: Callable[[int, int], tuple[int | ExactScalar, int | ExactScalar, ExactScalar]],
) -> tuple[int, ...] | None:
    """The edge multiplicities of one fixed-exterior structure.

    Solves m_v * v + sum_w m_vw * (w - v)/|w - v| = 0 at every vertex for
    the chords' multiplicities, in chord order, and returns them when they
    are positive integers; None otherwise.  They are forced, so a caller's
    bound is one comparison with them.  positions are the exact vertices,
    and chord(i, j) gives (dx, dy, length), a positive multiple of the
    exact w - v from vertex i to vertex j (i < j) and its length, as
    circle.chord_direction and circle._chord do; the forced values do not
    depend on the multiple.
    Every chord is looked up before any is solved, so a lookup that raises
    InexactPosition does so on the same structures as build_system.

    When every lookup gives u as two ints, as circle.chord_direction does
    between rational points, and every position is rational, the structure
    is peeled (_peel_integer): residuals and values stay integers over one
    denominator, and a multiplicity is tested without any RadExpr.  Every
    other structure, on circle._chord's Fractions or at radical positions,
    is solved by the system itself, solve(build_system(...)), whose
    particular solution holds the forced values: the peel's walk
    (_peel_order) shows that every non-crossing fixed-exterior structure
    has nullity 0.  The tests compare both routes with a peel in field
    arithmetic (field_peel).
    """
    dirs = [chord(i, j) for i, j in chords]
    if all(type(dx) is int and type(dy) is int for dx, dy, _ in dirs) and all(
        _is_ratio(p.tan_half) for p in positions
    ):
        return _peel_integer(positions, exterior_mults, chords, dirs)
    system = build_system(positions, ChordSet(len(positions), tuple(chords)), exterior_mults)
    particular = solve(system).particular
    if particular is None:
        return None
    # build_system puts the positions in angle order and sorts the chords
    rank = [system.positions.index(p) for p in positions]
    value = dict(zip(system.edges.chords, particular))
    forced = [simplify(value[tuple(sorted((rank[i], rank[j])))]) for i, j in chords]
    if all(isinstance(x, Fraction) and x.denominator == 1 and x >= 1 for x in forced):
        return tuple(int(x) for x in forced)
    return None


def _peel_order(n: int, chords: Sequence[tuple[int, int]], dirs: Sequence[tuple]):
    """The peel's vertices in order, each with its open chords oriented: a
    list of (k, w, (ax, ay, length)) per open chord k, with w its other end
    and the lookup dirs[k], negated when v is chords[k][1], so that (ax, ay)
    points from v toward w.

    The next vertex is one with the fewest open chords; once the caller
    asks for it, the chords of the vertex before are closed at their other
    ends.  More than two open chords raise ValueError, which non-crossing
    chords never do: they form an outerplanar graph on the circle, and
    every subgraph of one has a vertex of degree <= 2 (Chartrand-Harary).
    That vertex's 2x2 equation fixes its open chords: Cramer's rule for two
    (two chords from v to distinct circle points are never parallel), a
    parallel check and then the value for one, a zero residual for none.
    So every value is forced, and a fixed-exterior system of non-crossing
    chords has nullity 0, which peel_solve's system route relies on."""
    ends: list[dict[int, int]] = [{} for _ in range(n)]  # open chord -> other end
    for k, (i, j) in enumerate(chords):
        ends[i][k] = j
        ends[j][k] = i
    unsolved = set(range(n))
    while unsolved:
        v = min(unsolved, key=lambda u: len(ends[u]))
        unsolved.remove(v)
        if len(ends[v]) > 2:
            raise ValueError("chords do not form an outerplanar graph")
        oriented = []
        for k, w in ends[v].items():
            dx, dy, length = dirs[k]
            oriented.append((k, w, dirs[k] if chords[k][0] == v else (-dx, -dy, length)))
        yield v, oriented
        for k, w, _ in oriented:
            del ends[w][k]


def _peel_integer(positions, exterior_mults, chords, dirs) -> tuple[int, ...] | None:
    """The library's one peel: peel_solve on integer chord multiples u
    between rational positions, walked by _peel_order.

    A residual is three ints (X, Y, D) for (X, Y)/D, started from
    m * (q^2 - p^2, 2pq) over p^2 + q^2 for the tan-half p/q (circle._ratio,
    INFINITY as 1/0).  Cramer's rule and the parallel check run on ints,
    and m = y * |u| is the quotient of two ints, tested for an integer
    >= 1.  An irrational |u| refutes the structure when its chord is
    reached: y is rational, so y * |u| is no positive integer.  A solved
    chord has y = m/|u| and moves -y * a into its other end over the lcm of
    the two denominators, so nothing is divided.  Each chord comes oriented
    from _peel_order, so only the arithmetic is here; the tests' field_peel
    runs the same walk in field arithmetic as its oracle."""
    residual: list[list[int] | None] = [None] * len(positions)

    def rest(v: int) -> list[int]:
        # m_v * v plus the solved chords at v, built on first use
        r = residual[v]
        if r is None:
            (p, q), m = _ratio(positions[v].tan_half), exterior_mults[v]
            r = residual[v] = [m * (q * q - p * p), 2 * m * p * q, p * p + q * q]
        return r

    def multiplicity(num: int, den: int, length: ExactScalar) -> int | None:
        # m = (num/den) * |u| when it is a positive integer; never for a radical |u|
        if isinstance(length, RadExpr):
            return None
        m, r = divmod(num * length.numerator, den * length.denominator)
        return m if not r and m >= 1 else None

    values: list[int] = [0] * len(chords)
    for v, oriented in _peel_order(len(positions), chords, dirs):
        rx, ry, d = rest(v)
        if not oriented:
            if rx or ry:
                return None
            continue
        if len(oriented) == 1:
            ((_, _, (ax, ay, length)),) = oriented
            # y * a = -r needs r parallel to a, and then y = -r.a/|a|^2
            if ax * ry - ay * rx:
                return None
            m = multiplicity(-(rx * ax + ry * ay), d * (ax * ax + ay * ay), length)
            if m is None:
                return None
            solved = [m]
        else:
            (_, _, (ax, ay, la)), (_, _, (bx, by, lb)) = oriented
            det = d * (ax * by - ay * bx)
            ma = multiplicity(ry * bx - rx * by, det, la)
            if ma is None:
                return None
            mb = multiplicity(ay * rx - ax * ry, det, lb)
            if mb is None:
                return None
            solved = [ma, mb]
        for (k, w, (ax, ay, length)), m in zip(oriented, solved):
            values[k] = m
            # y = m/|u| = m*ld/ln
            ln, ld = length.numerator, length.denominator
            r = rest(w)
            den = lcm(r[2], ln)
            old, new = den // r[2], m * ld * (den // ln)
            r[0], r[1], r[2] = r[0] * old - new * ax, r[1] * old - new * ay, den
    return tuple(values)


# --- the three-vertex closed forms --------------------------------------

def half_cos_sin(u: TanHalf) -> tuple[ExactScalar, ExactScalar]:
    """(cos(a/2), sin(a/2)) from u = tan(a/2), for a in (0, 2pi).

    There sin(a/2) > 0 while cos(a/2) carries the sign of u: with u = p/q
    (circle._ratio, q > 0, INFINITY as 1/0) they are (+-q, |p|)/sqrt(N) with
    the norm N = p^2 + q^2, so u = INFINITY (a = pi) gives (0, 1).  Only N is
    factored; a radical u needs a rational N.  The sign of p is exact.sign's,
    an int comparison for rational u."""
    p, q = _ratio(u)
    norm = RadExpr.of(p * p + q * q)
    if not norm.is_rational():
        raise InexactPosition("half-angle norm is not a representable radical")
    inv = term_inverse(term(RadExpr.sqrt(norm)))
    c, s = (-q, -p) if sign(p) < 0 else (q, p)
    return times_term(c, inv), times_term(s, inv)


@dataclass(frozen=True)
class N3ClosedForm:
    """Proportionality data for the triangle system.

    edge_vector spans the kernel of the half-angle cosine matrix; stationary
    multiplicities are beta * edge_vector and -beta * exterior_vector for one
    common beta (negative in the valid domain, where edge_vector is entrywise
    negative and exterior_vector entrywise positive).
    """

    tan12: TanHalf
    tan23: TanHalf
    tan13: TanHalf
    edge_vector: tuple[ExactScalar, ExactScalar, ExactScalar]
    exterior_vector: tuple[ExactScalar, ExactScalar, ExactScalar]
    rational: bool


def n3_closed_forms(alpha12: CirclePoint, alpha23: CirclePoint) -> N3ClosedForm:
    """Closed forms from the two independent angle differences.

    alpha12 and alpha23 are the vertex-to-vertex angle differences encoded as
    circle points e^(i*alpha); both must lie in (0, pi) with their sum in
    (pi, 2pi), else the stationarity signs are unsatisfiable.
    """
    u12 = alpha12.tan_half
    u23 = alpha23.tan_half
    if u12 is None or u23 is None:
        raise InexactPosition("closed forms need exact angle differences")
    # circle._half: 0 on [0, pi), 1 at pi, 2 on (pi, 2pi)
    if _half(u12) != 0 or u12 == 0:
        raise DomainError("first angle difference must lie strictly in (0, pi)")
    if _half(u23) != 0 or u23 == 0:
        raise DomainError("second angle difference must lie strictly in (0, pi)")
    u13 = tan_half_add(u12, u23)
    if _half(u13) != 2:
        raise DomainError("the angle sum must lie strictly in (pi, 2pi)")
    c12, s12 = half_cos_sin(u12)
    c23, s23 = half_cos_sin(u23)
    c13, s13 = half_cos_sin(u13)
    edge = (
        RadExpr.of(c13) * RadExpr.of(c23),
        -(RadExpr.of(c12) * RadExpr.of(c23)),
        RadExpr.of(c12) * RadExpr.of(c13),
    )
    exterior = (
        RadExpr.of(c23) * RadExpr.of(s23),
        -(RadExpr.of(c13) * RadExpr.of(s13)),
        RadExpr.of(c12) * RadExpr.of(s12),
    )
    rational = all(isinstance(u, Fraction) for u in (u12, u23, u13))
    return N3ClosedForm(u12, u23, u13, edge, exterior, rational)


def n3_imaginary_kernel(alpha12: CirclePoint, alpha23: CirclePoint) -> tuple:
    """Kernel of the half-angle cosine matrix, via elimination, normalized."""
    forms = n3_closed_forms(alpha12, alpha23)
    c12, _ = half_cos_sin(forms.tan12)
    c23, _ = half_cos_sin(forms.tan23)
    c13, _ = half_cos_sin(forms.tan13)
    zero = RadExpr.of(0)
    c = [
        [RadExpr.of(c12), RadExpr.of(c13), zero],
        [-RadExpr.of(c12), zero, RadExpr.of(c23)],
        [zero, -RadExpr.of(c13), -RadExpr.of(c23)],
    ]
    m, pivots, _ = rref(c)
    basis = kernel_from_rref(m, pivots, 3)
    if len(basis) != 1:
        raise DomainError("cosine matrix must have nullity one in the domain")
    return normalize_vector(basis[0])


def system_residual(system: StationaritySystem, vec: Sequence) -> list[RadExpr]:
    """The residual of the unit-direction system at the multiplicities vec,
    exactly; all zero iff vec solves the system.

    That is matrix @ (vec / scale) - rhs: each chord column holds a multiple
    u of w - v, so m_vw/|u| times it is m_vw times the unit direction.
    """
    prod = matvec(system.matrix, [RadExpr.of(x) / s for x, s in zip(vec, system.scale)])
    return [p - r for p, r in zip(prod, system.rhs)]
