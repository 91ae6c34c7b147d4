"""Exact solving of the stationarity system for multiplicities.

Unknowns are the exterior multiplicities (one per vertex) followed by the
interior edge multiplicities; each vertex contributes an x-row and a y-row

    m_v * v + sum_w m_vw * (w - v)/|w - v| = 0.

The chord columns hold (w - v), not the unit direction: the unknown of a
chord column is y = m_vw/|w - v|, and StationaritySystem.scale records the
factor x = scale * y that maps it back (one for the m_v columns, |w - v| for
the chords).  Scaling a column by a nonzero factor moves no pivot, so solve
runs one elimination on the scaled matrix and maps its particular solution
and kernel back exactly.  Rational positions give a rational matrix, and the
elimination runs on Fractions; radical positions keep RadExpr entries.  Each
kernel vector is reported divided by its lead, and as coprime integers when
that leaves it rational.

Integer solutions are searched on the rational part of the solution space:
splitting every coordinate by radical term leaves a rational lattice, usually
of much lower dimension than the kernel, and only its points within the bound
are enumerated.
The three-vertex case additionally gets the closed forms in half-angle
cosines/sines that drive the rationality analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .chords import ChordSet
from .circle import (
    CirclePoint,
    ExactScalar,
    INFINITY,
    TanHalf,
    _InfinityType,
    _chord,
    angle_order,
    tan_half_add,
)
from .errors import DomainError, InexactPosition, is_int
from .exact import RadExpr
from .linalg import kernel_from_rref, matvec, particular_from_rref, rref

SEARCH_BOX_CAP = 5_000_000  # guard on bound**r', r' the rational lattice's dimension


@dataclass(frozen=True)
class StationaritySystem:
    positions: tuple[CirclePoint, ...]
    edges: ChordSet
    matrix: tuple[tuple[ExactScalar, ...], ...]
    rhs: tuple[ExactScalar, ...]
    # x = scale * y per column: 1 for an m_v column, |w - v| for a chord
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
    multiplicities remain unknown.  A chord's column holds (w - v) from
    circle._chord, and its length goes to scale.
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
        dx, dy, scale[c] = _chord(pos[i], pos[j])
        matrix[2 * i][c] = dx
        matrix[2 * i + 1][c] = dy
        matrix[2 * j][c] = -dx
        matrix[2 * j + 1][c] = -dy

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

    One elimination on the scaled matrix gives them in y, and x = scale * y.
    Each kernel vector scale * y is normalized as it is: all its multiples
    normalize alike, so a rational kernel comes out as the coprime integers
    of the unit-direction system.
    """
    m, pivots, b = rref(system.matrix, system.rhs)
    ncols, scale = system.n_unknowns, system.scale
    y = particular_from_rref(m, pivots, b, ncols)
    particular = None if y is None else tuple(RadExpr.of(s * v) for s, v in zip(scale, y))
    return SolveResult(
        rank=len(pivots),
        kernel_basis=tuple(
            normalize_vector([s * v for s, v in zip(scale, k)])
            for k in kernel_from_rref(m, pivots, ncols)
        ),
        particular=particular,
        free_columns=tuple(c for c in range(ncols) if c not in pivots),
        n_unknowns=ncols,
    )


def positive_integer_solutions(
    result: SolveResult, bound: int
) -> list[tuple[int, ...]]:
    """All solutions with every coordinate an integer in [1, bound], sorted.

    A solution is x = particular + sum_k t_k * basis_k, with each kernel
    vector scaled to one in its free column, so t_k = x[free_k] is an integer.
    Square roots of distinct squarefree integers are linearly independent over
    Q, so x is rational exactly when, in every coordinate, the coefficient of
    each sqrt(d) with d != 1 vanishes.  Those equations are rational and linear
    in t; their solutions are an affine family over the r' coordinates of t
    they leave free.  Only that rational lattice is walked: bound**r' points,
    refused above SEARCH_BOX_CAP, in integers over one common denominator.
    Nullity zero is the case with no t.
    """
    if not is_int(bound):
        raise ValueError(f"bound must be an int, got {bound!r}")
    if bound < 1:
        raise ValueError("bound must be positive")
    if result.particular is None:
        return []
    part = [RadExpr.of(x).terms() for x in result.particular]
    basis = []
    for vec, f in zip(result.kernel_basis, result.free_columns):
        v = [RadExpr.of(x) for x in vec]
        inv = v[f].inverse()
        basis.append([(x * inv).terms() for x in v])

    # the irrational parts must cancel: one rational equation in t per
    # coordinate and radical
    rows, rhs = [], []
    for i, p in enumerate(part):
        radicals = set(p).union(*(b[i] for b in basis)) - {1}
        for d in sorted(radicals):
            rows.append([b[i].get(d, 0) for b in basis])
            rhs.append(-p.get(d, 0))
    m, pivots, reduced = rref(rows, rhs)
    t0 = particular_from_rref(m, pivots, reduced, len(basis))
    if t0 is None:
        return []
    lattice = kernel_from_rref(m, pivots, len(basis))
    if bound ** len(lattice) > SEARCH_BOX_CAP:
        raise ValueError("search box too large for exhaustive enumeration")

    # x = origin + sum_j s_j * steps_j over the rational parts alone, with
    # s_j the t-coordinate left free by the split
    def rational_part(coeffs, i):
        return sum((c * b[i].get(1, 0) for c, b in zip(coeffs, basis)), Fraction(0))

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

def _multiplicity(y: ExactScalar, length: ExactScalar, bound: int) -> int | None:
    """x = y * length when it is an integer in [1, bound], else None."""
    x = y * length
    if isinstance(x, RadExpr):
        if not x.is_rational():
            return None
        x = x.rational_value()
    return int(x) if x.denominator == 1 and 1 <= x <= bound else None


def peel_solve(
    positions: Sequence[CirclePoint],
    exterior_mults: Sequence[int],
    chords: Sequence[tuple[int, int]],
    chord: Callable[[int, int], tuple[ExactScalar, ExactScalar, ExactScalar]],
    bound: int,
) -> tuple[int, ...] | None:
    """The edge multiplicities of one fixed-exterior structure, by peeling.

    Solves m_v * v + sum_w m_vw * (w - v)/|w - v| = 0 at every vertex for
    the chords' multiplicities, in chord order, and returns them when they
    are integers in [1, bound]; None otherwise.  positions are the exact
    vertices, and chord(i, j) gives (dx, dy, length), the exact w - v from
    vertex i to vertex j (i < j) and its length, as circle._chord does.
    Every chord is looked up before any is solved, so a lookup that raises
    InexactPosition does so on the same structures as build_system.

    The unknowns are y = m_vw/|w - v| on the chords w - v, so rational
    positions keep every residual and every solve rational; only the test
    m_vw = y * |w - v| in [1, bound] meets the length's radical.

    Non-crossing chords on a circle form an outerplanar graph, and every
    subgraph of one has a vertex of degree <= 2 (Chartrand-Harary), so some
    unsolved vertex always has at most two unsolved chords.  Its 2x2
    equation fixes them: Cramer's rule for two (two chords from v to
    distinct circle points are never parallel), a parallel check and then
    the value for one, a zero residual for none.  Each value is tested at once
    and y * (v - w) is moved into its other endpoint's residual.  Every value
    is forced, so the system has nullity 0 and this is its only solution.
    """
    dirs = [chord(i, j) for i, j in chords]
    residual: list[list[ExactScalar] | None] = [None] * len(positions)

    def rest(v: int) -> list[ExactScalar]:
        # m_v * v plus the solved chords at v; built on first use, since
        # most structures are refuted after a vertex or two
        r = residual[v]
        if r is None:
            (x, y), m = positions[v].exact_xy(), exterior_mults[v]
            r = residual[v] = [m * x, m * y]
        return r

    open_chords: list[list[int]] = [[] for _ in positions]
    for k, (i, j) in enumerate(chords):
        open_chords[i].append(k)
        open_chords[j].append(k)
    values: list[int] = [0] * len(chords)
    unsolved = set(range(len(positions)))

    def direction(k: int, v: int) -> tuple[ExactScalar, ExactScalar]:
        dx, dy, _ = dirs[k]
        return (dx, dy) if chords[k][0] == v else (-dx, -dy)

    while unsolved:
        v = min(unsolved, key=lambda u: len(open_chords[u]))
        unsolved.remove(v)
        rx, ry = rest(v)
        ks = open_chords[v]
        if len(ks) > 2:
            raise ValueError("chords do not form an outerplanar graph")
        if not ks:
            if rx or ry:
                return None
            continue
        if len(ks) == 1:
            (ax, ay), length = direction(ks[0], v), dirs[ks[0]][2]
            # y * a = -r needs r parallel to a, and then y = -r.a/|a|^2
            if ax * ry - ay * rx:
                return None
            y = -(rx * ax + ry * ay) / (length * length)
            x = _multiplicity(y, length, bound)
            if x is None:
                return None
            solved = [(y, x)]
        else:
            (ax, ay), (bx, by) = direction(ks[0], v), direction(ks[1], v)
            det = ax * by - ay * bx
            ya = (ry * bx - rx * by) / det
            xa = _multiplicity(ya, dirs[ks[0]][2], bound)
            if xa is None:
                return None
            yb = (ay * rx - ax * ry) / det
            xb = _multiplicity(yb, dirs[ks[1]][2], bound)
            if xb is None:
                return None
            solved = [(ya, xa), (yb, xb)]
        for k, (y, x) in zip(list(ks), solved):
            values[k] = x
            i, j = chords[k]
            w = j if i == v else i
            wx, wy = direction(k, w)
            r = rest(w)
            r[0] = r[0] + y * wx
            r[1] = r[1] + y * wy
            open_chords[w].remove(k)
        ks.clear()
    return tuple(values)


# --- the three-vertex closed forms --------------------------------------

def half_cos_sin(u: TanHalf) -> tuple[ExactScalar, ExactScalar]:
    """(cos(a/2), sin(a/2)) from u = tan(a/2), for a in (0, 2pi).

    There sin(a/2) > 0 while cos(a/2) carries the sign of u; u = INFINITY
    means a = pi and gives (0, 1)."""
    if isinstance(u, _InfinityType):
        return Fraction(0), Fraction(1)
    uu = RadExpr.of(u)
    sq = 1 + uu * uu
    if not sq.is_rational():
        raise InexactPosition("half-angle norm is not a representable radical")
    root = RadExpr.sqrt(sq.rational_value())
    c = root.inverse()
    s = abs(uu) * c
    if uu.sign() < 0:
        c = -c
    return c, s


def _tan_sign(u: TanHalf) -> int:
    if isinstance(u, _InfinityType):
        return 0  # boundary marker: the angle equals pi
    x = RadExpr.of(u)
    return 0 if x.is_zero() else x.sign()


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
    if _tan_sign(u12) <= 0:
        raise DomainError("first angle difference must lie strictly in (0, pi)")
    if _tan_sign(u23) <= 0:
        raise DomainError("second angle difference must lie strictly in (0, pi)")
    u13 = tan_half_add(u12, u23)
    if _tan_sign(u13) >= 0:
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
    rational = all(
        not isinstance(u, _InfinityType) and RadExpr.of(u).is_rational()
        for u in (u12, u23, u13)
    )
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

    That is matrix @ (vec / scale) - rhs: each chord column holds w - v, so
    m_vw/|w - v| times it is m_vw times the unit direction.
    """
    prod = matvec(system.matrix, [RadExpr.of(x) / s for x, s in zip(vec, system.scale)])
    return [p - r for p, r in zip(prod, system.rhs)]
