"""Shared builders, independent oracles and the small utilities that only
the test suite uses."""

import math
import os
import random
from fractions import Fraction
from functools import cache, partial

import numpy as np

from geonet.chords import ChordSet, chords_cross, enumerate_chord_sets
from geonet.circle import (
    INFINITY,
    CirclePoint,
    chord_square,
    diameter_side,
    point_div,
    tan_half_add,
    tan_half_neg,
    tangent_components_exact,
)
from geonet.errors import DomainError, NonConvergence
from geonet.exact import RadExpr, simplify
from geonet.linalg import kernel_from_rref, particular_from_rref, rref
from geonet.network import (
    _point_key,
    InteriorEdge,
    Network,
    Vertex,
    exterior_balance,
    is_admissible,
    make_network,
)
from geonet.solver import (
    SolveResult,
    build_system,
    normalize_vector,
    positive_integer_solutions,
    solve,
)
from geonet.sweep import (
    CURVATURE_STOP,
    CapRegion,
    MinmaxEstimate,
    PolyCurve,
    _c_length,
    _golden_section_max,
    c_length,
)

DEFAULT_SEED = 20260814


def seeded_rng(salt: int = 0) -> random.Random:
    """The randomized tests' generator: GEONET_SEED in the environment
    overrides the default seed, so a failing seed can be pinned from the
    shell."""
    seed = int(os.environ.get("GEONET_SEED", DEFAULT_SEED))
    return random.Random(seed + salt)


def point_mul(p: CirclePoint, q: CirclePoint) -> CirclePoint:
    """The point at the angle sum (rotation of p by q)."""
    if p.tan_half is not None and q.tan_half is not None:
        return CirclePoint.from_tan_half(tan_half_add(p.tan_half, q.tan_half))
    return CirclePoint.from_angle(p.angle + q.angle)


def reflect_point(p: CirclePoint) -> CirclePoint:
    """Mirror image across the x-axis."""
    if p.tan_half is not None:
        return CirclePoint.from_tan_half(tan_half_neg(p.tan_half))
    return CirclePoint.from_angle(-p.angle)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def evaluate_angle(e, assignment: dict[str, float]) -> float:
    """The float value of a replace.AngleExpr at the given variable values."""
    return sum(float(q) * assignment[name] for name, q in e.terms) + float(
        e.pi_coeff
    ) * math.pi


def turning_angles(curve):
    """Signed exterior angles of a sweep.PolyCurve; positive where the curve
    bends toward the region on its left (the north side for a
    counterclockwise latitude)."""
    return row_curvatures(curve.points)[1]


def pt(t) -> CirclePoint:
    if t is INFINITY:
        return CirclePoint.from_tan_half(INFINITY)
    return CirclePoint.from_tan_half(Fraction(t))


def line_network(m: int = 1, m_edge: int | None = None) -> Network:
    """Diameter through t = 0; stationary exactly when all three match."""
    if m_edge is None:
        m_edge = m
    return make_network(
        [Vertex(pt(0), m), Vertex(pt(INFINITY), m)],
        [InteriorEdge(0, 1, m_edge)],
    )


def float_line_network() -> Network:
    """The unit line with float positions only (no tan-half): stationary to
    rounding, so admissible in float mode but refused by every exact path."""
    return make_network(
        [Vertex(CirclePoint.from_angle(0.0), 1), Vertex(CirclePoint.from_angle(math.pi), 1)],
        [InteriorEdge(0, 1, 1)],
    )


def square_network() -> Network:
    """Unit multiplicities on the axis-diagonal square; not stationary."""
    return make_network(
        [Vertex(pt(0), 1), Vertex(pt(1), 1), Vertex(pt(INFINITY), 1), Vertex(pt(-1), 1)],
        [
            InteriorEdge(0, 1, 1),
            InteriorEdge(1, 2, 1),
            InteriorEdge(2, 3, 1),
            InteriorEdge(0, 3, 1),
        ],
    )


def golden_triangle() -> Network:
    """Integer-stationary three-vertex network with rational tan-halves."""
    return make_network(
        [
            Vertex(pt(0), 100),
            Vertex(pt(Fraction(4, 3)), 56),
            Vertex(pt(Fraction(-24, 7)), 100),
        ],
        [
            InteriorEdge(0, 1, 35),
            InteriorEdge(0, 2, 75),
            InteriorEdge(1, 2, 35),
        ],
    )


def rectangle_network() -> Network:
    """3-4-5 rectangle: corners at tan-halves 1/2, 2, -2, -1/2, all rays 5."""
    return make_network(
        [
            Vertex(pt(Fraction(1, 2)), 5),
            Vertex(pt(2), 5),
            Vertex(pt(-2), 5),
            Vertex(pt(Fraction(-1, 2)), 5),
        ],
        [
            InteriorEdge(0, 1, 3),
            InteriorEdge(2, 3, 3),
            InteriorEdge(1, 2, 4),
            InteriorEdge(0, 3, 4),
        ],
    )


# networks that must be exactly stationary and admissible; the global
# identity checks run over all of them
STATIONARY_FIXTURES = {
    "line": line_network,
    "line-m7": lambda: line_network(7),
    "golden-triangle": golden_triangle,
    "rectangle": rectangle_network,
}


def boundary_trace(tans, arc_mult: int = 1) -> Network:
    """Boundary of the inscribed polygon on the given tan-halves.

    Every corner meets two boundary arcs, so its exterior multiplicity is
    2 * arc_mult and the total is even by construction.  Generally not
    stationary; used for structural invariants only.
    """
    n = len(tans)
    verts = [Vertex(pt(t), 2 * arc_mult) for t in tans]
    edges = [InteriorEdge(k, (k + 1) % n, 1) for k in range(n)]
    return make_network(verts, edges)


def random_positive_fraction(rng, bound: int = 10) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def random_domain_pair(rng, bound: int = 10) -> tuple[Fraction, Fraction]:
    """Tan-half pair (u12, u23) with both angles in (0, pi), sum in (pi, 2pi)."""
    while True:
        a = random_positive_fraction(rng, bound)
        b = random_positive_fraction(rng, bound)
        if a * b > 1:
            return a, b


def segments_cross_float(p, q, r, s) -> bool:
    """Strict proper intersection of segments pq and rs in the plane."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    return (
        orient(p, q, r) * orient(p, q, s) < 0
        and orient(r, s, p) * orient(r, s, q) < 0
    )


def axis_point_angles() -> set[Fraction]:
    """All q in [0, 2) with cos(q*pi) and sin(q*pi) both rational.

    Independent of the implementation under test: among angles q*pi with
    rational q, only the four axis points have two rational coordinates, so
    the set is exactly the half-integers.
    """
    return {Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)}


def box_walk_solutions(result, bound: int) -> list[tuple[int, ...]]:
    """Positive integer solutions by walking the whole box [1, bound]^nullity.

    Independent oracle for solver.positive_integer_solutions: every free
    coordinate is tried, and each candidate vector is built and tested over
    the radicals, with no splitting by radical term.  Exponential in the
    nullity, so small bounds only.
    """
    if result.particular is None:
        return []

    def in_range(x: RadExpr) -> int | None:
        if not x.is_integer():
            return None
        v = int(x.rational_value())
        return v if 1 <= v <= bound else None

    basis = []
    for vec, f in zip(result.kernel_basis, result.free_columns):
        v = [RadExpr.of(x) for x in vec]
        basis.append([x / v[f] for x in v])
    out = []

    def rec(k: int, acc: list[RadExpr]):
        if k == len(basis):
            vals = [in_range(x) for x in acc]
            if all(v is not None for v in vals):
                out.append(tuple(vals))
            return
        for t in range(1, bound + 1):
            rec(k + 1, [a + t * bk for a, bk in zip(acc, basis[k])])

    rec(0, [RadExpr.of(x) for x in result.particular])
    return sorted(out)


def normalized_solve(positions, edges, fixed_exterior=None) -> SolveResult:
    """solve(build_system(...)) on the unit-direction system.

    Independent oracle for the column-scaled assembly: every chord column
    holds the unit direction (w - v)/|w - v| as RadExprs, the unknowns are the
    multiplicities themselves, and rank, particular solution and normalized
    kernel are read off that matrix directly.  Only the angle order and the
    remapped chords are taken from build_system.
    """
    system = build_system(positions, edges, fixed_exterior)
    pos, n = system.positions, len(system.positions)
    fixed = system.fixed_exterior
    offset = 0 if fixed is not None else n
    ncols = offset + len(system.edges.chords)
    matrix = [[RadExpr.of(0)] * ncols for _ in range(2 * n)]
    rhs = [RadExpr.of(0)] * (2 * n)
    for k, p in enumerate(pos):
        px, py = (RadExpr.of(x) for x in p.exact_xy())
        if fixed is None:
            matrix[2 * k][k], matrix[2 * k + 1][k] = px, py
        else:
            rhs[2 * k], rhs[2 * k + 1] = -fixed[k] * px, -fixed[k] * py
    for col, (i, j) in enumerate(system.edges.chords):
        tx, ty = tangent_components_exact(pos[i], pos[j])
        c = offset + col
        matrix[2 * i][c], matrix[2 * i + 1][c] = tx, ty
        matrix[2 * j][c], matrix[2 * j + 1][c] = -tx, -ty
    m, pivots, b = rref(matrix, rhs)
    particular = particular_from_rref(m, pivots, b, ncols)
    kernel = kernel_from_rref(m, pivots, ncols)
    return SolveResult(
        rank=len(pivots),
        kernel_basis=tuple(normalize_vector(v) for v in kernel),
        particular=None if particular is None else tuple(RadExpr.of(x) for x in particular),
        free_columns=tuple(c for c in range(ncols) if c not in pivots),
        n_unknowns=ncols,
        # the unknowns are the multiplicities themselves: unit scale, y = x
        scale=(Fraction(1),) * ncols,
        y_particular=None if particular is None else tuple(particular),
        y_kernel=tuple(tuple(v) for v in kernel),
    )


def _prime_divisors(d: int) -> set[int]:
    """The primes dividing d >= 1, by trial division up to sqrt(d), apart
    from geonet.exact's own factoring."""
    primes, p = set(), 2
    while p * p <= d:
        if d % p == 0:
            primes.add(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        primes.add(d)
    return primes


def conjugate_product_inverse(x: RadExpr) -> RadExpr:
    """1/x as the product of all 2^k - 1 nontrivial Galois conjugates of x
    over its norm, k the number of primes under its radicals.

    Independent oracle for RadExpr.inverse, which eliminates one prime at a
    time: flipping the primes in a set negates sqrt(d) when d has an odd
    number of them.  Exponential in k, so small k only.
    """
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero")
    terms = x.terms()
    primes = sorted(set().union(*(_prime_divisors(d) for d in terms)))
    prod = RadExpr.of(1)
    for mask in range(1, 1 << len(primes)):
        flip = {p for i, p in enumerate(primes) if mask >> i & 1}
        conj = RadExpr.of(0)
        for d, q in terms.items():
            odd = len(flip & _prime_divisors(d)) % 2
            conj = conj + RadExpr.sqrt(d) * (-q if odd else q)
        prod = prod * conj
    norm = x * prod
    assert norm.is_rational() and not norm.is_zero()
    return prod * (1 / norm.rational_value())


def norm_sign(x: RadExpr) -> int:
    """The sign of x by the norm recursion, exact and free of root bounds.

    Independent oracle for RadExpr.sign, which refines intervals.  With p the
    largest prime under x's radicals, x = a + b*sqrt(p) with a and b free of
    p.  Where a and b agree in sign, or one of them is zero, that sign is
    x's.  Where they differ, x has a's sign exactly when a^2 > p*b^2, and
    a^2 - p*b^2 is free of p.  Three calls per prime, so few primes only.
    """
    terms = x.terms()
    primes = set().union(*(_prime_divisors(d) for d in terms))
    if not primes:
        q = terms.get(1, 0)
        return (q > 0) - (q < 0)
    p = max(primes)
    a = b = RadExpr.of(0)
    for d, q in terms.items():
        if d % p:
            a = a + RadExpr.sqrt(d) * q
        else:
            b = b + RadExpr.sqrt(d // p) * q
    sa, sb = norm_sign(a), norm_sign(b)
    if sa * sb >= 0:
        return sa or sb
    return sa * norm_sign(a * a - p * b * b)


def rebuilt_canonical_key(net: Network) -> tuple:
    """The least signature over all 2N rotated and reflected images of net.

    Independent oracle for network.canonical_key, which reads its key off the
    vertex cycle instead: each image is reflected (or not), rotated to put
    one vertex at angle zero and rebuilt by make_network, and its signature
    lists the exact point keys, the exterior multiplicities and the edges in
    angle order.  The key values differ from canonical_key's; the partitions
    they induce must not.
    """

    def signature(anchor: int, reflected: bool) -> tuple:
        ps = [v.position for v in net.vertices]
        if reflected:
            ps = [reflect_point(p) for p in ps]
        ps = [point_div(p, ps[anchor]) for p in ps]
        image = make_network(
            [Vertex(p, v.exterior_mult) for p, v in zip(ps, net.vertices)], net.edges
        )
        return (
            tuple(_point_key(v.position) for v in image.vertices),
            tuple(v.exterior_mult for v in image.vertices),
            tuple((e.i, e.j, e.mult) for e in image.edges),
        )

    images = (signature(a, r) for a in range(net.n_vertices) for r in (False, True))
    return min(images, default=((), (), ()))


def naive_chord_sets(n: int, allow_adjacent: bool = False):
    """All non-crossing chord sets, in lexicographic order of sorted pair lists.

    Independent oracle for chords.enumerate_chord_sets: each candidate is
    tested against every current chord with chords_cross, and each set goes
    through ChordSet's full validation.
    """
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if allow_adjacent or not (j - i == 1 or (i == 0 and j == n - 1))
    ]

    def extend(current, start):
        yield ChordSet(n, tuple(current))
        for idx in range(start, len(pairs)):
            p = pairs[idx]
            if all(not chords_cross(p, q) for q in current):
                current.append(p)
                yield from extend(current, idx + 1)
                current.pop()

    return extend([], 0)


def naive_is_maximal(cs: ChordSet, allow_adjacent: bool = True) -> bool:
    """No unchosen pair avoids every chosen chord; adjacent pairs count only
    with allow_adjacent."""
    have = set(cs.chords)
    for i in range(cs.n):
        for j in range(i + 1, cs.n):
            if not allow_adjacent and (j - i == 1 or (i == 0 and j == cs.n - 1)):
                continue
            if (i, j) not in have and all(not chords_cross((i, j), q) for q in cs.chords):
                return False
    return True


def chord_by_square(v: CirclePoint, w: CirclePoint) -> tuple:
    """(w - v) componentwise and |w - v| as the square root of chord_square's
    |w - v|^2, a Fraction when rational.

    Independent oracle for circle._chord, which takes the length between
    rational points from their norms a^2 + b^2; this factors the squared
    chord itself."""
    dx, dy, sq = chord_square(v, w)
    return dx, dy, simplify(RadExpr.sqrt(sq))


def fraction_xy_of_tan(t) -> tuple:
    """(1 - t^2)/(1 + t^2) and 2t/(1 + t^2) for a rational tan-half t, in
    Fraction operations, and (-1, 0) at INFINITY.

    Independent oracle for circle.exact_xy_of_tan, which builds a rational
    point from the integers a, b and a^2 + b^2 of t = a/b."""
    if t is INFINITY:
        return Fraction(-1), Fraction(0)
    t = Fraction(t)
    one_plus = 1 + t * t
    return (1 - t * t) / one_plus, (2 * t) / one_plus


def product_chain_residual(net: Network, i: int) -> tuple:
    """The exact residual at vertex i as a chain of RadExpr products and
    sums: m_v * v, then m_vw times each tangent_components_exact(v, w).

    Independent oracle for network._residual_exact, which adds the same
    terms into one term map (exact.combination)."""
    v = net.vertices[i]
    px, py = v.position.exact_xy()
    rx, ry = RadExpr.of(v.exterior_mult * px), RadExpr.of(v.exterior_mult * py)
    for j, mult in net.neighbors(i):
        tx, ty = tangent_components_exact(v.position, net.vertices[j].position)
        rx = rx + mult * tx
        ry = ry + mult * ty
    return rx, ry


def diameter_sides(positions) -> list[list[int]]:
    """side[v][w] = circle.diameter_side(positions[v], positions[w]), exact."""
    n = len(positions)
    side = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            side[i][j] = diameter_side(positions[i], positions[j])
            side[j][i] = -side[i][j]
    return side


def in_balance_cone(side, chords) -> bool:
    """Oracle for replace._balance_cone, on a whole structure at once.

    Every vertex needs neighbours strictly on both sides of the diameter
    through it, or only its antipode as neighbour.  side is the table of
    diameter_sides; the signs are collected into one set per vertex.
    """
    signs = [set() for _ in side]
    for i, j in chords:
        signs[i].add(side[i][j])
        signs[j].add(side[j][i])
    return all(s == {0} or {1, -1} <= s for s in signs)


def irrational_chord_pairs(positions) -> set[tuple[int, int]]:
    """The pairs whose squared chord length 2 - 2 v.w is not a rational
    square; on rational rays, replace._one_length_class holds exactly when
    there are none."""
    pairs = set()
    for i, v in enumerate(positions):
        for j in range(i + 1, len(positions)):
            (vx, vy), (wx, wy) = v.exact_xy(), positions[j].exact_xy()
            if not RadExpr.sqrt(2 - 2 * (vx * wx + vy * wy)).is_rational():
                pairs.add((i, j))
    return pairs


def radexpr_exterior_balance(rays) -> tuple:
    """The ray resultant with every coordinate wrapped in a RadExpr and every
    sum a RadExpr sum.

    Independent oracle for network.exterior_balance, which adds m * p's
    coordinates into one term map per component (exact.combination)."""
    bx = by = RadExpr.of(0)
    for p, m in rays:
        px, py = p.exact_xy()
        bx = bx + m * RadExpr.of(px)
        by = by + m * RadExpr.of(py)
    return bx, by


def unpruned_replacement_feasible(problem, bound: int) -> Network | None:
    """First admissible network of a replacement problem, with no pruning.

    Independent oracle for replace.replacement_feasible: every non-crossing
    chord structure is built and solved, in the same order, so both searches
    must return the same network (or None).
    """
    bx, by = exterior_balance(zip(problem.positions, problem.exterior_mults))
    if not (bx.is_zero() and by.is_zero()):
        return None
    n = len(problem.positions)
    for cs in enumerate_chord_sets(n, allow_adjacent=True):
        system = build_system(problem.positions, cs, problem.exterior_mults)
        solutions = positive_integer_solutions(solve(system), bound)
        if not solutions:
            continue
        vertices = [
            Vertex(p, m) for p, m in zip(problem.positions, problem.exterior_mults)
        ]
        edges = [
            InteriorEdge(i, j, em) for (i, j), em in zip(cs.chords, solutions[0])
        ]
        net = make_network(vertices, edges)
        assert is_admissible(net, mode="exact").admissible
        return net
    return None


def fan_chords(n: int) -> tuple[tuple[int, int], ...]:
    """Polygon sides plus the diagonals from vertex 0, on angle-ordered points."""
    sides = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    return tuple(sorted(set(sides + [(0, k) for k in range(2, n - 1)])))


def sorted_by_angle(tans) -> list:
    """Rational tan-halves in angle order: 0, then positive, then negative."""
    return sorted(tans, key=lambda t: (t < 0, t))


# t of the fan-triangulated inscribed rectangles t, 1/t, -t, -1/t, whose
# stationarity kernels are rational
RECTANGLE_TANS = tuple(
    Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5))
)

# criterion 04's anchored grid: tan-halves +-p/q with p, q <= 10
TAN_GRID = sorted(
    {Fraction(s * p, q) for s in (1, -1) for p in range(1, 11) for q in range(1, 11)}
)


@cache
def admissible_fan_rectangles() -> tuple[Network, ...]:
    """Every admissible fan-triangulated inscribed rectangle t, 1/t, -t, -1/t
    (t in RECTANGLE_TANS) with every multiplicity in [1, 20], as the library
    solves them: 80 networks."""
    nets = []
    chords = fan_chords(4)
    for t in RECTANGLE_TANS:
        points = [pt(x) for x in sorted_by_angle([t, 1 / t, -t, -1 / t])]
        result = solve(build_system(points, ChordSet(4, chords)))
        for x in positive_integer_solutions(result, 20):
            vertices = [Vertex(p, m) for p, m in zip(points, x[:4])]
            edges = [InteriorEdge(i, j, m) for (i, j), m in zip(chords, x[4:])]
            nets.append(make_network(vertices, edges))
    return tuple(nets)


def fan_network(tans, exterior=None) -> Network:
    """Fan-triangulated inscribed polygon on rational tan-halves, unit edge
    multiplicities; exterior lists the multiplicities in angle order (all 1
    when omitted)."""
    tans = sorted_by_angle(tans)
    exterior = exterior or [1] * len(tans)
    return make_network(
        [Vertex(pt(t), m) for t, m in zip(tans, exterior)],
        [InteriorEdge(i, j, 1) for i, j in fan_chords(len(tans))],
    )


def _fan_networks() -> dict:
    # rectangles with rational kernels of nullity 2 (exterior 6, 5, 6, 5 is
    # balanced by a fixed-exterior solution on the first two only), then a
    # triangle, two quads and two pentagons on the grid, whose kernels are
    # radical; a fixed seed, so the golden records never move with GEONET_SEED
    rng = random.Random(11)
    builders = {}
    for t in RECTANGLE_TANS[:4]:
        builders[f"rectangle-{t.numerator}-{t.denominator}"] = partial(
            fan_network, (t, 1 / t, -t, -1 / t), (6, 5, 6, 5)
        )
    builders["fan-3"] = partial(fan_network, (Fraction(0), *rng.sample(TAN_GRID, 2)))
    for n, k in ((4, 0), (4, 1), (5, 0), (5, 1)):
        tans = (Fraction(0), *rng.sample(TAN_GRID, n - 1))
        exterior = tuple(rng.randint(1, 9) for _ in range(n))
        builders[f"fan-{n}-{k}"] = partial(fan_network, tans, exterior)
    return builders


# name -> builder, for the CLI golden records
FAN_NETWORKS = _fan_networks()


# --- the sphere layer on (n, 3) point rows and per-sample loops -----------
# geonet.sweep runs the same formulas on (3, n) coordinate arrays and the
# whole sweepout at once; these are the forms it replaced, kept as oracles
# that it must equal bit for bit.


def loop_minmax_estimate(sweep, cfg) -> MinmaxEstimate:
    """minmax_estimate with one c_length call per sample."""
    phis = sweep.polar_angles.tolist()
    values = [c_length(CapRegion(phi), cfg) for phi in phis]
    k = max(range(len(values)), key=values.__getitem__)
    near = phis[max(k - 1, 0) : k + 2]
    lo, hi = min(near), max(near)
    best = _golden_section_max(lambda p: c_length(CapRegion(p), cfg), lo, hi)
    return MinmaxEstimate(value=c_length(CapRegion(best), cfg), argmax_phi=best)


def _row_segment_tangents(pts):
    """In and out geodesic tangents and arc lengths at every point."""
    prev = np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0)
    dot_in = np.clip(np.sum(prev * pts, axis=1), -1.0, 1.0)
    dot_out = np.clip(np.sum(nxt * pts, axis=1), -1.0, 1.0)
    arc_in = np.arccos(dot_in)
    arc_out = np.arccos(dot_out)
    u = pts * dot_in[:, None] - prev  # tangent at p of the geodesic prev -> p
    w = nxt - pts * dot_out[:, None]  # tangent at p of the geodesic p -> next
    u /= np.linalg.norm(u, axis=1)[:, None]
    w /= np.linalg.norm(w, axis=1)[:, None]
    return u, w, arc_in, arc_out


def row_curvatures(pts):
    """Curvatures, turning angles, in and out tangents, and the length of
    the closed polygon with the (n, 3) rows pts."""
    u, w, arc_in, arc_out = _row_segment_tangents(pts)
    cross = np.cross(u, w)
    delta = np.arctan2(np.sum(cross * pts, axis=1), np.sum(u * w, axis=1))
    return delta / (0.5 * (arc_in + arc_out)), delta, u, w, float(np.sum(arc_out))


def row_curve_length(curve) -> float:
    pts = curve.points
    dots = np.clip(np.sum(pts * np.roll(pts, -1, axis=0), axis=1), -1.0, 1.0)
    return float(np.sum(np.arccos(dots)))


def row_resample_uniform(pts):
    """Redistribute the same number of points at equal geodesic arc spacing."""
    n = len(pts)
    nxt = np.roll(pts, -1, axis=0)
    arcs = np.arccos(np.clip(np.sum(pts * nxt, axis=1), -1.0, 1.0))
    cum = np.concatenate([[0.0], np.cumsum(arcs)])
    targets = np.arange(n) * cum[-1] / n
    seg = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, n - 1)
    span = cum[seg + 1] - cum[seg]
    frac = np.where(span < 1e-15, 0.0, (targets - cum[seg]) / np.where(span < 1e-15, 1.0, span))
    a, b = pts[seg], nxt[seg]
    omega = arcs[seg]
    sin_om = np.sin(omega)
    safe = sin_om > 1e-12
    wa = np.where(safe, np.sin((1.0 - frac) * omega) / np.where(safe, sin_om, 1.0), 1.0 - frac)
    wb = np.where(safe, np.sin(frac * omega) / np.where(safe, sin_om, 1.0), frac)
    out = wa[:, None] * a + wb[:, None] * b
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def row_flow_to_cmc(curve, cfg, *, max_iters: int = 100_000, trace: list | None = None):
    """flow_to_cmc on (n, 3) rows, copying the best iterate each time it improves."""
    if len(curve) < 32:
        raise DomainError("flow needs at least 32 points")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters}")
    pts = curve.points.copy()
    n = len(pts)
    best_pts = pts
    best_dev = math.inf
    for iteration in range(max_iters):
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa, turning, u, w, length = row_curvatures(pts)
        deviation = float(np.max(np.abs(kappa - cfg.c)))
        if not math.isfinite(deviation):
            raise NonConvergence(
                f"flow became non-finite at iteration {iteration}",
                best=PolyCurve(best_pts),
            )
        if trace is not None:
            trace.append(
                {
                    "iteration": iteration,
                    "max_deviation": deviation,
                    "c_length": _c_length(turning, length, cfg),
                }
            )
        if deviation < best_dev:
            best_dev = deviation
            best_pts = pts.copy()
        if deviation < CURVATURE_STOP:
            return PolyCurve(pts)
        tangent = u + w
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        normal = np.cross(tangent, pts)
        spacing = length / n
        smooth = 0.25 * spacing**2
        mean_kappa = float(np.mean(kappa))
        cap = min(spacing, abs(mean_kappa - cfg.c) / (1.0 + mean_kappa * mean_kappa))
        climb = min(max(0.1 * spacing * (mean_kappa - cfg.c), -cap), cap)
        speed = climb - smooth * (kappa - mean_kappa)
        pts = pts + speed[:, None] * normal
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        pts = row_resample_uniform(pts)
    raise NonConvergence(
        f"flow did not reach the curvature target in {max_iters} iterations",
        best=PolyCurve(best_pts),
    )
