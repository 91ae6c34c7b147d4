"""Replacements: boundary-data problems, the symbolic angle algebra, audits.

Replacing a network at a vertex v means finding a fresh admissible network
whose exterior rays are v's own ray plus the tangent directions of v's chords,
with the same multiplicities.  Iterating halves interior angle differences
(with a pi shift on the two slots adjacent to the replaced vertex), which is
the engine of the three-vertex refutation: two double replacements at
different vertices force e^(3i*pi/4) to be a rational circle point, and it
is not.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .chords import enumerate_chord_sets
from .circle import (
    CirclePoint,
    chord_direction,
    diameter_side,
    norm_parts,
    point_div,
    tangent_point,
)
from .errors import InexactPosition, IsolatedVertex, check_int
from .network import (
    InteriorEdge,
    Network,
    Vertex,
    canonical_key,
    exterior_balance,
    is_admissible,
    make_network,
)
from .solver import build_system, peel_solve, solve

MAX_AUDIT_DEPTH = 4
MAX_AUDIT_BOUND = 50


# --- symbolic angles -----------------------------------------------------

@dataclass(frozen=True)
class AngleExpr:
    """Linear combination sum q_k * <variable_k> + r * pi, rationals exact."""

    terms: tuple[tuple[str, Fraction], ...] = ()
    pi_coeff: Fraction = Fraction(0)

    def __post_init__(self):
        clean = tuple(
            sorted((name, Fraction(q)) for name, q in self.terms if q)
        )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "pi_coeff", Fraction(self.pi_coeff))

    @classmethod
    def variable(cls, name: str) -> "AngleExpr":
        return cls(((name, Fraction(1)),))

    @classmethod
    def pi_multiple(cls, q) -> "AngleExpr":
        return cls((), Fraction(q))

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def __add__(self, other: "AngleExpr") -> "AngleExpr":
        acc = dict(self.terms)
        for name, q in other.terms:
            acc[name] = acc.get(name, Fraction(0)) + q
        return AngleExpr(tuple(acc.items()), self.pi_coeff + other.pi_coeff)

    def __sub__(self, other: "AngleExpr") -> "AngleExpr":
        return self + other.scale(-1)

    def scale(self, q) -> "AngleExpr":
        q = Fraction(q)
        return AngleExpr(
            tuple((name, c * q) for name, c in self.terms), self.pi_coeff * q
        )

    def __str__(self) -> str:
        def coeff(q: Fraction, sym: str) -> str:
            if q == 1:
                return sym
            if q == -1:
                return f"-{sym}"
            if q.denominator == 1:
                return f"{q}·{sym}"
            return f"({q})·{sym}"

        parts = [coeff(q, name) for name, q in self.terms]
        if self.pi_coeff:
            parts.append(coeff(self.pi_coeff, "π"))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def rational_point_of_expr(e: AngleExpr) -> str:
    """Is e^(i*e) a rational circle point, decidable only when variable-free.

    A rational multiple r*pi lands on a rational point exactly when 2r is an
    integer (the four axis points; no other rational angle has both cosine
    and sine rational).
    """
    if not e.is_constant:
        return "depends-on-variables"
    doubled = 2 * e.pi_coeff
    return "forced-rational" if doubled.denominator == 1 else "forced-irrational"


_HALF = Fraction(1, 2)
_SLOTS = ("12", "13", "23")


def n3_angle_map(
    exprs: Sequence[AngleExpr], vertex: int
) -> tuple[AngleExpr, AngleExpr, AngleExpr]:
    """One replacement step on the (a12, a13, a23) angle differences.

    The two differences whose slot names the replaced vertex map to
    (x + pi)/2; the opposite difference halves.
    """
    if vertex not in (1, 2, 3):
        raise ValueError("vertex must be 1, 2 or 3")
    if len(exprs) != 3:
        raise ValueError("expected the three angle differences")
    out = []
    for slot, x in zip(_SLOTS, exprs):
        if str(vertex) in slot:
            out.append(x.scale(_HALF) + AngleExpr.pi_multiple(_HALF))
        else:
            out.append(x.scale(_HALF))
    return tuple(out)


@dataclass(frozen=True)
class AuditEffort:
    """The work behind an audit verdict, read from the audit's tables.

    networks, problems and searches count the distinct networks keyed, vertex
    problems built and replacement searches run; hits counts the lookups the
    three tables answered without running their function again.  The audited
    network itself is never keyed, so networks counts replacements only: 0
    at depth 1, and 0 for an audit refuted at depth 1.
    """

    networks: int
    problems: int
    searches: int
    hits: int


@dataclass(frozen=True)
class AuditVerdict:
    status: str  # "good-to-depth-<k>" | "refuted-at-depth-<d>" | "inconclusive"
    depth: int
    witness: object = None
    detail: str = ""
    bound: int | None = None
    # set on the verdict good_network_audit returns; no part of its value
    effort: AuditEffort | None = field(default=None, compare=False, repr=False)

    @property
    def refuted(self) -> bool:
        return self.status.startswith("refuted")

    @property
    def good(self) -> bool:
        return self.status.startswith("good")


def certify_no_good_n3() -> AuditVerdict:
    """Symbolic run of the three-vertex refutation.

    Replace twice at vertex 1 and, separately, twice at vertex 3; the a12
    slots then differ by (3/4)*pi, a variable-free angle whose circle point
    would have to be rational for both chains yet provably is not.
    """
    start = tuple(AngleExpr.variable(f"a{s}") for s in _SLOTS)
    at_v1 = n3_angle_map(n3_angle_map(start, 1), 1)
    at_v3 = n3_angle_map(n3_angle_map(start, 3), 3)
    difference = at_v1[0] - at_v3[0]
    classification = rational_point_of_expr(difference)
    if classification != "forced-irrational" or not difference.is_constant:
        # the angle algebra failed to force a contradiction; do not overclaim
        return AuditVerdict("inconclusive", 2, difference)
    return AuditVerdict(
        status="refuted-at-depth-2",
        depth=2,
        witness=difference,
        detail=f"{difference} is not a rational point",
    )


# --- concrete replacement problems ---------------------------------------

@dataclass(frozen=True)
class ReplacementProblem:
    """Prescribed boundary data: ray directions with their multiplicities.

    Rays are stored in make_network's angle order with the first at angle 0
    (the rotated exterior direction of the replaced vertex).
    """

    positions: tuple[CirclePoint, ...]
    exterior_mults: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.exterior_mults):
            raise ValueError("one multiplicity per ray")
        if not self.positions:
            raise ValueError("need at least one ray")
        rays = zip(self.positions, self.exterior_mults)
        vertices = make_network([Vertex(p, m) for p, m in rays], ()).vertices
        object.__setattr__(self, "positions", tuple(v.position for v in vertices))
        object.__setattr__(self, "exterior_mults", tuple(v.exterior_mult for v in vertices))

    @property
    def is_exact(self) -> bool:
        return all(p.is_exact for p in self.positions)


def replacement_problem(net: Network, i: int) -> ReplacementProblem:
    """Boundary data seen from vertex i: its ray plus its chord tangents."""
    nbrs = net.neighbors(i)
    if not nbrs:
        raise IsolatedVertex(f"vertex {i} has no interior edges to replace")
    v = net.vertices[i]
    rays = [v.position]
    mults = [v.exterior_mult]
    for j, mult in nbrs:
        rays.append(tangent_point(v.position, net.vertices[j].position))
        mults.append(mult)
    base = rays[0]
    rays = [point_div(r, base) for r in rays]
    return ReplacementProblem(tuple(rays), tuple(mults))


def _balance_cone(positions: Sequence[CirclePoint]) -> Callable[[int, int], bool]:
    """The vertex predicate of the balance cone, for enumerate_chord_sets.

    ok(v, neighbours) holds when v, with the neighbours in the bitmask, can
    balance its ray with positive chord weights: it has a neighbour strictly
    on each side of the diameter through it, or its one neighbour is its
    antipode.  This is necessary: crossing v's equation
    m_v*v + sum m_vw*(w - v)/|w - v| = 0 with v gives
    sum m_vw*cross(v, w)/|w - v| = 0, so with every m_vw > 0 the signs of
    cross(v, w) are mixed or all zero; all zero puts every neighbour at -v,
    hence degree 1 (degree 0 would leave m_v*v = 0).  The signs are
    circle.diameter_side, decided exactly once per pair.  It follows that a
    structure in the cone is connected and spans every ray: two components
    would lie in disjoint arcs, one of them shorter than a half turn, and
    the end vertex of that arc would have all its neighbours on one side.
    """
    n = len(positions)
    left, right, antipode = [0] * n, [0] * n, [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            side = diameter_side(positions[v], positions[w])
            if side > 0:
                left[v] |= 1 << w
                right[w] |= 1 << v
            elif side < 0:
                right[v] |= 1 << w
                left[w] |= 1 << v
            else:
                antipode[v] |= 1 << w
                antipode[w] |= 1 << v

    def ok(v: int, neighbours: int) -> bool:
        if neighbours & left[v] and neighbours & right[v]:
            return True
        return neighbours != 0 and neighbours == antipode[v]

    return ok


def _one_length_class(positions: Sequence[CirclePoint]) -> bool:
    """False when every ray is rational and the rays' norms fall in two or
    more squarefree classes; True otherwise.

    A ray pair of irrational chord length carries no chord in any solution:
    with the rays' multiplicities fixed, the peel's unknowns y = m/|w - v|
    are forced (solver.peel_solve), so rational rays give rational y, and a
    chord of positive integer multiplicity m has the rational length m/y.
    A structure in the balance cone is connected and spans every ray
    (_balance_cone), so it has such a pair unless every pair is rational.
    Between rays at tan-halves a/b and c/e, |w - v| = 2|ae - cb|/sqrt(N_v*N_w)
    with the norms N = a^2 + b^2 (circle._chord), rational exactly when the
    two norms have the same squarefree part (circle.norm_parts); one part
    for every ray decides every pair.  Radical rays widen the field the
    lengths must lie in, and nothing is decided.
    """
    parts = [norm_parts(p.tan_half) for p in positions]
    if None in parts:
        return True
    return len({d for _, _, d, _ in parts}) == 1


def replacement_feasible(problem: ReplacementProblem, bound: int) -> Network | None:
    """Search the problem's admissible networks with multiplicities <= bound.

    Returns None at once when the rays are rational and their norms fall in
    two or more length classes (_one_length_class, one cached factorization
    per norm), and next when the rays do not balance (exterior_balance).
    Both are conditions on the whole problem, so their order changes no
    answer; the cheap one goes first.  Otherwise enumerates non-crossing
    chord structures in deterministic order, cutting every subtree of the
    enumeration in which some vertex has left the balance cone
    (_balance_cone), and solves each remaining structure with the rays'
    multiplicities fixed by solver.peel_solve, on chord lookups (u, |u|)
    memoized per problem: u is the multiple of w - v that
    circle.chord_direction gives, as in build_system's columns.  No cut
    reads the bound; a structure whose largest forced multiplicity exceeds
    it is skipped.  Both cuts drop only structures without a solution, so
    the order of the rest is that of the uncut search.  The first structure
    left is certified by an independent re-solve (build_system, solve),
    which must have nullity 0 and the peel's multiplicities as its
    particular solution, and by the exact admissibility check; its network
    is returned, and None when the search is exhausted.
    """
    check_int("bound", bound)
    if bound < 1:
        raise ValueError("bound must be positive")
    if not problem.is_exact:
        raise InexactPosition("feasibility search needs exact ray directions")
    positions, mults = problem.positions, problem.exterior_mults
    if not _one_length_class(positions):
        return None
    bx, by = exterior_balance(zip(positions, mults))
    if not (bx.is_zero() and by.is_zero()):
        return None
    chord = functools.cache(lambda i, j: chord_direction(positions[i], positions[j]))
    structures = enumerate_chord_sets(
        len(positions),
        allow_adjacent=True,
        vertex_ok=_balance_cone(positions),
    )
    for cs in structures:
        edge_mults = peel_solve(positions, mults, cs.chords, chord)
        if edge_mults is None or max(edge_mults) > bound:
            continue
        certificate = solve(build_system(positions, cs, mults))
        if certificate.nullity or certificate.particular != edge_mults:
            raise ArithmeticError("peel solve disagrees with the stationarity system")
        vertices = [Vertex(p, m) for p, m in zip(positions, mults)]
        edges = [
            InteriorEdge(i, j, em) for (i, j), em in zip(cs.chords, edge_mults)
        ]
        net = make_network(vertices, edges)
        report = is_admissible(net, mode="exact")
        if not report.admissible:  # pragma: no cover - solver guarantees this
            raise ArithmeticError("solved replacement failed admissibility")
        return net
    return None


def good_network_audit(
    net: Network, depth: int = MAX_AUDIT_DEPTH, bound: int = MAX_AUDIT_BOUND
) -> AuditVerdict:
    """Iterated-replacement search, depth-first: a vertex's replacement is
    explored to the full depth before the next vertex is replaced.

    Refutes as soon as some vertex of some reachable network admits no
    replacement within the multiplicity bound, with that vertex's
    ReplacementProblem as the witness; reports good-to-depth-k when every
    chain survives k levels.  Verdicts are bound-qualified.  Every network
    searched is admissible (the input is checked, and replacement_feasible
    returns only exactly admissible networks), so no vertex is isolated: a
    vertex without chords would need m_v * v = 0.

    Verdicts are memoized by (canonical_key, levels remaining).  Only the
    input has depth levels left, so its entry could never be read, and it is
    not keyed: only replacements are.  Besides, each call builds three
    tables over the module's functions, keyed by exact inputs and dropped on
    return: canonical_key by network, replacement_problem by network and
    vertex, and replacement_feasible at this bound by problem.  So each
    distinct replacement is keyed, each distinct vertex problem built and
    each distinct problem searched once per audit; the diameter, which
    replaces into itself, is searched once at any depth.  The returned
    verdict carries their counts as its effort (AuditEffort).
    """
    check_int("depth", depth)
    check_int("bound", bound)
    if not 0 <= depth <= MAX_AUDIT_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_AUDIT_DEPTH}")
    if not 1 <= bound <= MAX_AUDIT_BOUND:
        raise ValueError(f"bound must be between 1 and {MAX_AUDIT_BOUND}")
    if not is_admissible(net).admissible:
        raise ValueError("audit is defined for admissible networks only")

    key_of = functools.cache(canonical_key)
    problem_at = functools.cache(replacement_problem)
    search = functools.cache(lambda problem: replacement_feasible(problem, bound))
    memo: dict[tuple, AuditVerdict] = {}

    def explore(current: Network, remaining: int) -> AuditVerdict:
        if remaining == 0:
            return AuditVerdict("good-to-depth-0", 0, bound=bound)
        key = None
        if remaining < depth:  # only the root has depth levels left: never looked up
            key = (key_of(current), remaining)
            if key in memo:
                return memo[key]
        level = depth + 1 - remaining
        verdict = AuditVerdict(f"good-to-depth-{remaining}", remaining, bound=bound)
        for i in range(current.n_vertices):
            problem = problem_at(current, i)
            replacement = search(problem)
            if replacement is None:
                verdict = AuditVerdict(
                    f"refuted-at-depth-{level}",
                    level,
                    witness=problem,
                    detail=f"vertex {i} admits no replacement with "
                    f"multiplicities <= {bound}",
                    bound=bound,
                )
                break
            sub = explore(replacement, remaining - 1)
            if sub.refuted:
                verdict = sub
                break
        if key is not None:
            memo[key] = verdict
        return verdict

    verdict = explore(net, depth)
    keys, problems, searches = (t.cache_info() for t in (key_of, problem_at, search))
    effort = AuditEffort(
        keys.misses, problems.misses, searches.misses, keys.hits + problems.hits + searches.hits
    )
    # memo verdicts are shared between branches; only the returned copy is stamped
    return dataclasses.replace(verdict, effort=effort)
