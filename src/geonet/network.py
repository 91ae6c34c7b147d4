"""Weighted networks of circle chords with radial exterior rays.

A network has N vertices on the unit circle, each carrying a positive integer
exterior multiplicity (a radial ray to infinity), plus interior chord edges
with positive integer multiplicities.  Stationarity at a vertex v means

    m_v * v + sum over neighbors w of m_vw * (w - v)/|w - v| = 0.

Vertices are stored in exact angle order (circle.angle_order), so chord
crossings are decided by the cyclic-interval test on indices alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .chords import crossing_index_pairs
from .circle import (
    INFINITY,
    TAU,
    CirclePoint,
    _chord,
    angle_order,
    point_div,
    tan_half_sub,
    tangent_components_exact,
)
from .errors import (
    DuplicateEdge,
    InexactPosition,
    ZeroMultiplicity,
    SelfLoopEdge,
    is_index,
    is_positive_int,
)
from .exact import RadExpr, combination

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class Vertex:
    position: CirclePoint
    exterior_mult: int

    def __post_init__(self):
        m = self.exterior_mult
        if not is_positive_int(m):
            raise ZeroMultiplicity(
                f"exterior multiplicity must be a positive integer, got {m}"
            )


@dataclass(frozen=True)
class InteriorEdge:
    i: int
    j: int
    mult: int

    def __post_init__(self):
        if self.i == self.j:
            raise SelfLoopEdge(f"edge ({self.i}, {self.j}) is a self-loop")
        m = self.mult
        if not is_positive_int(m):
            raise ZeroMultiplicity(
                f"edge multiplicity must be a positive integer, got {m}"
            )


@dataclass(frozen=True)
class Network:
    vertices: tuple[Vertex, ...]
    edges: tuple[InteriorEdge, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int) -> list[tuple[int, int]]:
        """(neighbor index, edge multiplicity) pairs for vertex i; the one
        vertex-index check: ValueError unless i is an int, not a bool, in [0, n)."""
        if not is_index(i, len(self.vertices)):
            raise ValueError(f"vertex {i} out of range")
        out = []
        for e in self.edges:
            if e.i == i:
                out.append((e.j, e.mult))
            elif e.j == i:
                out.append((e.i, e.mult))
        return out

    @property
    def is_exact(self) -> bool:
        return all(v.position.is_exact for v in self.vertices)


@dataclass(frozen=True)
class ValidationReport:
    stationary: bool
    max_residual: float
    crossings: list[tuple[int, int]]
    violations: list[str]

    @property
    def admissible(self) -> bool:
        return self.stationary and not self.crossings


def make_network(vertices: Sequence[Vertex], edges: Sequence[InteriorEdge]) -> Network:
    """Put vertices in angle order, renumber edges accordingly, enforce invariants."""
    order = angle_order([v.position for v in vertices])
    remap = sorted(range(len(order)), key=order.__getitem__)  # inverse permutation
    seen: set[tuple[int, int]] = set()
    new_edges = []
    for e in edges:
        if not (is_index(e.i, len(vertices)) and is_index(e.j, len(vertices))):
            raise ValueError(f"edge ({e.i}, {e.j}) references a missing vertex")
        i, j = sorted((remap[e.i], remap[e.j]))
        if (i, j) in seen:
            raise DuplicateEdge(f"duplicate edge between vertices {i} and {j}")
        seen.add((i, j))
        new_edges.append(InteriorEdge(i, j, e.mult))
    new_edges.sort(key=lambda e: (e.i, e.j))
    return Network(tuple(vertices[k] for k in order), tuple(new_edges))


def _chord_tangents(net: Network):
    """(i, j) -> the exact unit tangent at vertex i toward vertex j.

    Each chord's tangent is computed once, at its lower end, and negated at
    the other.  functools.cache keeps no exception, so an InexactPosition is
    raised again at every lookup of its chord."""

    @functools.cache
    def lower(i: int, j: int) -> tuple[RadExpr, RadExpr]:
        return tangent_components_exact(net.vertices[i].position, net.vertices[j].position)

    def tangent(i: int, j: int) -> tuple[RadExpr, RadExpr]:
        if i < j:
            return lower(i, j)
        tx, ty = lower(j, i)
        return -tx, -ty

    return tangent


def _resultant(vectors: Iterable[tuple[int, tuple]]) -> tuple[RadExpr, RadExpr]:
    """sum of m * (x, y) over (m, (x, y)), one exact.combination per component."""
    vectors = list(vectors)
    return (
        combination((m, x) for m, (x, _) in vectors),
        combination((m, y) for m, (_, y) in vectors),
    )


def _residual_exact(net: Network, i: int, tangent) -> tuple[RadExpr, RadExpr]:
    """m_v * v plus m_vw times the unit tangent toward each neighbour w,
    summed as one weighted sum per component (_resultant)."""
    nbrs = net.neighbors(i)  # checks i before vertices[i] is read
    v = net.vertices[i]
    return _resultant(
        [(v.exterior_mult, v.position.exact_xy())]
        + [(mult, tangent(i, j)) for j, mult in nbrs]
    )


def _residual_float(net: Network, i: int) -> tuple[float, float]:
    nbrs = net.neighbors(i)  # checks i before vertices[i] is read
    v = net.vertices[i]
    px, py = v.position.xy()
    rx = v.exterior_mult * px
    ry = v.exterior_mult * py
    for j, mult in nbrs:
        wx, wy = net.vertices[j].position.xy()
        d = math.hypot(wx - px, wy - py)
        rx += mult * (wx - px) / d
        ry += mult * (wy - py) / d
    return rx, ry


def stationarity_residual(net: Network, i: int, mode: str = "auto"):
    """Force balance at vertex i: exterior ray plus weighted chord tangents.

    mode "exact" returns a RadExpr pair and raises InexactPosition when the
    data cannot support it; "float" always evaluates numerically; "auto"
    prefers exact and falls back.
    """
    return _residual(net, i, mode, _chord_tangents(net))


def _residual(net: Network, i: int, mode: str, tangent):
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "float":
        return _residual_float(net, i)
    try:
        return _residual_exact(net, i, tangent)
    except InexactPosition:
        if mode == "exact":
            raise InexactPosition(
                f"vertex {i} has no exact residual (missing or irrational data)"
            )
        return _residual_float(net, i)


def _vertex_scale(net: Network, i: int) -> float:
    return net.vertices[i].exterior_mult + sum(m for _, m in net.neighbors(i))


def is_stationary(net: Network, mode: str = "auto", tol: float = DEFAULT_TOL) -> bool:
    return is_admissible(net, mode=mode, tol=tol).stationary


def crossing_pairs(net: Network) -> list[tuple[int, int]]:
    """Indices of edge pairs whose open chords intersect (endpoints excluded)."""
    return list(crossing_index_pairs([(e.i, e.j) for e in net.edges]))


def is_admissible(
    net: Network, mode: str = "auto", tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Per-vertex stationarity verdicts (an exact residual must be zero, a
    float one within tol of the vertex's total multiplicity) and crossings;
    tol must be finite and nonnegative."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance {tol} must be finite and nonnegative")
    if not net.vertices:
        raise ValueError("need at least one point")
    violations: list[str] = []
    max_resid = 0.0
    stationary = True
    tangent = _chord_tangents(net)
    for i in range(net.n_vertices):
        r = _residual(net, i, mode, tangent)
        norm = math.hypot(float(r[0]), float(r[1]))
        max_resid = max(max_resid, norm)
        if isinstance(r[0], RadExpr):
            ok = r[0].is_zero() and r[1].is_zero()
        else:
            ok = norm <= tol * _vertex_scale(net, i)
        if not ok:
            stationary = False
            violations.append(f"vertex {i}: residual norm {norm:.3g}")
    crossings = crossing_pairs(net)
    for a, b in crossings:
        ea, eb = net.edges[a], net.edges[b]
        violations.append(
            f"edges ({ea.i},{ea.j}) and ({eb.i},{eb.j}) cross"
        )
    return ValidationReport(stationary, max_resid, crossings, violations)


@dataclass(frozen=True)
class InvariantReport:
    exterior_balance: tuple
    mass_gap: object
    exterior_parity: str
    exact: bool


def exterior_balance(rays: Iterable[tuple[CirclePoint, int]]) -> tuple:
    """The exact ray resultant, sum of m * p over (p, m), as a RadExpr pair;
    needs exact points.  Each component is one weighted sum (_resultant)."""
    return _resultant((m, p.exact_xy()) for p, m in rays)


def invariant_report(net: Network) -> InvariantReport:
    """Global identities: ray balance, interior-vs-exterior mass, ray parity.

    For a stationary network the balance is (0, 0) (sum the per-vertex
    conditions: chord tangents cancel in opposite pairs) and the mass gap is 0
    (dot each condition with its vertex and sum; v.(w-v)/|w-v| pairs add up to
    -|w-v| per edge while v.v = 1).  On exact data the balance and the mass
    gap, total exterior multiplicity minus sum m_e * |w - v|, are each one
    exact.combination, as the residual is: the three sums never read the
    solver's matrix.
    """
    total_ext = sum(v.exterior_mult for v in net.vertices)
    parity = "even" if total_ext % 2 == 0 else "odd"
    if net.is_exact:
        try:
            rays = ((v.position, v.exterior_mult) for v in net.vertices)
            balance = exterior_balance(rays)
            ps = [v.position for v in net.vertices]
            lengths = ((-e.mult, _chord(ps[e.i], ps[e.j])[2]) for e in net.edges)
            mass = combination([(total_ext, Fraction(1)), *lengths])
            return InvariantReport(balance, mass, parity, True)
        except InexactPosition:
            pass
    bx = by = 0.0
    for v in net.vertices:
        px, py = v.position.xy()
        bx += v.exterior_mult * px
        by += v.exterior_mult * py
    mass = float(total_ext)
    for e in net.edges:
        (ax, ay) = net.vertices[e.i].position.xy()
        (cx, cy) = net.vertices[e.j].position.xy()
        mass -= e.mult * math.hypot(cx - ax, cy - ay)
    return InvariantReport((bx, by), mass, parity, False)


def _gap_key(p: CirclePoint, q: CirclePoint) -> tuple:
    """The gap from q to p: for exact ends, the terms of tan_half_sub of their
    tan-halves (INFINITY apart), with no point built; otherwise the rounded
    angle of point_div."""
    if p.tan_half is None or q.tan_half is None:
        return (0, round(point_div(p, q).angle, 12) % TAU)
    t = tan_half_sub(p.tan_half, q.tan_half)
    if t is INFINITY:
        return (2, ())
    return (1, tuple(sorted(RadExpr.of(t).terms().items())))


def canonical_key(net: Network) -> tuple:
    """Hashable rotation/reflection-invariant fingerprint; exact for exact data.

    The least of the 2N readings of the vertex cycle, one per start vertex a
    and direction s: gap keys, exterior multiplicities and renumbered edges.
    Rotations keep the cyclic order and reflections reverse it; read backwards,
    the gap after v is gaps[v - 1], as conj(p[v-1] / p[v]) = p[v] / p[v-1].
    A gap between exact points is read off the two tan-halves (_gap_key), so
    an exact network is keyed without building a CirclePoint.
    """
    n = net.n_vertices
    ps = [v.position for v in net.vertices]
    gaps = [_gap_key(ps[(k + 1) % n], ps[k]) for k in range(n)]

    def reading(a: int, s: int) -> tuple:
        order = [(a + s * j) % n for j in range(n)]
        ends = ((s * (e.i - a) % n, s * (e.j - a) % n, e.mult) for e in net.edges)
        return (
            tuple(gaps[v if s > 0 else v - 1] for v in order),
            tuple(net.vertices[v].exterior_mult for v in order),
            tuple(sorted((min(i, j), max(i, j), m) for i, j, m in ends)),
        )

    return min((reading(a, s) for a in range(n) for s in (1, -1)), default=((), (), ()))
