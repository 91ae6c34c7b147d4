"""Non-crossing chord structures on cyclically ordered circle points.

Chords are index pairs (i, j), i < j, on N points labeled in circular order.
Two chords cross iff their endpoints interleave around the circle, which for
normalized pairs reduces to a < c < b < d or c < a < d < b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from .errors import CrossingEdges, check_int, is_index

ENUMERATION_CAP = 12  # Catalan-type growth; exhaustive search stays desk-scale


def chords_cross(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    a, b = e1
    c, d = e2
    return (a < c < b < d) or (c < a < d < b)


def crossing_index_pairs(chords: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Index pairs (a, b), a < b, of the crossing chords, in lexicographic order."""
    for a in range(len(chords)):
        for b in range(a + 1, len(chords)):
            if chords_cross(chords[a], chords[b]):
                yield a, b


def _nested(chords: Sequence[tuple[int, int]]) -> bool:
    """Whether distinct chords i < j are pairwise non-crossing, in O(k log k).

    Taken by left end, and the longer first at a shared left end, they must
    nest like brackets: once the open chords that end at or before i are
    closed, the innermost one left must not end before j.
    """
    ends: list[int] = []
    for i, j in sorted(chords, key=lambda c: (c[0], -c[1])):
        while ends and ends[-1] <= i:
            ends.pop()
        if ends and ends[-1] < j:
            return False
        ends.append(j)
    return True


def _adjacent(i: int, j: int, n: int) -> bool:
    return j - i == 1 or (i == 0 and j == n - 1)


def _check_points(n: int) -> None:
    check_int("n", n)
    if n < 1:
        raise ValueError("need at least one point")


@dataclass(frozen=True)
class ChordSet:
    """A validated pairwise non-crossing set of chords on n circle points."""

    n: int
    chords: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_points(self.n)
        seen = set()
        for i, j in self.chords:
            if not (is_index(i, self.n) and is_index(j, self.n) and i < j):
                raise ValueError(f"chord ({i}, {j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate chord ({i}, {j})")
            seen.add((i, j))
        cs = sorted(self.chords)
        if not _nested(cs):
            a, b = next(crossing_index_pairs(cs))
            raise CrossingEdges(f"chords {cs[a]} and {cs[b]} cross")
        object.__setattr__(self, "chords", tuple(cs))

    @classmethod
    def _trusted(cls, n: int, chords: tuple[tuple[int, int], ...]) -> ChordSet:
        """A set built by the enumerator: sorted, in range and non-crossing by
        construction, so it skips the checks of __post_init__."""
        cs = object.__new__(cls)
        object.__setattr__(cs, "n", n)
        object.__setattr__(cs, "chords", chords)
        return cs

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.chords:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass(frozen=True)
class ChordBounds:
    """Edge-count ceilings for admissible networks on n boundary points."""

    n: int
    nonadjacent_max: int  # non-crossing chords avoiding adjacent endpoints
    edge_max: int  # all interior edges
    leaf_edge_max: int  # interior edges when some vertex has degree 1


def closed_form_bounds(n: int) -> ChordBounds:
    _check_points(n)
    nonadj = max(n - 3, 0)
    total = 2 * n - 3 if n >= 3 else max(n - 1, 0)
    leaf = 2 * n - 5 if n >= 4 else 1
    return ChordBounds(n, nonadj, total, leaf)


@dataclass(frozen=True)
class _CrossingTable:
    """Candidate pairs in lexicographic order, and for each one the bitmask of
    the candidates it crosses (bit k stands for pairs[k])."""

    pairs: tuple[tuple[int, int], ...]
    masks: tuple[int, ...]


@lru_cache(maxsize=None)
def _crossing_table(n: int, allow_adjacent: bool) -> _CrossingTable:
    pairs = tuple(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if allow_adjacent or not _adjacent(i, j, n)
    )
    masks = tuple(
        sum(1 << k for k, q in enumerate(pairs) if chords_cross(p, q)) for p in pairs
    )
    return _CrossingTable(pairs, masks)


def _check_enumerable(n: int) -> None:
    _check_points(n)
    if n > ENUMERATION_CAP:
        raise ValueError(f"exhaustive enumeration capped at n <= {ENUMERATION_CAP}")


def enumerate_chord_sets(
    n: int,
    allow_adjacent: bool = False,
    *,
    vertex_ok: Callable[[int, int], bool] | None = None,
) -> Iterator[ChordSet]:
    """All non-crossing chord sets, in lexicographic order of sorted pair lists.

    With vertex_ok, only the sets in which vertex_ok(v, neighbours) holds for
    every vertex v, in the same order; neighbours is the bitmask of v's
    neighbours (bit w for vertex w).  Once the recursion has passed v's last
    candidate pair, v's neighbours are final, so a v that fails cuts the
    whole subtree.
    """
    _check_enumerable(n)
    table = _crossing_table(n, allow_adjacent)
    if vertex_ok is not None:
        return _enumerate_cut(n, table, vertex_ok)
    pairs, masks = table.pairs, table.masks
    trusted = ChordSet._trusted

    def extend(current: list[tuple[int, int]], blocked: int, start: int) -> Iterator[ChordSet]:
        # blocked has bit k set when pairs[k] crosses a chord of current
        yield trusted(n, tuple(current))
        for idx in range(start, len(pairs)):
            if not blocked >> idx & 1:
                current.append(pairs[idx])
                yield from extend(current, blocked | masks[idx], idx + 1)
                current.pop()

    return extend([], 0, 0)


def _enumerate_cut(
    n: int, table: _CrossingTable, vertex_ok: Callable[[int, int], bool]
) -> Iterator[ChordSet]:
    """enumerate_chord_sets with a vertex predicate, applied as early as the
    lexicographic recursion allows."""
    pairs, masks = table.pairs, table.masks
    trusted = ChordSet._trusted
    last = [-1] * n  # index of each vertex's last candidate pair
    for k, (i, j) in enumerate(pairs):
        last[i] = last[j] = k
    # settled[s]: the vertices whose neighbours are final once pairs[s:] remain
    settled = [[v for v in range(n) if last[v] == s - 1] for s in range(len(pairs) + 1)]
    unsettled = [[v for v in range(n) if last[v] >= s] for s in range(len(pairs) + 1)]
    nbrs = [0] * n

    def passes(vertices: list[int]) -> bool:
        return all(vertex_ok(v, nbrs[v]) for v in vertices)

    def extend(current: list[tuple[int, int]], blocked: int, start: int) -> Iterator[ChordSet]:
        # every vertex settled before start passes; the others must pass too
        # for current itself to be yielded
        if passes(unsettled[start]):
            yield trusted(n, tuple(current))
        for idx in range(start, len(pairs)):
            if idx > start and not passes(settled[idx]):
                return  # its last pair was skipped here, so it fails for good
            if blocked >> idx & 1:
                continue
            i, j = pairs[idx]
            current.append(pairs[idx])
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
            if passes(settled[idx + 1]):
                yield from extend(current, blocked | masks[idx], idx + 1)
            current.pop()
            nbrs[i] ^= 1 << j
            nbrs[j] ^= 1 << i

    if passes(settled[0]):
        yield from extend([], 0, 0)


def _triangulations(i: int, j: int) -> list[tuple[tuple[int, int], ...]]:
    """The diagonals of each triangulation of the polygon i, i + 1, ..., j:
    the triangle on the side (i, j) has some apex k, and the polygons
    i..k and k..j on its other two sides are triangulated alike."""
    if j - i < 2:
        return [()]
    out = []
    for k in range(i + 1, j):
        sides = tuple(c for c in ((i, k), (k, j)) if c[1] - c[0] > 1)
        rights = _triangulations(k, j)
        out.extend(sides + left + right for left in _triangulations(i, k) for right in rights)
    return out


def maximal_chord_sets(n: int, allow_adjacent: bool = False) -> Iterator[ChordSet]:
    """The inclusion-maximal non-crossing chord sets, in the order of
    enumerate_chord_sets: the triangulations of the n-gon, with its n hull
    sides under allow_adjacent.  Built directly, so n = 12 takes a Catalan
    number of steps, not an exhaustive walk; n is checked as there."""
    _check_enumerable(n)
    hull = set()
    if allow_adjacent and n > 1:
        hull = {(0, n - 1)} | {(i, i + 1) for i in range(n - 1)}
    sets = sorted(tuple(sorted(hull.union(t))) for t in _triangulations(0, n - 1))
    return (ChordSet._trusted(n, chords) for chords in sets)


def max_nonadjacent_chords(n: int) -> int:
    """Exhaustive maximum, the oracle for the closed-form nonadjacent bound."""
    return max(len(cs.chords) for cs in enumerate_chord_sets(n, allow_adjacent=False))


# typed: a keyword call n=2.0 or n=True must not hit the cached n=2 or n=1
@lru_cache(maxsize=None, typed=True)
def nonadjacent_max_recursive(n: int) -> int:
    """Split recursion: a chord leaves k and l >= 1 points on its two sides.

    The memo is filled upward, each m < n before n, so every call finds its
    sub-results cached and the recursion stays two calls deep for any n.
    """
    _check_points(n)
    if n <= 3:
        return 0
    for m in range(4, n):
        nonadjacent_max_recursive(m)
    return max(
        1 + nonadjacent_max_recursive(k + 2) + nonadjacent_max_recursive(n - 2 - k + 2)
        for k in range(1, n - 2)
    )


def _arc_sides(chord: tuple[int, int], n: int) -> tuple[list[int], list[int]]:
    i, j = chord
    inside = [v for v in range(n) if i < v < j]
    outside = [v for v in range(n) if v < i or v > j]
    return inside, outside


@dataclass(frozen=True)
class StructureRow:
    chords: tuple[tuple[int, int], ...]
    fate: str  # kill reason, "forwarded-to-three-vertex", or "survivor"


@dataclass(frozen=True)
class CountingAuditReport:
    n: int
    total: int
    survivors: list[StructureRow]
    forwarded_to_n3: int
    kills: dict[str, int]
    inequality_witnesses: dict[str, str]
    rows: list[StructureRow] = field(repr=False, default_factory=list)


def _classify(cs: ChordSet, deg: list[int]) -> str:
    """Kill reason for a chord structure, or why it remains in play.

    deg is cs.degrees(). The rules are the structural necessary conditions for
    the interior graph of a network every vertex of which admits iterated
    replacements:
      - a degree-0 vertex cannot balance its exterior ray;
      - a degree-1 vertex's edge must be a diameter, so at most one such edge
        exists (two leaves must share it) and its far endpoint either is the
        other leaf or needs neighbors strictly on both sides;
      - a degree-2 vertex needs a three-ray replacement, refuted exactly; a
        degree-3 vertex needs a four-ray replacement, refuted by counting.
    """
    n = cs.n
    if 0 in deg:
        return "isolated-vertex"
    leaves = [v for v in range(n) if deg[v] == 1]
    if len(leaves) > 2:
        return "too-many-leaves"
    if len(leaves) == 2:
        u, v = leaves
        if (u, v) not in cs.chords:
            return "disjoint-leaf-diameters"
    for v in leaves:
        (w,) = [b if a == v else a for a, b in cs.chords if v in (a, b)]
        if deg[w] == 1:
            continue
        chord = (min(v, w), max(v, w))
        inside, outside = _arc_sides(chord, n)
        nbrs_w = {b if a == w else a for a, b in cs.chords if w in (a, b)} - {v}
        if not (nbrs_w & set(inside)) or not (nbrs_w & set(outside)):
            return "leaf-antipode-one-sided"
    if n >= 4 and 2 in deg:
        return "degree-2"
    if n >= 5 and 3 in deg:
        return "degree-3"
    if n == 3:
        return "forwarded-to-three-vertex"
    return "survivor"


def audit_counting_argument(n: int, *, keep_rows: bool = False) -> CountingAuditReport:
    """Exhaust all non-crossing structures on n points and classify each.

    For n >= 3 no structure survives: every one is eliminated by a structural
    rule, and the aggregate inequalities record why none could have slipped
    through (the degree floor would force more edges than non-crossing
    structures can carry).

    The report's rows hold one StructureRow per structure only when keep_rows
    is set; otherwise rows is empty and the tallies are counted directly.
    """
    check_int("n", n)
    if n < 3:
        raise ValueError("audit needs at least three points")
    bounds = closed_form_bounds(n)
    rows: list[StructureRow] = []
    kills: dict[str, int] = {}
    survivors: list[StructureRow] = []
    forwarded = 0
    total = 0
    for cs in enumerate_chord_sets(n, allow_adjacent=True):
        total += 1
        deg = cs.degrees()
        fate = _classify(cs, deg)
        if keep_rows or fate == "survivor":
            row = StructureRow(cs.chords, fate)
            if keep_rows:
                rows.append(row)
        if fate == "survivor":
            survivors.append(row)
        elif fate == "forwarded-to-three-vertex":
            forwarded += 1
        else:
            kills[fate] = kills.get(fate, 0) + 1
    min_deg = 3 if n == 4 else 4
    witnesses = {}
    if n == 3:
        witnesses["parity"] = (
            "a single leaf would give sum of degrees 5 = 2E, which is odd"
        )
    else:
        witnesses["no-leaf"] = (
            f"degree floor {min_deg} forces sum of degrees >= "
            f"{min_deg * n} > {2 * bounds.edge_max} = 2E_max"
        )
        witnesses["leaf"] = (
            f"a leaf caps E <= {bounds.leaf_edge_max} but the degree floor "
            f"forces E >= {(min_deg * (n - 2) + 2) // 2} "
            f"> {bounds.leaf_edge_max}"
        )
    return CountingAuditReport(
        n=n,
        total=total,
        survivors=survivors,
        forwarded_to_n3=forwarded,
        kills=kills,
        inequality_witnesses=witnesses,
        rows=rows,
    )
