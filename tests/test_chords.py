import hashlib
import math
import re
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonet.chords import (
    ChordSet,
    audit_counting_argument,
    chords_cross,
    closed_form_bounds,
    enumerate_chord_sets,
    max_nonadjacent_chords,
    maximal_chord_sets,
    nonadjacent_max_recursive,
)
from geonet.errors import CrossingEdges
from helpers import catalan, naive_chord_sets, naive_is_maximal, segments_cross_float

# non-crossing chord sets on n points allowing adjacent chords, n = 3..8
# (OEIS A054726 shifted: includes the empty set and single chords)
ALLOW_ADJACENT_COUNTS = {3: 8, 4: 48, 5: 352, 6: 2880, 7: 25216, 8: 231168}


def test_chords_cross_basic():
    assert chords_cross((0, 2), (1, 3))
    assert not chords_cross((0, 1), (2, 3))
    assert not chords_cross((0, 2), (2, 4))  # shared endpoint


@given(data=st.data(), n=st.integers(min_value=4, max_value=12))
@settings(max_examples=200, deadline=None)
def test_chords_cross_matches_geometry(data, n):
    idx = st.integers(min_value=0, max_value=n - 1)
    a, b, c, d = (data.draw(idx) for _ in range(4))
    if len({a, b, c, d}) < 4:
        return
    e1 = tuple(sorted((a, b)))
    e2 = tuple(sorted((c, d)))
    points = [
        (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
        for k in range(n)
    ]
    want = segments_cross_float(points[e1[0]], points[e1[1]], points[e2[0]], points[e2[1]])
    assert chords_cross(e1, e2) == want


def test_chord_set_validation():
    ChordSet(5, ((0, 2), (0, 3)))
    # nested at a shared left end, and joined end to start
    assert ChordSet(6, ((0, 2), (0, 5), (0, 3), (3, 5), (2, 3))).chords == (
        (0, 2), (0, 3), (0, 5), (2, 3), (3, 5)
    )
    with pytest.raises(ValueError):
        ChordSet(5, ((0, 2), (1, 3)))  # crossing
    with pytest.raises(CrossingEdges, match=re.escape("chords (0, 3) and (1, 4) cross")):
        ChordSet(6, ((1, 4), (0, 5), (0, 3), (2, 3)))
    with pytest.raises(CrossingEdges, match=re.escape("chords (0, 2) and (1, 5) cross")):
        ChordSet(6, ((0, 2), (0, 1), (1, 5)))
    with pytest.raises(ValueError):
        ChordSet(5, ((0, 2), (0, 2)))  # duplicate
    with pytest.raises(ValueError):
        ChordSet(5, ((0, 5),))  # out of range


@given(data=st.data(), n=st.integers(min_value=2, max_value=10))
@settings(max_examples=300, deadline=None)
def test_crossing_check_matches_every_pair(data, n):
    # the bracket scan accepts exactly the sets with no crossing pair, and a
    # refusal names the first crossing pair of the sorted chords
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chords = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    cs = sorted(chords)
    crossing = [(a, b) for a in cs for b in cs if a < b and chords_cross(a, b)]
    if not crossing:
        assert ChordSet(n, tuple(chords)).chords == tuple(cs)
        return
    a, b = crossing[0]
    with pytest.raises(CrossingEdges, match=re.escape(f"chords {a} and {b} cross")):
        ChordSet(n, tuple(chords))


@pytest.mark.parametrize("n", range(1, 10))
def test_exhaustive_max_equals_closed_form(n):
    assert max_nonadjacent_chords(n) == max(n - 3, 0)


@pytest.mark.parametrize("n", range(1, 21))
def test_recursion_equals_closed_form(n):
    assert nonadjacent_max_recursive(n) == closed_form_bounds(n).nonadjacent_max


@pytest.mark.parametrize("n", sorted(ALLOW_ADJACENT_COUNTS))
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_chord_sets(n, allow_adjacent=True)) == ALLOW_ADJACENT_COUNTS[n]


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        next(enumerate_chord_sets(13))


def test_enumeration_is_lexicographic_and_duplicate_free():
    seen = [cs.chords for cs in enumerate_chord_sets(6, allow_adjacent=True)]
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)


@pytest.mark.parametrize("n", range(1, 10))
def test_maximal_sets_are_triangulations(n):
    # a non-crossing set is inclusion-maximal exactly when it has the
    # closed-form maximum size, and maximal_chord_sets (behind enumerate
    # --max-only) builds exactly the sets of that size, in enumeration order;
    # the naive maximality check skips the 2.2 million sets at n = 9 with
    # adjacent chords for time
    bounds = closed_form_bounds(n)
    tops = {True: bounds.edge_max, False: bounds.nonadjacent_max}
    for allow_adjacent in (True, False):
        sized = []
        for cs in enumerate_chord_sets(n, allow_adjacent=allow_adjacent):
            top = len(cs.chords) == tops[allow_adjacent]
            if n < 9 or not allow_adjacent:
                assert top == naive_is_maximal(cs, allow_adjacent), cs
            if top:
                sized.append(cs)
        assert list(maximal_chord_sets(n, allow_adjacent)) == sized
        if allow_adjacent and n >= 2:
            # with adjacent chords they are the triangulations of the n-gon
            assert len(sized) == catalan(n - 2)


@pytest.mark.parametrize("allow_adjacent", [False, True])
def test_maximal_sets_reach_the_enumeration_cap(allow_adjacent):
    sets = list(maximal_chord_sets(12, allow_adjacent))
    assert len(sets) == catalan(10)
    assert all(len(cs.chords) == (21 if allow_adjacent else 9) for cs in sets)


def test_closed_form_bounds_small():
    b4 = closed_form_bounds(4)
    assert (b4.nonadjacent_max, b4.edge_max, b4.leaf_edge_max) == (1, 5, 3)
    b5 = closed_form_bounds(5)
    assert (b5.nonadjacent_max, b5.edge_max, b5.leaf_edge_max) == (2, 7, 5)


def test_point_counts_below_the_minimum_raise():
    for call in (lambda: ChordSet(0, ()), lambda: closed_form_bounds(0)):
        with pytest.raises(ValueError, match="need at least one point"):
            call()
    with pytest.raises(ValueError, match="audit needs at least three points"):
        audit_counting_argument(2)


@pytest.mark.parametrize("n", range(3, 9))
def test_audit_no_survivors(n):
    report = audit_counting_argument(n)
    assert not report.survivors
    assert report.total == ALLOW_ADJACENT_COUNTS[n]
    assert sum(report.kills.values()) + report.forwarded_to_n3 == report.total


def test_audit_witnesses_quote_inequalities():
    assert "12 > 10" in audit_counting_argument(4).inequality_witnesses["no-leaf"]
    assert "20 > 14" in audit_counting_argument(5).inequality_witnesses["no-leaf"]


def test_audit_n3_forwards_triangle():
    report = audit_counting_argument(3)
    assert report.forwarded_to_n3 == 1
    assert not report.survivors


def test_audit_rows_cover_everything():
    report = audit_counting_argument(4, keep_rows=True)
    assert len(report.rows) == report.total
    fates = {row.fate for row in report.rows}
    assert fates == set(report.kills)


@pytest.mark.parametrize(
    "n, allow_adjacent",
    [(n, True) for n in range(1, 9)] + [(n, False) for n in range(1, 11)],
)
def test_enumeration_matches_naive_oracle(n, allow_adjacent):
    got = enumerate_chord_sets(n, allow_adjacent=allow_adjacent)
    want = naive_chord_sets(n, allow_adjacent=allow_adjacent)
    for a, b in zip_longest(got, want):
        assert a == b


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerated_sets_pass_validation(n):
    for allow_adjacent in (True, False):
        for cs in enumerate_chord_sets(n, allow_adjacent=allow_adjacent):
            assert type(cs) is ChordSet
            assert ChordSet(cs.n, cs.chords) == cs


# (total, forwarded_to_n3, kills) of the audit on n points
AUDIT_TALLIES = {
    3: (8, 1, {"isolated-vertex": 4, "disjoint-leaf-diameters": 3}),
    4: (48, 0, {"isolated-vertex": 23, "too-many-leaves": 6, "disjoint-leaf-diameters": 8,
                "leaf-antipode-one-sided": 8, "degree-2": 3}),
    5: (352, 0, {"isolated-vertex": 176, "too-many-leaves": 50, "disjoint-leaf-diameters": 55,
                 "leaf-antipode-one-sided": 50, "degree-2": 21}),
    6: (2880, 0, {"isolated-vertex": 1527, "too-many-leaves": 489, "disjoint-leaf-diameters": 432,
                  "leaf-antipode-one-sided": 312, "degree-2": 120}),
    7: (25216, 0, {"isolated-vertex": 14204, "too-many-leaves": 4886,
                   "disjoint-leaf-diameters": 3262, "leaf-antipode-one-sided": 2100,
                   "degree-2": 764}),
    8: (231168, 0, {"isolated-vertex": 137839, "too-many-leaves": 48458,
                    "disjoint-leaf-diameters": 25432, "leaf-antipode-one-sided": 14400,
                    "degree-2": 5039}),
}


@pytest.mark.parametrize("n", sorted(AUDIT_TALLIES))
def test_audit_tallies_pinned(n):
    report = audit_counting_argument(n)
    assert (report.total, report.forwarded_to_n3, report.kills) == AUDIT_TALLIES[n]
    assert report.rows == []


# sha256 of repr(rows) with every row kept
AUDIT_ROW_DIGESTS = {
    3: "8cf311febd958a04e15ce7441c9bb7967974cece0083af245d849eb677affb5d",
    4: "b3ca414c581dbc475ad0f7da51a4f797268541e296241728e0d9994476ba5cab",
    5: "900a9e7bb008924364c0e38df5bfa623b2407c3f94d80f8a3b974f7956600351",
    6: "875afd118e2f4f66722006a30ed3e52ddd2c9ea0b38af9d84bfd3fb3c6859b21",
}


@pytest.mark.parametrize("n", sorted(AUDIT_ROW_DIGESTS))
def test_audit_kept_rows_pinned(n):
    report = audit_counting_argument(n, keep_rows=True)
    assert len(report.rows) == report.total
    assert hashlib.sha256(repr(report.rows).encode()).hexdigest() == AUDIT_ROW_DIGESTS[n]
    plain = audit_counting_argument(n)
    assert (plain.total, plain.forwarded_to_n3, plain.kills, plain.survivors) == (
        report.total, report.forwarded_to_n3, report.kills, report.survivors
    )


def _degree_at_least_two(v: int, neighbours: int) -> bool:
    return neighbours.bit_count() >= 2


def _scattered(v: int, neighbours: int) -> bool:
    # an irregular but fixed verdict per (vertex, neighbourhood)
    return (v * 2654435761 + neighbours * 40503) % 7 != 0


def _no_right_neighbour(v: int, neighbours: int) -> bool:
    return not neighbours >> (v + 1) & 1


@pytest.mark.parametrize("predicate", [_degree_at_least_two, _scattered, _no_right_neighbour])
@pytest.mark.parametrize("allow_adjacent", [True, False])
@pytest.mark.parametrize("n", range(1, 8))
def test_vertex_cut_matches_filter(n, allow_adjacent, predicate):
    def passes(cs: ChordSet) -> bool:
        nbrs = [0] * n
        for i, j in cs.chords:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
        return all(predicate(v, nbrs[v]) for v in range(n))

    expected = [cs for cs in enumerate_chord_sets(n, allow_adjacent) if passes(cs)]
    got = list(enumerate_chord_sets(n, allow_adjacent, vertex_ok=predicate))
    assert got == expected
