"""The argument contract of the public API.

Every integer argument (a bound, depth, n, sample or point count, or
max_iters) must be an int that is not a bool, and every vertex index must
also lie in [0, n); otherwise the call raises ValueError naming the argument,
before any work.  errors.check_int and Network.neighbors hold the two rules.
Chord endpoints in ChordSet and make_network follow the index rule too
(errors.is_index), keeping those checks' own messages.
"""

import re

import pytest

from geonet import chords, sweep
from geonet.chords import ChordSet
from geonet.circle import INFINITY
from geonet.network import InteriorEdge, Vertex, make_network, stationarity_residual
from geonet.render import RenderStyle
from geonet.replace import good_network_audit, replacement_feasible, replacement_problem
from geonet.solver import build_system, positive_integer_solutions, solve
from helpers import golden_triangle, line_network, pt


def _line_solution():
    return solve(build_system([pt(0), pt(INFINITY)], ChordSet(2, ((0, 1),))))


def _flow(max_iters):
    curve = sweep.latitude_curve(1.0, 32)
    return sweep.flow_to_cmc(curve, sweep.SphereConfig(1.0), max_iters=max_iters)


def _recursive_by_keyword(n):
    # the equal int is cached first: a keyword call must still be checked
    chords.nonadjacent_max_recursive(n=int(n))
    return chords.nonadjacent_max_recursive(n=n)


INTEGER_ARGUMENTS = {
    "positive_integer_solutions": ("bound", lambda v: positive_integer_solutions(_line_solution(), v)),
    "replacement_feasible": (
        "bound",
        lambda v: replacement_feasible(replacement_problem(line_network(), 0), v),
    ),
    "good_network_audit-depth": ("depth", lambda v: good_network_audit(line_network(), depth=v)),
    "good_network_audit-bound": (
        "bound",
        lambda v: good_network_audit(line_network(), depth=1, bound=v),
    ),
    "ChordSet": ("n", lambda v: ChordSet(v, ())),
    "closed_form_bounds": ("n", chords.closed_form_bounds),
    "enumerate_chord_sets": ("n", chords.enumerate_chord_sets),
    "maximal_chord_sets": ("n", chords.maximal_chord_sets),
    "max_nonadjacent_chords": ("n", chords.max_nonadjacent_chords),
    "nonadjacent_max_recursive": ("n", chords.nonadjacent_max_recursive),
    "nonadjacent_max_recursive-keyword": ("n", _recursive_by_keyword),
    "audit_counting_argument": ("n", chords.audit_counting_argument),
    "latitude_sweepout": ("n", sweep.latitude_sweepout),
    "latitude_curve": ("n", lambda v: sweep.latitude_curve(1.0, v)),
    "flow_to_cmc": ("max_iters", _flow),
}

# golden_triangle() has three vertices
VERTEX_INDEX_ENTRY_POINTS = {
    "neighbors": lambda i: golden_triangle().neighbors(i),
    "stationarity_residual": lambda i: stationarity_residual(golden_triangle(), i, mode="exact"),
    "replacement_problem": lambda i: replacement_problem(golden_triangle(), i),
}

CASES = [
    pytest.param(call, value, f"{name} must be an int, got {value!r}", id=f"{entry}-{value!r}")
    for entry, (name, call) in INTEGER_ARGUMENTS.items()
    for value in (True, 2.0, 2.5)
] + [
    pytest.param(call, i, f"vertex {i!r} out of range", id=f"{entry}-{i!r}")
    for entry, call in VERTEX_INDEX_ENTRY_POINTS.items()
    for i in (-1, 3, True, 2.0, 2.5)
]

CASES += [
    pytest.param(
        lambda c: ChordSet(3, (c,)), c, f"chord {c!r} out of range for n=3", id=f"ChordSet-{c!r}"
    )
    for c in ((0, 1.5), (0, True), (0.0, 2))
] + [
    pytest.param(
        lambda e: make_network([Vertex(pt(0), 1), Vertex(pt(INFINITY), 1)], [e]),
        e,
        f"edge ({e.i!r}, {e.j!r}) references a missing vertex",
        id=f"make_network-{e.i!r}-{e.j!r}",
    )
    for e in (InteriorEdge(0, True, 1), InteriorEdge(False, 1, 1), InteriorEdge(0, 1.0, 1))
] + [
    # 512.0 and 100.5 pass the range check, so only the int rule refuses them
    pytest.param(
        lambda v: RenderStyle(size=v), v, f"size must be an int, got {v!r}", id=f"RenderStyle-{v!r}"
    )
    for v in (True, 512.0, 100.5)
]


@pytest.mark.parametrize("call, value, message", CASES)
def test_integer_arguments_and_vertex_indices_raise_value_error(call, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)

