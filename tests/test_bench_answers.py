"""The benchmark's answer gate, run once on the replace_search and solve_grid
pool ops.

perfbench/workloads.py checks each op it times against the answer digests
recorded in perfbench/expected.json.  Running that check here on every ray
problem and CLI call of the replace_search pool, and on every solve_grid op
but 24 of each 25 triangles, catches a changed answer before any benchmark
run.  perfbench/ is only read: no bytecode is written there.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def failed_ops(workloads, workload, ops) -> dict:
    """The ops whose benchmark check does not read OK, with the reason."""
    failures = {}
    for op in ops:
        state, error = {}, None
        try:
            workload.run(op, state)
        except Exception as exc:  # checked below, like a benchmark op
            error = exc
        status = workloads.check(workload, op, state, error)
        if status != workloads.OK:
            failures[op] = status
    return failures


def test_replace_search_pool_matches_expected_answers(tmp_path):
    workloads = load_workloads()
    workload = workloads.ReplaceSearch(workloads.load_expected(), tmp_path)
    ops = [(kind, i) for kind, pool in workload.pools.items() for i in range(len(pool))]
    assert len(ops) == 75 + 21  # ray problems and CLI calls
    assert failed_ops(workloads, workload, ops) == {}


def test_solve_grid_pool_matches_expected_answers(tmp_path):
    workloads = load_workloads()
    workload = workloads.SolveGrid(workloads.load_expected(), tmp_path)
    ops = [
        (kind, i)
        for kind, pool in workload.pools.items()
        for i in range(len(pool))
        if kind != "triangle" or i % 25 == 0  # every 25th of the 7875 triangles
    ]
    assert len(ops) == 152 + 315  # quads, pentagons, hexagons, rectangles; triangles
    assert failed_ops(workloads, workload, ops) == {}
