"""The benchmark's answer gate, run once on the replace_search, solve_grid and
sphere_flow ops.

perfbench/workloads.py checks each op it times against the answer digests
recorded in perfbench/expected.json, or for sphere_flow against the closed
forms.  Running that check here on every ray problem and CLI call of the
replace_search pool, on every solve_grid op but 24 of each 25 triangles, and
on one seeded sphere_flow cycle's min-max estimates and 256-point flows,
catches a changed answer before any benchmark run.  perfbench/ is only read:
no bytecode is written there.
"""

import importlib.util
import random
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


def test_sphere_flow_cycle_matches_expected_answers(tmp_path):
    workloads = load_workloads()
    workload = workloads.SphereFlow(None, tmp_path)
    ops = [
        op
        for op in workload.cycle(random.Random(1))
        if op[0] == "minmax" or op[1][0] == 256  # the 512-point flows take twice as long
    ]
    assert sorted(kind for kind, _ in ops) == ["flow"] * 3 + ["minmax"] * 12
    assert failed_ops(workloads, workload, ops) == {}
