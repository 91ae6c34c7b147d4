"""The benchmark's answer gate, run once on the replace_search, solve_grid and
sphere_flow ops, and its per-layer prediction gate on all four workloads.

perfbench/workloads.py checks each op it times against the answer digests
recorded in perfbench/expected.json, or for sphere_flow against the closed
forms.  Running that check here on every ray problem and CLI call of the
replace_search pool, on every solve_grid op but 24 of each 25 triangles, and
on one seeded sphere_flow cycle's min-max estimates and 256-point flows,
catches a changed answer before any benchmark run.  perfbench/tracer.py
predicts which layers each workload calls; a traced run of a few seeded ops
catches a layer that a change stops calling, or starts calling, before a
traced benchmark run would.  perfbench/ is only read: no bytecode is written
there, and no span file.
"""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Runs in its own interpreter, since tracer.install patches geonet for the
# whole process.  Arguments: perfbench, src, workload name, workdir.
PREDICTION_GATE = """
import sys
sys.dont_write_bytecode = True
perfbench, src, name, workdir = sys.argv[1:]
sys.path[:0] = [perfbench, src]
import json, random
from pathlib import Path
import child, tracer, workloads

expected = workloads.load_expected() if name in workloads.RECORDED else None
wl = workloads.WORKLOADS[name](expected, Path(workdir))
ops = wl.cycle(random.Random(f"{name}:1"))
if name in ("chord_census", "sphere_flow"):
    first = {}
    for op in ops:
        first.setdefault(op[0], op)
    ops = list(first.values())
tr = tracer.Tracer()
tracer.install(tr)
record = child.run_pass(wl, [ops], None, tracer=tr)
values = tracer.layer_metrics(tr, 0.0, record.wall, 0.0)
print(json.dumps({"failed_ops": record.failures,
                  "prediction_failures": tracer.prediction_failures(name, values)}))
"""


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


@pytest.mark.parametrize("workload", ["solve_grid", "replace_search", "chord_census", "sphere_flow"])
def test_traced_ops_meet_the_layer_predictions(workload, tmp_path):
    # one seed-1 cycle of solve_grid and replace_search, and the first op of
    # each kind in the seed-1 cycle of chord_census and sphere_flow
    args = [str(PERFBENCH), str(ROOT / "src"), workload, str(tmp_path / "work")]
    done = subprocess.run(
        [sys.executable, "-c", PREDICTION_GATE, *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"failed_ops": [], "prediction_failures": []}
