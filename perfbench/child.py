"""One benchmark process: set a workload up, run it, check every answer.

run.py starts this in a fresh single-threaded interpreter:

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --workdir DIR

"setup" imports geonet, builds the inputs and exits, so the parent can time
it.  "run" measures whole cycles for at least S seconds.  "trace" measures
whole cycles for at least S/2 seconds untraced, then replays the same ops
with the per-layer wrappers installed.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_FAILURES_SHOWN = 5


def tail(times: list[float]) -> dict | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "ms": ordered[rank - 1] * 1000.0, "beyond": n - rank}
    return None


class Pass:
    """Per-op records of one pass over whole cycles."""

    def __init__(self):
        self.cycles = []
        self.kinds = []
        self.cpu = []  # CPU seconds per op
        self.walls = []  # wall seconds per op
        self.times = []  # CPU seconds per op at the reference speed
        self.calibration = Calibration()
        self.items = 0
        self.known_defects = 0
        self.failures = []
        self.wall = 0.0

    def by_kind(self) -> dict:
        """Count, mean and median scaled ms of each op kind."""
        times = {}
        for t, kind in zip(self.times, self.kinds):
            times.setdefault(kind, []).append(t)
        return {
            kind: [len(ts), statistics.fmean(ts) * 1000.0, statistics.median(ts) * 1000.0]
            for kind, ts in times.items()
        }

    def summary(self) -> dict:
        cal = [s for _, s in self.calibration.samples]
        return {
            "cycles": len(self.cycles),
            "ops": len(self.times),
            "items": self.items,
            "op_time_s": sum(self.times),
            "op_cpu_s": sum(self.cpu),
            "op_wall_s": sum(self.walls),
            "wall_s": self.wall,
            "op_p50_ms": statistics.median(self.times) * 1000.0,
            "op_cpu_p50_ms": statistics.median(self.cpu) * 1000.0,
            "op_wall_p50_ms": statistics.median(self.walls) * 1000.0,
            "op_tail": tail(self.times),
            "calibration_ms": [min(cal) * 1000.0, statistics.median(cal) * 1000.0,
                               max(cal) * 1000.0, len(cal)],
            "kinds": self.by_kind(),
            "known_defects": self.known_defects,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_FAILURES_SHOWN],
        }


def run_pass(wl, cycles, seconds: float | None, tracer=None) -> Pass:
    """Run whole cycles in a closed loop, one op at a time.

    Each op is timed in CPU time and wall time; every op is single-threaded
    and CPU-bound.  The metrics use its CPU time scaled to the reference
    speed by the calibration task timed around it (see calibration.py).

    cycles yields op lists.  Stops after the first cycle that ends at least
    `seconds` after the start, so a run always holds whole cycles, and at
    least two when a cycle is shorter than the window; with seconds None
    every cycle given is run.
    """
    record = Pass()
    cal = record.calibration
    gc.collect()
    start = time.perf_counter()
    cal.sample()
    spans = []  # (start, end) of each op, for its calibration window
    for ops in cycles:
        for op in ops:
            state: dict = {}
            error = None
            if tracer is not None:
                tracer.op_id = len(record.cpu)
                tracer.enabled = True
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                wl.run(op, state)
            except Exception as exc:  # a raising op is checked, not fatal
                error = exc
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            spans.append((t0, t0 + wall))
            cal.maybe_sample()
            status = workloads.check(wl, op, state, error)
            record.cpu.append(cpu)
            record.walls.append(wall)
            record.kinds.append(op[0])
            if status == workloads.OK:
                record.items += wl.items(op, state)
            elif status == workloads.KNOWN_DEFECT:
                record.known_defects += 1
            else:
                record.failures.append(f"{op[0]}: {status}")
        record.cycles.append(ops)
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    cal.sample()
    record.wall = time.perf_counter() - start
    record.times = [t * cal.scale(*span) for t, span in zip(record.cpu, spans)]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import geonet

    if Path(geonet.__file__).resolve().parent != (ROOT / "src" / "geonet").resolve():
        print(f"error: geonet imported from {geonet.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    try:
        # the recorded answers are checks, not inputs: set-up does not load them
        recorded = args.mode != "setup" and args.workload in workloads.RECORDED
        expected = workloads.load_expected() if recorded else None
        wl = workloads.WORKLOADS[args.workload](expected, workdir)
        rng = random.Random(f"{args.workload}:{args.seed}")
        first = wl.cycle(rng)
        if args.mode == "setup":
            print(json.dumps({"setup": True}))
            return 0

        def fresh_cycles():
            yield first
            while True:
                yield wl.cycle(rng)

        if args.mode == "run":
            record = run_pass(wl, fresh_cycles(), args.seconds)
            out = record.summary()
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(json.dumps(out))
            return 0 if not record.failures else 1

        import tracer as tracing

        untraced = run_pass(wl, fresh_cycles(), args.seconds / 2.0)
        tr = tracing.Tracer()
        tracing.install(tr)
        traced = run_pass(wl, iter(untraced.cycles), None, tracer=tr)
        flow_s = sum(t for t, k in zip(untraced.times, untraced.kinds) if k == "flow")
        values = tracing.layer_metrics(tr, untraced.wall, traced.wall, flow_s)
        problems = tracing.prediction_failures(args.workload, values)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tr.write_spans(out_dir / f"spans-{args.workload}.jsonl")
        out = {
            "untraced": untraced.summary(),
            "traced": traced.summary(),
            "layers": values,
            "prediction_failures": problems,
        }
        print(json.dumps(out))
        return 0 if not (untraced.failures or traced.failures or problems) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
