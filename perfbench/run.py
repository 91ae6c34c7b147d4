"""Benchmark for geonet: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload solve_grid --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py for why each exists):
  solve_grid      build_system -> solve -> positive_integer_solutions
  replace_search  replacement_feasible on balanced rays, CLI audit/replace
  chord_census    audit_counting_argument(n) for n = 4..8
  sphere_flow     flow_to_cmc and minmax_estimate

Run from the root of a checkout; the library is imported from its src/.
Every process this starts is a fresh interpreter with BLAS/OpenMP limited to
one thread, started one at a time:

  * nine set-up children (after one untimed warm-up that fills the bytecode
    cache) each import geonet and build the inputs in a fresh interpreter;
    setup_s is the median of their CPU times, scaled to the reference speed
    of calibration.py like every op time;
  * with --trace 0 one child runs whole cycles for at least --seconds and
    reports items_per_s, op_p50_ms and peak_rss_mb;
  * with --trace 1, `python -X importtime` children time the imports, and one
    child runs the workload untraced and then traced over the same ops and
    reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every answer
check passed, 1 when one failed, 2 when the checkout has no geonet, 3 when a
child crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
IMPORT_RUNS = 3
DEADLINE_S = 170.0  # the whole command must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GEONET_"))}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class Children:
    """Starts children one at a time, under one deadline for the whole run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, argv: list[str]) -> tuple[int, str, str, float]:
        """Run one child to the end; returns its code, output and CPU seconds."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise ChildFailed("no time left for another child process")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            proc = subprocess.run(
                [sys.executable, "-s", *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out: {' '.join(argv[:4])}") from exc
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc.returncode, proc.stdout, proc.stderr, cpu

    def workload(self, args, mode: str) -> tuple[int, dict | None, float]:
        self.count += 1
        workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{self.count}"
        code, out, err, cpu = self.run([
            str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode, "--workdir", str(workdir),
        ])
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if code not in (0, 1) or result is None:
            raise ChildFailed(f"{mode} child exited with {code}")
        return code, result, cpu

    def import_ms(self, module: str) -> float:
        """Cumulative import time of `module` in a fresh interpreter, in ms."""
        code, _, err, _ = self.run([
            "-X", "importtime", "-c",
            f"import sys; sys.path.insert(0, 'src'); import {module}",
        ])
        if code != 0:
            raise ChildFailed(f"importing {module} failed:\n{err}")
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1].split()[-1]) / 1000.0
        raise ChildFailed(f"no import time reported for {module}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "geonet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_line(args) -> str:
    uname = os.uname()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return (
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} machine={uname.machine} host={uname.nodename} "
        f"kernel={uname.release} nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy_version} "
        f"commit={git_commit()} source={source_digest()}"
    )


def setup_seconds(args, children: Children) -> tuple[float, float]:
    """CPU time of one set-up child, raw and scaled to the reference speed."""
    before = calibration.task_seconds()
    cpu = children.workload(args, "setup")[2]
    after = calibration.task_seconds()
    return cpu, cpu * calibration.REFERENCE_S / ((before + after) / 2.0)


def report(section: str, values: dict) -> dict:
    """Print and return the metrics BENCHMARK.json declares in a section."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for m in bench[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    return metrics


def end_to_end(args, children: Children, setup_s: float) -> dict:
    code, res, _ = children.workload(args, "run")
    failed_ratio = (res["failed"] + res["known_defects"]) / res["ops"]
    metrics = report("end_to_end", {
        "setup_s": setup_s,
        "items_per_s": res["items"] / res["op_time_s"],
        "op_p50_ms": res["op_p50_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    })
    t = res["op_tail"]
    if t is None:
        print(f"op_tail_ms n/a ({res['ops']} ops: too few for ten beyond any percentile)")
    else:
        print(f"op_tail_ms {t['ms']:.6g} ms (p{t['percentile']:g}, {t['beyond']} of "
              f"{res['ops']} ops beyond it)")
    print(f"failed_ratio {failed_ratio:.6g} ({res['failed']} failed checks + "
          f"{res['known_defects']} known-defect SEARCH_BOX_CAP errors, of {res['ops']} ops)")
    print("op kinds (count, mean ms, p50 ms, scaled): " + ", ".join(
        f"{kind} {n} {mean:.4g} {p50:.4g}" for kind, (n, mean, p50) in sorted(res["kinds"].items())))
    low, mid, high, samples = res["calibration_ms"]
    print(f"window {res['cycles']} cycles, {res['items']} items in {res['wall_s']:.3f} s; "
          f"op time {res['op_time_s']:.3f} s scaled, {res['op_cpu_s']:.3f} s CPU, "
          f"{res['op_wall_s']:.3f} s wall; op p50 {res['op_cpu_p50_ms']:.4g} ms CPU, "
          f"{res['op_wall_p50_ms']:.4g} ms wall")
    print(f"calibration task {low:.4g}/{mid:.4g}/{high:.4g} ms min/median/max over "
          f"{samples} samples, reference {calibration.REFERENCE_S * 1000:g} ms")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    summary = {
        "correct": code == 0 and res["failed"] == 0,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return summary


def per_layer(args, children: Children) -> dict:
    imports = {
        name: statistics.median(children.import_ms(module) for _ in range(IMPORT_RUNS))
        for name, module in (("geonet.import_ms", "geonet"), ("sweep.import_ms", "geonet.sweep"))
    }
    code, res, _ = children.workload(args, "trace")
    metrics = report("per_layer", {**res["layers"], **imports})
    for problem in res["prediction_failures"]:
        print(f"PREDICTION FAILED {problem}")
    attempted = res["untraced"]["ops"] + res["traced"]["ops"]
    failed = res["untraced"]["failed"] + res["traced"]["failed"]
    for failure in res["untraced"]["failures"] + res["traced"]["failures"]:
        print(f"FAILED {failure}")
    summary = {
        "correct": code == 0 and failed == 0 and not res["prediction_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geonet" / "__init__.py").is_file():
        print(f"error: no geonet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    children = Children(time.monotonic() + DEADLINE_S)
    print(machine_line(args), flush=True)
    try:
        if args.trace:
            summary = per_layer(args, children)
        else:
            children.workload(args, "setup")  # untimed: fills the bytecode cache
            setup = [setup_seconds(args, children) for _ in range(SETUP_RUNS)]
            print("setup runs (CPU s, scaled CPU s): "
                  + " ".join(f"{cpu:.4f}/{scaled:.4f}" for cpu, scaled in setup))
            summary = end_to_end(args, children, statistics.median(s for _, s in setup))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        work = ROOT / ".perfbench_work"
        for path in work.glob(f"{os.getpid()}-*"):
            shutil.rmtree(path, ignore_errors=True)
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
