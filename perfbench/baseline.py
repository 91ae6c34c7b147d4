"""Repeat the benchmark over seeds and summarise the spread of every metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --seeds 1 --trace --out perfbench/BASELINE.json

Runs perfbench/run.py once per workload and seed, one run at a time, with the
run length from BENCHMARK.json.  For each end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, beside the metric's
bound.  With --trace it records one traced run per workload instead.  Results
are merged into --out, so untraced and traced runs can be recorded apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        print("\n".join(lines), file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return lines[:-1], result


def spread_summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    out_path = Path(args.out)
    out = json.loads(out_path.read_text()) if out_path.is_file() else {}
    out["run_seconds"] = bench["run_seconds"]
    section = out.setdefault("per_layer" if args.trace else "end_to_end", {})
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    for workload in workloads:
        runs = []
        for seed in seeds:
            head, result = run(workload, seed, bench["run_seconds"], args.trace)
            out["machine"] = head[0]
            runs.append((seed, head, result))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
        if args.trace:
            seed, head, result = runs[0]
            section[workload] = {
                "seed": seed,
                "attempted": result["attempted"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            continue
        entry = {"seeds": seeds, "attempted": [r["attempted"] for _, _, r in runs],
                 "notes": [line for line in runs[0][1] if line.startswith(("op_tail_ms", "failed_ratio"))]}
        for m in wanted:
            values = [r["metrics"][m["name"]]["value"] for _, _, r in runs]
            entry[m["name"]] = spread_summary(values, m["bound"]) if len(values) > 1 else {"values": values}
            s = entry[m["name"]]
            if "spread" in s:
                flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
                print(f"  {m['name']}: median {s['median']:.5g} spread {s['spread']:.4f} "
                      f"(bound {m['bound']}) {flag}", flush=True)
        section[workload] = entry
    out_path.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
