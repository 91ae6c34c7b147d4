"""Record the answers the benchmark checks its recorded workloads against.

    python3 perfbench/record_expected.py

Runs every pool instance of solve_grid and replace_search once with the
library in src/ and writes perfbench/expected.json.  Rerun it only when the
pools in workloads.py change: a faster library must reproduce the recorded
answers, not re-record them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def table(digests: list[str]) -> dict:
    default = Counter(digests).most_common(1)[0][0]
    return {
        "default": default,
        "other": {str(i): d for i, d in enumerate(digests) if d != default},
    }


def main() -> int:
    out = {"fingerprint": workloads.pools_fingerprint()}
    workdir = ROOT / ".perfbench_work" / "record"
    try:
        for name in workloads.RECORDED:
            wl = workloads.WORKLOADS[name](None, workdir)
            out[name] = {}
            for kind, pool in wl.pools.items():
                start = time.perf_counter()
                digests = []
                outcomes = Counter()
                for index in range(len(pool)):
                    op = (kind, index)
                    state: dict = {}
                    error = None
                    try:
                        wl.run(op, state)
                    except Exception as exc:
                        error = exc
                    status = wl.verify(op, state, error)
                    if status not in (workloads.OK, workloads.KNOWN_DEFECT):
                        print(f"{name} {op}: {status}", file=sys.stderr)
                        return 1
                    outcomes[status] += 1
                    digests.append(workloads.digest(wl.answer(op, state, error)))
                out[name][kind] = table(digests)
                print(f"{name}/{kind}: {len(pool)} instances, {len(set(digests))} distinct "
                      f"answers, {dict(outcomes)}, {time.perf_counter() - start:.1f}s",
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
