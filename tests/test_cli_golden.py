"""Byte-for-byte CLI replay against recorded output.

tests/data/cli_golden.json holds the stdout, stderr and exit code of a fixed
command set.  A change that alters any of them on purpose re-records the file
with

    PYTHONPATH=src:tests python tests/test_cli_golden.py

and says so in its change notes.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from geonet.cli import dispatch
from geonet.io import write_network
from helpers import (
    FAN_NETWORKS,
    float_line_network,
    golden_triangle,
    line_network,
    rectangle_network,
    square_network,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"

NETWORKS = {
    "line": line_network,
    "golden": golden_triangle,
    "rectangle": rectangle_network,
    "square": square_network,
    **FAN_NETWORKS,
    "float-line": float_line_network,
}
RAY_NETWORKS = ("line", "golden", "rectangle", "float-line")


def golden_commands() -> list[list[str]]:
    """argv lists; "{name}" stands for the path of that network's file."""
    commands = []
    for name in RAY_NETWORKS:
        net = NETWORKS[name]()
        for depth in (1, 2, 3, 4):
            commands.append(["audit", "--network", f"{{{name}}}", "--depth", str(depth), "--bound", "50"])
        for vertex in range(net.n_vertices):
            commands.append(["replace", "--network", f"{{{name}}}", "--vertex", str(vertex), "--bound", "50"])
    for name in NETWORKS:
        for extra in (["--bound", "20"], ["--bound", "100"], ["--bound", "7"], ["--fix-exterior", "--bound", "50"]):
            commands.append(["solve", "--network", f"{{{name}}}", *extra])
    for name in NETWORKS:
        for mode in ("auto", "exact", "float"):
            commands.append(["validate", "--network", f"{{{name}}}", "--mode", mode])
    commands.append(["enumerate", "--n", "5", "--max-only"])
    for n in (0, 1, 2, 3, 8, 13):
        commands.append(["enumerate", "--n", str(n), "--max-only"])
        if 1 <= n <= 8:
            commands.append(["enumerate", "--n", str(n), "--allow-adjacent", "--max-only"])
    commands.append(["certify-n3"])
    # each usage error (exit 2) runs just before a valid command, so a parser
    # that keeps state from a failed parse shows up in the next record
    usage_then_valid = [
        ([], ["replace", "--network", "{line}", "--vertex", "5"]),
        (["frobnicate"], ["render", "--network", "{golden}", "--labels"]),
        (["solve"], ["render", "--network", "{golden}", "--size", "10"]),
        (
            ["validate", "--network", "{line}", "--mode", "fuzzy"],
            ["enumerate", "--n", "6", "--allow-adjacent", "--max-only"],
        ),
        (["enumerate", "--n", "x"], ["validate", "--network", "{golden}"]),
    ]
    for usage, valid in usage_then_valid:
        commands.extend([usage, valid])
    # the README example, c = 0, a fine sweepout, a short flow and a refused c
    for argv in (
        ["--c", "1.0", "--samples", "101"],
        ["--c", "0", "--samples", "11"],
        ["--c", "2", "--samples", "1001"],
        ["--c", "1", "--samples", "40", "--flow", "--points", "32"],
        ["--c", "-1"],
        ["--c", "1", "--samples", "14"],  # pi*13/13 rounds above pi
    ):
        commands.append(["sweep", *argv])
    return commands


def replay(workdir: Path) -> list[dict]:
    paths = {}
    for name, build in NETWORKS.items():
        paths[name] = workdir / f"{name}.json"
        write_network(build(), paths[name])
    records = []
    for argv in golden_commands():
        concrete = [a.format(**{k: str(p) for k, p in paths.items()}) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its usage text to the terminal width read from COLUMNS
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            code = dispatch(concrete)
        records.append(
            {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    return records


def test_cli_matches_golden(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = replay(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert g == e, " ".join(e["argv"])


def test_golden_records_keep_the_stream_contract():
    """Machine output on stdout only on success; every exit-1 diagnostic goes
    through dispatch's "error: " path, except validate's violation report."""
    for r in json.loads(GOLDEN_PATH.read_text(encoding="utf-8")):
        argv, err = " ".join(r["argv"]), r["stderr"]
        if r["code"] == 0:
            assert err == "", argv
        else:
            assert r["stdout"] == "", argv
        if r["code"] == 1:
            *violations, last = err.splitlines()
            report = (
                r["argv"][0] == "validate"
                and violations
                and all(v.startswith("violation: ") for v in violations)
                and last == "network is not admissible"
            )
            assert err.startswith("error: ") or report, argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = replay(Path(tmp))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} commands to {GOLDEN_PATH}", file=sys.stderr)
