"""Command-line interface.

Machine output (JSON lines, SVG, CSV) goes to stdout and only on success;
diagnostics go to stderr.  Exit codes: 0 success, 1 validation/computation
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .chords import ChordSet, enumerate_chord_sets, maximal_chord_sets
from .errors import GeonetError
from .io import network_to_dict, point_to_json, read_network, scalar_to_json
from .network import DEFAULT_TOL, is_admissible
from .render import RenderStyle, render_svg
from .replace import (
    MAX_AUDIT_BOUND,
    MAX_AUDIT_DEPTH,
    AuditVerdict,
    ReplacementProblem,
    certify_no_good_n3,
    good_network_audit,
    replacement_feasible,
    replacement_problem,
)
from .solver import build_system, positive_integer_solutions, solve


def _emit(obj) -> None:
    # strict JSON: a non-finite float raises before anything is printed
    print(json.dumps(obj, ensure_ascii=False, allow_nan=False))


def _problem_to_dict(problem: ReplacementProblem) -> dict:
    return {
        "positions": [point_to_json(p) for p in problem.positions],
        "mults": list(problem.exterior_mults),
    }


def _verdict_to_dict(verdict: AuditVerdict) -> dict:
    witness = verdict.witness
    if isinstance(witness, ReplacementProblem):
        witness_json = {"replacement_problem": _problem_to_dict(witness)}
    elif witness is None:
        witness_json = None
    else:
        witness_json = str(witness)
    return {
        "status": verdict.status,
        "depth": verdict.depth,
        "bound": verdict.bound,
        "detail": verdict.detail,
        "witness": witness_json,
    }


def _cmd_validate(args) -> int:
    net = read_network(args.network)
    report = is_admissible(net, mode=args.mode, tol=args.tol)
    if not report.admissible:
        for v in report.violations:
            print(f"violation: {v}", file=sys.stderr)
        print("network is not admissible", file=sys.stderr)
        return 1
    _emit(
        {
            "admissible": True,
            "stationary": report.stationary,
            "max_residual": report.max_residual,
            "crossings": report.crossings,
            "vertices": net.n_vertices,
            "edges": net.n_edges,
        }
    )
    return 0


def _cmd_enumerate(args) -> int:
    enumerate_sets = maximal_chord_sets if args.max_only else enumerate_chord_sets
    for cs in enumerate_sets(args.n, allow_adjacent=args.allow_adjacent):
        _emit({"n": cs.n, "chords": [list(c) for c in cs.chords]})
    return 0


def _cmd_solve(args) -> int:
    net = read_network(args.network)
    positions = [v.position for v in net.vertices]
    chords = ChordSet(net.n_vertices, tuple((e.i, e.j) for e in net.edges))
    fixed = (
        tuple(v.exterior_mult for v in net.vertices) if args.fix_exterior else None
    )
    system = build_system(positions, chords, fixed)
    result = solve(system)
    labels = (
        [] if fixed is not None else [f"exterior:{k}" for k in range(net.n_vertices)]
    ) + [f"edge:{i}-{j}" for i, j in system.edges.chords]
    out = {
        "unknowns": labels,
        "rank": result.rank,
        "nullity": result.nullity,
        "kernel": [[scalar_to_json(x) for x in vec] for vec in result.kernel_basis],
        "particular": (
            None
            if result.particular is None
            else [scalar_to_json(x) for x in result.particular]
        ),
        "fixed_exterior": list(fixed) if fixed is not None else None,
    }
    if args.bound is not None:
        out["positive_solutions"] = [
            list(sol) for sol in positive_integer_solutions(result, args.bound)
        ]
        out["bound"] = args.bound
    _emit(out)
    return 0


def _cmd_replace(args) -> int:
    net = read_network(args.network)
    problem = replacement_problem(net, args.vertex)
    found = replacement_feasible(problem, args.bound)
    _emit(
        {
            "problem": _problem_to_dict(problem),
            "bound": args.bound,
            "replacement": network_to_dict(found) if found is not None else None,
        }
    )
    return 0


def _cmd_audit(args) -> int:
    net = read_network(args.network)
    verdict = good_network_audit(net, depth=args.depth, bound=args.bound)
    _emit(_verdict_to_dict(verdict))
    return 0


def _cmd_certify_n3(args) -> int:
    verdict = certify_no_good_n3()
    _emit(_verdict_to_dict(verdict))
    return 0


def _cmd_sweep(args) -> int:
    # the only numpy user, imported here so the exact subcommands start without it
    from . import sweep as sw

    cfg = sw.SphereConfig(c=args.c)
    sweepout = sw.latitude_sweepout(args.samples)
    estimate = sw.minmax_estimate(sweepout, cfg)
    out = {
        "c": args.c,
        "samples": args.samples,
        "value": estimate.value,
        "argmax_phi": estimate.argmax_phi,
        "closed_form": sw.minmax_closed_form(cfg),
    }
    if args.flow:
        curve = sw.latitude_curve(math.pi / 2.0, args.points)
        final = sw.flow_to_cmc(curve, cfg, max_iters=args.max_iters)
        kappa_dev = max(abs(float(k) - cfg.c) for k in sw.curvature_profile(final))
        out["flow_curve"] = {
            "points": [[float(c) for c in p] for p in final.points],
            "final_c_length": sw.enclosed_c_length(final, cfg),
            "max_curvature_deviation": kappa_dev,
        }
    # written only once the flow has succeeded: no file on a failed run
    if args.emit_csv:
        with open(args.emit_csv, "w", encoding="utf-8") as fh:
            fh.write("t,phi,c_length\n")
            for t, phi in zip(sweepout.params.tolist(), sweepout.polar_angles.tolist()):
                fh.write(f"{t},{phi},{sw.c_length(sw.CapRegion(phi), cfg)}\n")
    _emit(out)
    return 0


def _cmd_render(args) -> int:
    net = read_network(args.network)
    style = RenderStyle(
        size=args.size, stroke_scale=args.stroke_scale, labels=args.labels
    )
    sys.stdout.write(render_svg(net, style))
    return 0


@functools.cache  # the _cmd_* functions look up their library calls at call time
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonet",
        description="Stationary weighted chord networks and sphere sweepouts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check admissibility of a network file")
    p.add_argument("--network", required=True)
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enumerate", help="list non-crossing chord sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-adjacent", action="store_true")
    p.add_argument("--max-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="solve the stationarity system of a network")
    p.add_argument("--network", required=True)
    p.add_argument(
        "--fix-exterior",
        action="store_true",
        help="treat the file's exterior multiplicities as fixed data",
    )
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("replace", help="search a replacement at a vertex")
    p.add_argument("--network", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--bound", type=int, default=50)
    p.set_defaults(func=_cmd_replace)

    p = sub.add_parser("audit", help="iterated-replacement audit")
    p.add_argument("--network", required=True)
    p.add_argument("--depth", type=int, default=MAX_AUDIT_DEPTH)
    p.add_argument("--bound", type=int, default=MAX_AUDIT_BOUND)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("certify-n3", help="symbolic three-vertex refutation")
    p.set_defaults(func=_cmd_certify_n3)

    p = sub.add_parser("sweep", help="latitude sweepout min-max on the sphere")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--flow", action="store_true")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--emit-csv", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="render a network to SVG")
    p.add_argument("--network", required=True)
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--stroke-scale", type=float, default=1.0)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=_cmd_render)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GeonetError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
