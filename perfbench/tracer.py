"""Per-layer tracing installed from the benchmark's own files.

A wrapper records a span around each call into a layer's public functions:
its name, start, end, parent span and op id.  A layer's self time is the
span's duration minus the time its child spans cover.  Counters are taken at
the same boundaries.  Each wrapper is installed on every binding of the
function in the geonet modules (for example geonet.replace.build_system as
well as geonet.solver.build_system), and RadExpr methods are patched on the
class.  RadExpr multiplication is only counted: a six-ray replacement search
makes about half a million of them, and a span around each would dominate
the traced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import is_cap_error

EXACT_ONLY = frozenset({"solve_grid", "replace_search"})
NOT_EXACT = frozenset({"chord_census", "sphere_flow"})
ALL = frozenset({"solve_grid", "replace_search", "chord_census", "sphere_flow"})

# metric: (workloads where it must be nonzero, workloads where it must be zero)
PREDICTIONS = {
    "exact.inverse.calls": (EXACT_ONLY, NOT_EXACT),
    # only the three-vertex closed forms and abs() reach RadExpr.sign, and no
    # workload calls them, so sign is predicted zero where the table says so
    "exact.sign.calls": (frozenset(), NOT_EXACT),
    "exact.mul.calls": (EXACT_ONLY, NOT_EXACT),
    "circle.tangent_components_exact.calls": (frozenset({"replace_search"}), NOT_EXACT),
    "linalg.rref.calls": (EXACT_ONLY, NOT_EXACT),
    "solver.build_system.calls": (EXACT_ONLY, NOT_EXACT),
    "solver.solve.calls": (EXACT_ONLY, NOT_EXACT),
    "solver.search.calls": (frozenset({"solve_grid"}), frozenset()),
    # replacement searches fix the exterior, so the box walk never hits the cap
    "solver.search.cap_errors": (frozenset(), frozenset({"replace_search"})),
    "chords.structures": (frozenset({"chord_census", "replace_search"}), frozenset()),
    "chords.census.calls": (frozenset({"chord_census"}), frozenset()),
    "replace.feasible.calls": (frozenset({"replace_search"}), frozenset({"solve_grid"})),
    # every replace_search cycle runs two CLI audits (see REPLACE_CYCLE)
    "replace.audit.calls": (frozenset({"replace_search"}), frozenset({"solve_grid"})),
    "network.is_admissible.calls": (frozenset({"replace_search"}), frozenset({"solve_grid"})),
    "network.canonical_key.calls": (frozenset({"replace_search"}), frozenset({"solve_grid"})),
    "io.read_network.calls": (frozenset({"replace_search"}), ALL - {"replace_search"}),
    "cli.dispatch.calls": (frozenset({"replace_search"}), ALL - {"replace_search"}),
    "sweep.flow.calls": (frozenset({"sphere_flow"}), ALL - {"sphere_flow"}),
    "sweep.minmax.calls": (frozenset({"sphere_flow"}), ALL - {"sphere_flow"}),
}


class Tracer:
    """Span stack with per-name self time; spans of leaf layers are only summed."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.stack = []  # [name, start, child_time, span index, nearest kept span]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.active = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.spans = []  # [name, start, end, parent span index, op id]

    def enter(self, name: str, keep: bool = True) -> None:
        parent = self.stack[-1][4] if self.stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        self.calls[name] += 1
        self.active[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0, index, index if keep else parent])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index, _ = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.active[name] -= 1
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _span(tracer: Tracer, name: str, fn, before=None, after=None, keep=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args, kwargs)
        tracer.enter(name, keep)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, None, exc)
            raise
        tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result, None)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        if tracer.enabled:
            tracer.counts[name] += 1
        return fn(*args)

    return wrapper


def _enumeration(tracer: Tracer, fn):
    """Time each step of the chord-set generator; its work runs on next()."""

    def steps(gen):
        while True:
            tracer.enter("chords.enumerate", keep=False)
            try:
                item = next(gen)
            except StopIteration:
                tracer.exit()
                return
            except BaseException:
                tracer.exit()
                raise
            tracer.exit()
            tracer.counts["chords.structures"] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        return steps(gen) if tracer.enabled else gen

    return wrapper


@functools.lru_cache(maxsize=None)
def _primes(d: int) -> frozenset:
    primes = set()
    p = 2
    while p * p <= d:
        while d % p == 0:
            primes.add(p)
            d //= p
        p += 1
    if d > 1:
        primes.add(d)
    return frozenset(primes)


def _inverse_primes(tr, args, kwargs):
    primes = set()
    for d in args[0].terms():
        primes |= _primes(d)
    if len(primes) > tr.maxima["exact.inverse.primes_max"]:
        tr.maxima["exact.inverse.primes_max"] = len(primes)


def _rref_pivots(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["linalg.rref.pivots"] += len(result[1])


def _isolated_structure(tr, args, kwargs):
    if tr.active["replace.feasible"]:
        if 0 in _arg(args, kwargs, 1, "edges").degrees():
            tr.counts["replace.structures_isolated"] += 1


def _solved_structure(tr, args, kwargs, result, exc):
    if tr.active["replace.feasible"] and result is not None:
        tr.counts["replace.structures_solved"] += 1
        if result.particular is not None:
            tr.counts["replace.structures_consistent"] += 1


def _search_effort(tr, args, kwargs, result, exc):
    if is_cap_error(exc):
        tr.counts["solver.search.cap_errors"] += 1
    elif result is not None:
        solved = _arg(args, kwargs, 0, "result")
        if solved.particular is not None:
            tr.counts["solver.search.candidates"] += _arg(args, kwargs, 1, "bound") ** solved.nullity


def _rows(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counts["chords.rows_retained"] += len(result.rows)


def _exit_code(tr, args, kwargs, result, exc):
    if result != 0:
        tr.counts["cli.dispatch.nonzero_exits"] += 1


def _flow_trace(tr, args, kwargs):
    if len(args) < 5 and kwargs.get("trace") is None:
        kwargs["trace"] = []


def _flow_iterations(tr, args, kwargs, result, exc):
    trace = _arg(args, kwargs, 4, "trace")
    if trace is not None:
        tr.counts["sweep.flow.iterations"] += len(trace)


# (module, function, span name, before hook, after hook)
FUNCTION_TARGETS = (
    ("geonet.circle", "tangent_components_exact", "circle.tangent_components_exact", None, None),
    ("geonet.linalg", "rref", "linalg.rref", None, _rref_pivots),
    ("geonet.solver", "build_system", "solver.build_system", _isolated_structure, None),
    ("geonet.solver", "solve", "solver.solve", None, _solved_structure),
    ("geonet.solver", "positive_integer_solutions", "solver.search", None, _search_effort),
    ("geonet.chords", "audit_counting_argument", "chords.census", None, _rows),
    ("geonet.replace", "replacement_feasible", "replace.feasible", None, None),
    ("geonet.replace", "good_network_audit", "replace.audit", None, None),
    ("geonet.network", "is_admissible", "network.is_admissible", None, None),
    ("geonet.network", "canonical_key", "network.canonical_key", None, None),
    ("geonet.io", "read_network", "io.read_network", None, None),
    ("geonet.cli", "dispatch", "cli.dispatch", None, _exit_code),
    ("geonet.sweep", "flow_to_cmc", "sweep.flow", _flow_trace, _flow_iterations),
    ("geonet.sweep", "minmax_estimate", "sweep.minmax", None, None),
)


def _rebind(original, replacement) -> int:
    """Replace every module-level binding of original in the geonet modules."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "geonet" and not name.startswith("geonet."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    import importlib

    for module in ("geonet", "geonet.cli", "geonet.sweep", "geonet.replace"):
        importlib.import_module(module)
    from geonet.chords import enumerate_chord_sets
    from geonet.exact import RadExpr

    inverse = RadExpr.__dict__["inverse"]
    RadExpr.inverse = _span(tracer, "exact.inverse", inverse, before=_inverse_primes, keep=False)
    RadExpr.sign = _span(tracer, "exact.sign", RadExpr.__dict__["sign"], keep=False)
    mul = RadExpr.__dict__["__mul__"]
    counted = _counted(tracer, "exact.mul.calls", mul)
    for attr in ("__mul__", "__rmul__"):
        if RadExpr.__dict__.get(attr) is mul:
            setattr(RadExpr, attr, counted)
    _rebind(enumerate_chord_sets, _enumeration(tracer, enumerate_chord_sets))
    for module, attr, name, before, after in FUNCTION_TARGETS:
        original = getattr(sys.modules[module], attr)
        _rebind(original, _span(tracer, name, original, before, after))


SPANS = ("exact.inverse", "exact.sign", "chords.enumerate") + tuple(
    name for _, _, name, _, _ in FUNCTION_TARGETS
)


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float,
                  untraced_flow_s: float) -> dict:
    """Per-layer values by metric name; run.py adds the import times.

    Every span gets <span>.calls and <span>.self_s, beside the counters.
    """
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    solved = counts["replace.structures_solved"]
    iterations = counts["sweep.flow.iterations"]
    values = {
        "exact.inverse.primes_max": tracer.maxima["exact.inverse.primes_max"],
        "exact.mul.calls": counts["exact.mul.calls"],
        "linalg.rref.pivots": counts["linalg.rref.pivots"],
        "solver.search.candidates": counts["solver.search.candidates"],
        "solver.search.cap_errors": counts["solver.search.cap_errors"],
        "chords.structures": counts["chords.structures"],
        "chords.rows_retained": counts["chords.rows_retained"],
        "replace.structures_solved": solved,
        "replace.structures_isolated": counts["replace.structures_isolated"],
        "replace.consistent_ratio": counts["replace.structures_consistent"] / solved if solved else 0.0,
        "cli.dispatch.nonzero_exits": counts["cli.dispatch.nonzero_exits"],
        "sweep.flow.iterations": iterations,
        "sweep.flow.s_per_iter": untraced_flow_s / iterations if iterations else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for span in SPANS:
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = self_s[span]
    return values


def prediction_failures(workload: str, values: dict) -> list[str]:
    out = []
    for name, (nonzero, zero) in PREDICTIONS.items():
        if workload in nonzero and not values[name]:
            out.append(f"{name} is 0 on {workload}, where the layer table predicts calls")
        if workload in zero and values[name]:
            out.append(f"{name} is {values[name]} on {workload}, where the layer table predicts 0")
    return out
