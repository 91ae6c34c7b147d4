"""Workload inputs, library operations and answer checks.

Every workload is a closed loop with one caller: the next op is sent only
after the previous one returns.  Ops come in cycles with a fixed mix of op
kinds, and a run executes whole cycles, so the mix (and with it items per
second) does not depend on where the time window ends.

Instances come from fixed pools built here with the standard library only.
The seed picks instances from the pools and their order; it never reaches the
library, and neither does GEONET_SEED.  The answers for every pool instance
were recorded in expected.json (see record_expected.py), so every seed is
checked exactly, and independent checks (exact residuals, admissibility,
closed forms) run beside the recorded digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

OK = "ok"
# the exhaustive box walk refuses bound**nullity above SEARCH_BOX_CAP; the
# bound-50 hexagons hit it at this commit and stay in the mix on purpose
KNOWN_DEFECT = "known-defect"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def is_cap_error(exc: BaseException | None) -> bool:
    return isinstance(exc, ValueError) and "search box too large" in str(exc)


def lookup(table: dict, index: int) -> str:
    """Recorded digest of one pool instance; tables store the common value once."""
    return table["other"].get(str(index), table["default"])


def _sorted_by_angle(tans):
    # angle 2*atan(t) in [0, 2*pi): zero first, then positive t, then negative t
    return sorted(tans, key=lambda t: (t < 0, t))


def _tan_add(a: Fraction, b: Fraction) -> Fraction:
    # tan((x + y)/2) from tan(x/2) and tan(y/2); pools avoid a*b == 1
    return (a + b) / (1 - a * b)


# --- solve_grid ------------------------------------------------------------

# criterion 04's anchored grid: tan-halves +-p/q with p, q <= 10
GRID = sorted(
    {Fraction(s * p, q) for s in (1, -1) for p in range(1, 11) for q in range(1, 11)}
)
SOLVE_BOUNDS = {"triangle": 20, "quad": 20, "rectangle": 20, "pentagon": 20, "hexagon": 50}
SOLVE_SIZES = {"quad": (4, 96), "pentagon": (5, 32), "hexagon": (6, 16)}
RECTANGLE_TANS = tuple(Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5)))
SOLVE_CYCLE = (
    ("triangle", 120), ("quad", 4), ("rectangle", 1), ("pentagon", 1), ("hexagon", 1)
)


def fan_chords(n: int) -> tuple[tuple[int, int], ...]:
    """Polygon sides plus the diagonals from vertex 0, on angle-ordered points."""
    sides = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    return tuple(sorted(set(sides + [(0, k) for k in range(2, n - 1)])))


def solve_pools() -> dict[str, list[tuple[Fraction, ...]]]:
    pools = {
        "triangle": [(Fraction(0), a, b) for a, b in itertools.combinations(GRID, 2)]
    }
    for kind, (n, size) in SOLVE_SIZES.items():
        rng = random.Random(f"perfbench-pool:{kind}")
        pools[kind] = [
            tuple(_sorted_by_angle([Fraction(0)] + rng.sample(GRID, n - 1)))
            for _ in range(size)
        ]
    # fan-triangulated inscribed rectangles t, 1/t, -t, -1/t have rational
    # sides and most have positive solutions within bound 20 (the grid
    # instances have none), so every cycle checks real solutions
    pools["rectangle"] = [
        tuple(_sorted_by_angle([t, 1 / t, -t, -1 / t])) for t in RECTANGLE_TANS
    ]
    return pools


class SolveGrid:
    """build_system -> solve -> positive_integer_solutions, free exteriors."""

    name = "solve_grid"

    def __init__(self, expected: dict | None, workdir: Path):
        from geonet import chords, circle, solver

        self.solver = solver
        self.expected = expected["solve_grid"] if expected else None
        self.pools = solve_pools()
        points = {}
        chord_sets = {}
        self.instances = {}
        for kind, pool in self.pools.items():
            rows = []
            for tans in pool:
                for t in tans:
                    if t not in points:
                        points[t] = circle.CirclePoint.from_tan_half(t)
                n = len(tans)
                if n not in chord_sets:
                    chord_sets[n] = chords.ChordSet(n, fan_chords(n))
                rows.append(([points[t] for t in tans], chord_sets[n]))
            self.instances[kind] = rows

    def cycle(self, rng: random.Random) -> list:
        ops = [
            (kind, rng.randrange(len(self.pools[kind])))
            for kind, count in SOLVE_CYCLE
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op, state: dict) -> None:
        kind, index = op
        positions, chord_set = self.instances[kind][index]
        state["system"] = self.solver.build_system(positions, chord_set, None)
        state["result"] = self.solver.solve(state["system"])
        state["solutions"] = self.solver.positive_integer_solutions(
            state["result"], SOLVE_BOUNDS[op[0]]
        )

    def answer(self, op, state: dict, error) -> object:
        result = state.get("result")
        if result is None:
            return None
        if op[0] == "hexagon":
            # only rank and nullity are recorded: the search itself is the defect
            return [result.rank, result.nullity]
        if error is not None:
            return None
        return [result.rank, result.nullity, [list(s) for s in state["solutions"]]]

    def verify(self, op, state: dict, error) -> str:
        kind = op[0]
        if error is not None:
            if kind == "hexagon" and "result" in state and is_cap_error(error):
                return KNOWN_DEFECT
            return f"raised {error!r}"
        bound = SOLVE_BOUNDS[kind]
        for sol in state["solutions"]:
            if not all(isinstance(v, int) and 1 <= v <= bound for v in sol):
                return f"solution {sol} leaves [1, {bound}]"
            residual = self.solver.system_residual(state["system"], sol)
            if not all(r.is_zero() for r in residual):
                return f"solution {sol} does not solve the system"
        return OK

    def items(self, op, state: dict) -> int:
        return 1


# --- replace_search ---------------------------------------------------------

GOLDEN = (Fraction(0), Fraction(4, 3), Fraction(-24, 7))
GOLDEN_MULTS = (100, 56, 100)
# the golden triangle's edge multiplicities are 35, 75, 35, so its rays are
# feasible from bound 75 on; below that every three-ray search is exhausted
GOLDEN_BOUND = 75
RAY_BOUND = 50
PAIR_TANS = tuple(Fraction(p, q) for p, q in ((1, 2), (2, 3), (1, 4), (2, 5), (1, 6), (4, 5)))
# one three-pair configuration, mirrored or not, with several multiplicity
# triples: every six-ray search exhausts the same 2880 structures at the same
# cost, so the seed cannot move items_per_s through the instance it draws
SIX_RAY_TANS = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))
SIX_RAY_MULTS = ((1, 2, 3), (3, 5, 7), (2, 7, 4))
# CLI ops draw from the audit or the replace templates of the cli pool, so
# every cycle runs both commands and the seed picks only the file and flags
REPLACE_CYCLE = (
    ("six", 1), ("five", 2), ("four", 9), ("three", 3), ("audit", 2), ("replace", 1)
)

LINE = {"tans": (Fraction(0), None), "mults": (1, 1), "edges": ((0, 1, 1),)}
GOLDEN_TRIANGLE = {
    "tans": GOLDEN,
    "mults": GOLDEN_MULTS,
    "edges": ((0, 1, 35), (0, 2, 75), (1, 2, 35)),
}
RECTANGLE = {
    "tans": (Fraction(1, 2), Fraction(2), Fraction(-2), Fraction(-1, 2)),
    "mults": (5, 5, 5, 5),
    "edges": ((0, 1, 3), (2, 3, 3), (1, 2, 4), (0, 3, 4)),
}
NETWORK_FILES = {"line": LINE, "golden": GOLDEN_TRIANGLE, "rectangle": RECTANGLE}


def _antipodal(pairs):
    rays = []
    for t, m in pairs:
        rays += [(t, m), (-1 / t, m)]
    return rays


def replace_pools() -> dict[str, list]:
    """Ray problems as ((tan-half, multiplicity), ...) and CLI argv templates."""
    rotations = [Fraction(0)] + [
        Fraction(s * p, q) for s in (1, -1) for p, q in ((1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (1, 5))
    ]
    three = [
        tuple((_tan_add(t, r), m) for t, m in zip(GOLDEN, GOLDEN_MULTS)) for r in rotations
    ]
    rng = random.Random("perfbench-pool:four")
    four = []
    while len(four) < 32:
        t1, t2 = rng.sample(PAIR_TANS, 2)
        m1, m2 = rng.sample(range(1, 10), 2)
        four.append(tuple(_antipodal([(t1, m1), (t2, m2)])))
    five = [
        tuple(list(zip(GOLDEN, GOLDEN_MULTS)) + _antipodal([(t, m)]))
        for t in PAIR_TANS
        for m in (3, 7, 20, 41)
    ]
    six = [
        tuple(_antipodal([(sign * t, m) for t, m in zip(SIX_RAY_TANS, mults)]))
        for sign in (1, -1)
        for mults in SIX_RAY_MULTS
    ]
    cli = []
    for name, spec in NETWORK_FILES.items():
        for depth in (1, 2, 3, 4):
            cli.append(("audit", name, ("--depth", str(depth), "--bound", str(RAY_BOUND))))
        for vertex in range(len(spec["tans"])):
            cli.append(("replace", name, ("--vertex", str(vertex), "--bound", str(RAY_BOUND))))
    return {"three": three, "four": four, "five": five, "six": six, "cli": cli}


def network_json(spec: dict) -> dict:
    """A geonet/1 network document, written without the library's writer."""
    vertices = []
    for t, m in zip(spec["tans"], spec["mults"]):
        if t is None:  # the point at angle pi
            vertices.append({"angle": math.pi, "tan_half": "inf", "m": m})
        else:
            angle = (2.0 * math.atan(float(t))) % math.tau
            vertices.append({"angle": angle, "tan_half": [t.numerator, t.denominator], "m": m})
    edges = [{"i": i, "j": j, "m": m} for i, j, m in spec["edges"]]
    return {"version": "geonet/1", "vertices": vertices, "edges": edges}


def _network_answer(net) -> object:
    if net is None:
        return None
    return [
        [[str(v.position.tan_half), v.exterior_mult] for v in net.vertices],
        [[e.i, e.j, e.mult] for e in net.edges],
    ]


def _cli_answer(command: str, code: int, stdout: str) -> list:
    if code != 0:
        return [code]
    out = json.loads(stdout.strip().splitlines()[-1])
    if command == "audit":
        return [0, out["status"], out["depth"], out["bound"], out["detail"]]
    rep = out["replacement"]
    if rep is None:
        return [0, None]
    return [
        0,
        [[v["tan_half"], v["m"]] for v in rep["vertices"]],
        [[e["i"], e["j"], e["m"]] for e in rep["edges"]],
    ]


class ReplaceSearch:
    """replacement_feasible on balanced ray problems, plus CLI audit/replace."""

    name = "replace_search"

    def __init__(self, expected: dict | None, workdir: Path):
        from geonet import circle, cli, network, replace

        self.replace = replace
        self.network = network
        self.cli = cli
        self.expected = expected["replace_search"] if expected else None
        self.pools = replace_pools()
        self.problems = {}
        for kind in ("three", "four", "five", "six"):
            self.problems[kind] = [
                replace.ReplacementProblem(
                    tuple(circle.CirclePoint.from_tan_half(t) for t, _ in rays),
                    tuple(m for _, m in rays),
                )
                for rays in self.pools[kind]
            ]
        self.choices = {kind: range(len(pool)) for kind, pool in self.pools.items()}
        for command in ("audit", "replace"):
            self.choices[command] = [
                i for i, (c, _, _) in enumerate(self.pools["cli"]) if c == command
            ]
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for name, spec in NETWORK_FILES.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(network_json(spec), indent=2) + "\n", encoding="utf-8")
            self.files[name] = str(path)

    def cycle(self, rng: random.Random) -> list:
        ops = [
            ("cli" if kind in ("audit", "replace") else kind, rng.choice(self.choices[kind]))
            for kind, count in REPLACE_CYCLE
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op, state: dict) -> None:
        kind, index = op
        if kind == "cli":
            command, name, extra = self.pools["cli"][index]
            argv = [command, "--network", self.files[name], *extra]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                state["code"] = self.cli.dispatch(argv)
            state["stdout"] = out.getvalue()
            return
        bound = GOLDEN_BOUND if kind == "three" else RAY_BOUND
        state["network"] = self.replace.replacement_feasible(self.problems[kind][index], bound)

    def answer(self, op, state: dict, error) -> object:
        if error is not None:
            return None
        if op[0] == "cli":
            return _cli_answer(self.pools["cli"][op[1]][0], state["code"], state["stdout"])
        return _network_answer(state["network"])

    def verify(self, op, state: dict, error) -> str:
        if error is not None:
            return f"raised {error!r}"
        if op[0] == "cli":
            return OK
        net = state["network"]
        if net is not None and not self.network.is_admissible(net, mode="exact").admissible:
            return "returned network is not admissible"
        return OK

    def items(self, op, state: dict) -> int:
        return 1


# --- chord_census -----------------------------------------------------------

CENSUS_TOTALS = {4: 48, 5: 352, 6: 2880, 7: 25216, 8: 231168}
# audits per cycle: the median op is the middle one of sixteen n = 6 audits,
# so it has dozens of samples in a run, while n = 8 keeps most of the time
CENSUS_CYCLE = {4: 2, 5: 2, 6: 16, 7: 2, 8: 1}


class ChordCensus:
    """audit_counting_argument(n) for n = 4..8: pure chord enumeration."""

    name = "chord_census"

    def __init__(self, expected: dict | None, workdir: Path):
        from geonet import chords

        self.chords = chords

    def cycle(self, rng: random.Random) -> list:
        ops = [("census", n) for n, count in CENSUS_CYCLE.items() for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def run(self, op, state: dict) -> None:
        report = self.chords.audit_counting_argument(op[1])
        # keep counts only, so no report outlives its op
        state["summary"] = (
            report.total,
            len(report.survivors),
            report.forwarded_to_n3 + sum(report.kills.values()),
        )

    def answer(self, op, state: dict, error) -> object:
        return None if error is not None else list(state["summary"])

    def verify(self, op, state: dict, error) -> str:
        if error is not None:
            return f"raised {error!r}"
        total, survivors, classified = state["summary"]
        n = op[1]
        if total != CENSUS_TOTALS[n]:
            return f"n={n}: {total} structures, expected {CENSUS_TOTALS[n]}"
        if survivors:
            return f"n={n}: {survivors} survivors"
        if classified != total:
            return f"n={n}: {classified} of {total} structures classified"
        return OK

    def items(self, op, state: dict) -> int:
        return state["summary"][0]


# --- sphere_flow ------------------------------------------------------------

FLOWS = tuple((points, c) for points in (256, 512) for c in (0.5, 1.0, 2.0))
MINMAX_CS = (0.0, 0.5, 1.0, 2.0)
# each c is estimated three times a cycle on seeded sweepouts of 1001..1199
# samples, so the median op (a min-max estimate) has many samples in a run
MINMAX_REPEATS = 3


class SphereFlow:
    """flow_to_cmc from the equator, and minmax_estimate on the cap sweepout."""

    name = "sphere_flow"

    def __init__(self, expected: dict | None, workdir: Path):
        import numpy as np
        from geonet import sweep

        self.np = np
        self.sweep = sweep
        self.configs = {c: sweep.SphereConfig(c=c) for c in set(MINMAX_CS) | {c for _, c in FLOWS}}

    def equator(self, points: int, phase: float):
        lam = self.np.arange(points) * (2.0 * math.pi / points) + phase
        pts = self.np.stack([self.np.cos(lam), self.np.sin(lam), self.np.zeros(points)], axis=1)
        return self.sweep.PolyCurve(pts)

    def cycle(self, rng: random.Random) -> list:
        # the seed turns each starting equator by a fraction of its spacing
        ops = [
            ("flow", (points, c, self.equator(points, rng.random() * 2.0 * math.pi / points)))
            for points, c in FLOWS
        ]
        ops += [
            ("minmax", (samples, c, self.sweep.latitude_sweepout(samples)))
            for c in MINMAX_CS
            for samples in [1001 + 2 * rng.randrange(100) for _ in range(MINMAX_REPEATS)]
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op, state: dict) -> None:
        kind, (_, c, data) = op
        if kind == "flow":
            state["curve"] = self.sweep.flow_to_cmc(data, self.configs[c])
        else:
            state["estimate"] = self.sweep.minmax_estimate(data, self.configs[c])

    def answer(self, op, state: dict, error) -> object:
        return None

    def verify(self, op, state: dict, error) -> str:
        if error is not None:
            return f"raised {error!r}"
        kind, (points, c, _) = op
        if kind == "minmax":
            est = state["estimate"]
            want = 2.0 * math.pi * (math.sqrt(1.0 + c * c) - c)
            if abs(est.value - want) > 1e-8:
                return f"minmax c={c}: {est.value} against closed form {want}"
            cot = math.cos(est.argmax_phi) / math.sin(est.argmax_phi)
            if abs(cot - c) > 1e-6:
                return f"minmax c={c}: cot(argmax) = {cot}"
            return OK
        final = state["curve"]
        deviation = float(max(abs(k - c) for k in self.sweep.curvature_profile(final)))
        if deviation >= 1e-4:
            return f"flow {points}@c={c}: max|kappa-c| = {deviation}"
        # the limit latitude has cot(phi*) = c, so its length is 2*pi*sin(phi*)
        want = 2.0 * math.pi / math.sqrt(1.0 + c * c)
        length = self.sweep.curve_length(final)
        if abs(length - want) >= 1e-3:
            return f"flow {points}@c={c}: length {length} against {want}"
        return OK

    def items(self, op, state: dict) -> int:
        return 1 if op[0] == "flow" else 0


WORKLOADS = {
    cls.name: cls for cls in (SolveGrid, ReplaceSearch, ChordCensus, SphereFlow)
}
RECORDED = ("solve_grid", "replace_search")


def pools_fingerprint() -> str:
    """Digest of the recorded pools, so stale expectations are detected."""
    obj = {
        "solve_grid": {k: [[str(t) for t in v] for v in pool] for k, pool in solve_pools().items()},
        "replace_search": {
            k: [[[str(t), m] for t, m in rays] for rays in pool]
            for k, pool in replace_pools().items()
            if k != "cli"
        },
        "cli": [list(c) for c in replace_pools()["cli"]],
    }
    return digest(obj)


def load_expected() -> dict:
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    if data["fingerprint"] != pools_fingerprint():
        raise RuntimeError("expected.json was recorded for other pools; rerun record_expected.py")
    return data


def check(workload, op, state: dict, error) -> str:
    """OK, KNOWN_DEFECT, or the reason the op failed."""
    status = workload.verify(op, state, error)
    if status not in (OK, KNOWN_DEFECT) or workload.name not in RECORDED:
        return status
    want = lookup(workload.expected[op[0]], op[1])
    got = digest(workload.answer(op, state, error))
    if got != want:
        return f"answer digest {got} differs from recorded {want} for {op}"
    return status
