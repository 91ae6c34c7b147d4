"""End-to-end checks of the package's advertised guarantees.

Each test exercises one numbered guarantee and appends a one-line verdict to
the terminal summary (see conftest), so a full run prints a scoreboard.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from conftest import ACCEPTANCE_LINES
from geonet.chords import (
    audit_counting_argument,
    max_nonadjacent_chords,
    nonadjacent_max_recursive,
)
from geonet.chords import ChordSet
from geonet.circle import INFINITY, CirclePoint, tan_half_add, tan_half_sub
from geonet.exact import RadExpr
from geonet.network import (
    InteriorEdge,
    Vertex,
    invariant_report,
    is_admissible,
    is_stationary,
    make_network,
)
from geonet.replace import certify_no_good_n3, good_network_audit
from geonet.solver import (
    build_system,
    half_cos_sin,
    n3_closed_forms,
    n3_imaginary_kernel,
    normalize_vector,
    positive_integer_solutions,
    solve,
)
from geonet.sweep import (
    PolyCurve,
    SphereConfig,
    curvature_profile,
    curve_length,
    flow_to_cmc,
    latitude_curve,
    latitude_sweepout,
    minmax_estimate,
)
from helpers import (
    STATIONARY_FIXTURES,
    TAN_GRID,
    admissible_fan_rectangles,
    line_network,
    pt,
    random_domain_pair,
    seeded_rng,
)


def _record(num: int, fn):
    try:
        detail = fn()
    except BaseException as exc:
        ACCEPTANCE_LINES.append(f"criterion {num:02d}: FAIL - {exc}")
        raise
    ACCEPTANCE_LINES.append(f"criterion {num:02d}: PASS - {detail}")


def test_criterion_01_exhaustive_chord_bound():
    def inner():
        start = time.perf_counter()
        for n in range(1, 10):
            assert max_nonadjacent_chords(n) == max(n - 3, 0), n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        return f"exhaustive non-adjacent maximum equals max(N-3,0) for N=1..9 in {elapsed:.2f}s"

    _record(1, inner)


def test_criterion_02_recursion_matches_closed_form():
    def inner():
        for n in range(1, 21):
            value = nonadjacent_max_recursive(n)
            assert isinstance(value, int)
            assert value == max(n - 3, 0), n
        return "memoized recursion equals max(N-3,0) for N=1..20, exact integers"

    _record(2, inner)


def test_criterion_03_three_vertex_kernel():
    def inner():
        rng = seeded_rng(salt=9)
        triangle = ChordSet(3, ((0, 1), (0, 2), (1, 2)))
        for _ in range(200):
            u12, u23 = random_domain_pair(rng)
            a12 = CirclePoint.from_tan_half(u12)
            a23 = CirclePoint.from_tan_half(u23)
            kernel = n3_imaginary_kernel(a12, a23)
            c12 = RadExpr.of(half_cos_sin(u12)[0])
            c23 = RadExpr.of(half_cos_sin(u23)[0])
            c13 = RadExpr.of(half_cos_sin(tan_half_add(u12, u23))[0])
            want = normalize_vector((c13 * c23, -(c12 * c23), c12 * c13))
            neg = tuple(-RadExpr.of(x) for x in want)
            assert kernel == want or kernel == neg, (u12, u23)
            # the same triangle through the solver's own rational path: the
            # free-exterior system at 0, u12, u12 + u23 (integer chord
            # columns, fraction-free echelon) has the closed forms as kernel
            forms = n3_closed_forms(a12, a23)
            positions = [pt(0), a12, CirclePoint.from_tan_half(forms.tan13)]
            solved = solve(build_system(positions, triangle, None))
            closed = forms.exterior_vector + tuple(-x for x in forms.edge_vector)
            assert solved.kernel_basis == (normalize_vector(closed),), (u12, u23)
        return (
            "200 random exact instances: elimination kernel equals the closed-form "
            "vector up to sign, and the solved triangle's kernel equals the closed forms"
        )

    _record(3, inner)


def test_criterion_04_rationality_of_integer_instances():
    def inner():
        start = time.perf_counter()
        chords = ChordSet(3, ((0, 1), (0, 2), (1, 2)))
        anchor = CirclePoint.from_tan_half(Fraction(0))
        with_solutions = 0  # at bound 20
        found = []  # (t2, t3, smallest solution) at bound 100
        counterexamples = 0
        # rotation lets the first vertex sit at angle zero, so the search
        # space is all pairs of further grid points; one search at bound 100
        # also answers bound 20
        for t2, t3 in itertools.combinations(TAN_GRID, 2):
            positions = [
                anchor,
                CirclePoint.from_tan_half(t2),
                CirclePoint.from_tan_half(t3),
            ]
            system = build_system(positions, chords, None)
            solutions = positive_integer_solutions(solve(system), 100)
            if not solutions:
                continue
            found.append((t2, t3, solutions[0]))
            with_solutions += any(max(sol) <= 20 for sol in solutions)
            tans = [Fraction(0), t2, t3]
            for j, k in itertools.combinations(range(3), 2):
                span = tan_half_sub(tans[k], tans[j])
                if span is INFINITY or not isinstance(span, (int, Fraction)):
                    counterexamples += 1
        elapsed = time.perf_counter() - start
        # the half-angle rationality check must run on at least one instance
        assert found
        assert counterexamples == 0
        listed = "; ".join(
            f"tan-halves ({t2}, {t3}), solution {tuple(sol)}" for t2, t3, sol in found
        )
        return (
            f"{len(TAN_GRID) * (len(TAN_GRID) - 1) // 2} anchored instances, bound 20: "
            f"{with_solutions} admit positive integer solutions, "
            f"0 counterexamples to half-angle rationality in {elapsed:.1f}s; "
            f"bound 100: {len(found)} instance{'s' * (len(found) != 1)}, {listed}"
        )

    _record(4, inner)


def test_criterion_05_symbolic_certificate():
    def inner():
        start = time.perf_counter()
        verdict = certify_no_good_n3()
        elapsed = time.perf_counter() - start
        assert verdict.refuted
        assert str(verdict.witness) == "(3/4)·π"
        assert "not a rational point" in verdict.detail
        assert elapsed < 1.0
        again = certify_no_good_n3()
        assert (again.status, str(again.witness)) == (verdict.status, "(3/4)·π")
        return f"variable-free witness (3/4)·π classified irrational in {elapsed * 1000:.0f}ms, deterministic"

    _record(5, inner)


def test_criterion_06_counting_audit():
    def inner():
        start = time.perf_counter()
        reports = {n: audit_counting_argument(n) for n in range(4, 9)}
        elapsed = time.perf_counter() - start
        for n, report in reports.items():
            assert not report.survivors, n
        assert "12 > 10" in reports[4].inequality_witnesses["no-leaf"]
        for n in range(5, 9):
            assert f"{4 * n} > {4 * n - 6}" in reports[n].inequality_witnesses["no-leaf"]
        assert elapsed < 60.0
        total = sum(r.total for r in reports.values())
        return f"zero survivors across {total} structures on 4..8 points in {elapsed:.1f}s"

    _record(6, inner)


def test_criterion_07_two_vertex_classification():
    def inner():
        verdict = good_network_audit(line_network(1), depth=4, bound=20)
        assert verdict.good and verdict.depth == 4
        assert is_stationary(line_network(1))
        unequal = make_network(
            [Vertex(pt(0), 1), Vertex(pt(INFINITY), 2)], [InteriorEdge(0, 1, 1)]
        )
        assert not is_stationary(unequal)
        tilted = make_network(
            [Vertex(pt(0), 1), Vertex(pt(1), 1)], [InteriorEdge(0, 1, 1)]
        )
        assert not is_stationary(tilted)
        return "equal-multiplicity diameter survives depth-4 audit; unequal or non-antipodal pairs fail"

    _record(7, inner)


def test_criterion_08_global_identities():
    def inner():
        nets = {name: build() for name, build in STATIONARY_FIXTURES.items()}
        rectangles = admissible_fan_rectangles()
        # every fan rectangle is solved, so the balance and the mass gap are
        # checked on the library's own solutions, not on the fixtures alone
        assert len(rectangles) == 80
        nets.update((f"fan-rectangle-{k}", net) for k, net in enumerate(rectangles))
        for name, net in nets.items():
            assert is_admissible(net, mode="exact").admissible, name
            report = invariant_report(net)
            assert report.exact, name
            bx, by = report.exterior_balance
            assert bx.is_zero() and by.is_zero(), name
            assert report.mass_gap.is_zero(), name
        return (
            f"{len(nets)} admissible networks ({len(rectangles)} solved fan rectangles): "
            "ray resultant and mass identity vanish exactly"
        )

    _record(8, inner)


def test_criterion_09_minmax_closed_form():
    def inner():
        details = []
        for c in (0.0, 0.5, 1.0, 2.0):
            start = time.perf_counter()
            est = minmax_estimate(latitude_sweepout(1001), SphereConfig(c=c))
            elapsed = time.perf_counter() - start
            want = 2.0 * math.pi * (math.sqrt(1.0 + c * c) - c)
            assert abs(est.value - want) <= 1e-8, c
            cot = math.cos(est.argmax_phi) / math.sin(est.argmax_phi)
            assert abs(cot - c) <= 1e-6, c
            assert elapsed < 1.0, c
            details.append(f"c={c:g} err {abs(est.value - want):.1e}")
        return "2*pi*(sqrt(1+c^2)-c) within 1e-8, cot(argmax)=c within 1e-6: " + "; ".join(details)

    _record(9, inner)


def test_criterion_10_flow_convergence():
    def flow(start) -> str:
        trace: list = []
        final = flow_to_cmc(start, SphereConfig(c=1.0), max_iters=100_000, trace=trace)
        iterations = len(trace)
        assert iterations < 100_000
        deviation = float(max(abs(k - 1.0) for k in curvature_profile(final)))
        assert deviation < 1e-3
        length_err = abs(curve_length(final) - math.pi * math.sqrt(2.0))
        assert length_err < 1e-3
        return (
            f"in {iterations} iterations: max|kappa-1| = {deviation:.1e}, "
            f"length off by {length_err:.1e}"
        )

    def inner():
        # the equator has no non-round mode; a seeded perturbation gives the
        # flow's shortening term wiggles to damp
        noisy = latitude_curve(math.pi / 2, 128).points
        noisy = noisy + 0.01 * np.random.default_rng(7).standard_normal(noisy.shape)
        noisy /= np.linalg.norm(noisy, axis=1)[:, None]
        return (
            f"equator to c=1 {flow(latitude_curve(math.pi / 2, 256))}; "
            f"perturbed 128-point equator to c=1 {flow(PolyCurve(noisy))}"
        )

    _record(10, inner)


def test_criterion_11_solved_network_parity():
    def inner():
        # the multiplicities are the library's solutions, so parity is not
        # built in: a vertex of these rectangles may carry an odd exterior
        nets = admissible_fan_rectangles()
        odd_vertices = 0
        for net in nets:
            assert invariant_report(net).exterior_parity == "even"
            odd_vertices += sum(v.exterior_mult % 2 for v in net.vertices)
        assert odd_vertices > 0
        return (
            f"{len(nets)} solved admissible fan rectangles all report even exterior parity "
            f"({odd_vertices} odd exterior multiplicities among their vertices)"
        )

    _record(11, inner)
