import math
import warnings

import numpy as np
import pytest

from geonet.errors import DomainError, NonConvergence
from geonet.sweep import (
    CURVATURE_STOP,
    MAX_C,
    CapRegion,
    PolyCurve,
    SphereConfig,
    Sweepout,
    c_length,
    curvature_profile,
    curve_length,
    enclosed_c_length,
    flow_to_cmc,
    latitude_curve,
    latitude_sweepout,
    minmax_closed_form,
    minmax_estimate,
)
from helpers import (
    loop_minmax_estimate,
    row_curvatures,
    row_curve_length,
    row_flow_to_cmc,
    turning_angles,
)


def test_config_validation():
    with pytest.raises(DomainError):
        SphereConfig(c=-0.5)
    with pytest.raises(DomainError):
        CapRegion(-0.1)
    with pytest.raises(DomainError):
        CapRegion(math.pi + 0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=lambda v: f"c-{v}")
def test_config_rejects_non_finite(value):
    with pytest.raises(DomainError, match="finite"):
        SphereConfig(c=value)


def test_sweepout_validation():
    with pytest.raises(DomainError):
        Sweepout([0.0, 0.0], [0.0, math.pi])
    with pytest.raises(DomainError):
        Sweepout([0.0, 1.0], [0.1, math.pi])
    with pytest.raises(DomainError):
        Sweepout([0.0, 1.0], [0.0, 3.0])
    sweep = latitude_sweepout(11)
    assert len(sweep.params) == len(sweep.polar_angles) == 11
    assert sweep.polar_angles[0] == 0.0
    assert sweep.polar_angles[-1] == math.pi
    with pytest.raises(DomainError):
        latitude_sweepout(2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["params", "polar_angles"])
def test_sweepout_rejects_non_finite(field, value):
    # a NaN parameter passed the strictly-increasing test, since b <= a is
    # False when either side is NaN
    fields = {"params": [0.0, 0.5, 1.0], "polar_angles": [0.0, 1.0, math.pi]}
    fields[field][1] = value
    with pytest.raises(DomainError, match="finite"):
        Sweepout(**fields)


def test_sweepout_checks_shape_and_angle_range():
    with pytest.raises(DomainError, match="one polar angle per parameter"):
        Sweepout([0.0, 0.5, 1.0], [0.0, math.pi])
    with pytest.raises(DomainError, match="one polar angle per parameter"):
        Sweepout([[0.0, 1.0]], [[0.0, math.pi]])
    with pytest.raises(DomainError, match="strictly increase"):
        Sweepout([0.0], [math.pi])
    with pytest.raises(DomainError, match=r"\[0, pi\]"):
        Sweepout([0.0, 0.5, 1.0], [0.0, -0.1, math.pi])
    with pytest.raises(DomainError, match=r"\[0, pi\]"):
        Sweepout([0.0, 1.0], [0.0, math.nextafter(math.pi, 4.0)])


def test_sweepout_holds_read_only_copies():
    params, angles = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, math.pi])
    sweep = Sweepout(params, angles)
    params[1] = angles[1] = 0.25
    assert sweep.params.tolist() == [0.0, 0.5, 1.0]
    assert sweep.polar_angles.tolist() == [0.0, 1.0, math.pi]
    for field in (sweep.params, sweep.polar_angles):
        assert field.dtype == np.float64
        with pytest.raises(ValueError):
            field[0] = 0.5


def test_latitude_sweepout_ends_exactly_at_pi():
    # pi*(n - 1)/(n - 1) rounds above pi first at n = 14, 27, 48, 53, 84
    for n in range(3, 2001):
        sweep = latitude_sweepout(n)
        assert sweep.params.tolist() == [k / (n - 1) for k in range(n)], n
        angles = sweep.polar_angles.tolist()
        assert angles[:-1] == [math.pi * k / (n - 1) for k in range(n - 1)], n
        assert angles[-1] == math.pi, n


def test_c_length_special_values():
    cfg = SphereConfig(c=1.0)
    assert c_length(CapRegion(0.0), cfg) == 0.0
    # at the equator the boundary term and area term cancel exactly for c = 1
    assert c_length(CapRegion(math.pi / 2), cfg) == pytest.approx(0.0)
    assert c_length(CapRegion(math.pi), cfg) == pytest.approx(-4.0 * math.pi)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("phi", [0.2, 0.7, 1.1, 1.9, 2.6])
def test_c_length_derivative(c, phi):
    # d/dphi of the cap functional is 2*pi*cos(phi) - 2*pi*c*sin(phi)
    cfg = SphereConfig(c=c)
    h = 1e-6
    numeric = (c_length(CapRegion(phi + h), cfg) - c_length(CapRegion(phi - h), cfg)) / (2 * h)
    exact = 2 * math.pi * math.cos(phi) - 2 * math.pi * c * math.sin(phi)
    assert numeric == pytest.approx(exact, abs=1e-5)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0])
def test_minmax_matches_closed_form(c):
    cfg = SphereConfig(c=c)
    est = minmax_estimate(latitude_sweepout(64), cfg)
    assert est.value == pytest.approx(minmax_closed_form(cfg), abs=1e-10)
    expected_phi = math.pi / 2 if c == 0 else math.atan2(1.0, c)
    assert est.argmax_phi == pytest.approx(expected_phi, abs=1e-6)


@pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 2.0, 1e3])
def test_minmax_matches_loop_oracle(c):
    # the whole-array argmax picks the sample that the per-sample loop picks
    cfg = SphereConfig(c=c)
    for n in [*range(3, 401), *range(1001, 1200)]:
        sweep = latitude_sweepout(n)
        assert minmax_estimate(sweep, cfg) == loop_minmax_estimate(sweep, cfg), n


@pytest.mark.parametrize("c", [1e9, 1e20, 1e154, MAX_C])
def test_minmax_matches_closed_form_at_large_c(c):
    # the max sits at cot(phi) = c, where the value is about pi/c
    cfg = SphereConfig(c=c)
    closed = minmax_closed_form(cfg)
    assert closed == pytest.approx(math.pi / c, rel=1e-15)
    est = minmax_estimate(latitude_sweepout(1001), cfg)
    assert est.value == pytest.approx(closed, rel=1e-14)
    assert est.argmax_phi == pytest.approx(math.atan2(1.0, c), rel=1e-6)


def test_minmax_refines_around_the_best_sample_of_a_non_monotone_sweepout():
    # the angles do not increase: the best sample (angle 0.6) lies outside
    # [2.5, pi], the span of its neighbours' angles
    cfg = SphereConfig(c=1.0)
    sweep = Sweepout([0.0, 0.3, 0.6, 1.0], [0.0, 2.5, 0.6, math.pi])
    best_sample = max(c_length(CapRegion(phi), cfg) for phi in sweep.polar_angles)
    est = minmax_estimate(sweep, cfg)
    assert est.value >= best_sample
    assert est.value == pytest.approx(minmax_closed_form(cfg), abs=1e-10)
    assert est.argmax_phi == pytest.approx(math.pi / 4, abs=1e-6)
    assert est == loop_minmax_estimate(sweep, cfg)


def test_c_length_of_a_small_cap():
    # 1 - cos(phi) cancels to zero at phi = 1e-9; 2 sin(phi/2)^2 does not
    cfg = SphereConfig(c=1e9)
    assert c_length(CapRegion(1e-9), cfg) == pytest.approx(math.pi * 1e-9, rel=1e-12)


def test_config_rejects_unresolvable_c():
    SphereConfig(c=MAX_C)
    for c in (math.nextafter(MAX_C, math.inf), 1e308):
        with pytest.raises(DomainError, match="at most"):
            SphereConfig(c=c)


def test_polycurve_validation():
    with pytest.raises(DomainError):
        PolyCurve(np.eye(3))  # too few points
    bad = latitude_curve(0.4).points * 1.01
    with pytest.raises(DomainError):
        PolyCurve(bad)
    dup = latitude_curve(0.4).points.copy()
    dup[3] = dup[4]
    with pytest.raises(DomainError):
        PolyCurve(dup)


def test_latitude_curve_geometry():
    phi = 0.9
    curve = latitude_curve(phi, 128)
    assert len(curve) == 128
    assert np.allclose(np.linalg.norm(curve.points, axis=1), 1.0)
    assert np.allclose(curve.points[:, 2], math.cos(phi))


@pytest.mark.parametrize("phi", [0.4, math.pi / 4, math.pi / 2, 2.0])
def test_latitude_length(phi):
    curve = latitude_curve(phi, 256)
    assert curve_length(curve) == pytest.approx(2 * math.pi * math.sin(phi), rel=1e-4)


def test_latitude_curvature():
    quarter = latitude_curve(math.pi / 4, 256)
    profile = curvature_profile(quarter)
    assert profile[17] == pytest.approx(1.0, abs=5e-3)
    equator = latitude_curve(math.pi / 2, 256)
    assert abs(curvature_profile(equator)[0]) < 1e-7
    assert np.ptp(profile) < 1e-9  # rotational symmetry


@pytest.mark.parametrize("phi", [0.5, math.pi / 2, 2.2])
def test_turning_angles_gauss_bonnet(phi):
    curve = latitude_curve(phi, 256)
    total = float(np.sum(turning_angles(curve)))
    # total turning + enclosed area = 2*pi on the unit sphere
    area = 2 * math.pi * (1 - math.cos(phi))
    assert total == pytest.approx(2 * math.pi - area, abs=1e-3)
    if phi < math.pi / 2:
        assert np.all(turning_angles(curve) > 0)


@pytest.mark.parametrize("phi", [0.6, 1.2, 2.1])
def test_enclosed_c_length_matches_cap_formula(phi):
    cfg = SphereConfig(c=0.8)
    curve = latitude_curve(phi, 256)
    assert enclosed_c_length(curve, cfg) == pytest.approx(
        c_length(CapRegion(phi), cfg), abs=1e-3
    )


def test_flow_validation():
    cfg = SphereConfig(c=1.0)
    with pytest.raises(DomainError):
        flow_to_cmc(latitude_curve(1.0, 16), cfg)


def test_flow_takes_max_iters_and_trace_by_keyword():
    # a positional third argument is refused, not bound to max_iters
    with pytest.raises(TypeError):
        flow_to_cmc(latitude_curve(1.0, 64), SphereConfig(c=1.0), 0.05, 1)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_flow_rejects_max_iters_below_one(max_iters):
    with pytest.raises(DomainError, match="max_iters must be at least 1"):
        flow_to_cmc(latitude_curve(1.0, 64), SphereConfig(c=1.0), max_iters=max_iters)


def test_flow_equator_fixed_for_c_zero():
    trace: list = []
    final = flow_to_cmc(latitude_curve(math.pi / 2, 64), SphereConfig(c=0.0), trace=trace)
    assert len(trace) == 1  # already at the target
    assert np.allclose(final.points[:, 2], 0.0, atol=1e-12)


def _assert_at_target_latitude(final: PolyCurve, c: float):
    target_phi = math.atan2(1.0, c)
    assert curve_length(final) == pytest.approx(2 * math.pi * math.sin(target_phi), abs=1e-3)
    kappa = curvature_profile(final)
    assert float(np.max(np.abs(kappa - c))) < 1e-3
    # the limit is a single latitude, not just a curve of the right length
    assert np.ptp(final.points[:, 2]) < 1e-3


def test_flow_equator_to_cmc_one():
    trace: list = []
    final = flow_to_cmc(latitude_curve(math.pi / 2, 256), SphereConfig(c=1.0), trace=trace)
    _assert_at_target_latitude(final, 1.0)
    values = [entry["c_length"] for entry in trace]
    diffs = np.diff(values)
    assert np.min(diffs) > -1e-9  # ascent of the weighted length, up to roundoff
    assert values[-1] == pytest.approx(minmax_closed_form(SphereConfig(c=1.0)), abs=2e-3)


def test_traced_c_length_matches_enclosed_c_length():
    cfg = SphereConfig(c=1.0)
    rng = np.random.default_rng(3)
    pts = latitude_curve(1.0, 64).points + 0.01 * rng.standard_normal((64, 3))
    start = PolyCurve(pts / np.linalg.norm(pts, axis=1)[:, None])
    trace: list = []
    with pytest.raises(NonConvergence):
        flow_to_cmc(start, cfg, max_iters=3, trace=trace)
    assert trace[0]["c_length"] == enclosed_c_length(start, cfg)
    trace = []
    final = flow_to_cmc(latitude_curve(math.pi / 2, 64), cfg, trace=trace)
    assert trace[-1]["c_length"] == enclosed_c_length(final, cfg)


def test_flow_from_small_cap():
    final = flow_to_cmc(latitude_curve(0.3, 256), SphereConfig(c=1.0))
    _assert_at_target_latitude(final, 1.0)


def test_flow_from_noisy_start():
    rng = np.random.default_rng(7)
    pts = latitude_curve(math.pi / 2, 128).points
    pts = pts + 0.01 * rng.standard_normal(pts.shape)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    final = flow_to_cmc(PolyCurve(pts), SphereConfig(c=0.5))
    kappa = curvature_profile(final)
    assert float(np.max(np.abs(kappa - 0.5))) < 1e-3
    # the noise can tilt the limit circle's axis, so fit the axis first and
    # check roundness about it: a latitude has constant height along its axis
    axis = np.mean(final.points, axis=0)
    axis /= np.linalg.norm(axis)
    heights = final.points @ axis
    assert np.ptp(heights) < 1e-3
    assert np.mean(heights) == pytest.approx(math.cos(math.atan2(1.0, 0.5)), abs=1e-3)


def test_flow_nonconvergence_keeps_best():
    with pytest.raises(NonConvergence) as info:
        flow_to_cmc(latitude_curve(math.pi / 2, 64), SphereConfig(c=1.0), max_iters=5)
    assert isinstance(info.value.best, PolyCurve)
    assert len(info.value.best) == 64


def test_flow_round_step_is_capped_at_the_spacing():
    # from the equator at c = 100 the drive asks for ten spacings in one
    # step; the step is one spacing, so the curve moves atan(spacing) north
    n = 64
    with pytest.raises(NonConvergence) as info:
        flow_to_cmc(latitude_curve(math.pi / 2, n), SphereConfig(c=100.0), max_iters=2)
    spacing = curve_length(latitude_curve(math.pi / 2, n)) / n
    polar = np.arccos(info.value.best.points[:, 2])
    assert polar == pytest.approx(math.pi / 2 - math.atan(spacing), abs=1e-12)


def test_flow_at_unresolvable_c_raises_without_warnings():
    # the target circle at c = 1e300 is far below float resolution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            flow_to_cmc(latitude_curve(math.pi / 2, 32), SphereConfig(c=1e300), max_iters=2000)


def test_flow_stop_threshold_is_strict():
    final = flow_to_cmc(latitude_curve(math.pi / 2, 256), SphereConfig(c=1.0))
    kappa = curvature_profile(final)
    assert float(np.max(np.abs(kappa - 1.0))) < CURVATURE_STOP


# --- the (3, n) flow against the (n, 3) oracle, bit for bit --------------

def _noisy_equator(n: int, seed: int) -> PolyCurve:
    rng = np.random.default_rng(seed)
    pts = latitude_curve(math.pi / 2, n).points
    pts = pts + 0.01 * rng.standard_normal(pts.shape)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return PolyCurve(pts)


def _flow_record(flow, curve, cfg, **kwargs):
    """Final (or best) points as bytes, the trace, and the error message."""
    trace: list = []
    try:
        final, error = flow(curve, cfg, trace=trace, **kwargs), None
    except NonConvergence as exc:
        final, error = exc.best, str(exc)
    assert final.points.shape == curve.points.shape
    return final.points.tobytes(), trace, error


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [32, 64, 256])
def test_flow_matches_row_oracle_from_the_equator(n, c):
    curve, cfg = latitude_curve(math.pi / 2, n), SphereConfig(c=c)
    got = _flow_record(flow_to_cmc, curve, cfg)
    assert got[2] is None
    assert got == _flow_record(row_flow_to_cmc, curve, cfg)


def test_flow_matches_row_oracle_from_noisy_start():
    curve, cfg = _noisy_equator(128, seed=7), SphereConfig(c=0.5)
    assert _flow_record(flow_to_cmc, curve, cfg) == _flow_record(row_flow_to_cmc, curve, cfg)


@pytest.mark.parametrize(
    "n, c, max_iters, best_at",
    [
        (64, 1.0, 5, 4),  # still descending: the last iterate is the best
        (32, 1e3, 300, 69),  # the deviation swings: the best lies far back
        (32, 1e300, 2000, 0),  # non-finite at iteration 77: the start is the best
    ],
)
def test_flow_best_iterate_matches_row_oracle(n, c, max_iters, best_at):
    curve, cfg = latitude_curve(math.pi / 2, n), SphereConfig(c=c)
    got = _flow_record(flow_to_cmc, curve, cfg, max_iters=max_iters)
    assert got == _flow_record(row_flow_to_cmc, curve, cfg, max_iters=max_iters)
    deviations = [entry["max_deviation"] for entry in got[1]]
    assert deviations.index(min(deviations)) == best_at


@pytest.mark.parametrize(
    "curve",
    [latitude_curve(0.4, 64), latitude_curve(math.pi / 2, 256), latitude_curve(2.6, 33),
     _noisy_equator(128, seed=3)],
    ids=["cap", "equator", "odd-count", "noisy"],
)
def test_curve_measures_match_row_oracle(curve):
    kappa, turning, _, _, length = row_curvatures(curve.points)
    assert curvature_profile(curve).tobytes() == kappa.tobytes()
    assert turning_angles(curve).tobytes() == turning.tobytes()
    assert curve_length(curve) == row_curve_length(curve) == length
    cfg = SphereConfig(c=0.8)
    area = 2.0 * math.pi - float(np.sum(turning))
    assert enclosed_c_length(curve, cfg) == length - 0.8 * area
