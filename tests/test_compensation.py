"""Tests for misalignment estimation, collection planning, and the controller."""

import math

import numpy as np
import pytest

from mdiqkd_polcomp import compensation as comp
from mdiqkd_polcomp import polarization as pol


# ---------------------------------------------------------------------------
# Collection planner
# ---------------------------------------------------------------------------

def test_plan_collection_example_counts():
    plan = comp.plan_collection(p_hat=9e-4, epsilon=0.5, delta=0.3, rate=1.4e3)
    # Oracle: ceil((2 + 0.5) * ln(2 / 0.3) / (9e-4 * 0.25)) = 21080.
    assert plan.n_min == 21080
    assert 20_900 <= plan.n_min <= 21_300
    assert plan.t_min == pytest.approx(21080 / 1400, rel=1e-12)
    assert 14.9 <= plan.t_min <= 15.3


def test_plan_collection_is_tightest_integer():
    plan = comp.plan_collection(p_hat=9e-4, epsilon=0.5, delta=0.3)
    assert plan.t_min is None
    assert comp.chernoff_failure_bound(plan.n_min, 9e-4, 0.5) <= 0.3
    assert comp.chernoff_failure_bound(plan.n_min - 1, 9e-4, 0.5) > 0.3


def test_plan_collection_rate_scaling():
    slow = comp.plan_collection(9e-4, 0.5, 0.3, rate=1.4e3)
    fast = comp.plan_collection(9e-4, 0.5, 0.3, rate=2.8e3)
    assert fast.n_min == slow.n_min
    assert fast.t_min == pytest.approx(slow.t_min / 2)


@pytest.mark.parametrize("kwargs", [
    dict(p_hat=0.0, epsilon=0.5, delta=0.3),
    dict(p_hat=1.0, epsilon=0.5, delta=0.3),
    dict(p_hat=9e-4, epsilon=0.0, delta=0.3),
    dict(p_hat=9e-4, epsilon=0.5, delta=0.0),
    dict(p_hat=9e-4, epsilon=0.5, delta=1.0),
    dict(p_hat=9e-4, epsilon=0.5, delta=0.3, rate=0.0),
    dict(p_hat=9e-4, epsilon=math.nan, delta=0.3),
    dict(p_hat=9e-4, epsilon=math.inf, delta=0.3),
    # p_hat eps^2 underflows to 0, or n_min overflows.
    dict(p_hat=9e-4, epsilon=1e-200, delta=0.3),
    dict(p_hat=9e-4, epsilon=1e-160, delta=0.3),
    dict(p_hat=9e-4, epsilon=0.5, delta=0.3, rate=math.nan),
    dict(p_hat=9e-4, epsilon=0.5, delta=0.3, rate=math.inf),
    # A finite n_min over a tiny rate overflows.
    dict(p_hat=1e-300, epsilon=0.5, delta=0.3, rate=1e-300),
])
def test_plan_collection_rejects_bad_inputs(kwargs):
    with pytest.raises(comp.CompensationError):
        comp.plan_collection(**kwargs)


def test_chernoff_coverage_not_violated():
    # With n_min samples, the empirical chance that the estimate misses
    # p_hat by more than epsilon*p_hat must not exceed delta.
    p_hat, epsilon, delta = 9e-4, 0.5, 0.3
    plan = comp.plan_collection(p_hat, epsilon, delta)
    rng = np.random.default_rng(1234)
    draws = rng.binomial(plan.n_min, p_hat, size=10_000) / plan.n_min
    miss = np.mean(np.abs(draws - p_hat) >= epsilon * p_hat)
    assert miss <= delta


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------

def _window(entries):
    window = comp.EstimatorWindow(duration=15.0)
    for basis, label, n_err, n_max in entries:
        window.add(basis, label, n_err, n_max)
    return window


def test_estimate_published_precision_point():
    window = _window([("Z", "H", 9, 10_000)])
    est = comp.estimate_theta(window)
    assert est.theta_z == pytest.approx(math.asin(math.sqrt(9 / 10_000)), abs=1e-12)
    assert est.theta_z == pytest.approx(0.0300, abs=5e-5)


def test_estimate_zero_errors_gives_zero_angle():
    est = comp.estimate_theta(_window([("Z", "H", 0, 5000), ("X", "D", 0, 5000)]))
    assert est.theta_z == 0.0
    assert est.theta_x == 0.0


def test_estimate_pools_before_transform():
    est = comp.estimate_theta(_window([("Z", "H", 4, 1000), ("Z", "V", 5, 9000)]))
    assert est.theta_z == pytest.approx(math.asin(math.sqrt(9 / 10_000)), abs=1e-12)


def test_estimate_unavailable_basis_is_none():
    est = comp.estimate_theta(_window([("Z", "H", 3, 1000)]))
    assert est.theta_x is None
    assert est.theta_z is not None
    assert est.error_signal() == pytest.approx(est.theta_z)
    empty = comp.estimate_theta(comp.EstimatorWindow(duration=15.0))
    assert empty.theta_z is None and empty.theta_x is None
    assert empty.error_signal() is None
    assert not comp.should_trigger(empty, comp.ControllerConfig())


def test_estimate_clips_excess_errors_to_quarter_turn():
    est = comp.estimate_theta(_window([("Z", "H", 1200, 1000)]))
    assert est.theta_z == pytest.approx(math.pi / 2)


def test_estimator_window_rejects_bad_entries():
    window = comp.EstimatorWindow(duration=15.0)
    with pytest.raises(comp.CompensationError):
        window.add("Q", "H", 1, 10)
    with pytest.raises(comp.CompensationError):
        window.add("Z", "H", -1, 10)


def test_estimator_matches_binomial_oracle():
    # Frozen channel at theta = 0.2, windows of 21 000 reference counts:
    # the estimator mean lands within 0.01 of the true angle and the
    # spread agrees with the delta-method binomial prediction.
    theta, n_max = 0.2, 21_000
    p = math.sin(theta) ** 2
    rng = np.random.default_rng(77)
    estimates = []
    for _ in range(400):
        n_err = rng.binomial(n_max, p)
        est = comp.estimate_theta(_window([("Z", "H", n_err, n_max)]))
        estimates.append(est.theta_z)
    estimates = np.asarray(estimates)
    assert abs(estimates.mean() - theta) < 0.01
    predicted_std = math.sqrt(p * (1 - p) / n_max) / (2 * math.sin(theta) * math.cos(theta))
    assert 0.5 * predicted_std < estimates.std() < 1.5 * predicted_std


def test_estimator_bias_vanishes_at_large_counts():
    theta, n_max = 0.2, 100_000
    p = math.sin(theta) ** 2
    rng = np.random.default_rng(88)
    draws = rng.binomial(n_max, p, size=2000) / n_max
    mean_estimate = np.mean(np.arcsin(np.sqrt(draws)))
    assert abs(mean_estimate - theta) < 0.005


def test_reference_tracker_seeding_and_trailing_average():
    tracker = comp.ReferenceTracker(smoothing=0.3)
    # A state's first observation seeds its reference as it is.
    assert tracker.update(("Z", "H"), 1000.0) == 1000.0
    updated = tracker.update(("Z", "H"), 2000.0)
    assert updated == pytest.approx(0.7 * 1000.0 + 0.3 * 2000.0)
    assert tracker.update(("X", "D"), 400.0) == 400.0   # states are independent
    with pytest.raises(comp.CompensationError):
        comp.ReferenceTracker(smoothing=0.0)


# ---------------------------------------------------------------------------
# Trigger rule
# ---------------------------------------------------------------------------

def test_trigger_thresholds():
    cfg = comp.ControllerConfig(threshold=0.13)

    def est(tz, tx):
        return comp.MisalignmentEstimate(theta_z=tz, theta_x=tx)

    assert not comp.should_trigger(est(0.05, 0.05), cfg)
    assert comp.should_trigger(est(0.14, 0.02), cfg)
    assert not comp.should_trigger(est(0.13, 0.13), cfg)   # strictly above only
    assert comp.should_trigger(est(None, 0.14), cfg)


# ---------------------------------------------------------------------------
# Controller steps
# ---------------------------------------------------------------------------

def _est(tz, tx):
    return comp.MisalignmentEstimate(theta_z=tz, theta_x=tx)


def test_idle_below_threshold_leaves_bank_untouched():
    cfg, state, bank = comp.ControllerConfig(), comp.ControllerState(), pol.SqueezerBank()
    state.last_error = 0.2
    record = comp.control_step(state, _est(0.05, 0.05), cfg, bank)
    assert record is None
    assert np.all(bank.retardances == 0.0)
    assert state.last_error is None            # idle closes the episode


def test_step_magnitude_is_gain_times_blended_error():
    cfg, state, bank = comp.ControllerConfig(), comp.ControllerState(), pol.SqueezerBank()
    record = comp.control_step(state, _est(0.25, 0.15), cfg, bank)
    assert record is not None
    assert record.error == pytest.approx(0.2)
    assert record.squeezer == 0
    assert record.delta == pytest.approx(0.55 * 0.2)
    assert bank.retardances[0] == pytest.approx(0.11)


def test_zero_gain_controller_is_inert():
    cfg = comp.ControllerConfig(alpha=0.0)
    state, bank = comp.ControllerState(), pol.SqueezerBank()
    record = comp.control_step(state, _est(0.3, 0.3), cfg, bank)
    assert record is not None
    assert record.delta == 0.0
    assert np.all(bank.retardances == 0.0)


def test_worsening_reverses_direction_and_hands_over():
    cfg, state, bank = comp.ControllerConfig(), comp.ControllerState(), pol.SqueezerBank()

    first = comp.control_step(state, _est(0.2, 0.2), cfg, bank)
    assert first.squeezer == 0 and first.delta > 0
    assert state.active == 0

    # Error grew: the bad step is undone in the reversed direction on the
    # same squeezer, whose remembered direction flips, then the next
    # squeezer becomes active.
    second = comp.control_step(state, _est(0.25, 0.25), cfg, bank)
    assert second.reversed_direction
    assert second.squeezer == 0
    assert second.delta == pytest.approx(-0.55 * 0.25)
    assert state.directions[0] == -1
    assert state.active == 1

    # Error shrank: keep the new squeezer and its direction.
    third = comp.control_step(state, _est(0.2, 0.2), cfg, bank)
    assert not third.reversed_direction
    assert third.squeezer == 1
    assert state.active == 1
    assert state.directions[1] == 1


def test_saturation_flags_and_advances():
    cfg = comp.ControllerConfig()
    state = comp.ControllerState()
    bank = pol.SqueezerBank(retardances=[pol.RETARDANCE_LIMIT - 0.01, 0, 0, 0])
    record = comp.control_step(state, _est(0.3, 0.3), cfg, bank)
    assert record.saturated
    assert bank.retardances[0] == pytest.approx(pol.RETARDANCE_LIMIT)
    assert state.directions[0] == -1
    assert state.active == 1
    assert state.saturations == 1


def test_config_validation():
    with pytest.raises(comp.CompensationError):
        comp.ControllerConfig(alpha=-0.1)
    with pytest.raises(comp.CompensationError):
        comp.ControllerConfig(threshold=0.0)
    with pytest.raises(comp.CompensationError):
        comp.ControllerConfig(stall_patience=0)


@pytest.mark.parametrize("field", ["alpha", "threshold", "max_step",
                                   "best_tolerance"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_validation_refuses_non_finite_values(field, value):
    # NaN fails every comparison, so a bound check alone would let it in.
    with pytest.raises(comp.CompensationError,
                       match=f"{field} must be finite"):
        comp.ControllerConfig(**{field: value})


# ---------------------------------------------------------------------------
# Closed-loop properties
# ---------------------------------------------------------------------------

def _true_angles(channel, bank):
    return pol.misalignment_angles(channel @ pol.squeezer_unitary(bank))


def _random_static_channel(seed, poincare_angle=0.7):
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return pol.rotation_about_stokes_axis(axis, poincare_angle)


def test_static_channel_convergence_rate():
    # Random static misalignments (blended error ~0.28 on average): the
    # loop must pull both angles below threshold within 200 windows in
    # at least 95 of 100 seeds.
    cfg = comp.ControllerConfig()
    converged = 0
    for seed in range(100):
        channel = _random_static_channel(seed)
        bank, state = pol.SqueezerBank(), comp.ControllerState()
        for _ in range(200):
            tz, tx = _true_angles(channel, bank)
            if tz <= cfg.threshold and tx <= cfg.threshold:
                converged += 1
                break
            comp.control_step(state, _est(tz, tx), cfg, bank)
    assert converged >= 95


def test_full_cycle_never_worsens_in_expectation():
    # Up to one step per squeezer from a static start: averaged over 100
    # seeds the blended error must not increase.
    cfg = comp.ControllerConfig()
    changes = []
    for seed in range(100):
        channel = _random_static_channel(1000 + seed)
        bank, state = pol.SqueezerBank(), comp.ControllerState()
        tz, tx = _true_angles(channel, bank)
        start = (tz + tx) / 2
        for _ in range(4):
            if comp.control_step(state, _est(tz, tx), cfg, bank) is None:
                break
            tz, tx = _true_angles(channel, bank)
        changes.append((tz + tx) / 2 - start)
    assert np.mean(changes) < 0.0


def test_drifting_channel_long_run_mean_stays_below_threshold():
    # Diffusive channel drift at 0.003 rad/s stepped once per 15 s
    # window, binomially noisy estimates at the planned sample size:
    # the long-run mean of each true angle stays at or below 0.13 rad.
    cfg = comp.ControllerConfig()
    n_max = 21_000
    for seed in range(8):
        start = pol.random_misalignment(0.1, seed=300 + seed)
        drift = pol.DriftProcess(rate=0.003, seed=20_000 + seed, initial=start)
        noise = np.random.default_rng(9_000 + seed)
        bank, state = pol.SqueezerBank(), comp.ControllerState()
        sums = np.zeros(2)
        n_windows = 960
        for _ in range(n_windows):
            channel = drift.step(15.0)
            tz, tx = _true_angles(channel, bank)
            sums += (tz, tx)
            observed_z = math.asin(math.sqrt(noise.binomial(n_max, math.sin(tz) ** 2) / n_max))
            observed_x = math.asin(math.sqrt(noise.binomial(n_max, math.sin(tx) ** 2) / n_max))
            comp.control_step(state, _est(observed_z, observed_x), cfg, bank)
        mean_z, mean_x = sums / n_windows
        assert mean_z <= 0.13, f"seed {seed}: mean Z angle {mean_z:.4f}"
        assert mean_x <= 0.13, f"seed {seed}: mean X angle {mean_x:.4f}"
