"""Measurement-node checks against quadrature and closed-form oracles."""

import bisect
import math

import numpy as np
import pytest
from scipy import integrate, special

from mdiqkd_polcomp import bsm
from mdiqkd_polcomp import polarization as pol
from mdiqkd_polcomp.engine import DecisionClasses
from mdiqkd_polcomp.session import SessionConfig
from mdiqkd_polcomp.transmitter import INTENSITY_LABELS, IntensityTable


def test_detector_params_validation():
    with pytest.raises(bsm.BsmError):
        bsm.DetectorParams(efficiency=0.0)
    with pytest.raises(bsm.BsmError):
        bsm.DetectorParams(efficiency=1.5)
    with pytest.raises(bsm.BsmError):
        bsm.DetectorParams(dark_prob=1.0)


def _pair_probabilities(jones_a, mu_a, jones_b, mu_b, basis, params):
    """Class probabilities of one input pair: one cell of the grid."""
    return bsm.class_probability_grid(
        np.asarray(jones_a)[None, :], np.array([mu_a]),
        np.asarray(jones_b)[None, :], np.array([mu_b]), basis, params)[0, 0]


def test_dark_only_coincidences():
    params = bsm.DetectorParams(efficiency=0.1, dark_prob=1e-3)
    probs = _pair_probabilities(pol.STATE_H, 0.0, pol.STATE_H, 0.0,
                                "Z", params)
    assert probs[0] == pytest.approx(1e-6, rel=1e-9)
    assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_phase_average_matches_quadrature_oracle():
    params = bsm.DetectorParams(efficiency=0.055, dark_prob=2e-6)
    jones_a, mu_a = pol.STATE_H, 0.28
    jones_b, mu_b = pol.STATE_D, 0.07

    bras = bsm.ARM_PROJECTORS["Z"]
    amp_a = bras @ jones_a * math.sqrt(mu_a)
    amp_b = bras @ jones_b * math.sqrt(mu_b)

    def coincidence(phi):
        monitored = np.abs(amp_a + amp_b * np.exp(1.0j * phi)) ** 2 / 2.0
        p = 1.0 - (1.0 - params.dark_prob) * np.exp(-params.efficiency * monitored)
        return p[0] * p[1]

    oracle, _ = integrate.quad(coincidence, 0.0, 2.0 * math.pi, epsabs=1e-16)
    oracle /= 2.0 * math.pi
    probs = _pair_probabilities(jones_a, mu_a, jones_b, mu_b, "Z", params)
    assert probs[0] == pytest.approx(oracle, rel=1e-10)


def _phase_grid_oracle(states_a, mus_a, states_b, mus_b, basis, params,
                       n_phase=64):
    """Class probabilities averaged on an explicit n_phase-point grid."""
    c0, c1 = bsm.phase_coefficients(states_a, mus_a, states_b, mus_b, basis)
    phases = np.exp(2.0j * math.pi * np.arange(n_phase) / n_phase)
    intensity = c0[..., None] + np.real(c1[..., None] * phases)
    p_click = 1.0 - (1.0 - params.dark_prob) \
        * np.exp(-params.efficiency * intensity)
    first, second = p_click[..., 0, :], p_click[..., 1, :]
    return np.stack([first * second, first * (1.0 - second),
                     (1.0 - first) * second,
                     (1.0 - first) * (1.0 - second)], axis=-2).mean(axis=-1)


@pytest.mark.parametrize("table, params", [
    (IntensityTable(), bsm.DetectorParams()),
    (IntensityTable(mu=2.0), bsm.DetectorParams(efficiency=1.0)),
    # Bright enough that eta |c1| exceeds 2, past the small-argument series.
    (IntensityTable(mu=8.0), bsm.DetectorParams(efficiency=1.0)),
])
def test_closed_form_matches_phase_grid_oracle(table, params):
    classes = DecisionClasses.build(table)
    omega = INTENSITY_LABELS.index("omega")
    # A sends H and B sends V, both at omega: a both-click cell of order
    # 1e-10 to 1e-9, where cancellation would cost the most precision.
    omega_pair = (omega, 3 + omega)
    rng = np.random.default_rng(2013)
    for _ in range(25):
        channel_a, channel_b = (
            pol.rotation_about_stokes_axis(rng.normal(size=3),
                                           rng.uniform(0.0, math.pi))
            for _ in range(2))
        states_a = classes.states @ channel_a.T
        states_b = classes.states @ channel_b.T
        for basis in ("Z", "X"):
            args = (states_a, classes.mean_photons, states_b,
                    classes.mean_photons, basis, params)
            exact = bsm.class_probability_grid(*args)
            oracle = _phase_grid_oracle(*args)
            assert np.all(np.abs(exact - oracle) <= 1e-9 * oracle)
            psi_omega = exact[omega_pair][0]
            assert psi_omega == pytest.approx(oracle[omega_pair][0],
                                              rel=1e-9)


def _reference_log_i0(z):
    q = (z / 2.0) ** 2
    series = np.ones_like(q)
    for k in range(12, 1, -1):
        series = 1.0 + series * q / k ** 2
    return np.where(z < 2.0, np.log1p(q * series),
                    z + np.log(special.i0e(z)))


def _reference_grid(states_a, mus_a, states_b, mus_b, basis, params):
    """The kernel with one log I0 evaluation for the arms and one for
    their sum, as it was before the two were joined."""
    c0, c1 = bsm.phase_coefficients(states_a, mus_a, states_b, mus_b, basis)
    eta = params.efficiency
    log_i0_arms = _reference_log_i0(eta * np.abs(c1))
    log_quiet = math.log1p(-params.dark_prob) - eta * c0 + log_i0_arms
    log_corr = _reference_log_i0(eta * np.abs(c1.sum(axis=-1))) \
        - log_i0_arms.sum(axis=-1)
    log_first, log_second = log_quiet[..., 0], log_quiet[..., 1]
    quiet_first, quiet_second = np.exp(log_first), np.exp(log_second)
    both_quiet = quiet_first * quiet_second
    return np.stack([
        np.expm1(log_first) * np.expm1(log_second)
        + both_quiet * np.expm1(log_corr),
        -quiet_second * np.expm1(log_first + log_corr),
        -quiet_first * np.expm1(log_second + log_corr),
        both_quiet * np.exp(log_corr),
    ], axis=-1)


# The second case reaches eta |c1| >= 2, past the small-argument series.
@pytest.mark.parametrize("mu_scale, params", [
    (1.0, bsm.DetectorParams()),
    (40.0, bsm.DetectorParams(efficiency=1.0)),
])
def test_grid_equals_two_call_reference_bit_for_bit(mu_scale, params):
    classes = DecisionClasses.build(IntensityTable())
    mus = classes.mean_photons * mu_scale
    rng = np.random.default_rng(600)
    for _ in range(100):
        channel_a, channel_b = (
            pol.rotation_about_stokes_axis(rng.normal(size=3),
                                           rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(2))
        for basis in ("Z", "X"):
            args = (classes.states @ channel_a.T, mus,
                    classes.states @ channel_b.T, mus, basis, params)
            assert np.array_equal(bsm.class_probability_grid(*args),
                                  _reference_grid(*args))


def _reference_phase_coefficients(states_a, mus_a, states_b, mus_b, basis):
    """c0 and c1 from one amplitude product per sender, as before the
    two were joined."""
    bras_t = bsm.ARM_PROJECTORS[basis].T
    amps_a = states_a @ bras_t * np.sqrt(mus_a)[:, None]
    amps_b = states_b @ bras_t * np.sqrt(mus_b)[:, None]
    c0 = (np.abs(amps_a[:, None, :]) ** 2
          + np.abs(amps_b[None, :, :]) ** 2) / 2.0
    return c0, amps_a.conj()[:, None, :] * amps_b[None, :, :]


# The second case reaches eta |c1| >= 2, past the small-argument series.
@pytest.mark.parametrize("mu_scale, params", [
    (1.0, bsm.DetectorParams()),
    (40.0, bsm.DetectorParams(efficiency=1.0)),
])
def test_window_stack_equals_single_windows_bit_for_bit(mu_scale, params):
    classes = DecisionClasses.build(IntensityTable())
    mus = classes.mean_photons * mu_scale
    rng = np.random.default_rng(2200)
    for n_windows in (1, 2, 3, 5, 16, 2, 2, 1, 7, 2, 9, 2, 4, 2, 3, 2, 41):
        channels = [[pol.rotation_about_stokes_axis(
            rng.normal(size=3), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(2)] for _ in range(n_windows)]
        bases = [("Z", "X")[bit] for bit in rng.integers(0, 2, n_windows)]
        states_a, states_b = (np.stack([classes.states @ pair[user].T
                                        for pair in channels])
                              for user in (0, 1))
        stack = bsm.class_probability_grid(states_a, mus, states_b, mus,
                                           bases, params)
        c0_stack, c1_stack = bsm.phase_coefficients(states_a, mus, states_b,
                                                    mus, bases)
        assert stack.shape == (n_windows, 12, 12, 4)
        for w, basis in enumerate(bases):
            args = (states_a[w], mus, states_b[w], mus, basis)
            single = bsm.class_probability_grid(*args, params)
            assert single.shape == (12, 12, 4)
            # tobytes also tells -0.0 from 0.0.
            assert stack[w].tobytes() == single.tobytes()
            c0, c1 = bsm.phase_coefficients(*args)
            # The per-slot sampler gathers rows of both arms at once.
            assert c0.flags.c_contiguous and c1.flags.c_contiguous
            ref_c0, ref_c1 = _reference_phase_coefficients(*args)
            for got in (c0, c0_stack[w]):
                assert np.ascontiguousarray(got).tobytes() == ref_c0.tobytes()
            for got in (c1, c1_stack[w]):
                assert np.ascontiguousarray(got).tobytes() == ref_c1.tobytes()


def test_cut_series_equals_the_twelve_term_series_bit_for_bit():
    rng = np.random.default_rng(2201)
    # One grid inside each cut length's band of z_max, plus z_max = 2,
    # the series limit.
    z_maxes = [2.0 * math.sqrt(0.9 * q) for q in bsm._I0_CUT_Q] + [2.0]
    lengths = set()
    for z_max in z_maxes:
        z = np.concatenate([np.linspace(0.0, z_max, 4001),
                            z_max * rng.random(20000)])
        lengths.add(bisect.bisect_right(bsm._I0_CUT_Q, (z_max / 2.0) ** 2)
                    + 1)
        assert bsm._log_i0(z).tobytes() == _reference_log_i0(z).tobytes()
    assert lengths == set(range(1, bsm._I0_SERIES_TERMS + 1))


def test_grid_probabilities_sum_to_one():
    params = bsm.DetectorParams()
    states = np.stack([pol.JONES_STATES[k] for k in ("H", "V", "D", "A")])
    mus = np.array([0.28, 0.07, 0.001, 0.28])
    grid = bsm.class_probability_grid(states, mus, states, mus, "X", params)
    assert np.allclose(grid.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(grid >= 0.0)


def test_signal_gain_near_target_and_low_error():
    # Anticorrelated same-basis signal pairs dominate the gain; the
    # detector defaults are calibrated so the Z-window signal gain sits
    # at 3.0e-5.
    params = bsm.DetectorParams()
    gain, qber = bsm.pair_gain_and_qber("Z", "Z", 0.28, 0.28, params)
    assert gain == pytest.approx(3.0e-5, rel=1e-4)
    assert qber < 2e-3
    # Symmetric situation in the X window.
    gain_x, qber_x = bsm.pair_gain_and_qber("X", "X", 0.28, 0.28, params)
    assert gain_x == pytest.approx(gain, rel=1e-6)
    assert qber_x == pytest.approx(qber, rel=1e-6)


def test_conjugate_basis_qber_bracket():
    # Multiphoton contributions pin the conjugate-basis signal error rate
    # just above 1/4.
    params = bsm.DetectorParams()
    _, qber = bsm.pair_gain_and_qber("X", "Z", 0.28, 0.28, params)
    assert 0.25 <= qber <= 0.31
    _, mirrored = bsm.pair_gain_and_qber("Z", "X", 0.28, 0.28, params)
    assert mirrored == pytest.approx(qber, rel=1e-6)


def test_vacuum_pair_gain_negligible():
    params = bsm.DetectorParams()
    gain, _ = bsm.pair_gain_and_qber("Z", "Z", 0.001, 0.001, params)
    assert gain < 1e-9


def test_misaligned_channel_raises_qber():
    params = bsm.DetectorParams()
    tilt = pol.rotation_about_stokes_axis([0.0, 1.0, 0.0], 2 * 0.2)
    _, qber_aligned = bsm.pair_gain_and_qber("Z", "Z", 0.28, 0.28, params)
    _, qber_tilted = bsm.pair_gain_and_qber("Z", "Z", 0.28, 0.28, params,
                                            channel_a=tilt)
    assert qber_tilted > qber_aligned + 0.01
    # Error grows like 2 sin(theta)^2 for one misaligned sender.
    assert qber_tilted == pytest.approx(2.0 * math.sin(0.2) ** 2, rel=0.15)


def test_monte_carlo_agrees_with_analytic():
    params = bsm.DetectorParams()
    rng = np.random.default_rng(7)
    n = 400_000
    gain_mc, n_ok, n_bad = bsm.monte_carlo_pair("Z", "Z", 0.28, 0.28, params,
                                                n, rng)
    gain, _ = bsm.pair_gain_and_qber("Z", "Z", 0.28, 0.28, params)
    sigma = math.sqrt(gain * (1.0 - gain) / n)
    assert abs(gain_mc - gain) < 3.0 * sigma
    assert n_ok + n_bad == pytest.approx(gain_mc * n)


def test_basis_schedule():
    windows = SessionConfig(duration_s=4 * 3600.0,
                            schedule=bsm.BasisSchedule(period=15.0)).windows()

    def basis_at(t):
        [basis] = [basis for start, dt, basis in windows
                   if start <= t < start + dt]
        return basis

    assert basis_at(0.0) == "Z"
    assert basis_at(14.999) == "Z"
    assert basis_at(15.0) == "X"
    # floor(100 / 15) = 6, an even window index, so the basis is Z.
    assert basis_at(100.0) == "Z"
    assert len(windows) == 960
    bases = [basis for _, _, basis in windows]
    assert bases.count("Z") == 480
    assert bases.count("X") == 480
    with pytest.raises(bsm.BsmError):
        bsm.BasisSchedule(period=0.0)
