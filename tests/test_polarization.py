"""Polarization-layer checks against direct matrix evaluation."""

import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from mdiqkd_polcomp import polarization as pol


def test_bb84_states_are_normalized_and_conjugate():
    for basis in ("Z", "X"):
        for bit in (0, 1):
            state = pol.bb84_state(basis, bit)
            assert abs(np.vdot(state, state) - 1.0) < 1e-12
    # Within a basis the states are orthogonal; across bases overlap is 1/2.
    assert pol.state_fidelity(pol.bb84_state("Z", 0), pol.bb84_state("Z", 1)) < 1e-12
    assert abs(pol.state_fidelity(pol.bb84_state("Z", 0), pol.bb84_state("X", 0)) - 0.5) < 1e-12


def test_bb84_state_rejects_bad_labels():
    with pytest.raises(pol.PolarizationError):
        pol.bb84_state("Y", 0)
    with pytest.raises(pol.PolarizationError):
        pol.bb84_state("Z", 2)


def test_rotation_about_s1_by_2phi_gives_pure_x_misalignment():
    # Oracle: U = diag(e^{-i phi}, e^{i phi}) rotates Stokes vectors by
    # 2 phi about S1.  H/V are its eigenstates, so theta_z = 0 and the
    # D/A leakage is sin(phi)^2 by direct projection.
    phi = 0.17
    unitary = pol.rotation_about_stokes_axis([1.0, 0.0, 0.0], 2.0 * phi)
    oracle = np.diag([np.exp(-1.0j * phi), np.exp(1.0j * phi)])
    assert np.allclose(unitary, oracle, atol=1e-12)
    theta_z, theta_x = pol.misalignment_angles(unitary)
    assert abs(theta_z) < 1e-12
    assert abs(theta_x - phi) < 1e-12


def test_rotation_angle_recovers_input_angle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, math.pi)
        unitary = pol.rotation_about_stokes_axis(axis, angle)
        assert abs(pol.rotation_angle(unitary) - angle) < 1e-9


def test_error_rates_equal_sin_squared_of_angles():
    rng = np.random.default_rng(11)
    for _ in range(100):
        unitary = unitary_group.rvs(2, random_state=rng)
        e_z, e_x = pol.basis_error_rates(unitary)
        theta_z, theta_x = pol.misalignment_angles(unitary)
        assert abs(math.sin(theta_z) ** 2 - e_z) < 1e-12
        assert abs(math.sin(theta_x) ** 2 - e_x) < 1e-12
        assert 0.0 <= theta_z <= math.pi / 2.0
        assert 0.0 <= theta_x <= math.pi / 2.0


def test_angles_invariant_under_global_phase():
    rng = np.random.default_rng(13)
    unitary = unitary_group.rvs(2, random_state=rng)
    base = pol.misalignment_angles(unitary)
    shifted = pol.misalignment_angles(np.exp(0.421j) * unitary)
    assert np.allclose(base, shifted, atol=1e-12)


def test_zero_angles_iff_identity_up_to_phase():
    # Forward: phase multiples of the identity give exactly zero angles.
    unitary = np.exp(0.3j) * np.eye(2)
    assert max(pol.misalignment_angles(unitary)) < 1e-12
    # Converse: tiny angles force near-identity action on all six
    # cardinal states.
    rng = np.random.default_rng(17)
    for _ in range(50):
        axis = rng.normal(size=3)
        unitary = pol.rotation_about_stokes_axis(axis, 1e-6)
        theta_z, theta_x = pol.misalignment_angles(unitary)
        if theta_z == 0.0 and theta_x == 0.0:
            continue
        assert max(theta_z, theta_x) < 1e-5
        for state in pol.JONES_STATES.values():
            assert pol.state_fidelity(state, unitary @ state) > 1.0 - 1e-9


def test_drift_steps_stay_unitary_and_match_rate():
    drift = pol.DriftProcess(rate=0.003, seed=42)
    angles = []
    previous = drift.unitary.copy()
    for _ in range(10_000):
        current = drift.step(1.0)
        angles.append(pol.rotation_angle(current @ previous.conj().T))
        previous = current.copy()
    assert pol.is_unitary(drift.unitary, tol=1e-10)
    mean_angle = float(np.mean(angles))
    assert abs(mean_angle - 0.003) < 0.1 * 0.003


def test_drift_step_angle_scales_diffusively_with_dt():
    # One step of dt must look like the composition of many shorter
    # steps spanning the same time, so the per-step mean angle grows as
    # sqrt(dt), not dt.
    for dt in (4.0, 225.0):
        drift = pol.DriftProcess(rate=0.003, seed=7)
        angles = []
        previous = drift.unitary.copy()
        for _ in range(4000):
            current = drift.step(dt)
            angles.append(pol.rotation_angle(current @ previous.conj().T))
            previous = current.copy()
        expected = 0.003 * math.sqrt(dt)
        assert abs(float(np.mean(angles)) - expected) < 0.1 * expected


def test_drift_is_deterministic_given_seed():
    one = pol.DriftProcess(rate=0.003, seed=5)
    two = pol.DriftProcess(rate=0.003, seed=5)
    for _ in range(25):
        one.step(15.0)
        two.step(15.0)
    assert np.array_equal(one.unitary, two.unitary)
    other = pol.DriftProcess(rate=0.003, seed=6)
    other.step(15.0)
    assert not np.allclose(other.unitary, pol.DriftProcess(rate=0.003, seed=5).step(15.0))


def test_zero_rate_drift_is_frozen():
    drift = pol.DriftProcess(rate=0.0, seed=1)
    drift.step(100.0)
    assert np.allclose(drift.unitary, np.eye(2), atol=1e-15)


def test_single_squeezer_half_wave_behavior():
    # Retardance pi about S1 flips S2: D and A swap while H and V are
    # preserved up to phase.
    bank = pol.SqueezerBank(retardances=[math.pi, 0.0, 0.0, 0.0])
    unitary = pol.squeezer_unitary(bank)
    assert pol.state_fidelity(unitary @ pol.STATE_D, pol.STATE_A) > 1.0 - 1e-12
    assert pol.state_fidelity(unitary @ pol.STATE_A, pol.STATE_D) > 1.0 - 1e-12
    assert pol.state_fidelity(unitary @ pol.STATE_H, pol.STATE_H) > 1.0 - 1e-12
    assert pol.state_fidelity(unitary @ pol.STATE_V, pol.STATE_V) > 1.0 - 1e-12


def test_squeezer_order_matters():
    first = pol.SqueezerBank(retardances=[math.pi / 2.0, math.pi / 2.0, 0.0, 0.0])
    swapped = pol.SqueezerBank(retardances=[0.0, math.pi / 2.0, math.pi / 2.0, 0.0])
    # Oracle: explicit products of the two rotations in each order.
    r1 = pol.rotation_about_stokes_axis([1, 0, 0], math.pi / 2.0)
    r2 = pol.rotation_about_stokes_axis([0, 1, 0], math.pi / 2.0)
    assert np.allclose(pol.squeezer_unitary(first), r2 @ r1, atol=1e-12)
    assert np.allclose(pol.squeezer_unitary(swapped), r1 @ r2, atol=1e-12)
    product_difference = np.max(np.abs(r2 @ r1 - r1 @ r2))
    assert product_difference > 0.1


def test_squeezer_bank_composite_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        bank = pol.SqueezerBank(retardances=rng.uniform(-2 * math.pi, 2 * math.pi, size=4))
        assert pol.is_unitary(pol.squeezer_unitary(bank), tol=1e-10)


def test_squeezer_clamp_flags_saturation():
    bank = pol.SqueezerBank()
    saturated = bank.apply_delta(0, 2.5 * math.pi)
    assert saturated
    assert bank.retardances[0] == pytest.approx(2.0 * math.pi)
    assert not bank.apply_delta(0, -1.0)
    assert bank.retardances[0] == pytest.approx(2.0 * math.pi - 1.0)
    with pytest.raises(pol.PolarizationError):
        bank.apply_delta(7, 0.1)


def test_random_misalignment_scales_with_mean_angle():
    samples = [pol.rotation_angle(pol.random_misalignment(0.05, seed))
               for seed in range(400)]
    assert abs(float(np.mean(samples)) - 0.05) < 0.01


# Reference Jones algebra: the rotation as the numpy sum over Pauli
# matrices that the closed-form entries replaced, kept as their oracle.

PAULI = np.array([
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
], dtype=complex)


def _reference_rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    n_sigma = np.tensordot(axis, PAULI, axes=1)
    return math.cos(angle / 2.0) * pol.IDENTITY \
        - 1.0j * math.sin(angle / 2.0) * n_sigma


def _reference_squeezer(axes, retardances):
    unitary = pol.IDENTITY.copy()
    for axis, retardance in zip(axes, retardances):
        unitary = _reference_rotation(axis, retardance) @ unitary
    return unitary


def test_rotation_equals_pauli_sum_reference():
    rng = np.random.default_rng(20_000)
    for trial in range(4000):
        axis = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
        if trial % 4 == 0:
            axis[rng.integers(3)] = 0.0
        angle = rng.uniform(-4.0 * math.pi, 4.0 * math.pi)
        assert np.array_equal(pol.rotation_about_stokes_axis(axis, angle),
                              _reference_rotation(axis, angle))
    with pytest.raises(pol.PolarizationError):
        pol.rotation_about_stokes_axis([0.0, 0.0, 0.0], 1.0)


def test_squeezer_unitary_equals_reference():
    rng = np.random.default_rng(41)
    for _ in range(500):
        retardances = rng.uniform(-pol.RETARDANCE_LIMIT, pol.RETARDANCE_LIMIT,
                                  size=4)
        expected = _reference_squeezer(pol.DEFAULT_SQUEEZER_AXES, retardances)
        bank = pol.SqueezerBank(retardances=retardances)
        assert np.array_equal(pol.squeezer_unitary(bank), expected)
        # The measurement node passes the wire retardances directly.
        assert np.array_equal(
            pol.squeezer_unitary(tuple(retardances.tolist())), expected)


def test_squeezer_bank_needs_one_retardance_per_axis():
    for retardances in ([0.0, 0.0, 0.0], [0.0] * 5, [[0.0] * 4]):
        with pytest.raises(pol.PolarizationError, match="one retardance"):
            pol.SqueezerBank(retardances=retardances)


def test_drift_step_equals_reference_walk():
    rate, seed = 0.003, [7, 0xA1]
    initial = pol.random_misalignment(0.1, seed=3)
    drift = pol.DriftProcess(rate, seed=seed, initial=initial)
    rng = np.random.default_rng(seed)
    unitary = initial
    for dt in [15.0] * 300 + [0.0, 1.0, 225.0]:
        sigma = rate * math.sqrt(dt) * math.sqrt(math.pi / 2.0)
        angle = abs(rng.normal(0.0, sigma)) if sigma > 0 else 0.0
        vec = rng.normal(size=3)
        axis = vec / np.linalg.norm(vec)
        unitary = _reference_rotation(axis, angle) @ unitary
        assert np.array_equal(drift.step(dt), unitary)


def test_squeezer_bank_rejects_non_finite_retardance():
    for value in (math.nan, math.inf, 7.0):
        with pytest.raises(pol.PolarizationError):
            pol.SqueezerBank(retardances=[value, 0.0, 0.0, 0.0])
