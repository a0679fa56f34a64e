"""Aggregate window-sampling engine: distributions, tallies, accounting."""

import numpy as np
import pytest

from mdiqkd_polcomp import engine
from mdiqkd_polcomp.bsm import DetectorParams, class_probability_grid
from mdiqkd_polcomp.decoy import TALLY_SHAPE, TallySet
from mdiqkd_polcomp.engine import (DecisionClasses, EngineError,
                                   PSI_PLUS, SINGLE_FIRST, SINGLE_SECOND,
                                   pair_masks, route_window,
                                   sample_window_counts,
                                   window_class_probabilities)
from mdiqkd_polcomp.polarization import BASIS_STATES
from mdiqkd_polcomp.polarization import rotation_about_stokes_axis
from mdiqkd_polcomp.transmitter import (BASIS_LABELS, INTENSITY_LABELS,
                                        IntensityTable)

TABLE = IntensityTable()
PARAMS = DetectorParams()


def idx(basis: str, bit: int, intensity: str) -> int:
    return (BASIS_LABELS.index(basis) * 6 + bit * 3
            + INTENSITY_LABELS.index(intensity))


def test_decision_classes_layout_and_probabilities():
    classes = DecisionClasses.build(TABLE)
    assert len(classes) == 12
    total = 0.0
    for basis_i, basis in enumerate(BASIS_LABELS):
        for bit in (0, 1):
            for int_i, label in enumerate(INTENSITY_LABELS):
                k = idx(basis, bit, label)
                assert classes.bases[k] == basis_i
                assert classes.bits[k] == bit
                assert classes.intensities[k] == int_i
                expected_p = 0.25 * TABLE.probabilities[int_i]
                assert classes.probabilities[k] == pytest.approx(expected_p)
                assert classes.mean_photons[k] == TABLE.intensities[int_i]
                total += classes.probabilities[k]
    assert total == pytest.approx(1.0)


def test_window_probabilities_match_direct_cell_evaluation():
    classes = DecisionClasses.build(TABLE)
    channel_a = rotation_about_stokes_axis(np.array([0.3, 1.0, -0.2]), 0.21)
    channel_b = rotation_about_stokes_axis(np.array([1.0, 0.1, 0.4]), -0.13)
    grid = window_class_probabilities(classes, channel_a, channel_b,
                                      "X", PARAMS)
    assert grid.shape == (12, 12, 4)
    assert np.allclose(grid.sum(axis=2), 1.0, atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(8):
        i, j = rng.integers(0, 12, size=2)
        state_i = channel_a @ classes.states[i]
        state_j = channel_b @ classes.states[j]
        direct = class_probability_grid(
            state_i[None, :], classes.mean_photons[i:i + 1],
            state_j[None, :], classes.mean_photons[j:j + 1], "X", PARAMS)[0, 0]
        assert np.allclose(grid[i, j], direct, atol=1e-14)


def test_sampling_conserves_slots_and_is_deterministic():
    classes = DecisionClasses.build(TABLE)
    identity = np.eye(2, dtype=complex)
    probs = window_class_probabilities(classes, identity, identity,
                                       "Z", PARAMS)
    n_slots = 200_000
    combo, outcomes = sample_window_counts(
        n_slots, classes, probs, np.random.default_rng(42))
    assert combo.sum() == n_slots
    assert np.array_equal(outcomes.sum(axis=2), combo)
    combo2, outcomes2 = sample_window_counts(
        n_slots, classes, probs, np.random.default_rng(42))
    assert np.array_equal(combo, combo2)
    assert np.array_equal(outcomes, outcomes2)


def _per_combination_outcomes(combo, class_probs, rng):
    """Reference draw: one multinomial per occupied combination, in order."""
    outcomes = np.zeros(class_probs.shape, dtype=np.int64)
    for i in range(combo.shape[0]):
        for j in range(combo.shape[1]):
            if combo[i, j]:
                outcomes[i, j] = rng.multinomial(int(combo[i, j]),
                                                 class_probs[i, j])
    return outcomes


@pytest.mark.parametrize("n_slots", [0, 3, 40, 2_000, 1_500_000])
def test_broadcast_draw_matches_per_combination_stream(n_slots):
    classes = DecisionClasses.build(TABLE)
    channel = rotation_about_stokes_axis(np.array([0.2, -1.0, 0.5]), 0.4)
    probs = window_class_probabilities(classes, channel,
                                       channel.conj().T, "X", PARAMS)
    rng = np.random.default_rng(1000 + n_slots)
    combo, outcomes = sample_window_counts(n_slots, classes, probs,
                                           rng)
    reference_rng = np.random.default_rng(1000 + n_slots)
    joint = np.outer(classes.probabilities, classes.probabilities).ravel()
    reference_combo = reference_rng.multinomial(n_slots, joint).reshape(12, 12)
    reference = _per_combination_outcomes(reference_combo, probs,
                                          reference_rng)
    assert np.array_equal(combo, reference_combo)
    assert np.array_equal(outcomes, reference)
    assert rng.random() == reference_rng.random()
    if n_slots <= 40:
        assert (combo == 0).sum() > 100


def test_sampled_combo_frequencies_match_decision_probabilities():
    classes = DecisionClasses.build(TABLE)
    identity = np.eye(2, dtype=complex)
    probs = window_class_probabilities(classes, identity, identity,
                                       "Z", PARAMS)
    n_slots = 1_000_000
    combo, _ = sample_window_counts(n_slots, classes, probs,
                                    np.random.default_rng(7))
    joint = np.outer(classes.probabilities, classes.probabilities)
    sigma = np.sqrt(n_slots * joint * (1 - joint))
    pulls = np.abs(combo - n_slots * joint) / np.maximum(sigma, 1.0)
    assert pulls.max() < 5.0


def test_negative_slot_count_rejected():
    classes = DecisionClasses.build(TABLE)
    with pytest.raises(EngineError, match="nonnegative"):
        sample_window_counts(-1, classes,
                             np.zeros((12, 12, 4)), np.random.default_rng(0))


def _single_combo_outcomes(i: int, j: int, psi: int = 0, first: int = 0,
                           second: int = 0, none: int = 0):
    outcomes = np.zeros((12, 12, 4), dtype=np.int64)
    outcomes[i, j] = [psi, first, second, none]
    return outcomes


def _tallies(classes, meas_basis, outcomes):
    tallies = TallySet()
    tallies.add(route_window(classes, meas_basis, outcomes).tallies)
    return tallies


def _singles(classes, meas_basis, outcomes, sender):
    routes = route_window(classes, meas_basis, outcomes)
    return routes.singles_a if sender == "A" else routes.singles_b


def _conservation(classes, meas_basis, outcomes):
    return route_window(classes, meas_basis, outcomes).conservation


def test_tally_error_convention_matched_basis():
    classes = DecisionClasses.build(TABLE)
    # Matched basis: anticorrelated bits are correct, equal bits are errors.
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("Z", 1, "mu"),
                                      psi=5, none=5)
    cell = _tallies(classes, "Z", outcomes).cell("Z", "mu", "mu")
    assert (cell.sent, cell.coincidences, cell.errors) == (10, 5, 0)

    outcomes = _single_combo_outcomes(idx("Z", 1, "nu"), idx("Z", 1, "mu"),
                                      psi=4, none=1)
    cell = _tallies(classes, "Z", outcomes).cell("Z", "nu", "mu")
    assert (cell.sent, cell.coincidences, cell.errors) == (5, 4, 4)


def test_tally_error_convention_conjugate_basis():
    classes = DecisionClasses.build(TABLE)
    # Z-prepared pairs measured in X: correlated bits are correct.
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("Z", 0, "mu"),
                                      psi=7)
    cell = _tallies(classes, "X", outcomes).cell("Z", "mu", "mu")
    assert (cell.sent, cell.coincidences, cell.errors) == (7, 7, 0)

    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("Z", 1, "mu"),
                                      psi=3)
    assert _tallies(classes, "X", outcomes).cell("Z", "mu", "mu").errors == 3


def test_tally_ignores_cross_basis_pairs():
    classes = DecisionClasses.build(TABLE)
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("X", 0, "mu"),
                                      psi=9)
    assert not _tallies(classes, "Z", outcomes).counts.any()


def test_tallies_match_independent_recount_on_sampled_window():
    classes = DecisionClasses.build(TABLE)
    identity = np.eye(2, dtype=complex)
    probs = window_class_probabilities(classes, identity, identity,
                                       "Z", PARAMS)
    combo, outcomes = sample_window_counts(500_000, classes, probs,
                                           np.random.default_rng(11))
    tallies = _tallies(classes, "Z", outcomes)
    # Straight recount over the 144 combos with the correctness rule.
    for basis in BASIS_LABELS:
        for ia in INTENSITY_LABELS:
            for ib in INTENSITY_LABELS:
                sent = coinc = errors = 0
                for bit_a in (0, 1):
                    for bit_b in (0, 1):
                        i, j = idx(basis, bit_a, ia), idx(basis, bit_b, ib)
                        sent += combo[i, j]
                        coinc += outcomes[i, j, PSI_PLUS]
                        wrong = (bit_a == bit_b if basis == "Z"
                                 else bit_a != bit_b)
                        if wrong:
                            errors += outcomes[i, j, PSI_PLUS]
                cell = tallies.cell(basis, ia, ib)
                assert (cell.sent, cell.coincidences, cell.errors) \
                    == (sent, coinc, errors)


def test_recycled_singles_wrong_arm_attribution():
    classes = DecisionClasses.build(TABLE)
    # Sender A transmits H (Z, bit 0) at signal strength while B sends
    # near-vacuum: a second-arm single is a wrong-arm event for H.
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"),
                                      idx("Z", 0, "omega"),
                                      first=30, second=12, none=100)
    counts = _singles(classes, "Z", outcomes, "A")
    assert counts["H"] == (12, 42)
    assert counts["V"] == (0, 0)
    # For bit 1 (V) the first arm is the wrong one.
    outcomes = _single_combo_outcomes(idx("Z", 1, "nu"),
                                      idx("X", 1, "omega"),
                                      first=4, second=9)
    counts = _singles(classes, "Z", outcomes, "A")
    assert counts["V"] == (4, 13)


def test_recycled_singles_sender_b_uses_transposed_grid():
    classes = DecisionClasses.build(TABLE)
    outcomes = _single_combo_outcomes(idx("X", 0, "omega"),
                                      idx("X", 0, "mu"),
                                      first=21, second=6)
    counts = _singles(classes, "X", outcomes, "B")
    assert counts["D"] == (6, 27)
    # The same grid read as sender A gives nothing: A sent omega.
    counts_a = _singles(classes, "X", outcomes, "A")
    assert counts_a == {"D": (0, 0), "A": (0, 0)}


def test_recycled_singles_excludes_wrong_basis_and_non_vacuum_partner():
    classes = DecisionClasses.build(TABLE)
    # Sender in X while Z is measured: carries no Z-alignment signal.
    outcomes = _single_combo_outcomes(idx("X", 0, "mu"),
                                      idx("Z", 0, "omega"),
                                      first=50, second=50)
    assert _singles(classes, "Z", outcomes, "A") \
        == {"H": (0, 0), "V": (0, 0)}
    # Partner at nu is not a vacuum reference.
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"),
                                      idx("Z", 0, "nu"),
                                      first=50, second=50)
    assert _singles(classes, "Z", outcomes, "A") \
        == {"H": (0, 0), "V": (0, 0)}


def test_conservation_partitions_every_slot():
    classes = DecisionClasses.build(TABLE)
    identity = np.eye(2, dtype=complex)
    probs = window_class_probabilities(classes, identity, identity,
                                       "X", PARAMS)
    n_slots = 300_000
    _, outcomes = sample_window_counts(n_slots, classes, probs,
                                       np.random.default_rng(3))
    routes = route_window(classes, "X", outcomes)
    counts = routes.conservation
    assert list(counts) == list(engine.CONSERVATION_CLASSES)
    assert sum(counts.values()) == n_slots
    # Recycled class equals the sum of both senders' estimator totals.
    total_recycled = sum(n_total for singles in (routes.singles_a,
                                                 routes.singles_b)
                         for _, n_total in singles.values())
    assert counts["recycled"] == total_recycled


def test_conservation_class_definitions():
    classes = DecisionClasses.build(TABLE)
    # Matched-basis signal-strength coincidence is a key candidate.
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("Z", 1, "mu"),
                                      psi=2, first=3, none=5)
    counts = _conservation(classes, "Z", outcomes)
    assert counts["key_candidate"] == 2
    assert counts["recycled"] == 0
    assert counts["discarded"] == 8
    # Same-basis decoy-strength coincidence feeds the tallies only.
    outcomes = _single_combo_outcomes(idx("Z", 0, "nu"), idx("Z", 1, "mu"),
                                      psi=4)
    counts = _conservation(classes, "Z", outcomes)
    assert counts["decoy_coincidence"] == 4
    # Mu-mu coincidence in the non-measured basis is not key material.
    outcomes = _single_combo_outcomes(idx("X", 0, "mu"), idx("X", 1, "mu"),
                                      psi=6)
    counts = _conservation(classes, "Z", outcomes)
    assert counts["key_candidate"] == 0
    assert counts["decoy_coincidence"] == 6
    # Partner-vacuum singles in the measured basis are recycled.
    outcomes = _single_combo_outcomes(idx("Z", 1, "mu"),
                                      idx("X", 0, "omega"),
                                      first=7, second=2, none=1)
    counts = _conservation(classes, "Z", outcomes)
    assert counts["recycled"] == 9
    assert counts["discarded"] == 1
    # Both-vacuum singles carry no reference and are discarded.
    outcomes = _single_combo_outcomes(idx("Z", 1, "omega"),
                                      idx("Z", 0, "omega"), first=8)
    counts = _conservation(classes, "Z", outcomes)
    assert counts["recycled"] == 0
    assert counts["discarded"] == 8


def test_expected_recycled_rate_against_probability_sum():
    """Sampled recycled counts sit within binomial error of the exact rate."""
    classes = DecisionClasses.build(TABLE)
    identity = np.eye(2, dtype=complex)
    probs = window_class_probabilities(classes, identity, identity,
                                       "Z", PARAMS)
    p_recycled = 0.0
    joint = np.outer(classes.probabilities, classes.probabilities)
    for i in range(12):
        for j in range(12):
            singles = probs[i, j, SINGLE_FIRST] + probs[i, j, SINGLE_SECOND]
            a_om = classes.intensities[i] == engine.OMEGA_INDEX
            b_om = classes.intensities[j] == engine.OMEGA_INDEX
            ok = (b_om and not a_om and classes.bases[i] == 0) or \
                 (a_om and not b_om and classes.bases[j] == 0)
            if ok:
                p_recycled += joint[i, j] * singles
    n_slots = 2_000_000
    _, outcomes = sample_window_counts(n_slots, classes, probs,
                                       np.random.default_rng(17))
    counts = _conservation(classes, "Z", outcomes)
    expected = n_slots * p_recycled
    sigma = np.sqrt(expected)
    assert abs(counts["recycled"] - expected) < 5.0 * sigma


# Reference bookkeeping: the boolean-mask form the routing matrices
# replaced, kept as the oracle for them.

def _reference_tallies(classes, meas_basis, combo_counts, outcome_counts):
    masks = pair_masks(classes, meas_basis)
    same = masks.same_basis
    n_int = len(INTENSITY_LABELS)
    n_cells = TALLY_SHAPE[0] * TALLY_SHAPE[1] * TALLY_SHAPE[2]
    cell = ((classes.bases[:, None] * n_int
             + classes.intensities[:, None]) * n_int
            + classes.intensities[None, :])[same]
    psi = outcome_counts[..., PSI_PLUS]
    quantities = np.stack([combo_counts, psi, psi * masks.wrong_bits])
    totals = np.bincount(
        (cell + n_cells * np.arange(3)[:, None]).ravel(),
        weights=quantities[:, same].ravel(),
        minlength=3 * n_cells).reshape(3, n_cells).astype(np.int64)
    return totals.T.reshape(TALLY_SHAPE)


def _reference_singles(classes, meas_basis, outcome_counts, sender):
    masks = pair_masks(classes, meas_basis)
    if sender == "A":
        recyclable, cells = masks.recyclable_a, outcome_counts
    else:
        recyclable = masks.recyclable_b.T
        cells = outcome_counts.transpose(1, 0, 2)
    singles = (cells[..., SINGLE_FIRST:SINGLE_SECOND + 1]
               * recyclable[..., None]).sum(axis=1)
    labels = BASIS_STATES[meas_basis]
    return {labels[bit]: (int(singles[classes.bits == bit, 1 - bit].sum()),
                          int(singles[classes.bits == bit].sum()))
            for bit in (0, 1)}


def _reference_conservation(classes, meas_basis, combo_counts,
                            outcome_counts):
    masks = pair_masks(classes, meas_basis)
    psi = outcome_counts[..., PSI_PLUS]
    singles = outcome_counts[..., SINGLE_FIRST] \
        + outcome_counts[..., SINGLE_SECOND]
    key = int(psi[masks.key_candidate].sum())
    counts = {
        "key_candidate": key,
        "recycled": int(singles[masks.recyclable_a
                                | masks.recyclable_b].sum()),
        "decoy_coincidence": int(psi[masks.same_basis].sum()) - key,
    }
    counts["discarded"] = int(combo_counts.sum()) - sum(counts.values())
    return counts


@pytest.mark.parametrize("meas_basis", BASIS_LABELS)
def test_routing_matches_mask_reference_on_random_counts(meas_basis):
    classes = DecisionClasses.build(TABLE)
    rng = np.random.default_rng(23)
    for trial in range(40):
        # Sparse and dense windows, up to 10 MHz x 15 s per window.
        high = int(10 ** rng.uniform(0, 8.2))
        outcome_counts = rng.integers(0, high, size=(12, 12, 4))
        outcome_counts[rng.random((12, 12, 4)) < trial / 40] = 0
        combo_counts = outcome_counts.sum(axis=2)
        routes = route_window(classes, meas_basis, outcome_counts)
        assert routes.tallies.dtype == np.int64
        assert np.array_equal(routes.tallies, _reference_tallies(
            classes, meas_basis, combo_counts, outcome_counts))
        for sender, singles in (("A", routes.singles_a),
                                ("B", routes.singles_b)):
            assert singles == _reference_singles(
                classes, meas_basis, outcome_counts, sender)
        assert routes.conservation == _reference_conservation(
            classes, meas_basis, combo_counts, outcome_counts)


def test_routing_refuses_counts_beyond_exact_float_sums():
    classes = DecisionClasses.build(TABLE)
    outcomes = _single_combo_outcomes(idx("Z", 0, "mu"), idx("Z", 1, "mu"),
                                      psi=2 ** 53 - 1)
    cell = _tallies(classes, "Z", outcomes).cell("Z", "mu", "mu")
    assert (cell.sent, cell.coincidences) == (2 ** 53 - 1, 2 ** 53 - 1)
    outcomes[0, 0, PSI_PLUS] = 1
    with pytest.raises(EngineError, match="exactly"):
        route_window(classes, "Z", outcomes)
