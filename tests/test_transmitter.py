"""Transmitter checks: decision statistics, fractions, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from mdiqkd_polcomp import transmitter as tx


def enumerate_pair_probability(table_a, table_b, keep):
    """Brute-force sum of joint decision probabilities selected by `keep`.

    keep receives ((basis_a, bit_a, int_a), (basis_b, bit_b, int_b)).
    """
    probs_a = tx.decision_probabilities(table_a)
    probs_b = tx.decision_probabilities(table_b)
    total = 0.0
    for choice_a, p_a in probs_a.items():
        for choice_b, p_b in probs_b.items():
            if keep(choice_a, choice_b):
                total += p_a * p_b
    return total


def test_decision_probabilities_sum_to_one():
    table = tx.reference_intensity_table()
    assert abs(sum(tx.decision_probabilities(table).values()) - 1.0) < 1e-12


def test_key_fraction_matches_enumeration():
    table = tx.reference_intensity_table()
    enumerated = enumerate_pair_probability(
        table, table,
        lambda a, b: a[0] == b[0] == "Z" and a[2] == b[2] == "mu" and a[1] != b[1])
    assert enumerated == pytest.approx(tx.key_fraction(table.p_mu), abs=1e-15)
    assert tx.key_fraction(0.52) == pytest.approx(0.0338, abs=5e-4)


def test_recyclable_fraction_matches_enumeration():
    table = tx.reference_intensity_table()

    def alice_usable(a, b):
        return b[2] == "omega" and a[2] != "omega"

    def either_usable(a, b):
        return alice_usable(a, b) or alice_usable(b, a)

    per_sender, total = tx.recyclable_fraction(table.p_omega)
    assert enumerate_pair_probability(table, table, alice_usable) == \
        pytest.approx(per_sender, abs=1e-15)
    assert enumerate_pair_probability(table, table, either_usable) == \
        pytest.approx(total, abs=1e-15)
    assert per_sender == pytest.approx(0.1275, abs=1e-6)
    assert total == pytest.approx(0.255, abs=1e-6)


def test_equal_thirds_fractions():
    table = tx.IntensityTable(p_mu=1.0 / 3.0, p_nu=1.0 / 3.0,
                              p_omega=1.0 / 3.0)
    assert tx.key_fraction(table.p_mu) == pytest.approx(1.0 / 72.0, abs=1e-12)
    per_sender, total = tx.recyclable_fraction(table.p_omega)
    assert per_sender == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert total == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_intensity_table_validation():
    with pytest.raises(tx.TransmitterError):
        tx.IntensityTable(mu=0.07, nu=0.28)  # wrong ordering
    with pytest.raises(tx.TransmitterError):
        tx.IntensityTable(p_mu=0.9, p_nu=0.3, p_omega=0.15)  # sum > 1
    with pytest.raises(tx.TransmitterError):
        tx.IntensityTable(p_mu=1.2, p_nu=-0.35, p_omega=0.15)


def test_decisions_are_deterministic_per_seed_and_slot():
    table = tx.reference_intensity_table()
    one = tx.draw_decisions(9, np.array([123_456]), table)
    two = tx.draw_decisions(9, np.array([123_456]), table)
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    # A bulk draw must agree with slot-by-slot draws.
    slots = np.arange(500, 600)
    bits, bases, intensity = tx.draw_decisions(9, slots, table)
    for offset, slot in enumerate(slots):
        single = tx.draw_decisions(9, np.array([slot]), table)
        assert tuple(single) == (bits[offset], bases[offset],
                                 intensity[offset])
    other_seed = tx.draw_decisions(10, slots, table)
    assert any(not np.array_equal(a, b) for a, b in zip((bits, bases, intensity), other_seed))


def test_empirical_frequencies_match_table():
    table = tx.reference_intensity_table()
    n = 1_000_000
    bits, bases, intensity = tx.draw_decisions(2024, np.arange(n), table)
    for value, expected in ((bits, 0.5), (bases, 0.5)):
        observed = float(np.mean(value))
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) < 3 * sigma
    for idx, expected in enumerate(table.probabilities):
        observed = float(np.mean(intensity == idx))
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) < 3 * sigma


def test_bit_stream_passes_runs_test():
    # Wald-Wolfowitz runs test on the bit stream at the 1% level.
    table = tx.reference_intensity_table()
    bits, _, _ = tx.draw_decisions(77, np.arange(100_000), table)
    n_one = int(np.sum(bits))
    n_zero = len(bits) - n_one
    runs = 1 + int(np.sum(bits[1:] != bits[:-1]))
    mean = 2.0 * n_one * n_zero / len(bits) + 1.0
    variance = (mean - 1.0) * (mean - 2.0) / (len(bits) - 1.0)
    z = (runs - mean) / math.sqrt(variance)
    p_value = 2.0 * (1.0 - stats.norm.cdf(abs(z)))
    assert p_value > 0.01


def test_phases_are_uniform():
    phases = tx.draw_phases(3, np.arange(100_000))
    assert np.all((phases >= 0.0) & (phases < 2.0 * math.pi))
    counts, _ = np.histogram(phases, bins=20, range=(0.0, 2.0 * math.pi))
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01
