"""Transmitter checks: decision statistics, fractions, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from mdiqkd_polcomp import engine
from mdiqkd_polcomp import transmitter as tx


def class_probabilities(table):
    """((basis, bit, intensity) labels, probability) per decision class."""
    classes = engine.DecisionClasses.build(table)
    return [((tx.BASIS_LABELS[basis], int(bit), tx.INTENSITY_LABELS[level]), p)
            for basis, bit, level, p in zip(classes.bases, classes.bits,
                                            classes.intensities,
                                            classes.probabilities)]


def enumerate_pair_probability(table_a, table_b, keep):
    """Brute-force sum of joint decision probabilities selected by `keep`.

    keep receives ((basis_a, bit_a, int_a), (basis_b, bit_b, int_b)).
    """
    total = 0.0
    for choice_a, p_a in class_probabilities(table_a):
        for choice_b, p_b in class_probabilities(table_b):
            if keep(choice_a, choice_b):
                total += p_a * p_b
    return total


def float_classes(words, table):
    """Oracle for draw_classes: the classes decoded through floats.

    The uniform (words >> 11) * 2^-53 falls in the cumulative intensity
    probabilities; the bit is the lowest bit, the basis the next one.
    """
    uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    edges = np.cumsum(table.probabilities)
    intensity = (uniforms >= edges[0]).astype(np.int64) \
        + (uniforms >= edges[1])
    bits = (words & np.uint64(1)).astype(np.int64)
    bases = ((words >> np.uint64(1)) & np.uint64(1)).astype(np.int64)
    return 6 * bases + 3 * bits + intensity


def decisions(seed, slots, table):
    """(bits, basis indices, intensity indices) from draw_classes."""
    basis, rest = np.divmod(tx.draw_classes(seed, slots, table), 6)
    bits, intensity = np.divmod(rest, 3)
    return bits, basis, intensity


def test_decision_probabilities_sum_to_one():
    table = tx.reference_intensity_table()
    probabilities = engine.DecisionClasses.build(table).probabilities
    assert abs(probabilities.sum() - 1.0) < 1e-12
    assert probabilities.reshape(4, 3) == pytest.approx(
        np.tile(0.25 * np.array(table.probabilities), (4, 1)), abs=1e-15)


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
    for field in ("p_mu", "p_nu", "p_omega"):
        with pytest.raises(tx.TransmitterError, match="sum to 1, got nan"):
            tx.IntensityTable(**{field: math.nan})


def test_intensity_table_refuses_a_mu_whose_e_2mu_overflows():
    # The decoy analysis takes e^(2 mu): finite up to MAX_INTENSITY.
    assert math.isfinite(math.exp(2.0 * tx.MAX_INTENSITY))
    assert tx.IntensityTable(mu=tx.MAX_INTENSITY).mu == tx.MAX_INTENSITY
    above = math.nextafter(tx.MAX_INTENSITY, math.inf)
    with pytest.raises(OverflowError):
        math.exp(2.0 * above)
    for mu in (above, 356.0, 1e200, math.inf):
        with pytest.raises(tx.TransmitterError, match="mu must be finite"):
            tx.IntensityTable(mu=mu)


def test_decisions_are_deterministic_per_seed_and_slot():
    table = tx.reference_intensity_table()
    one = tx.draw_classes(9, np.array([123_456]), table)
    two = tx.draw_classes(9, np.array([123_456]), table)
    assert one.dtype == np.uint8 and np.array_equal(one, two)
    # A bulk draw must agree with slot-by-slot draws.
    slots = np.arange(500, 600)
    bulk = tx.draw_classes(9, slots, table)
    for offset, slot in enumerate(slots):
        assert tx.draw_classes(9, np.array([slot]), table)[0] == bulk[offset]
    assert not np.array_equal(bulk, tx.draw_classes(10, slots, table))


@pytest.mark.parametrize("seed", [0, 9, 2024, 2 ** 63 + 12_345])
def test_draw_classes_matches_the_float_decoder(seed):
    table = tx.reference_intensity_table()
    slots = np.arange(1 << 20, dtype=np.uint64) + np.uint64(seed % 7 << 40)
    words = tx._slot_words(seed, slots, tx._DECISION_STREAM)
    assert np.array_equal(tx.draw_classes(seed, slots, table),
                          float_classes(words, table))


@pytest.mark.parametrize("probabilities", [(0.52, 0.33, 0.15),
                                           (0.5, 0.25, 0.25),
                                           (0.6, 0.4, 0.0),
                                           (0.3, 0.15, 0.55)])
def test_draw_classes_is_exact_at_the_intensity_edges(probabilities):
    # Every double in [0.5, 1) is a multiple of 2^-53, so those edges
    # scale to integers: (0.5, 0.25, 0.25) puts them on words whose
    # uniform equals them exactly, and (0.6, 0.4, 0.0) puts the second
    # at 1.  Edges below 0.5, as in (0.3, 0.15, 0.55), scale to
    # fractions, where rounding up matters.
    table = tx.IntensityTable(p_mu=probabilities[0], p_nu=probabilities[1],
                              p_omega=probabilities[2])
    tops = []
    for edge in np.cumsum(table.probabilities)[:2]:
        scaled = edge * 2.0 ** 53
        top = math.ceil(scaled)
        assert top - 1 < scaled <= top
        tops += [top - 2, top - 1, top, top + 1]
    tops = np.array([top for top in tops if 0 <= top < 2 ** 53],
                    dtype=np.uint64)
    low = np.arange(1 << 11, dtype=np.uint64)[::97]
    words = ((tops[:, None] << np.uint64(11)) | low).ravel()
    classes = tx._classes_from_words(words, table)
    assert np.array_equal(classes, float_classes(words, table))
    # Both sides of every edge occur.
    assert len(set((classes % 3).tolist())) == 3 - (table.p_omega == 0.0)


def test_empirical_frequencies_match_table():
    table = tx.reference_intensity_table()
    n = 1_000_000
    bits, bases, intensity = decisions(2024, np.arange(n), table)
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
    bits, _, _ = decisions(77, np.arange(100_000), table)
    bits = bits.astype(np.int64)
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
