"""Per-slot pulse preparation for the two senders.

Each slot carries an independent (bit, basis, intensity) decision plus a
fresh uniform optical phase.  Decisions are a pure function of
(seed, slot, stream), implemented with the splitmix64 mixing function so
that any slot can be regenerated in isolation and bulk generation
vectorizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

INTENSITY_LABELS = ("mu", "nu", "omega")
BASIS_LABELS = ("Z", "X")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Words hashed per block.  The per-slot backend hashes on a helper
# thread, and each numpy call there hands the GIL to the sampling thread
# and back, so fewer, longer calls let the two threads overlap.  On a
# 2-core Intel Xeon (Python 3.11, numpy 2.4), hashing the decisions of
# 1.2e7 slots on one thread took 0.21-0.27 s at 2^14 to 2^17 words per
# block and 0.55 s at 2^18; the per-slot session over those slots (median
# of seven fresh processes) took 0.48 s at 2^14, 0.41 s at 2^15, 0.38 s
# at 2^16, 0.41 s at 2^17 and 0.45 s at 2^18.
_HASH_BLOCK = 1 << 16

_DECISION_STREAM = 0x1D
_PHASE_STREAM = 0x2F

# 2^-53, turns the top 53 bits of a word into a uniform double in [0, 1).
_INV_2_53 = float(2.0 ** -53)

# The decoy analysis takes e^(2 mu), which overflows beyond this mu.
MAX_INTENSITY = math.log(np.finfo(float).max) / 2.0


class TransmitterError(ValueError):
    """Raised for invalid transmitter configuration."""


@dataclass(frozen=True)
class IntensityTable:
    """Mean photon numbers and draw probabilities of the three pulse classes.

    mu is the signal intensity, nu the weak decoy, omega the near-vacuum
    decoy whose detections feed the compensation loop.
    """

    mu: float = 0.28
    nu: float = 0.07
    omega: float = 0.001
    p_mu: float = 0.52
    p_nu: float = 0.33
    p_omega: float = 0.15

    def __post_init__(self):
        if not self.mu > self.nu > self.omega >= 0.0:
            raise TransmitterError(
                "intensities must satisfy mu > nu > omega >= 0, got "
                f"({self.mu}, {self.nu}, {self.omega})")
        if not self.mu <= MAX_INTENSITY:
            raise TransmitterError(
                f"mu must be finite and at most {MAX_INTENSITY:.6g}, where "
                f"e^(2 mu) overflows, got {self.mu}")
        probs = self.probabilities
        if min(probs) < 0.0:
            raise TransmitterError("intensity probabilities must be nonnegative")
        # Written so that a NaN probability, which no comparison sees,
        # fails the sum.
        if not abs(sum(probs) - 1.0) <= 1e-9:
            raise TransmitterError(
                f"intensity probabilities must sum to 1, got {sum(probs)!r}")

    @property
    def probabilities(self) -> tuple[float, float, float]:
        return (self.p_mu, self.p_nu, self.p_omega)

    @property
    def intensities(self) -> tuple[float, float, float]:
        return (self.mu, self.nu, self.omega)


def _splitmix64(words: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of words + golden, in place on `words`."""
    # A cache-sized block at a time: on 2^18 words that takes a third of
    # the time of whole-array passes.
    words += _GOLDEN
    shifted = np.empty(min(words.size, _HASH_BLOCK), dtype=np.uint64)
    for start in range(0, words.size, _HASH_BLOCK):
        block = words[start:start + _HASH_BLOCK]
        scratch = shifted[:block.size]
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(block, np.uint64(shift), out=scratch)
            block ^= scratch
            block *= mix
        np.right_shift(block, np.uint64(31), out=scratch)
        block ^= scratch
    return words


@functools.lru_cache(maxsize=16)
def _stream_base(seed: int, stream: int) -> np.uint64:
    """The word every slot of one (seed, stream) is XORed with."""
    # Arithmetic wraps mod 2^64 by design; keep everything in arrays so
    # numpy applies modular semantics silently.
    stream_word = _splitmix64(np.array([stream], dtype=np.uint64))
    return _splitmix64(np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
                       ^ stream_word)[0]


def _slot_words(seed: int, slots: np.ndarray, stream: int) -> np.ndarray:
    """One 64-bit word per slot, independent across (seed, stream)."""
    return _splitmix64(slots ^ _stream_base(seed, stream))


def draw_classes(seed: int, slots: np.ndarray,
                 table: IntensityTable) -> np.ndarray:
    """Vectorized decision class per slot, 6*basis + 3*bit + intensity.

    Basis index 0 is Z, intensity indices follow INTENSITY_LABELS; the
    result is uint8.
    """
    words = _slot_words(seed, np.asarray(slots, dtype=np.uint64),
                        _DECISION_STREAM)
    return _classes_from_words(words, table)


def _classes_from_words(words: np.ndarray,
                        table: IntensityTable) -> np.ndarray:
    # The low two bits are bit + 2*basis.  The intensity compares the
    # uniform (words >> 11) * 2^-53 with the cumulative probabilities;
    # scaling by 2^53 is exact, so on integers that is words >> 11
    # against each edge's ceil(edge * 2^53), or words against that
    # times 2^11; words >> 11 stays below 2^53, so no higher edge counts.
    classes = words.astype(np.uint8)  # the low byte
    classes &= 3
    classes *= 3
    for edge in np.cumsum(table.probabilities)[:2]:
        top = math.ceil(edge * 2.0 ** 53)
        if top < 2 ** 53:
            classes += words >= np.uint64(top << 11)
    return classes


def draw_phases(seed: int, slots: np.ndarray) -> np.ndarray:
    """Fresh uniform optical phase in [0, 2 pi) per slot."""
    words = _slot_words(seed, np.asarray(slots, dtype=np.uint64), _PHASE_STREAM)
    uniforms = (words >> np.uint64(11)).astype(np.float64) * _INV_2_53
    return uniforms * (2.0 * math.pi)


def key_fraction(p_mu: float) -> float:
    """Fraction of slot pairs that can enter the sifted key.

    Both senders must pick the same fixed basis (1/4), both the signal
    intensity (p_mu^2), and their uniform bits must anticorrelate (1/2).
    """
    return p_mu ** 2 / 8.0


def recyclable_fraction(p_omega: float) -> tuple[float, float]:
    """Fraction of slot pairs usable by the compensation estimators.

    A pair is usable for one sender when that sender picked a non-vacuum
    intensity while the partner picked omega.  Returns (per_sender, total);
    the two per-sender sets are disjoint so the total is their sum.
    """
    per_sender = p_omega * (1.0 - p_omega)
    return per_sender, 2.0 * per_sender


def reference_intensity_table() -> IntensityTable:
    """Default biased-probability settings for the three intensities."""
    return IntensityTable()

