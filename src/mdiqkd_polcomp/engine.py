"""Window-level aggregate sampling of measurement-node statistics.

Slot-by-slot simulation of a 10 MHz source is hopeless at desk scale
(a four-hour session is 1.4e11 slots), but within one collection window
the channels are frozen and every slot is an i.i.d. draw over a finite
set of sender-decision combinations.  The per-window statistics are
therefore exact multinomials:

  1. each sender's decision falls in one of the same 12 classes
     (basis, bit, intensity), drawn from the one intensity table both
     senders share;
  2. the 144 joint decision combinations get slot counts from one
     multinomial over the window's slot budget;
  3. each combination's detection outcomes (both-click, single on
     either arm, no click) follow the phase-averaged class
     probabilities for the channel-rotated states, sampled as one
     multinomial per combination.

The basis, bit and intensity rules that route those counts (tally
cells, key candidates, recyclable singles) are stated once, as boolean
masks over the decision pairs (pair_masks).  From the masks follows one
0/1 routing matrix (routing_matrix), so a window's whole bookkeeping
(tallies, both senders' recycled singles, conservation classes) is one
matrix product of the flattened outcome counts (route_window).

Aggregating those counts reproduces the exact joint distribution of
every quantity the session tracks (tallies, estimator counts,
conservation classes) without touching individual slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bsm import DetectorParams, class_probability_grid
from .decoy import TALLY_SHAPE
from .polarization import BASIS_STATES, bb84_state
from .transmitter import BASIS_LABELS, INTENSITY_LABELS, IntensityTable

OMEGA_INDEX = INTENSITY_LABELS.index("omega")
MU_INDEX = INTENSITY_LABELS.index("mu")

N_OUTCOME_CLASSES = 4
PSI_PLUS, SINGLE_FIRST, SINGLE_SECOND, NO_CLICK = range(N_OUTCOME_CLASSES)

CONSERVATION_CLASSES = ("key_candidate", "recycled", "decoy_coincidence",
                        "discarded")


class EngineError(ValueError):
    """Raised for invalid engine inputs."""


@dataclass(frozen=True, eq=False)
class DecisionClasses:
    """The 12 decision classes of either sender and their probabilities.

    Class index layout: basis-major, then bit, then intensity, i.e.
    index = 6*basis + 3*bit + intensity with basis 0 = Z, and intensity
    following INTENSITY_LABELS.  Instances compare and hash by
    identity, which keys the pair_masks cache.
    """

    bases: np.ndarray
    bits: np.ndarray
    intensities: np.ndarray
    probabilities: np.ndarray
    states: np.ndarray
    mean_photons: np.ndarray

    @classmethod
    def build(cls, table: IntensityTable) -> "DecisionClasses":
        bases, bits, intensities, probs = [], [], [], []
        states, mus = [], []
        for basis_idx, basis in enumerate(BASIS_LABELS):
            for bit in (0, 1):
                for int_idx, label in enumerate(INTENSITY_LABELS):
                    bases.append(basis_idx)
                    bits.append(bit)
                    intensities.append(int_idx)
                    probs.append(0.25 * table.probabilities[int_idx])
                    states.append(bb84_state(basis, bit))
                    mus.append(table.intensities[int_idx])
        return cls(bases=np.array(bases), bits=np.array(bits),
                   intensities=np.array(intensities),
                   probabilities=np.array(probs),
                   states=np.stack(states),
                   mean_photons=np.array(mus))

    def __len__(self) -> int:
        return len(self.bases)


def window_class_probabilities(classes: DecisionClasses,
                               channel_a: np.ndarray, channel_b: np.ndarray,
                               meas_basis,
                               params: DetectorParams) -> np.ndarray:
    """Outcome-class probabilities (12, 12, 4) under frozen channels.

    With (W, 2, 2) channels and W measurement bases, one kernel call
    gives a (W, 12, 12, 4) stack, window by window equal to single calls.
    """
    states_a, states_b = (
        classes.states @ np.asarray(channel, dtype=complex).swapaxes(-1, -2)
        for channel in (channel_a, channel_b))
    return class_probability_grid(states_a, classes.mean_photons,
                                  states_b, classes.mean_photons,
                                  meas_basis, params)


class PairMasks(NamedTuple):
    """Boolean (12, 12) masks over decision pairs (class A, class B).

    same_basis: both senders prepared in one basis (the tally cells).
    wrong_bits: same basis, and a both-click is an error: equal bits in
      the measured basis, different bits in its conjugate.
    key_candidate: both senders in the measured basis at signal intensity.
    recyclable_a, recyclable_b: the partner sent near-vacuum while the
      named sender did not and prepared in the measured basis, so the
      sender's single clicks feed its estimator.
    """

    same_basis: np.ndarray
    wrong_bits: np.ndarray
    key_candidate: np.ndarray
    recyclable_a: np.ndarray
    recyclable_b: np.ndarray


@lru_cache(maxsize=16)
def pair_masks(classes: DecisionClasses, meas_basis: str) -> PairMasks:
    """The routing rules of one window's measurement basis as PairMasks.

    Cached per (classes, meas_basis); the masks are shared between calls
    and therefore read-only.
    """
    # Columns over sender A's classes; their transposes are sender B's.
    measured = (classes.bases == BASIS_LABELS.index(meas_basis))[:, None]
    omega = (classes.intensities == OMEGA_INDEX)[:, None]
    mu = (classes.intensities == MU_INDEX)[:, None]
    same_basis = classes.bases[:, None] == classes.bases[None, :]
    same_bits = classes.bits[:, None] == classes.bits[None, :]
    recyclable_a = omega.T & ~omega & measured
    masks = PairMasks(same_basis=same_basis,
                      wrong_bits=same_basis & (same_bits == measured),
                      key_candidate=same_basis & measured & mu & mu.T,
                      recyclable_a=recyclable_a, recyclable_b=recyclable_a.T)
    for mask in masks:
        mask.flags.writeable = False
    return masks


@lru_cache(maxsize=16)
def _joint_probabilities(classes: DecisionClasses) -> np.ndarray:
    """Flattened (12 * 12) probabilities of the joint decision classes.

    Cached per classes and therefore read-only.
    """
    joint = np.outer(classes.probabilities, classes.probabilities).ravel()
    joint.flags.writeable = False
    return joint


def sample_window_counts(n_slots: int, classes: DecisionClasses,
                         class_probs: np.ndarray,
                         rng: np.random.Generator):
    """Draw one window's decision-combination and outcome counts.

    Returns (combo_counts, outcome_counts) with shapes (12, 12) and
    (12, 12, 4); outcome_counts sums to combo_counts per combination.
    """
    if n_slots < 0:
        raise EngineError("slot count must be nonnegative")
    n_classes = len(classes)
    combo_counts = rng.multinomial(
        n_slots, _joint_probabilities(classes)).reshape(n_classes, n_classes)
    # Broadcast over the combinations in row-major order.  An empty
    # combination draws no random numbers, so the stream equals one
    # draw per occupied combination.
    return combo_counts, rng.multinomial(combo_counts, class_probs)


_TALLY_COLUMNS = math.prod(TALLY_SHAPE)


@lru_cache(maxsize=16)
def routing_matrix(classes: DecisionClasses, meas_basis: str) -> np.ndarray:
    """The pair_masks rules as one 0/1 float64 matrix, cached on their key.

    One row per entry of the flattened (12, 12, 4) outcome_counts; every
    column is a boolean mask over (class A, class B, outcome).  The
    columns, left to right:
    tallies: TALLY_SHAPE flattened; sent, coincidences and errors per
      (preparation basis, intensity A, intensity B) cell.
    singles of sender A, then of sender B: (n_wrong, n_total) for the
      measured basis' bit-0 state, then the same for its bit-1 state.
    conservation: key_candidate, recycled and decoy_coincidence.
    """
    masks = pair_masks(classes, meas_basis)
    outcome = np.arange(N_OUTCOME_CLASSES)
    psi = outcome == PSI_PLUS
    single = (outcome == SINGLE_FIRST) | (outcome == SINGLE_SECOND)

    # Same-basis pairs one-hot over the tally cells, any outcome.
    n_int = len(INTENSITY_LABELS)
    cell = ((classes.bases[:, None] * n_int
             + classes.intensities[:, None]) * n_int
            + classes.intensities[None, :])
    cells = (masks.same_basis[..., None]
             & (cell[..., None] == np.arange(math.prod(TALLY_SHAPE[:3]))))
    cells = np.repeat(cells[:, :, None, :], N_OUTCOME_CLASSES, axis=2)
    coincidences = cells & psi[:, None]
    tallies = np.stack([cells, coincidences,
                        coincidences & masks.wrong_bits[..., None, None]],
                       axis=-1)

    def singles(recyclable, own_bits):
        # The wrong-arm single for bit 0 is the second arm and vice versa.
        columns = []
        for bit in (0, 1):
            own = (recyclable & (own_bits == bit))[..., None]
            columns += [own & (outcome == SINGLE_SECOND - bit), own & single]
        return np.stack(columns, axis=-1)

    conservation = np.stack([
        masks.key_candidate[..., None] & psi,
        (masks.recyclable_a | masks.recyclable_b)[..., None] & single,
        (masks.same_basis & ~masks.key_candidate)[..., None] & psi,
    ], axis=-1)
    n_rows = len(classes) ** 2 * N_OUTCOME_CLASSES
    matrix = np.concatenate([
        part.reshape(n_rows, -1) for part in (
            tallies, singles(masks.recyclable_a, classes.bits[:, None]),
            singles(masks.recyclable_b, classes.bits[None, :]),
            conservation)], axis=1).astype(np.float64)
    matrix.flags.writeable = False
    return matrix


# A float64 sum of nonnegative integers is exact, in any order, while the
# exact total stays below 2**53; SessionConfig refuses windows that
# would hold that many slots.
EXACT_FLOAT_SUM = 2 ** 53


class WindowRoutes(NamedTuple):
    """One window's outcome counts routed to everything the session keeps.

    tallies: int64 counts of TALLY_SHAPE, to add to the window's TallySet.
    singles_a, singles_b: each sender's estimator inputs from its
      partner-vacuum singles, {state label: (n_wrong, n_total)}.
    conservation: slot count per CONSERVATION_CLASSES entry.
    """

    tallies: np.ndarray
    singles_a: dict
    singles_b: dict
    conservation: dict


def route_window(classes: DecisionClasses, meas_basis: str,
                 outcome_counts: np.ndarray) -> WindowRoutes:
    """Route one window's (12, 12, 4) outcome counts with one product.

    Tallies: every same-basis pair counts as sent; its both-clicks are
    coincidences, erroneous when the bits match in the measurement basis
    or differ in its conjugate.

    Singles: for each sender, every slot where the partner sent the
    near-vacuum intensity and exactly one detector clicked attributes
    the click to the sender's transmitted state.  Only states prepared
    in the measured basis carry alignment information; the wrong-arm
    single for bit 0 is the second arm and vice versa.

    Conservation classifies every slot exactly once:
    key_candidate: both-click, both senders in the measured basis at
      signal intensity (the sifted-key source).
    recycled: single click with exactly one near-vacuum sender whose
      partner prepared in the measured basis (feeds the estimators).
    decoy_coincidence: any other both-click where the senders share a
      basis (feeds the tallies only).
    discarded: everything else, including all no-click slots.
    """
    total = int(outcome_counts.sum())
    # Every column sums a subset of the window's counts.
    if total >= EXACT_FLOAT_SUM:
        raise EngineError("window counts too large to route exactly")
    sums = (outcome_counts.reshape(-1).astype(np.float64)
            @ routing_matrix(classes, meas_basis)).astype(np.int64)
    (wrong_a0, total_a0, wrong_a1, total_a1, wrong_b0, total_b0, wrong_b1,
     total_b1, key, recycled, decoy) = sums[_TALLY_COLUMNS:].tolist()
    labels = BASIS_STATES[meas_basis]
    return WindowRoutes(
        tallies=sums[:_TALLY_COLUMNS].reshape(TALLY_SHAPE),
        singles_a={labels[0]: (wrong_a0, total_a0),
                   labels[1]: (wrong_a1, total_a1)},
        singles_b={labels[0]: (wrong_b0, total_b0),
                   labels[1]: (wrong_b1, total_b1)},
        conservation={"key_candidate": key, "recycled": recycled,
                      "decoy_coincidence": decoy,
                      "discarded": total - key - recycled - decoy})
