"""Session orchestration: config, sifting, recycling, and reporting.

A session runs the five-step protocol over a schedule of collection
windows: both senders transmit continuously; the measurement node
announces projection results; basis/intensity reveals drive sifting
and decoy tallies; partner-vacuum singles are revealed and recycled
into per-user misalignment estimates; and each user's compensator
reacts locally when its estimate crosses the trigger threshold.

Two sampling backends share all bookkeeping: the default aggregate
backend draws exact per-window multinomials (fast enough for hours of
virtual time), while the per-slot backend samples every slot, a
fixed-size chunk of slots at a time, and runs the protocol on columns:
the announced slots, their outcomes, and each user's reveals as arrays
with one entry per announced slot.  That keeps the full protocol honest
and pins down the privacy semantics at slot granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import engine
from .bsm import (OUTCOME_CLASSES, OUTCOME_PSI_PLUS, OUTCOME_SINGLE_FIRST,
                  OUTCOME_SINGLE_SECOND, BasisSchedule, DetectorParams,
                  phase_coefficients)
from .compensation import ControllerConfig
from .decoy import (DEFAULT_ERROR_CORRECTION_EFFICIENCY, bound_y11_e11,
                    key_rate, p11)
from .polarization import BASIS_STATES
from .transmitter import (_HASH_BLOCK, BASIS_LABELS, INTENSITY_LABELS,
                          IntensityTable, draw_classes, draw_phases)

MODES = ("in-process", "networked")
SAMPLING_BACKENDS = ("aggregate", "per-slot")
USERS = ("alice", "bob")

# Most windows one session may hold: a little over 17 days at the 15 s
# reference period.  The report keeps every window's trace, about 2.5 kB
# each, so this bounds them near 250 MB.
MAX_WINDOWS = 100_000


class SessionError(ValueError):
    """Raised for invalid session configuration or protocol faults."""


class SessionFailure(SessionError):
    """Raised when a session fails after start-up: a user process that
    ended, a malformed frame, a node or accounting fault, a privacy fault."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything a session run depends on; defaults mirror the experiment.

    duration_s is virtual time.  Both senders draw their decisions from
    the one intensity table.  Per-user drift rates and initial
    misalignment angles describe the fiber arms; seeds derive every
    random stream, so equal configs give identical reports.
    """

    duration_s: float = 60.0
    rep_rate_hz: float = 10e6
    table: IntensityTable = field(default_factory=IntensityTable)
    detector: DetectorParams = field(default_factory=DetectorParams)
    schedule: BasisSchedule = field(default_factory=BasisSchedule)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    drift_rate_a: float = 0.003
    drift_rate_b: float = 0.003
    initial_misalignment_a: float = 0.0
    initial_misalignment_b: float = 0.0
    compensation_enabled: bool = True
    seed: int = 0
    mode: str = "in-process"
    sampling: str = "aggregate"
    reference_smoothing: float = 0.3
    bound_method: str = "analytic"
    error_correction_efficiency: float = DEFAULT_ERROR_CORRECTION_EFFICIENCY

    def __post_init__(self):
        if not self.duration_s >= 0.0:
            raise SessionError(f"duration_s must be >= 0, got {self.duration_s}")
        if not self.rep_rate_hz > 0.0:
            raise SessionError(f"rep_rate_hz must be > 0, got {self.rep_rate_hz}")
        for name in ("drift_rate_a", "drift_rate_b",
                     "initial_misalignment_a", "initial_misalignment_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise SessionError(f"{name} must be finite and >= 0, "
                                   f"got {value}")
        if self.mode not in MODES:
            raise SessionError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLING_BACKENDS:
            raise SessionError(f"sampling must be one of {SAMPLING_BACKENDS}, "
                               f"got {self.sampling!r}")
        if self.mode == "networked" and self.sampling != "aggregate":
            raise SessionError("networked mode supports aggregate sampling only")
        # bool is an int subclass; numpy seeds only nonnegative integers.
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or self.seed < 0):
            raise SessionError(f"seed must be a nonnegative integer, got "
                               f"{self.seed!r}")
        if not 0.0 < self.reference_smoothing <= 1.0:
            raise SessionError("reference_smoothing must be in (0, 1], got "
                               f"{self.reference_smoothing}")
        if self.bound_method not in ("analytic", "lp"):
            raise SessionError(f"bound_method must be 'analytic' or 'lp', "
                               f"got {self.bound_method!r}")
        if not 1.0 <= self.error_correction_efficiency < math.inf:
            raise SessionError("error_correction_efficiency must be in [1, inf), "
                               f"got {self.error_correction_efficiency}")
        if not isinstance(self.table, IntensityTable):
            raise SessionError("table must be an IntensityTable instance")
        if not isinstance(self.detector, DetectorParams):
            raise SessionError("detector must be a DetectorParams instance")
        if not isinstance(self.schedule, BasisSchedule):
            raise SessionError("schedule must be a BasisSchedule instance")
        if not isinstance(self.controller, ControllerConfig):
            raise SessionError("controller must be a ControllerConfig instance")
        # Counted on the schedule itself, whose accumulated start times
        # can add a last sliver of a window, and never past the cap, so
        # an endless duration is refused as quickly as a long one.
        if sum(1 for _ in islice(self._schedule(),
                                 MAX_WINDOWS + 1)) > MAX_WINDOWS:
            raise SessionError(
                f"duration_s = {self.duration_s} over windows of "
                f"{self.schedule.period} s gives more than MAX_WINDOWS = "
                f"{MAX_WINDOWS} windows")
        longest = min(self.schedule.period, self.duration_s)
        if self.rep_rate_hz * longest >= engine.EXACT_FLOAT_SUM:
            raise SessionError(
                f"rep_rate_hz = {self.rep_rate_hz} over windows of "
                f"{longest} s (schedule period {self.schedule.period} s) "
                f"gives at least 2**53 slots per window, too many to count "
                f"exactly")

    def windows(self) -> list:
        """(t_start, dt, meas_basis) for every window covering the duration."""
        return list(self._schedule())

    def _schedule(self):
        index = 0
        t = 0.0
        while t < self.duration_s - 1e-9:
            dt = min(self.schedule.period, self.duration_s - t)
            yield t, dt, self.schedule.window_basis(index)
            t += dt
            index += 1

    def slots_in(self, dt: float) -> int:
        return int(round(self.rep_rate_hz * dt))


@dataclass(frozen=True)
class WindowTrace:
    """Per-window record: estimates, ground-truth angles, accounting."""

    index: int
    t_start: float
    duration: float
    meas_basis: str
    n_slots: int
    est_theta: dict
    true_theta: dict
    estimator_counts: dict
    triggered: dict
    counts: dict


@dataclass(frozen=True)
class SiftSummary:
    """Sifted-key accounting for one measurement-basis half."""

    n_sifted: int
    n_errors: int

    @property
    def qber(self) -> float:
        return self.n_errors / self.n_sifted if self.n_sifted else 0.0


@dataclass
class SessionReport:
    """Everything a finished session hands to reporting and analysis."""

    duration_s: float
    seed: int
    mode: str
    sampling: str
    windows: list
    tallies: dict
    sifted: dict
    bounds: dict
    rates: dict
    final_retardances: dict

    def mean_true_theta(self, user: str) -> dict:
        """Average ground-truth misalignment per basis for one user."""
        sums = {"Z": 0.0, "X": 0.0}
        if not self.windows:
            return {"Z": None, "X": None}
        for trace in self.windows:
            angles = trace.true_theta[user]
            sums["Z"] += angles[0]
            sums["X"] += angles[1]
        return {basis: sums[basis] / len(self.windows) for basis in sums}


# ---------------------------------------------------------------------------
# Slot-level protocol operations
# ---------------------------------------------------------------------------
#
# Announcements, reveals and bits are columns: slots ascend, outcomes
# index OUTCOME_CLASSES, bases BASIS_LABELS, intensities
# INTENSITY_LABELS.  A user's (bases, intensities) reveal columns hold
# one entry per announced slot; its bit reveals are (slots, bits).

_PSI_PLUS, _SINGLE_FIRST, _SINGLE_SECOND = (
    OUTCOME_CLASSES.index(outcome) for outcome in
    (OUTCOME_PSI_PLUS, OUTCOME_SINGLE_FIRST, OUTCOME_SINGLE_SECOND))
_MU, _OMEGA = INTENSITY_LABELS.index("mu"), INTENSITY_LABELS.index("omega")


def user_reveals(slots, outcomes, pairs) -> tuple:
    """What each user reveals about the announced slots.

    pairs holds each announced slot's decision-pair index, 12 * class A
    + class B with class = 6*basis + 3*bit + intensity.  Every user
    reveals basis and intensity for every announced slot, and its bit
    for a single click on which it sent a non-vacuum intensity while
    the counterpart sent the near-vacuum one.

    Returns (reveals, bit_reveals, bits), each {user: columns}; bits
    are the true bits, which only error counting reads.
    """
    single = (outcomes == _SINGLE_FIRST) | (outcomes == _SINGLE_SECOND)
    reveals, bit_reveals, bits = {}, {}, {}
    for user, classes in zip(USERS, np.divmod(pairs, 12)):
        basis, rest = np.divmod(classes, 6)
        bit, intensity = np.divmod(rest, 3)
        reveals[user], bits[user] = (basis, intensity), bit
    for user, partner in zip(USERS, reversed(USERS)):
        shown = single & (reveals[user][1] != _OMEGA) \
            & (reveals[partner][1] == _OMEGA)
        bit_reveals[user] = (slots[shown], bits[user][shown])
    return reveals, bit_reveals, bits


def sift(slots, outcomes, reveals_a, reveals_b, meas_basis: str, bits_a,
         bits_b):
    """Select key slots and count errors from announced results.

    A slot enters the key when the projection was the both-click class
    and both users reveal the measured basis at signal intensity.
    Errors are counted from the true bits (one per announced slot)
    under the both-click correlation rule (anticorrelated bits are
    correct in the measured basis).

    Returns (kept_slots, summary_dict).
    """
    basis = BASIS_LABELS.index(meas_basis)
    (bases_a, ints_a), (bases_b, ints_b) = reveals_a, reveals_b
    keep = (outcomes == _PSI_PLUS) & (bases_a == basis) \
        & (bases_b == basis) & (ints_a == _MU) & (ints_b == _MU)
    n_errors = int(np.count_nonzero(keep & (bits_a == bits_b)))
    kept = slots[keep]
    return kept, {"n_sifted": len(kept), "n_errors": n_errors}


def recycle_singles(slots, outcomes, reveals_a, reveals_b, bit_reveals_a,
                    bit_reveals_b, meas_basis: str):
    """Estimator counts from partner-vacuum singles, enforcing privacy.

    A bit reveal is legitimate only for an announced slot whose outcome
    was a single click and whose counterpart revealed the near-vacuum
    intensity; any other bit reveal is a protocol fault and aborts the
    session.  Legitimate reveals from states prepared in the measured
    basis contribute (wrong-arm, total) counts per state label; the
    wrong arm for bit 0 is the second arm and vice versa.

    Returns {user: {state label: (n_wrong, n_total)}} with the labels
    seen.
    """
    basis = BASIS_LABELS.index(meas_basis)
    single = (outcomes == _SINGLE_FIRST) | (outcomes == _SINGLE_SECOND)
    counts = {}
    sides = (("alice", bit_reveals_a, reveals_a, reveals_b),
             ("bob", bit_reveals_b, reveals_b, reveals_a))
    for user, (bit_slots, bits), (own_bases, own_ints), (_, partner_ints) \
            in sides:
        # Join the bit reveals to the announcements:
        # bit_slots[joined] == slots[rows].
        _, rows, joined = np.intersect1d(slots, bit_slots, assume_unique=True,
                                         return_indices=True)
        legitimate = np.zeros(len(bit_slots), dtype=bool)
        legitimate[joined] = single[rows]
        if not legitimate.all():
            raise SessionFailure(
                f"privacy fault: {user} revealed a bit for slot "
                f"{bit_slots[~legitimate][0]} whose outcome was not a "
                "failed (single-click) projection")
        legitimate[joined] = partner_ints[rows] == _OMEGA
        if not legitimate.all():
            raise SessionFailure(
                f"privacy fault: {user} revealed a bit for slot "
                f"{bit_slots[~legitimate][0]} although the counterpart did "
                "not send the near-vacuum intensity")
        bits = bits[joined]
        used = (own_bases[rows] == basis) & (own_ints[rows] != _OMEGA)
        wrong = outcomes[rows] == np.where(bits == 0, _SINGLE_SECOND,
                                           _SINGLE_FIRST)
        totals = np.bincount(bits[used], minlength=2)
        wrongs = np.bincount(bits[used & wrong], minlength=2)
        counts[user] = {BASIS_STATES[meas_basis][bit]:
                        (int(wrongs[bit]), int(totals[bit]))
                        for bit in (0, 1) if totals[bit]}
    return counts


# ---------------------------------------------------------------------------
# Per-slot sampling backend
# ---------------------------------------------------------------------------

def empty_decisions(n_slots: int) -> tuple:
    """Buffers for slot_decisions to fill: (slots, pairs, pair_counts)."""
    return (np.empty(n_slots, dtype=np.uint64),
            np.empty(n_slots, dtype=np.uint8), np.empty(144, dtype=np.int64))


def slot_decisions(config: SessionConfig, window_index: int, start: int,
                   n_slots: int, out: tuple) -> None:
    """Write the decisions of slots [start, start + n_slots) of one window.

    out is (slots, pairs, pair_counts): arrays of at least n_slots
    entries (uint64 and uint8) that receive each slot's absolute index
    and its decision-pair index, 12 * class A + class B, and a (144,)
    int64 array that receives how many of the slots hold each pair.  All
    are pure functions of the seed and the slots, and no random stream
    is read, so this can run ahead of the sampler on another thread.  It
    works one hash block at a time and allocates nothing larger than a
    block.
    """
    slots, pairs, pair_counts = out
    pair_counts[:] = 0
    first = (window_index << 40) + start
    for lo in range(0, n_slots, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, n_slots)
        block = slots[lo:hi]
        block[:] = np.arange(first + lo, first + hi, dtype=np.uint64)
        # uint8 holds every pair index, 12 * 11 + 11 at most.
        pair = pairs[lo:hi]
        pair[:] = draw_classes(config.seed * 2 + 0, block, config.table)
        pair *= 12
        pair += draw_classes(config.seed * 2 + 1, block, config.table)
        pair_counts += np.bincount(pair, minlength=144)


@dataclass(frozen=True)
class WindowArms:
    """What the per-slot sampler needs of one window's channels.

    c0, re_c1 and im_c1 are each decision pair's arm phase coefficients
    as (144, 2) arrays: the arm intensity at phase difference phi is
    c0 + Re(c1) cos phi - Im(c1) sin phi, the integrand that the window
    kernel averages in closed form.  p_max bounds each pair's click
    probability per arm over all phases.  eta and keep are the
    detector's efficiency and no-dark-count probability.
    """

    c0: np.ndarray
    re_c1: np.ndarray
    im_c1: np.ndarray
    p_max: np.ndarray
    eta: float
    keep: float

    @classmethod
    def build(cls, config: SessionConfig, classes: engine.DecisionClasses,
              meas_basis: str, channel_a: np.ndarray,
              channel_b: np.ndarray) -> "WindowArms":
        rotated_a = classes.states @ np.asarray(channel_a, dtype=complex).T
        rotated_b = classes.states @ np.asarray(channel_b, dtype=complex).T
        c0, c1 = phase_coefficients(rotated_a, classes.mean_photons,
                                    rotated_b, classes.mean_photons,
                                    meas_basis)
        c0, re_c1, im_c1 = (x.reshape(144, 2)
                            for x in (c0, c1.real, c1.imag))
        eta, keep = config.detector.efficiency, 1.0 - config.detector.dark_prob
        # Exact thinning: |a cos phi| <= |a| survives rounding, so no
        # phase lifts an arm's click probability above p_max (widened
        # against rounding in exp); a slot whose two uniforms clear their
        # arms' p_max cannot click and needs no phase.
        brightest = c0 + np.abs(re_c1) + np.abs(im_c1)
        p_max = (1.0 - keep * np.exp(-eta * brightest)) * (1.0 + 1e-9)
        return cls(c0=c0, re_c1=re_c1, im_c1=im_c1, p_max=p_max, eta=eta,
                   keep=keep)


def sample_window_slots(config: SessionConfig, n_slots: int, arms: WindowArms,
                        rng: np.random.Generator, decisions: tuple,
                        uniforms: np.ndarray):
    """Sample the first n_slots slots of `decisions` under a window's arms.

    decisions is (slots, pairs, pair_counts) as slot_decisions writes
    them for exactly these n_slots slots; uniforms is a float64 buffer
    of at least (n_slots, 2) that receives the slots' click uniforms.
    Returns (slots, outcomes, pairs, outcome_counts), none of which
    shares memory with either buffer.  slots and outcomes are the
    measurement node's announcements: the clicked slots' absolute
    indices (uint64, ascending) and OUTCOME_CLASSES indices.  pairs
    holds each announced slot's decision-pair index, from which
    user_reveals reads the reveals.  outcome_counts counts all n_slots
    slots by pair and outcome, (12, 12, 4).  Phases depend on the
    absolute slot index alone and the clicks take n_slots consecutive
    (slot, arm) pairs from rng, so consecutive calls that tile a window
    give the same columns, counts and rng state as one call over the
    whole window.
    """
    slots, pair, pair_counts = decisions
    slots, pair = slots[:n_slots], pair[:n_slots]
    # The same stream as rng.random((n_slots, 2)), written in place.
    uniforms = rng.random(out=uniforms[:n_slots])
    candidate = _thinning_candidates(uniforms, pair, arms.p_max)
    cand_slots, cand_pair = slots[candidate], pair[candidate]
    phases = draw_phases(config.seed * 2 + 0, cand_slots) \
        - draw_phases(config.seed * 2 + 1, cand_slots)
    # Per arm, the candidate's intensity at its phase.  take gathers
    # rows several times faster than fancy indexing.
    c0, re_c1, im_c1 = (x.take(cand_pair, axis=0)
                        for x in (arms.c0, arms.re_c1, arms.im_c1))
    intensity = c0 + re_c1 * np.cos(phases)[:, None] \
        - im_c1 * np.sin(phases)[:, None]
    clicks = uniforms.take(candidate, axis=0) \
        < 1.0 - arms.keep * np.exp(-arms.eta * intensity)
    # OUTCOME_CLASSES order: both arms, first only, second only, none.
    outcomes = 3 - 2 * clicks[:, 0] - clicks[:, 1]
    counts = np.bincount(4 * cand_pair.astype(np.intp) + outcomes,
                         minlength=576)
    counts = counts.reshape(144, 4)
    # Every slot that is no candidate is a no-click.
    counts[:, 3] += pair_counts - counts.sum(axis=1)
    clicked = outcomes != 3
    return (cand_slots[clicked], outcomes[clicked], cand_pair[clicked],
            counts.reshape(12, 12, 4))


def _thinning_candidates(uniforms, pair, p_max) -> np.ndarray:
    """Ascending rows whose uniform falls below its pair's p_max in some arm.

    The largest p_max of all pairs and arms screens the slots first, in
    one contiguous pass over both arms' uniforms; only the few that pass
    (about 6 % at the reference settings) are compared with their own
    pair's bound, which gives the same rows as comparing every slot with
    its own.
    """
    # A row passes the screen when either of its two flags is set.
    screened = (uniforms.reshape(-1) < p_max.max()).view(np.uint16)
    passed = np.flatnonzero(screened.astype(bool))
    own = p_max.take(pair[passed], axis=0)
    drawn = uniforms.take(passed, axis=0)
    keep = drawn[:, 0] < own[:, 0]
    keep |= drawn[:, 1] < own[:, 1]
    return passed[keep]


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def summarize_sifted(tallies: dict) -> dict:
    """Sifted counts per half: matched-basis signal cells of the tallies."""
    sifted = {}
    for half, tally_set in tallies.items():
        cell = tally_set.cell(half, "mu", "mu")
        sifted[half] = SiftSummary(n_sifted=cell.coincidences,
                                   n_errors=cell.errors)
    return sifted


def analyze_tallies(config: SessionConfig, tallies: dict) -> tuple:
    """Decoy bounds and key rate per measurement half, where computable."""
    bounds: dict = {}
    rates: dict = {}
    for half, tally_set in tallies.items():
        signal = tally_set.cell(half, "mu", "mu")
        if signal.sent == 0 or signal.coincidences == 0:
            bounds[half] = None
            rates[half] = None
            continue
        grids = {basis: tally_set.gain_grid(basis) for basis in BASIS_LABELS}
        half_bounds = bound_y11_e11(grids, config.table, half,
                                    method=config.bound_method,
                                    shift_sigmas=1.0)
        q_signal = signal.coincidences / signal.sent
        e_signal = signal.errors / signal.coincidences
        bounds[half] = half_bounds
        rates[half] = key_rate(p11(config.table.mu),
                               half_bounds.y11_lower[half],
                               half_bounds.e11_upper, q_signal, e_signal,
                               config.error_correction_efficiency)
    return bounds, rates


def run_session(config: SessionConfig) -> SessionReport:
    """Execute a session under the configured mode and sampling backend."""
    from . import nodes
    if config.mode == "networked":
        return nodes.run_networked(config)
    return nodes.run_in_process(config)
