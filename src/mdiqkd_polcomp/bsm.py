"""Interference and threshold detection at the measurement node.

The two senders' weak coherent pulses meet on a 50:50 beam splitter.  One
output port is monitored: a polarizing splitter in the currently
scheduled basis feeds two threshold detectors.  The first arm projects
onto the basis' bit-0 state (H in Z windows, D in X windows), the second
onto the bit-1 state.  A joint click on both arms is announced as a
successful projection (psi_plus class); lone clicks are kept as singles
because they become useful when one sender transmitted near-vacuum.

With coherent inputs the arm intensities are exact functions of the
relative optical phase phi:

    a_m = (<m|psi_A> sqrt(mu_A) + e^{i phi} <m|psi_B> sqrt(mu_B)) / sqrt(2)
    I_m = |a_m|^2 = c0_m + Re(c1_m e^{i phi})

and each detector clicks independently with 1 - (1 - d) exp(-eta I_m).
Since phi is uniform and independent per slot, slot outcomes are i.i.d.
draws from the phase-averaged class probabilities.  Every class follows
from three no-click probabilities (arm 0 dark, arm 1 dark, both dark),
each of the form (1 - d)^k <exp(-eta (c0 + Re(c1 e^{i phi})))>, and that
phase average has the closed form exp(-eta c0) I0(eta |c1|) (Xu, Curty,
Qi & Lo, NJP 15, 113007 (2013)).  The classes are written as products
of per-arm click and no-click probabilities and the arms' phase
correlation, never as differences of numbers close to one, so that the
near-vacuum both-click cells (about 1e-10) keep their relative precision.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polarization import JONES_STATES, bb84_state

OUTCOME_PSI_PLUS = "psi_plus"
OUTCOME_SINGLE_FIRST = "single_first"
OUTCOME_SINGLE_SECOND = "single_second"
OUTCOME_NO_CLICK = "no_click"

OUTCOME_CLASSES = (OUTCOME_PSI_PLUS, OUTCOME_SINGLE_FIRST,
                   OUTCOME_SINGLE_SECOND, OUTCOME_NO_CLICK)

# Rows are the arm bras of the monitored polarizing splitter.
ARM_PROJECTORS = {
    "Z": np.array([JONES_STATES["H"], JONES_STATES["V"]]).conj(),
    "X": np.array([JONES_STATES["D"], JONES_STATES["A"]]).conj(),
}


class BsmError(ValueError):
    """Raised for invalid measurement-node configuration."""


@dataclass(frozen=True)
class DetectorParams:
    """Threshold detector model: total efficiency and dark-click probability.

    efficiency folds every loss between a sender and a detector (fiber,
    coupling, detector quantum efficiency) into one number.  dark_prob is
    the per-slot probability of a click with no light present.  The
    defaults are the output of the calibrate command: efficiency is
    fitted so the Z-window same-basis signal gain equals 3.0e-5 at
    mu = 0.28 with the default dark probability.
    """

    efficiency: float = 0.055515164
    dark_prob: float = 2.0e-6

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise BsmError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_prob < 1.0:
            raise BsmError(f"dark_prob must be in [0, 1), got {self.dark_prob}")


@dataclass(frozen=True)
class BasisSchedule:
    """Deterministic alternation of the measurement basis.

    The session is cut into windows of `period` seconds; even-indexed
    windows measure in Z, odd-indexed windows in X, starting at Z for
    t = 0.
    """

    period: float = 15.0

    def __post_init__(self):
        if not self.period > 0.0:
            raise BsmError(f"schedule period must be positive, got {self.period}")

    def window_basis(self, index: int) -> str:
        return "Z" if index % 2 == 0 else "X"


@lru_cache(maxsize=16)
def _arm_kets(bases: tuple) -> np.ndarray:
    """The transposed arm bras of each window's basis, shape (W, 2, 2).

    Cached per basis sequence and therefore read-only.
    """
    kets = np.stack([ARM_PROJECTORS[basis].T for basis in bases])
    kets.flags.writeable = False
    return kets


@lru_cache(maxsize=16)
def _root_photons(mus_a: bytes, mus_b: bytes) -> np.ndarray:
    """sqrt(mu) of both senders' float64 mean photon numbers, as a column.

    The arguments are the arrays' bytes; the result is cached per value
    and therefore read-only.
    """
    roots = np.sqrt(np.frombuffer(mus_a + mus_b))[:, None]
    roots.flags.writeable = False
    return roots


def _window_stack(states_a, states_b, basis) -> tuple:
    """(states_a, states_b, bases, stacked) with a leading window axis.

    A single window passes (n, 2) and (m, 2) states and one basis name;
    a stack of W windows passes (W, n, 2) and (W, m, 2) states and W
    basis names.
    """
    stacked = not isinstance(basis, str)
    states_a, states_b = (np.asarray(states, dtype=complex)
                          for states in (states_a, states_b))
    if stacked:
        return states_a, states_b, tuple(basis), True
    return states_a[None], states_b[None], (basis,), False


def _phase_buffers(states_a, mus_a, states_b, mus_b, bases) -> tuple:
    """Arm-major phase coefficients of a window stack.

    Returns c0 with shape (2, W, n, m) and c1 with shape (3, W, n, m):
    c1[0] and c1[1] are the arms' coefficients, c1[2] their sum.  Both
    senders' amplitudes <m|psi> sqrt(mu) come from one product.
    """
    n_a = states_a.shape[-2]
    amps = np.concatenate([states_a, states_b], axis=-2) @ _arm_kets(bases)
    roots = _root_photons(*(np.asarray(mus, dtype=float).tobytes()
                            for mus in (mus_a, mus_b)))
    np.multiply(amps, roots, out=amps)
    # Arm-major views: (2, W, n + m).
    power = np.abs(amps).transpose(2, 0, 1)
    np.square(power, out=power)
    amps = amps.transpose(2, 0, 1)
    c0 = np.add(power[..., :n_a, None], power[..., None, n_a:])
    np.divide(c0, 2.0, out=c0)
    c1 = np.empty((3,) + c0.shape[1:], dtype=complex)
    np.multiply(amps[..., :n_a, None].conj(), amps[..., None, n_a:],
                out=c1[:2])
    np.add(c1[0], c1[1], out=c1[2])
    return c0, c1


def phase_coefficients(states_a: np.ndarray, mus_a: np.ndarray,
                       states_b: np.ndarray, mus_b: np.ndarray,
                       basis):
    """Arm-intensity phase coefficients for every (a, b) input combination.

    For input combination (i, j) and arm m the monitored intensity is
    c0[i, j, m] + Re(c1[i, j, m] e^{i phi}).  states_* are stacks of
    Jones vectors, mus_* the matching mean photon numbers.  With a
    leading window axis on states_* and one basis per window, c0 and c1
    get the same leading axis.
    """
    states_a, states_b, bases, stacked = _window_stack(states_a, states_b,
                                                       basis)
    c0, c1 = _phase_buffers(states_a, mus_a, states_b, mus_b, bases)
    # Arm-last and contiguous, so that a row of either holds its pair's
    # two arms side by side.
    c0, c1 = (np.ascontiguousarray(x.transpose(1, 2, 3, 0))
              for x in (c0, c1[:2]))
    return (c0, c1) if stacked else (c0[0], c1[0])


# The I0 series is summed for arguments below _I0_SERIES_LIMIT, to at
# most _I0_SERIES_TERMS terms; there the first term dropped from all
# twelve is below 1e-17 relative.  A call keeps the fewest terms K whose
# first dropped term, q_max^K / ((K + 1)!)^2 with q_max = (z_max / 2)^2,
# is below _I0_SERIES_CUT: far enough below an ulp of the series' leading
# 1 that the sum rounds as the full series does.  With eta |c1| <= 0.016,
# as at the reference settings, that is five terms.
_I0_SERIES_TERMS = 12
_I0_SERIES_LIMIT = 2.0
_I0_SERIES_CUT = 1e-22
# K terms suffice while q_max < _I0_CUT_Q[K - 1].
_I0_CUT_Q = tuple((_I0_SERIES_CUT * math.factorial(k + 1) ** 2) ** (1.0 / k)
                  for k in range(1, _I0_SERIES_TERMS))


def _log_i0(z: np.ndarray) -> np.ndarray:
    """log I0(z), accurate relative to I0(z) - 1 for small z.

    Near z = 0, log(I0(z)) would round I0(z) = 1 + z^2/4 + ... to the
    nearest double and lose the z^2/4 that near-vacuum cells depend on,
    so there the series I0(z) - 1 = sum_k (z^2/4)^k / (k!)^2 is summed
    directly and passed to log1p.
    """
    z_max = float(z.max()) if z.size else 0.0
    n_terms = bisect.bisect_right(_I0_CUT_Q, (z_max / 2.0) ** 2) + 1
    q = np.divide(z, 2.0)
    np.square(q, out=q)
    # Horner from k = n_terms down to 2, series = 1 + series * q / k^2,
    # kept multiplied by q: it starts at q (series = 1) and ends at
    # I0(z) - 1.
    series = q.copy()
    for k in range(n_terms, 1, -1):
        np.divide(series, k ** 2, out=series)
        np.add(series, 1.0, out=series)
        np.multiply(series, q, out=series)
    if z_max < _I0_SERIES_LIMIT:
        return np.log1p(series, out=series)
    # Only bright inputs get here, so scipy is imported only for them.
    from scipy.special import i0e
    return np.where(z < _I0_SERIES_LIMIT, np.log1p(series),
                    z + np.log(i0e(z)))


def class_probability_grid(states_a: np.ndarray, mus_a: np.ndarray,
                           states_b: np.ndarray, mus_b: np.ndarray,
                           basis, params: DetectorParams) -> np.ndarray:
    """Phase-averaged outcome-class probabilities for all input pairs.

    Returns an array of shape (len(states_a), len(states_b), 4) ordered
    as OUTCOME_CLASSES.  With a leading window axis on states_* and one
    basis per window, the result gets the same leading axis; every
    window's cells equal a call for that window alone, bit for bit.
    With q_m = exp(L_m) the probability that arm m stays dark and
    q_0 q_1 exp(D) that both do, the classes are
    (1 - q_0)(1 - q_1) + q_0 q_1 (exp(D) - 1), q_1 (1 - exp(L_0 + D)),
    q_0 (1 - exp(L_1 + D)) and q_0 q_1 exp(D); D, the arms' phase
    correlation, vanishes when either arm gets no interfering light.
    """
    states_a, states_b, bases, stacked = _window_stack(states_a, states_b,
                                                       basis)
    c0, c1 = _phase_buffers(states_a, mus_a, states_b, mus_b, bases)
    eta = params.efficiency
    # One series evaluation over both arms and their sum.
    z = np.abs(c1)
    np.multiply(z, eta, out=z)
    log_i0 = _log_i0(z)
    # logs[0], logs[1]: L_0, L_1; logs[2]: D; logs[3], logs[4]: L_m + D.
    logs = np.empty((5,) + c0.shape[1:])
    np.multiply(c0, eta, out=logs[:2])
    np.subtract(math.log1p(-params.dark_prob), logs[:2], out=logs[:2])
    np.add(logs[:2], log_i0[:2], out=logs[:2])
    np.add(log_i0[0], log_i0[1], out=logs[2])
    np.subtract(log_i0[2], logs[2], out=logs[2])
    np.add(logs[:2], logs[2], out=logs[3:])
    quiet = np.exp(logs[:3])
    loud = np.expm1(logs)
    grid = np.empty(c0.shape[1:] + (4,))
    classes = grid.transpose(3, 0, 1, 2)
    both_quiet = np.multiply(quiet[0], quiet[1])
    np.multiply(loud[0], loud[1], out=classes[0])
    np.add(classes[0], np.multiply(both_quiet, loud[2]), out=classes[0])
    np.multiply(quiet[1::-1], loud[3:], out=classes[1:3])
    np.negative(classes[1:3], out=classes[1:3])
    np.multiply(both_quiet, quiet[2], out=classes[3])
    return grid if stacked else grid[0]


def _pair_states(pair_basis: str, channel_a, channel_b) -> tuple:
    """Both bits' pair_basis states as each sender's channel delivers them."""
    states = np.stack([bb84_state(pair_basis, bit) for bit in (0, 1)])
    return tuple(states if channel is None
                 else states @ np.asarray(channel, dtype=complex).T
                 for channel in (channel_a, channel_b))


def pair_gain_and_qber(pair_basis: str, meas_basis: str,
                       mu_a: float, mu_b: float, params: DetectorParams,
                       channel_a: np.ndarray | None = None,
                       channel_b: np.ndarray | None = None
                       ) -> tuple[float, float]:
    """Analytic gain and error rate for same-basis sender pairs.

    Both senders prepare in pair_basis with uniform independent bits while
    the node measures in meas_basis.  A joint-click event is correct when
    the bits anticorrelate if pair_basis equals the measurement basis,
    and when they correlate otherwise (the projected two-photon state is
    anticorrelated in the measurement basis and correlated in its
    conjugate).  Returns (gain, qber); qber is NaN when the gain is zero.
    """
    states_a, states_b = _pair_states(pair_basis, channel_a, channel_b)
    grid = class_probability_grid(states_a, np.full(2, float(mu_a)),
                                  states_b, np.full(2, float(mu_b)),
                                  meas_basis, params)
    coincidence = grid[..., 0]
    gain = float(coincidence.mean())
    anticorrelated = coincidence[0, 1] + coincidence[1, 0]
    correlated = coincidence[0, 0] + coincidence[1, 1]
    wrong = correlated if pair_basis == meas_basis else anticorrelated
    total = anticorrelated + correlated
    qber = float(wrong / total) if total > 0 else float("nan")
    return gain, qber


def monte_carlo_pair(pair_basis: str, meas_basis: str,
                     mu_a: float, mu_b: float, params: DetectorParams,
                     n_trials: int, rng: np.random.Generator,
                     channel_a: np.ndarray | None = None,
                     channel_b: np.ndarray | None = None):
    """Monte-Carlo gain and error counts for same-basis sender pairs.

    Independent route from the analytic grid: per-trial amplitudes are
    assembled directly from sampled bits and phases, and detector clicks
    are Bernoulli draws.  Returns (gain, n_correct, n_wrong).
    """
    states_a, states_b = _pair_states(pair_basis, channel_a, channel_b)
    bras = ARM_PROJECTORS[meas_basis]
    bits_a = rng.integers(0, 2, size=n_trials)
    bits_b = rng.integers(0, 2, size=n_trials)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n_trials)
    amp_a = states_a[bits_a] @ bras.T * math.sqrt(mu_a)
    amp_b = states_b[bits_b] @ bras.T * math.sqrt(mu_b)
    intensity = np.abs(amp_a + amp_b * np.exp(1.0j * phases)[:, None]) ** 2 / 2.0
    p_click = 1.0 - (1.0 - params.dark_prob) \
        * np.exp(-params.efficiency * intensity)
    clicks = rng.random(intensity.shape) < p_click
    coincidence = clicks[:, 0] & clicks[:, 1]
    expect_anti = pair_basis == meas_basis
    wrong_bits = (bits_a == bits_b) if expect_anti else (bits_a != bits_b)
    n_wrong = int(np.sum(coincidence & wrong_bits))
    n_correct = int(np.sum(coincidence & ~wrong_bits))
    return coincidence.mean(), n_correct, n_wrong
