"""Misalignment estimation and the squeezer feedback controller.

Estimation uses detections that the key protocol throws away: slots in
which exactly one detector clicked while the partner sent the
near-vacuum intensity.  For a sender state inside the measured basis,
the probability that such a single lands in the orthogonal arm is
sin(theta)^2 of that basis' misalignment angle, so

    theta = arcsin(sqrt(N_err / N_max))

where N_err counts wrong-arm singles and N_max is the expected total
count for that state at its intensity.  Counts are pooled across the
basis' states before the arcsin.  Cross-basis singles carry no
first-order information and are excluded from both counters.

The controller is a cyclic hill climber over four squeezer retardances:
when either basis angle exceeds the trigger threshold it nudges the
active squeezer by alpha times the blended error signal, remembers the
direction, reverses and moves to the next squeezer whenever the error
got worse since the previous nudge, and also advances when a squeezer
saturates its retardance range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .polarization import SqueezerBank
from .transmitter import BASIS_LABELS


class CompensationError(ValueError):
    """Raised for invalid estimator or controller inputs."""


@dataclass
class StateCounts:
    """Wrong-arm singles and the reference maximum for one sender state."""

    n_err: float = 0.0
    n_max: float = 0.0


@dataclass
class EstimatorWindow:
    """Counts collected over one estimation window, keyed by basis and state."""

    duration: float
    counts: dict = field(default_factory=dict)

    def add(self, basis: str, label: str, n_err: float, n_max: float) -> None:
        if basis not in BASIS_LABELS:
            raise CompensationError(f"unknown basis {basis!r}")
        if n_err < 0 or n_max < 0:
            raise CompensationError("counts must be nonnegative")
        entry = self.counts.setdefault(basis, {}).setdefault(label, StateCounts())
        entry.n_err += n_err
        entry.n_max += n_max

    def pooled(self, basis: str) -> tuple[float, float]:
        return pool_counts([(e.n_err, e.n_max)
                            for e in self.counts.get(basis, {}).values()])


def pool_counts(states) -> tuple[float, float]:
    """One basis' pooled (N_err, N_max) from its states' (n_err, n_max).

    The states are summed in the order given, each first added to 0.0 as
    in a fresh StateCounts, so the sums are floats whatever the counts'
    types; an empty basis pools to (0, 0).  EstimatorWindow.pooled and
    the measurement node, which keeps no window object, both pool here.
    """
    n_err = n_max = 0
    for state_err, state_max in states:
        n_err += 0.0 + state_err
        n_max += 0.0 + state_max
    return n_err, n_max


@dataclass(frozen=True)
class MisalignmentEstimate:
    """Per-basis angle estimates; an angle is None when no reference counts exist."""

    theta_z: float | None
    theta_x: float | None

    def theta(self, basis: str) -> float | None:
        return self.theta_z if basis == "Z" else self.theta_x

    def error_signal(self) -> float | None:
        """Blend of the available angles; (theta_z + theta_x) / 2 when both exist."""
        available = [t for t in (self.theta_z, self.theta_x) if t is not None]
        if not available:
            return None
        return sum(available) / len(available)


def pooled_angle(n_err: float, n_max: float) -> float | None:
    """Angle of one basis' pooled counts; None without reference counts."""
    if n_max <= 0:
        return None
    ratio = min(max(n_err / n_max, 0.0), 1.0)
    return math.asin(math.sqrt(ratio))


def estimate_theta(window: EstimatorWindow) -> MisalignmentEstimate:
    """Pool counts per basis and convert the ratio to an angle."""
    return MisalignmentEstimate(theta_z=pooled_angle(*window.pooled("Z")),
                                theta_x=pooled_angle(*window.pooled("X")))


@dataclass
class ReferenceTracker:
    """Trailing average of observed per-state singles totals.

    Supplies each window's N_max reference.  A state's first observed
    total becomes its reference as it is; later totals are blended in
    with weight `smoothing`.
    """

    smoothing: float = 0.3
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.smoothing <= 1.0:
            raise CompensationError("smoothing must be in (0, 1]")

    def update(self, key, observed: float) -> float:
        previous = self.values.get(key)
        if previous is None:
            self.values[key] = float(observed)
        else:
            self.values[key] = (1.0 - self.smoothing) * previous \
                + self.smoothing * float(observed)
        return self.values[key]


def chernoff_failure_bound(n: float, p_hat: float, epsilon: float) -> float:
    """Two-sided bound on Pr[|p - p_hat| >= epsilon p_hat] after n trials."""
    return 2.0 * math.exp(-n * p_hat * epsilon ** 2 / (2.0 + epsilon))


@dataclass(frozen=True)
class CollectionPlan:
    """Detections and time needed to certify a click probability."""

    n_min: int
    t_min: float | None
    p_hat: float
    epsilon: float
    delta: float
    rate: float | None


def plan_collection(p_hat: float, epsilon: float, delta: float,
                    rate: float | None = None) -> CollectionPlan:
    """Smallest n with chernoff_failure_bound(n) <= delta, and the wait time.

    n_min = ceil((2 + eps) ln(2 / delta) / (p_hat eps^2)); t_min is
    n_min / rate when a detection rate is given.
    """
    if not 0.0 < p_hat < 1.0:
        raise CompensationError(f"p_hat must be in (0, 1), got {p_hat}")
    if not 0.0 < epsilon < math.inf:
        raise CompensationError(f"epsilon must be in (0, inf), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise CompensationError(f"delta must be in (0, 1), got {delta}")
    if rate is not None and not 0.0 < rate < math.inf:
        raise CompensationError(f"rate must be in (0, inf), got {rate}")
    try:
        n_min = math.ceil((2.0 + epsilon) * math.log(2.0 / delta)
                          / (p_hat * epsilon ** 2))
    except (ZeroDivisionError, OverflowError) as exc:  # p_hat eps^2 == 0
        raise CompensationError("n_min is not finite") from exc
    t_min = n_min / rate if rate is not None else None
    if t_min == math.inf:
        raise CompensationError("t_min = n_min / rate is not finite")
    return CollectionPlan(n_min=n_min, t_min=t_min, p_hat=p_hat,
                          epsilon=epsilon, delta=delta, rate=rate)


@dataclass(frozen=True)
class ControllerConfig:
    """Feedback tuning: gain, trigger threshold, step cap, stall limits."""

    alpha: float = 0.55
    threshold: float = 0.13
    max_step: float = 0.5
    stall_patience: int = 6
    best_tolerance: float = 1e-4

    def __post_init__(self):
        # Written so that NaN fails every comparison and is refused.
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise CompensationError(
                f"alpha must be finite and nonnegative, got {self.alpha}")
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise CompensationError(
                f"threshold must be finite and positive, got {self.threshold}")
        if not (math.isfinite(self.max_step) and self.max_step > 0.0):
            raise CompensationError(
                f"max_step must be finite and positive, got {self.max_step}")
        if self.stall_patience < 1:
            raise CompensationError("stall_patience must be at least 1")
        if not (math.isfinite(self.best_tolerance)
                and self.best_tolerance >= 0.0):
            raise CompensationError("best_tolerance must be finite and "
                                    f"nonnegative, got {self.best_tolerance}")


@dataclass
class ControllerState:
    """Hill-climber memory: active squeezer, per-squeezer direction, last error.

    best_error / steps_since_best track progress within the current
    correction episode (a run of consecutive triggered windows) so the
    climber can detect when single-squeezer moves have stopped helping.
    """

    n_squeezers: int = 4
    active: int = 0
    directions: list = None
    last_error: float | None = None
    best_error: float = math.inf
    steps_since_best: int = 0
    steps_taken: int = 0
    reversals: int = 0
    saturations: int = 0
    stall_escapes: int = 0

    def __post_init__(self):
        if self.directions is None:
            self.directions = [1] * self.n_squeezers

    def reset_episode(self) -> None:
        self.last_error = None
        self.best_error = math.inf
        self.steps_since_best = 0


@dataclass(frozen=True)
class StepRecord:
    """What one control step did."""

    squeezer: int
    delta: float
    error: float
    reversed_direction: bool
    saturated: bool
    stall_escape: bool = False


def should_trigger(estimate: MisalignmentEstimate,
                   config: ControllerConfig) -> bool:
    """True when either available basis angle strictly exceeds the threshold."""
    for theta in (estimate.theta_z, estimate.theta_x):
        if theta is not None and theta > config.threshold:
            return True
    return False


def control_step(state: ControllerState, estimate: MisalignmentEstimate,
                 config: ControllerConfig, bank: SqueezerBank) -> StepRecord | None:
    """Apply one compensation nudge if the estimate exceeds the threshold.

    Returns the step record, or None when the controller stays idle (an
    idle window also closes the current correction episode).  Policy,
    with every nudge of magnitude min(alpha * error, max_step) along the
    active squeezer's remembered direction:

    - error improved since the previous nudge (or episode start): nudge
      the active squeezer and keep it active;
    - error worsened: reverse the active squeezer's direction, apply the
      reversed nudge to it (cancelling most of the bad step), then pass
      activity to the next squeezer (cyclic);
    - error worsened while no new best error has been seen for
      stall_patience nudges: single-squeezer moves have stalled, so skip
      the cancellation once - advance first and nudge the new active
      squeezer, deliberately leaving the previous displacement in place.
      Stalls happen where the needed correction is a combined rotation
      (e.g. about the circular Stokes axis) that no single squeezer axis
      can produce; the planted displacement lets consecutive squeezer
      moves build exactly that combination.
    - saturation: reverse the pinned squeezer's direction and advance.
    """
    if not should_trigger(estimate, config):
        state.reset_episode()
        return None
    error = estimate.error_signal()
    if error < state.best_error - config.best_tolerance:
        state.best_error = error
        state.steps_since_best = 0
    else:
        state.steps_since_best += 1
    worsened = state.last_error is not None and error > state.last_error
    stall_escape = worsened and state.steps_since_best >= config.stall_patience
    if worsened:
        state.directions[state.active] *= -1
        state.reversals += 1
    if stall_escape:
        state.stall_escapes += 1
        state.steps_since_best = 0
        state.active = (state.active + 1) % state.n_squeezers
    stepped = state.active
    delta = state.directions[stepped] * min(config.alpha * error,
                                            config.max_step)
    saturated = bank.apply_delta(stepped, delta)
    if worsened and not stall_escape:
        state.active = (state.active + 1) % state.n_squeezers
    record = StepRecord(squeezer=stepped, delta=delta, error=error,
                        reversed_direction=worsened,
                        saturated=saturated, stall_escape=stall_escape)
    state.last_error = error
    state.steps_taken += 1
    if saturated:
        # A pinned retardance cannot follow this direction any further:
        # turn it around for later visits and hand over to the next one.
        state.directions[stepped] *= -1
        if state.active == stepped:
            state.active = (state.active + 1) % state.n_squeezers
        state.saturations += 1
    return record
