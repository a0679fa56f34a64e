"""Detector calibration: fit the click model to a target coincidence gain.

The click model folds every loss between a sender and a detector into
a single efficiency, plus a per-slot dark-click probability.  The
calibration anchor is the same-basis signal-signal gain (both senders
at the signal intensity, preparing in the measurement basis, aligned
channels): the efficiency is solved so the phase-averaged analytic
gain hits the target.  That gain is strictly increasing in the
efficiency, so the root is unique whenever the target lies between
the dark-count floor and the gain at unit efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bsm import DetectorParams, pair_gain_and_qber
from .transmitter import MAX_INTENSITY, IntensityTable

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "predicted_signal_gain",
    "fit_efficiency",
]

DEFAULT_TARGET_GAIN = 3.0e-5
DEFAULT_SIGNAL_INTENSITY = IntensityTable().mu
DEFAULT_DARK_PROB = DetectorParams().dark_prob


class CalibrationError(ValueError):
    """The requested gain cannot be met by any efficiency in (0, 1]."""


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted detector parameters with the fit residual echoed back."""

    detector: DetectorParams
    target_gain: float
    achieved_gain: float
    signal_intensity: float

    @property
    def residual(self) -> float:
        return self.achieved_gain - self.target_gain


def predicted_signal_gain(
        efficiency: float, dark_prob: float,
        signal_intensity: float = DEFAULT_SIGNAL_INTENSITY) -> float:
    """Same-basis signal gain for aligned channels, averaged over bits."""
    params = DetectorParams(efficiency=efficiency, dark_prob=dark_prob)
    gain, _ = pair_gain_and_qber("Z", "Z", signal_intensity,
                                 signal_intensity, params)
    return gain


def fit_efficiency(target_gain: float = DEFAULT_TARGET_GAIN,
                   signal_intensity: float = DEFAULT_SIGNAL_INTENSITY,
                   dark_prob: float = DEFAULT_DARK_PROB,
                   tolerance: float = 1e-12) -> CalibrationResult:
    """Solve for the efficiency whose signal gain equals target_gain."""
    if not target_gain > 0.0:
        raise CalibrationError(f"target gain must be positive, "
                               f"got {target_gain}")
    if not 0.0 < signal_intensity <= MAX_INTENSITY:
        raise CalibrationError(f"signal intensity mu must be in (0, "
                               f"{MAX_INTENSITY:.6g}], got {signal_intensity}")
    floor_eff = 1e-9
    floor = predicted_signal_gain(floor_eff, dark_prob, signal_intensity)
    ceiling = predicted_signal_gain(1.0, dark_prob, signal_intensity)
    if not floor < target_gain < ceiling:
        raise CalibrationError(
            f"target gain {target_gain} outside the reachable range "
            f"({floor:.3e} at the dark-count floor, {ceiling:.3e} at "
            f"unit efficiency)")
    from scipy.optimize import brentq
    efficiency = brentq(
        lambda eta: predicted_signal_gain(eta, dark_prob, signal_intensity)
        - target_gain,
        floor_eff, 1.0, xtol=tolerance)
    detector = DetectorParams(efficiency=float(efficiency),
                              dark_prob=dark_prob)
    achieved = predicted_signal_gain(detector.efficiency, dark_prob,
                                     signal_intensity)
    return CalibrationResult(detector=detector, target_gain=target_gain,
                             achieved_gain=achieved,
                             signal_intensity=signal_intensity)
