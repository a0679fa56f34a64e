"""Detector calibration: the fit solves its own forward model."""

import pytest

from mdiqkd_polcomp.bsm import DetectorParams
from mdiqkd_polcomp.calibrate import (CalibrationError, fit_efficiency,
                                      predicted_signal_gain)


def test_fit_reproduces_the_library_default_detector():
    result = fit_efficiency()
    assert result.detector.efficiency == pytest.approx(
        DetectorParams().efficiency, abs=1e-8)
    assert result.detector.dark_prob == DetectorParams().dark_prob


def test_fit_hits_the_target_gain():
    result = fit_efficiency()
    assert result.achieved_gain == pytest.approx(3.0e-5, rel=1e-9)
    assert abs(result.residual) < 1e-12


def test_fit_solves_its_forward_model_at_other_operating_points():
    for target, mu, dark in ((1.0e-5, 0.28, 2e-6), (3.0e-5, 0.2, 2e-6),
                             (3.0e-5, 0.28, 5e-6)):
        result = fit_efficiency(target_gain=target, signal_intensity=mu,
                                dark_prob=dark)
        achieved = predicted_signal_gain(result.detector.efficiency, dark,
                                         mu)
        assert achieved == pytest.approx(target, rel=1e-9)


def test_predicted_gain_increases_with_efficiency():
    gains = [predicted_signal_gain(eta, 2e-6) for eta in
             (0.01, 0.05, 0.1, 0.3, 0.8)]
    assert gains == sorted(gains)
    assert gains[0] < gains[-1]


def test_higher_dark_rate_needs_less_efficiency():
    quiet = fit_efficiency(dark_prob=1e-6)
    noisy = fit_efficiency(dark_prob=1e-5)
    assert noisy.detector.efficiency < quiet.detector.efficiency


def test_target_below_dark_floor_is_rejected():
    # The projection needs clicks in both arms, so the accidental floor
    # scales as dark_prob squared; 1e-2 puts it near 1e-4 > 3e-5.
    with pytest.raises(CalibrationError, match="reachable range"):
        fit_efficiency(target_gain=3.0e-5, dark_prob=1e-2)


def test_target_above_unit_efficiency_gain_is_rejected():
    with pytest.raises(CalibrationError, match="reachable range"):
        fit_efficiency(target_gain=0.9)


@pytest.mark.parametrize("kwargs", [
    {"target_gain": 0.0},
    {"target_gain": -1e-5},
    {"signal_intensity": 0.0},
    # e^(2 mu) overflows, or mu is not a number.
    {"signal_intensity": 356.0},
    {"signal_intensity": 1e308},
    {"signal_intensity": float("inf")},
    {"signal_intensity": float("nan")},
])
def test_invalid_fit_parameters_are_rejected(kwargs):
    with pytest.raises(CalibrationError):
        fit_efficiency(**kwargs)
