"""Session orchestration: protocol rules, transports, and closed loop."""

import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2, unitary_group

from mdiqkd_polcomp import cli, engine, nodes, session, transmitter
from mdiqkd_polcomp.bsm import (OUTCOME_CLASSES, BasisSchedule,
                                DetectorParams, phase_coefficients)
from mdiqkd_polcomp.compensation import ControllerConfig
from mdiqkd_polcomp.nodes import CharlieNode, UserNode, run_in_process
from mdiqkd_polcomp.polarization import (RETARDANCE_LIMIT,
                                         rotation_about_stokes_axis)
from mdiqkd_polcomp.reporting import misalignment_digest, misalignment_rows
from mdiqkd_polcomp.session import (MAX_WINDOWS, USERS, SessionConfig,
                                    SessionError, SessionFailure, WindowArms,
                                    _thinning_candidates, empty_decisions,
                                    recycle_singles, run_session,
                                    sample_window_slots, sift, slot_decisions,
                                    user_reveals)
from mdiqkd_polcomp.transmitter import (_DECISION_STREAM, BASIS_LABELS,
                                        INTENSITY_LABELS, IntensityTable,
                                        _slot_words, draw_phases)
from mdiqkd_polcomp.wire import (CompensatorState, MisalignmentAnnouncement,
                                 SessionEnd)


def small_config(**overrides) -> SessionConfig:
    defaults = dict(duration_s=60.0, rep_rate_hz=1e5, seed=7,
                    initial_misalignment_a=0.1, initial_misalignment_b=0.1)
    defaults.update(overrides)
    return SessionConfig(**defaults)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(duration_s=-1.0), "duration_s"),
    (dict(rep_rate_hz=0.0), "rep_rate_hz"),
    (dict(drift_rate_a=-0.1), "drift_rate_a"),
    (dict(initial_misalignment_b=-0.5), "initial_misalignment_b"),
    (dict(mode="cloud"), "mode"),
    (dict(sampling="hybrid"), "sampling"),
    (dict(mode="networked", sampling="per-slot"), "aggregate sampling only"),
    (dict(seed=1.5), "seed"),
    (dict(reference_smoothing=1.5), "reference_smoothing"),
    (dict(reference_smoothing=0.0), "reference_smoothing"),
    (dict(bound_method="magic"), "bound_method"),
    (dict(error_correction_efficiency=0.9), "error_correction_efficiency"),
    (dict(table="not a table"), "IntensityTable"),
    (dict(detector=None), "DetectorParams"),
    (dict(schedule=3), "BasisSchedule"),
    (dict(controller="x"), "ControllerConfig"),
    (dict(rep_rate_hz=1e15, duration_s=15.0),
     r"rep_rate_hz = 1000000000000000\.0 .*schedule period 15\.0 s"),
    (dict(rep_rate_hz=2.0 ** 53, duration_s=2.0,
          schedule=BasisSchedule(period=1.0)), r"2\*\*53"),
    (dict(duration_s=1e300), r"duration_s = 1e\+300 .*MAX_WINDOWS"),
    (dict(duration_s=math.inf), r"duration_s = inf .*MAX_WINDOWS"),
    (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
    (dict(seed=True), "seed must be a nonnegative integer, got True"),
    (dict(drift_rate_a=math.nan), "drift_rate_a must be finite"),
    (dict(drift_rate_b=math.inf), "drift_rate_b must be finite"),
    (dict(initial_misalignment_a=math.nan),
     "initial_misalignment_a must be finite"),
    (dict(initial_misalignment_b=math.inf),
     "initial_misalignment_b must be finite"),
    (dict(error_correction_efficiency=math.inf),
     r"error_correction_efficiency must be in \[1, inf\)"),
    (dict(error_correction_efficiency=math.nan),
     r"error_correction_efficiency must be in \[1, inf\)"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(SessionError, match=match):
        SessionConfig(**kwargs)


def test_config_accepts_windows_just_below_the_exact_count_limit():
    config = SessionConfig(rep_rate_hz=2.0 ** 53 - 1, duration_s=2.0,
                           schedule=BasisSchedule(period=1.0))
    assert config.slots_in(config.schedule.period) == 2 ** 53 - 1


def test_config_caps_the_window_count():
    period = 15.0
    at_cap = SessionConfig(duration_s=MAX_WINDOWS * period)
    assert len(at_cap.windows()) == MAX_WINDOWS
    for duration_s in ((MAX_WINDOWS + 1) * period, MAX_WINDOWS * period + 1.0):
        with pytest.raises(SessionError, match="MAX_WINDOWS = 100000"):
            SessionConfig(duration_s=duration_s)
    # The count follows the period, not the duration alone, and is the
    # schedule's own: at 0.3 s the accumulated start times fall short of
    # MAX_WINDOWS * 0.3 and leave a last sliver of a window.
    with pytest.raises(SessionError, match="MAX_WINDOWS"):
        SessionConfig(duration_s=MAX_WINDOWS * period,
                      schedule=BasisSchedule(period=period / 2))
    sliver = dict(rep_rate_hz=1e3, schedule=BasisSchedule(period=0.3))
    assert len(SessionConfig(duration_s=(MAX_WINDOWS - 1) * 0.3,
                             **sliver).windows()) == MAX_WINDOWS
    with pytest.raises(SessionError, match="MAX_WINDOWS"):
        SessionConfig(duration_s=MAX_WINDOWS * 0.3, **sliver)


def test_windows_cover_duration_with_partial_tail():
    config = SessionConfig(duration_s=40.0, schedule=BasisSchedule(period=15.0))
    windows = config.windows()
    assert [w[1] for w in windows] == [15.0, 15.0, 10.0]
    assert [w[2] for w in windows] == ["Z", "X", "Z"]
    assert sum(w[1] for w in windows) == pytest.approx(40.0)
    assert SessionConfig(duration_s=0.0).windows() == []


# ---------------------------------------------------------------------------
# Slot-level sifting
# ---------------------------------------------------------------------------

def _announced(*rows):
    """Announcement and reveal columns from (slot, outcome, reveal A,
    reveal B) rows, a reveal being a (basis, intensity) label pair."""
    slots = np.array([row[0] for row in rows], dtype=np.uint64)
    outcomes = np.array([OUTCOME_CLASSES.index(row[1]) for row in rows],
                        dtype=int)
    reveals = tuple(
        (np.array([BASIS_LABELS.index(row[k][0]) for row in rows], dtype=int),
         np.array([INTENSITY_LABELS.index(row[k][1]) for row in rows],
                  dtype=int))
        for k in (2, 3))
    return (slots, outcomes) + reveals


def _bit_reveals(*pairs):
    """(slots, bits) columns of polarization-bit reveals."""
    return (np.array([slot for slot, _ in pairs], dtype=np.uint64),
            np.array([bit for _, bit in pairs], dtype=int))


def test_sift_keeps_matched_signal_coincidences():
    columns = _announced((1, "psi_plus", ("Z", "mu"), ("Z", "mu")),
                         (2, "single_first", ("Z", "mu"), ("Z", "mu")),
                         (3, "psi_plus", ("X", "mu"), ("Z", "mu")))
    kept, summary = sift(*columns, "Z", bits_a=np.array([0, 0, 0]),
                         bits_b=np.array([1, 1, 1]))
    assert kept.tolist() == [1]
    # Slot 1: anticorrelated bits under matched basis - no error.
    assert summary == {"n_sifted": 1, "n_errors": 0}


def test_sift_counts_correlated_bits_as_errors():
    columns = _announced((9, "psi_plus", ("Z", "mu"), ("Z", "mu")))
    kept, summary = sift(*columns, "Z", bits_a=np.array([1]),
                         bits_b=np.array([1]))
    assert kept.tolist() == [9]
    assert summary["n_errors"] == 1


def test_sift_excludes_decoy_intensities():
    columns = _announced((6, "psi_plus", ("Z", "nu"), ("Z", "mu")))
    kept, _ = sift(*columns, "Z", bits_a=np.array([0]),
                   bits_b=np.array([1]))
    assert kept.size == 0


# ---------------------------------------------------------------------------
# Slot-level recycling and privacy
# ---------------------------------------------------------------------------

def test_recycle_singles_counts_wrong_arm_clicks():
    columns = _announced((1, "single_second", ("Z", "mu"), ("Z", "omega")),
                         (2, "single_first", ("Z", "mu"), ("Z", "omega")),
                         (3, "single_second", ("Z", "nu"), ("Z", "omega")))
    counts = recycle_singles(*columns, _bit_reveals((1, 0), (2, 0), (3, 0)),
                             _bit_reveals(), "Z")
    # Bit 0 (H): a second-arm click is the wrong arm.
    assert counts["alice"] == {"H": (2, 3)}
    assert counts["bob"] == {}


def test_recycle_singles_skips_other_basis_states():
    # Slot 2: both sent the near-vacuum intensity.
    columns = _announced((1, "single_first", ("X", "mu"), ("Z", "omega")),
                         (2, "single_first", ("Z", "omega"), ("Z", "omega")))
    counts = recycle_singles(*columns, _bit_reveals((1, 0), (2, 0)),
                             _bit_reveals(), "Z")
    assert counts["alice"] == {}


def test_recycle_rejects_bit_reveal_for_coincidence_slot():
    columns = _announced((1, "psi_plus", ("Z", "mu"), ("Z", "omega")))
    with pytest.raises(SessionError, match="privacy fault"):
        recycle_singles(*columns, _bit_reveals((1, 0)), _bit_reveals(), "Z")


def test_recycle_rejects_bit_reveal_without_vacuum_partner():
    columns = _announced((1, "single_first", ("Z", "mu"), ("Z", "nu")))
    with pytest.raises(SessionError, match="near-vacuum"):
        recycle_singles(*columns, _bit_reveals((1, 0)), _bit_reveals(), "Z")


def test_recycle_rejects_bit_reveal_for_unannounced_slot():
    with pytest.raises(SessionError, match="privacy fault"):
        recycle_singles(*_announced(), _bit_reveals((5, 1)), _bit_reveals(),
                        "Z")
    # Between two legitimate singles, bob's reveal of slot 5 joins none.
    columns = _announced((4, "single_first", ("Z", "omega"), ("Z", "mu")),
                         (6, "single_second", ("Z", "omega"), ("X", "nu")))
    with pytest.raises(SessionError, match="bob revealed a bit for slot 5 "):
        recycle_singles(*columns, _bit_reveals(),
                        _bit_reveals((4, 0), (5, 1), (6, 1)), "Z")


# ---------------------------------------------------------------------------
# Node protocol faults
# ---------------------------------------------------------------------------

def test_user_node_rejects_misaddressed_announcement():
    node = UserNode("alice", small_config())
    message = MisalignmentAnnouncement(user="bob", window=0, theta_z=0.1,
                                       theta_x=None)
    with pytest.raises(SessionError, match="addressed to"):
        node.handle(message)


def test_charlie_rejects_wrong_window_and_duplicates():
    charlie = CharlieNode(small_config())
    state = CompensatorState(user="alice", window=3,
                             retardances=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(SessionError, match="expected 0"):
        charlie.handle(state)
    ok = CompensatorState(user="alice", window=0,
                          retardances=(0.0, 0.0, 0.0, 0.0))
    assert charlie.handle(ok) == []
    with pytest.raises(SessionError, match="duplicate"):
        charlie.handle(ok)


@pytest.mark.parametrize("retardances, shown", [
    ((7.0, 0.0, 0.0, 0.0), "retardance 7.0"),
    ((0.0, math.inf, 0.0, 0.0), "retardance inf"),
    ((0.0, 0.0, -math.inf, 0.0), "retardance -inf"),
    ((0.0, 0.0, 0.0, math.nan), "retardance nan"),
    ((0.0, 0.0, 0.0), "(0.0, 0.0, 0.0), expected 4 retardances"),
    ((0.0,) * 5, "expected 4 retardances"),
    # An integer too large for a float, which a JSON frame can carry.
    ((0.0, 10 ** 400, 0.0, 0.0), f"retardance {10 ** 400}, outside"),
], ids=["7", "inf", "-inf", "nan", "three", "five", "10**400"])
def test_charlie_rejects_retardances_the_bank_cannot_hold(retardances, shown):
    charlie = CharlieNode(small_config())
    limit = RETARDANCE_LIMIT
    assert charlie.handle(CompensatorState(
        user="alice", window=0, retardances=(limit, -limit, 0.0, 0.0))) == []
    with pytest.raises(SessionFailure) as info:
        charlie.handle(CompensatorState(user="bob", window=0,
                                        retardances=retardances))
    message = str(info.value)
    assert "bob's compensator state for window 0" in message
    assert shown in message


def test_user_node_steps_on_coherent_estimates_only():
    z_ann = MisalignmentAnnouncement(user="alice", window=0, theta_z=0.5,
                                     theta_x=None)
    x_ann = MisalignmentAnnouncement(user="alice", window=1, theta_z=None,
                                     theta_x=0.4)
    # A single-basis refresh is not acted on; once both bases have been
    # measured since the last evaluation the controller steps.
    node = UserNode("alice", small_config())
    (reply,) = node.handle(z_ann)
    assert reply.triggered is False
    assert tuple(node.bank.retardances) == (0.0, 0.0, 0.0, 0.0)
    (reply,) = node.handle(x_ann)
    assert reply.triggered is True
    assert any(r != 0.0 for r in node.bank.retardances)

    node = UserNode("alice", small_config(compensation_enabled=False))
    node.handle(z_ann)
    (reply,) = node.handle(x_ann)
    assert reply.triggered is False
    assert tuple(node.bank.retardances) == (0.0, 0.0, 0.0, 0.0)


def test_user_node_finishes_on_session_end():
    node = UserNode("bob", small_config())
    assert node.handle(SessionEnd()) == []
    assert node.finished


# ---------------------------------------------------------------------------
# Full sessions
# ---------------------------------------------------------------------------

def canonical(report) -> dict:
    """Plain-python projection of a report for byte-level comparison."""
    return dict(
        duration=report.duration_s, seed=report.seed,
        sampling=report.sampling,
        windows=[(t.index, t.t_start, t.duration, t.meas_basis, t.n_slots,
                  t.est_theta, t.true_theta, t.estimator_counts, t.triggered,
                  t.counts) for t in report.windows],
        tallies={half: ts.counts.tolist()
                 for half, ts in report.tallies.items()},
        sifted={half: (s.n_sifted, s.n_errors)
                for half, s in report.sifted.items()},
        rates={half: (None if r is None else (r.rate, r.raw_rate))
               for half, r in report.rates.items()},
        bounds={half: (None if b is None
                       else (b.y11_lower, b.e11_upper, b.method))
                for half, b in report.bounds.items()},
        final=report.final_retardances,
    )


def test_zero_duration_session_is_empty_but_well_formed():
    report = run_session(SessionConfig(duration_s=0.0))
    assert report.windows == []
    assert report.sifted["Z"].n_sifted == 0
    assert report.rates == {"Z": None, "X": None}
    assert misalignment_digest(misalignment_rows(report, "alice")) \
        == ({"Z": None, "X": None}, 0)
    assert report.mean_true_theta("bob") == {"Z": None, "X": None}


def test_no_drift_aligned_start_stays_identically_aligned():
    config = SessionConfig(duration_s=120.0, rep_rate_hz=1e5, seed=3,
                           drift_rate_a=0.0, drift_rate_b=0.0,
                           compensation_enabled=False)
    report = run_session(config)
    assert len(report.windows) == 8
    for trace in report.windows:
        for user in ("alice", "bob"):
            assert trace.true_theta[user][0] < 1e-12
            assert trace.true_theta[user][1] < 1e-12
            assert not trace.triggered[user]
    # With perfect alignment the only sifted errors come from dark counts.
    assert report.sifted["Z"].qber <= 0.01


def test_session_is_deterministic():
    config = small_config()
    a = canonical(run_session(config))
    # Sessions of both backends in between leave nothing behind that a
    # later session reads.
    run_session(small_config(seed=11, initial_misalignment_a=0.2))
    run_session(small_config(seed=12, rep_rate_hz=1e4, sampling="per-slot"))
    b = canonical(run_session(config))
    assert pickle.dumps(a) == pickle.dumps(b)
    c = canonical(run_session(small_config(seed=8)))
    assert pickle.dumps(a) != pickle.dumps(c)


def test_networked_session_matches_in_process_byte_for_byte():
    config = small_config()
    local = canonical(run_session(config))
    networked = canonical(run_session(replace(config, mode="networked")))
    assert pickle.dumps(local) == pickle.dumps(networked)


def test_traces_cover_full_duration_and_carry_estimates():
    report = run_session(small_config())
    assert sum(t.duration for t in report.windows) \
        == pytest.approx(report.duration_s)
    assert [t.meas_basis for t in report.windows] == ["Z", "X", "Z", "X"]
    for trace in report.windows:
        tracked = sum(trace.counts.values())
        assert tracked == trace.n_slots
        for user in ("alice", "bob"):
            assert trace.est_theta[user] is None \
                or 0.0 <= trace.est_theta[user] <= np.pi / 2
            n_err, n_max = trace.estimator_counts[user]
            assert 0 <= n_err <= n_max


def test_compensation_engages_and_corrects_a_misaligned_start():
    # Seed chosen so one user draws a start well above the trigger
    # threshold while the other draws a near-aligned start: the loop
    # must pull the misaligned user under the threshold and leave the
    # aligned one alone.
    config = SessionConfig(duration_s=80 * 15.0, rep_rate_hz=10e6, seed=2,
                           initial_misalignment_a=0.2,
                           initial_misalignment_b=0.2,
                           drift_rate_a=0.001, drift_rate_b=0.001)
    report = run_session(config)
    start = max(report.windows[0].true_theta["alice"])
    tail = np.mean([max(t.true_theta["alice"]) for t in report.windows[-16:]])
    assert start > config.controller.threshold
    assert any(t.triggered["alice"] for t in report.windows)
    assert tail < config.controller.threshold
    assert tail < start / 1.5
    assert np.mean([max(t.true_theta["bob"]) for t in report.windows]) < 0.08


def test_disabled_compensation_leaves_drift_unchecked():
    base = dict(duration_s=4 * 3600.0, rep_rate_hz=10e6, seed=2,
                drift_rate_a=0.003, drift_rate_b=0.003,
                initial_misalignment_a=0.1, initial_misalignment_b=0.1)
    held = run_session(SessionConfig(**base))
    free = run_session(SessionConfig(compensation_enabled=False, **base))
    # Same drift realization (same seeds); only the control loop differs.
    held_worst = max(max(held.mean_true_theta(u).values())
                     for u in ("alice", "bob"))
    free_worst = max(max(free.mean_true_theta(u).values())
                     for u in ("alice", "bob"))
    assert held_worst <= 0.13
    assert free_worst > 0.15
    assert held.sifted["Z"].qber < 0.055
    assert free.sifted["Z"].qber > 1.5 * held.sifted["Z"].qber
    assert not any(t.triggered["alice"] or t.triggered["bob"]
                   for t in free.windows)


def test_per_slot_backend_agrees_statistically_with_aggregate():
    schedule = BasisSchedule(period=1.0)
    base = dict(duration_s=8.0, rep_rate_hz=2e5, seed=13, schedule=schedule,
                initial_misalignment_a=0.12, initial_misalignment_b=0.12)
    agg = run_session(SessionConfig(sampling="aggregate", **base))
    slot = run_session(SessionConfig(sampling="per-slot", **base))
    for report in (agg, slot):
        assert len(report.windows) == 8
    # Recycled singles come by the thousand; compare at Poisson scale.
    rec_agg = sum(t.counts["recycled"] for t in agg.windows)
    rec_slot = sum(t.counts["recycled"] for t in slot.windows)
    assert abs(rec_agg - rec_slot) < 6.0 * np.sqrt(max(rec_agg, rec_slot))
    sift_agg = sum(s.n_sifted for s in agg.sifted.values())
    sift_slot = sum(s.n_sifted for s in slot.sifted.values())
    assert abs(sift_agg - sift_slot) < 6.0 * np.sqrt(max(sift_agg, sift_slot, 1))


def test_controller_config_threshold_controls_triggering():
    # An absurdly high threshold never triggers; retardances never move.
    config = small_config(controller=ControllerConfig(threshold=1.5))
    report = run_session(config)
    assert not any(t.triggered["alice"] or t.triggered["bob"]
                   for t in report.windows)
    assert report.final_retardances["alice"] == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Per-slot streaming
# ---------------------------------------------------------------------------

AXIS_A = [1.0, 0.5, -0.3]
CHANNEL_A = rotation_about_stokes_axis(AXIS_A, 0.4)
CHANNEL_B = rotation_about_stokes_axis([0.2, -1.0, 0.7], 0.25)


def _sample(config, window_index, n_slots, meas_basis, channel_a, channel_b,
            rng, start=0):
    """sample_window_slots on slot_decisions of slots [start, start + n)."""
    decisions = empty_decisions(n_slots)
    slot_decisions(config, window_index, start, n_slots, decisions)
    arms = WindowArms.build(config, engine.DecisionClasses.build(config.table),
                            meas_basis, channel_a, channel_b)
    return sample_window_slots(config, n_slots, arms, rng, decisions,
                               np.empty((n_slots, 2)))


def test_sample_window_slots_calls_tile_a_window():
    config = SessionConfig(seed=11)
    n_slots, split = 10_007, 4099
    whole_rng = np.random.default_rng(5)
    whole = _sample(config, 3, n_slots, "X", CHANNEL_A, CHANNEL_B, whole_rng)
    parts_rng = np.random.default_rng(5)
    head = _sample(config, 3, split, "X", CHANNEL_A, CHANNEL_B, parts_rng, 0)
    tail = _sample(config, 3, n_slots - split, "X", CHANNEL_A, CHANNEL_B,
                   parts_rng, split)
    assert len(whole[0]) and len(head[0]) and len(tail[0])
    for column in range(3):
        assert np.array_equal(whole[column], np.concatenate(
            (head[column], tail[column])))
    assert np.array_equal(whole[3], head[3] + tail[3])
    assert whole_rng.random() == parts_rng.random()


def _arm_coefficients(config, meas_basis, channel_a, channel_b):
    """(c0, Re c1, Im c1) per (pair, arm), pair = idx_a * 12 + idx_b."""
    classes = engine.DecisionClasses.build(config.table)
    c0, c1 = phase_coefficients(classes.states @ channel_a.T,
                                classes.mean_photons,
                                classes.states @ channel_b.T,
                                classes.mean_photons, meas_basis)
    return [x.reshape(144, 2) for x in (c0, c1.real, c1.imag)]


def _click_probability(detector, c0, re_c1, im_c1, phases):
    intensity = c0 + re_c1 * np.cos(phases)[:, None] \
        - im_c1 * np.sin(phases)[:, None]
    return 1.0 - (1.0 - detector.dark_prob) \
        * np.exp(-detector.efficiency * intensity)


def _float_decisions(seed, slots, table):
    """(bits, bases, intensities): the uniform (word >> 11) * 2^-53 falls
    in the cumulative intensity probabilities."""
    words = _slot_words(seed, slots, _DECISION_STREAM)
    uniforms = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    edges = np.cumsum(table.probabilities)
    return ((words & np.uint64(1)).astype(np.int64),
            ((words >> np.uint64(1)) & np.uint64(1)).astype(np.int64),
            (uniforms >= edges[0]).astype(np.int64) + (uniforms >= edges[1]))


def _dense_window_slots(config, window_index, n_slots, meas_basis,
                        channel_a, channel_b, rng):
    """Reference sampler: a phase and click probability for every slot.

    Returns what sample_window_slots should, (slots, outcomes, pairs,
    outcome_counts), and then the reveals: per user, (basis, intensity)
    for every announced slot, (slot, bit) where it reveals its bit, and
    its true bits.
    """
    slots = np.arange(n_slots, dtype=np.uint64) + np.uint64(window_index << 40)
    (bits_a, bases_a, ints_a), (bits_b, bases_b, ints_b) = (
        _float_decisions(config.seed * 2 + k, slots, config.table)
        for k in range(2))
    pair = (bases_a * 6 + bits_a * 3 + ints_a) * 12 \
        + bases_b * 6 + bits_b * 3 + ints_b
    phases = draw_phases(config.seed * 2, slots) \
        - draw_phases(config.seed * 2 + 1, slots)
    c0, re_c1, im_c1 = _arm_coefficients(config, meas_basis, channel_a,
                                         channel_b)
    p_click = _click_probability(config.detector, c0[pair], re_c1[pair],
                                 im_c1[pair], phases)
    clicks = rng.random((n_slots, 2)) < p_click
    outcomes = 3 - 2 * clicks[:, 0] - clicks[:, 1]
    counts = np.bincount(pair * 4 + outcomes,
                         minlength=576).reshape(12, 12, 4)
    announced = np.flatnonzero(outcomes != 3)
    reveals, bit_reveals, bits = {}, {}, {}
    sides = (("alice", bits_a, bases_a, ints_a, ints_b),
             ("bob", bits_b, bases_b, ints_b, ints_a))
    for user, own_bits, bases, ints, partner_ints in sides:
        reveals[user] = [(BASIS_LABELS[bases[k]], INTENSITY_LABELS[ints[k]])
                         for k in announced]
        bit_reveals[user] = [(int(slots[k]), int(own_bits[k]))
                             for k in announced
                             if outcomes[k] in (1, 2) and partner_ints[k] == 2
                             and ints[k] != 2]
        bits[user] = own_bits[announced].tolist()
    return ((slots[announced], outcomes[announced], pair[announced], counts),
            (reveals, bit_reveals, bits))


THINNING_CASES = {
    "reference": SessionConfig(seed=21),
    "no dark counts": SessionConfig(seed=22, detector=DetectorParams(
        dark_prob=0.0)),
    "unit efficiency": SessionConfig(seed=23, detector=DetectorParams(
        efficiency=1.0)),
    "no near-vacuum decoy": SessionConfig(
        seed=24, table=IntensityTable(p_mu=0.6, p_nu=0.4, p_omega=0.0)),
    # Some pairs reach eta |c1| >= 2 and a click probability near 1.
    "bright": SessionConfig(
        seed=25, table=IntensityTable(mu=4.0, nu=1.0, omega=0.001),
        detector=DetectorParams(efficiency=1.0)),
}


@pytest.mark.parametrize("meas_basis", ["Z", "X"])
@pytest.mark.parametrize("case", sorted(THINNING_CASES))
def test_thinned_sampler_matches_the_dense_reference(case, meas_basis):
    config = THINNING_CASES[case]
    channels = np.random.default_rng(config.seed)
    for index in range(3):
        channel_a = unitary_group.rvs(2, random_state=channels)
        channel_b = unitary_group.rvs(2, random_state=channels)
        dense_rng = np.random.default_rng(index)
        thinned_rng = np.random.default_rng(index)
        dense, dense_reveals = _dense_window_slots(
            config, index, 1 << 16, meas_basis, channel_a, channel_b,
            dense_rng)
        thinned = _sample(config, index, 1 << 16, meas_basis, channel_a,
                          channel_b, thinned_rng)
        assert len(dense[0]) and len(thinned) == len(dense)
        for column, expected in zip(thinned, dense):
            assert np.array_equal(column, expected)
        assert thinned_rng.random() == dense_rng.random()
        reveals, bit_reveals, bits = user_reveals(*thinned[:3])
        for user in USERS:
            bases, intensities = reveals[user]
            assert [(BASIS_LABELS[basis], INTENSITY_LABELS[intensity])
                    for basis, intensity in zip(bases, intensities)] \
                == dense_reveals[0][user]
            assert list(zip(*(column.tolist()
                              for column in bit_reveals[user]))) \
                == dense_reveals[1][user]
            assert bits[user].tolist() == dense_reveals[2][user]


@pytest.mark.parametrize("meas_basis", ["Z", "X"])
def test_no_phase_clicks_above_the_thinning_bound(meas_basis):
    # sample_window_slots draws phases only for slots whose uniform falls
    # below this bound in some arm; no phase may exceed it.
    phases = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 4001),
                             np.arange(4) * (np.pi / 2.0)])
    channels = np.random.default_rng(99)
    for case in sorted(THINNING_CASES) * 3:
        config = THINNING_CASES[case]
        detector = config.detector
        channel_a = unitary_group.rvs(2, random_state=channels)
        channel_b = unitary_group.rvs(2, random_state=channels)
        c0, re_c1, im_c1 = _arm_coefficients(config, meas_basis, channel_a,
                                             channel_b)
        p_max = 1.0 - (1.0 - detector.dark_prob) * np.exp(
            -detector.efficiency * (c0 + np.abs(re_c1) + np.abs(im_c1)))
        for pair in range(144):
            p_click = _click_probability(detector, c0[pair], re_c1[pair],
                                         im_c1[pair], phases)
            assert (p_click <= p_max[pair]).all(), (case, pair)


@pytest.mark.parametrize("meas_basis", ["Z", "X"])
@pytest.mark.parametrize("case", sorted(THINNING_CASES))
def test_two_stage_thinning_keeps_the_per_pair_candidates(case, meas_basis):
    # The screen by the largest bound must lose no slot that its own
    # pair's bound keeps, and keep no other.
    config = THINNING_CASES[case]
    detector = config.detector
    rng = np.random.default_rng(config.seed)
    pair = rng.integers(0, 144, 1 << 16).astype(np.uint8)
    for _ in range(3):
        channel_a = unitary_group.rvs(2, random_state=rng)
        channel_b = unitary_group.rvs(2, random_state=rng)
        c0, re_c1, im_c1 = _arm_coefficients(config, meas_basis, channel_a,
                                             channel_b)
        if case == "bright":
            assert (detector.efficiency * np.hypot(re_c1, im_c1)
                    >= 2.0).any()
        p_max = 1.0 - (1.0 - detector.dark_prob) * np.exp(
            -detector.efficiency * (c0 + np.abs(re_c1) + np.abs(im_c1)))
        uniforms = rng.random((len(pair), 2))
        per_pair = np.flatnonzero((uniforms < p_max[pair]).any(axis=1))
        assert len(per_pair)
        assert np.array_equal(_thinning_candidates(uniforms, pair, p_max),
                              per_pair)


def test_slot_decisions_write_the_transmitter_classes_in_place():
    config = SessionConfig(seed=12)
    n_slots, start = 16 * transmitter._HASH_BLOCK + 5, 777
    decisions = empty_decisions(n_slots + 3)
    tracemalloc.start()
    try:
        slot_decisions(config, 2, start, n_slots, decisions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Temporaries of a few hash blocks, never of the whole range: one
    # uint64 array of n_slots would take 16 blocks' worth of words.
    assert peak < 4 * 8 * transmitter._HASH_BLOCK
    slots = np.arange(start, start + n_slots, dtype=np.uint64) \
        + np.uint64(2 << 40)
    pairs = 12 * transmitter.draw_classes(config.seed * 2, slots,
                                          config.table) \
        + transmitter.draw_classes(config.seed * 2 + 1, slots, config.table)
    assert np.array_equal(decisions[0][:n_slots], slots)
    assert np.array_equal(decisions[1][:n_slots], pairs)
    assert np.array_equal(decisions[2], np.bincount(pairs, minlength=144))


def test_slot_decisions_do_not_depend_on_the_hash_block(monkeypatch):
    # Power-of-two blocks and one that is not, each leaving a short last
    # block; the buffers start out full of values no slot writes.
    config = SessionConfig(seed=12)
    n_slots, start = 3 * transmitter._HASH_BLOCK + 7, 777
    expected = None
    for block in (transmitter._HASH_BLOCK, 1 << 10, 5000, 1 << 14):
        monkeypatch.setattr(transmitter, "_HASH_BLOCK", block)
        monkeypatch.setattr(session, "_HASH_BLOCK", block)
        decisions = empty_decisions(n_slots)
        for column, fill in zip(decisions, (2 ** 64 - 1, 255, -1)):
            column.fill(fill)
        slot_decisions(config, 2, start, n_slots, decisions)
        if expected is None:
            expected = decisions
        for column, reference in zip(decisions, expected):
            assert np.array_equal(column, reference), block
    assert np.array_equal(expected[0], np.arange(
        start, start + n_slots, dtype=np.uint64) + np.uint64(2 << 40))
    assert (expected[1] < 144).all() and expected[2].sum() == n_slots


def test_reused_buffers_leave_earlier_chunks_intact():
    # Chunk k's columns must survive chunk k + 1 being sampled into the
    # same decision and uniform buffers.
    config = SessionConfig(seed=5)
    arms = WindowArms.build(config, engine.DecisionClasses.build(config.table),
                            "Z", CHANNEL_A, CHANNEL_B)
    rng = np.random.default_rng(5)
    n_slots = 20_000
    decisions, uniforms = empty_decisions(n_slots), np.empty((n_slots, 2))
    slot_decisions(config, 0, 0, n_slots, decisions)
    first = sample_window_slots(config, n_slots, arms, rng, decisions,
                                uniforms)
    kept = [column.copy() for column in first]
    slot_decisions(config, 0, n_slots, n_slots, decisions)
    second = sample_window_slots(config, n_slots, arms, rng, decisions,
                                 uniforms)
    for column, copy in zip(first, kept):
        assert np.array_equal(column, copy)
        for buffer in (*decisions, uniforms):
            assert not np.shares_memory(column, buffer)
    assert len(kept[0]) and not np.array_equal(second[3], kept[3])


def test_consecutive_per_slot_sessions_give_equal_reports():
    config = small_config(duration_s=30.0, rep_rate_hz=2e4,
                          sampling="per-slot")
    first = canonical(run_session(config))
    assert pickle.dumps(canonical(run_session(config))) == pickle.dumps(first)


@pytest.mark.parametrize("failing_window", [None, 1])
def test_per_slot_helper_thread_lives_for_one_window(monkeypatch,
                                                     failing_window):
    # A window's slots carry its index in bits 40 and up.
    before = threading.active_count()
    seen = []

    def recycle(slots, *args):
        seen.append(threading.active_count())
        if len(slots) and int(slots[0]) >> 40 == failing_window:
            raise SessionFailure("injected failure")
        return recycle_singles(slots, *args)

    monkeypatch.setattr(nodes, "recycle_singles", recycle)
    config = SessionConfig(duration_s=30.0, rep_rate_hz=2e4, seed=7,
                           sampling="per-slot")
    if failing_window is None:
        run_session(config)
    else:
        with pytest.raises(SessionFailure, match="injected failure"):
            run_session(config)
    assert set(seen) == {before + 1}
    assert threading.active_count() == before


_PINNED_RUN = """
import os, sys
from mdiqkd_polcomp import cli
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_per_slot_artifacts_do_not_depend_on_the_cores(tmp_path):
    # Pinned to one CPU, the helper thread and the sampler take turns;
    # otherwise they may overlap.  Two windows of two chunks each.
    ini = tmp_path / "per_slot.ini"
    ini.write_text("[session]\nduration_s = 30\nrep_rate_hz = 20000\n",
                   encoding="utf-8")
    args = ["simulate", "--config", str(ini), "--seed", "7", "--sampling",
            "per-slot", "--out"]
    assert cli.main([*args, str(tmp_path / "default")]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([path] if path else [])))
    subprocess.run([sys.executable, "-c", _PINNED_RUN, *args,
                    str(tmp_path / "pinned")], check=True, env=env,
                   capture_output=True)
    for name in ("summary.txt", "tallies_z.csv", "tallies_x.csv",
                 "misalignment_alice.csv", "misalignment_bob.csv"):
        assert (tmp_path / "pinned" / name).read_bytes() \
            == (tmp_path / "default" / name).read_bytes(), name


@pytest.mark.parametrize("chunk", [4099, 1 << 16])
def test_per_slot_report_does_not_depend_on_chunk_size(monkeypatch, tmp_path,
                                                       chunk):
    # Two windows of 3e5 slots: more than one chunk even at the default.
    config = SessionConfig(duration_s=30.0, rep_rate_hz=2e4, seed=7,
                           sampling="per-slot", initial_misalignment_a=0.1,
                           initial_misalignment_b=0.1)
    default = run_session(config)
    monkeypatch.setattr(nodes, "SLOT_CHUNK", chunk)
    chunked = run_session(config)
    for half in default.tallies:
        default.tallies[half].write_csv(tmp_path / "default.csv")
        chunked.tallies[half].write_csv(tmp_path / "chunked.csv")
        assert (tmp_path / "chunked.csv").read_text() \
            == (tmp_path / "default.csv").read_text()
    assert [(t.counts, t.est_theta, t.estimator_counts)
            for t in chunked.windows] \
        == [(t.counts, t.est_theta, t.estimator_counts)
            for t in default.windows]


def test_per_slot_memory_does_not_grow_with_the_window():
    peaks = []
    for rep_rate_hz in (2.0 ** 20, 2.0 ** 22):
        tracemalloc.start()
        try:
            run_session(SessionConfig(duration_s=1.0, rep_rate_hz=rep_rate_hz,
                                      sampling="per-slot"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 100e6


@pytest.mark.parametrize("duration_s, rep_rate_hz",
                         [(15.001, 1e4), (15.0001, 2e5), (30.0, 100.0)])
def test_per_slot_windows_without_recycled_singles_complete(duration_s,
                                                            rep_rate_hz):
    # Windows this short see no recycled single for some state label; the
    # aggregate accounting still lists that label with zero counts.
    config = SessionConfig(duration_s=duration_s, rep_rate_hz=rep_rate_hz,
                           sampling="per-slot")
    report = run_session(config)
    assert [t.n_slots for t in report.windows] \
        == [config.slots_in(dt) for _, dt, _ in config.windows()]
    for trace in report.windows:
        assert sum(trace.counts.values()) == trace.n_slots


def _slot_counts(config, index, n_slots, meas_basis, channel_a, channel_b,
                 rng):
    combo = np.zeros((12, 12), dtype=np.int64)
    outcomes = np.zeros((12, 12, 4), dtype=np.int64)
    for start in range(0, n_slots, nodes.SLOT_CHUNK):
        counts = _sample(
            config, index, min(nodes.SLOT_CHUNK, n_slots - start), meas_basis,
            channel_a, channel_b, rng, start)[3]
        combo += counts.sum(axis=2)
        outcomes += counts
    return combo, outcomes


def _g_test_p_value(combo, outcomes, probs) -> float:
    """G-test of slot outcomes against a (12, 12, 4) class-probability grid.

    Every occupied decision combination is one multinomial over the four
    outcome classes.  Cells expected below five counts are pooled into
    their combination's no-click cell, which is always large.
    """
    occupied = combo > 0
    observed = outcomes[occupied].astype(float)
    expected = (combo[..., None] * probs)[occupied]
    rare = expected < 5.0
    rare[:, 3] = False
    observed[:, 3] += np.where(rare, observed, 0.0).sum(axis=1)
    expected[:, 3] += np.where(rare, expected, 0.0).sum(axis=1)
    obs, exp = observed[~rare], expected[~rare]
    positive = obs > 0
    g = 2.0 * np.sum(obs[positive] * np.log(obs[positive] / exp[positive]))
    dof = obs.size - observed.shape[0]
    return chi2.sf(g, dof)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_per_slot_outcomes_fit_the_window_kernel(seed):
    # Under the true kernel each p-value is uniform, so a window fails with
    # probability 1e-3; the seeds are fixed, so the outcome is too.  At the
    # reference efficiency a 0.15 rad turn moves too few clicks in 3e6
    # slots to be told apart (p from 0.004 to 0.2 on these channels), so
    # the detector here sees about ten times as many.
    config = SessionConfig(seed=seed, detector=DetectorParams(efficiency=0.5))
    rng = np.random.default_rng(seed)
    classes = engine.DecisionClasses.build(config.table)
    wrong_detector = DetectorParams(
        efficiency=1.10 * config.detector.efficiency,
        dark_prob=config.detector.dark_prob)
    turned_a = rotation_about_stokes_axis(AXIS_A, 0.15) @ CHANNEL_A
    for index, meas_basis in enumerate(("Z", "X")):
        combo, outcomes = _slot_counts(config, index, 3_000_000, meas_basis,
                                       CHANNEL_A, CHANNEL_B, rng)
        for channel_a, detector, fits in (
                (CHANNEL_A, config.detector, True),
                (CHANNEL_A, wrong_detector, False),
                (turned_a, config.detector, False)):
            probs = engine.window_class_probabilities(
                classes, channel_a, CHANNEL_B, meas_basis, detector)
            p_value = _g_test_p_value(combo, outcomes, probs)
            if fits:
                assert p_value > 1e-3, (meas_basis, p_value)
            else:
                assert p_value < 1e-6, (meas_basis, p_value)
