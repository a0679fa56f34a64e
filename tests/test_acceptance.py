"""End-to-end acceptance gate.

One test per criterion; each prints a `[criterion N] PASS/FAIL` line
straight to the terminal (bypassing pytest capture) before asserting,
so every verdict is visible in any run.  Statistical checks use frozen
seeds; tolerances are stated inline next to each assertion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mdiqkd_polcomp.bsm import DetectorParams, monte_carlo_pair, \
    pair_gain_and_qber
from mdiqkd_polcomp.cli import EXIT_OK, main
from mdiqkd_polcomp.compensation import (chernoff_failure_bound,
                                         plan_collection, pool_counts,
                                         pooled_angle)
from mdiqkd_polcomp.config import load_profile
from mdiqkd_polcomp.decoy import (DecoyError, analytic_e11_upper,
                                  analytic_y11_lower, forward_gains,
                                  load_reference_half, lp_bounds)
from mdiqkd_polcomp.polarization import (STATE_A, STATE_D, STATE_H, STATE_L,
                                         STATE_R, STATE_V, SqueezerBank,
                                         misalignment_angles,
                                         random_misalignment, squeezer_unitary,
                                         state_fidelity)
from mdiqkd_polcomp.reporting import summary_text
from mdiqkd_polcomp.session import SessionConfig, run_session
from mdiqkd_polcomp.transmitter import (IntensityTable, key_fraction,
                                        recyclable_fraction,
                                        reference_intensity_table)
from mdiqkd_polcomp.wire import (CompensatorState, FrameDecoder,
                                 MisalignmentAnnouncement, SessionEnd,
                                 encode_message)

SIX_CARDINAL_STATES = (STATE_H, STATE_V, STATE_D, STATE_A, STATE_R, STATE_L)

_HEADLINE_CACHE: dict = {}


def _verdict(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if passed else 'FAIL'}: "
              f"{detail}")
    assert passed, f"criterion {number}: {detail}"


def _section_value(text: str, section: str, key: str) -> str:
    body = text.split(f"[{section}]")[1]
    for line in body.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key} not found in [{section}]")


def _headline_runs() -> dict:
    """The 20-seed four-hour ensemble shared by criteria 4 and 8."""
    if not _HEADLINE_CACHE:
        base = load_profile()
        start = time.perf_counter()
        reports = [run_session(replace(base, seed=seed))
                   for seed in range(20)]
        _HEADLINE_CACHE["wall_s"] = time.perf_counter() - start
        _HEADLINE_CACHE["reports"] = reports
    return _HEADLINE_CACHE


def test_criterion_1_key_rate_reproduction(capsys):
    start = time.perf_counter()
    assert main(["analyze", "--published"]) == EXIT_OK
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rate_z = float(_section_value(out, "half_z", "key_rate_bits_per_pulse"))
    rate_x = float(_section_value(out, "half_x", "key_rate_bits_per_pulse"))
    mean = float(_section_value(out, "combined",
                                "mean_key_rate_bits_per_pulse"))
    ok = (abs(rate_z / 5.94e-6 - 1.0) <= 0.05
          and abs(rate_x / 8.96e-6 - 1.0) <= 0.05
          and abs(mean / 7.45e-6 - 1.0) <= 0.05
          and elapsed < 1.0)
    _verdict(capsys, 1, ok,
             f"analyze on the bundled reference inputs: R_Z {rate_z:.3e} "
             f"(target 5.94e-6), R_X {rate_x:.3e} (target 8.96e-6), mean "
             f"{mean:.3e} (target 7.45e-6), all within 5%; "
             f"{elapsed * 1e3:.0f} ms < 1 s")


def test_criterion_2_chernoff_planner(capsys):
    start = time.perf_counter()
    plan = plan_collection(9e-4, 0.5, 0.3, rate=1.4e3)
    elapsed = time.perf_counter() - start
    minimal = (chernoff_failure_bound(plan.n_min, 9e-4, 0.5) <= 0.3
               < chernoff_failure_bound(plan.n_min - 1, 9e-4, 0.5))
    ok = (20900 <= plan.n_min <= 21300
          and 14.9 <= plan.t_min <= 15.3
          and minimal and elapsed < 1.0)
    _verdict(capsys, 2, ok,
             f"N_min = {plan.n_min} in [20900, 21300], t_min = "
             f"{plan.t_min:.4f} s in [14.9, 15.3], bound is minimal; "
             f"{elapsed * 1e6:.0f} us")


def test_criterion_3_probability_accounting(capsys):
    table = reference_intensity_table()
    assert table.probabilities == (0.52, 0.33, 0.15)
    probs = dict(zip(("mu", "nu", "omega"), table.probabilities))
    # Brute-force enumeration of the joint decision distribution:
    # measurement basis, and per sender (basis, bit, intensity).
    key = 0.0
    recyclable_per_user = 0.0
    recyclable_total = 0.0
    for meas in ("Z", "X"):
        for basis_a in ("Z", "X"):
            for bit_a in (0, 1):
                for int_a, p_int_a in probs.items():
                    for basis_b in ("Z", "X"):
                        for bit_b in (0, 1):
                            for int_b, p_int_b in probs.items():
                                p = (0.5 * 0.25 * p_int_a
                                     * 0.25 * p_int_b)
                                if (int_a == int_b == "mu"
                                        and basis_a == basis_b == meas
                                        and bit_a != bit_b):
                                    # Correlated same-basis bit pairs can
                                    # only produce erroneous coincidences,
                                    # so they never contribute key.
                                    key += p
                                if int_b == "omega" and int_a != "omega":
                                    recyclable_per_user += p
                                if (int_a == "omega") != (int_b == "omega"):
                                    recyclable_total += p
    per_user, total = recyclable_fraction(table.p_omega)
    closed_form_ok = (abs(key - key_fraction(table.p_mu)) < 1e-12
                      and abs(recyclable_per_user - per_user) < 1e-12
                      and abs(recyclable_total - total) < 1e-12)
    caption_ok = (abs(key - 0.034) <= 0.001
                  and abs(per_user - 0.128) <= 0.001
                  and abs(total - 0.255) <= 0.001)
    _verdict(capsys, 3, closed_form_ok and caption_ok,
             f"enumeration matches closed forms to 1e-12; key fraction "
             f"{key:.2%} vs 3.4%, per-user recyclable {per_user:.2%} vs "
             f"12.8%, total {total:.2%} vs 25.5%, each within 0.1 pp")


def test_criterion_4_closed_loop_headline(capsys):
    runs = _headline_runs()
    reports = runs["reports"]
    passing = 0
    worst_means = []
    qbers = []
    for report in reports:
        worst = max(max(report.mean_true_theta(user).values())
                    for user in ("alice", "bob"))
        worst_means.append(worst)
        passing += worst <= 0.13
        qbers.append(report.sifted["Z"].qber)
    mean_qber = sum(qbers) / len(qbers)
    ok = (passing >= 18
          and 0.025 <= mean_qber <= 0.055
          and runs["wall_s"] <= 600.0)
    _verdict(capsys, 4, ok,
             f"4-hour defaults: {passing}/20 seeds hold every per-user "
             f"mean misalignment <= 0.13 rad (worst {max(worst_means):.3f}); "
             f"mean Z signal QBER {mean_qber:.2%} in [2.5%, 5.5%]; "
             f"{runs['wall_s']:.0f} s wall <= 600 s")


def test_criterion_5_optics_oracle_equivalence(capsys):
    start = time.perf_counter()
    params = DetectorParams()
    table = reference_intensity_table()
    rng = np.random.default_rng(20250814)
    n_trials = 10 ** 6
    worst_pull = 0.0
    n_checks = 0
    for meas in ("Z", "X"):
        for prep in ("Z", "X"):
            for mu_a in table.intensities:
                for mu_b in table.intensities:
                    gain, _ = pair_gain_and_qber(prep, meas, mu_a, mu_b,
                                                 params)
                    mc_gain, _, _ = monte_carlo_pair(prep, meas, mu_a, mu_b,
                                                     params, n_trials, rng)
                    sigma = math.sqrt(max(gain * (1 - gain), 1e-30)
                                      / n_trials)
                    worst_pull = max(worst_pull, abs(mc_gain - gain) / sigma)
                    n_checks += 1
    # Conjugate-basis signal QBER (senders in X, measured in Z).
    gain, qber = pair_gain_and_qber("X", "Z", table.mu, table.mu, params)
    mc_gain, n_ok, n_bad = monte_carlo_pair("X", "Z", table.mu, table.mu,
                                            params, n_trials,
                                            np.random.default_rng(20250814))
    mc_qber = n_bad / (n_ok + n_bad)
    qber_sigma = math.sqrt(qber * (1 - qber) / (n_ok + n_bad))
    elapsed = time.perf_counter() - start
    ok = (n_checks == 36 and worst_pull <= 3.0
          and 0.25 <= qber <= 0.31
          and abs(mc_qber - qber) <= 3.0 * qber_sigma
          and elapsed <= 120.0)
    _verdict(capsys, 5, ok,
             f"{n_checks} intensity-pair/basis gains within 3 sigma at 1e6 "
             f"trials (worst pull {worst_pull:.2f}); conjugate signal QBER "
             f"{qber:.4f} in [0.25, 0.31] with Monte Carlo {mc_qber:.3f} "
             f"consistent; {elapsed:.0f} s <= 120 s")


def _synthetic_instance(rng, n_max=12):
    """Threshold-detector-like yields/errors; same family as unit tests."""
    eta_a, eta_b = rng.uniform(0.01, 0.3, size=2)
    dark = rng.uniform(0.0, 1e-4)
    visibility = rng.uniform(0.7, 1.0)
    floor = rng.uniform(0.0, 0.05)
    n = np.arange(n_max + 1)
    ka = 1 - (1 - eta_a) ** n
    kb = 1 - (1 - eta_b) ** n
    yields = np.clip(np.outer(ka, kb) * visibility + dark, 0.0, 1.0)
    errors = np.clip(
        floor + rng.uniform(0.0, 0.3) * np.outer(1 - ka, np.ones_like(kb)),
        0.0, 0.5)
    errors[0, :] = 0.5
    errors[:, 0] = 0.5
    return yields, errors


def test_criterion_6_decoy_bound_validity(capsys):
    table = IntensityTable()
    violations = 0
    worst_gap = 0.0
    for k in range(50):
        yields, errors = _synthetic_instance(np.random.default_rng(7000 + k))
        grid = forward_gains(yields, errors, table)
        y_an = analytic_y11_lower(grid, table)
        e_an = analytic_e11_upper(grid, table, y_an)
        y_lp, z_lp = lp_bounds(grid, table, shift_sigmas=0.0)
        e_lp = min(z_lp / y_lp, 1.0) if y_lp > 0 else 1.0
        if not (y_an <= yields[1, 1] + 1e-12 and y_lp <= yields[1, 1] + 1e-9):
            violations += 1
        if not (e_an >= errors[1, 1] - 1e-12 and e_lp >= errors[1, 1] - 1e-9):
            violations += 1
        worst_gap = max(worst_gap, abs(y_an - y_lp) / y_lp,
                        abs(e_an - e_lp) / e_lp)
    # Soft target (not enforced): reproducing the published per-half
    # yield bounds from the published gain tables.  Measured behaviour
    # is pinned so any drift is caught: the closed form lands near 0.4x
    # of the published bounds and the LP is infeasible at 1-sigma
    # windows, i.e. the published tables are not jointly consistent
    # with one Poissonian yield model at the stated uncertainties.
    soft_ratios = {}
    soft_lp = {}
    for half in ("Z", "X"):
        grids, summary = load_reference_half(half)
        published = {"Z": summary["y11_lower_z"],
                     "X": summary["y11_lower_x"]}[half]
        soft_ratios[half] = analytic_y11_lower(grids[half], table) / published
        try:
            lp_bounds(grids[half], table, shift_sigmas=1.0)
            soft_lp[half] = "feasible"
        except DecoyError as exc:
            soft_lp[half] = f"infeasible ({exc})"
    soft_pinned = all(0.3 < ratio < 0.5 for ratio in soft_ratios.values()) \
        and all(status.startswith("infeasible") for status in soft_lp.values())
    ok = violations == 0 and worst_gap <= 0.10 and soft_pinned
    _verdict(capsys, 6, ok,
             f"50/50 synthetic instances: bounds valid, analytic-vs-LP gap "
             f"<= {worst_gap:.1%} (limit 10%); soft published-table target "
             f"NOT met and documented: analytic/published yield ratios "
             f"{soft_ratios['Z']:.2f} (Z), {soft_ratios['X']:.2f} (X) "
             f"outside +-15%, LP infeasible on both halves")


def test_criterion_7_estimator_invariants(capsys):
    # Bias of the arcsin(sqrt(.)) statistic at 1e5 recycled singles,
    # with wrong-arm probabilities taken from frozen channels: one near
    # alignment (the bias-prone regime) and one at the trigger
    # threshold (the operating regime).
    rng = np.random.default_rng(42)
    n_singles = 10 ** 5
    worst_bias = 0.0
    frozen_angles = []
    for channel_seed in (11, 17):
        channel = random_misalignment(0.2, seed=channel_seed)
        theta_true = misalignment_angles(channel)
        frozen_angles.extend(theta_true)
        wrong_prob = {
            "Z": float(abs(np.vdot(STATE_V, channel @ STATE_H)) ** 2),
            "X": float(abs(np.vdot(STATE_A, channel @ STATE_D)) ** 2),
        }
        for basis, truth in zip(("Z", "X"), theta_true):
            estimates = []
            for _ in range(400):
                # Both of the basis' states, each with half the singles.
                half = n_singles // 2
                estimates.append(pooled_angle(*pool_counts(
                    (float(k), float(half))
                    for k in rng.binomial(half, wrong_prob[basis], size=2))))
            worst_bias = max(worst_bias,
                             abs(float(np.mean(estimates)) - truth))
    # Zero misalignment in both bases implies the identity channel.
    identity = squeezer_unitary(SqueezerBank())
    angles = misalignment_angles(identity)
    worst_fidelity = min(state_fidelity(identity @ state, state)
                         for state in SIX_CARDINAL_STATES)
    phase_only = np.exp(0.7j) * np.eye(2)
    phase_angles = misalignment_angles(phase_only)
    phase_fidelity = min(state_fidelity(phase_only @ state, state)
                         for state in SIX_CARDINAL_STATES)
    ok = (worst_bias < 0.005
          and max(angles) < 1e-12
          and worst_fidelity >= 1.0 - 1e-9
          and max(phase_angles) < 1e-12
          and phase_fidelity >= 1.0 - 1e-9)
    angle_span = f"{min(frozen_angles):.3f}..{max(frozen_angles):.3f}"
    _verdict(capsys, 7, ok,
             f"estimator bias {worst_bias:.2e} rad < 0.005 at 1e5 singles "
             f"on frozen channels (true angles {angle_span} rad); "
             f"zero-angle channels act as identity on all six cardinal "
             f"states to fidelity >= 1 - 1e-9")


def _random_messages(n: int) -> list:
    """n random messages of the three types a session sends."""
    rng = np.random.default_rng(8)
    users = ("alice", "bob")
    messages = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            theta_z = None if rng.random() < 0.3 else float(rng.random())
            theta_x = None if rng.random() < 0.3 else float(rng.random())
            messages.append(MisalignmentAnnouncement(
                user=users[rng.integers(0, 2)],
                window=int(rng.integers(0, 10 ** 6)),
                theta_z=theta_z, theta_x=theta_x))
        elif kind == 1:
            messages.append(CompensatorState(
                user=users[rng.integers(0, 2)],
                window=int(rng.integers(0, 10 ** 6)),
                retardances=tuple(float(v) for v in rng.random(4)),
                triggered=bool(rng.random() < 0.5)))
        else:
            messages.append(SessionEnd(reason="complete"))
    return messages


def test_criterion_8_dual_mode_determinism(capsys):
    # (a) identical seeds, both transports: byte-identical tallies and
    # summary.
    config = SessionConfig(duration_s=60.0, rep_rate_hz=1e5, seed=9,
                           initial_misalignment_a=0.1,
                           initial_misalignment_b=0.1)
    in_process = run_session(config)
    networked = run_session(replace(config, mode="networked"))
    tallies_equal = all(
        np.array_equal(in_process.tallies[half].counts,
                       networked.tallies[half].counts)
        for half in ("Z", "X"))
    summaries_equal = summary_text(in_process) == summary_text(networked)
    # (b) wire codec: 1e4 random messages, lossless through framing.
    messages = _random_messages(10 ** 4)
    stream = b"".join(encode_message(message) for message in messages)
    decoder = FrameDecoder()
    decoded = []
    for offset in range(0, len(stream), 65536):
        decoded.extend(decoder.feed(stream[offset:offset + 65536]))
    codec_ok = decoded == messages and decoder.pending_bytes() == 0
    # (c) privacy and accounting in the criterion-4 ensemble: every
    # window partitions its slots exactly once across key-candidate,
    # recycled, decoy-coincidence, and discarded classes...
    runs = _headline_runs()
    n_windows = 0
    accounting_ok = True
    for report in runs["reports"]:
        for trace in report.windows:
            n_windows += 1
            if sum(trace.counts.values()) != trace.n_slots:
                accounting_ok = False
    # ... and a slot-materializing run re-derives the same protocol with
    # explicit per-slot reveal/sift sets; its nodes abort the session if
    # any revealed slot enters the sifted key in any window.
    per_slot = run_session(SessionConfig(
        duration_s=60.0, rep_rate_hz=2e5, seed=0, sampling="per-slot",
        initial_misalignment_a=0.1, initial_misalignment_b=0.1))
    privacy_ok = accounting_ok and len(per_slot.windows) == 4
    ok = tallies_equal and summaries_equal and codec_ok and privacy_ok
    _verdict(capsys, 8, ok,
             f"networked run matches in-process byte-for-byte (tallies and "
             f"summary); 10000 random messages round-trip losslessly; slot "
             f"accounting exact in all {n_windows} ensemble windows and "
             f"reveal/sift disjointness enforced per window in a "
             f"slot-materializing run")
