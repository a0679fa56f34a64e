"""Decoy-state tallies, single-photon bounds, and key-rate evaluation."""

import math
import re
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from mdiqkd_polcomp.config import load_profile
from mdiqkd_polcomp.decoy import (
    TALLY_SHAPE,
    DecoyError,
    GainGrid,
    KeyRateReport,
    TallySet,
    analytic_e11_upper,
    analytic_y11_lower,
    bound_y11_e11,
    forward_gains,
    h2,
    key_rate,
    load_reference_half,
    lp_bounds,
    p11,
    poisson_pmf,
    read_gain_csv,
)
from mdiqkd_polcomp.session import run_session
from mdiqkd_polcomp.transmitter import IntensityTable

TABLE = IntensityTable()


# ---------------------------------------------------------------------------
# Entropy and photon-number helpers
# ---------------------------------------------------------------------------

def test_h2_endpoints_and_symmetry():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == pytest.approx(1.0, abs=1e-15)
    assert h2(0.2) == pytest.approx(h2(0.8), abs=1e-15)


def test_h2_reference_point():
    # Direct formula evaluation, frozen from an independent computation.
    assert h2(0.038) == pytest.approx(0.23304589256445052, rel=1e-12)
    assert h2(0.038) == pytest.approx(0.23305, abs=5e-6)


def test_h2_rejects_out_of_range():
    with pytest.raises(DecoyError):
        h2(-0.01)
    with pytest.raises(DecoyError):
        h2(1.01)


def test_p11_signal_intensity_value():
    assert p11(0.28) == pytest.approx(0.044782790605747094, rel=1e-12)
    assert p11(0.28) == pytest.approx(0.04478, abs=5e-6)


def test_p11_small_intensity_limit():
    assert p11(1e-9) < 1e-17


def test_p11_maximum_at_unit_intensity():
    peak = p11(1.0)
    assert peak == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert p11(0.999) < peak
    assert p11(1.001) < peak


def test_p11_rejects_nonpositive():
    with pytest.raises(DecoyError):
        p11(0.0)
    with pytest.raises(DecoyError):
        p11(-0.1)


def test_poisson_pmf_matches_series():
    assert poisson_pmf(0, 0.28) == pytest.approx(math.exp(-0.28), rel=1e-12)
    assert poisson_pmf(2, 0.07) == pytest.approx(
        0.07 ** 2 / 2 * math.exp(-0.07), rel=1e-12)
    assert poisson_pmf(0, 0.0) == 1.0
    assert poisson_pmf(3, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Tallies
# ---------------------------------------------------------------------------

def test_tally_record_gain_and_qber():
    tallies = TallySet()
    tallies.record("Z", "mu", "mu", sent=1_000_000, coincidences=30,
                   errors=3)
    cell = tallies.cell("Z", "mu", "mu")
    assert cell == (1_000_000, 30, 3)
    assert cell.coincidences / cell.sent == pytest.approx(3e-5)
    assert cell.errors / cell.coincidences == pytest.approx(0.1)
    # Unfilled cells read as zero counts.
    assert tallies.cell("X", "nu", "omega") == (0, 0, 0)


def test_tally_rejects_inconsistent_counts():
    tallies = TallySet()
    with pytest.raises(DecoyError):
        tallies.record("Z", "mu", "mu", sent=10, coincidences=11, errors=0)
    with pytest.raises(DecoyError):
        tallies.record("Z", "mu", "mu", sent=10, coincidences=5, errors=6)
    with pytest.raises(DecoyError):
        tallies.record("Z", "mu", "mu", sent=-1)
    with pytest.raises(DecoyError):
        tallies.record("Q", "mu", "mu", sent=1)
    with pytest.raises(DecoyError):
        tallies.record("Z", "kappa", "mu", sent=1)


def test_tally_array_add_matches_cell_records():
    rng = np.random.default_rng(5)
    by_cell, by_array = TallySet(), TallySet()
    for _ in range(3):
        window = np.zeros(TALLY_SHAPE, dtype=np.int64)
        for b, basis in enumerate(("Z", "X")):
            for i, ia in enumerate(("mu", "nu", "omega")):
                for j, ib in enumerate(("mu", "nu", "omega")):
                    sent = int(rng.integers(100, 10_000))
                    coincidences = int(rng.integers(0, sent // 10))
                    errors = int(rng.integers(0, coincidences + 1))
                    by_cell.record(basis, ia, ib, sent, coincidences, errors)
                    window[b, i, j] = (sent, coincidences, errors)
        by_array.add(window)
    assert np.array_equal(by_cell.counts, by_array.counts)
    cell = by_array.cell("X", "nu", "omega")
    assert tuple(cell) == tuple(by_array.counts[1, 1, 2].tolist())
    assert (cell.sent, cell.coincidences, cell.errors) == tuple(cell)
    # A window that breaks errors <= coincidences <= sent anywhere is
    # refused whole, and the set keeps its earlier counts.
    before = by_array.counts.copy()
    bad = np.zeros(TALLY_SHAPE, dtype=np.int64)
    bad[0, 2, 1] = (0, 0, 10 ** 6)
    with pytest.raises(DecoyError, match="errors <= coincidences <= sent"):
        by_array.add(bad)
    assert np.array_equal(by_array.counts, before)


def test_tally_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    tallies = TallySet()
    for basis in ("Z", "X"):
        for ia in ("mu", "nu", "omega"):
            for ib in ("mu", "nu", "omega"):
                sent = int(rng.integers(1000, 100_000))
                coincidences = int(rng.integers(0, 100))
                errors = int(rng.integers(0, coincidences + 1))
                tallies.record(basis, ia, ib, sent, coincidences, errors)
    path = tmp_path / "tallies.csv"
    tallies.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "basis,intensity_A,intensity_B,sent,coincidences,errors"
    loaded = TallySet.read_csv(path)
    assert np.array_equal(loaded.counts, tallies.counts)
    path_again = tmp_path / "again.csv"
    loaded.write_csv(path_again)
    assert path_again.read_bytes() == path.read_bytes()


def test_tally_csv_rejects_bad_header_and_rows(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("basis,a,b\nZ,mu,mu\n")
    with pytest.raises(DecoyError):
        TallySet.read_csv(bad_header)
    bad_counts = tmp_path / "bad_counts.csv"
    bad_counts.write_text(
        "basis,intensity_A,intensity_B,sent,coincidences,errors\n"
        "Z,mu,mu,100,five,0\n")
    with pytest.raises(DecoyError):
        TallySet.read_csv(bad_counts)


def _full_tally_lines(tmp_path) -> list:
    path = tmp_path / "full.csv"
    TallySet().write_csv(path)
    return path.read_text().splitlines(keepends=True)


def _published_gain_lines() -> list:
    return (resources.files("mdiqkd_polcomp.data") / "tables"
            / "published_gains_meas_z.csv").read_text(
                encoding="utf-8").splitlines(keepends=True)


# Line 1 of both tables, after the header, is the Z mu-mu cell.
TABLE_DAMAGE = {
    "missing": (lambda lines: lines[:1] + lines[2:], "missing", "Z,mu,mu"),
    "duplicated": (lambda lines: lines + lines[1:2], "duplicated",
                   "Z,mu,mu"),
    "truncated": (lambda lines: lines[:-1], "missing", "X,omega,omega"),
}


@pytest.mark.parametrize("damage", sorted(TABLE_DAMAGE))
@pytest.mark.parametrize("what", ["tally", "gain"])
def test_tables_must_hold_each_cell_once(tmp_path, what, damage):
    edit, problem, cell = TABLE_DAMAGE[damage]
    if what == "tally":
        lines, read = _full_tally_lines(tmp_path), TallySet.read_csv
    else:
        lines, read = _published_gain_lines(), read_gain_csv
    path = tmp_path / "damaged.csv"
    path.write_text("".join(edit(lines)))
    with pytest.raises(DecoyError, match=re.escape(
            f"{problem} {what} CSV cell in {path}: {cell}")):
        read(path)


def test_tally_table_must_hold_both_bases(tmp_path):
    path = tmp_path / "z_only.csv"
    path.write_text("".join(_full_tally_lines(tmp_path)[:10]))
    with pytest.raises(DecoyError, match="missing tally CSV cell.*X,mu,mu"):
        TallySet.read_csv(path)


def test_gain_table_may_name_one_basis(tmp_path):
    path = tmp_path / "z_only.csv"
    path.write_text("".join(_published_gain_lines()[:10]))
    assert list(read_gain_csv(path)) == ["Z"]


def test_gain_grid_binomial_uncertainty():
    tallies = TallySet()
    tallies.record("Z", "mu", "mu", sent=1_000_000, coincidences=3000,
                   errors=120)
    grid = tallies.gain_grid("Z")
    q = 3000 / 1_000_000
    assert grid.q[0, 0] == pytest.approx(q)
    assert grid.q_sigma[0, 0] == pytest.approx(
        math.sqrt(q * (1 - q) / 1_000_000), rel=1e-12)
    eq = 120 / 1_000_000
    assert grid.eq[0, 0] == pytest.approx(eq)
    assert grid.eq_sigma[0, 0] == pytest.approx(
        math.sqrt(eq * (1 - eq) / 1_000_000), rel=1e-12)


def test_gain_grid_equals_the_per_cell_formula():
    rng = np.random.default_rng(31)
    sent = rng.integers(0, 10 ** 12, size=TALLY_SHAPE[:3])
    sent[1, 2, 0] = 0
    coincidences = rng.integers(0, sent + 1)
    errors = rng.integers(0, coincidences + 1)
    tallies = TallySet()
    tallies.add(np.stack([sent, coincidences, errors], axis=-1))
    for basis in ("Z", "X"):
        grid = tallies.gain_grid(basis)
        for i, ia in enumerate(("mu", "nu", "omega")):
            for j, ib in enumerate(("mu", "nu", "omega")):
                cell = tallies.cell(basis, ia, ib)
                expected = [0.0] * 4
                if cell.sent:
                    q = cell.coincidences / cell.sent
                    eq = cell.errors / cell.sent
                    expected = [q, math.sqrt(max(q * (1 - q), 1e-30)
                                             / cell.sent),
                                eq, math.sqrt(max(eq * (1 - eq), 1e-30)
                                              / cell.sent)]
                assert [grid.q[i, j], grid.q_sigma[i, j], grid.eq[i, j],
                        grid.eq_sigma[i, j]] == expected


def test_gain_grid_validation():
    zero = np.zeros((3, 3))
    with pytest.raises(DecoyError):
        GainGrid(q=np.zeros((2, 2)), q_sigma=zero, eq=zero, eq_sigma=zero)
    with pytest.raises(DecoyError):
        GainGrid(q=zero - 1e-3, q_sigma=zero, eq=zero, eq_sigma=zero)
    with pytest.raises(DecoyError):
        GainGrid(q=zero, q_sigma=zero, eq=zero + 1e-3, eq_sigma=zero)
    with pytest.raises(DecoyError, match=r"gains must lie in \[0, 1\]"):
        GainGrid(q=zero + 1.5, q_sigma=zero, eq=zero, eq_sigma=zero)
    for name in ("q_sigma", "eq_sigma"):
        with pytest.raises(DecoyError, match="uncertainties"):
            GainGrid(**{"q": zero, "q_sigma": zero, "eq": zero,
                        "eq_sigma": zero, name: zero - 1e-9})


# ---------------------------------------------------------------------------
# Forward model
# ---------------------------------------------------------------------------

def _synthetic_instance(rng, n_max=12):
    """Physical yields/errors: threshold-detector response plus background."""
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


def test_forward_gains_vacuum_only_yield():
    yields = np.zeros((3, 3))
    yields[0, 0] = 0.5
    errors = np.zeros((3, 3))
    grid = forward_gains(yields, errors, TABLE)
    for i, a in enumerate(TABLE.intensities):
        for j, b in enumerate(TABLE.intensities):
            assert grid.q[i, j] == pytest.approx(0.5 * math.exp(-a - b),
                                                 rel=1e-12)


def test_forward_gains_symmetric_yields_give_symmetric_gains():
    yields, errors = _synthetic_instance(np.random.default_rng(3))
    yields = (yields + yields.T) / 2
    errors = (errors + errors.T) / 2
    grid = forward_gains(yields, errors, TABLE)
    assert np.allclose(grid.q, grid.q.T, rtol=0, atol=1e-18)
    assert np.allclose(grid.eq, grid.eq.T, rtol=0, atol=1e-18)


def test_forward_gains_validates_inputs():
    good = np.full((3, 3), 0.1)
    with pytest.raises(DecoyError):
        forward_gains(good, np.full((2, 2), 0.1), TABLE)
    with pytest.raises(DecoyError):
        forward_gains(good + 1.0, good, TABLE)
    with pytest.raises(DecoyError):
        forward_gains(good, good - 1.0, TABLE)


# ---------------------------------------------------------------------------
# Analytic bounds
# ---------------------------------------------------------------------------

def test_analytic_bounds_valid_on_synthetic_instances():
    ratios = []
    for k in range(50):
        yields, errors = _synthetic_instance(np.random.default_rng(1000 + k))
        grid = forward_gains(yields, errors, TABLE)
        y_low = analytic_y11_lower(grid, TABLE)
        e_up = analytic_e11_upper(grid, TABLE, y_low)
        assert y_low <= yields[1, 1] + 1e-12
        assert e_up >= errors[1, 1] - 1e-12
        ratios.append(y_low / yields[1, 1])
    # The closed form is tight at these intensities, not vacuously zero.
    assert min(ratios) > 0.9


def test_analytic_bound_all_zero_gains():
    zero = np.zeros((3, 3))
    grid = GainGrid(q=zero, q_sigma=zero, eq=zero, eq_sigma=zero)
    assert analytic_y11_lower(grid, TABLE) == 0.0
    assert analytic_e11_upper(grid, TABLE, 0.0) == 1.0


def test_analytic_sigma_shift_is_conservative():
    yields, errors = _synthetic_instance(np.random.default_rng(4))
    grid = forward_gains(yields, errors, TABLE)
    sigma = np.full((3, 3), 1e-7)
    noisy = GainGrid(q=grid.q, q_sigma=sigma, eq=grid.eq, eq_sigma=sigma)
    y_central = analytic_y11_lower(noisy, TABLE, shift_sigmas=0.0)
    y_shifted = analytic_y11_lower(noisy, TABLE, shift_sigmas=1.0)
    assert y_shifted < y_central
    e_central = analytic_e11_upper(noisy, TABLE, y_shifted, shift_sigmas=0.0)
    e_shifted = analytic_e11_upper(noisy, TABLE, y_shifted, shift_sigmas=1.0)
    assert e_shifted > e_central


# ---------------------------------------------------------------------------
# Linear-program bounds
# ---------------------------------------------------------------------------

def test_lp_bounds_valid_and_close_to_analytic_on_synthetic_instances():
    worst_y_gap = 0.0
    worst_e_gap = 0.0
    for k in range(50):
        yields, errors = _synthetic_instance(np.random.default_rng(1000 + k))
        grid = forward_gains(yields, errors, TABLE)
        y_lp, z_lp = lp_bounds(grid, TABLE, shift_sigmas=0.0)
        e_lp = min(z_lp / y_lp, 1.0) if y_lp > 0 else 1.0
        assert y_lp <= yields[1, 1] + 1e-9
        assert e_lp >= errors[1, 1] - 1e-9
        y_an = analytic_y11_lower(grid, TABLE)
        e_an = analytic_e11_upper(grid, TABLE, y_an)
        worst_y_gap = max(worst_y_gap, abs(y_an - y_lp) / y_lp)
        worst_e_gap = max(worst_e_gap, abs(e_an - e_lp) / e_lp)
    assert worst_y_gap <= 0.10
    assert worst_e_gap <= 0.10


def test_lp_all_zero_gains():
    zero = np.zeros((3, 3))
    grid = GainGrid(q=zero, q_sigma=zero, eq=zero, eq_sigma=zero)
    y_lp, z_lp = lp_bounds(grid, TABLE, shift_sigmas=0.0)
    assert y_lp == 0.0
    assert z_lp >= 0.0


def test_lp_infeasible_tallies_name_violated_constraint():
    # Nearly all vacuum-pair pulses click, yet signal pairs almost never
    # do: no Poisson yield assignment can reproduce both.
    q = np.zeros((3, 3))
    q[2, 2] = 0.9
    q[0, 0] = 1e-6
    sigma = np.full((3, 3), 1e-9)
    grid = GainGrid(q=q, q_sigma=sigma, eq=np.zeros((3, 3)),
                    eq_sigma=sigma.copy())
    with pytest.raises(DecoyError, match="most violated"):
        lp_bounds(grid, TABLE)


def test_lp_accepts_a_reference_sessions_own_tallies():
    # The 4 h seed-3 tallies miss the bare windows by 3.5e-10 to 7.3e-10,
    # inside LP_FEASIBILITY_TOLERANCE, in every half and basis.
    config = replace(load_profile("reference-defaults"), duration_s=14400.0,
                     seed=3)
    report = run_session(config)
    for half in ("Z", "X"):
        for basis in ("Z", "X"):
            grid = report.tallies[half].gain_grid(basis)
            y11, z11 = lp_bounds(grid, config.table)
            assert 2.5e-4 < y11 < 4e-4
            assert 0.0 <= z11 <= y11


# ---------------------------------------------------------------------------
# Bound driver
# ---------------------------------------------------------------------------

def test_bound_driver_uses_conjugate_basis_for_phase_error():
    yields_z, errors_z = _synthetic_instance(np.random.default_rng(21))
    yields_x, errors_x = _synthetic_instance(np.random.default_rng(22))
    grids = {"Z": forward_gains(yields_z, errors_z, TABLE),
             "X": forward_gains(yields_x, errors_x, TABLE)}
    bounds = bound_y11_e11(grids, TABLE, "Z", method="analytic")
    assert bounds.meas_basis == "Z"
    assert bounds.phase_basis == "X"
    assert set(bounds.y11_lower) == {"Z", "X"}
    # Phase error comes from the X grid: recompute directly.
    y_x = analytic_y11_lower(grids["X"], TABLE)
    assert bounds.e11_upper == pytest.approx(
        analytic_e11_upper(grids["X"], TABLE, y_x), rel=1e-12)
    swapped = bound_y11_e11(grids, TABLE, "X", method="analytic")
    assert swapped.phase_basis == "Z"
    assert swapped.e11_upper != pytest.approx(bounds.e11_upper, rel=1e-6)


def test_bound_driver_lp_mode_matches_lp_bounds():
    rng = np.random.default_rng(23)
    grids = {basis: forward_gains(*_synthetic_instance(rng), TABLE)
             for basis in ("Z", "X")}
    bounds = bound_y11_e11(grids, TABLE, "Z", method="lp", shift_sigmas=0.0)
    per_basis = {basis: lp_bounds(grid, TABLE, shift_sigmas=0.0)
                 for basis, grid in grids.items()}
    assert bounds.y11_lower == {basis: y for basis, (y, _) in
                                per_basis.items()}
    y_phase, z_phase = per_basis["X"]
    assert y_phase > 0.0
    assert bounds.e11_upper == min(z_phase / y_phase, 1.0)


def test_bound_driver_validation():
    yields, errors = _synthetic_instance(np.random.default_rng(24))
    grid = forward_gains(yields, errors, TABLE)
    with pytest.raises(DecoyError):
        bound_y11_e11({"Z": grid}, TABLE, "Z")
    with pytest.raises(DecoyError):
        bound_y11_e11({"Z": grid, "X": grid}, TABLE, "Q")
    with pytest.raises(DecoyError):
        bound_y11_e11({"Z": grid, "X": grid}, TABLE, "Z", method="sdp")


# ---------------------------------------------------------------------------
# Key rate
# ---------------------------------------------------------------------------

def test_key_rate_reproduces_reference_halves():
    r_z = key_rate(0.044782790605747094, 8.02e-4, 0.148, 3.00e-5, 0.038, 1.16)
    r_x = key_rate(0.044782790605747094, 8.17e-4, 0.117, 3.19e-5, 0.038, 1.16)
    # Frozen from direct evaluation of the rate formula.
    assert r_z.rate == pytest.approx(6.083474150279895e-06, rel=1e-12)
    assert r_x.rate == pytest.approx(8.913672928650315e-06, rel=1e-12)
    assert r_z.rate == pytest.approx(5.94e-6, rel=0.05)
    assert r_x.rate == pytest.approx(8.96e-6, rel=0.05)
    mean = (r_z.rate + r_x.rate) / 2
    assert mean == pytest.approx(7.498573539465105e-06, rel=1e-12)
    assert mean == pytest.approx(7.45e-6, rel=0.05)


def test_key_rate_zero_yield_clamps_to_zero():
    report = key_rate(0.04478, 0.0, 0.148, 3.00e-5, 0.038, 1.16)
    assert report.raw_rate == pytest.approx(-3.00e-5 * 1.16 * h2(0.038),
                                            rel=1e-12)
    assert report.raw_rate < 0
    assert report.rate == 0.0


def test_key_rate_echoes_inputs():
    report = key_rate(0.04, 5e-4, 0.1, 2e-5, 0.03, 1.2)
    assert isinstance(report, KeyRateReport)
    assert (report.p11, report.y11_lower, report.e11_upper,
            report.q_signal, report.e_signal,
            report.error_correction_efficiency) == (0.04, 5e-4, 0.1, 2e-5,
                                                    0.03, 1.2)


def test_key_rate_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = float(rng.uniform(0.01, 0.13))
        y = float(rng.uniform(0.0, 1e-2))
        e11 = float(rng.uniform(0.0, 0.45))
        q = float(rng.uniform(0.0, 1e-3))
        e_sig = float(rng.uniform(0.0, 0.45))
        base = key_rate(p, y, e11, q, e_sig).raw_rate
        assert key_rate(p, y, min(e11 + 0.02, 0.5), q, e_sig).raw_rate <= base + 1e-18
        assert key_rate(p, y, e11, q, min(e_sig + 0.02, 0.5)).raw_rate <= base + 1e-18
        assert key_rate(p, min(y * 1.5 + 1e-6, 1.0), e11, q,
                        e_sig).raw_rate >= base - 1e-18


def test_key_rate_validation():
    with pytest.raises(DecoyError):
        key_rate(1.5, 8e-4, 0.1, 3e-5, 0.038)
    with pytest.raises(DecoyError):
        key_rate(0.04, -1e-4, 0.1, 3e-5, 0.038)
    with pytest.raises(DecoyError):
        key_rate(0.04, 8e-4, 0.1, 3e-5, 0.038, f=0.9)
    # inf * 0 would make the rate NaN.
    for f in (math.inf, math.nan):
        with pytest.raises(DecoyError, match=r"must be in \[1, inf\)"):
            key_rate(0.04, 8e-4, 0.1, 3e-5, 0.0, f=f)


# ---------------------------------------------------------------------------
# Bundled reference dataset
# ---------------------------------------------------------------------------

def test_reference_dataset_loads_expected_cells():
    grids, summary = load_reference_half("Z")
    assert grids["Z"].q[0, 0] == pytest.approx(3.00e-5)
    assert grids["Z"].q_sigma[0, 0] == pytest.approx(0.03e-5)
    assert grids["Z"].eq[1, 1] == pytest.approx(0.043 * 1.76e-6, rel=1e-12)
    assert grids["X"].q[2, 0] == pytest.approx(1.57e-5)
    assert summary["key_rate"] == pytest.approx(5.94e-6)
    assert summary["y11_lower_z"] == pytest.approx(8.02e-4)
    grids_x, summary_x = load_reference_half("X")
    assert grids_x["X"].q[0, 0] == pytest.approx(3.19e-5)
    assert grids_x["Z"].q[0, 0] == pytest.approx(6.27e-5)
    assert summary_x["e11_upper"] == pytest.approx(0.117)


def test_reference_dataset_round_trips_through_gain_csv(tmp_path):
    grids, _ = load_reference_half("Z")
    path = tmp_path / "grid.csv"
    from mdiqkd_polcomp.decoy import GAIN_CSV_HEADER
    import csv as _csv
    with open(path, "w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(GAIN_CSV_HEADER)
        for basis, grid in grids.items():
            for i, ia in enumerate(("mu", "nu", "omega")):
                for j, ib in enumerate(("mu", "nu", "omega")):
                    q = grid.q[i, j]
                    e = grid.eq[i, j] / q if q else 0.0
                    writer.writerow([basis, ia, ib, q, grid.q_sigma[i, j],
                                     e, 0.0])
    loaded = read_gain_csv(path)
    for basis in ("Z", "X"):
        assert np.allclose(loaded[basis].q, grids[basis].q, rtol=1e-12)
        assert np.allclose(loaded[basis].eq, grids[basis].eq, rtol=1e-9,
                           atol=1e-18)


def test_reference_dataset_analytic_bounds_are_frozen_regression_values():
    """The closed-form bounds on the bundled dataset are fixed quantities.

    They land well below the dataset's own summary values (about 0.40x):
    the summary numbers come from an estimation procedure that is not
    Poisson-consistent with the bundled gain tables, so this module
    treats the summary comparison as informational, not as a gate.
    """
    grids, summary = load_reference_half("Z")
    bounds = bound_y11_e11(grids, TABLE, "Z", method="analytic")
    assert bounds.y11_lower["Z"] == pytest.approx(3.2457e-4, rel=1e-3)
    assert bounds.y11_lower["X"] == pytest.approx(4.0089e-4, rel=1e-3)
    assert bounds.e11_upper == pytest.approx(0.1987, abs=2e-3)
    ratio = bounds.y11_lower["Z"] / summary["y11_lower_z"]
    assert 0.3 < ratio < 0.5


def test_reference_dataset_lp_reports_inconsistency():
    grids, _ = load_reference_half("Z")
    with pytest.raises(DecoyError, match="most violated"):
        bound_y11_e11(grids, TABLE, "Z", method="lp", shift_sigmas=1.0)
