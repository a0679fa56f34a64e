"""Decoy-state accounting: tallies, single-photon bounds, and the key rate.

Senders choose among three intensities mu > nu > omega (omega close to
vacuum).  For each measurement-basis half of a session, coincidence
tallies are kept per preparation basis and intensity pair; the gains
Q_ab and error rates E_ab constrain the photon-number-resolved yields
Y_nm through the Poissonian mixture

    Q_ab = sum_nm  e^{-a} a^n / n!  *  e^{-b} b^m / m!  *  Y_nm.

Two bounding backends are provided:

- analytic: closed-form two-decoy bounds.  With G_ab = e^{a+b} Q_ab and
  H_a = G_aa - G_a,omega - G_omega,a + G_omega,omega, every vacuum
  component cancels, leaving H_a = sum_{n,m>=1} (a^n - w^n)(a^m - w^m)
  / (n! m!) Y_nm with w = omega.  In the combination mu^3 H_nu -
  nu^3 H_mu the n+m = 3 terms cancel at w = 0 and every n+m >= 3 term
  is nonpositive for 0 <= w < nu < mu, so

      Y_11 >= (mu^3 H_nu - nu^3 H_mu) / (mu^3 (nu-w)^2 - nu^3 (mu-w)^2)

  is a valid lower bound.  The analogous sum W_nu built from error
  gains has only nonnegative terms, giving
  e_11 <= W_nu / ((nu-w)^2 Y_11^L).  H_a and W_nu are one combination,
  `_two_decoy_combination`, over gains and over error gains.

- lp: linear program over yields {Y_nm} and error-weighted yields
  {Z_nm = e_nm Y_nm}, n, m <= N_CUT, with each observed gain bracketing
  its truncated Poisson mixture within the statistical uncertainty plus
  the truncation tail and LP_FEASIBILITY_TOLERANCE.  Infeasible tallies
  raise a diagnostic naming the most violated constraint.

The secure-rate formula combines a matched-basis signal gain with the
conjugate-basis single-photon phase error:

    R = p11 * Y11_L * (1 - H2(e11_U)) - Q_signal * f * H2(E_signal).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from itertools import product
from typing import NamedTuple

import numpy as np

from .transmitter import BASIS_LABELS, INTENSITY_LABELS, IntensityTable

CONJUGATE_BASIS = {"Z": "X", "X": "Z"}
TALLY_CSV_HEADER = ("basis", "intensity_A", "intensity_B",
                    "sent", "coincidences", "errors")
GAIN_CSV_HEADER = ("basis", "intensity_A", "intensity_B",
                   "gain", "gain_sigma", "qber", "qber_sigma")
# Photon numbers n, m <= N_CUT enter the LP; the rest is its tail.
N_CUT = 7
# LP variables: the yields Y_nm, row-major in (n, m), then the Z_nm.
_LP_YIELDS = (N_CUT + 1) ** 2
_Y11 = N_CUT + 2
# Every LP gain window is widened by this much on both sides.  This
# simulator's own tallies miss the unwidened windows by 1e-11 to 1e-9
# (a cell observed at zero has a window of width 1e-19), while the
# published tables miss them by 3e-7 and stay infeasible.
LP_FEASIBILITY_TOLERANCE = 1e-9
DEFAULT_ERROR_CORRECTION_EFFICIENCY = 1.16


class DecoyError(ValueError):
    """Raised for invalid decoy-analysis inputs or inconsistent tallies."""


def h2(x: float) -> float:
    """Binary Shannon entropy in bits; 0 at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise DecoyError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def p11(mu: float) -> float:
    """Probability that both senders' signal pulses hold exactly one photon."""
    if mu <= 0.0:
        raise DecoyError(f"mean photon number must be positive, got {mu}")
    return mu * mu * math.exp(-2.0 * mu)


def poisson_pmf(n: int, mean: float) -> float:
    """Poisson probability mass; exact for mean 0."""
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


# ---------------------------------------------------------------------------
# Tallies
# ---------------------------------------------------------------------------

# TallySet.counts axes: preparation basis, intensity A, intensity B and
# the quantity (sent, coincidences, errors).
TALLY_SHAPE = (len(BASIS_LABELS), len(INTENSITY_LABELS),
               len(INTENSITY_LABELS), 3)


# Maps a cell's (sent, coincidences, errors) to the gaps
# (sent - coincidences, coincidences - errors, errors), all >= 0.
_ORDER_GAPS = np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1]], dtype=np.int64)


def _check_cell_order(sent: int, coincidences: int, errors: int) -> None:
    if not 0 <= errors <= coincidences <= sent:
        raise DecoyError(f"tally cell must satisfy errors <= coincidences "
                         f"<= sent, got {errors}/{coincidences}/{sent}")


class TallyCell(NamedTuple):
    """Counts for one (preparation basis, intensity pair) cell."""

    sent: int
    coincidences: int
    errors: int


def _cell_index(basis: str, intensity_a: str, intensity_b: str) -> tuple:
    if basis not in BASIS_LABELS:
        raise DecoyError(f"unknown basis {basis!r}")
    if intensity_a not in INTENSITY_LABELS or intensity_b not in INTENSITY_LABELS:
        raise DecoyError(f"unknown intensity pair ({intensity_a!r}, {intensity_b!r})")
    return (BASIS_LABELS.index(basis), INTENSITY_LABELS.index(intensity_a),
            INTENSITY_LABELS.index(intensity_b))


class TallySet:
    """Per preparation-basis, per intensity-pair counters for one half.

    `counts` is one int64 array of shape TALLY_SHAPE; every cell keeps
    errors <= coincidences <= sent.
    """

    def __init__(self):
        self.counts = np.zeros(TALLY_SHAPE, dtype=np.int64)

    def add(self, counts: np.ndarray) -> None:
        """Add a TALLY_SHAPE array of counts, checking every cell."""
        total = self.counts + counts
        if (total @ _ORDER_GAPS).min() < 0:
            for cell in total.reshape(-1, 3).tolist():
                _check_cell_order(*cell)
        self.counts = total

    def record(self, basis: str, intensity_a: str, intensity_b: str,
               sent: int = 0, coincidences: int = 0, errors: int = 0) -> None:
        delta = np.zeros(TALLY_SHAPE, dtype=np.int64)
        try:
            delta[_cell_index(basis, intensity_a, intensity_b)] = (
                sent, coincidences, errors)
        except OverflowError as exc:
            raise DecoyError(f"tally counts out of int64 range: "
                             f"{sent}/{coincidences}/{errors}") from exc
        self.add(delta)

    def cell(self, basis: str, intensity_a: str, intensity_b: str) -> TallyCell:
        return TallyCell(*self.counts[
            _cell_index(basis, intensity_a, intensity_b)].tolist())

    def gain_grid(self, basis: str) -> "GainGrid":
        """Gains and error gains with binomial 1-sigma uncertainties.

        A cell with nothing sent has zero gains and zero uncertainties.
        """
        counts = self.counts[_cell_index(basis, "mu", "mu")[0]]
        sent = np.maximum(counts[..., :1], 1)
        # Every cell keeps errors <= coincidences <= sent, so an empty
        # cell's rates are 0 / 1.
        rates = counts[..., 1:] / sent
        sigmas = np.where(counts[..., :1] > 0, np.sqrt(
            np.maximum(rates * (1 - rates), 1e-30) / sent), 0.0)
        (q, eq), (q_sigma, eq_sigma) = (np.moveaxis(rates, -1, 0),
                                        np.moveaxis(sigmas, -1, 0))
        return GainGrid(q=q, q_sigma=q_sigma, eq=eq, eq_sigma=eq_sigma)

    def write_csv(self, path) -> None:
        cells = product(BASIS_LABELS, INTENSITY_LABELS, INTENSITY_LABELS)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(TALLY_CSV_HEADER)
            writer.writerows([*cell, *counts] for cell, counts in zip(
                cells, self.counts.reshape(-1, 3).tolist()))

    @classmethod
    def read_csv(cls, path) -> "TallySet":
        tallies = cls()
        for cell, counts in _table_rows(path, TALLY_CSV_HEADER, _tally_values,
                                        "tally", BASIS_LABELS).items():
            tallies.record(*cell, *counts)
        return tallies


def _tally_values(texts) -> list:
    """A tally row's (sent, coincidences, errors), in order, in int64."""
    values = [int(text) for text in texts]
    _check_cell_order(*values)
    if values[0] > np.iinfo(np.int64).max:
        raise ValueError(f"tally counts out of int64 range: {values[0]}")
    return values


def _gain_values(texts) -> list:
    """A gain row's (gain, gain_sigma, qber, qber_sigma).

    Each must be finite, both rates must lie in [0, 1] and both
    uncertainties must be nonnegative.
    """
    values = [float(text) for text in texts]
    for text, value in zip(texts, values):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {text!r}")
    gain, gain_sigma, qber, qber_sigma = values
    if not (0.0 <= gain <= 1.0 and 0.0 <= qber <= 1.0):
        raise ValueError("gain and qber must lie in [0, 1]")
    if gain_sigma < 0.0 or qber_sigma < 0.0:
        raise ValueError("uncertainties must be nonnegative")
    return values


def _table_rows(path, header: tuple, convert, what: str,
                bases=None) -> dict:
    """{(basis, intensity_a, intensity_b): values} of a CSV table.

    `convert` turns a row's value texts into its values.  A wrong header
    or column count, an unknown label, or values that `convert` rejects
    raise DecoyError naming the file and the row.
    The table must hold each cell once, and every intensity pair of
    each of `bases` (default: of each basis it names); a duplicated or
    missing cell raises DecoyError naming the file and the cell.
    """
    rows: dict = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None or tuple(found) != header:
            raise DecoyError(f"bad {what} CSV header in {path}: {found}")
        for row in filter(None, reader):
            if len(row) != len(header):
                raise DecoyError(f"bad {what} CSV row in {path}: {row}")
            try:
                _cell_index(*row[:3])
                values = convert(row[3:])
            except (DecoyError, ValueError) as exc:
                raise DecoyError(f"bad {what} CSV row in {path}: {row}: "
                                 f"{exc}") from exc
            cell = tuple(row[:3])
            if cell in rows:
                raise DecoyError(f"duplicated {what} CSV cell in {path}: "
                                 f"{','.join(cell)}")
            rows[cell] = values
    named = {cell[0] for cell in rows} if bases is None else bases
    for cell in product(BASIS_LABELS, INTENSITY_LABELS, INTENSITY_LABELS):
        if cell[0] in named and cell not in rows:
            raise DecoyError(f"missing {what} CSV cell in {path}: "
                             f"{','.join(cell)}")
    return rows


@dataclass
class GainGrid:
    """Observed gains/error gains per intensity pair, with uncertainties.

    Arrays are indexed [sender A intensity, sender B intensity] in the
    order (mu, nu, omega).  eq holds error gains E*Q, not error rates.
    """

    q: np.ndarray
    q_sigma: np.ndarray
    eq: np.ndarray
    eq_sigma: np.ndarray

    def __post_init__(self):
        n = len(INTENSITY_LABELS)
        for name in ("q", "q_sigma", "eq", "eq_sigma"):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != (n, n):
                raise DecoyError(f"{name} must be a {n}x{n} array")
            setattr(self, name, value)
        if np.any(self.q < 0) or np.any(self.q > 1) \
                or np.any(self.eq < -1e-15):
            raise DecoyError("gains must lie in [0, 1]")
        if np.any(self.q_sigma < 0) or np.any(self.eq_sigma < 0):
            raise DecoyError("uncertainties must be nonnegative")
        if np.any(self.eq > self.q + 1e-12):
            raise DecoyError("error gain cannot exceed gain")


def read_gain_csv(path) -> dict:
    """Load published-style gain tables: one GainGrid per preparation basis.

    Every value must be a finite number, gains and QBERs must lie in
    [0, 1] and uncertainties must be nonnegative; each basis the file
    names must have all of its intensity pairs.
    """
    n = len(INTENSITY_LABELS)
    data = {}
    for cell, values in _table_rows(path, GAIN_CSV_HEADER, _gain_values,
                                    "gain").items():
        _, i, j = _cell_index(*cell)
        data.setdefault(cell[0], np.zeros((4, n, n)))[:, i, j] = values
    grids = {}
    for basis, (q, q_sigma, e, e_sigma) in data.items():
        # Propagate independent gain and error-rate uncertainties.
        grids[basis] = GainGrid(q=q, q_sigma=q_sigma, eq=e * q,
                                eq_sigma=np.sqrt((e * q_sigma) ** 2
                                                 + (q * e_sigma) ** 2))
    return grids


def load_reference_half(meas_basis: str) -> tuple:
    """Bundled reference dataset for one measurement-basis half.

    Returns (grids, summary): per-preparation-basis GainGrids plus the
    reference summary values (single-photon yield bounds, phase-error
    bound, key rate, average misalignments) for the same half.
    """
    if meas_basis not in BASIS_LABELS:
        raise DecoyError(f"unknown measurement basis {meas_basis!r}")
    root = resources.files("mdiqkd_polcomp.data") / "tables"
    gains_name = f"published_gains_meas_{meas_basis.lower()}.csv"
    with resources.as_file(root / gains_name) as path:
        grids = read_gain_csv(path)
    summary = {}
    with (root / "published_summary.csv").open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if row and row[0] == meas_basis:
                summary[row[1]] = float(row[2])
    return grids, summary


# ---------------------------------------------------------------------------
# Forward model (oracle for synthetic instances and validity tests)
# ---------------------------------------------------------------------------

def _pair_weights(table: IntensityTable, n_max: int) -> np.ndarray:
    """Poisson weights of photon numbers n, m <= n_max per intensity pair.

    Element [i, j, n, m] is P(n | a_i) P(m | a_j) for intensities a in
    the order (mu, nu, omega).
    """
    pmf = np.array([[poisson_pmf(k, a) for k in range(n_max + 1)]
                    for a in table.intensities])
    return pmf[:, None, :, None] * pmf[None, :, None, :]


def forward_gains(yields: np.ndarray, error_rates: np.ndarray,
                  table: IntensityTable) -> GainGrid:
    """Exact gains implied by photon-number yields Y_nm and error rates e_nm.

    The yield matrix is truncated at its own size; callers supply enough
    photon-number terms for the Poisson tail at mu to be negligible.
    """
    yields = np.asarray(yields, dtype=float)
    error_rates = np.asarray(error_rates, dtype=float)
    if yields.shape != error_rates.shape:
        raise DecoyError("yields and error_rates must have matching shapes")
    if np.any(yields < 0) or np.any(yields > 1):
        raise DecoyError("yields must lie in [0, 1]")
    if np.any(error_rates < 0) or np.any(error_rates > 1):
        raise DecoyError("error rates must lie in [0, 1]")
    weights = _pair_weights(table, yields.shape[0] - 1)
    q = (weights * yields).sum(axis=(2, 3))
    eq = (weights * (yields * error_rates)).sum(axis=(2, 3))
    zero = np.zeros_like(q)
    return GainGrid(q=q, q_sigma=zero, eq=eq, eq_sigma=zero.copy())


# ---------------------------------------------------------------------------
# Analytic two-decoy bounds
# ---------------------------------------------------------------------------

def _two_decoy_combination(x: np.ndarray, sigma: np.ndarray,
                           table: IntensityTable, a_label: str,
                           shift: float) -> float:
    """e^{2a} X_aa - e^{a+w} (X_aw + X_wa) + e^{2w} X_ww, shifted.

    X is a grid of gains (giving H_a) or of error gains (giving W_a).
    A positive shift moves each entry by `shift` standard deviations in
    the direction that decreases the combination.
    """
    ia, iw = INTENSITY_LABELS.index(a_label), INTENSITY_LABELS.index("omega")
    a, omega = table.intensities[ia], table.omega
    return (math.exp(2 * a) * (x[ia, ia] - shift * sigma[ia, ia])
            - math.exp(a + omega) * ((x[ia, iw] + shift * sigma[ia, iw])
                                     + (x[iw, ia] + shift * sigma[iw, ia]))
            + math.exp(2 * omega) * (x[iw, iw] - shift * sigma[iw, iw]))


def analytic_y11_lower(grid: GainGrid, table: IntensityTable,
                       shift_sigmas: float = 0.0) -> float:
    """Closed-form lower bound on the two-single-photon yield Y_11."""
    mu, nu, omega = table.mu, table.nu, table.omega
    h_nu = _two_decoy_combination(grid.q, grid.q_sigma, table, "nu",
                                  shift_sigmas)
    # The mu-side combination enters negatively, so shift it the other way.
    h_mu = _two_decoy_combination(grid.q, grid.q_sigma, table, "mu",
                                  -shift_sigmas)
    denominator = mu ** 3 * (nu - omega) ** 2 - nu ** 3 * (mu - omega) ** 2
    if denominator <= 0:
        raise DecoyError("intensity settings leave the bound degenerate "
                         "(need mu^3 (nu-w)^2 > nu^3 (mu-w)^2)")
    return min(max((mu ** 3 * h_nu - nu ** 3 * h_mu) / denominator, 0.0), 1.0)


def analytic_e11_upper(grid: GainGrid, table: IntensityTable,
                       y11_lower: float, shift_sigmas: float = 0.0) -> float:
    """Closed-form upper bound on the two-single-photon error rate e_11."""
    if y11_lower <= 0.0:
        return 1.0
    # W_nu is an upper bound's numerator, so it is shifted upwards.
    w_nu = _two_decoy_combination(grid.eq, grid.eq_sigma, table, "nu",
                                  -shift_sigmas)
    return min(max(w_nu / ((table.nu - table.omega) ** 2 * y11_lower), 0.0),
               1.0)


# ---------------------------------------------------------------------------
# Linear-program bounds
# ---------------------------------------------------------------------------

def _lp_system(grid: GainGrid, table: IntensityTable, shift_sigmas: float):
    """Inequality system (A, b, row labels) of A x <= b over x = [Y, Z]."""
    size = _LP_YIELDS
    rows_a, rows_b, labels = [], [], []
    pair_weights = _pair_weights(table, N_CUT)
    for (i, label_a), (j, label_b) in product(enumerate(INTENSITY_LABELS),
                                              repeat=2):
        weights = pair_weights[i, j].ravel()
        tail = 1.0 - float(weights.sum())
        for kind, offset, observed, sigma in (
                ("gain", 0, grid.q[i, j], grid.q_sigma[i, j]),
                ("error-gain", size, grid.eq[i, j], grid.eq_sigma[i, j])):
            if observed == 0.0 and sigma == 0.0:
                # An exact zero with no stated uncertainty means the cell
                # fell below resolution; it cannot pin yields to zero.
                # Dropping the window only relaxes the bounds.
                continue
            coeff = np.zeros(2 * size)
            coeff[offset:offset + size] = weights
            slack = shift_sigmas * sigma + LP_FEASIBILITY_TOLERANCE
            rows_a += [coeff, -coeff]
            rows_b += [observed + slack, -(observed - slack - tail)]
            labels += [f"{kind} window {label_a}-{label_b} ({side} side)"
                       for side in ("upper", "lower")]
    # Error-weighted yields cannot exceed yields: Z_nm - Y_nm <= 0.
    eye = np.eye(size)
    a_ub = np.vstack([np.reshape(rows_a, (-1, 2 * size)),
                      np.hstack([-eye, eye])])
    b_ub = np.concatenate([rows_b, np.zeros(size)])
    labels += [f"error-weight bound index {k}" for k in range(size)]
    return a_ub, b_ub, labels


def _lp_diagnose(a_ub: np.ndarray, b_ub: np.ndarray, labels) -> str:
    """Name the constraint needing the largest relaxation for feasibility."""
    from scipy.optimize import linprog
    n_vars = a_ub.shape[1]
    n_rows = a_ub.shape[0]
    # Minimize total slack with one slack variable per inequality row.
    augmented = np.hstack([a_ub, -np.eye(n_rows)])
    cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    bounds = [(0, 1)] * n_vars + [(0, None)] * n_rows
    result = linprog(cost, A_ub=augmented, b_ub=b_ub, bounds=bounds,
                     method="highs")
    if not result.success:
        return "unknown (slack relaxation also failed)"
    slack = result.x[n_vars:]
    worst = int(np.argmax(slack))
    return f"{labels[worst]} violated by {slack[worst]:.3g}"


def _lp_extreme(system, index: int, maximize: bool) -> float:
    """Minimum (or maximum) of variable `index` over an _lp_system."""
    from scipy.optimize import linprog
    a_ub, b_ub, labels = system
    cost = np.zeros(a_ub.shape[1])
    cost[index] = -1.0 if maximize else 1.0
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * len(cost),
                     method="highs")
    if result.status == 2:
        raise DecoyError("decoy linear program infeasible; most violated "
                         "constraint: " + _lp_diagnose(a_ub, b_ub, labels))
    if not result.success:
        raise DecoyError(f"decoy linear program failed: {result.message}")
    value = -result.fun if maximize else result.fun
    return min(max(value, 0.0), 1.0)


def lp_bounds(grid: GainGrid, table: IntensityTable,
              shift_sigmas: float = 1.0) -> tuple:
    """(Y_11 lower, Z_11 upper) from the truncated Poisson system."""
    system = _lp_system(grid, table, shift_sigmas)
    return (_lp_extreme(system, _Y11, maximize=False),
            _lp_extreme(system, _LP_YIELDS + _Y11, maximize=True))


# ---------------------------------------------------------------------------
# Bound driver and key rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YieldBounds:
    """Single-photon-pair yield lower bounds and phase-error upper bound."""

    y11_lower: dict
    e11_upper: float
    meas_basis: str
    phase_basis: str
    method: str

    def __post_init__(self):
        for basis, value in self.y11_lower.items():
            if not 0.0 <= value <= 1.0:
                raise DecoyError(f"Y11 bound for {basis} outside [0, 1]")
        if not 0.0 <= self.e11_upper <= 1.0:
            raise DecoyError("e11 bound outside [0, 1]")


def bound_y11_e11(grids: dict, table: IntensityTable, meas_basis: str,
                  method: str = "analytic",
                  shift_sigmas: float | None = None) -> YieldBounds:
    """Bound Y_11 (per preparation basis) and the conjugate-basis e_11.

    The default statistical relaxation is 0 sigma for the closed-form
    mode (its algebra is already one-sided) and 1 sigma for the LP whose
    windows would otherwise be measure-zero on noisy tallies.
    """
    if meas_basis not in BASIS_LABELS:
        raise DecoyError(f"unknown measurement basis {meas_basis!r}")
    if method not in ("analytic", "lp"):
        raise DecoyError(f"unknown bound method {method!r}")
    phase_basis = CONJUGATE_BASIS[meas_basis]
    for basis in (meas_basis, phase_basis):
        if basis not in grids:
            raise DecoyError(f"missing gain grid for basis {basis!r}")
    if shift_sigmas is None:
        shift_sigmas = 0.0 if method == "analytic" else 1.0
    bases = (meas_basis, phase_basis)
    if method == "analytic":
        y11_lower = {basis: analytic_y11_lower(grids[basis], table,
                                               shift_sigmas)
                     for basis in bases}
        e11_upper = analytic_e11_upper(grids[phase_basis], table,
                                       y11_lower[phase_basis], shift_sigmas)
    else:
        # Three solves: both bases' Y_11 minima, the phase basis' Z_11
        # maximum.
        systems = {basis: _lp_system(grids[basis], table, shift_sigmas)
                   for basis in bases}
        y11_lower = {basis: _lp_extreme(systems[basis], _Y11, maximize=False)
                     for basis in bases}
        phase_y11 = y11_lower[phase_basis]
        z11_upper = _lp_extreme(systems[phase_basis], _LP_YIELDS + _Y11,
                                maximize=True)
        e11_upper = 1.0 if phase_y11 <= 0.0 else min(z11_upper / phase_y11, 1.0)
    return YieldBounds(y11_lower=y11_lower, e11_upper=e11_upper,
                       meas_basis=meas_basis, phase_basis=phase_basis,
                       method=method)


@dataclass(frozen=True)
class KeyRateReport:
    """Secure-rate evaluation with inputs echoed; rate clamps at zero."""

    rate: float
    raw_rate: float
    p11: float
    y11_lower: float
    e11_upper: float
    q_signal: float
    e_signal: float
    error_correction_efficiency: float


def key_rate(p11_value: float, y11_lower: float, e11_upper: float,
             q_signal: float, e_signal: float,
             f: float = DEFAULT_ERROR_CORRECTION_EFFICIENCY) -> KeyRateReport:
    """Single-photon positive term minus the error-correction cost."""
    for name, value, low, high in (
            ("p11", p11_value, 0.0, 1.0), ("y11_lower", y11_lower, 0.0, 1.0),
            ("e11_upper", e11_upper, 0.0, 1.0), ("q_signal", q_signal, 0.0, 1.0),
            ("e_signal", e_signal, 0.0, 1.0)):
        if not low <= value <= high:
            raise DecoyError(f"{name} must be in [{low}, {high}], got {value}")
    if not 1.0 <= f < math.inf:
        raise DecoyError(f"error-correction efficiency must be in [1, inf), got {f}")
    raw = (p11_value * y11_lower * (1.0 - h2(e11_upper))
           - q_signal * f * h2(e_signal))
    return KeyRateReport(rate=max(raw, 0.0), raw_rate=raw, p11=p11_value,
                         y11_lower=y11_lower, e11_upper=e11_upper,
                         q_signal=q_signal, e_signal=e_signal,
                         error_correction_efficiency=f)
