"""Run manifests and simulation artifacts: traces, tally tables, summary.

A run directory contains:

- ``manifest.json``      — written before the simulation starts; pins the
  resolved config (as INI text), seed, code version, virtual time span,
  and the names of every other output.
- ``misalignment_<user>.csv`` — one row per window: ``time_s,
  theta_z_rad, theta_x_rad, triggered``.  Only the basis measured in
  that window carries a fresh estimate; the other cell is left empty,
  so column means reproduce the per-basis estimator averages exactly.
- ``tallies_<basis>.csv`` — raw per-cell counts for one
  measurement-basis half (``basis, intensity_A, intensity_B, sent,
  coincidences, errors``).
- ``summary.txt``        — INI-style digest of bounds, rates, QBER, and
  mean misalignment.

``ARTIFACT_NAMES`` maps artifact roles to file names.  One builder
writes ``summary.txt`` from (tallies, bounds, rates, misalignment rows):
``summary_text`` takes them from a session report, ``recompute_summary``
from the run directory alone, which is how the no-hidden-state property
is tested.  Per-user means and trigger counts come from the rows, and
every number is written by ``fmt``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from . import __version__
from .decoy import DecoyError, TallySet
from .session import USERS, SessionConfig, SessionReport, analyze_tallies
from .transmitter import BASIS_LABELS

__all__ = [
    "ReportingError",
    "RunManifest",
    "MANIFEST_NAME",
    "MISALIGNMENT_CSV_HEADER",
    "ARTIFACT_NAMES",
    "fmt",
    "half_section",
    "rate_line",
    "rated_values",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "misalignment_rows",
    "misalignment_digest",
    "write_misalignment_csv",
    "read_misalignment_csv",
    "emit_traces",
    "summary_text",
    "recompute_summary",
]

MANIFEST_NAME = "manifest.json"
MISALIGNMENT_CSV_HEADER = ("time_s", "theta_z_rad", "theta_x_rad",
                           "triggered")
# Artifact role -> file name inside the run directory, in writing order.
ARTIFACT_NAMES = {
    "misalignment_alice": "misalignment_alice.csv",
    "misalignment_bob": "misalignment_bob.csv",
    "tallies_z": "tallies_z.csv",
    "tallies_x": "tallies_x.csv",
    "summary": "summary.txt",
}
_MANIFEST_FORMAT = 1


class ReportingError(RuntimeError):
    """An artifact could not be written or read; the message names it."""


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written before a simulation starts.

    config_ini round-trips through the config parser to the exact
    SessionConfig the run used; outputs maps artifact roles to file
    names inside the run directory.
    """

    config_ini: str
    seed: int
    code_version: str
    virtual_start_s: float
    virtual_stop_s: float
    outputs: dict

    def to_json(self) -> str:
        payload = {
            "format": _MANIFEST_FORMAT,
            "config_ini": self.config_ini,
            "seed": self.seed,
            "code_version": self.code_version,
            "virtual_start_s": self.virtual_start_s,
            "virtual_stop_s": self.virtual_stop_s,
            "outputs": dict(sorted(self.outputs.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_manifest(config: SessionConfig) -> RunManifest:
    """Manifest for a run of `config`, listing the standard outputs."""
    from .config import config_to_ini

    return RunManifest(config_ini=config_to_ini(config), seed=config.seed,
                       code_version=__version__, virtual_start_s=0.0,
                       virtual_stop_s=config.duration_s,
                       outputs=dict(ARTIFACT_NAMES))


def write_manifest(manifest: RunManifest, path) -> None:
    _write_text(path, manifest.to_json())


def read_manifest(path) -> RunManifest:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReportingError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReportingError(f"malformed manifest {path}: {exc}") from exc
    try:
        if payload["format"] != _MANIFEST_FORMAT:
            raise ReportingError(f"unsupported manifest format "
                                 f"{payload['format']!r} in {path}")
        return RunManifest(
            config_ini=payload["config_ini"], seed=payload["seed"],
            code_version=payload["code_version"],
            virtual_start_s=payload["virtual_start_s"],
            virtual_stop_s=payload["virtual_stop_s"],
            outputs=dict(payload["outputs"]))
    except KeyError as exc:
        raise ReportingError(f"manifest {path} is missing field "
                             f"{exc}") from exc


# ---------------------------------------------------------------------------
# Per-window misalignment traces
# ---------------------------------------------------------------------------

def misalignment_rows(report: SessionReport, user: str) -> list:
    """(time_s, theta_z|None, theta_x|None, triggered) per window."""
    rows = []
    for trace in report.windows:
        est = trace.est_theta.get(user)
        theta_z = est if trace.meas_basis == "Z" else None
        theta_x = est if trace.meas_basis == "X" else None
        rows.append((trace.t_start, theta_z, theta_x,
                     bool(trace.triggered.get(user, False))))
    return rows


def write_misalignment_csv(path, rows) -> None:
    def cell(value):
        return "" if value is None else repr(float(value))

    lines = [",".join(MISALIGNMENT_CSV_HEADER)]
    for time_s, theta_z, theta_x, triggered in rows:
        lines.append(",".join([repr(float(time_s)), cell(theta_z),
                               cell(theta_x), str(int(triggered))]))
    _write_text(path, "\n".join(lines) + "\n")


def _trace_row(row: list) -> tuple:
    """One misalignment CSV row as write_misalignment_csv wrote it."""
    time_s = float(row[0])
    if not math.isfinite(time_s):
        raise ValueError(f"time_s {row[0]!r} is not finite")
    angles = []
    for text in row[1:3]:
        angle = float(text) if text else None
        if angle is not None and not 0.0 <= angle <= math.pi / 2:
            raise ValueError(f"angle {text!r} is not in [0, pi/2]")
        angles.append(angle)
    if row[3] not in ("0", "1"):
        raise ValueError(f"triggered {row[3]!r} is not 0 or 1")
    return (time_s, *angles, row[3] == "1")


def read_misalignment_csv(path) -> list:
    """Trace rows of write_misalignment_csv; anything else raises
    ReportingError naming the file and the row."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != MISALIGNMENT_CSV_HEADER:
                raise ReportingError(f"bad misalignment CSV header in "
                                     f"{path}: {header}")
            for row in filter(None, reader):
                if len(row) != len(MISALIGNMENT_CSV_HEADER):
                    raise ReportingError(f"bad misalignment CSV row in "
                                         f"{path}: {row}")
                try:
                    rows.append(_trace_row(row))
                except ValueError as exc:
                    raise ReportingError(f"bad value in {path} row "
                                         f"{row}: {exc}") from exc
    except OSError as exc:
        raise ReportingError(f"cannot read {path}: {exc}") from exc
    return rows


def misalignment_digest(rows) -> tuple:
    """({"Z": mean, "X": mean}, n_triggered) of one user's trace rows;
    a basis mean is None when no window carries an estimate for it."""
    means = {}
    for basis, column in (("Z", 1), ("X", 2)):
        values = [row[column] for row in rows if row[column] is not None]
        means[basis] = sum(values) / len(values) if values else None
    return means, sum(1 for row in rows if row[3])


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """A number as written in every text output: repr of a float, or none."""
    return "none" if value is None else repr(float(value))


def rated_values(half: str, bounds: dict, rates: dict) -> tuple:
    """(Y11 lower, e11 upper, key rate) of one half, None where absent."""
    half_bounds, half_rate = bounds.get(half), rates.get(half)
    rate = None if half_rate is None else half_rate.rate
    if half_bounds is None:
        return None, None, rate
    return half_bounds.y11_lower[half], half_bounds.e11_upper, rate


def half_section(half: str, y11_lower, e11_upper, rate, head=(),
                 tail=()) -> list:
    """One [half_<basis>] section: head, bound and rate lines, tail."""
    return [f"[half_{half.lower()}]", *head,
            f"y11_lower = {fmt(y11_lower)}",
            f"e11_upper = {fmt(e11_upper)}",
            rate_line(rate), *tail, ""]


def rate_line(rate) -> str:
    return f"key_rate_bits_per_pulse = {fmt(rate)}"


def _summary(tallies: dict, bounds: dict, rates: dict, rows: dict) -> str:
    """summary.txt from the tallies, their analysis and each user's rows."""
    n_windows = {len(user_rows) for user_rows in rows.values()}
    if len(n_windows) != 1:
        raise ReportingError("misalignment traces disagree on the window "
                             "count")
    lines = ["[run]",
             f"manifest = {MANIFEST_NAME}",
             f"n_windows = {n_windows.pop()}",
             ""]
    for half in BASIS_LABELS:
        cell = tallies[half].cell(half, "mu", "mu")
        qber = (cell.errors / cell.coincidences if cell.coincidences
                else None)
        lines += half_section(half, *rated_values(half, bounds, rates),
                              head=[f"n_sifted = {cell.coincidences}",
                                    f"n_errors = {cell.errors}",
                                    f"signal_qber = {fmt(qber)}"])
    for user in USERS:
        means, n_triggered = misalignment_digest(rows[user])
        lines += [f"[{user}]",
                  f"mean_theta_z_rad = {fmt(means['Z'])}",
                  f"mean_theta_x_rad = {fmt(means['X'])}",
                  f"n_triggered = {n_triggered}",
                  ""]
    return "\n".join(lines)


def summary_text(report: SessionReport) -> str:
    """Human-readable digest; every number re-derivable from the CSVs."""
    return _summary(report.tallies, report.bounds, report.rates,
                    {user: misalignment_rows(report, user)
                     for user in USERS})


def recompute_summary(run_dir) -> str:
    """Rebuild summary.txt byte-for-byte from the manifest and CSVs.

    Reads nothing else: tallies give counts, bounds, and rates (via the
    config pinned in the manifest); misalignment traces give the
    per-basis estimator means and trigger counts.
    """
    import os

    from .config import parse_config_text

    manifest = read_manifest(os.path.join(run_dir, MANIFEST_NAME))
    config = parse_config_text(manifest.config_ini, source="manifest")

    def path(role: str) -> str:
        return os.path.join(run_dir, manifest.outputs[role])

    tallies = {half: _read_tallies(path(f"tallies_{half.lower()}"))
               for half in BASIS_LABELS}
    bounds, rates = analyze_tallies(config, tallies)
    rows = {user: read_misalignment_csv(path(f"misalignment_{user}"))
            for user in USERS}
    return _summary(tallies, bounds, rates, rows)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit_traces(report: SessionReport, out_dir) -> dict:
    """Write misalignment traces, tally tables, and summary into out_dir.

    Returns {artifact role: path}.  The manifest is the caller's job
    (it must exist before the simulation, not after it).
    """
    import os

    paths = {role: os.path.join(out_dir, name)
             for role, name in ARTIFACT_NAMES.items()}
    for user in USERS:
        write_misalignment_csv(paths[f"misalignment_{user}"],
                               misalignment_rows(report, user))
    for half in BASIS_LABELS:
        path = paths[f"tallies_{half.lower()}"]
        try:
            report.tallies[half].write_csv(path)
        except OSError as exc:
            raise ReportingError(f"cannot write {path}: {exc}") from exc
    _write_text(paths["summary"], summary_text(report))
    return paths


def _read_tallies(path) -> TallySet:
    try:
        return TallySet.read_csv(path)
    except (OSError, DecoyError) as exc:
        raise ReportingError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ReportingError(f"cannot write {path}: {exc}") from exc
