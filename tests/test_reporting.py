"""Manifest, trace, and summary artifacts: schemas and recomputability."""

import configparser
import json
import math
import os
import re

import pytest

from mdiqkd_polcomp.config import parse_config_text
from mdiqkd_polcomp.reporting import (MANIFEST_NAME,
                                      MISALIGNMENT_CSV_HEADER,
                                      ReportingError, build_manifest,
                                      emit_traces, misalignment_rows,
                                      read_manifest, read_misalignment_csv,
                                      recompute_summary, summary_text,
                                      write_manifest, write_misalignment_csv)
from mdiqkd_polcomp.session import SessionConfig, run_session

SMALL = SessionConfig(duration_s=120.0, rep_rate_hz=1e5, seed=3,
                      initial_misalignment_a=0.1, initial_misalignment_b=0.1)


@pytest.fixture(scope="module")
def small_report():
    return run_session(SMALL)


@pytest.fixture()
def run_dir(tmp_path, small_report):
    write_manifest(build_manifest(SMALL), tmp_path / MANIFEST_NAME)
    emit_traces(small_report, tmp_path)
    return tmp_path


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    manifest = build_manifest(SMALL)
    path = tmp_path / MANIFEST_NAME
    write_manifest(manifest, path)
    assert read_manifest(path) == manifest


def test_manifest_pins_the_exact_config():
    manifest = build_manifest(SMALL)
    assert parse_config_text(manifest.config_ini) == SMALL
    assert manifest.seed == SMALL.seed
    assert manifest.virtual_start_s == 0.0
    assert manifest.virtual_stop_s == SMALL.duration_s


def test_manifest_lists_every_output():
    outputs = build_manifest(SMALL).outputs
    assert set(outputs.values()) == {
        "misalignment_alice.csv", "misalignment_bob.csv",
        "tallies_z.csv", "tallies_x.csv", "summary.txt"}


def test_manifest_json_is_deterministic():
    assert build_manifest(SMALL).to_json() == build_manifest(SMALL).to_json()


def test_manifest_read_errors(tmp_path):
    with pytest.raises(ReportingError, match="cannot read manifest"):
        read_manifest(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ReportingError, match="malformed manifest"):
        read_manifest(bad)
    # Missing field.
    partial = tmp_path / "partial.json"
    payload = json.loads(build_manifest(SMALL).to_json())
    del payload["seed"]
    partial.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ReportingError, match="missing field"):
        read_manifest(partial)
    # Unsupported format version.
    payload = json.loads(build_manifest(SMALL).to_json())
    payload["format"] = 99
    versioned = tmp_path / "versioned.json"
    versioned.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ReportingError, match="unsupported manifest format"):
        read_manifest(versioned)


# ---------------------------------------------------------------------------
# Misalignment traces
# ---------------------------------------------------------------------------

def test_misalignment_csv_round_trip(tmp_path):
    rows = [(0.0, 0.123456789012345, None, False),
            (15.0, None, 0.05, True),
            (30.0, 1e-9, None, False),
            (45.0, math.pi / 2, None, True),
            (60.0, None, 0.0, False)]
    path = tmp_path / "trace.csv"
    write_misalignment_csv(path, rows)
    assert read_misalignment_csv(path) == rows


def test_misalignment_csv_schema(run_dir):
    with open(run_dir / "misalignment_alice.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert tuple(header.split(",")) == MISALIGNMENT_CSV_HEADER


def test_one_row_per_window_and_alternating_bases(small_report, run_dir):
    rows = read_misalignment_csv(run_dir / "misalignment_alice.csv")
    assert len(rows) == len(small_report.windows)
    for row, trace in zip(rows, small_report.windows):
        assert row[0] == trace.t_start
        if trace.meas_basis == "Z":
            assert row[1] is not None and row[2] is None
        else:
            assert row[1] is None and row[2] is not None


@pytest.mark.parametrize("content, match", [
    ("wrong,header\n1,2\n", "bad misalignment CSV header"),
    ("time_s,theta_z_rad,theta_x_rad,triggered\n1.0,2.0\n",
     "bad misalignment CSV row"),
    ("time_s,theta_z_rad,theta_x_rad,triggered\nx,,0.1,0\n", "bad value"),
    # Cells that write_misalignment_csv never emits.
    *((f"time_s,theta_z_rad,theta_x_rad,triggered\n15.0,,0.05,1\n{row}\n",
       re.escape(f"row {row.split(',')}: {reason}"))
      for row, reason in (
          ("0.0,0.1,,7", "triggered '7' is not 0 or 1"),
          ("0.0,0.1,,-1", "triggered '-1' is not 0 or 1"),
          ("0.0,0.1,,true", "triggered 'true' is not 0 or 1"),
          ("0.0,nan,,0", "angle 'nan' is not in [0, pi/2]"),
          ("0.0,,inf,0", "angle 'inf' is not in [0, pi/2]"),
          ("0.0,-0.1,,0", "angle '-0.1' is not in [0, pi/2]"),
          ("0.0,,1.6,0", "angle '1.6' is not in [0, pi/2]"),
          ("nan,0.1,,0", "time_s 'nan' is not finite"),
          ("inf,0.1,,0", "time_s 'inf' is not finite"))),
])
def test_misalignment_csv_read_errors(tmp_path, content, match):
    path = tmp_path / "trace.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ReportingError, match=match) as info:
        read_misalignment_csv(path)
    assert str(path) in str(info.value)


def test_misalignment_read_missing_file(tmp_path):
    with pytest.raises(ReportingError, match="cannot read"):
        read_misalignment_csv(tmp_path / "absent.csv")


# ---------------------------------------------------------------------------
# Emission and the summary
# ---------------------------------------------------------------------------

def test_emit_traces_writes_all_artifacts(run_dir):
    for name in ("misalignment_alice.csv", "misalignment_bob.csv",
                 "tallies_z.csv", "tallies_x.csv", "summary.txt",
                 MANIFEST_NAME):
        assert (run_dir / name).is_file(), name


def test_emit_traces_surfaces_io_failures(small_report, tmp_path):
    target = tmp_path / "not-a-directory"
    target.write_text("file in the way", encoding="utf-8")
    with pytest.raises(ReportingError, match="cannot write"):
        emit_traces(small_report, target)


def test_summary_is_valid_ini_and_matches_the_report(small_report, run_dir):
    parser = configparser.ConfigParser()
    parser.read(run_dir / "summary.txt")
    assert parser["run"]["manifest"] == MANIFEST_NAME
    assert int(parser["run"]["n_windows"]) == len(small_report.windows)
    z_cell = small_report.tallies["Z"].cell("Z", "mu", "mu")
    assert int(parser["half_z"]["n_sifted"]) == z_cell.coincidences
    assert int(parser["half_z"]["n_errors"]) == z_cell.errors
    for user in ("alice", "bob"):
        for basis in ("Z", "X"):
            # Windows measure one basis each; a window without reference
            # counts carries no estimate.
            estimates = [trace.est_theta[user]
                         for trace in small_report.windows
                         if trace.meas_basis == basis
                         and trace.est_theta.get(user) is not None]
            assert estimates
            key = f"mean_theta_{basis.lower()}_rad"
            assert float(parser[user][key]) == sum(estimates) / len(estimates)
        assert int(parser[user]["n_triggered"]) == sum(
            bool(trace.triggered[user]) for trace in small_report.windows)


def test_summary_rates_match_the_report(small_report, run_dir):
    parser = configparser.ConfigParser()
    parser.read(run_dir / "summary.txt")
    for half in ("Z", "X"):
        rate = small_report.rates[half]
        text = parser[f"half_{half.lower()}"]["key_rate_bits_per_pulse"]
        if rate is None:
            assert text == "none"
        else:
            assert float(text) == rate.rate


def test_every_summary_number_recomputes_from_the_artifacts(run_dir):
    emitted = (run_dir / "summary.txt").read_text(encoding="utf-8")
    assert recompute_summary(run_dir) == emitted


@pytest.mark.parametrize("name, damage", [
    ("misalignment_bob.csv", lambda text: text.replace(",0\n", ",7\n", 1)),
    ("misalignment_alice.csv",
     lambda text: text.replace(",,", ",nan,", 1)),
    ("tallies_x.csv", lambda text: text + text.splitlines(True)[1]),
], ids=["trigger-flag", "nan-angle", "duplicated-tally-row"])
def test_recompute_summary_refuses_a_damaged_run_directory(run_dir, name,
                                                           damage):
    path = run_dir / name
    path.write_text(damage(path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    with pytest.raises(ReportingError, match=re.escape(str(path))):
        recompute_summary(run_dir)


def test_summary_bound_fields_are_plain_parseable_numbers():
    # Dense enough that the decoy bounds actually materialize; numpy
    # scalar reprs must not leak into the emitted text.
    report = run_session(SessionConfig(duration_s=300.0, rep_rate_hz=10e6,
                                       seed=5, initial_misalignment_a=0.05,
                                       initial_misalignment_b=0.05))
    text = summary_text(report)
    assert "np." not in text
    parser = configparser.ConfigParser()
    parser.read_string(text)
    materialized = 0
    for half in ("half_z", "half_x"):
        for key in ("y11_lower", "e11_upper", "key_rate_bits_per_pulse"):
            value = parser[half][key]
            if value != "none":
                float(value)
                materialized += 1
    assert materialized > 0


def test_empty_session_emits_well_formed_artifacts(tmp_path):
    config = SessionConfig(duration_s=0.0)
    report = run_session(config)
    write_manifest(build_manifest(config), tmp_path / MANIFEST_NAME)
    emit_traces(report, tmp_path)
    assert read_misalignment_csv(tmp_path / "misalignment_bob.csv") == []
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8")
    assert "n_windows = 0" in summary
    assert "key_rate_bits_per_pulse = none" in summary
    assert recompute_summary(tmp_path) == summary


def test_misalignment_rows_track_triggers(small_report):
    rows = misalignment_rows(small_report, "alice")
    triggered = [trace.triggered.get("alice")
                 for trace in small_report.windows]
    assert [row[3] for row in rows] == [bool(t) for t in triggered]


def test_summary_text_matches_emitted_file(small_report, run_dir):
    emitted = (run_dir / "summary.txt").read_text(encoding="utf-8")
    assert summary_text(small_report) == emitted


def test_identical_configs_emit_byte_identical_artifacts(tmp_path,
                                                         small_report):
    dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        os.makedirs(out)
        write_manifest(build_manifest(SMALL), out / MANIFEST_NAME)
        emit_traces(run_session(SMALL), out)
        dirs.append(out)
    for name in ("misalignment_alice.csv", "misalignment_bob.csv",
                 "tallies_z.csv", "tallies_x.csv", "summary.txt",
                 MANIFEST_NAME):
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, name
