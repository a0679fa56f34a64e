"""Command-line interface: subcommands, artifacts, and exit codes."""

import configparser
import importlib.metadata
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mdiqkd_polcomp import __version__
from mdiqkd_polcomp.calibrate import fit_efficiency
from mdiqkd_polcomp.cli import (EXIT_CONFIG, EXIT_INPUT, EXIT_OK,
                                EXIT_OUTPUT, EXIT_USAGE, build_parser, main)
from mdiqkd_polcomp.decoy import TallySet
from mdiqkd_polcomp.reporting import MANIFEST_NAME, read_manifest

SMALL_INI = """[session]
duration_s = 60
rep_rate_hz = 100000
seed = 9

[drift]
initial_misalignment_a = 0.1
initial_misalignment_b = 0.1
"""

ARTIFACTS = ("misalignment_alice.csv", "misalignment_bob.csv",
             "tallies_z.csv", "tallies_x.csv", "summary.txt")


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI, encoding="utf-8")
    return str(path)


def _parse_kv(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith(("#", "[")):
            key, _, value = line.partition("=")
            values.setdefault(key.strip(), value.strip())
    return values


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_reproduces_the_published_design_point(capsys):
    assert main(["plan", "--p", "0.0009", "--eps", "0.5", "--delta", "0.3",
                 "--rate", "1400"]) == EXIT_OK
    values = _parse_kv(capsys.readouterr().out)
    assert values["n_min"] == "21080"
    assert float(values["t_min_s"]) == pytest.approx(15.057, abs=0.001)


def test_plan_without_rate_reports_no_time(capsys, tmp_path):
    out = tmp_path / "plan"
    assert main(["plan", "--p", "0.0009", "--eps", "0.5", "--delta", "0.3",
                 "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert _parse_kv(printed)["t_min_s"] == "none"
    written = (out / "plan.txt").read_text(encoding="utf-8")
    assert written.strip() == printed.strip()


def test_plan_domain_errors_exit_with_config_code(capsys):
    assert main(["plan", "--p", "2.0", "--eps", "0.5",
                 "--delta", "0.3"]) == EXIT_CONFIG
    assert "p_hat" in capsys.readouterr().err


@pytest.mark.parametrize("argv, shown", [
    (["--eps", "1e-200"], "n_min is not finite"),
    (["--eps", "nan"], "epsilon must be in (0, inf)"),
    (["--eps", "inf"], "epsilon must be in (0, inf)"),
    (["--eps", "0.5", "--rate", "nan"], "rate must be in (0, inf)"),
    (["--eps", "0.5", "--rate", "inf"], "rate must be in (0, inf)"),
    (["--eps", "0.5", "--rate", "1e-305"], "t_min = n_min / rate is not"),
])
def test_plan_unusable_values_exit_with_config_code(capsys, tmp_path, argv,
                                                    shown):
    out = tmp_path / "plan"
    assert main(["plan", "--p", "0.0009", "--delta", "0.3", *argv,
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert shown in captured.err and captured.out == ""
    assert not out.exists()


def test_plan_missing_flag_is_a_usage_error(capsys):
    assert main(["plan", "--p", "0.0009", "--eps", "0.5"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_prints_a_pasteable_detector_section(capsys, tmp_path):
    out = tmp_path / "cal"
    assert main(["calibrate", "--out", str(out)]) == EXIT_OK
    values = _parse_kv(capsys.readouterr().out)
    assert float(values["efficiency"]) == pytest.approx(0.055515164,
                                                        abs=1e-8)
    assert float(values["dark_prob"]) == 2e-6
    parser = configparser.ConfigParser()
    parser.read(out / "detector.ini")
    assert float(parser["detector"]["efficiency"]) == pytest.approx(
        0.055515164, abs=1e-8)


def test_calibrate_unreachable_target_exits_with_config_code(capsys):
    assert main(["calibrate", "--target-gain", "0.9"]) == EXIT_CONFIG
    assert "reachable" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["356", "1e308", "inf", "nan"])
def test_calibrate_unusable_mu_exits_before_writing(capsys, tmp_path, mu):
    out = tmp_path / "cal"
    assert main(["calibrate", "--mu", mu, "--out", str(out)]) == EXIT_CONFIG
    assert "signal intensity mu must be" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_published_reproduces_the_reference_rates(capsys):
    assert main(["analyze", "--published"]) == EXIT_OK
    out = capsys.readouterr().out
    values = _parse_kv(out)
    rate_z = float(out.split("[half_z]")[1].split("[half_x]")[0]
                   .split("key_rate_bits_per_pulse = ")[1].splitlines()[0])
    rate_x = float(out.split("[half_x]")[1].split("[combined]")[0]
                   .split("key_rate_bits_per_pulse = ")[1].splitlines()[0])
    mean = float(values["mean_key_rate_bits_per_pulse"])
    assert rate_z == pytest.approx(5.94e-6, rel=0.05)
    assert rate_x == pytest.approx(8.96e-6, rel=0.05)
    assert mean == pytest.approx(7.45e-6, rel=0.05)


def test_analyze_tallies_matches_the_emitted_summary(tmp_path, small_config,
                                                     capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--config", small_config,
                 "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", "--config", small_config,
                 "--tallies-z", str(run / "tallies_z.csv"),
                 "--tallies-x", str(run / "tallies_x.csv")]) == EXIT_OK
    analysis = capsys.readouterr().out
    summary = (run / "summary.txt").read_text(encoding="utf-8")
    keys = ("y11_lower", "e11_upper", "key_rate_bits_per_pulse")

    def half_lines(text, half):
        section = text.split(f"[half_{half}]")[1].split("[")[0]
        return [line for line in section.splitlines()
                if line.split(" = ")[0] in keys]

    for half in ("z", "x"):
        wanted = half_lines(summary, half)
        assert len(wanted) == len(keys)
        assert half_lines(analysis, half) == wanted


def test_analyze_gain_tables_accepts_the_bundled_dataset(capsys):
    from importlib import resources

    root = resources.files("mdiqkd_polcomp.data") / "tables"
    with resources.as_file(root / "published_gains_meas_z.csv") as pz, \
            resources.as_file(root / "published_gains_meas_x.csv") as px:
        assert main(["analyze", "--gains-z", str(pz),
                     "--gains-x", str(px)]) == EXIT_OK
    values = _parse_kv(capsys.readouterr().out)
    assert 0.0 < float(values["y11_lower"]) < 1.0


def test_analyze_requires_exactly_one_input_mode(capsys):
    assert main(["analyze"]) == EXIT_USAGE
    assert main(["analyze", "--published",
                 "--tallies-z", "x.csv", "--tallies-x", "y.csv"]) == EXIT_USAGE
    assert main(["analyze", "--tallies-z", "only-one.csv"]) == EXIT_USAGE


def test_analyze_missing_input_file_exits_with_input_code(capsys):
    assert main(["analyze", "--tallies-z", "/absent/z.csv",
                 "--tallies-x", "/absent/x.csv"]) == EXIT_INPUT


def _published_gains_with(row: str) -> str:
    """The bundled Z-half gain table with its Z mu-nu row replaced."""
    from importlib import resources

    good = "Z,mu,nu,8.06e-6,0.13e-6,0.060,0.004"
    text = (resources.files("mdiqkd_polcomp.data") / "tables"
            / "published_gains_meas_z.csv").read_text(encoding="utf-8")
    assert good in text
    return text.replace(good, row)


# A complete tally table: every (basis, intensity pair) cell once.
_TALLIES = "basis,intensity_A,intensity_B,sent,coincidences,errors\n" \
    + "".join(f"{basis},{ia},{ib},100,10,1\n" for basis in "ZX"
              for ia in ("mu", "nu", "omega") for ib in ("mu", "nu", "omega"))


@pytest.mark.parametrize("kind, text, match", [
    ("tallies", "not,a,tally,table\n1,2,3,4\n", "header"),
    ("tallies", _TALLIES.replace("Z,nu,nu,100,10,1\n", ""),
     "missing tally CSV cell"),
    ("tallies", _TALLIES + "Z,nu,nu,100,10,1\n", "duplicated tally CSV cell"),
    ("gains", _published_gains_with(""), "missing gain CSV cell"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,0.060,0.004\n"
                                    "Z,mu,nu,8.06e-6,0.13e-6,0.060,0.004"),
     "duplicated gain CSV cell"),
    ("gains", _published_gains_with("Y,mu,nu,8.06e-6,0.13e-6,0.060,0.004"),
     "unknown basis 'Y'"),
    ("gains", _published_gains_with("Z,mu,zeta,8.06e-6,0.13e-6,0.060,0.004"),
     "unknown intensity pair"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,0.060"),
     "bad gain CSV row"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,0.060,0.004,1"),
     "bad gain CSV row"),
    ("gains", _published_gains_with("Z,mu,nu,bright,0.13e-6,0.060,0.004"),
     "could not convert"),
    ("gains", _published_gains_with("Z,mu,nu,nan,0.13e-6,0.060,0.004"),
     "non-finite"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,inf,0.004"),
     "non-finite"),
    ("gains", _published_gains_with("Z,mu,nu,1.5,0.13e-6,0.060,0.004"),
     "gain and qber must lie in [0, 1]"),
    ("gains", _published_gains_with("Z,mu,nu,-8.06e-6,0.13e-6,0.060,0.004"),
     "gain and qber must lie in [0, 1]"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,1.7,0.004"),
     "gain and qber must lie in [0, 1]"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,-0.13e-6,0.060,0.004"),
     "uncertainties must be nonnegative"),
    ("gains", _published_gains_with("Z,mu,nu,8.06e-6,0.13e-6,0.060,-0.004"),
     "uncertainties must be nonnegative"),
    ("tallies", _TALLIES.replace("Z,mu,mu,100,10,1\n",
                                 "Z,mu,mu,100,10,999\n"),
     "errors <= coincidences <= sent"),
    ("tallies", _TALLIES.replace("Z,mu,mu,100,10,1\n",
                                 "Z,mu,mu,100,101,1\n"),
     "errors <= coincidences <= sent"),
    ("tallies", _TALLIES.replace("Z,mu,mu,100,10,1\n",
                                 f"Z,mu,mu,{2 ** 63},10,1\n"),
     "out of int64 range"),
], ids=["tally-header", "tally-missing-cell", "tally-duplicated-cell",
        "gain-missing-cell", "gain-duplicated-cell", "gain-basis", "gain-intensity", "gain-short-row",
        "gain-long-row", "gain-non-numeric", "gain-nan", "gain-inf",
        "gain-above-one", "gain-negative", "gain-qber-above-one",
        "gain-negative-sigma", "gain-negative-qber-sigma",
        "tally-errors-above-coincidences",
        "tally-coincidences-above-sent", "tally-sent-out-of-range"])
def test_analyze_malformed_input_exits_with_input_code(tmp_path, capsys,
                                                       kind, text, match):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    assert main(["analyze", f"--{kind}-z", str(bad),
                 f"--{kind}-x", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert match in err
    assert f"{bad}:" in err  # the file, then the header or row


def test_analyze_writes_analysis_txt(tmp_path, capsys):
    out = tmp_path / "analysis"
    assert main(["analyze", "--published", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert (out / "analysis.txt").read_text(
        encoding="utf-8").strip() == printed.strip()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_zero_duration_emits_empty_artifacts(tmp_path, capsys):
    out = tmp_path / "empty"
    assert main(["simulate", "--duration", "0", "--out", str(out),
                 "--seed", "4"]) == EXIT_OK
    for name in ARTIFACTS + (MANIFEST_NAME,):
        assert (out / name).is_file(), name
    for half in ("z", "x"):
        tallies = TallySet.read_csv(out / f"tallies_{half}.csv")
        assert not tallies.counts.any()
    trace = (out / "misalignment_alice.csv").read_text(encoding="utf-8")
    assert trace.strip() == "time_s,theta_z_rad,theta_x_rad,triggered"


def test_simulate_writes_the_manifest_before_running(tmp_path, monkeypatch,
                                                     capsys):
    import mdiqkd_polcomp.cli as cli_module

    def explode(config):
        raise cli_module.SessionError("injected failure")

    monkeypatch.setattr(cli_module, "run_session", explode)
    out = tmp_path / "crashed"
    assert main(["simulate", "--duration", "0",
                 "--out", str(out)]) == EXIT_CONFIG
    manifest = read_manifest(out / MANIFEST_NAME)
    assert manifest.virtual_stop_s == 0.0
    assert not (out / "summary.txt").exists()


def test_simulate_same_seed_same_bytes(tmp_path, small_config, capsys):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["simulate", "--config", small_config,
                     "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for name in ARTIFACTS + (MANIFEST_NAME,):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_seed_override_changes_the_run(tmp_path, small_config,
                                                capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["simulate", "--config", small_config,
                 "--out", str(first)]) == EXIT_OK
    assert main(["simulate", "--config", small_config, "--seed", "10",
                 "--out", str(second)]) == EXIT_OK
    assert read_manifest(second / MANIFEST_NAME).seed == 10
    assert ((first / "tallies_z.csv").read_bytes()
            != (second / "tallies_z.csv").read_bytes())


def test_simulate_networked_mode_matches_in_process(tmp_path, small_config,
                                                    capsys):
    a = tmp_path / "inproc"
    b = tmp_path / "net"
    assert main(["simulate", "--config", small_config,
                 "--out", str(a)]) == EXIT_OK
    assert main(["simulate", "--config", small_config, "--mode", "networked",
                 "--out", str(b)]) == EXIT_OK
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_compensation_off_never_triggers(tmp_path, small_config,
                                                  capsys):
    out = tmp_path / "open-loop"
    assert main(["simulate", "--config", small_config, "--compensation",
                 "off", "--out", str(out)]) == EXIT_OK
    trace = (out / "misalignment_alice.csv").read_text(encoding="utf-8")
    assert all(line.endswith(",0") for line in trace.splitlines()[1:])


def test_simulate_bad_config_exits_with_config_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[session]\nmode = smoke-signals\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_simulate_window_too_large_to_count_exits_before_writing(tmp_path,
                                                                 capsys):
    big = tmp_path / "big.ini"
    big.write_text("[session]\nrep_rate_hz = 1e15\nduration_s = 15\n",
                   encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(big),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{big}:" in err and "2**53" in err
    assert not out.exists()


@pytest.mark.parametrize("duration", ["1e300", "inf"])
def test_simulate_too_many_windows_exits_before_writing(tmp_path, capsys,
                                                        duration):
    long = tmp_path / "long.ini"
    long.write_text(f"[session]\nduration_s = {duration}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(long),
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{long}:" in err and "MAX_WINDOWS" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, text, field", [
    (["--seed", "-1"], "", "seed"),
    ([], "[session]\nseed = -3\n", "seed"),
    ([], "[drift]\nrate_a = nan\n", "drift_rate_a"),
    ([], "[drift]\nrate_b = inf\n", "drift_rate_b"),
    ([], "[drift]\ninitial_misalignment_a = nan\n",
     "initial_misalignment_a"),
    ([], "[controller]\nalpha = nan\n", "alpha"),
    ([], "[controller]\nthreshold = nan\n", "threshold"),
    ([], "[controller]\nmax_step = inf\n", "max_step"),
    ([], "[controller]\nbest_tolerance = nan\n", "best_tolerance"),
    ([], "[intensities]\nmu = inf\n", "mu"),
    ([], "[intensities]\nmu = 356\n", "mu"),
    ([], "[intensities]\nmu = 1e200\n", "mu"),
    ([], "[session]\nerror_correction_efficiency = inf\n",
     "error_correction_efficiency"),
])
def test_simulate_unusable_value_exits_before_writing(tmp_path, capsys, argv,
                                                      text, field):
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(ini), "--duration", "30",
                 *argv, "--out", str(out)]) == EXIT_CONFIG
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, values", [("threshold", "nan"),
                                           ("alpha", "0.5,inf")])
def test_sweep_unusable_value_exits_before_writing(tmp_path, capsys, param,
                                                   values):
    out = tmp_path / "o"
    assert main(["sweep", "--param", param, "--values", values,
                 "--duration", "30", "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{param} must be finite" in captured.err
    assert "done" not in captured.out
    assert not out.exists()


def test_simulate_unwritable_out_exits_with_output_code(capsys):
    assert main(["simulate", "--duration", "0",
                 "--out", "/proc/no/such/place"]) == EXIT_OUTPUT


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_tabulates_each_value_and_user(tmp_path, small_config, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--param", "alpha", "--values", "0.3,0.55",
                 "--duration", "60", "--config", small_config,
                 "--out", str(out)]) == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        import csv as csv_module

        rows = list(csv_module.DictReader(fh))
    assert len(rows) == 4  # two values x two users
    assert {row["user"] for row in rows} == {"alice", "bob"}
    assert {row["value"] for row in rows} == {"0.3", "0.55"}
    assert all(row["param"] == "alpha" for row in rows)


def test_sweep_linspace_grid(tmp_path, small_config, capsys):
    out = tmp_path / "sweep2"
    assert main(["sweep", "--param", "threshold", "--start", "0.1",
                 "--stop", "0.2", "--num", "3", "--duration", "60",
                 "--config", small_config, "--out", str(out)]) == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        import csv as csv_module

        values = {row["value"] for row in csv_module.DictReader(fh)}
    assert values == {"0.1", "0.15000000000000002", "0.2"}


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "alpha", "--values", "0.3", "--start", "0.1"],
    ["sweep", "--param", "alpha", "--start", "0.1"],
    ["sweep", "--param", "alpha", "--start", "0.1", "--stop", "0.2",
     "--num", "1"],
    ["sweep", "--param", "alpha", "--values", "a,b"],
    ["sweep", "--param", "gamma", "--values", "0.3"],
    ["sweep", "--param", "alpha", "--values", ","],
])
def test_sweep_usage_errors(argv, capsys, tmp_path):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


# ---------------------------------------------------------------------------
# common flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "1", "--config", "c.ini", "--out", "d"],
    ["analyze", "--published", "--seed", "1", "--config", "c.ini",
     "--out", "d"],
    ["plan", "--p", "0.1", "--eps", "0.5", "--delta", "0.3",
     "--seed", "1", "--config", "c.ini", "--out", "d"],
    ["sweep", "--param", "alpha", "--values", "0.5", "--seed", "1",
     "--config", "c.ini", "--out", "d"],
    ["calibrate", "--seed", "1", "--config", "c.ini", "--out", "d"],
])
def test_every_subcommand_accepts_the_common_flags(argv):
    args = build_parser().parse_args(argv)
    assert args.seed == 1
    assert args.config == "c.ini"
    assert args.out == "d"


def test_calibrate_reads_defaults_from_the_config(capsys, tmp_path):
    ini = tmp_path / "alt.ini"
    ini.write_text(
        "[intensities]\nmu = 0.2\n\n[detector]\ndark_prob = 5e-6\n",
        encoding="utf-8")
    assert main(["calibrate", "--config", str(ini)]) == EXIT_OK
    values = _parse_kv(capsys.readouterr().out)
    expected = fit_efficiency(target_gain=3.0e-5, signal_intensity=0.2,
                              dark_prob=5e-6)
    assert float(values["efficiency"]) == pytest.approx(
        expected.detector.efficiency, rel=1e-9)


def test_plan_with_a_broken_config_exits_with_config_code(capsys, tmp_path):
    assert main(["plan", "--p", "0.0009", "--eps", "0.5", "--delta", "0.3",
                 "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["simulate", "--bogus"]) == EXIT_USAGE


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "mdiqkd-polcomp" in capsys.readouterr().out


SCRIPT_NAME = "mdiqkd-polcomp"
SCRIPT_TARGET = "mdiqkd_polcomp.cli:main"


def _source_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))


@pytest.mark.parametrize("module", ["mdiqkd_polcomp", "mdiqkd_polcomp.cli"])
def test_module_runs_the_command_line_from_a_checkout(module, tmp_path):
    done = subprocess.run([sys.executable, "-m", module, "--version"],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env(), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{SCRIPT_NAME} {__version__}"


def _declared_scripts() -> dict:
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]


def _installed_distribution():
    try:
        return importlib.metadata.distribution(SCRIPT_NAME)
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_is_installed(monkeypatch, capsys):
    # What an installer turns into the on-PATH script: the declared entry
    # point, loaded and run the way a generated wrapper runs it.
    scripts = _declared_scripts()
    assert scripts == {SCRIPT_NAME: SCRIPT_TARGET}
    entry = importlib.metadata.EntryPoint(
        SCRIPT_NAME, scripts[SCRIPT_NAME], group="console_scripts").load()
    assert entry is main

    monkeypatch.setattr(sys, "argv", [SCRIPT_NAME, "--version"])
    with pytest.raises(SystemExit) as exc:
        sys.exit(entry())
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.strip() == f"{SCRIPT_NAME} {__version__}"

    monkeypatch.setattr(sys, "argv", [SCRIPT_NAME])
    with pytest.raises(SystemExit) as exc:
        sys.exit(entry())
    assert exc.value.code == EXIT_USAGE


@pytest.mark.skipif(_installed_distribution() is None,
                    reason=f"the {SCRIPT_NAME} distribution is not installed")
def test_installed_console_script_is_on_path():
    dist = _installed_distribution()
    installed = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
    assert installed == _declared_scripts()

    script = shutil.which(SCRIPT_NAME)
    assert script is not None
    done = subprocess.run([script, "--version"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"{SCRIPT_NAME} {dist.version}"


COLD_START = """
import sys
import mdiqkd_polcomp.cli as cli
from mdiqkd_polcomp.config import load_profile
load_profile("reference-defaults")
out, ini = sys.argv[1], sys.argv[2]
runs = (["--duration", "60", "--out", out + "/aggregate"],
        ["--duration", "60", "--mode", "networked", "--out", out + "/net"],
        ["--config", ini, "--sampling", "per-slot", "--out", out + "/slots"])
for args in runs:
    code = cli.main(["simulate", "--seed", "4", *args])
    if code:
        sys.exit(f"simulate {args} exited {code}")
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_simulate_never_imports_scipy(tmp_path):
    # scipy is imported only by the LP, the calibration fit and the
    # large-argument Bessel branch; a reference simulate needs none, in
    # process, networked or per slot.
    ini = tmp_path / "per_slot.ini"
    ini.write_text("[session]\nduration_s = 60\nrep_rate_hz = 10000\n",
                   encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path), str(ini)],
        capture_output=True, text=True, timeout=300, env=_source_env(),
        cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
