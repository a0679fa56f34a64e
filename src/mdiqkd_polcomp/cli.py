"""Command-line entry points.

Subcommands:

- ``simulate``  — run a full closed-loop session and write artifacts
  (manifest first, then traces, tallies, summary).
- ``analyze``   — turn tally/gain tables into single-photon bounds and
  a key rate; ``--published`` analyzes the bundled reference dataset.
- ``plan``      — Chernoff calculator: detections (and wait time) needed
  to certify a click probability to a relative precision.
- ``sweep``     — rerun short sessions over a grid of feedback-gain or
  trigger-threshold values and tabulate the closed-loop outcome.
- ``calibrate`` — fit the detector efficiency to a target signal gain.

Every subcommand accepts ``--seed``, ``--config``, and ``--out``; the
purely deterministic ones (analyze, plan, calibrate) take ``--seed``
for interface uniformity only.

Exit codes: 0 success; 2 usage errors; 3 invalid or unreadable
configuration (including bad parameter values); 4 output I/O failures;
5 invalid or unreadable input data; 6 a session that started failed
while running (a dead user process, a malformed frame, a node exception
or a privacy fault).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bsm import BsmError
from .calibrate import DEFAULT_TARGET_GAIN, CalibrationError, fit_efficiency
from .compensation import CompensationError, plan_collection
from .config import (ConfigError, DEFAULT_PROFILE, available_profiles,
                     load_profile, read_config_file)
from .decoy import (DecoyError, TallySet, bound_y11_e11, key_rate,
                    load_reference_half, p11, read_gain_csv)
from .reporting import (MANIFEST_NAME, ReportingError, build_manifest,
                        emit_traces, fmt, half_section, misalignment_digest,
                        misalignment_rows, rate_line, rated_values,
                        write_manifest)
from .session import (USERS, SessionError, SessionFailure, analyze_tallies,
                      run_session)
from .transmitter import BASIS_LABELS, TransmitterError

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_CONFIG", "EXIT_OUTPUT",
           "EXIT_INPUT", "EXIT_SESSION"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_OUTPUT = 4
EXIT_INPUT = 5
EXIT_SESSION = 6

_CONFIG_ERRORS = (ConfigError, SessionError, CompensationError, BsmError,
                  TransmitterError, CalibrationError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdiqkd-polcomp",
        description="Closed-loop polarization-compensated MDI-QKD "
                    "simulator and decoy-state analysis toolkit.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", metavar="FILE",
                       help="INI config file (overrides the profile)")
        p.add_argument("--profile", default=DEFAULT_PROFILE,
                       help="bundled config profile name "
                            f"(default: {DEFAULT_PROFILE})")

    sim = sub.add_parser("simulate",
                         help="run a session and write run artifacts")
    add_config_flags(sim)
    sim.add_argument("--out", metavar="DIR", default=".",
                     help="output directory (default: current directory)")
    sim.add_argument("--duration", type=float, metavar="SECONDS",
                     help="override session duration")
    sim.add_argument("--seed", type=int, help="override the session seed")
    sim.add_argument("--mode", choices=("in-process", "networked"),
                     help="override the transport mode")
    sim.add_argument("--sampling", choices=("aggregate", "per-slot"),
                     help="override the sampling backend")
    sim.add_argument("--compensation", choices=("on", "off"),
                     help="override the feedback loop switch")

    def add_seed_stub(p):
        p.add_argument("--seed", type=int,
                       help="accepted for interface uniformity; this "
                            "subcommand is deterministic")

    ana = sub.add_parser("analyze",
                         help="bounds and key rate from tables")
    add_config_flags(ana)
    add_seed_stub(ana)
    ana.add_argument("--out", metavar="DIR",
                     help="also write analysis.txt into DIR")
    ana.add_argument("--method", choices=("analytic", "lp"),
                     help="override the bound method")
    ana.add_argument("--published", action="store_true",
                     help="analyze the bundled published dataset")
    ana.add_argument("--tallies-z", metavar="CSV",
                     help="count table for the Z-measurement half")
    ana.add_argument("--tallies-x", metavar="CSV",
                     help="count table for the X-measurement half")
    ana.add_argument("--gains-z", metavar="CSV",
                     help="gain table for the Z-measurement half")
    ana.add_argument("--gains-x", metavar="CSV",
                     help="gain table for the X-measurement half")

    plan = sub.add_parser("plan",
                          help="Chernoff sample-size calculator")
    add_config_flags(plan)
    add_seed_stub(plan)
    plan.add_argument("--p", type=float, required=True, dest="p_hat",
                      help="estimated click probability per slot")
    plan.add_argument("--eps", type=float, required=True,
                      help="relative precision")
    plan.add_argument("--delta", type=float, required=True,
                      help="failure probability bound")
    plan.add_argument("--rate", type=float,
                      help="detection rate (counts per second)")
    plan.add_argument("--out", metavar="DIR",
                      help="also write plan.txt into DIR")

    swp = sub.add_parser("sweep",
                         help="closed-loop outcome over a parameter grid")
    add_config_flags(swp)
    swp.add_argument("--param", choices=("alpha", "threshold"),
                     required=True, help="controller parameter to sweep")
    swp.add_argument("--values", metavar="V1,V2,...",
                     help="comma-separated grid values")
    swp.add_argument("--start", type=float, help="grid start (with --stop)")
    swp.add_argument("--stop", type=float, help="grid stop (with --start)")
    swp.add_argument("--num", type=int, default=5,
                     help="grid size for --start/--stop (default: 5)")
    swp.add_argument("--duration", type=float, default=1800.0,
                     metavar="SECONDS",
                     help="session duration per grid point (default: 1800)")
    swp.add_argument("--seed", type=int, help="override the session seed")
    swp.add_argument("--out", metavar="DIR", default=".",
                     help="directory for sweep.csv (default: current)")

    cal = sub.add_parser("calibrate",
                         help="fit detector efficiency to a target gain")
    add_config_flags(cal)
    add_seed_stub(cal)
    cal.add_argument("--target-gain", type=float,
                     default=DEFAULT_TARGET_GAIN,
                     help="same-basis signal gain to match "
                          "(default: %(default)s)")
    cal.add_argument("--mu", type=float,
                     help="signal intensity (default: from config)")
    cal.add_argument("--dark", type=float,
                     help="dark-click probability per slot "
                          "(default: from config)")
    cal.add_argument("--out", metavar="DIR",
                     help="also write detector.ini into DIR")
    return parser


def _resolve_config(args):
    if getattr(args, "config", None):
        return read_config_file(args.config)
    return load_profile(getattr(args, "profile", DEFAULT_PROFILE))


def _ensure_out_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ReportingError(f"cannot create output directory {path}: "
                             f"{exc}") from exc


def _print_lines(lines, out_dir, name: str) -> None:
    """Print lines; with an output directory also write them to name."""
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out_dir:
        _ensure_out_dir(out_dir)
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ReportingError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    config = _resolve_config(args)
    overrides = {}
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.sampling is not None:
        overrides["sampling"] = args.sampling
    if args.compensation is not None:
        overrides["compensation_enabled"] = args.compensation == "on"
    if overrides:
        config = replace(config, **overrides)
    _ensure_out_dir(args.out)
    manifest = build_manifest(config)
    write_manifest(manifest, os.path.join(args.out, MANIFEST_NAME))
    report = run_session(config)
    paths = emit_traces(report, args.out)
    print(f"simulated {report.duration_s} s over {len(report.windows)} "
          f"windows (seed {report.seed}, {report.mode}, {report.sampling})")
    for half in BASIS_LABELS:
        *_, rate = rated_values(half, report.bounds, report.rates)
        print(f"half_{half.lower()}: {rate_line(rate)}")
    for user in USERS:
        means, _ = misalignment_digest(misalignment_rows(report, user))
        print(f"{user}: mean_theta_z_rad = {fmt(means['Z'])}, "
              f"mean_theta_x_rad = {fmt(means['X'])}")
    print(f"wrote {MANIFEST_NAME} and {len(paths)} artifacts to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _gain_half(config, half: str, method: str, grids: dict,
               published: dict | None = None) -> tuple:
    """(Y11 lower, e11 upper, key rate, tail lines) of one half's gains.

    The bounds are this package's own, and the rate takes its signal
    gain and QBER from the grid's mu-mu cell; a half with zero signal
    gain gets no rate.  With `published` summary values the half is
    rated on the published Y11 and e11 instead, and the tail lines
    report the published rate and the own bounds (known to be looser;
    see the decoy module).
    """
    own = bound_y11_e11(grids, config.table, half, method=method)
    y11_lower, e11_upper, tail = own.y11_lower[half], own.e11_upper, []
    if published is not None:
        y11_lower = published[f"y11_lower_{half.lower()}"]
        e11_upper = published["e11_upper"]
        tail = [f"published_key_rate_bits_per_pulse = "
                f"{fmt(published['key_rate'])}",
                f"own_y11_lower = {fmt(own.y11_lower[half])}",
                f"own_e11_upper = {fmt(own.e11_upper)}"]
    q_signal = float(grids[half].q[0, 0])
    rate = None
    if q_signal > 0.0:
        rate = key_rate(p11(config.table.mu), y11_lower, e11_upper, q_signal,
                        float(grids[half].eq[0, 0] / q_signal),
                        config.error_correction_efficiency).rate
    return y11_lower, e11_upper, rate, tail


def _read_input(reader, path):
    try:
        return reader(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


class _InputError(ValueError):
    pass


def _cmd_analyze(args, parser) -> int:
    modes = [bool(args.published),
             bool(args.tallies_z or args.tallies_x),
             bool(args.gains_z or args.gains_x)]
    if sum(modes) != 1:
        parser.error("choose exactly one input: --published, "
                     "--tallies-z/--tallies-x, or --gains-z/--gains-x")
    config = _resolve_config(args)
    if args.method is not None:
        config = replace(config, bound_method=args.method)
    method = config.bound_method
    lines = []
    if args.published:
        lines = ["# published_* values come from the bundled dataset;",
                 "# own_* bounds are recomputed from its gain tables.", ""]
        halves = [_gain_half(config, half, method, *load_reference_half(half))
                  for half in BASIS_LABELS]
    elif args.tallies_z or args.tallies_x:
        if not (args.tallies_z and args.tallies_x):
            parser.error("--tallies-z and --tallies-x are both required")
        tallies = {half: _read_input(TallySet.read_csv, path) for half, path
                   in zip(BASIS_LABELS, (args.tallies_z, args.tallies_x))}
        bounds, rates = analyze_tallies(config, tallies)
        halves = [(*rated_values(half, bounds, rates), [])
                  for half in BASIS_LABELS]
    else:
        if not (args.gains_z and args.gains_x):
            parser.error("--gains-z and --gains-x are both required")
        halves = [_gain_half(config, half, method,
                             _read_input(read_gain_csv, path))
                  for half, path in zip(BASIS_LABELS,
                                        (args.gains_z, args.gains_x))]
    for half, (y11_lower, e11_upper, rate, tail) in zip(BASIS_LABELS, halves):
        lines += half_section(half, y11_lower, e11_upper, rate, tail=tail)
    # [combined]: the mean of the halves' available rates.
    rates = [rate for _, _, rate, _ in halves if rate is not None]
    mean = sum(rates) / len(rates) if rates else None
    lines += ["[combined]", f"mean_key_rate_bits_per_pulse = {fmt(mean)}"]
    _print_lines(lines, args.out, "analysis.txt")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def _cmd_plan(args) -> int:
    # The planner's inputs all come from flags, but a supplied config is
    # still resolved so a broken --config fails here like everywhere else.
    _resolve_config(args)
    plan = plan_collection(args.p_hat, args.eps, args.delta, args.rate)
    lines = [f"n_min = {plan.n_min}",
             f"t_min_s = {fmt(plan.t_min)}",
             f"p_hat = {fmt(plan.p_hat)}",
             f"epsilon = {fmt(plan.epsilon)}",
             f"delta = {fmt(plan.delta)}",
             f"rate_cps = {fmt(plan.rate)}"]
    _print_lines(lines, args.out, "plan.txt")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_values(args, parser) -> list:
    if args.values:
        if args.start is not None or args.stop is not None:
            parser.error("--values and --start/--stop are exclusive")
        try:
            return [float(item) for item in args.values.split(",")]
        except ValueError:
            parser.error(f"--values must be comma-separated numbers, "
                         f"got {args.values!r}")
    if args.start is None or args.stop is None:
        parser.error("provide either --values or both --start and --stop")
    if args.num < 2:
        parser.error("--num must be at least 2")
    return [float(v) for v in np.linspace(args.start, args.stop, args.num)]


def _cmd_sweep(args, parser) -> int:
    values = _sweep_values(args, parser)
    base = _resolve_config(args)
    overrides = {"duration_s": args.duration}
    if args.seed is not None:
        overrides["seed"] = args.seed
    base = replace(base, **overrides)
    # Every grid point is validated before anything is run or written.
    configs = [replace(base, controller=replace(base.controller,
                                                **{args.param: value}))
               for value in values]
    _ensure_out_dir(args.out)
    rows = []
    for value, config in zip(values, configs):
        report = run_session(config)
        for user in USERS:
            true_means = report.mean_true_theta(user)
            est_means, n_triggered = misalignment_digest(
                misalignment_rows(report, user))
            z_cell = report.tallies["Z"].cell("Z", "mu", "mu")
            rows.append({
                "param": args.param,
                "value": repr(value),
                "user": user,
                "mean_true_theta_z_rad": fmt(true_means["Z"]),
                "mean_true_theta_x_rad": fmt(true_means["X"]),
                "mean_est_theta_z_rad": fmt(est_means["Z"]),
                "mean_est_theta_x_rad": fmt(est_means["X"]),
                "z_signal_qber": fmt(
                    z_cell.errors / z_cell.coincidences
                    if z_cell.coincidences else None),
                "n_triggered": n_triggered,
            })
        print(f"{args.param} = {value}: done")
    path = os.path.join(args.out, "sweep.csv")
    fieldnames = list(rows[0].keys()) if rows else ["param", "value", "user"]
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise ReportingError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _cmd_calibrate(args) -> int:
    config = _resolve_config(args)
    mu = args.mu if args.mu is not None else config.table.mu
    dark = args.dark if args.dark is not None else config.detector.dark_prob
    result = fit_efficiency(target_gain=args.target_gain,
                            signal_intensity=mu, dark_prob=dark)
    lines = ["[detector]",
             f"efficiency = {fmt(result.detector.efficiency)}",
             f"dark_prob = {fmt(result.detector.dark_prob)}",
             "",
             f"# achieved_gain = {fmt(result.achieved_gain)}",
             f"# target_gain = {fmt(result.target_gain)}",
             f"# signal_intensity = {fmt(result.signal_intensity)}"]
    _print_lines(lines, args.out, "detector.ini")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "analyze":
            return _cmd_analyze(args, parser)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit as exc:  # parser.error inside a handler
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except SessionFailure as exc:  # before its base class, SessionError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SESSION
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReportingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except (_InputError, DecoyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
