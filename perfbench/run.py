#!/usr/bin/env python3
"""Benchmark driver for mdiqkd-polcomp: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload reference-4h --seed 1 \\
        --seconds 40 --trace 0

The driver imports the package from ``src/`` and runs the workload's
``simulate`` command through ``cli.main`` again and again, each time
with session seed ``seed * 1000 + k``, until ``--seconds`` after the
driver started (start-up, warm-up and setup timing included; at least
three samples).  Every sample's outputs are checked; a sample that
raises, exits non-zero or fails a check counts as failed.

``--trace 0`` times the samples untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced samples of the
same seed, requires their artifacts to be byte-equal, and reports the
per-layer metrics of ``tracing.PER_LAYER``.  ``--smoke`` runs the
workload at a size that takes a fraction of a second.  Setup and
session times are normalized for machine speed as ``speed.py``
describes.

Informational lines (environment, per-sample statistics, observations)
come first; the last line of standard output is the JSON result.
Artifacts go to a scratch directory under ``perfbench/.work`` that is
removed on exit.
"""

import os
import time

STARTED = time.perf_counter()  # --seconds bounds the whole run from here
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SEED_STRIDE = 1000
MIN_SAMPLES = 3
MAX_SAMPLES = SEED_STRIDE
SETUP_REPEATS = 5
SETUP_CODE = ("import mdiqkd_polcomp.cli\n"
              "from mdiqkd_polcomp.config import load_profile\n"
              f"load_profile({workloads.PROFILE!r})\n")
MODULES = ("cli", "compensation", "config", "decoy", "engine", "nodes",
           "polarization", "reporting", "session", "wire")

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (("setup_s", "s"), ("session_s", "s"), ("slots_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    """The package's modules, imported from this checkout's src/ only."""
    if not (SRC / "mdiqkd_polcomp" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib
    pkg = SimpleNamespace(**{name: importlib.import_module(
        f"mdiqkd_polcomp.{name}") for name in MODULES})
    origin = Path(pkg.cli.__file__).resolve().parent
    if origin != (SRC / "mdiqkd_polcomp").resolve():
        raise BenchError(f"imported the package from {origin}, not {SRC}")
    return pkg


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(timeline, failures: list) -> tuple:
    """Fresh-interpreter import of the CLI plus the profile load, timed.

    Returns (raw wall times, normalized times)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([path] if path else [])))
    walls, norms = [], []
    for _ in range(SETUP_REPEATS):
        cpu = speed.cpu_seconds()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        norms.append(timeline.normalize(walls[-1],
                                        speed.cpu_seconds() - cpu))
        if proc.returncode != 0:
            failures.append(f"setup exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
    return walls, norms


def _tree_bytes(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = handle.read()
    return out


def attempt(fn, *args):
    """Call fn; an exception becomes a failure instead of an abort."""
    try:
        return fn(*args), []
    except Exception as exc:  # noqa: BLE001 - a failed sample, reported
        traceback.print_exc(file=sys.stderr)
        return None, [f"{type(exc).__name__}: {exc}"]


class Bench:
    """Runs, checks and times the samples of one workload."""

    def __init__(self, pkg, workload, seed: int, scratch: str):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.reports: list = []
        self.observations: dict = {}
        profile = pkg.config.load_profile(workloads.PROFILE)
        self.period_s = profile.schedule.period
        self.rate_hz = workload.rep_rate_hz or profile.rep_rate_hz
        self._run_session = pkg.cli.run_session
        pkg.cli.run_session = self._capture

    def _capture(self, config):
        report = self._run_session(config)
        self.reports.append(report)
        return report

    def close(self) -> None:
        self.pkg.cli.run_session = self._run_session

    def _config_path(self, workload):
        """Generated INI for a workload that changes the slot rate."""
        if workload.rep_rate_hz is None:
            return None
        path = os.path.join(self.scratch, f"{workload.rep_rate_hz:g}.ini")
        if not os.path.exists(path):
            workloads.write_config(self.pkg, workload, path)
        return path

    def run(self, k: int, tracer=None, mode=None, workload=None) -> dict:
        """One sample: the workload command for session seed k, timed."""
        workload = workload or self.workload
        session_seed = self.seed * SEED_STRIDE + k
        out = tempfile.mkdtemp(prefix=f"s{k}-", dir=self.scratch)
        args = workloads.argv(workload, session_seed, out,
                              self._config_path(workload), mode)
        self.reports.clear()
        gc.collect()
        if tracer is not None:
            tracer.install(tracing.targets(self.pkg)
                           + ((self.pkg.cli, "main", tracing.ROOT, None),))
        cpu = speed.cpu_seconds()
        start = time.perf_counter()
        try:
            code, err = workloads.quiet_main(self.pkg, args)
        finally:
            wall = time.perf_counter() - start
            cpu = speed.cpu_seconds() - cpu
            if tracer is not None:
                tracer.uninstall()
        slots = sum(trace.n_slots for report in self.reports
                    for trace in report.windows)
        return {"k": k, "out": out, "wall": wall, "cpu": cpu, "code": code,
                "err": err,
                "slots": slots, "windows": sum(len(report.windows)
                                               for report in self.reports),
                "reports": list(self.reports)}

    def check(self, sample: dict) -> list:
        """Output checks of one untraced sample; records observations."""
        w, out = self.workload, sample["out"]
        if sample["code"] != 0:
            return [f"exit {sample['code']}: {sample['err']}"]
        failures, obs = workloads.check_session(
            self.pkg, w, out, sample["reports"], self.period_s, self.rate_hz)
        if w.mode == "networked":
            twin = self.run(sample["k"], mode="in-process")
            failures += workloads.check_twin(out, twin["out"])
            shutil.rmtree(twin["out"])
        if sample["k"] == 0:
            self.observations.update(workloads.lp_observations(self.pkg, out))
        for key, value in obs.items():
            self.observations.setdefault(key, []).append(value)
        return failures

    def sample(self, k: int, traced: bool) -> tuple:
        """(untraced sample, traced sample or None, failures)."""
        plain, failures = attempt(self.run, k)
        if plain is not None and not failures:
            found, failures = attempt(self.check, plain)
            failures = (found or []) + failures
        traced_sample = None
        if traced and plain is not None:
            tracer = tracing.Tracer()
            traced_sample, more = attempt(self.run, k, tracer)
            failures += more
            if traced_sample is not None:
                traced_sample["tracer"] = tracer
                if _tree_bytes(traced_sample["out"]) != _tree_bytes(
                        plain["out"]):
                    failures.append("traced artifacts differ from untraced")
                shutil.rmtree(traced_sample["out"])
        if plain is not None:
            shutil.rmtree(plain["out"])
        return plain, traced_sample, failures


def _median_max(values: list) -> str:
    return (f"median {statistics.median(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)}")


def measure(pkg, workload, seed: int, seconds: float, traced: bool) -> tuple:
    """Run the workload until `seconds` after start-up; returns
    (result, info lines)."""
    deadline = STARTED + seconds
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    bench = Bench(pkg, workload, seed, scratch)
    failures, samples, traced_samples, durations = [], [], [], []
    attempted = failed = 0
    try:
        # Warm-up: the smoke-size command fills lazy imports and caches.
        warm = bench.run(SEED_STRIDE - 1, workload=workload.smoke())
        shutil.rmtree(warm["out"])

        timeline = None if traced else speed.Timeline()
        if not traced:
            setup_walls, setup = measure_setup(timeline, failures)
        k = 0
        # A sample starts only if one more of median length ends in time.
        while k < MIN_SAMPLES or (
                k < MAX_SAMPLES and time.perf_counter()
                + statistics.median(durations) <= deadline):
            began = time.perf_counter()
            plain, traced_sample, sample_failures = bench.sample(k, traced)
            attempted += 1
            if sample_failures:
                failed += 1
                failures += [f"sample {k}: {f}" for f in sample_failures]
            if plain is not None and timeline is not None:
                plain["norm"] = timeline.normalize(plain["wall"], plain["cpu"])
            if plain is not None and plain["code"] == 0:
                samples.append(plain)
            if traced_sample is not None:
                traced_samples.append(traced_sample)
            if k == 0:
                # Peak RSS of one command; later samples only add
                # allocator fragmentation.  Children are the networked
                # user processes (and, untraced, the setup interpreters).
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
                children_rss_mb = resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            durations.append(time.perf_counter() - began)
            k += 1
    finally:
        bench.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if not samples or (traced and not traced_samples):
        raise BenchError("no sample completed: " + "; ".join(failures[:5]))

    walls = [s["wall"] for s in samples]
    info = [f"raw session_s: {_median_max(walls)}",
            "samples_s " + json.dumps([round(v, 4) for v in walls]),
            f"peak_rss_mb: parent {peak_rss_mb:.1f}, "
            f"children {children_rss_mb:.1f}"]
    if traced:
        metrics = trace_metrics(workload, samples, traced_samples,
                                children_rss_mb, failures)
    else:
        norms = [s["norm"] for s in samples]
        info += [f"session_s: {_median_max(norms)}",
                 f"raw setup_s: {_median_max(setup_walls)}",
                 f"setup_s: {_median_max(setup)}",
                 f"calibration kernel s: {_median_max(timeline.kernels)}"]
        metrics = {
            "setup_s": statistics.median(setup),
            "session_s": statistics.median(norms),
            "slots_per_s": statistics.median(s["slots"] / s["norm"]
                                             for s in samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        metrics = {name: {"value": metrics[name], "unit": units[name]}
                   for name, _unit in END_TO_END}
    info.append("observations " + json.dumps(
        summarize(bench.observations)))
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": max(failed, 1 if failures else 0),
              "metrics": metrics}
    return result, info


def summarize(observations: dict) -> dict:
    """Per-sample observations as median and range, plus the share of
    Z QBERs inside the criterion-4 band."""
    out = {}
    for key, value in observations.items():
        if not isinstance(value, list):
            out[key] = value
            continue
        flat = [v for v in value if v is not None]
        if flat:
            out[key] = {"median": statistics.median(flat), "min": min(flat),
                        "max": max(flat), "n": len(flat)}
        if key == "qber_z" and flat:
            low, high = workloads.QBER_BAND
            out["qber_z_in_criterion4_band"] = (
                f"{sum(low <= q <= high for q in flat)}/{len(flat)}")
    return out


def span_failures(tracer, wall: float) -> list:
    """Spans must nest: a span whose children overlap (calls from another
    thread, a wrapper that lost its place on the stack) has negative self
    time.  The layers' self times must fit in the wall time measured
    around the traced command."""
    own = tracer.own_times()
    failures = []
    worst = min(own, default=0.0)
    if worst < -1e-9:
        failures.append(f"a span has negative self time ({worst:.3g} s)")
    layers = sum(value for name, value in zip(tracer.names, own)
                 if name != tracing.ROOT)
    if layers > wall:
        failures.append(f"layer self times ({layers:.6g} s) exceed the "
                        f"traced wall time ({wall:.6g} s)")
    return failures


def trace_metrics(workload, samples, traced_samples, children_rss_mb,
                  failures) -> dict:
    """Median per-layer values over the traced samples."""
    networked = workload.mode == "networked"
    per_sample = []
    for sample in traced_samples:
        failures += [f"sample {sample['k']}: {failure}" for failure in
                     span_failures(sample["tracer"], sample["wall"])]
        per_sample.append(tracing.layer_metrics(
            sample["tracer"], sample["wall"], sample["windows"], networked,
            children_rss_mb))
    untraced = statistics.median(s["wall"] for s in samples)
    metrics = {}
    for name, unit, _better in tracing.PER_LAYER:
        if name == "trace.untraced_wall_s":
            value = untraced
        elif name == "trace.overhead_ratio":
            value = statistics.median(v["trace.wall_s"]
                                      for v in per_sample) / untraced
        else:
            value = statistics.median(v[name] for v in per_sample)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at its smoke size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    try:
        pkg = import_package()
        result, info = measure(pkg, workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("env " + json.dumps(environment()))
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
