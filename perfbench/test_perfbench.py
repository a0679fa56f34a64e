"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Every workload runs at its smoke size, untraced and traced, with its
output checks; the result line must match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 3
    return result


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced(name):
    result = _result(_bench("--workload", name, "--seed", "3", "--seconds",
                            "0.5", "--trace", "0", "--smoke"))
    units = dict(run.END_TO_END)
    assert set(result["metrics"]) == set(units)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric]
        assert entry["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name):
    result = _result(_bench("--workload", name, "--seed", "3", "--seconds",
                            "0.5", "--trace", "1", "--smoke"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m[0] for m in tracing.PER_LAYER]
    assert 0 < metrics["trace.layer_self_sum_s"] <= metrics["trace.wall_s"]
    assert metrics["trace.spans"] > 0
    w = workloads.WORKLOADS[name]
    if w.sampling == "per-slot":
        assert metrics["bsm.class_probability_grid.calls"] == 0
        assert 0 < metrics["session.detected_per_slot"] < 1
    else:
        assert metrics["bsm.grid_evals"] > 0
        assert metrics["session.sample_window_slots.busy_s"] == 0
    if w.mode == "networked":
        assert metrics["nodes.transport_wait_s"] > 0
        assert metrics["nodes.UserNode.handle.busy_s"] == 0
        assert metrics["nodes.children_peak_rss_mb"] > 0
    else:
        assert metrics["nodes.transport_wait_s"] == 0


def test_tracer_passes_calls_through_and_restores():
    class Owner:
        def method(self, x, scale=2):
            return x * scale

    def plain(x):
        return x + 1

    module = type(sys)("module")
    module.plain = plain
    original_method = Owner.method
    tracer = tracing.Tracer()
    tracer.install(((module, "plain", "m.plain", None),
                    (Owner, "method", "m.Owner.method", None),
                    (module, "missing", "m.missing", None)))
    assert module.plain(1) == 2
    assert Owner().method(3, scale=3) == 9
    tracer.uninstall()
    assert module.plain is plain and Owner.method is original_method
    busy, calls = tracer.self_times()
    assert calls == {"m.plain": 1, "m.Owner.method": 1}


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    busy, calls = tracer.self_times()
    total = tracer.ends[0] - tracer.starts[0]
    assert calls == {"outer": 1, "inner": 2}
    assert busy["outer"] + busy["inner"] == pytest.approx(total)
    assert 0 <= busy["outer"] < total


def test_span_check_flags_overlap_and_overrun():
    tracer = tracing.Tracer()
    outer = tracer.wrap(tracing.ROOT, lambda: inner())
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer()
    wall = tracer.ends[0] - tracer.starts[0]
    assert run.span_failures(tracer, wall) == []
    assert len(run.span_failures(tracer, 0.0)) == 1
    # A second child overlapping the first, as a call from another
    # thread would record it, leaves the root a negative self time.
    tracer.names.append("inner")
    tracer.starts.append(tracer.starts[0])
    tracer.ends.append(tracer.ends[0])
    tracer.parents.append(0)
    assert [f for f in run.span_failures(tracer, wall)
            if "negative self time" in f]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", "reference-4h", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
