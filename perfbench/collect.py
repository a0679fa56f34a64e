#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

Run from the repository root:

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once
per seed (seeds 1 to 10), then ``run.py --trace 1`` once, and prints,
per end-to-end metric, the median, the quartiles and the spread: the
interquartile distance as a share of the median, which must stay within
the metric's bound.  ``--out`` writes the numbers as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    args = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines
            if line.startswith(("env ", "observations ", "samples_s "))}
    info["lines"] = [line for line in lines[:-1]
                     if not line.startswith(("env ", "observations "))]
    return {"result": result, "wall_s": wall, "info": info,
            "stderr": proc.stderr.strip()}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    baseline = {"run_seconds": spec["run_seconds"], "seeds": seeds,
                "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in seeds]
        baseline.setdefault("env", json.loads(runs[0]["info"]["env"]))
        entry = {"run_wall_s": spread([r["wall_s"] for r in runs]),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "correct": all(r["result"]["correct"] for r in runs),
                 "observations": json.loads(runs[0]["info"]["observations"]),
                 "runs": [r["info"]["lines"] for r in runs],
                 "metrics": {}}
        print(f"{name}: {entry['attempted']} samples, {entry['failed']} "
              f"failed, run wall median {entry['run_wall_s']['median']:.1f} s")
        for metric, bound in bounds.items():
            stats = spread([r["result"]["metrics"][metric]["value"]
                            for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][metric]["unit"]
            entry["metrics"][metric] = stats
            ok = metric == "setup_s" or stats["spread"] <= bound / 3
            steady = steady and ok and entry["correct"]
            print(f"  {metric:12s} median {stats['median']:.6g} "
                  f"{stats['unit']}  q1 {stats['q1']:.6g}  q3 "
                  f"{stats['q3']:.6g}  spread {stats['spread']:.3f} "
                  f"(bound {bound}){'' if ok else '  TOO WIDE'}")
        traced = run_once(spec, name, seeds[0], 1)
        entry["per_layer"] = {
            metric: value["value"]
            for metric, value in traced["result"]["metrics"].items()}
        entry["trace_correct"] = traced["result"]["correct"]
        layer = entry["per_layer"]
        print(f"  traced: wall {layer['trace.wall_s']:.3f} s, untraced "
              f"{layer['trace.untraced_wall_s']:.3f} s, overhead ratio "
              f"{layer['trace.overhead_ratio']:.3f}, layer self sum "
              f"{layer['trace.layer_self_sum_s']:.3f} s")
        baseline["workloads"][name] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n",
                                  encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
