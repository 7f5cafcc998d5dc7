#!/usr/bin/env python3
"""Write a baseline file: every workload over several seeds, median and quartiles.

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-3 --out bench/BENCH_baseline.json

Runs ``bench/run.py`` one run at a time with ``run_seconds`` from
BENCHMARK.json: ``--trace 0`` for every seed and ``--trace 1`` for the trace
seeds, cycling over the workloads within each seed so that slow phases of a
shared machine spread evenly over them.  Each metric gets its median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are judged against.  The
file also records the composition reports, the Python version, the core
count and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: campaign ms per trial at seed 2024 with default widths, as first measured by hand
HAND_TIMED_MS = {"leq1": 2.18, "displacement": 2.96, "card": 1.50, "4ft": 2.36, "transport-lemma": 0.28, "te": 20.2}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed ops:\n{done.stderr}")
    mix = next((json.loads(line.partition(" ")[2]) for line in lines if line.startswith("composition ")), None)
    return result, mix


def summary(values: list[float], unit: str) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=seed_range("1-3"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    collected = {name: {"end_to_end": {}, "per_layer": {}, "composition": {}, "attempted": 0} for name in names}
    for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
        for seed in seeds:
            for name in names:
                result, mix = one_run(name, seed, seconds, trace)
                entry = collected[name]
                entry["attempted"] += result["attempted"]
                for metric, value in result["metrics"].items():
                    entry["end_to_end" if trace == 0 else "per_layer"].setdefault(metric, []).append(value)
                if mix is not None:
                    entry["composition"][str(seed)] = mix
                shown = {k: round(v["value"], 4) for k, v in result["metrics"].items() if trace == 0}
                print(f"{name} seed={seed} trace={trace} {shown}", flush=True)
    report = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "workloads": {},
    }
    for name, entry in collected.items():
        out = {"attempted_ops": entry["attempted"]}
        for kind in ("end_to_end", "per_layer"):
            out[kind] = {
                metric: summary([v["value"] for v in values], values[0]["unit"]) for metric, values in entry[kind].items()
            }
        out["composition"] = entry["composition"]
        report["workloads"][name] = out
        for metric, stats in out["end_to_end"].items():
            flag = "" if stats["spread"] <= bounds[metric] / 3 or metric == "setup_s" else "  <-- above a third of the bound"
            print(f"{name} {metric}: median {stats['median']:.5g} spread {stats['spread']:.3f}{flag}")
    trial_ms = {}
    for name, out in report["workloads"].items():
        for metric, stats in out["per_layer"].items():
            check = metric.removeprefix("campaign.trial_ms.")
            if check != metric and stats["median"] > 0:
                trial_ms[check] = {"workload": name, "bench_ms": stats["median"], "hand_timed_ms": HAND_TIMED_MS[check]}
    report["campaign_trial_ms"] = trial_ms
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
