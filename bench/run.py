#!/usr/bin/env python3
"""discretepl benchmark: four seeded closed-loop workloads.

    python3 bench/run.py --workload midpoint --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload te --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload te --seed 1 --replay 17

One client on one thread runs ops back to back: the next op starts only after
the previous one has returned and been checked (a closed loop).  Each op is
timed end to end around its public-API calls; the benchmark's own input
building and checking happen outside that timer.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import deque
from fractions import Fraction
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
#: the calibration's time on the reference machine (2-core VM, Python 3.11) when it is quiet
CALIBRATION_NS = 500_000
#: the loop re-times the calibration this often; the speed factor is the median of the last few
CALIBRATION_EVERY_S = 0.05
CALIBRATION_WINDOW = 7
#: the oracle reports compared on each workload's runs (together they cover all six)
ORACLE_CHECKS = {
    "midpoint": ("leq1", "displacement", "card", "transport-lemma"),
    "te": ("te",),
    "ot-general": ("te",),
    "cube-limits": ("4ft",),
}


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path and insist the program comes from there."""
    if not (SRC / "discretepl" / "__init__.py").is_file():
        raise SystemExit(f"error: no discretepl sources at {SRC}; run the benchmark inside a checkout")
    sys.path.insert(0, str(SRC))
    import discretepl

    if SRC not in Path(discretepl.__file__).resolve().parents:
        raise SystemExit(f"error: discretepl was imported from {discretepl.__file__}, not {SRC}")


def calibrate() -> int:
    """ns taken by a fixed computation in the standard library alone.

    Rational arithmetic and dict updates, the program's own mix.  The program
    cannot change this time, so its ratio to CALIBRATION_NS measures how fast
    the shared machine runs Python at the moment.
    """
    start = time.perf_counter_ns()
    acc, counts = Fraction(0), {}
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i
    return time.perf_counter_ns() - start


class SpeedGauge:
    """Machine speed relative to the reference machine, from the latest calibrations."""

    def __init__(self):
        self.recent: deque[int] = deque((calibrate() for _ in range(CALIBRATION_WINDOW)), maxlen=CALIBRATION_WINDOW)
        self.factors = array("d")
        self.last = time.perf_counter()

    def factor(self) -> float:
        """CALIBRATION_NS / the median recent calibration; re-timed when the last one is stale."""
        if time.perf_counter() - self.last >= CALIBRATION_EVERY_S:
            self.recent.append(calibrate())
            self.last = time.perf_counter()
        factor = CALIBRATION_NS / statistics.median(self.recent)
        self.factors.append(factor)
        return factor


def attempt(op, failures: list, tracer=None, factor: float = 1.0) -> float:
    """Run and check one op; returns its time in ns times `factor`.

    An op fails when it raises, when its check finds the output wrong, or when
    the check itself raises on a malformed output; a failed op is appended to
    `failures` as (op, reason) and the loop goes on.
    """
    if tracer is not None:
        tracer.begin_op(op.index, factor)
    start = time.perf_counter_ns()
    try:
        output = op.call()
        reason = None
    except Exception as exc:  # an op that raises is a failed op
        output, reason = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.end_op()
    if reason is None:
        try:
            reason = op.check(output)
        except Exception as exc:  # a malformed output is a failed op too
            reason = f"output check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        failures.append((op, reason))
    return elapsed * factor


def setup(workload) -> tuple[int, list]:
    """Warm-up ops on fixed inputs (lazy imports such as scipy, first calls): (ops run, failures)."""
    ops, failures = workload.warmup(), []
    for op in ops:
        attempt(op, failures)
    return len(ops), failures


def probe_setup(workload_name: str, probes: int) -> list[tuple[float, float]]:
    """Per probe: (seconds from launching a fresh interpreter to its first op being ready, speed factor).

    The child times the calibration right after it is ready, so the factor
    describes the machine during that set-up.
    """
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            rest = child.stdout.read().split()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0 or len(rest) != 1:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append((elapsed, CALIBRATION_NS / int(rest[0])))
    return samples


def loop(workload, seed: int, seconds: float, max_ops: int | None, tracer=None):
    """Closed loop over ops 0, 1, ... until `seconds` pass or `max_ops` ops ran.

    Every op time is scaled to reference speed by the SpeedGauge factor taken
    when the op starts.  Returns (times, failures, traced, gauge): the
    untraced op times, the failed ops with their reasons, for a traced run
    (op, untraced ns, traced ns) per op, and the gauge.  An untraced run keeps
    no op objects, so its peak memory does not grow with the number of ops.
    In a traced run each op runs twice, in alternating order, so machine-speed
    drift stays out of the overhead ratio.
    """
    times, failures, traced = array("d"), [], []
    gauge = SpeedGauge()
    deadline = time.perf_counter() + seconds
    index = 0
    while index != max_ops and (max_ops is not None or time.perf_counter() < deadline):
        op = workload.op(seed, index)
        factor = gauge.factor()
        if tracer is None:
            times.append(attempt(op, failures, factor=factor))
            index += 1
            continue
        if index % 2 == 0:
            untraced_ns = attempt(op, failures, factor=factor)
        with tracer.installed():
            traced_ns = attempt(op, failures, tracer, factor)
        if index % 2 == 1:
            untraced_ns = attempt(op, failures, factor=factor)
        traced.append((op, untraced_ns, traced_ns))
        times.append(untraced_ns)
        index += 1
    return times, failures, traced, gauge


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def report_failures(workload_name: str, seed: int, failures) -> None:
    for op, reason in failures:
        print(
            f"FAILED workload={workload_name} seed={seed} op={op.index} kind={op.kind} digest={op.digest}: {reason}\n"
            f"  replay: python3 bench/run.py --workload {workload_name} --seed {seed} --replay {op.index}",
            file=sys.stderr,
        )


def run_oracle(workload_name: str) -> tuple[int, int]:
    results = oracle.verify(ORACLE_CHECKS[workload_name])
    for check, reason in results:
        if reason is not None:
            print(f"FAILED oracle check={check}: {reason}\n  replay: python3 bench/oracle.py", file=sys.stderr)
    return len(results), sum(1 for _, reason in results if reason is not None)


def end_to_end(times, failed: int, setups: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; every time is at reference speed (see SpeedGauge)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times_ms = sorted(elapsed / 1e6 for elapsed in times)
    return {
        "setup_s": (statistics.median(wall * factor for wall, factor in setups), "s"),
        "ops_per_s": ((len(times_ms) - failed) / (sum(times_ms) / 1e3), "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p99": (percentile(times_ms, 0.99), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def composition(traced, tracer) -> dict:
    """Share of ops and time by op kind, size quartiles and log-concave share."""
    total_ns = sum(untraced_ns for _, untraced_ns, _ in traced)
    kinds: dict[str, list[int]] = {}
    for op, untraced_ns, _ in traced:
        kinds.setdefault(op.kind, []).append(untraced_ns)
    sizes = [op.size if op.size is not None else tracer.op_sizes.get(op.index) for op, _, _ in traced]
    sizes = [s for s in sizes if s is not None]
    return {
        "ops": len(traced),
        "kinds": {
            kind: {"op_share": len(ts) / len(traced), "time_share": sum(ts) / total_ns} for kind, ts in sorted(kinds.items())
        },
        "size_quartiles": quartiles(sizes),
        "sized_ops": len(sizes),
        "log_concave_share": sum(1 for op, _, _ in traced if op.log_concave) / len(traced),
    }


def per_layer(traced, tracer) -> dict[str, tuple[float, str]]:
    ops = len(traced)
    metrics = {name: (value, "ms" if name.endswith("_ms") else "count") for name, value in tracer.per_op(ops).items()}
    for check in oracle.CHECKS:
        times = [untraced_ns / 1e6 for op, untraced_ns, _ in traced if op.kind == check]
        metrics[f"campaign.trial_ms.{check}"] = (statistics.fmean(times) if times else 0.0, "ms")
    untraced_ns = sum(t for _, t, _ in traced)
    traced_ns = sum(t for _, _, t in traced)
    metrics["op.self_ms"] = (tracer.self_ns["op"] / ops / 1e6, "ms")
    metrics["trace.op_ms"] = (tracer.op_ns / ops / 1e6, "ms")
    metrics["trace.overhead_frac"] = (traced_ns / untraced_ns - 1, "frac")
    return metrics


def measure(workload_name: str, seed: int, seconds: float, trace: bool, max_ops=None, probes=SETUP_PROBES) -> dict:
    """One benchmark run; prints readable lines and returns the result object."""
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    warm_ops, failures = setup(workload)
    if not trace:
        setups = probe_setup(workload_name, probes)
        times, loop_failures, _, gauge = loop(workload, seed, seconds, max_ops)
        metrics = end_to_end(times, len(loop_failures), setups)
        timed_ops = len(times)
    else:
        tracer = Tracer()
        times, loop_failures, traced, _ = loop(workload, seed, seconds, max_ops, tracer=tracer)
        metrics = per_layer(traced, tracer)
        print("composition " + json.dumps(composition(traced, tracer), sort_keys=True))
        tracer.write(OUT_DIR / f"trace-{workload_name}-seed{seed}.json")
        timed_ops = 2 * len(times)
    failures += loop_failures
    report_failures(workload_name, seed, failures)
    oracle_attempted, oracle_failed = run_oracle(workload_name)
    attempted = warm_ops + timed_ops + oracle_attempted
    failed = len(failures) + oracle_failed
    print(f"workload={workload_name} seed={seed} timed_ops={len(times)} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not trace:
        beyond = len(times) - math.ceil(0.99 * len(times))
        print(f"  op_ms_p99 from {len(times)} samples, {beyond} beyond it")
        print(f"  set-up probes, wall s: {' '.join(f'{wall:.4f}' for wall, _ in setups)}")
        print(f"  set-up probes, speed factor: {' '.join(f'{factor:.3f}' for _, factor in setups)}")
        factors = statistics.quantiles(gauge.factors, n=4) if len(gauge.factors) > 1 else gauge.factors * 3
        print(f"  loop speed factor quartiles: {' '.join(f'{f:.3f}' for f in factors)} (times above are wall x factor)")
        print(f"failed_frac = {failed / attempted:.6g} frac")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def replay(workload_name: str, seed: int, index: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    setup(workload)
    op = workload.op(seed, index)
    failures = []
    elapsed = attempt(op, failures)
    reason = failures[0][1] if failures else None
    print(f"workload={workload_name} seed={seed} op={index} kind={op.kind} digest={op.digest}")
    print(f"elapsed_ms={elapsed / 1e6:.3f} size={op.size} log_concave={op.log_concave}")
    print("OK" if reason is None else f"FAILED: {reason}")
    return 0 if reason is None else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("midpoint", "te", "ot-general", "cube-limits"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, metavar="INDEX", help="re-run one op of (workload, seed) and check it")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        from workloads import WORKLOADS

        setup(WORKLOADS[args.workload]())
        print("ready", flush=True)
        print(statistics.median(calibrate() for _ in range(CALIBRATION_WINDOW)))
        return 0
    if args.replay is not None:
        return replay(args.workload, args.seed, args.replay)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
