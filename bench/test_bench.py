"""The benchmark's own tests: smoke runs of every workload and planted faults.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from discretepl import campaign, transport  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, capsys):
    result = run.measure(workload, seed=1, seconds=0, trace=trace, max_ops=4, probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(metrics[f"{stem}_ms"] for stem in tracer.LAYERS) + metrics["op.self_ms"]
        assert layers == pytest.approx(metrics["trace.op_ms"], rel=1e-9)
        assert "composition " in capsys.readouterr().out
    else:
        assert "failed_frac = 0 frac" in capsys.readouterr().out


def test_tracer_restores_the_program():
    original = transport.ot_cost
    run.measure("ot-general", seed=2, seconds=0, trace=True, max_ops=2)
    assert transport.ot_cost is original and campaign.transport_entropy_check is transport.transport_entropy_check


def test_command_line_contract():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "midpoint", "--seed", "3", "--seconds", "0.3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "te", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_replay_reruns_one_op(capsys):
    op = workloads.WORKLOADS["ot-general"]().op(5, 3)
    assert run.replay("ot-general", 5, 3) == 0
    assert f"digest={op.digest}" in capsys.readouterr().out


def test_inputs_follow_the_seed():
    w = workloads.WORKLOADS["cube-limits"]()
    assert [w.op(7, i).digest for i in range(24)] == [w.op(7, i).digest for i in range(24)]
    assert [w.op(7, i).digest for i in range(24)] != [w.op(8, i).digest for i in range(24)]


# --- planted faults -------------------------------------------------------------


def leq1_report(p: str) -> dict:
    record = {"index": 0, "digest": "0", "passed": True, "values": {"P": p, "atoms": 3}, "witness": None}
    config = {"check": "leq1", "seed": 9, "trials": 1, "support_width": 40, "mass_resolution": 64}
    return {"config": config, "summary": {"passes": 1, "failures": 0, "extremes": {}}, "records": [record]}


def test_report_with_ratio_sum_above_one_fails():
    assert workloads.check_campaign_report("leq1", 9, leq1_report("1/2")) is None
    assert "P=3/2" in workloads.check_campaign_report("leq1", 9, leq1_report("3/2"))


def test_planted_ratio_sum_counts_as_failed_ops(monkeypatch, capsys):
    monkeypatch.setattr(campaign, "pair_ratio_sum", lambda pair: Fraction(3, 2))
    result = run.measure("midpoint", seed=1, seconds=0, trace=False, max_ops=8, probes=1)
    assert not result["correct"] and result["failed"] >= 2
    assert "failed_frac = 0 frac" not in capsys.readouterr().out


def ot_table_result():
    op = workloads.WORKLOADS["ot-general"]().op(4, 1)
    assert op.kind == "ot-table"
    result = op.call()
    assert op.check(result) is None
    return op, result


def test_wrong_ot_cost_fails_the_certificate():
    op, result = ot_table_result()
    wrong = dataclasses.replace(result, cost_exact=result.cost_exact + Fraction(1, 7))
    assert "reported cost" in op.check(wrong)


def test_infeasible_duals_fail_the_certificate():
    op, result = ot_table_result()
    u = result.dual_u
    shifted = dataclasses.replace(u, values=tuple(value + 0.5 for value in u.values))
    assert "infeasible duals" in op.check(dataclasses.replace(result, dual_u=shifted))


def test_planted_ot_fault_counts_as_failed_ops(monkeypatch):
    original = transport.ot_cost

    def off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, cost=result.cost + 1, cost_exact=result.cost_exact + 1)

    monkeypatch.setattr(transport, "ot_cost", off_by_one)
    result = run.measure("ot-general", seed=1, seconds=0, trace=False, max_ops=4, probes=1)
    assert not result["correct"] and result["failed"] >= 4


def test_digest_mismatch_is_a_failed_op(monkeypatch, tmp_path):
    recorded = oracle.load()
    recorded["checks"]["4ft"]["sha256"] = "0" * 64
    planted = tmp_path / "oracle.json"
    planted.write_text(json.dumps(recorded))
    monkeypatch.setattr(oracle, "ORACLE_FILE", planted)
    result = run.measure("cube-limits", seed=1, seconds=0, trace=False, max_ops=2, probes=1)
    assert not result["correct"] and result["failed"] == 1


def test_te_floats_compare_to_tolerance():
    expected_te = oracle.load()["checks"]["te"]
    text = oracle.campaign_output("te")
    assert oracle.mismatch("te", text, expected_te) is None
    doc = json.loads(text)
    doc["records"][0]["values"]["lhs"] += 1e-13
    assert oracle.mismatch("te", json.dumps(doc, sort_keys=True, indent=2), expected_te) is None
    doc["records"][0]["values"]["lhs"] += 1e-9
    assert "moved by" in oracle.mismatch("te", json.dumps(doc, sort_keys=True, indent=2), expected_te)
