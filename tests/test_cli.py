import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import discretepl
import oracles
from discretepl import campaign, cli, displacement, limits, transport
from discretepl.campaign import LOG_CONCAVE_FAMILIES, CampaignConfig, run_campaign
from discretepl.cli import main
from discretepl.errors import ConfigError, ParseError
from discretepl.fourfunctions import CubeFn
from discretepl.io import (
    emit_coupling,
    parse_cost_table_text,
    parse_cubefn_text,
    parse_pmf_text,
)
from discretepl.coupling import _from_cells, binary_lattice_couplings, monotone_coupling
from discretepl.measures import pmf, uniform_on

F = Fraction


def test_parse_pmf_basic():
    assert parse_pmf_text("0; 1/2 1/2\n") == uniform_on([0, 1])


def test_parse_pmf_normalization_error():
    with pytest.raises(ParseError) as err:
        parse_pmf_text("0; 1/2 1/3")
    assert "deficit" in str(err.value)


def test_parse_pmf_syntax_error():
    with pytest.raises(ParseError):
        parse_pmf_text("0; 1//2 1/2")


def test_parse_pmf_negative_mass_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_pmf_text("# header\n0; -1/2 3/2\n")
    assert err.value.line == 2
    assert "negative mass" in str(err.value)


def test_parse_pmf_missing_separator():
    with pytest.raises(ParseError):
        parse_pmf_text("1/2 1/2")


def test_parse_pmf_rejects_a_second_data_line():
    # a pmf file is one line: a second measure was once dropped without a word
    with pytest.raises(ParseError, match="line 3: a pmf file holds one measure on one line") as err:
        parse_pmf_text("0; 1/2 1/2\n# a comment and a blank line are not data\n7; 1\n\n")
    assert err.value.line == 3
    assert parse_pmf_text("# header\n\n0; 1/2 1/2\n# trailer\n") == uniform_on([0, 1])


def test_pmf_round_trip():
    nu = pmf(-3, [F(1, 6), F(0), F(1, 3), F(1, 2)])
    assert parse_pmf_text(str(nu)) == nu
    # the text of a parsed file is the canonical text
    text = "-3; 1/6 0 1/3 1/2"
    assert str(parse_pmf_text(text + "\n")) == text


def test_cubefn_round_trip():
    fn = CubeFn(2, (F(1), F(1, 2), F(3), F(2, 7)))
    assert parse_cubefn_text("".join(f"{v}\n" for v in fn.values), 2) == fn


def test_cubefn_accepts_floats():
    fn = parse_cubefn_text("1.5\n2\n", 1)
    assert fn.values == (1.5, F(2))


def test_cubefn_wrong_count():
    with pytest.raises(ParseError):
        parse_cubefn_text("1\n2\n3\n", 2)


def test_cost_table_parse():
    cost = parse_cost_table_text("0 0 0\n0 1 1/2\n1 0 1/2\n1 1 0\n")
    assert cost(0, 1) == F(1, 2)
    with pytest.raises(ConfigError):
        cost(2, 2)


def test_cost_table_rejects_a_repeated_pair():
    # the last of two entries for (0, 0) used to win, pricing it at 5
    with pytest.raises(ParseError, match=r"line 3: repeated pair \(0,0\)") as err:
        parse_cost_table_text("0 0 1\n0 1 2\n0 0 5\n")
    assert err.value.line == 3
    assert parse_cost_table_text("0 0 1\n0 1 2\n1 0 5\n")(1, 0) == 5


def test_emit_coupling_sorted():
    pi = monotone_coupling(uniform_on([0, 2]), uniform_on([0, 1]))
    text = emit_coupling(pi)
    assert text.splitlines() == sorted(text.splitlines())


def test_campaign_rejects_bad_config():
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, trials=0)
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, trials=5, mass_resolution=1)
    with pytest.raises(ConfigError):
        CampaignConfig(seed=1, trials=5, check="nope")


def test_campaign_deterministic_reports():
    cfg = CampaignConfig(seed=7, trials=25, check="displacement")
    first = run_campaign(cfg)
    second = run_campaign(cfg)
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    assert first.passes == 25


def test_campaign_streams_differ_across_seeds():
    a = run_campaign(CampaignConfig(seed=1, trials=5, check="leq1"))
    b = run_campaign(CampaignConfig(seed=2, trials=5, check="leq1"))
    assert a.to_json() != b.to_json()


def test_campaign_seed1_ten_trials_all_pass():
    report = run_campaign(CampaignConfig(seed=1, trials=10, check="leq1"))
    assert report.passes == 10 and report.failures == 0


@pytest.mark.parametrize("check", campaign.CHECKS)
def test_campaign_extremes_are_min_and_max_over_the_records(check):
    report = run_campaign(CampaignConfig(seed=11, trials=500, check=check))
    assert report.extremes == oracles.campaign_extremes(check, [record.values for record in report.records])


_PLANTED_P_AND_GAP = [{"P": "1/2", "gap": 0.25}, {"P": "3/4", "gap": 0.0}, {"P": "2/3", "gap": 0.5}, {"P": "3/4", "gap": 0.0}]


@pytest.mark.parametrize(
    "check, planted",
    [
        ("leq1", _PLANTED_P_AND_GAP),
        ("displacement", _PLANTED_P_AND_GAP),
        ("card", [{"max_card": 2}, {"max_card": 4}, {"max_card": 1}, {"max_card": 4}]),
        ("te", [{"lhs": 0.5, "rhs": 1.5}, {"lhs": 1.0, "rhs": 1.25}, {"lhs": 0.0, "rhs": 2.0}, {"lhs": 2.0, "rhs": 2.25}]),
    ],
)
def test_trial_extremes_keep_the_first_of_two_equal_values(check, planted):
    # each extreme value comes twice, first at index 1 and again at index 3
    outcomes, emitted = iter(planted), []
    extremes = campaign.run_trials(
        check, 0, len(planted), lambda *outcome: emitted.append(outcome), lambda rng: ((), True, next(outcomes), None)
    )
    assert [outcome[0] for outcome in emitted] == [0, 1, 2, 3]
    assert extremes == oracles.campaign_extremes(check, planted)
    assert {extreme["index"] for extreme in extremes.values()} == {1}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_check_displacement_json(tmp_path, capsys):
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/2 0 1/2\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1\n")
    code = main(["check-displacement", "--nu0", nu0, "--nu1", nu1, "--json", "--dump-coupling"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["P"] == "1/2"
    assert out["ok"] is True
    assert out["coupling"] == [[0, 1, "1/2"], [2, 1, "1/2"]]


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "0; 1/2 1/3\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1\n")
    assert main(["check-displacement", "--nu0", bad, "--nu1", nu1]) == 2


def test_cli_extra_pmf_line_and_repeated_cost_pair_exit_two(tmp_path, capsys):
    two_lines = _write(tmp_path, "two-lines.txt", "0; 1/2 1/2\n7; 1\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1\n")
    assert main(["check-displacement", "--nu0", two_lines, "--nu1", nu1]) == 2
    assert "line 2: a pmf file holds one measure on one line" in capsys.readouterr().err
    repeated = _write(tmp_path, "repeated.txt", "0 0 1\n0 0 5\n")
    point = _write(tmp_path, "point.txt", "0; 1\n")
    assert main(["transport-cost", "--cost-table", repeated, "--nu0", point, "--nu1", point]) == 2
    assert "line 2: repeated pair (0,0)" in capsys.readouterr().err


def test_cli_missing_file_exit_code(tmp_path):
    nu1 = _write(tmp_path, "nu1.txt", "1; 1\n")
    assert main(["check-displacement", "--nu0", str(tmp_path / "absent.txt"), "--nu1", nu1]) == 2


def test_cli_4ft_failing_hypothesis_exits_one(tmp_path, capsys):
    f = _write(tmp_path, "f.txt", "2\n0\n")
    one = _write(tmp_path, "one.txt", "1\n1\n")
    code = main(["check-4ft", "--dim", "1", "--f", f, "--g", f, "--h", one, "--k", one])
    assert code == 1


def test_cli_4ft_negative_value_exits_two(tmp_path, capsys):
    negative = _write(tmp_path, "neg.txt", "-1\n1\n")
    one = _write(tmp_path, "one.txt", "1\n1\n")
    code = main(["check-4ft", "--dim", "1", "--f", negative, "--g", one, "--h", one, "--k", one])
    assert code == 2
    assert "non-negative" in capsys.readouterr().err


def test_cli_4ft_additive_non_finite_value_exits_two(tmp_path, capsys):
    huge = _write(tmp_path, "huge.txt", "1e400\n0\n")
    zero = _write(tmp_path, "zero.txt", "0\n0\n")
    code = main(["check-4ft", "--dim", "1", "--additive", "--f", huge, "--g", zero, "--h", zero, "--k", zero])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_4ft_additive_extreme_exponents_exit_zero(tmp_path, capsys):
    zero = _write(tmp_path, "zero.txt", "0\n0\n")
    low = _write(tmp_path, "low.txt", "-2000\n-2000\n")
    high = _write(tmp_path, "high.txt", "2000\n2000\n")
    code = main(["check-4ft", "--dim", "1", "--additive", "--f", zero, "--g", zero, "--h", low, "--k", high, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hypothesis_ok"] is True and out["conclusion_ok"] is True


def test_cli_4ft_additive_exact_rational_tie_exits_zero(tmp_path, capsys):
    # 1/10 + 1/5 = 3/10 + 0 exactly, although the float sums are 0.30000000000000004 and 0.3
    args = []
    for name, value in zip("fghk", ("1/10", "1/5", "3/10", "0")):
        args += [f"--{name}", _write(tmp_path, f"{name}.txt", f"{value}\n{value}\n")]
    code = main(["check-4ft", "--dim", "1", "--additive", "--json", *args])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hypothesis_ok"] is True and out["witness"] is None


#: CPython 3.10.7 and later refuse int-str conversions longer than 4,300 digits by default
digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-str digit limit")


@digit_limit
def test_cli_campaign_reports_a_ratio_sum_past_the_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["campaign", "--check", "leq1", "--resolution", "1000000000", "--support-width", "2000", "--trials", "1"]
    assert main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    p_value = report["records"][0]["values"]["P"]
    assert len(p_value.partition("/")[2]) > 4300 and report["summary"]["extremes"]["max_P"]["P"] == p_value
    assert sys.get_int_max_str_digits() == limit  # restored


@digit_limit
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_4ft_reports_sums_past_the_int_digit_limit(tmp_path, capsys, json_flag):
    # coprime 2,501-digit denominators: (sum f)(sum g) has a 5,000-digit one
    f = _write(tmp_path, "f.txt", f"1/1{'0' * 2499}1\n1/1{'0' * 2499}3\n")
    one = _write(tmp_path, "one.txt", "1\n1\n")
    limit = sys.get_int_max_str_digits()
    assert main(["check-4ft", "--dim", "1", "--f", f, "--g", f, "--h", one, "--k", one, *json_flag]) == 0
    captured = capsys.readouterr()
    assert len(captured.out) > 10000 and captured.err == ""
    assert sys.get_int_max_str_digits() == limit  # restored


@digit_limit
def test_cli_input_tokens_past_the_int_digit_limit_still_exit_two(tmp_path, capsys):
    long_token = "1" + "0" * 4300
    one = _write(tmp_path, "one.txt", "1\n1\n")
    cube = _write(tmp_path, "cube.txt", f"{long_token}\n1\n")
    assert main(["check-4ft", "--dim", "1", "--f", cube, "--g", one, "--h", one, "--k", one]) == 2
    nu = _write(tmp_path, "nu.txt", f"0; {long_token}/{long_token}\n")
    assert main(["check-displacement", "--nu0", nu, "--nu1", one]) == 2
    assert capsys.readouterr().err.count("bad rational") == 2


@digit_limit
def test_cli_input_token_digit_limit_bounds_each_part(tmp_path, capsys):
    # a p/q token with two 3,000-digit parts is within the limit, although the token is longer
    part = "1" + "0" * 2999
    nu = _write(tmp_path, "nu.txt", f"0; {part}/{part}\n")
    assert main(["check-displacement", "--nu0", nu, "--nu1", nu]) == 0


def test_cli_4ft_dimension_is_bounded_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code = main(["check-4ft", "--dim", "13", "--f", missing, "--g", missing, "--h", missing, "--k", missing])
    assert code == 2
    assert "--dim must be in 1..12" in capsys.readouterr().err


def test_cli_check_displacement_json_is_byte_stable(tmp_path, capsys):
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/6 1/3 1/2\n")
    nu1 = _write(tmp_path, "nu1.txt", "2; 1/4 1/8 3/8 1/4\n")
    code = main(["check-displacement", "--nu0", nu0, "--nu1", nu1, "--json", "--dump-coupling"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "dd3aa2befd82e228bc06b9534bbc4cc031bab3302e7a554315df5eb63bfecb4e"


def test_cli_transport_cost_duals_json_is_byte_stable(tmp_path, capsys):
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/6 1/3 1/2\n")
    nu1 = _write(tmp_path, "nu1.txt", "2; 1/4 1/8 3/8 1/4\n")
    code = main(["transport-cost", "--mu-kind", "gaussian", "--nu0", nu0, "--nu1", nu1, "--duals", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "7d4468c4a0ef29b65b95c74087f3d00c178b129320966e522b80d5e25d306d33"


def test_cli_transport_cost_duals_json_under_a_pmf_that_is_not_log_concave_is_byte_stable(tmp_path, capsys):
    # a rational pmf reference gives float costs, which reach the solver through their common unit;
    # the reference is not log-concave, so the optimal plan is not the monotone one
    mu = _write(tmp_path, "mu.txt", "-3; 1/10 1/40 1/5 1/20 3/10 1/8 3/20 1/20\n")
    nu0 = _write(tmp_path, "nu0.txt", "-3; 1/6 0 1/3 1/2\n")
    nu1 = _write(tmp_path, "nu1.txt", "0; 1/4 1/8 3/8 0 1/4\n")
    code = main(["transport-cost", "--mu", mu, "--nu0", nu0, "--nu1", nu1, "--duals", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert [0, 4, "1/4"] in json.loads(out)["plan"]
    assert hashlib.sha256(out.encode()).hexdigest() == "8da0efbd93fef01430d2cbf1248e2c4795d89070892c1e45f03a8a075e41ec8e"


def test_cli_transport_cost_table_with_ties_is_byte_stable(tmp_path, capsys):
    # a cost with many ties, whose optimal plan holds the non-monotone atom (0, 4, 1/12):
    # the pin fixes the solver's tie-breaking, not only its optimal value
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/4 1/4 1/4 1/4\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1/6 1/3 1/6 1/3\n")
    table = "".join(f"{x} {y} {abs(x - y) // 2}\n" for x in range(4) for y in range(1, 5))
    cost = _write(tmp_path, "cost.txt", table)
    code = main(["transport-cost", "--cost-table", cost, "--nu0", nu0, "--nu1", nu1, "--duals", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert [0, 4, "1/12"] in json.loads(out)["plan"]
    assert hashlib.sha256(out.encode()).hexdigest() == "95c1c9a2c74d59951f1b72ce727337e03f39b97abc0d1e39d62a1df7caab191e"


def test_cli_transport_cost_table_without_a_cell_exits_two_without_a_line(tmp_path, capsys):
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/4 1/4 1/4 1/4\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1/6 1/3 1/6 1/3\n")
    cost = _write(tmp_path, "cost.txt", "0 1 0\n0 2 0\n0 3 1\n")
    assert main(["transport-cost", "--cost-table", cost, "--nu0", nu0, "--nu1", nu1]) == 2
    err = capsys.readouterr().err
    assert "cost table has no entry for (0,4)" in err and "line 0" not in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--demo", "gaussian"], "16172396477d12fe19053f408058682dfcc3be5780b9a188c18ea5c101f0939e"),
        (["--demo", "shifted-gaussian", "--n", "1024"], "a19ead98e384bf9f69df81bba0ed825a434bf1e3084815f92ceb75b9f4bca51a"),
        # odd and even n, each swept in many blocks of rows
        (["--demo", "shifted-gaussian", "--n", "4095,4096"], "c154e4c69e5e746ec001c56df43a5d3f176de139a303e201af16ddc30a7e657f"),
    ],
    ids=["gaussian", "shifted-gaussian-1024", "shifted-gaussian-4095-4096"],
)
def test_cli_limit_exp_pl_json_is_byte_stable(argv, digest, capsys):
    assert main(["limit-exp", "--kind", "pl", *argv, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--demo", "linear"], "db35ce4f43692515958d9f8414a0cde33e1a1888d3061772d608acaf1587a9af"),
        (["--demo", "quadratic", "--lambda", "4.0"], "210da200dda8382213d87b36aca99c45f8040cb9fc6508959ea32dd6ec76b5e3"),
        # binomial tails that underflow to 0.0, odd and even n, and the --n cap
        (["--demo", "quadratic", "--n", "3000,10000,16384"], "eb55bb63e9eaa655c7454b5d729e533eef8ffb4563b19008f49181b1adb6565c"),
        # a short walk beside long ones: every weight of n = 100 is nonzero
        (["--demo", "quadratic", "--n", "100,3000,10000,16384"], "e3d24794fab85dd886e0af93a3d9ac4133c339585f4c0e084dfe3ca4c9e063c6"),
    ],
    ids=["linear", "quadratic-lambda-4", "quadratic-3000-10000-16384", "quadratic-100-3000-10000-16384"],
)
def test_cli_limit_exp_clt_json_is_byte_stable(argv, digest, capsys):
    assert main(["limit-exp", "--kind", "clt", *argv, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        # a point mass beside n equal cells, up to the --n cap
        (["--demo", "dirac-uniform", "--n", "64,2048,16384"], "d4023c8f2c15af0fb959ce4ce2a86a463acd1a6edcdd625607cce542c9f0ba0b"),
        # at odd n every coupled x + y is odd, so nu- and nu+ are one cell apart
        (["--demo", "two-uniform", "--n", "3,1000,4095"], "f2010235e43565c81b20fc27b3f00f53ba236282ae645030d9a0e0a3c0ee67d8"),
    ],
    ids=["dirac-uniform-64-2048-16384", "two-uniform-3-1000-4095"],
)
def test_cli_limit_exp_disp_json_is_byte_stable(argv, digest, capsys):
    assert main(["limit-exp", "--kind", "disp", *argv, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: f(x)g(y) <= 1.5^2 except at x = 3, y = -3, grid indices 3072 and 1024 at n = 4096: the one
#: violating pair lies far past the first block of rows that the sweep compares
_LATE_WITNESS_PL_SPEC = {
    "F": "1 + (1 - 1000*fabs(x - 3) + fabs(1 - 1000*fabs(x - 3)))/2",
    "G": "1 + (1 - 1000*fabs(x + 3) + fabs(1 - 1000*fabs(x + 3)))/2",
    "H": "1.5",
    "K": "1.5",
}


def test_cli_limit_exp_pl_witness_in_a_late_block_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "spec.json", json.dumps(_LATE_WITNESS_PL_SPEC))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "4096"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid hypothesis fails at (i,j)=(3072, 1024) for n=4096\n"


def test_cli_check_te_json_is_byte_stable(capsys):
    # the check-te report is a user-facing contract: pinned from the exact SSP solver, which the
    # monotone plan's cost reproduces under this log-concave reference
    code = main(["check-te", "--mu-kind", "geometric", "--trials", "50", "--seed", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "577584e2ca197dd1fd9056803d7d3b2c08fb67f736777a9d2b24bdccf65834f9"


def test_cli_check_te_min_slack_is_the_min_over_the_replayed_trials(capsys):
    assert main(["check-te", "--mu-kind", "gaussian", "--trials", "300", "--seed", "4", "--width", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    mu, values = transport.gaussian_weights(12), []
    for index in range(300):
        rng = campaign.trial_rng(4, index)
        nu0 = campaign._pmf_in_window(rng, range(-12, 13), 64, 6)
        nu1 = campaign._pmf_in_window(rng, range(-12, 13), 64, 6)
        check = transport.transport_entropy_check(mu, nu0, nu1)
        values.append({"lhs": check.lhs, "rhs": check.rhs})
    assert doc["min_slack"] == oracles.campaign_extremes("te", values)["min_slack"]["slack"]


def test_cli_check_te_failure_replays_from_its_seed_and_index(monkeypatch, capsys):
    # a planted fault: the te verdict fails on its eighth call, which is trial 7
    calls = []

    def fail_trial_7(mu, nu0, nu1):
        calls.append((nu0, nu1))
        check = transport.transport_entropy_check(mu, nu0, nu1)
        return dataclasses.replace(check, holds=False) if len(calls) == 8 else check

    monkeypatch.setattr(campaign, "transport_entropy_check", fail_trial_7)
    assert main(["check-te", "--mu-kind", "geometric", "--trials", "12", "--seed", "5", "--json"]) == 1
    (failure,) = json.loads(capsys.readouterr().out)["failures"]
    assert failure["index"] == 7
    # trial 7 alone, from (seed, index): the two pmfs the te trial draws in the window [-12, 12] at the defaults
    rng = campaign.trial_rng(5, 7)
    nu0 = campaign._pmf_in_window(rng, range(-12, 13), 64, 8)
    nu1 = campaign._pmf_in_window(rng, range(-12, 13), 64, 8)
    assert (failure["nu0"], failure["nu1"]) == (str(nu0), str(nu1))
    check = transport.transport_entropy_check(transport.geometric_weights(12), nu0, nu1)
    assert (failure["lhs"], failure["rhs"]) == (check.lhs, check.rhs)


def test_cli_campaign_te_json_over_many_trials_is_byte_stable(capsys):
    # ten times the trials of the benchmark's oracle, at another seed: every reference family,
    # with wide and narrow supports, so each lhs and rhs float is pinned
    code = main(["campaign", "--check", "te", "--trials", "2000", "--seed", "7", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert {record["values"]["family"] for record in json.loads(out)["records"]} == set(LOG_CONCAVE_FAMILIES)
    assert hashlib.sha256(out.encode()).hexdigest() == "a25cb069dc1a0e3e3b20684b19e17a0704e92b4240640530735797e2316a41e9"


#: input files for the text-mode pins, by placeholder name
_TEXT_PIN_FILES = {
    "nu0": "0; 1/6 1/3 1/2\n",
    "nu1": "2; 1/4 1/8 3/8 1/4\n",
    "mu": "-2; 1/10 1/5 2/5 1/5 1/10\n",
    "f": "1/2\n1\n1/3\n2\n",
    "g": "1\n1/4\n1/2\n1\n",
    "h": "1\n1\n1\n2\n",
    "k": "1\n2\n2\n3\n",
    "bad": "2\n0\n",
    "one": "1\n1\n",
    "cost": "".join(f"{x} {y} {abs(x - y) // 2}\n" for x in range(3) for y in range(2, 6)),
}


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["check-displacement", "--nu0", "{nu0}", "--nu1", "{nu1}"], 0, "39a54f9996eb3629f7b0f4acd3f831d34f30f72e7e52dcf30f91b2d9c61734a8"),
        (["check-displacement", "--nu0", "{nu0}", "--nu1", "{nu1}", "--dump-coupling"], 0, "3e67974830c6f29217482cbbb861b4e72c4033f75aac34fe679c06613948e3e0"),
        (["check-4ft", "--dim", "2", "--f", "{f}", "--g", "{g}", "--h", "{h}", "--k", "{k}"], 0, "bbb2281bdb653f17643b62719f51c48870c54e94407ccfbc188d737b69bc18e0"),
        (["check-4ft", "--dim", "2", "--additive", "--f", "{f}", "--g", "{g}", "--h", "{h}", "--k", "{k}"], 0, "c909a8a19f75a2ae673955262bba718edad555ff5aa08e2229ded116fb4e146c"),
        (["check-4ft", "--dim", "1", "--f", "{bad}", "--g", "{bad}", "--h", "{one}", "--k", "{one}"], 1, "2d40514682ad553b7eec306495d6173cf8c27766a36000f807a979051b440f14"),
        (["transport-cost", "--mu-kind", "gaussian", "--nu0", "{nu0}", "--nu1", "{nu1}", "--duals"], 0, "57b47d75f727959ee3517f273d5eb0fc9b09ca9fc6625295e2e26064784bbe2c"),
        (["transport-cost", "--cost-table", "{cost}", "--nu0", "{nu0}", "--nu1", "{nu1}", "--duals"], 0, "78d53ee577e532adef7b1e45cdd655804522884cf74ab5c16aba259a89906c4a"),
        (["check-te", "--mu", "{mu}", "--trials", "20", "--seed", "3", "--width", "4"], 0, "2373fa034e34d0a367e812f2d168f1ce3f966c8e69a0b2f2bd4fe740be48cb26"),
        (["check-te", "--mu-kind", "geometric", "--trials", "50", "--seed", "1"], 0, "7521b8bd08f52f12fefe11c05ef071321e37ebdc35a89dcd58238d266b19636a"),
        (["limit-exp", "--kind", "pl", "--demo", "gaussian", "--n", "16,64"], 0, "e227fa09953379b7974b11f53277e3926fd36e1644a74776dd3715a024af5ab8"),
        (["limit-exp", "--kind", "clt", "--demo", "quadratic", "--n", "16,64", "--lambda", "2.0"], 0, "4909aaad824a73a064924b1515545a5a1089d67198d6d7435e31658be2c32a26"),
        (["limit-exp", "--kind", "disp", "--demo", "two-uniform", "--n", "8,32"], 0, "907d13525790b7b9a2ce904cfb91d264f15fe0ba1e6100f62ea7aa612aa68ea7"),
        (["campaign", "--check", "displacement", "--trials", "30", "--seed", "2"], 0, "5d0220249571551f8688903a1cf540f8d8b700e9793fff1f17dfc4d79137c837"),
        (["campaign", "--check", "te", "--trials", "30", "--seed", "2"], 0, "1f82b1b4fbbe7a658e312e9bb45fdbf536cd2df50ab369d4bcd4372b1cc1c7e8"),
    ],
    ids=[
        "displacement",
        "displacement-dump-coupling",
        "4ft",
        "4ft-additive",
        "4ft-failing-hypothesis",
        "transport-duals",
        "transport-cost-table",
        "te-mu-file",
        "te-mu-kind",
        "limit-pl",
        "limit-clt",
        "limit-disp",
        "campaign-displacement",
        "campaign-te",
    ],
)
def test_cli_text_output_is_byte_stable(tmp_path, capsys, argv, code, digest):
    paths = {name: _write(tmp_path, f"{name}.txt", text) for name, text in _TEXT_PIN_FILES.items()}
    assert main([arg.format(**paths) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_transport_cost_json(tmp_path, capsys):
    nu0 = _write(tmp_path, "nu0.txt", "0; 1/2 0 1/2\n")
    nu1 = _write(tmp_path, "nu1.txt", "1; 1\n")
    code = main(["transport-cost", "--mu-kind", "gaussian", "--K", "8", "--nu0", nu0, "--nu1", nu1, "--json", "--duals"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # both moves are between adjacent points, where the curvature cost vanishes
    assert out["cost"] == pytest.approx(0.0, abs=1e-12)
    assert out["dual_u"] is not None


def test_cli_campaign_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = main(["campaign", "--check", "card", "--trials", "10", "--seed", "3", "--csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("index,digest,passed")
    assert len(lines) == 11


def test_cli_limit_exp_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code = main(["limit-exp", "--kind", "disp", "--demo", "two-uniform", "--n", "8,16", "--csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].split(",")[0] == "n"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "fault",
    [{"ratio_sum": F(2), "log_ratio_sum": math.log(2)}, {"jensen_certificate": 1.0}],
    ids=["ratio-sum-above-one", "jensen-above-log-ratio-sum"],
)
def test_cli_limit_exp_disp_row_fails_on_its_ratio_sum_checks(monkeypatch, capsys, fault):
    # a planted fault: the gap still holds, so only the P and Jensen checks of the row can fail it
    exact = limits.displacement_gap
    monkeypatch.setattr(limits, "displacement_gap", lambda nu0, nu1: dataclasses.replace(exact(nu0, nu1), **fault))
    assert main(["limit-exp", "--kind", "disp", "--demo", "two-uniform", "--n", "8", "--json"]) == 1
    (row,) = json.loads(capsys.readouterr().out)
    assert row["gap"] >= 0 and row["holds"] is False


def test_cli_limit_exp_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"F": "exp(-x*x)", "G": "exp(-x*x)", "H": "exp(-x*x)", "K": "exp(-x*x)", "N": 4.0}))
    code = main(["limit-exp", "--kind", "pl", "--spec", str(spec), "--n", "16"])
    assert code == 0
    assert "ratio=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "expr, message",
    [
        ("().__class__.__base__.__subclasses__().__len__() * 0 + x", "unsupported term"),
        ("x.__class__.__name__", "unsupported term"),
        # constants are floats, so a power overflows instead of growing as an int
        ("10**400 / 10**399 + x", "fails at x"),
        ("-" * 5000 + "x", "too deeply nested"),
    ],
    ids=["python-internals", "attribute", "huge-power", "deep-nesting"],
)
def test_cli_limit_exp_bad_spec_exits_two(tmp_path, capsys, expr, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"F": expr, "G": "exp(-x*x)", "H": "exp(-x*x)", "K": "exp(-x*x)", "N": 4.0}))
    code = main(["limit-exp", "--kind", "pl", "--spec", str(spec), "--n", "16"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_limit_exp_spec_that_is_not_json_exits_two(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"F": ')
    assert main(["limit-exp", "--kind", "pl", "--spec", str(spec), "--n", "16"]) == 2
    assert "spec is not JSON" in capsys.readouterr().err


def test_cli_unknown_demo(capsys):
    assert main(["limit-exp", "--kind", "pl", "--demo", "nope", "--n", "8"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["limit-exp", "--kind", "pl", "--demo", "gaussian", "--n", "0"], "--n must list integers >= 1"),
        (["limit-exp", "--kind", "clt", "--demo", "linear", "--n", "0"], "--n must list integers >= 1"),
        (["check-te", "--mu-kind", "geometric", "--K", "-1"], "--K must be >= 0"),
        (["check-te", "--mu-kind", "geometric", "--width", "0"], "--width must be >= 1"),
        (["check-te", "--mu-kind", "geometric", "--resolution", "0"], "--resolution must be >= 1"),
        (["check-te", "--mu-kind", "geometric", "--trials", "-1", "--json"], "--trials must be >= 1"),
    ],
    ids=["pl-n", "clt-n", "te-K", "te-width", "te-resolution", "te-trials"],
)
def test_cli_numeric_option_below_its_bound_exits_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-te", "--mu-kind", "geometric", "--K", "100001"], "--K must be >= 0 and <= 100000"),
        (
            ["transport-cost", "--mu-kind", "geometric", "--K", "100001", "--nu0", "missing", "--nu1", "missing"],
            "--K must be >= 0 and <= 100000",
        ),
        (["check-te", "--mu-kind", "geometric", "--trials", "1000001"], "--trials must be >= 1 and <= 1000000"),
        (["campaign", "--trials", "1000001"], "trials must be >= 1 and <= 1000000"),
        (["campaign", "--support-width", "20001"], "support width must be >= 1 and <= 20000"),
        (["campaign", "--resolution", "1000000001"], "mass resolution must be >= 2 and <= 1000000000"),
        (["check-te", "--mu-kind", "geometric", "--resolution", "1000000001"], "--resolution must be >= 1 and <= 1000000000"),
        (["limit-exp", "--kind", "clt", "--demo", "linear", "--n", "8", "--lambda", "inf"], "--lambda must be > 0 and finite"),
    ],
    ids=[
        "te-K",
        "transport-K",
        "te-trials",
        "campaign-trials",
        "campaign-support-width",
        "campaign-resolution",
        "te-resolution",
        "clt-lambda",
    ],
)
def test_cli_numeric_option_above_its_bound_exits_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["check-displacement", "--nu0", "{dir}", "--nu1", "{dir}"],
        ["limit-exp", "--kind", "pl", "--spec", "{dir}", "--n", "8"],
        ["campaign", "--trials", "1", "--csv", "{dir}"],
        ["limit-exp", "--kind", "disp", "--n", "8", "--csv", "{dir}"],
        ["check-displacement", "--nu0", "{latin1}", "--nu1", "{latin1}"],
        ["check-displacement", "--nu0", "{pmf}", "--nu1", "{latin1}"],
        ["check-4ft", "--dim", "1", "--f", "{one}", "--g", "{one}", "--h", "{one}", "--k", "{latin1}"],
        ["transport-cost", "--cost-table", "{latin1}", "--nu0", "{pmf}", "--nu1", "{pmf}"],
        ["check-te", "--mu", "{latin1}"],
        ["limit-exp", "--kind", "pl", "--spec", "{latin1}", "--n", "8"],
        ["limit-exp", "--kind", "pl", "--spec", "{deep}", "--n", "8"],
    ],
    ids=[
        "directory-as-pmf",
        "directory-as-spec",
        "directory-as-campaign-csv",
        "directory-as-rows-csv",
        "not-utf8",
        "not-utf8-second-pmf",
        "not-utf8-cube",
        "not-utf8-cost-table",
        "not-utf8-reference",
        "not-utf8-spec",
        "deeply-nested-spec",
    ],
)
def test_cli_unreadable_path_exits_two(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("0; 1 # \xe9t\xe9\n".encode("latin-1"))
    paths = {
        "dir": tmp_path,
        "latin1": latin1,
        "deep": _write(tmp_path, "deep.json", "[" * 100000),
        "pmf": _write(tmp_path, "pmf.txt", "0; 1\n"),
        "one": _write(tmp_path, "one.txt", "1\n1\n"),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    bad = next(paths[name] for name in ("dir", "latin1", "deep") if f"{{{name}}}" in argv)
    assert err.startswith("error: ") and "internal error" not in err and str(bad) in err


@pytest.mark.parametrize(
    "argv, planted",
    [
        (["campaign", "--trials", "1000000", "--csv", "{dir}"], "run_campaign"),
        (["limit-exp", "--kind", "disp", "--n", "8", "--csv", "{dir}"], "rescaled_displacement_experiment"),
        (["campaign", "--trials", "1", "--csv", "{dir}/missing/out.csv"], "run_campaign"),
    ],
    ids=["campaign-directory", "rows-directory", "campaign-missing-folder"],
)
def test_cli_unwritable_csv_exits_two_before_any_work(tmp_path, capsys, monkeypatch, argv, planted):
    monkeypatch.setattr(cli, planted, lambda *args, **kwargs: pytest.fail(f"{planted} ran before --csv was opened"))
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cli_bad_campaign_option_opens_no_csv(tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    assert main(["campaign", "--trials", "0", "--csv", str(out_csv)]) == 2
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out_csv.exists()


def test_cli_limit_exp_n_is_bounded_before_any_file_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["limit-exp", "--kind", "pl", "--n", "16385", "--spec", missing]) == 2
    assert "--n must list integers >= 1 and <= 16384" in capsys.readouterr().err


def test_cli_internal_error_exits_three(monkeypatch, capsys):
    def planted(cfg):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(cli, "run_campaign", planted)
    assert main(["campaign", "--check", "leq1", "--trials", "1"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError('planted fault')\n"


_PL_SPEC = {"F": "exp(-x*x)", "G": "exp(-x*x)", "H": "exp(-x*x)", "K": "exp(-x*x)", "N": 4.0}
_CLT_SPEC = {"f": "x", "g": "x", "h": "-x*x"}


@pytest.mark.parametrize(
    "kind, spec, message",
    [
        ("pl", {key: value for key, value in _PL_SPEC.items() if key != "K"}, "under key 'K'"),
        ("pl", [1], "spec must be a JSON object"),
        ("pl", {**_PL_SPEC, "N": [1]}, "N must be a number"),
        ("pl", {**_PL_SPEC, "N": 0}, "spec N must be finite and > 0"),
        ("pl", {**_PL_SPEC, "N": -3}, "spec N must be finite and > 0"),
        ("pl", {**_PL_SPEC, "N": 1e400}, "spec N must be finite and > 0"),
        # N sets the pl window only; a clt spec that gives it would have it ignored
        ("clt", {**_CLT_SPEC, "N": 3}, "spec key 'N' takes no effect for --kind clt (keys: f, g, h)"),
        ("pl", {**_PL_SPEC, "k": "1"}, "spec key 'k' takes no effect for --kind pl (keys: F, G, H, K, N)"),
    ],
    ids=[
        "missing-key",
        "not-an-object",
        "N-not-a-number",
        "N-zero",
        "N-negative",
        "N-infinite",
        "clt-N",
        "pl-unknown-key",
    ],
)
def test_cli_limit_exp_malformed_spec_exits_two(tmp_path, capsys, kind, spec, message):
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["limit-exp", "--kind", kind, "--spec", path, "--n", "16"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "internal error" not in captured.err


@pytest.mark.parametrize(
    "kind, spec, message",
    [
        ("pl", {"F": "1", "G": "1", "H": "0.5", "K": "0.5"}, "grid hypothesis fails at (i,j)=(0, 0) for n=8"),
        ("clt", _CLT_SPEC, "h is not convex on the grid at k=1"),
    ],
    ids=["pl", "clt-concave-h"],
)
def test_cli_limit_exp_failed_hypothesis_exits_one(tmp_path, capsys, kind, spec, message):
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["limit-exp", "--kind", kind, "--spec", path, "--n", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err and captured.out == ""


#: +inf within 0.001 of x = -6, the first pl grid point, and 0 elsewhere; quadrature never samples it
_SPIKE = "1e300*(1e300*(0.001 - fabs(x+6) + fabs(0.001 - fabs(x+6))))"
#: the same spike at x = -5.25, half a step right of x_0 = -6 for N = 6 and n = 8
_HALF_STEP_SPIKE = _SPIKE.replace("x+6", "x+5.25")


@pytest.mark.parametrize(
    "kind, spec, message",
    [
        # inf - inf: F is NaN at x_0 = -6 only, so every sum but F's is finite
        ("pl", {**_PL_SPEC, "F": f"{_SPIKE} - {_SPIKE} + exp(-x*x)", "N": 6.0}, "F is NaN on the grid at i=0 for n=8"),
        # inf - inf: every value of f is NaN
        ("clt", {**_CLT_SPEC, "f": "x + (1e308*10 - 1e308*10)", "h": "x"}, "f is NaN on the grid at k=0, t_k=-2.828"),
        # inf - inf: H is NaN at -5.25 only, which h(0) = max(H(x_0), H(x_0 + N/n)) reads
        (
            "pl",
            {**_PL_SPEC, "H": f"{_HALF_STEP_SPIKE} - {_HALF_STEP_SPIKE} + exp(-x*x)", "N": 6.0},
            "H is NaN at x_i + N/n for i=0 and n=8",
        ),
    ],
    ids=["pl-endpoint-nan", "clt-nan", "pl-half-step-nan"],
)
def test_cli_limit_exp_nan_grid_value_exits_two(tmp_path, capsys, kind, spec, message):
    # a NaN grid value is bad input, not a failed hypothesis or a row that fails
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["limit-exp", "--kind", kind, "--spec", path, "--n", "8,64"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err and captured.out == ""


#: negative step functions whose n = 2 grid passes the line hypothesis, while the row reads lhs=-180.0 rhs=-216.0
_NEGATIVE_PL_SPEC = {
    "F": "(1+copysign(1, x+3))/2 - (1+copysign(1, x-3))/2",
    "G": "-2 + (1+copysign(1, x-3))/2",
    "H": "-2*(1+copysign(1, x-4.5))/2",
    "K": "1 + 2*(1+copysign(1, x+4.5))/2 - 4*(1+copysign(1, x-1.5))/2",
}


def test_cli_limit_exp_negative_pl_sample_exits_two(tmp_path, capsys):
    # the discrete PL forms are about non-negative functions: a negative one is bad input, not a failing row
    path = _write(tmp_path, "spec.json", json.dumps(_NEGATIVE_PL_SPEC))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: G is negative on the grid at i=0 for n=2\n" and captured.out == ""


def test_cli_limit_exp_pl_equality_holds(tmp_path, capsys):
    # F G = H K = 1: the two sides of each row are equal up to the rounding of their float sums
    path = _write(tmp_path, "spec.json", json.dumps({"F": "7", "G": "1/7", "H": "1", "K": "1"}))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "64,4096", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [64, 4096] and all(row["holds"] for row in rows)


def test_cli_limit_exp_pl_infinite_sample_times_a_zero_sum_holds(tmp_path, capsys):
    # F is +inf at x_0 = -6 only and G = 0: with 0 * inf = 0 the row's lhs is 0, not the float product NaN
    spike = "1e300*(1e300*(0.001 - fabs(x+6) + fabs(0.001 - fabs(x+6))))"
    spec = {"F": f"{spike} + exp(-x*x)", "G": "0", "H": "exp(-x*x)", "K": "exp(-x*x)"}
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "8", "--json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["lhs"] == 0.0 and row["ratio"] == 0.0 and row["rhs"] > 0 and row["holds"]


@pytest.mark.parametrize(
    "argv, given",
    [
        (["transport-cost", "--mu", "{mu}", "--mu-kind", "geometric"], "--mu and --mu-kind"),
        (["transport-cost", "--cost-table", "{cost}", "--mu-kind", "geometric"], "--mu-kind and --cost-table"),
        (["transport-cost", "--mu", "{mu}", "--cost-table", "{cost}"], "--mu and --cost-table"),
        (["check-te", "--mu", "{mu}", "--mu-kind", "gaussian"], "--mu and --mu-kind"),
    ],
    ids=["mu-and-mu-kind", "mu-kind-and-cost-table", "mu-and-cost-table", "te-mu-and-mu-kind"],
)
def test_cli_takes_exactly_one_reference(tmp_path, capsys, argv, given):
    # the reference files are missing: the options are rejected before any file is read
    mu, cost = str(tmp_path / "missing-mu.txt"), str(tmp_path / "missing-cost.txt")
    nu = _write(tmp_path, "nu.txt", "0; 1/2 1/2\n")
    argv = [arg.format(mu=mu, cost=cost) for arg in argv]
    if argv[0] == "transport-cost":
        argv += ["--nu0", nu, "--nu1", nu]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {given} exclude each other; give one of --mu, --mu-kind" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transport-cost", "--mu", "{missing}", "--K", "3", "--nu0", "{nu}", "--nu1", "{nu}"], "--K applies only to --mu-kind, not to --mu"),
        (
            ["transport-cost", "--cost-table", "{missing}", "--K", "3", "--nu0", "{nu}", "--nu1", "{nu}"],
            "--K applies only to --mu-kind, not to --cost-table",
        ),
        (["check-te", "--mu", "{missing}", "--K", "12"], "--K applies only to --mu-kind, not to --mu"),
        (["limit-exp", "--kind", "pl", "--lambda", "1.0", "--n", "8"], "--lambda applies only to --kind clt, not to --kind pl"),
        (["limit-exp", "--kind", "disp", "--lambda", "2.0", "--n", "8"], "--lambda applies only to --kind clt, not to --kind disp"),
        (["limit-exp", "--kind", "pl", "--demo", "gaussian", "--spec", "{missing}", "--n", "8"], "--demo and --spec exclude each other"),
    ],
    ids=["K-with-mu", "K-with-cost-table", "te-K-with-mu", "lambda-with-pl", "lambda-with-disp", "demo-with-spec"],
)
def test_cli_rejects_an_option_it_would_ignore(tmp_path, capsys, argv, message):
    # the given value would change nothing, even when it equals the default; the files named are
    # missing, so the option is rejected before any file is read
    nu = _write(tmp_path, "nu.txt", "0; 1/2 1/2\n")
    argv = [arg.format(missing=str(tmp_path / "missing.txt"), nu=nu) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_defaults_apply_where_the_option_takes_effect(tmp_path, monkeypatch):
    # --K is 50 for transport-cost and 12 for check-te, and --lambda 1.0 for clt, when not given
    widths, lams = [], []
    monkeypatch.setitem(cli._MU_KINDS, "geometric", lambda K: widths.append(K) or transport.geometric_weights(K))
    real_clt = cli.clt_experiment
    monkeypatch.setattr(cli, "clt_experiment", lambda *args, lam: lams.append(lam) or real_clt(*args, lam=lam))
    nu = _write(tmp_path, "nu.txt", "0; 1/2 1/2\n")
    assert main(["transport-cost", "--mu-kind", "geometric", "--nu0", nu, "--nu1", nu]) == 0
    assert main(["check-te", "--mu-kind", "geometric", "--trials", "1"]) == 0
    assert main(["limit-exp", "--kind", "clt", "--demo", "linear", "--n", "8"]) == 0
    assert widths == [50, 12] and lams == [1.0]


def test_cli_missing_reference_is_an_option_error_without_a_line(capsys):
    assert main(["check-te"]) == 2
    err = capsys.readouterr().err
    assert "need --mu or --mu-kind" in err and "line 0" not in err


def test_cli_closed_stdout_exits_141_quietly():
    # 128 + SIGPIPE, as a shell reports for `yes | head -1`; the read end is closed before the run
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(discretepl.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "discretepl.cli", "campaign", "--check", "leq1", "--trials", "1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_cli_broken_card_lemma_is_a_failed_trial(monkeypatch, capsys):
    # a planted coupling whose atoms (0,0), (0,1) and (1,0) all fall in level 0
    planted = _from_cells([(0, 0, 1), (0, 1, 1), (1, 0, 1)], 3)
    monkeypatch.setattr(campaign, "monotone_coupling", lambda nu0, nu1: planted)
    monkeypatch.setattr(displacement, "is_staircase", lambda pi: True)
    assert main(["campaign", "--check", "card", "--trials", "2", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["failures"] == 2
    assert doc["records"][0]["values"]["max_card"] == 3
    assert doc["records"][0]["witness"].startswith("level-set invariant failed")


_BUMP = "x*x + 25*(0.001 - fabs(x - 0.3) + fabs(0.001 - fabs(x - 0.3)))"


@pytest.mark.parametrize(
    "spec, message",
    [
        # E[e^{X^2/2}] is infinite
        ({"f": "x*x/2", "g": "x*x/2", "h": "x*x/2"}, "target_f: quadrature failed (no convergence: "),
        ({"f": "0", "g": "0", "h": _BUMP}, "target_h: quadrature failed (OverflowError: "),
        ({"f": "-1000", "g": "-1000", "h": "0"}, "target_f: quadrature gave 0.0, outside (0, inf)"),
    ],
    ids=["divergent", "overflow", "underflow"],
)
def test_cli_limit_exp_clt_target_that_fails_exits_two(tmp_path, capsys, spec, message):
    path = _write(tmp_path, "spec.json", json.dumps(spec))
    assert main(["limit-exp", "--kind", "clt", "--spec", path, "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""


def test_cli_limit_exp_clt_infinite_h_exits_two_before_any_row(tmp_path, capsys):
    # h = +inf only within 0.001 of t_0 = -64, a grid point at n = 4096 and not at n = 64
    spike = "x*x/4 + 1e300*(1e300*(0.001 - fabs(x+64) + fabs(0.001 - fabs(x+64))))"
    path = _write(tmp_path, "spec.json", json.dumps({"f": "0", "g": "0", "h": spike}))
    assert main(["limit-exp", "--kind", "clt", "--spec", path, "--n", "64,4096"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: h is +inf on the grid at k=0, t_k=-64.0 for n=4096") and captured.out == ""


def test_cli_limit_exp_clt_nan_prints_only_its_error_line(tmp_path):
    # every grid is checked before the quadrature, which never sees the NaN
    path = _write(tmp_path, "spec.json", json.dumps({**_CLT_SPEC, "f": "x + (1e308*10 - 1e308*10)", "h": "x"}))
    env = {**os.environ, "PYTHONPATH": str(Path(discretepl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "discretepl.cli", "limit-exp", "--kind", "clt", "--spec", path, "--n", "8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: f is NaN on the grid") and proc.stderr.count("\n") == 1


def test_cli_lemma_couplings_of_the_swapped_pair_fail_every_trial(monkeypatch, capsys):
    # a planted fault: the couplings of (nu2, nu1) instead of (nu1, nu2)
    monkeypatch.setattr(campaign, "binary_lattice_couplings", lambda nu1, nu2: binary_lattice_couplings(nu2, nu1))
    assert main(["campaign", "--check", "transport-lemma", "--trials", "3", "--json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == 3
    assert all(not r["passed"] and r["witness"].startswith("coupling masses off for nu1=") for r in records)


@pytest.mark.parametrize(
    "expr, n_list",
    [
        # E[e^{X^2/4}] = sqrt 2; f(t_0) = 1024 at n = 4096, where e^1024 alone overflows
        ("x*x/4", "64,4096"),
        # E[e^{0.49 X^2}] = 1/sqrt(0.02); e^v overflows where the binomial weight is still subnormal
        ("0.49*x*x", "16384"),
    ],
    ids=["quarter", "near-divergent"],
)
def test_cli_limit_exp_clt_grid_value_beyond_exp_range_exits_zero(tmp_path, capsys, expr, n_list):
    path = _write(tmp_path, "spec.json", json.dumps({"f": expr, "g": expr, "h": expr}))
    assert main(["limit-exp", "--kind", "clt", "--spec", path, "--n", n_list, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["holds"] and math.isfinite(row["value_f"]) for row in rows)
    assert rows[-1]["rel_err_f"] < 0.05


def test_cli_limit_exp_pl_target_that_fails_exits_two(tmp_path, capsys):
    # the quadrature of an oscillating H fails instead of returning a meaningless value
    wild = "sin(1/(x+1e-9))+2"
    path = _write(tmp_path, "spec.json", json.dumps({"F": "0", "G": "0", "H": wild, "K": wild}))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: target_H: quadrature failed (no convergence ") and captured.out == ""


def test_cli_limit_exp_pl_n_whose_riemann_scale_overflows_exits_two(tmp_path, capsys, monkeypatch):
    # (2N/n)^2 = (2.5e199)^2 is past the float range: bad input, reported before any quadrature runs
    calls = []
    monkeypatch.setattr(limits, "interval_integral", lambda *args: calls.append(args))
    path = _write(tmp_path, "spec.json", json.dumps({**_PL_SPEC, "N": 1e200}))
    assert main(["limit-exp", "--kind", "pl", "--spec", path, "--n", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: N=1e+200 is too large for n=8: the Riemann scale (2N/n)^2 overflows\n"
    assert captured.out == "" and calls == []


@pytest.mark.parametrize("kind", ["pl", "clt"])
def test_cli_limit_exp_runs_without_scipy(kind):
    # None in sys.modules makes every import of scipy fail: the targets need the standard library only
    run = "import sys; sys.modules['scipy'] = None; from discretepl.cli import main; raise SystemExit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(discretepl.__file__).parents[1])}
    argv = [sys.executable, "-c", run, "limit-exp", "--kind", kind, "--n", "64"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "target=" in proc.stdout or "target_f=" in proc.stdout


def test_cli_transport_cost_beyond_the_cell_bound_exits_two_without_solving(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(transport, "_successive_shortest_paths", lambda *args: calls.append(args))
    nu0 = _write(tmp_path, "nu0.txt", "0; " + " ".join(["1/51"] * 51) + "\n")
    nu1 = _write(tmp_path, "nu1.txt", "0; " + " ".join(["1/50"] * 50) + "\n")
    assert main(["transport-cost", "--mu-kind", "geometric", "--K", "60", "--nu0", nu0, "--nu1", nu1]) == 2
    assert "51 x 50 support points exceed the 2500 pairs" in capsys.readouterr().err
    assert calls == []
