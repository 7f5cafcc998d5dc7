"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest tests/test_acceptance.py -v -s`).

The 10,000-instance campaigns for the exact ratio sum, the entropy gap and
the level-set cardinality share one instance stream: every campaign trial
draws its inputs from a fresh per-(seed, index) generator, so equal seeds
mean equal inputs across the three checks.
"""

import math
import time
from fractions import Fraction

import pytest

import oracles
from discretepl.campaign import (
    CampaignConfig,
    LOG_CONCAVE_FAMILIES,
    _pmf_in_window,
    rational_log_concave_family,
    run_campaign,
    trial_rng,
)
from discretepl.displacement import displacement_gap, floor_ceil_iffs
from discretepl.fourfunctions import (
    PHI_ENTROPY,
    CubeFn,
    check_4ft_conclusion,
    check_4ft_hypothesis,
    functional_power,
    log_mean_exp,
    random_hypothesis_quadruple,
    restrict_to_binary_cube,
)
from discretepl.limits import (
    CLT_DEMOS,
    DISP_DEMOS,
    PL_DEMOS,
    clt_experiment,
    pl_limit_experiment,
    rescaled_displacement_experiment,
)
from discretepl.measures import RealFn, delta, dual_gap, uniform_on
from discretepl.transport import closed_form_cost, cost_mu, curvature_cost, gaussian_weights, geometric_weights, ot_cost

F = Fraction

SEED = 2024
TRIALS = 10_000


@pytest.fixture(scope="module")
def big_campaigns():
    reports = {}
    timings = {}
    for check in ("leq1", "displacement", "card"):
        start = time.monotonic()
        reports[check] = run_campaign(
            CampaignConfig(seed=SEED, trials=TRIALS, support_width=40, mass_resolution=64, check=check)
        )
        timings[check] = time.monotonic() - start
    return reports, timings


def test_criterion_1_ratio_sum_exact(big_campaigns):
    reports, timings = big_campaigns
    report = reports["leq1"]
    assert report.failures == 0
    assert len(report.records) == TRIALS
    assert all(Fraction(r.values["P"]) <= 1 for r in report.records)
    assert timings["leq1"] <= 60.0
    print(
        f"\nACCEPTANCE 1: PASS - {TRIALS} random pairs, exact P <= 1, zero failures, "
        f"{timings['leq1']:.1f}s (max P = {report.extremes['max_P']['P']})"
    )


def test_criterion_2_displacement_convexity(big_campaigns):
    reports, _ = big_campaigns
    report = reports["displacement"]
    assert report.failures == 0
    assert all(r.values["gap"] >= -1e-12 for r in report.records)
    worked = displacement_gap(uniform_on([0, 2]), delta(1))
    assert worked.gap == pytest.approx(math.log(2), abs=1e-10)
    assert worked.ratio_sum == F(1, 2)
    print(
        f"\nACCEPTANCE 2: PASS - gaps >= -1e-12 on the campaign "
        f"(min {report.extremes['min_gap']['gap']:.3e}); worked instance gap=log 2, P=1/2 exact"
    )


def test_criterion_3_floor_ceil_iffs_exhaustive():
    start = time.monotonic()
    cases = 0
    for x1 in range(-8, 9):
        for y1 in range(-8, 9):
            for x2 in range(x1, 9):
                for y2 in range(y1, 9):
                    if (x1, y1) == (x2, y2):
                        continue
                    cases += 1
                    assert floor_ceil_iffs(x1, y1, x2, y2).all_hold
    elapsed = time.monotonic() - start
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 3: PASS - both midpoint iffs on {cases} admissible tuples in [-8,8]^4, {elapsed:.1f}s")


def test_criterion_4_level_set_cardinality(big_campaigns):
    reports, _ = big_campaigns
    report = reports["card"]
    assert report.failures == 0
    cards = [r.values["max_card"] for r in report.records]
    assert max(cards) <= 2
    two_instance = next(r for r in report.records if r.values["max_card"] == 2)
    print(
        f"\nACCEPTANCE 4: PASS - |S(a)| <= 2 on all {TRIALS} instances; "
        f"|S(a)| = 2 witnessed at trial {two_instance.index} (digest {two_instance.digest})"
    )


def test_criterion_5_four_functions():
    for n in (1, 2, 3, 4):
        for index in range(500):
            rng = trial_rng(SEED + n, index)
            quad = random_hypothesis_quadruple(rng, n, 64)
            assert check_4ft_hypothesis(*quad).ok
            lhs, rhs, holds = check_4ft_conclusion(*quad)
            assert holds, (n, index, lhs, rhs)
    for index in range(200):
        rng = trial_rng(SEED + 99, index)
        quad = random_hypothesis_quadruple(rng, 1, 64)
        red = restrict_to_binary_cube(*(RealFn(0, q.values) for q in quad))
        assert red.cube_hypothesis_ok and red.line_hypothesis_ok and red.equivalent and red.conclusion_ok
    lemma = run_campaign(CampaignConfig(seed=SEED, trials=1000, check="transport-lemma"))
    assert lemma.failures == 0
    print(
        "\nACCEPTANCE 5: PASS - 500 exact conclusions per n in {1,2,3,4}; "
        "200 line-to-cube reductions; 1000 binary coupling mass tables exact"
    )


def test_criterion_6_closed_form_costs():
    start = time.monotonic()
    geo, gau = geometric_weights(50), gaussian_weights(50)
    for x in range(-50, 51):
        for y in range(-50, 51):
            assert cost_mu(geo, x, y) == closed_form_cost("geometric", x, y)
            assert cost_mu(gau, x, y) == closed_form_cost("gaussian", x, y)
    elapsed = time.monotonic() - start
    assert elapsed <= 2.0
    print(f"\nACCEPTANCE 6: PASS - both closed forms exact on all of [-50,50]^2, {elapsed:.2f}s")


def test_criterion_7_transport_entropy_and_exact_solver():
    te = run_campaign(CampaignConfig(seed=SEED, trials=2000, check="te"))
    assert te.failures == 0
    vertex_matches = 0
    for index in range(500):
        rng = trial_rng(SEED + 7, index)
        family = LOG_CONCAVE_FAMILIES[index % len(LOG_CONCAVE_FAMILIES)]
        mu = rational_log_concave_family(family, 8)
        cost = curvature_cost(mu)
        nu0 = _pmf_in_window(rng, range(-8, 9), 16, 4)
        nu1 = _pmf_in_window(rng, range(-8, 9), 16, 4)
        xs, ys = nu0.support_points(), nu1.support_points()
        matrix = [[F(float(cost(x, y))) for y in ys] for x in xs]
        expected = oracles.min_cost_over_vertices([nu0.mass(x) for x in xs], [nu1.mass(y) for y in ys], matrix)
        assert ot_cost(cost, nu0, nu1).cost_exact == expected
        vertex_matches += 1
    print(
        f"\nACCEPTANCE 7: PASS - 2000 transport-entropy checks under {len(LOG_CONCAVE_FAMILIES)} "
        f"log-concave families (min slack {te.extremes['min_slack']['slack']:.3e}); "
        f"{vertex_matches} exact optima equal the vertex-enumeration oracle"
    )


def test_criterion_8_duality():
    worst = 0.0
    for index in range(500):
        rng = trial_rng(SEED + 8, index)
        width = rng.randint(1, 30)
        phi = RealFn(rng.randint(-15, 15), tuple(rng.uniform(-5, 5) for _ in range(width)))
        gap = dual_gap(phi)
        assert -1e-12 <= gap <= 1e-10
        worst = max(worst, gap)
    recursion_worst = 0.0
    for n in range(1, 11):
        rng = trial_rng(SEED + 88, n)
        h = CubeFn(n, tuple(rng.uniform(-3, 3) for _ in range(2**n)))
        err = abs(functional_power(PHI_ENTROPY, h) - log_mean_exp(h))
        assert err <= 1e-9
        recursion_worst = max(recursion_worst, err)
    print(
        f"\nACCEPTANCE 8: PASS - Gibbs dual gap <= 1e-10 on 500 windows (max {worst:.2e}); "
        f"recursive functional matches log-mean-exp to {recursion_worst:.2e} for n <= 10"
    )


def test_criterion_9_limit_experiments():
    start = time.monotonic()
    pl_rows = pl_limit_experiment(*PL_DEMOS["gaussian"], [64, 256, 1024, 4096])
    assert all(row.holds for row in pl_rows)
    assert pl_rows[-1].n == 4096 and pl_rows[-1].rel_err <= 0.02
    pl_time = time.monotonic() - start

    start = time.monotonic()
    disp_rows = rescaled_displacement_experiment(*DISP_DEMOS["two-uniform"], [64, 256, 1024, 2048])
    assert all(row.holds for row in disp_rows)
    final = disp_rows[-1]
    assert final.n == 2048
    assert abs(final.entropy0 - math.log(2)) <= 0.01 * math.log(2)
    assert abs(final.entropy1 - math.log(2)) <= 0.01 * math.log(2)
    disp_time = time.monotonic() - start

    start = time.monotonic()
    worst = 0.0
    for demo in ("linear", "quadratic"):
        clt_rows = clt_experiment(*CLT_DEMOS[demo], [100, 1000, 10_000])
        assert all(row.holds for row in clt_rows)
        last = clt_rows[-1]
        assert last.n == 10_000
        for err in (last.rel_err_f, last.rel_err_g, last.rel_err_h):
            assert err <= 0.02
            worst = max(worst, err)
    clt_time = time.monotonic() - start

    assert pl_time <= 120 and disp_time <= 120 and clt_time <= 120
    print(
        f"\nACCEPTANCE 9: PASS - grid ratio {pl_rows[-1].ratio:.5f} (target {pl_rows[-1].target:.5f}, "
        f"err {pl_rows[-1].rel_err:.2%}) in {pl_time:.1f}s; lattice entropies at log 2 in {disp_time:.1f}s; "
        f"binomial demos within {worst:.2%} of Gaussian targets in {clt_time:.1f}s"
    )
