import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

import oracles
from conftest import allocated_block_growth, cpython_only
from discretepl import transport
from discretepl.campaign import (
    LOG_CONCAVE_FAMILIES,
    _pmf_in_window,
    rational_log_concave_family,
)
from discretepl.errors import ConfigError, InfeasibleCost, OutsidePositiveWindow
from discretepl.displacement import displacement_gap
from discretepl.measures import SUM_SLACK, Pmf, delta, from_weights, pmf, relative_entropy, uniform_on
from discretepl.transport import (
    closed_form_cost,
    cost_mu,
    curvature_cost,
    gaussian_weights,
    geometric_weights,
    ot_cost,
    positive_window,
    transport_entropy_check,
)

F = Fraction


def random_concave_weights(rng: random.Random, max_width: int) -> transport.LogWeights:
    """Concave integer log-weights: increments in [-4, 4] drawn non-increasing."""
    width = rng.randint(2, max_width)
    offset = rng.randint(-max_width, max_width // 2)
    slopes = sorted((rng.randint(-4, 4) for _ in range(width - 1)), reverse=True)
    return transport.LogWeights(offset, tuple(map(Fraction, accumulate(slopes, initial=0))))


def test_cost_vanishes_on_diagonal_and_neighbours():
    mu = rational_log_concave_family("geometric-half", 6)
    for x in range(-5, 5):
        assert cost_mu(mu, x, x) == pytest.approx(0.0, abs=1e-14)
        assert cost_mu(mu, x, x + 1) == pytest.approx(0.0, abs=1e-14)
        assert cost_mu(mu, x + 1, x) == pytest.approx(0.0, abs=1e-14)
    w = geometric_weights(6)
    for x in range(-5, 5):
        assert cost_mu(w, x, x) == 0
        assert cost_mu(w, x, x + 1) == 0


def test_geometric_cost_example():
    assert cost_mu(geometric_weights(5), -1, 1) == 2


def test_gaussian_cost_example():
    assert cost_mu(gaussian_weights(5), 0, 2) == 4


def test_closed_forms():
    assert closed_form_cost("geometric", 3, 5) == 0
    assert closed_form_cost("geometric", -2, 3) == 4
    assert closed_form_cost("gaussian", 0, 3) == 8


def test_closed_forms_match_weight_costs_exactly():
    gw, zw = geometric_weights(15), gaussian_weights(15)
    for x in range(-15, 16):
        for y in range(-15, 16):
            assert cost_mu(gw, x, y) == closed_form_cost("geometric", x, y)
            assert cost_mu(zw, x, y) == closed_form_cost("gaussian", x, y)


def test_cost_symmetry(rng):
    w = gaussian_weights(10)
    for _ in range(200):
        x, y = rng.randint(-10, 10), rng.randint(-10, 10)
        assert cost_mu(w, x, y) == cost_mu(w, y, x)


def test_cost_outside_window():
    with pytest.raises(OutsidePositiveWindow):
        cost_mu(geometric_weights(3), 0, 4)
    with pytest.raises(OutsidePositiveWindow):
        cost_mu(uniform_on([0, 2]), 0, 0)  # both points positive, but the support has a gap
    with pytest.raises(OutsidePositiveWindow):
        cost_mu(pmf(0, [F(1, 2), F(0), F(1, 2)]), 0, 2)
    assert cost_mu(uniform_on([0, 1]), 0, 1) == 0.0
    # the gapless window 0..2 holds both midpoints of (-1, 1) and of (1, 3); the point outside is named
    tent = from_weights(0, [1, 2, 1])
    with pytest.raises(OutsidePositiveWindow, match=r"^-1 outside positive window"):
        cost_mu(tent, -1, 1)
    with pytest.raises(OutsidePositiveWindow, match=r"^3 outside positive window"):
        cost_mu(tent, 1, 3)
    assert positive_window(geometric_weights(3)) == range(-3, 4)


#: the te reference families by their unnormalized masses, written out apart from `campaign`
_FAMILY_MASSES = {
    "geometric-half": lambda x, k: F(1, 2) ** abs(x),
    "geometric-two-thirds": lambda x, k: F(2, 3) ** abs(x),
    "binomial": lambda x, k: F(math.comb(2 * k, x + k)),
    "gaussian-half": lambda x, k: F(1, 2) ** (x * x),
    "uniform": lambda x, k: F(1),
}


def _oracle_references(rng, k):
    """(mu, its Fraction masses by point) for the five families and one random pmf on [-k, k]."""
    window = range(-k, k + 1)
    refs = [(rational_log_concave_family(name, k), [weight(x, k) for x in window]) for name, weight in _FAMILY_MASSES.items()]
    weights = [rng.randint(1, 64) for _ in range(2 * k + 1)]
    refs.append((from_weights(-k, weights), weights))
    out = []
    for mu, values in refs:
        offset, masses = oracles.normalized_window(-k, values)
        assert (mu.offset, mu.masses) == (offset, masses)
        out.append((mu, dict(zip(range(offset, offset + len(masses)), masses))))
    return out


def test_costs_and_entropies_are_the_oracles_floats_bit_for_bit(rng):
    bent = 0
    for k in range(1, 13):
        window = range(-k, k + 1)
        for mu, mass in _oracle_references(rng, k):
            bent += not oracles.is_log_concave(mu)
            for x in window:
                for y in window:
                    assert cost_mu(mu, x, y) == oracles.curvature_cost(mass, x, y)
            for _ in range(10):
                nu0, nu1 = _pmf_with_gaps_in(rng, window), _pmf_with_gaps_in(rng, window)
                h0, h1 = (oracles.relative_entropy_terms(nu, mass) for nu in (nu0, nu1))
                assert relative_entropy(nu0, mu) == oracles.sum_left_to_right(h0)
                atoms = oracles.quantile_coupling(nu0, nu1)
                lhs = float(sum((p * F(oracles.curvature_cost(mass, x, y)) for x, y, p in atoms), F(0)))
                rhs = oracles.sum_left_to_right(h0) + oracles.sum_left_to_right(h1)
                expected = transport.TransportEntropyCheck(lhs, rhs, lhs <= rhs + SUM_SLACK)
                assert transport_entropy_check(mu, nu0, nu1) == expected
        for kind, w in (("geometric", lambda x: -abs(x)), ("gaussian", lambda x: -2 * x * x)):
            mu = (geometric_weights if kind == "geometric" else gaussian_weights)(k)
            weight = {x: w(x) for x in window}
            for x in window:
                for y in window:
                    mid = F(x + y, 2)
                    expected = weight[math.floor(mid)] + weight[math.ceil(mid)] - weight[x] - weight[y]
                    assert cost_mu(mu, x, y) == expected == closed_form_cost(kind, x, y)
            for _ in range(10):
                nu0, nu1 = _pmf_with_gaps_in(rng, window), _pmf_with_gaps_in(rng, window)
                atoms = oracles.quantile_coupling(nu0, nu1)
                lhs = float(sum((p * closed_form_cost(kind, x, y) for x, y, p in atoms), F(0)))
                h0, h1 = (oracles.sum_left_to_right(oracles.log_weight_entropy_terms(nu, weight)) for nu in (nu0, nu1))
                rhs = h0 + h1
                expected = transport.TransportEntropyCheck(lhs, rhs, lhs <= rhs + SUM_SLACK)
                assert transport_entropy_check(mu, nu0, nu1) == expected
    assert bent >= 8  # most of the random references are not log-concave


def test_relative_entropy_is_infinite_off_the_reference_on_either_side():
    mu = from_weights(0, [1, 0, 2, 3])
    assert relative_entropy(uniform_on([-1, 0]), mu) == math.inf  # an index below the window must not wrap
    assert relative_entropy(uniform_on([3, 4]), mu) == math.inf
    assert relative_entropy(uniform_on([0, 1]), mu) == math.inf  # a zero inside the window
    assert relative_entropy(uniform_on([0, 2]), mu) == oracles.sum_left_to_right(
        oracles.relative_entropy_terms(uniform_on([0, 2]), {0: F(1, 6), 2: F(1, 3), 3: F(1, 2)})
    )


def _lookup_error(mu, x, y) -> str:
    """The message of the error that a lookup per point raised: the weight at m-, m+, x and y in turn for
    log-weights, which name their window; a Pmf's x and y, which name its positive window."""
    window = mu.window()
    mid = F(x + y, 2)
    if isinstance(mu, transport.LogWeights):
        z = next(z for z in (math.floor(mid), math.ceil(mid), x, y) if z not in window)
        return f"{z} outside window {window}"
    z = next(z for z in (x, y) if z not in window)
    return f"{z} outside positive window {window}"


def test_cost_errors_name_the_point_a_lookup_per_point_named():
    refs = [geometric_weights(3), gaussian_weights(2), transport.LogWeights(5, (F(1, 2), 0, 3))]
    refs += [from_weights(-3, [1, 2, 3, 4, 3, 2, 1]), from_weights(4, [5, 1, 7])]
    outside = 0
    for mu in refs:
        window = mu.window()
        for x in range(window.start - 9, window.stop + 9):
            for y in range(window.start - 9, window.stop + 9):
                if x in window and y in window:
                    cost_mu(mu, x, y)
                    continue
                outside += 1
                with pytest.raises(OutsidePositiveWindow) as error:
                    cost_mu(mu, x, y)
                assert type(error.value) is OutsidePositiveWindow and str(error.value) == _lookup_error(mu, x, y)
    assert outside > 2000
    # a midpoint outside, named before x and y: 4 = m- of (0, 9), and 4 = m+ of (2, 5)
    geometric = geometric_weights(3)
    assert _lookup_error(geometric, 0, 9) == _lookup_error(geometric, 2, 5) == "4 outside window range(-3, 4)"
    with pytest.raises(OutsidePositiveWindow, match=r"^positive support is not contiguous$"):
        cost_mu(from_weights(0, [1, 0, 1]), 0, 0)


def test_transport_entropy_names_the_first_support_point_outside_the_window():
    mu = from_weights(-3, [1, 2, 3, 4, 3, 2, 1])
    for nu0, nu1, point in [
        (uniform_on([-5, -4, 0]), uniform_on([9]), -5),
        (uniform_on([0, 3]), uniform_on([-1, 4, 6]), 4),
        (uniform_on([3, 4]), delta(-9), 4),
    ]:
        for ref in (mu, geometric_weights(3)):
            with pytest.raises(OutsidePositiveWindow) as error:
                transport_entropy_check(ref, nu0, nu1)
            assert str(error.value) == f"support point {point} outside positive window"
    # zero end weights past the window are not support points
    wide = Pmf(-5, (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0), 2)
    for ref in (mu, geometric_weights(3)):
        expected = transport_entropy_check(ref, uniform_on([-3, -1]), delta(0))
        assert transport_entropy_check(ref, wide, delta(0)) == expected


def test_log_concavity_examples():
    # the te campaign's families are log-concave, so their lhs is the optimal cost
    for family in LOG_CONCAVE_FAMILIES:
        assert oracles.is_log_concave(rational_log_concave_family(family, 10))
    assert oracles.is_log_concave(delta(0))
    assert not oracles.is_log_concave(from_weights(0, [F(4), F(1), F(4)]))
    assert not oracles.is_log_concave(pmf(0, [F(1, 2), F(0), F(1, 2)]))


def _costs_on_window(mu):
    window = positive_window(mu)
    return [cost_mu(mu, x, y) for x in window for y in window]


def test_cost_nonnegativity():
    assert min(_costs_on_window(geometric_weights(8))) == 0
    assert min(_costs_on_window(gaussian_weights(8))) == 0
    bad = from_weights(0, [F(4), F(1), F(4)])
    assert cost_mu(bad, 0, 2) < 0  # the witness pair exhibits a negative cost


def test_log_concave_weights_yield_nonnegative_costs(rng):
    for _ in range(1000):
        assert min(_costs_on_window(random_concave_weights(rng, 10))) >= 0


def test_ot_diagonal_is_free():
    mu = rational_log_concave_family("binomial", 6)
    nu = from_weights(-2, [1, 3, 2])
    result = ot_cost(curvature_cost(mu), nu, nu)
    assert result.cost_exact == 0
    assert all(x == y for x, y, _ in result.plan.atoms)


def test_ot_between_diracs_is_the_cost():
    w = gaussian_weights(8)
    result = ot_cost(curvature_cost(w), delta(-2), delta(3))
    assert result.cost_exact == cost_mu(w, -2, 3)


def test_ot_matches_vertex_enumeration(rng):
    mu = rational_log_concave_family("geometric-two-thirds", 8)
    cost = curvature_cost(mu)
    for _ in range(60):
        nu0 = _pmf_in_window(rng, range(-8, 9), 16, 4)
        nu1 = _pmf_in_window(rng, range(-8, 9), 16, 4)
        xs, ys = nu0.support_points(), nu1.support_points()
        matrix = [[F(float(cost(x, y))) for y in ys] for x in xs]
        expected = oracles.min_cost_over_vertices([nu0.mass(x) for x in xs], [nu1.mass(y) for y in ys], matrix)
        assert ot_cost(cost, nu0, nu1).cost_exact == expected


def test_ot_strong_duality_and_slackness(rng):
    mu = rational_log_concave_family("gaussian-half", 7)
    cost = curvature_cost(mu)
    for _ in range(40):
        nu0 = _pmf_in_window(rng, range(-7, 8), 12, 5)
        nu1 = _pmf_in_window(rng, range(-7, 8), 12, 5)
        result = ot_cost(cost, nu0, nu1, want_duals=True)
        u, v = result.dual_u, result.dual_v
        dual_value = sum(float(m) * u.value(x) for x, m in oracles.support(nu0)) + sum(
            float(m) * v.value(y) for y, m in oracles.support(nu1)
        )
        assert dual_value == pytest.approx(result.cost, abs=1e-10)
        for x in nu0.window():
            for y in nu1.window():
                assert u.value(x) + v.value(y) <= float(cost(x, y)) + 1e-9
        for x, y, _ in result.plan.atoms:
            assert u.value(x) + v.value(y) == pytest.approx(float(cost(x, y)), abs=1e-9)


def test_ot_plans_and_duals_under_tied_costs_are_pinned():
    # integer costs 0..3 leave many optimal plans and duals: the pin fixes which ones
    # the solver returns, so a change to its heap order or arc order shows here
    rng = random.Random(20261018)
    lines = []
    for _ in range(150):
        nu0 = from_weights(rng.randint(-3, 3), [rng.randint(1, 12) for _ in range(rng.randint(1, 8))])
        nu1 = from_weights(rng.randint(-3, 3), [rng.randint(1, 12) for _ in range(rng.randint(1, 8))])
        table = {(x, y): F(rng.randint(0, 3)) for x in nu0.window() for y in nu1.window()}
        result = ot_cost(lambda x, y, table=table: table[(x, y)], nu0, nu1, want_duals=True)
        plan = [(x, y, str(p)) for x, y, p in result.plan.atoms]
        lines.append(repr((plan, result.dual_u.values, result.dual_v.values)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "588f26b23ab2d74e7332251aeb85514fda1bd8cf6f5709c0776d3834d3795a48"


def test_ot_plans_and_duals_up_to_12_by_12_are_pinned():
    # supports up to 12 x 12 in [-12, 12]: even problems take the float curvature cost of a pmf
    # reference that is not log-concave, odd ones a rational cost table
    rng = random.Random(20261019)
    lines = []
    for index in range(200):
        nu0 = _pmf_in_window(rng, range(-12, 13), 64, 12)
        nu1 = _pmf_in_window(rng, range(-12, 13), 64, 12)
        if index % 2 == 0:
            mu = from_weights(-12, [rng.randint(1, 64) for _ in range(25)])
            assert not oracles.is_log_concave(mu)
            cost = curvature_cost(mu)
        else:
            table = {(x, y): F(rng.randint(0, 100), rng.randint(1, 12)) for x in nu0.window() for y in nu1.window()}
            cost = lambda x, y, table=table: table[(x, y)]
        result = ot_cost(cost, nu0, nu1, want_duals=True)
        plan = [(x, y, str(p)) for x, y, p in result.plan.atoms]
        lines.append(repr((plan, result.dual_u.values, result.dual_v.values)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bea05b1c00e9626024c4748be0973489a813cb9edff164ad4af628e44a7797ec"


def test_ot_duals_extended_across_gapped_windows_are_pinned():
    # about half the weights are zero, so every problem has window points off a support, where the
    # duals come from the extension by min formulas; even problems take the float curvature cost of a
    # pmf reference, odd ones a rational cost table
    rng = random.Random(20261020)
    lines, gapped = [], 0
    for index in range(300):
        nu0, nu1 = (
            from_weights(rng.randint(-10, 0), [rng.choice((0, rng.randint(1, 32))) for _ in range(10)] + [1])
            for _ in range(2)
        )
        gapped += not (nu0.gapless and nu1.gapless)
        if index % 2 == 0:
            cost = curvature_cost(from_weights(-10, [rng.randint(1, 64) for _ in range(21)]))
        else:
            table = {(x, y): F(rng.randint(-20, 100), rng.randint(1, 12)) for x in nu0.window() for y in nu1.window()}
            cost = lambda x, y, table=table: table[(x, y)]
        result = ot_cost(cost, nu0, nu1, want_duals=True)
        plan = [(x, y, str(p)) for x, y, p in result.plan.atoms]
        lines.append(repr((plan, result.dual_u.values, result.dual_v.values)))
    assert gapped == 300
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "48103a5cdc7cc79089faee1db63306858a894da75e71c1a0afdf13dd948b8682"


def _transport_problem(rng: random.Random, m: int, n: int, low: int, high: int):
    """Int supplies and demands with equal sums, about a third of them zero, and an m x n int cost matrix."""
    a, b = ([rng.choice((0, rng.randint(1, 12), rng.randint(1, 12))) for _ in range(size)] for size in (m, n))
    a[rng.randrange(m)] += 1
    b[rng.randrange(n)] += 1
    supply, demand = [w * sum(b) for w in a], [w * sum(a) for w in b]
    return supply, demand, [[rng.randint(low, high) for _ in range(n)] for _ in range(m)]


def test_ssp_returns_the_heap_references_flows_and_potentials():
    # the solver must pick the same plan and duals among the many optima as the heap-ordered
    # search of tests/oracles.py: each sink's flows in the same insertion order, the same
    # potentials, and the supplies and demands used up alike
    rng = random.Random(20261021)
    ranges = ((-3, 3), (0, 3), (0, 100), (-(10**9), 10**9))
    shapes = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(3000)] + [(30, 30)] * 8
    for index, (m, n) in enumerate(shapes):
        supply, demand, cost = _transport_problem(rng, m, n, *ranges[index % 4])
        expected_supply, expected_demand = supply[:], demand[:]
        expected_into, expected_pot = oracles.heap_successive_shortest_paths(expected_supply, expected_demand, cost)
        into, pot = transport._successive_shortest_paths(supply, demand, cost)
        assert [list(row.items()) for row in into] == [list(row.items()) for row in expected_into], index
        assert pot == expected_pot, index
        assert (supply, demand) == (expected_supply, expected_demand), index


def test_ssp_names_a_supply_no_sink_can_take():
    for solve in (oracles.heap_successive_shortest_paths, transport._successive_shortest_paths):
        with pytest.raises(InfeasibleCost, match="no augmenting path to a sink with remaining demand"):
            solve([2, 1], [0, 0, 0], [[0, 1, 2], [1, 0, 2]])


def test_ot_plans_and_duals_under_mostly_zero_costs_are_pinned():
    # three in five table costs are 0 and the rest 1 or 2, so most searches (88%) end at
    # distance 0: the pin fixes which of the many optima comes back
    rng = random.Random(20261022)
    lines = []
    for _ in range(200):
        nu0, nu1 = (
            from_weights(rng.randint(-4, 4), [rng.choice((0, rng.randint(1, 9))) for _ in range(rng.randint(1, 10))] + [1])
            for _ in range(2)
        )
        table = {(x, y): F(rng.choice((0, 0, 0, 1, 2))) for x in nu0.window() for y in nu1.window()}
        result = ot_cost(lambda x, y, table=table: table[(x, y)], nu0, nu1, want_duals=True)
        plan = [(x, y, str(p)) for x, y, p in result.plan.atoms]
        lines.append(repr((plan, result.dual_u.values, result.dual_v.values)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f9732c1755795fc86338604091f5a3118f2679c9c8b86d7a7db4c81514149168"


def test_ot_symmetry_and_zero_self_cost(rng):
    mu = rational_log_concave_family("uniform", 6)
    cost = curvature_cost(mu)
    for _ in range(25):
        nu0 = _pmf_in_window(rng, range(-6, 7), 10, 5)
        nu1 = _pmf_in_window(rng, range(-6, 7), 10, 5)
        assert ot_cost(cost, nu0, nu0).cost_exact == 0
        assert ot_cost(cost, nu0, nu1).cost_exact == ot_cost(cost, nu1, nu0).cost_exact


def test_ot_float_path_agrees(rng):
    mu = rational_log_concave_family("geometric-half", 7)
    cost = curvature_cost(mu)
    for _ in range(10):
        nu0 = _pmf_in_window(rng, range(-7, 8), 12, 6)
        nu1 = _pmf_in_window(rng, range(-7, 8), 12, 6)
        exact = ot_cost(cost, nu0, nu1).cost
        assert oracles.ot_cost_float(cost, nu0, nu1) == pytest.approx(exact, abs=1e-9)


def test_transport_entropy_identical_measures():
    mu = rational_log_concave_family("geometric-half", 6)
    check = transport_entropy_check(mu, mu, mu)
    assert check.lhs == pytest.approx(0.0, abs=1e-12)
    assert check.rhs == pytest.approx(0.0, abs=1e-12)
    assert check.holds


def test_transport_entropy_dirac_pair_closed_form():
    # masses are powers of 1/2, so the curvature cost is (integer) * log 2
    mu = rational_log_concave_family("geometric-half", 8)
    a, b = -3, 5
    check = transport_entropy_check(mu, delta(a), delta(b))
    assert check.lhs == pytest.approx(closed_form_cost("geometric", a, b) * math.log(2), abs=1e-9)
    assert check.rhs == pytest.approx(-oracles.log_fraction(mu.mass(a)) - oracles.log_fraction(mu.mass(b)), abs=1e-9)
    assert check.holds


def test_reference_families_in_campaign_order_and_unknown_name():
    # _te_trial draws a family by index, so this order is part of every te campaign report
    assert LOG_CONCAVE_FAMILIES == ("geometric-half", "geometric-two-thirds", "binomial", "gaussian-half", "uniform")
    assert rational_log_concave_family("binomial", 2).masses == tuple(F(c, 16) for c in (1, 4, 6, 4, 1))
    with pytest.raises(ConfigError, match="unknown family 'poisson'"):
        rational_log_concave_family("poisson", 2)


def test_transport_entropy_random_campaign(rng):
    for family in LOG_CONCAVE_FAMILIES:
        mu = rational_log_concave_family(family, 10)
        for _ in range(60):
            nu0 = _pmf_in_window(rng, range(-10, 11), 24, 8)
            nu1 = _pmf_in_window(rng, range(-10, 11), 24, 8)
            assert transport_entropy_check(mu, nu0, nu1).holds


def _pmf_with_gaps_in(rng, window, max_width=8):
    """Random pmf inside window, on at most max_width points, whose support may have interior zeros."""
    width = rng.randint(1, min(max_width, len(window)))
    weights = [rng.randint(0, 6) for _ in range(width)]
    weights[rng.randrange(width)] += 1
    return from_weights(rng.randint(window.start, window.stop - width), weights)


def test_transport_entropy_monotone_cost_is_the_exact_optimum_for_log_weights(rng):
    # both plans are exact optima of the rational costs, so the floats agree exactly
    for _ in range(200):
        mu = random_concave_weights(rng, 10)
        nu0, nu1 = _pmf_with_gaps_in(rng, mu.window()), _pmf_with_gaps_in(rng, mu.window())
        expected = float(ot_cost(curvature_cost(mu), nu0, nu1).cost_exact)
        assert transport_entropy_check(mu, nu0, nu1).lhs == expected


def test_transport_entropy_monotone_cost_matches_ssp_for_log_concave_pmfs(rng):
    for family in LOG_CONCAVE_FAMILIES:
        mu = rational_log_concave_family(family, 8)
        for _ in range(20):
            nu0, nu1 = _pmf_with_gaps_in(rng, positive_window(mu)), _pmf_with_gaps_in(rng, positive_window(mu))
            expected = ot_cost(curvature_cost(mu), nu0, nu1).cost
            assert transport_entropy_check(mu, nu0, nu1).lhs == pytest.approx(expected, abs=1e-12)


class _CountingWeights(tuple):
    """Log-weights that count every weight read, by index or by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for w in super().__iter__():
            self.reads += 1
            yield w


def test_transport_entropy_walks_log_weights_once_per_reference():
    weights = _CountingWeights(geometric_weights(1000).weights)
    mu = transport.LogWeights(-1000, weights)
    nu0, nu1 = uniform_on([-2, 0, 1]), uniform_on([3, 4])
    first = transport_entropy_check(mu, nu0, nu1)
    walked = weights.reads
    assert walked > 2001  # the normalizer reads every weight once
    assert transport_entropy_check(mu, nu0, nu1) == first
    # a later check reads only the weights at the support points and their midpoints
    assert weights.reads - walked < 50
    assert mu.log_normalizer == geometric_weights(1000).log_normalizer


def test_transport_entropy_walks_a_pmf_reference_once():
    # the tent weights 1..1001..1 are concave, hence log-concave
    tent = from_weights(-1000, [1001 - abs(x) for x in range(-1000, 1001)])
    mu = Pmf(tent.offset, _CountingWeights(tent.weights), tent.total)
    nu0, nu1 = uniform_on([-2, 0, 1]), uniform_on([3, 4])
    first = transport_entropy_check(mu, nu0, nu1)
    walked = mu.weights.reads
    assert walked > 2001  # the gap test reads every weight once
    assert transport_entropy_check(mu, nu0, nu1) == first
    # a later check reads only the weights at the support points and their midpoints
    assert mu.weights.reads - walked < 50
    assert mu.gapless


def test_transport_entropy_without_log_concavity_solves_the_transport_problem():
    # the check reads the monotone plan, which costs 0; the optimal plan crosses to (0, 2), (2, 0)
    mu = from_weights(0, [4, 1, 4])
    nu = uniform_on([0, 2])
    check = transport_entropy_check(mu, nu, nu)
    assert check.lhs == 0.0
    assert ot_cost(curvature_cost(mu), nu, nu).cost == -math.log(16) < check.lhs
    assert check.holds


def test_refined_transport_entropy_slack_is_the_displacement_gap(rng):
    # along the monotone coupling pi, int c_mu dpi = int log mu d(nu- + nu+ - nu0 - nu1), so
    # H(nu0|mu) + H(nu1|mu) - H(nu-|mu) - H(nu+|mu) - int c_mu dpi is the counting-measure gap
    refs = [rational_log_concave_family(family, 8) for family in LOG_CONCAVE_FAMILIES]
    refs += [from_weights(rng.randint(-6, 0), [rng.randint(1, 64) for _ in range(rng.randint(3, 16))]) for _ in range(200)]
    assert sum(not oracles.is_log_concave(mu) for mu in refs) >= 150
    for mu in refs:
        nu0, nu1 = _pmf_with_gaps_in(rng, mu.window()), _pmf_with_gaps_in(rng, mu.window())
        report = displacement_gap(nu0, nu1)
        pair = report.pair
        cost = sum(float(p) * cost_mu(mu, x, y) for x, y, p in pair.pi.atoms)
        refined = (
            relative_entropy(nu0, mu)
            + relative_entropy(nu1, mu)
            - relative_entropy(pair.nu_minus, mu)
            - relative_entropy(pair.nu_plus, mu)
            - cost
        )
        assert refined == pytest.approx(report.gap, abs=SUM_SLACK)
        _assert_te_reads_the_monotone_plan(mu, nu0, nu1, cost)
    # the same check under log-weights, most of them not concave
    log_refs, bent = [], 0
    for _ in range(200):
        w = [F(rng.randint(-30, 5), rng.randint(1, 6)) for _ in range(rng.randint(3, 10))]
        bent += any(w[i - 1] + w[i + 1] > 2 * w[i] for i in range(1, len(w) - 1))
        log_refs.append(transport.LogWeights(rng.randint(-6, 0), tuple(w)))
    assert bent >= 150
    for mu in log_refs:
        nu0, nu1 = _pmf_with_gaps_in(rng, mu.window()), _pmf_with_gaps_in(rng, mu.window())
        cost = sum(float(p) * float(cost_mu(mu, x, y)) for x, y, p in displacement_gap(nu0, nu1).pair.pi.atoms)
        _assert_te_reads_the_monotone_plan(mu, nu0, nu1, cost)


def _assert_te_reads_the_monotone_plan(mu, nu0, nu1, monotone_cost):
    """The check holds, its lhs is the monotone plan's cost, and the exact optimum lies at or below it."""
    check = transport_entropy_check(mu, nu0, nu1)
    assert check.holds
    assert check.lhs == pytest.approx(monotone_cost, abs=1e-12)
    assert ot_cost(curvature_cost(mu), nu0, nu1).cost <= check.lhs


def test_transport_entropy_window_violation():
    mu = rational_log_concave_family("uniform", 3)
    with pytest.raises(OutsidePositiveWindow):
        transport_entropy_check(mu, delta(5), delta(0))


def test_dual_product_from_ot_duals(rng):
    # integer costs give integer duals, so their floats are exact and feasibility is checked exactly
    mu = geometric_weights(6)
    cost = curvature_cost(mu)
    window = positive_window(mu)
    log_z = mu.log_normalizer
    for _ in range(20):
        nu0 = _pmf_in_window(rng, window, 10, 4)
        nu1 = _pmf_in_window(rng, window, 10, 4)
        result = ot_cost(cost, nu0, nu1, want_duals=True)
        u, v = result.dual_u, result.dual_v
        assert all(F(u.value(x)) + F(v.value(y)) <= cost(x, y) for x in nu0.window() for y in nu1.window())
        # extended to the window of mu by the same min formulas, the pair stays feasible there, and
        # its dual product (sum e^u dmu)(sum e^v dmu) is at most 1
        u_all = {x: min(cost(x, y) - v.value(y) for y in nu1.window()) for x in window}
        u_all.update(zip(nu0.window(), u.values))
        v_all = {y: min(cost(x, y) - u_all[x] for x in window) for y in window}
        v_all.update(zip(nu1.window(), v.values))
        assert all(F(u_all[x]) + F(v_all[y]) <= cost(x, y) for x in window for y in window)
        int_u = math.fsum(math.exp(u_all[x] + mu.weight(x) - log_z) for x in window)
        int_v = math.fsum(math.exp(v_all[y] + mu.weight(y) - log_z) for y in window)
        assert int_u * int_v <= 1 + 1e-10


def test_pmf_and_logweight_costs_agree():
    # masses proportional to (1/2)^{|x|} match the weights w(x) = -|x| up to
    # the factor log 2, which passes through the cost
    mu = rational_log_concave_family("geometric-half", 8)
    gw = geometric_weights(8)
    for x in range(-8, 9):
        for y in range(-8, 9):
            assert cost_mu(mu, x, y) == pytest.approx(float(cost_mu(gw, x, y)) * math.log(2), abs=1e-9)


class _Solved(Exception):
    pass


def test_ot_cost_bounds_the_support_pairs_before_any_cost(monkeypatch):
    def solve(*args):
        raise _Solved

    monkeypatch.setattr(transport, "_successive_shortest_paths", solve)
    evaluated = []
    cost = lambda x, y: evaluated.append((x, y)) or F(0)
    with pytest.raises(_Solved):  # 50 x 50 = MAX_OT_CELLS pairs reach the solver
        ot_cost(cost, uniform_on(range(50)), uniform_on(range(50)))
    evaluated.clear()
    for side0, side1 in ((51, 50), (1, 2501)):
        with pytest.raises(ConfigError, match=f"{side0} x {side1} support points exceed"):
            ot_cost(cost, uniform_on(range(side0)), uniform_on(range(side1)))
    assert evaluated == []


@pytest.mark.parametrize("infinity", [math.inf, -math.inf])
def test_ot_cost_names_an_infinite_cost_before_solving(monkeypatch, infinity):
    calls = []
    monkeypatch.setattr(transport, "_successive_shortest_paths", lambda *args: calls.append(args))
    cost = lambda x, y: infinity if (x, y) == (2, 1) else F(x - y, 3)
    with pytest.raises(InfeasibleCost, match=r"cost infinite at \(2,1\)"):
        ot_cost(cost, uniform_on([0, 2, 3]), uniform_on([-1, 1]))
    assert calls == []


@cpython_only
def test_repeated_solves_with_duals_strand_no_tuples():
    # off-support window points, so the duals are extended; windows of 5 and 7 points
    table = {(x, y): F((3 * x - 2 * y) ** 2 + x, 7) for x in range(-3, 2) for y in range(-1, 6)}
    nu0, nu1 = from_weights(-3, [1, 0, 2, 0, 3]), from_weights(-1, [2, 0, 0, 1, 1, 0, 4])
    result = ot_cost(lambda x, y: table[(x, y)], nu0, nu1, want_duals=True)
    assert len(result.dual_u.values) == 5 and len(result.dual_v.values) == 7
    # a tuple built from a generator strands one block per build: about 2,000 over these calls
    grown = allocated_block_growth(lambda: ot_cost(lambda x, y: table[(x, y)], nu0, nu1, want_duals=True), 1000)
    assert grown < 300
