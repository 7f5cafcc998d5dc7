import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import allocated_block_growth, cpython_only, pmf_strategy
from discretepl import displacement
from discretepl.campaign import random_pmf
from discretepl.coupling import _from_cells, monotone_coupling, pushforward
from discretepl.displacement import (
    LevelSet,
    chain_diagnostics,
    displacement_gap,
    floor_ceil_iffs,
    level_sets,
    m_minus,
    m_plus,
    midpoint_measures,
    pair_ratio_sum,
)
from discretepl.errors import NotMonotone, PreconditionViolated
from discretepl.limits import PointMass, UniformInterval
from discretepl.measures import (
    INEQ_SLACK,
    SUM_SLACK,
    ZERO,
    _repeats,
    counting_entropy,
    delta,
    from_weights,
    pmf,
    relative_entropy,
    uniform_on,
)

F = Fraction


def brute_force_ratio_sum(nu0, nu1):
    """Re-summation oracle: rebuild the midpoint measures from scratch and sum
    the ratio over a full window product, skipping zero-mass pairs."""
    pi = monotone_coupling(nu0, nu1)
    mass = {(x, y): p for x, y, p in pi.atoms}
    minus, plus = {}, {}
    for (x, y), p in mass.items():
        minus[m_minus(x, y)] = minus.get(m_minus(x, y), ZERO) + p
        plus[m_plus(x, y)] = plus.get(m_plus(x, y), ZERO) + p
    total = ZERO
    for x in nu0.window():
        for y in nu1.window():
            p = mass.get((x, y), ZERO)
            if p == 0:
                continue
            total += minus[m_minus(x, y)] * plus[m_plus(x, y)] * p / (nu0.mass(x) * nu1.mass(y))
    return total


def test_midpoints_of_even_gap():
    pair = midpoint_measures(delta(0), delta(2))
    assert pair.nu_minus == delta(1) and pair.nu_plus == delta(1)


def test_midpoints_floor_ceil_split():
    pair = midpoint_measures(delta(0), delta(1))
    assert pair.nu_minus == delta(0) and pair.nu_plus == delta(1)


def test_midpoints_worked_instance():
    pair = midpoint_measures(uniform_on([0, 2]), delta(1))
    assert pair.nu_minus == uniform_on([0, 1])
    assert pair.nu_plus == uniform_on([1, 2])


def _reference_cell_factors(pair):
    """(w, nu-(m-) nu+(m+), nu0(x) nu1(y)) for each cell (x, y, w), through m_minus, m_plus and `Pmf.weight`."""
    nu0, nu1, lo, hi = pair.pi.marginal0, pair.pi.marginal1, pair.nu_minus, pair.nu_plus
    return [
        (w, lo.weight(m_minus(x, y)) * hi.weight(m_plus(x, y)), nu0.weight(x) * nu1.weight(y))
        for x, y, w in pair.pi.cells
    ]


def _assert_the_staircase_pass_matches_its_references(nu0, nu1):
    pair = midpoint_measures(nu0, nu1)
    assert pair.pi == monotone_coupling(nu0, nu1)
    # the general image under each midpoint map, and the Fraction sums over the quantile coupling
    assert pair.nu_minus == pushforward(pair.pi, m_minus)
    assert pair.nu_plus == pushforward(pair.pi, m_plus)
    _, floor_mass, ceil_mass = oracles.midpoint_masses(nu0, nu1)
    assert dict(oracles.support(pair.nu_minus)) == floor_mass
    assert dict(oracles.support(pair.nu_plus)) == ceil_mass
    assert displacement._cell_factors(pair) == _reference_cell_factors(pair)


_pmfs_or_deltas = pmf_strategy() | st.builds(delta, st.integers(-10, 10))


@given(_pmfs_or_deltas, _pmfs_or_deltas)
@settings(max_examples=200, deadline=None)
def test_the_staircase_pass_is_the_pushforward_of_each_midpoint_map(nu0, nu1):
    _assert_the_staircase_pass_matches_its_references(nu0, nu1)


def _sparse_pmf(rng, resolution):
    """Up to 40 weights in 1..resolution, about half of them zeroed, at an offset in -30..30."""
    weights = [rng.choice((0, rng.randint(1, resolution))) for _ in range(rng.randint(1, 40))]
    weights[rng.randrange(len(weights))] = rng.randint(1, resolution)
    return from_weights(rng.randint(-30, 30), weights)


def test_the_staircase_pass_is_the_pushforward_of_each_midpoint_map_at_resolution_1e9(rng):
    for _ in range(200):
        _assert_the_staircase_pass_matches_its_references(_sparse_pmf(rng, 10**9), _sparse_pmf(rng, 10**9))


def test_ratio_sum_single_atom():
    assert pair_ratio_sum(midpoint_measures(delta(0), delta(0))) == 1


def test_ratio_sum_worked_instance():
    assert pair_ratio_sum(midpoint_measures(uniform_on([0, 2]), delta(1))) == F(1, 2)


def test_ratio_sum_against_brute_force(rng):
    for _ in range(300):
        nu0 = random_pmf(rng, 15, 24)
        nu1 = random_pmf(rng, 15, 24)
        p = pair_ratio_sum(midpoint_measures(nu0, nu1))
        assert p == brute_force_ratio_sum(nu0, nu1)
        assert displacement_gap(nu0, nu1).ratio_sum == p
        assert p <= 1


def test_ratio_sum_equality_for_identical_unit_support(rng):
    for _ in range(100):
        width = rng.randint(1, 12)
        nu = from_weights(rng.randint(-6, 6), [rng.randint(1, 9) for _ in range(width)])
        assert pair_ratio_sum(midpoint_measures(nu, nu)) == 1


def test_gap_zero_for_shifted_diracs():
    assert displacement_gap(delta(0), delta(2)).gap == 0.0


def test_gap_worked_instance_is_log2():
    report = displacement_gap(uniform_on([0, 2]), delta(1))
    assert report.gap == pytest.approx(math.log(2), abs=1e-10)
    assert report.ratio_sum == F(1, 2)


def test_report_holds_needs_all_three_bounds():
    report = displacement_gap(uniform_on([0, 2]), delta(1))
    assert report.holds
    assert not replace(report, gap=-1e-9).holds
    assert not replace(report, ratio_sum=F(3, 2)).holds
    assert not replace(report, jensen_certificate=report.log_ratio_sum + 1e-9).holds


def test_report_holds_at_each_bound_and_fails_one_float_past_it():
    # a report exactly at a bound holds; one float (or one rational hair) beyond it fails, so neither
    # non-strict comparison in `holds` can turn strict unnoticed
    report = displacement_gap(uniform_on([0, 2]), delta(1))
    jensen_bound = report.log_ratio_sum + SUM_SLACK
    at_bound = {"gap": -INEQ_SLACK, "jensen_certificate": jensen_bound, "ratio_sum": F(1)}
    past_bound = {
        "gap": math.nextafter(-INEQ_SLACK, -math.inf),
        "jensen_certificate": math.nextafter(jensen_bound, math.inf),
        "ratio_sum": F(10**30 + 1, 10**30),
    }
    for field, value in at_bound.items():
        assert replace(report, **{field: value}).holds, field
        assert not replace(report, **{field: past_bound[field]}).holds, field


def test_gap_zero_on_diagonal():
    nu = from_weights(3, [2, 5, 1])
    assert displacement_gap(nu, nu).gap == pytest.approx(0.0, abs=1e-12)


@given(pmf_strategy(), pmf_strategy())
@settings(max_examples=150, deadline=None)
def test_displacement_properties(nu0, nu1):
    report = displacement_gap(nu0, nu1)
    assert report.ratio_sum <= 1
    assert report.gap >= -1e-12
    # the Jensen certificate is -gap and is dominated by log P
    assert report.jensen_certificate == pytest.approx(-report.gap, abs=1e-9)
    assert report.jensen_certificate <= report.log_ratio_sum + 1e-10
    # mass centers are conserved exactly
    pair = report.pair
    assert _mean(pair.nu_minus) + _mean(pair.nu_plus) == _mean(nu0) + _mean(nu1)


def _mean(nu):
    return sum((x * m for x, m in oracles.support(nu)), ZERO)


def test_level_sets_single_atom():
    sets = level_sets(_from_cells([(0, 1, 1)], 1))
    assert len(sets) == 1 and sets[0].a == 0 and sets[0].pairs == ((0, 1),)


def test_level_sets_two_atom_level():
    pi = _from_cells([(0, 0, 1), (0, 1, 1)], 2)
    sets = level_sets(pi)
    assert len(sets) == 1 and sets[0].pairs == ((0, 0), (0, 1))


def test_level_sets_singletons():
    pi = _from_cells([(0, 0, 1), (2, 2, 1)], 2)
    assert [ls.a for ls in level_sets(pi)] == [0, 2]
    assert all(len(ls.pairs) == 1 for ls in level_sets(pi))


@pytest.mark.parametrize(
    "pairs, holds",
    [
        (((0, 1),), True),
        (((0, 0), (0, 1)), True),
        (((2, 0), (3, 0)), True),
        (((1, 0), (1, 1)), False),  # odd lower sum: the two atoms have different floors
        (((0, 0), (1, 1)), False),  # not neighbours
        (((0, 0), (2, -1)), False),  # same floor, but not neighbours
        (((0, 0), (0, 1), (1, 0)), False),
    ],
)
def test_level_set_card_lemma_predicate(pairs, holds):
    assert LevelSet(0, pairs).card_holds is holds


def test_level_sets_are_immutable_values():
    a, b = LevelSet(3, ((6, 0), (6, 1))), LevelSet(3, ((6, 0), (6, 1)))
    assert a == b and hash(a) == hash(b) and a != LevelSet(3, ((6, 0),))
    assert (a.a, a.pairs, a.card_holds) == (3, ((6, 0), (6, 1)), True)
    with pytest.raises(AttributeError):
        a.a = 4


def test_level_sets_reject_non_monotone():
    pi = _from_cells([(0, 1, 1), (1, 0, 1)], 2)
    with pytest.raises(NotMonotone):
        level_sets(pi)


def test_level_set_cardinality_bound(rng):
    found_two = False
    for _ in range(500):
        pi = monotone_coupling(random_pmf(rng, 12, 16), random_pmf(rng, 12, 16))
        sizes = [len(ls.pairs) for ls in level_sets(pi)]
        assert max(sizes) <= 2
        found_two = found_two or 2 in sizes
    assert found_two  # two-atom levels do occur


def test_floor_ceil_iffs_adjacent_even():
    rec = floor_ceil_iffs(0, 0, 0, 1)
    assert rec.floor_equal and rec.adjacent_even and rec.item1_iff and rec.item1_ceil_shift


def test_floor_ceil_iffs_adjacent_odd():
    rec = floor_ceil_iffs(0, 1, 1, 1)
    assert rec.floor_gap == 1 and rec.ceil_equal and rec.adjacent_odd and rec.item2_iff


def test_floor_ceil_iffs_wide_gap():
    rec = floor_ceil_iffs(0, 0, 2, 2)
    assert rec.floor_gap >= 2 and not rec.ceil_equal and rec.item2_iff


def test_floor_ceil_iffs_item2_fails_under_a_constant_ceiling(monkeypatch):
    # a planted fault: every ceiling midpoint is equal, so item 2 must fail at a floor gap of 2,
    # and at a floor gap of 1 between points that are not adjacent
    monkeypatch.setattr(displacement, "m_plus", lambda x, y: 0)
    wide = floor_ceil_iffs(0, 0, 2, 2)
    assert wide.floor_gap == 2 and wide.ceil_equal and not wide.item2_iff
    diagonal = floor_ceil_iffs(0, 0, 1, 1)
    assert diagonal.floor_gap == 1 and not diagonal.adjacent_odd and not diagonal.item2_iff


def test_floor_ceil_iffs_precondition():
    with pytest.raises(PreconditionViolated):
        floor_ceil_iffs(1, 0, 0, 0)
    with pytest.raises(PreconditionViolated):
        floor_ceil_iffs(2, 2, 2, 2)


def test_floor_ceil_iffs_exhaustive_small_window():
    for x1 in range(-5, 6):
        for y1 in range(-5, 6):
            for x2 in range(x1, 6):
                for y2 in range(y1, 6):
                    if (x1, y1) == (x2, y2):
                        continue
                    assert floor_ceil_iffs(x1, y1, x2, y2).all_hold


def test_chain_diagnostics_partition_and_bounds(rng):
    for _ in range(200):
        nu0 = random_pmf(rng, 12, 16)
        nu1 = random_pmf(rng, 12, 16)
        pair = midpoint_measures(nu0, nu1)
        records = chain_diagnostics(pair)
        # every level appears exactly once, in increasing order
        levels = [a for rec in records for a in rec.levels]
        assert levels == sorted({ls.a for ls in level_sets(pair.pi)})
        assert all(rec.bound_holds for rec in records)
        assert all(rec.plus_decomposition_exact for rec in records)
        # per-chain contributions add up to P exactly
        assert sum((rec.ratio_contribution for rec in records), ZERO) == pair_ratio_sum(pair)
        assert sum((rec.mass for rec in records), ZERO) == 1


def test_chain_diagnostics_facts_on_levels(rng):
    # nu_minus mass at a level equals the level's atom mass (definitional),
    # and within a chain nu_plus decomposes along the labelled atoms
    for _ in range(100):
        pair = midpoint_measures(random_pmf(rng, 10, 12), random_pmf(rng, 10, 12))
        mass = {(x, y): p for x, y, p in pair.pi.atoms}
        for ls in level_sets(pair.pi):
            assert pair.nu_minus.mass(ls.a) == sum((mass[p] for p in ls.pairs), ZERO)


@cpython_only
def test_repeated_ratio_sums_strand_no_tuples(rng):
    w0 = [rng.randint(1, 64) for _ in range(12)]  # under 20 points, where tuples reach the free lists
    w1 = [rng.randint(1, 64) for _ in range(7)]

    def ratio_sum():
        pair_ratio_sum(midpoint_measures(from_weights(-3, w0), from_weights(5, w1)))

    # 130-160 blocks however many calls; a Pmf tuple built from a generator added about 3,000 here
    assert allocated_block_growth(ratio_sum, 1000) < 300


@cpython_only
def test_repeated_displacement_gaps_strand_no_tuples(rng):
    nu0 = from_weights(-3, [rng.randint(1, 64) for _ in range(12)])
    nu1 = from_weights(5, [rng.randint(1, 64) for _ in range(7)])

    def gap():
        displacement_gap(nu0, nu1)

    # the growth stays flat in the number of calls; one stranded tuple per call would add 1,000
    assert allocated_block_growth(gap, 1000) < 300


#: pmf pairs at small and at 10^9 weight resolutions, where the totals run to 10^10 and beyond
_pmf_pairs = st.sampled_from([24, 10**4, 10**9]).flatmap(
    lambda resolution: st.tuples(pmf_strategy(resolution=resolution), pmf_strategy(resolution=resolution))
)


@given(_pmf_pairs)
@settings(max_examples=150, deadline=None)
def test_ratio_sum_matches_the_fraction_oracle(pair):
    nu0, nu1 = pair
    expected = oracles.ratio_sum_fraction(nu0, nu1)
    assert pair_ratio_sum(midpoint_measures(nu0, nu1)) == expected
    assert displacement_gap(nu0, nu1).ratio_sum == expected


def _fraction_relative_entropy(nu, mu):
    acc = 0.0
    for x, m in oracles.support(nu):
        q = mu.mass(x)
        if q == 0:
            return math.inf
        acc += float(m) * oracles.log_fraction(m / q)
    return acc


@given(_pmf_pairs)
@settings(max_examples=150, deadline=None)
def test_entropies_and_certificate_are_the_fraction_formulas_bit_for_bit(pair):
    nu0, nu1 = pair
    lo, hi = min(nu0.offset, nu1.offset), max(nu0.window().stop, nu1.window().stop)
    mixture = pmf(lo, [(nu0.mass(x) + nu1.mass(x)) / 2 for x in range(lo, hi)])
    report = displacement_gap(nu0, nu1)
    midpoints = report.pair
    for nu in (nu0, nu1, midpoints.nu_minus, midpoints.nu_plus):
        assert counting_entropy(nu) == oracles.counting_entropy(nu)
        assert relative_entropy(nu, mixture) == _fraction_relative_entropy(nu, mixture)
    assert relative_entropy(nu0, nu1) == _fraction_relative_entropy(nu0, nu1)
    assert report.jensen_certificate == oracles.jensen_certificate(nu0, nu1)


def _ends_positive(weights: list[int]) -> list[int]:
    return [1, *weights, 1]


def test_entropies_and_certificate_on_both_sides_of_the_repeat_test_are_the_oracles_bit_for_bit(rng):
    # laws whose weights must repeat, as in the disp rows: each distinct term is formed once
    shared = [
        from_weights(0, [1] * 52),  # float(1/52) * log(1/52) is not float(1/52) * (log 1 - log 52)
        from_weights(-3, [2, 1] * 20),
        from_weights(5, _ends_positive([rng.choice([0, 1, 1, 3]) for _ in range(46)])),
        from_weights(-7, _ends_positive([rng.randint(1, 4) for _ in range(38)])),
        UniformInterval(F(-5, 16), F(11, 16)).cell_masses(40, 1),
    ]
    # the campaigns' laws (widths <= 40, weights in 1..64), a point mass, and equal weights too large
    # for the test to see: formed term by term
    term_by_term = [
        UniformInterval(F(-1, 3), F(2, 5)).cell_masses(33, 1),
        PointMass(F(1, 5)).cell_masses(40, 1),
        *[random_pmf(rng, 40, 64) for _ in range(24)],
    ]
    assert all(_repeats(nu.total, len(nu.weights)) for nu in shared)
    assert not any(_repeats(nu.total, len(nu.weights)) for nu in term_by_term)
    sides = set()
    pairs = [*itertools.product(shared, repeat=2), *zip(term_by_term, term_by_term[1:]), *zip(shared, term_by_term)]
    for nu0, nu1 in pairs:
        report = displacement_gap(nu0, nu1)
        sides.add(_repeats(report.pair.pi.unit, len(report.pair.pi.cells)))
        for nu in (nu0, nu1, report.pair.nu_minus, report.pair.nu_plus):
            assert counting_entropy(nu).hex() == oracles.counting_entropy(nu).hex()
        assert report.jensen_certificate.hex() == oracles.jensen_certificate(nu0, nu1).hex()
    assert sides == {True, False}


def test_one_fraction_per_ratio_sum_however_many_atoms(monkeypatch):
    nu0 = from_weights(-20, list(range(1, 41)))
    nu1 = from_weights(3, list(range(40, 0, -1)))
    made = []
    build = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    pair = midpoint_measures(nu0, nu1)
    assert len(pair.pi.cells) > 40 and made == []  # the coupling and the push-forwards are ints
    pair_ratio_sum(pair)
    assert len(made) == 1
    made.clear()
    displacement_gap(nu0, nu1)
    assert len(made) == 1
