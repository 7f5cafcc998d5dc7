import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import pmf_strategy
from discretepl.coupling import _from_cells, pushforward
from discretepl.errors import NegativeMass, NotNormalized
from discretepl.measures import (
    Pmf,
    RealFn,
    _canonical,
    _uniform_ints,
    counting_entropy,
    delta,
    dual_gap,
    expectation,
    from_weights,
    gibbs_optimizer,
    left_sum,
    log_laplace,
    pmf,
    relative_entropy,
    to_common_unit,
    uniform_on,
)

F = Fraction


def test_left_sum_adds_left_to_right_on_every_interpreter():
    # Python 3.12's sum() compensates the rounding and gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert left_sum(iter([0.1] * 10)) == 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1
    empty = left_sum([])
    assert empty == 0 and type(empty) is int
    assert left_sum([F(1, 3), F(2, 3)]) == 1


def test_pmf_point_mass():
    assert pmf(0, [1]) == Pmf(0, (1,), 1)


def _assert_canonical(nu):
    assert all(type(w) is int and w >= 0 for w in nu.weights) and type(nu.total) is int
    assert nu.weights[0] > 0 and nu.weights[-1] > 0
    assert math.gcd(*nu.weights) == 1 and sum(nu.weights) == nu.total


_weight = st.integers(0, 40) | st.fractions(min_value=0, max_value=5, max_denominator=30)


@given(st.integers(-9, 9), st.lists(_weight, min_size=1, max_size=12).filter(any))
@settings(max_examples=150)
def test_every_builder_gives_the_canonical_form(offset, values):
    expected = oracles.normalized_window(offset, values)
    total = sum(map(F, values))
    # the second marginal spreads each mass over two columns, so it differs from the first
    ints, _ = to_common_unit(values)
    cells = [(offset + i, c, w) for i, w in enumerate(ints) for c in (i % 3, i * i % 5)]
    pi = _from_cells(cells, 2 * sum(ints))
    built = [from_weights(offset, values), pmf(offset, [F(v) / total for v in values]), pi.marginal0]
    for nu in built:
        _assert_canonical(nu)
        assert (nu.offset, nu.masses) == expected
    _assert_canonical(pi.marginal1)
    sums: dict[int, int] = {}
    for _, y, w in cells:
        sums[y] = sums.get(y, 0) + w
    assert (pi.marginal1.offset, pi.marginal1.masses) == oracles.normalized_window(0, [sums.get(y, 0) for y in range(5)])


@pytest.mark.parametrize(
    "offset, ints, divisor",
    [
        (0, [0, 0, 3, 1, 0], 1),  # zeros at both ends
        (-4, [0, 6, 0, 0, 4, 0, 0], 2),  # zeros at both ends and inside
        (3, [2, 0, 7], 1),  # an interior zero, nothing to trim
        (-2, [0, 0, 9, 3, 6], 3),  # a leading run only
        (5, [4, 8, 0, 0], 4),  # a trailing run only
        (7, [0, 0, 0, 5, 0], 5),  # one point
        (-1, [1], 1),
    ],
)
def test_canonical_trims_both_ends_and_divides_only_by_a_gcd_above_one(offset, ints, divisor):
    nu = _canonical(offset, ints, sum(ints))
    _assert_canonical(nu)
    assert (nu.offset, nu.masses) == oracles.normalized_window(offset, ints)
    assert nu.total * divisor == sum(ints)
    start = nu.offset - offset
    assert [w * divisor for w in nu.weights] == ints[start : start + len(nu.weights)]


def test_equal_measures_built_different_ways_compare_and_hash_equal():
    built = [
        from_weights(2, [2, 0, 4]),
        from_weights(2, [F(1, 6), 0, F(1, 3)]),
        from_weights(2, [0.5, 0.0, 1.0]),
        from_weights(0, [0, 0, 7, 0, 14, 0]),
        pmf(2, [F(1, 3), 0, F(2, 3)]),
        pmf(0, [0, 0, F(1, 3), 0, F(2, 3), 0]),
        _from_cells([(2, 0, 2), (4, 0, 1), (4, 1, 3)], 6).marginal0,
        pushforward(_from_cells([(1, 1, 1), (2, 2, 2)], 3), lambda x, y: x + y),
    ]
    assert all(nu == Pmf(2, (1, 0, 2), 3) for nu in built)
    assert len({hash(nu) for nu in built}) == 1
    assert from_weights(2, [1, 0, 2]) != from_weights(2, [2, 0, 1]) and from_weights(2, [1, 2]) != from_weights(3, [1, 2])


def test_pmf_reads_its_weights_over_the_total():
    nu = from_weights(-1, [3, 0, 6, 9])
    assert (nu.offset, nu.weights, nu.total) == (-1, (1, 0, 2, 3), 6)
    assert nu.masses == (F(1, 6), F(0), F(1, 3), F(1, 2))
    assert [nu.weight(x) for x in range(-3, 5)] == [0, 0, 1, 0, 2, 3, 0, 0]
    assert [nu.mass(x) for x in (-2, -1, 0, 1, 2, 3)] == [0, F(1, 6), 0, F(1, 3), F(1, 2), 0]
    assert nu.support_points() == [-1, 1, 2] and str(nu) == "-1; 1/6 0 1/3 1/2"


@pytest.mark.parametrize(
    "build, error, text",
    [
        (lambda: pmf(0, [F(3, 2), F(-1, 2)]), NegativeMass, "negative mass -1/2"),
        (lambda: from_weights(0, [3, -1]), NegativeMass, "negative mass -1/2"),
        (lambda: from_weights(0, [F(1, 2), -0.25, 1]), NegativeMass, "negative mass -1/5"),
        (lambda: pmf(0, [F(1, 3), F(1, 3), F(1, 4)]), NotNormalized, "masses sum to 1 - (1/12); deficit 1/12"),
        (lambda: from_weights(0, [1, -1]), NotNormalized, "masses sum to 1 - (1); deficit 1"),
        (lambda: pmf(0, []), NotNormalized, "masses sum to 1 - (1); deficit 1"),
        (lambda: _from_cells([(0, 0, 3), (1, 0, 2)], 6), NotNormalized, "masses sum to 1 - (1/6); deficit 1/6"),
    ],
)
def test_builders_keep_their_error_texts(build, error, text):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == text


def test_pmf_gap_support():
    nu = pmf(0, [F(1, 2), 0, F(1, 2)])
    assert nu.support_points() == [0, 2]
    assert nu.mass(1) == 0


def test_pmf_not_normalized_deficit():
    with pytest.raises(NotNormalized) as err:
        pmf(0, [F(1, 3), F(1, 3), F(1, 4)])
    assert err.value.deficit == F(1, 12)


def test_pmf_negative_mass():
    with pytest.raises(NegativeMass):
        pmf(0, [F(3, 2), F(-1, 2)])


def test_pmf_trims_zeros():
    nu = pmf(-3, [0, 0, F(1, 2), F(1, 2), 0])
    assert nu.offset == -1
    assert len(nu.masses) == 2


def test_entropy_point_mass_is_zero():
    assert counting_entropy(delta(0)) == 0.0


def test_entropy_two_equal_atoms():
    assert counting_entropy(uniform_on([0, 1])) == pytest.approx(-math.log(2), abs=1e-12)


def test_entropy_quarter_three_quarters_against_mpmath():
    import mpmath

    mpmath.mp.dps = 50
    expected = float(
        mpmath.mpf(1) / 4 * mpmath.log(mpmath.mpf(1) / 4) + mpmath.mpf(3) / 4 * mpmath.log(mpmath.mpf(3) / 4)
    )
    got = counting_entropy(pmf(0, [F(1, 4), F(3, 4)]))
    assert got == pytest.approx(expected, abs=1e-14)


@given(pmf_strategy())
@settings(max_examples=150)
def test_pmf_invariants(nu):
    assert sum(nu.masses, F(0)) == 1
    assert nu.masses[0] > 0 and nu.masses[-1] > 0
    # trimming is idempotent
    assert pmf(nu.offset, nu.masses) == nu


def test_pmf_invariants_large_seeded_batch(rng):
    from discretepl.campaign import random_pmf

    for _ in range(1000):
        nu = random_pmf(rng, 20, 32)
        assert sum(nu.masses, F(0)) == 1
        assert pmf(nu.offset, nu.masses) == nu


@given(pmf_strategy())
@settings(max_examples=80)
def test_entropy_translation_invariant(nu):
    for shift in (17, -5):
        assert counting_entropy(Pmf(nu.offset + shift, nu.weights, nu.total)) == counting_entropy(nu)


def test_relative_entropy_identical_is_exactly_zero():
    nu = from_weights(-2, [1, 5, 2])
    assert relative_entropy(nu, nu) == 0.0


def test_relative_entropy_single_atom_ratio():
    assert relative_entropy(delta(1), uniform_on([0, 1])) == pytest.approx(math.log(2), abs=1e-12)


def test_relative_entropy_support_violation():
    assert relative_entropy(delta(2), uniform_on([0, 1])) == math.inf


def test_relative_entropy_nonnegative_and_positive_off_diagonal(rng):
    for _ in range(300):
        nu = from_weights(0, [rng.randint(1, 20) for _ in range(rng.randint(1, 8))])
        mu = from_weights(0, [rng.randint(1, 20) for _ in range(rng.randint(1, 8))])
        kl = relative_entropy(nu, mu)
        assert kl >= -1e-12
        if nu == mu:
            assert kl == 0.0
    # a visible mass difference forces a strictly positive divergence
    nu = pmf(0, [F(1, 2), F(1, 2)])
    mu = pmf(0, [F(1, 4), F(3, 4)])
    assert relative_entropy(nu, mu) > 1e-3


def test_log_laplace_counting_singleton():
    assert log_laplace(RealFn(5, (0.0,))) == 0.0


def test_log_laplace_counting_log3():
    phi = RealFn(0, (0.0, math.log(3)))
    assert log_laplace(phi) == pytest.approx(math.log(4), abs=1e-12)


def test_gibbs_uniform_fixpoint():
    # a constant phi leaves the counting weights as they are: the uniform pmf on the window
    assert gibbs_optimizer(RealFn(0, (0.0, 0.0))) == uniform_on([0, 1])
    assert gibbs_optimizer(RealFn(-3, (2.5,) * 7)) == uniform_on(range(-3, 4))


def test_gibbs_log3_counting():
    phi = RealFn(0, (0.0, math.log(3)))
    nu = gibbs_optimizer(phi)
    assert abs(float(nu.mass(0)) - 0.25) < 1e-12
    assert abs(float(nu.mass(1)) - 0.75) < 1e-12


def test_dual_gap_vanishes(rng):
    for _ in range(60):
        width = rng.randint(1, 30)
        phi = RealFn(rng.randint(-10, 10), tuple(rng.uniform(-4, 4) for _ in range(width)))
        gap = dual_gap(phi)
        assert -1e-12 <= gap <= 1e-10


def test_duality_upper_bound_over_random_measures(rng):
    # int phi dnu - H(nu) never beats the log-Laplace transform, with
    # equality attained at the Gibbs optimizer
    for _ in range(500):
        width = rng.randint(1, 30)
        offset = rng.randint(-10, 10)
        phi = RealFn(offset, tuple(rng.uniform(-4, 4) for _ in range(width)))
        bound = log_laplace(phi)
        for _ in range(100):
            nu = from_weights(offset, [rng.randint(0, 6) or 1 for _ in range(width)])
            value = expectation(phi, nu) - counting_entropy(nu)
            assert value <= bound + 1e-10
        nu_star = gibbs_optimizer(phi)
        attained = expectation(phi, nu_star) - counting_entropy(nu_star)
        assert attained == pytest.approx(bound, abs=1e-10)


def test_to_common_unit_scales_by_the_least_common_denominator():
    assert to_common_unit([]) == ([], 1)
    assert to_common_unit([3, -2, 0]) == ([3, -2, 0], 1)
    assert to_common_unit([F(1, 4), F(-1, 6), 2]) == ([3, -2, 24], 12)
    assert to_common_unit([F(2, 4), F(3, 6)]) == ([1, 1], 2)  # reduced denominators, not 4 and 6
    assert to_common_unit([0.5, -0.375, F(1, 3)]) == ([12, -9, 8], 24)
    # a float is its exact binary value, not the decimal it prints as
    assert to_common_unit([0.1, F(1, 10)]) == ([3602879701896397 * 5, 2**54], 5 * 2**55)


def test_to_common_unit_gives_none_for_a_scale_past_max_bits():
    assert to_common_unit([F(1, 256), 3], max_bits=9) == ([1, 768], 256)
    assert to_common_unit([F(1, 512), 3], max_bits=9) is None
    assert to_common_unit([F(1, 3), F(1, 5), F(1, 7)], max_bits=7) == ([35, 21, 15], 105)
    assert to_common_unit([F(1, 3), F(1, 5), F(1, 7), F(1, 11)], max_bits=10) is None  # the lcm, 1155


def test_to_common_unit_with_max_bits_agrees_with_the_full_lcm_on_both_sides_of_the_cap():
    # up to 300 values cross the 64-value chunks whose partial lcm is compared with the cap, and a rare
    # long denominator can push the lcm past it in any chunk
    rng = random.Random(17)
    for _ in range(300):
        values = []
        for _ in range(rng.randint(0, 300)):
            q = rng.randint(2**12, 2**24) if rng.random() < 0.02 else rng.randint(1, 16)
            values.append(rng.choice([F(rng.randint(-99, 99), q), rng.randint(-9, 9), rng.random()]))
        scale = math.lcm(*[F(v).denominator for v in values])
        full = ([int(F(v) * scale) for v in values], scale)
        bits = scale.bit_length()
        for cap in (bits - 1, bits, rng.randint(0, 2 * bits)):
            assert to_common_unit(values, max_bits=cap) == (None if bits > cap else full)


@given(st.lists(st.fractions(max_denominator=60) | st.integers(-99, 99) | st.floats(-1e6, 1e6), max_size=12))
def test_to_common_unit_is_exact(values):
    ints, scale = to_common_unit(values)
    assert all(type(i) is int for i in ints) and scale >= 1
    assert [F(i, scale) for i in ints] == [F(v) for v in values]
    assert scale == math.lcm(*[F(v).denominator for v in values])


def _two_branch_unit(values):
    """to_common_unit as it read ints and Fractions by numerator and denominator, and the rest by as_integer_ratio."""
    ratios = [(v.numerator, v.denominator) if isinstance(v, (int, F)) else v.as_integer_ratio() for v in values]
    scale = math.lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


_UNIT_VALUES = [0, 7, -12, True, False, F(-3, 8), F(5, 1), F(10**30 + 1, 3**40)]
_UNIT_VALUES += [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -0.1, 2.5]


@pytest.mark.parametrize("values", [[v] for v in _UNIT_VALUES] + [_UNIT_VALUES, [True, F(1, 3), -0.0, 5e-324]])
def test_to_common_unit_reads_every_value_as_the_two_branch_formula_did(values):
    numpy = pytest.importorskip("numpy")
    for vs in (values, values + [numpy.float64(-0.375), numpy.float64(5e-324)]):
        ints, scale = to_common_unit(vs)
        assert (ints, scale) == _two_branch_unit(vs)
        assert all(type(i) is int for i in [*ints, scale])


@given(st.lists(st.fractions() | st.integers() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)))
def test_to_common_unit_matches_the_two_branch_formula(values):
    assert to_common_unit(values) == _two_branch_unit(values)


@pytest.mark.parametrize("bad, error", [(math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)])
def test_to_common_unit_rejects_nan_and_infinities_as_before(bad, error):
    for values in ([bad], [F(1, 3), 2, bad], [True, bad, 0.5]):
        with pytest.raises(error) as before:
            _two_branch_unit(values)
        with pytest.raises(error) as now:
            to_common_unit(values)
        assert str(now.value) == str(before.value)


class _Unscalable:
    """A numerator that fails when it is scaled."""

    def __mul__(self, other):
        raise AssertionError("a value was scaled")


class _LongDenominator:
    def as_integer_ratio(self):
        return _Unscalable(), 3**40


def test_to_common_unit_gives_none_past_max_bits_before_scaling_any_value():
    assert to_common_unit([F(1, 2), _LongDenominator()], max_bits=64) is None
    with pytest.raises(AssertionError, match="scaled"):
        to_common_unit([F(1, 2), _LongDenominator()], max_bits=65)


@pytest.mark.parametrize(
    "lo, hi",
    [(5, 5), (0, 1), (1, 64), (1, 63), (1, 65), (-7, 2**20 - 8), (1, 2**20 - 1), (1, 2**20 + 1), (1, 10**9), (1, 10**30)],
    ids=["size-1", "size-2", "size-64", "size-2^6-1", "size-2^6+1", "size-2^20", "size-2^20-1", "size-2^20+1", "1e9", "1e30"],
)
def test_uniform_ints_are_the_randint_stream(lo, hi):
    # the campaigns' weights, and so every report hash, rest on this equality on each supported Python
    for seed in range(100):
        expected, drawn = random.Random(f"{seed}:draws"), random.Random(f"{seed}:draws")
        for count in (0, 1, 2, 7, 40):
            assert _uniform_ints(drawn, count, lo, hi) == [expected.randint(lo, hi) for _ in range(count)]
            assert drawn.getstate() == expected.getstate()


def test_uniform_ints_reject_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        _uniform_ints(random.Random(1), 3, 1, 0)
