import math
import operator
from fractions import Fraction

import pytest

import oracles
from conftest import allocated_block_growth, cpython_only
from discretepl import fourfunctions
from discretepl.campaign import CampaignConfig, _fourfn_trial
from discretepl.errors import DimensionMismatch, LengthMismatch, NegativeMass, PreconditionViolated, SupportNotBinary
from discretepl.fourfunctions import (
    PHI_ENTROPY,
    MAX_UNIT_BITS,
    CubeFn,
    HypothesisCheck,
    bits_of,
    check_4ft_additive,
    check_4ft_conclusion,
    check_4ft_hypothesis,
    functional_power,
    log_mean_exp,
    random_hypothesis_quadruple,
    restrict_to_binary_cube,
)
from discretepl.measures import APPROX_TOL, RealFn, logsumexp

F = Fraction


def test_cube_function_needs_two_to_the_n_values():
    with pytest.raises(LengthMismatch, match="need 2\\^2 values, got 3"):
        CubeFn(2, (F(1), F(1), F(1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_laws_exhaustive(n):
    # the sweeps take x & y and x | y of the indices as the meet and join of the points bits_of reports
    for x in range(2**n):
        for y in range(2**n):
            bx, by, low, high = bits_of(x, n), bits_of(y, n), bits_of(x & y, n), bits_of(x | y, n)
            assert low == tuple(map(min, bx, by)) and high == tuple(map(max, bx, by))
            assert tuple(map(sum, zip(low, high))) == tuple(map(sum, zip(bx, by)))


def test_hypothesis_all_ones():
    ones = CubeFn(2, (F(1),) * 4)
    assert check_4ft_hypothesis(ones, ones, ones, ones).ok


def test_hypothesis_witness():
    f = CubeFn(1, (F(2), F(0)))
    h = CubeFn(1, (F(1), F(1)))
    res = check_4ft_hypothesis(f, f, h, h)
    assert not res.ok
    assert res.witness == ((0,), (0,), F(4), F(1))


def test_integer_sweep_matches_a_brute_force_fraction_sweep(rng):
    outcomes = []
    for trial in range(300):
        n = 1 + trial % 5
        size = 2**n
        f, g, h, k = ([F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(size)] for _ in range(4))
        stratum = trial // 5 % 4
        if stratum == 1:  # h, k above every product: the hypothesis holds
            top = max(f + g)
            h, k = [top + v for v in h], [top + v for v in k]
        elif stratum == 2:  # the generator's quadruple, tight on the diagonal, with one f value raised a hair
            f, g, h, k = (list(q.values) for q in random_hypothesis_quadruple(rng, n, 12))
            f[rng.randrange(size)] += F(1, 10**12)
        elif stratum == 3:  # int f and h: int products must stay ints
            f, h = [rng.randint(0, 6) for _ in range(size)], [rng.randint(0, 6) for _ in range(size)]
        expected = oracles.four_functions_witness(f, g, h, k)
        result = check_4ft_hypothesis(*(CubeFn(n, tuple(v)) for v in (f, g, h, k)))
        assert result == HypothesisCheck(expected is None, expected)
        if expected is not None:
            assert [type(v) for v in result.witness] == [type(v) for v in expected]
        outcomes.append(result.ok)
    assert 60 <= outcomes.count(True) <= 240


def test_quadruples_with_long_units_are_swept_in_fractions(monkeypatch, rng):
    swept = []
    sweep = fourfunctions._first_violation
    monkeypatch.setattr(fourfunctions, "_first_violation", lambda *args: swept.append(args[1]) or sweep(*args))
    # 32 distinct 17-bit prime denominators per function give a joint unit of over 2,000 bits
    primes = [p for p in range(10**5, 10**5 + 3000) if all(p % d for d in range(2, 317))]
    for denominators, in_ints in (([rng.randint(1, 12) for _ in range(128)], True), (rng.sample(primes, 128), False)):
        f, g, h, k = ([F(rng.randint(0, 2 * q), q) for q in denominators[i::4]] for i in range(4))
        h, k = [4 + v for v in h], [4 + v for v in k]  # the hypothesis holds: every pair is swept
        for quad in ((f, g, h, k), ([f[0] * 20] + f[1:], g, h, k)):
            fns = [CubeFn(5, tuple(v)) for v in quad]
            expected = oracles.four_functions_witness(*quad)
            assert check_4ft_hypothesis(*fns) == HypothesisCheck(expected is None, expected)
            assert (expected is None) == (quad[0] is f)
            unit = math.lcm(*[v.denominator for vs in quad for v in vs])
            assert (unit.bit_length() <= MAX_UNIT_BITS) == in_ints
            values = swept.pop()
            if in_ints:
                assert all(type(v) is int for vs in values for v in vs)
            else:
                assert values == [fn.values for fn in fns]


def test_one_unit_keeps_swept_ints_inside_the_screens_image_range(monkeypatch, rng):
    # ten distinct 21-bit prime denominators per function: each function's own unit is about 210 bits,
    # within MAX_UNIT_BITS, but f's ints cross-multiplied by the units of h and k ran past 2^600, where no
    # image proves a pair and every pair went to the exact recheck
    swept = []
    sweep = fourfunctions._first_violation
    monkeypatch.setattr(fourfunctions, "_first_violation", lambda *args: swept.append(args[1]) or sweep(*args))
    primes = [p for p in range(2**20, 2**20 + 1000) if all(p % d for d in range(2, 1449))]
    for n in (4, 6):
        for shared in (False, True):  # own primes per function (joint unit over 800 bits), or the same ten for all
            quad = []
            for j in range(4):
                ps = primes[:10] if shared else primes[10 * j : 10 * j + 10]
                lift = 10**6 if j >= 2 else 0  # h and k above every f g product: the hypothesis holds
                quad.append([lift + F(rng.randint(1, q), q) for q in (ps[i % 10] for i in range(2**n))])
            units = [math.lcm(*[v.denominator for v in vs]) for vs in quad]
            assert all(200 <= unit.bit_length() <= MAX_UNIT_BITS for unit in units)
            assert max(quad[0]) * units[0] * units[2] * units[3] > 2**511  # f's largest cross-scaled int
            at = rng.randrange(2**n // 2, 2**n)
            for planted in (quad, [quad[0][:at] + [F(10**13)] + quad[0][at + 1 :], *quad[1:]]):
                expected = oracles.four_functions_witness(*planted)
                result = check_4ft_hypothesis(*(CubeFn(n, tuple(vs)) for vs in planted))
                assert result == HypothesisCheck(expected is None, expected)
                assert (expected is None) == (planted is quad)
                values = swept.pop()
                if shared:
                    assert all(type(v) is int and 0 <= v < 2**511 for vs in values for v in vs)
                else:
                    assert values == [tuple(vs) for vs in planted]


def test_a_negative_value_is_rejected_on_every_sweep_path(rng):
    # rationals in a short joint unit are tested on their scaled ints, floats and rationals in a unit
    # over MAX_UNIT_BITS bits value by value; -0.0 and 0 are not negative
    primes = [p for p in range(10**5, 10**5 + 3000) if all(p % d for d in range(2, 317))]
    draws = {
        "rational": lambda i: F(rng.randint(0, 6), rng.randint(1, 6)),
        "float": lambda i: rng.choice((0.0, -0.0, 0.5, 1.25)),
        "long unit": lambda i: F(rng.randint(0, 10**5), primes[i]),
    }
    for path, draw in draws.items():
        quad = [[draw(i) for i in range(j, 128, 4)] for j in range(4)]
        unit = math.lcm(*[F(v).denominator for vs in quad for v in vs])
        assert (unit.bit_length() > MAX_UNIT_BITS) == (path == "long unit")
        check_4ft_hypothesis(*(CubeFn(5, tuple(vs)) for vs in quad))
        for which in range(4):
            values = list(quad[which])
            at = rng.randrange(32)
            values[at] = -0.5 if path == "float" else -values[at] - F(1, primes[0] if path == "long unit" else 3)
            fns = [CubeFn(5, tuple(values if i == which else vs)) for i, vs in enumerate(quad)]
            with pytest.raises(NegativeMass, match="multiplicative form needs non-negative values"):
                check_4ft_hypothesis(*fns)


def test_float_quadruples_are_swept_in_floats():
    # f(x)g(y) equals h(x^y)k(xvy) in floats, but the exact binary values of the floats give lhs > rhs
    f = CubeFn(1, (0.41, 0.41))
    h = CubeFn(1, (2.29, 2.29))
    k = CubeFn(1, (0.07340611353711789,) * 2)
    assert 0.41 * 0.41 == 2.29 * 0.07340611353711789
    assert F(0.41) * F(0.41) > F(2.29) * F(0.07340611353711789)
    assert check_4ft_hypothesis(f, f, h, k) == HypothesisCheck(True, None)


def _oracle_sweep(n, quad):
    """check_4ft_hypothesis on a numpy-swept dimension, asserted equal to the oracle; its verdict."""
    assert n > fourfunctions.LOOP_MAX_DIM
    expected = oracles.four_functions_witness(*quad)
    result = check_4ft_hypothesis(*(CubeFn(n, tuple(vs)) for vs in quad))
    assert result == HypothesisCheck(expected is None, expected)
    if expected is not None:
        assert [type(v) for v in result.witness] == [type(v) for v in expected]
    return result.ok


def _log_supermodular(rng, n):
    # u(x) = prod r_i^{x_i} s^{C(|x|, 2)}: the product is modular and C(|x|, 2) convex in |x|
    ratios = [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    s = rng.randint(1, 3)
    return [math.prod(r for i, r in enumerate(ratios) if x >> i & 1) * s ** math.comb(x.bit_count(), 2) for x in range(2**n)]


def test_screened_sweeps_match_the_oracle_on_valid_and_violating_quadruples(rng):
    verdicts = []
    for n in (5, 5, 5, 6, 6, 6, 7, 8):
        u = _log_supermodular(rng, n)
        a, b, c = (F(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(3))
        d = a * b / c * F(rng.randint(8, 12), 8)  # d = ab/c makes every comparable pair a tie
        quad = [[scale * v for v in u] for scale in (a, b, c, d)]
        verdicts.append(_oracle_sweep(n, quad))
        if n < 8:  # one f value raised by 1 ppm past the tie, late in the sweep
            at = rng.randrange(2**n // 2, 2**n)
            quad[0][at] *= F(10**6 + 1, 10**6) * d * c / (a * b)
            verdicts.append(_oracle_sweep(n, quad))
            # random rationals: most fail on an early pair
            verdicts.append(_oracle_sweep(n, [[F(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(2**n)] for _ in range(4)]))
    assert verdicts.count(True) == 8 and verdicts.count(False) == 14


def test_screened_sweeps_compare_exact_ties_exactly(rng):
    # (alpha u, beta u, alpha u, beta u) ties on every comparable pair, where the screen proves nothing
    for n in (5, 6):
        f, g, h, k = (list(q.values) for q in random_hypothesis_quadruple(rng, n, 1000))
        assert _oracle_sweep(n, (f, g, h, k))
        for at in (0, 2**n - 1):
            raised = f[:at] + [f[at] * F(10**15 + 1, 10**15)] + f[at + 1 :]
            assert not _oracle_sweep(n, (raised, g, h, k))


def test_screened_sweeps_see_a_one_unit_violation_below_float_resolution(rng):
    # 200-bit ints one unit apart have the same float image, so only the exact recheck tells the pairs apart
    n = 6
    u = [rng.getrandbits(200) | 1 << 199 for _ in range(2**n)]
    top, ones = [max(u)] * 2**n, [1] * 2**n
    assert _oracle_sweep(n, (u, ones, top, ones))
    assert _oracle_sweep(n, (top, ones, top, ones))  # every pair an exact tie
    for at in (5, 2**n - 3):
        planted = u[:at] + [top[0] + 1] + u[at + 1 :]
        assert float(planted[at]) == float(top[0])
        assert not _oracle_sweep(n, (planted, ones, top, ones))


def test_screened_sweeps_handle_ints_past_the_float_range(rng):
    n = 5
    f, g = ([rng.getrandbits(1100) for _ in range(2**n)] for _ in range(2))
    top = max(f) * max(g)
    h, k = [top + rng.getrandbits(8) for _ in range(2**n)], [1] * 2**n
    assert _oracle_sweep(n, (f, g, h, k))
    assert not _oracle_sweep(n, (f, g, h[:9] + [h[9] // 2**400] + h[10:], k))
    # a mix of short and huge ints: the short ones are screened, the huge ones compared exactly
    f = [v if i % 3 else v % 1000 for i, v in enumerate(f)]
    assert _oracle_sweep(n, (f, g, h, k))


def test_screened_sweeps_handle_long_units_with_subnormal_images(rng):
    # over 32 distinct 17-bit prime denominators per function the units pass MAX_UNIT_BITS, so the sweep runs
    # on Fractions; values near 10^-320 have subnormal images, and 10^-330 images are zero
    primes = [p for p in range(10**5, 10**5 + 3000) if all(p % d for d in range(2, 317))]
    n = 6
    scales = (F(1, 10**320), F(1, 10**330), F(1))
    quad = [[F(rng.randint(1, 9), primes[rng.randrange(len(primes))]) * rng.choice(scales) for _ in range(2**n)] for _ in range(2)]
    top = max(quad[0]) * max(quad[1])
    quad += [[top * F(rng.randint(1, 9), primes[rng.randrange(len(primes))]) + top for _ in range(2**n)], [1] * 2**n]
    assert _oracle_sweep(n, quad)
    tiny = [v * F(1, 10**320) for v in quad[2]]  # the right side underflows too
    assert not _oracle_sweep(n, (quad[0], quad[1], tiny, quad[3]))


def test_screened_sweeps_prove_no_pair_whose_float_products_leave_the_normal_range(rng):
    # products of 10^-200 underflow to 0 and products of 10^200 overflow to inf, in images that are
    # themselves normal floats; in both the exact products are one unit of 10^-400 apart or less
    n = 5
    tiny, ones, zeros = [F(1, 10**200)] * 2**n, [1] * 2**n, [0] * 2**n
    assert not _oracle_sweep(n, (tiny, tiny, zeros, ones))
    assert not _oracle_sweep(n, (tiny, tiny, [F(1, 10**400 + 1)] * 2**n, ones))
    assert _oracle_sweep(n, (tiny, tiny, [F(1, 10**400)] * 2**n, ones))
    huge = [10**200] * 2**n
    below = [10**200 - 1] * 2**n
    assert not _oracle_sweep(n, (huge, huge, below, below))
    assert _oracle_sweep(n, (huge, huge, [10**200 + rng.randint(0, 1) for _ in range(2**n)], huge))
    # a nonzero value whose image is 0
    assert not _oracle_sweep(n, ([F(1, 10**400)] + [0] * (2**n - 1), ones, zeros, ones))


def test_screened_sweeps_handle_zeros(rng):
    n = 6
    # the indicator of an up-set: f(x)g(y) = 1 puts x, y and so x v y in it, but not always x ^ y
    up = [int(x.bit_count() >= 3) for x in range(2**n)]
    ones = [1] * 2**n
    assert _oracle_sweep(n, (up, up, ones, up))
    assert not _oracle_sweep(n, (up, up, up, up))
    zeros = [0] * 2**n
    assert _oracle_sweep(n, (zeros, ones, zeros, zeros))
    assert not _oracle_sweep(n, (ones, ones, zeros, ones))
    for _ in range(4):  # sparse random values: zero products on both sides
        sparse = [[rng.choice((0, 0, 0, F(1, 3))) for _ in range(2**n)] for _ in range(4)]
        assert _oracle_sweep(n, sparse[:2] + [ones, ones])
        _oracle_sweep(n, sparse)


def test_screened_sweeps_of_mixed_floats_and_ints(rng):
    # a float among ints puts the sweep on the given values: the screen images them, and the
    # recheck compares in Python's own mixed operations, as the loop does
    n = 5
    for trial in range(6):
        f, g = ([rng.choice((rng.random(), rng.randint(0, 3), F(rng.randint(0, 9), 7))) for _ in range(2**n)] for _ in range(2))
        top = 9.0 if trial % 2 else 4
        h, k = ([rng.choice((top, 3, F(29, 7))) for _ in range(2**n)] for _ in range(2))
        _oracle_sweep(n, (f, g, h, k))
    # 0.1 * 3 = 0.30000000000000004 > 3/10 in floats, while 1/10 * 3 = 3/10 exactly
    ones = [1] * 2**n
    assert not _oracle_sweep(n, ([0.1] * 2**n, [3] * 2**n, [F(3, 10)] * 2**n, ones))
    assert _oracle_sweep(n, ([F(1, 10)] * 2**n, [3] * 2**n, [F(3, 10)] * 2**n, ones))


def test_screened_float_sweeps_are_the_loops_ieee_sweeps(rng):
    n = 6
    for scale in (1.0, 1e-160, 1e160):  # products of 1e-320 are subnormal and products of 1e320 overflow
        f, g = ([rng.random() * scale for _ in range(2**n)] for _ in range(2))
        h, k = [max(f)] * 2**n, [max(g)] * 2**n
        raised = f[:-1] + [2 * max(f)]
        for quad in ((f, g, h, k), (raised, g, h, k)):
            screened = fourfunctions._screened_violation(2**n, quad, operator.mul)
            assert screened == fourfunctions._looped_violation(2**n, quad, operator.mul)
            assert (screened is None) == (quad[0] is f or scale == 1e160)  # inf > inf is False
            if scale < 1e160:
                assert _oracle_sweep(n, quad) is (screened is None)
    # the test_float_quadruples_are_swept_in_floats near-tie, at every pair
    assert _oracle_sweep(n, ([0.41] * 2**n, [0.41] * 2**n, [2.29] * 2**n, [0.07340611353711789] * 2**n))


def _additive_oracle(quad):
    """The additive witness from the multiplicative oracle: h1(x) + h2(y) <= h3 + h4 exactly when
    2^(D(h1 - c)) 2^(D(h2 - e)) <= 2^(D(h3 - c)) 2^(D(h4 - e)), for D the common denominator."""
    denominator = math.lcm(*[F(v).denominator for vs in quad for v in vs])
    shifts = [min(quad[0] + quad[2]), min(quad[1] + quad[3])] * 2
    powers = [[F(2) ** int((v - c) * denominator) for v in vs] for vs, c in zip(quad, shifts)]
    expected = oracles.four_functions_witness(*powers)
    if expected is None:
        return None
    x, y = (sum(b << i for i, b in enumerate(bits)) for bits in expected[:2])
    low, high = x & y, x | y
    return expected[0], expected[1], float(quad[0][x] + quad[1][y]), float(quad[2][low] + quad[3][high])


def test_screened_additive_sweeps_match_the_oracle(rng):
    verdicts = []
    for n, offset in ((5, 0), (5, 2**60), (6, 0), (6, -(2**70))):
        # about 2^60 a float's resolution is 256, so the tenths of these exponents are below it
        size = 2**n
        h1, h2 = ([offset + F(rng.randint(-40, 40), rng.choice((1, 2, 5, 10))) for _ in range(size)] for _ in range(2))
        top = max(h1) + max(h2)
        # a modular h3 + h4 = top everywhere: the sums tie exactly on the pairs that reach the top
        h3 = [top / 2 - x.bit_count() for x in range(size)]
        h4 = [top / 2 + x.bit_count() for x in range(size)]
        y = h2.index(max(h2))  # the pair (all ones, y) has slack n - |y|: a tenth more fails it
        raised = h1[:-1] + [top - max(h2) + n - y.bit_count() + F(1, 10)]
        for quad in ((h1, h2, h3, h4), (raised, h2, h3, h4), (h3, h4, h3, h4)):
            expected = _additive_oracle(quad)
            out = check_4ft_additive(*(CubeFn(n, tuple(vs)) for vs in quad))
            assert (out.hypothesis_ok, out.hyp_witness) == (expected is None, expected)
            verdicts.append(out.hypothesis_ok)
            # over floats the same sweep is the loop's own float sweep
            floats = [[float(v) for v in vs] for vs in quad]
            screened = fourfunctions._screened_violation(size, floats, operator.add)
            assert screened == fourfunctions._looped_violation(size, floats, operator.add)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_multiplicative_checkers_reject_non_finite_values(bad):
    # NaN compares False, so a NaN f once passed the sweep that the conclusion fails
    ones = CubeFn(1, (1, 1))
    for which in range(4):
        fns = [CubeFn(1, (bad, 1.0)) if i == which else ones for i in range(4)]
        with pytest.raises(PreconditionViolated, match="multiplicative 4FT values must be finite"):
            check_4ft_hypothesis(*fns)
        with pytest.raises(PreconditionViolated, match="multiplicative 4FT values must be finite"):
            check_4ft_conclusion(*fns)
    # finite floats whose sum overflows are valid input, and the conclusion reports the inf it forms
    huge = CubeFn(1, (1e308, 1e308))
    assert check_4ft_conclusion(huge, ones, ones, ones) == (math.inf, 4, False)


@cpython_only
def test_repeated_sweeps_strand_no_tuples(rng):
    quads = [random_hypothesis_quadruple(rng, n, 16) for n in (1, 2, 3, 4) for _ in range(3)]
    for f, g, h, k in quads[::4]:  # raise one f value: the sweep fails and builds a witness
        quads.append((CubeFn(f.n, (f.values[0] * 2,) + f.values[1:]), g, h, k))
    assert [check_4ft_hypothesis(*quad).ok for quad in quads].count(False) == 3

    def sweeps():
        for quad in quads:
            check_4ft_hypothesis(*quad)

    # 4,500 sweeps; a tuple built from a generator strands one block per build
    assert allocated_block_growth(sweeps, 300) < 300


@cpython_only
def test_repeated_4ft_trials_strand_no_tuples(rng):
    cfg = CampaignConfig(1, 1, check="4ft")
    # three tuples built from generators per trial stranded about 3,000 blocks over these calls
    assert allocated_block_growth(lambda: _fourfn_trial(rng, cfg), 1000) < 300


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_4ft_hypothesis(CubeFn(1, (F(1), F(0))), CubeFn(2, (F(1),) * 4), CubeFn(1, (F(1), F(0))), CubeFn(1, (F(1), F(0))))


def test_conclusion_all_ones_n2():
    ones = CubeFn(2, (F(1),) * 4)
    assert check_4ft_conclusion(ones, ones, ones, ones) == (F(16), F(16), True)


def test_generated_quadruples_satisfy_conclusion(rng):
    for n in (1, 2, 3):
        for _ in range(60):
            quad = random_hypothesis_quadruple(rng, n, 24)
            assert check_4ft_hypothesis(*quad).ok
            lhs, rhs, holds = check_4ft_conclusion(*quad)
            assert holds, (lhs, rhs)


def test_induction_consistency_of_slices(rng):
    # slices fixing the last coordinate inherit the (n-1)-dimensional hypothesis
    for n in (2, 3):
        for _ in range(100):
            f, g, h, k = random_hypothesis_quadruple(rng, n, 16)
            for a in (0, 1):
                for b in (0, 1):
                    res = check_4ft_hypothesis(f.slice_last(a), g.slice_last(b), h.slice_last(a & b), k.slice_last(a | b))
                    assert res.ok


def test_additive_zero_functions_hold_with_equality():
    zeros = CubeFn(2, (0.0,) * 4)
    out = check_4ft_additive(zeros, zeros, zeros, zeros)
    assert out.hypothesis_ok and out.conclusion_ok
    assert out.lhs == pytest.approx(out.rhs, abs=1e-12)


def test_additive_dominating_construction(rng):
    for _ in range(50):
        n = rng.randint(1, 3)
        h1 = CubeFn(n, tuple(rng.uniform(-2, 2) for _ in range(2**n)))
        h2 = CubeFn(n, tuple(rng.uniform(-2, 2) for _ in range(2**n)))
        top = (max(h1.values) + max(h2.values)) / 2
        h34 = CubeFn(n, (top,) * 2**n)
        out = check_4ft_additive(h1, h2, h34, h34)
        assert out.hypothesis_ok and out.conclusion_ok


def test_additive_failing_witness():
    h1 = CubeFn(1, (5.0, 0.0))
    rest = CubeFn(1, (0.0, 0.0))
    out = check_4ft_additive(h1, rest, rest, rest)
    assert not out.hypothesis_ok
    assert out.hyp_witness[0] == (0,)


def test_additive_tiny_exponent_fails_the_hypothesis_without_an_internal_error():
    zero = CubeFn(1, (0.0, 0.0))
    out = check_4ft_additive(CubeFn(1, (1e-9, 1e-9)), zero, zero, zero)
    assert not out.hypothesis_ok
    assert out.hyp_witness == ((0,), (0,), 1e-9, 0.0)
    assert out.conclusion_ok  # log-sum excess 1e-9 is within APPROX_TOL


def test_additive_sums_of_rationals_are_exact():
    # 1/10 + 1/5 = 3/10 + 0 exactly, while the float sums are 0.30000000000000004 and 0.3
    f, g, h, k = (CubeFn(1, (v, v)) for v in (F(1, 10), F(1, 5), F(3, 10), F(0)))
    assert check_4ft_additive(f, g, h, k).hypothesis_ok
    # a failing rational witness is reported as floats
    witness = check_4ft_additive(f, g, f, f).hyp_witness
    assert witness == ((0,), (0,), 0.3, 0.2) and all(type(v) is float for v in witness[2:])


def test_additive_sums_with_a_float_value_stay_in_floats():
    # one float value puts the whole sweep in floats: 0.1 against float(1/10) is a tie
    zero = CubeFn(1, (F(0), F(0)))
    assert check_4ft_additive(CubeFn(1, (0.1, 0.1)), zero, CubeFn(1, (F(1, 10), F(1, 10))), zero).hypothesis_ok


def test_additive_rejects_rationals_beyond_the_float_range():
    zero = CubeFn(1, (F(0), F(0)))
    with pytest.raises(PreconditionViolated):
        check_4ft_additive(CubeFn(1, (F(10**400), F(0))), zero, zero, zero)


def test_additive_verdicts_match_the_exponentiated_multiplicative_checkers(rng):
    # the multiplicative checkers on e^h are the oracle for the additive sweep;
    # near-ties are skipped, where float sums and float products may round apart
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        h1, h2 = (tuple(rng.uniform(-3, 8) for _ in range(2**n)) for _ in range(2))
        if rng.random() < 0.5:
            top = (max(h1) + max(h2)) / 2
            h3, h4 = (tuple(top + rng.uniform(-0.3, 0.7) for _ in range(2**n)) for _ in range(2))
        else:
            h3, h4 = (tuple(rng.uniform(-3, 8) for _ in range(2**n)) for _ in range(2))
        margin = min(h3[x & y] + h4[x | y] - h1[x] - h2[y] for x in range(2**n) for y in range(2**n))
        additive = check_4ft_additive(*(CubeFn(n, h) for h in (h1, h2, h3, h4)))
        if abs(margin) <= APPROX_TOL or abs(additive.lhs - additive.rhs) <= APPROX_TOL:
            continue
        exps = [CubeFn(n, tuple(math.exp(v) for v in h)) for h in (h1, h2, h3, h4)]
        assert additive.hypothesis_ok == check_4ft_hypothesis(*exps).ok
        assert additive.conclusion_ok == check_4ft_conclusion(*exps)[2]
        verdicts.add((additive.hypothesis_ok, additive.conclusion_ok))
    assert {(True, True), (False, True), (False, False)} <= verdicts


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_additive_rejects_non_finite_values(bad):
    rest = CubeFn(1, (0.0, 0.0))
    with pytest.raises(PreconditionViolated):
        check_4ft_additive(CubeFn(1, (bad, 0.0)), rest, rest, rest)
    with pytest.raises(PreconditionViolated):
        check_4ft_additive(rest, rest, rest, CubeFn(1, (0.0, bad)))


def test_functional_power_zero():
    for n in (1, 2, 5):
        assert functional_power(PHI_ENTROPY, CubeFn(n, (0.0,) * 2**n)) == pytest.approx(0.0, abs=1e-14)


def _phi_mean(u0, u1) -> float:
    """The mean, a two-point functional that is monotone in both values."""
    return (float(u0) + float(u1)) / 2


def test_functional_power_mean_indicator():
    # indicator of the all-ones corner under the product uniform measure
    ind = CubeFn(2, (0.0, 0.0, 0.0, 1.0))
    assert functional_power(_phi_mean, ind) == pytest.approx(0.25, abs=1e-15)


def test_log_sum_exp_of_an_infinite_value_is_infinite():
    assert logsumexp([1.0, math.inf, 0.0]) == math.inf
    assert log_mean_exp(CubeFn(1, (math.inf, 0.0))) == math.inf


def test_functional_power_matches_direct_log_mean_exp(rng):
    for n in (1, 2, 3, 6):
        for _ in range(20):
            h = CubeFn(n, tuple(rng.uniform(-3, 3) for _ in range(2**n)))
            assert functional_power(PHI_ENTROPY, h) == pytest.approx(log_mean_exp(h), abs=1e-9)
            assert functional_power(_phi_mean, h) == pytest.approx(math.fsum(h.values) / 2**n, abs=1e-12)


def test_monotone_functionals_propagate_the_inequality(rng):
    # Phi^n(h1) + Phi^n(h2) <= Phi^n(h3) + Phi^n(h4) for the built-in and the mean
    for n in (1, 2, 3):
        for _ in range(40):
            f, g, h, k = random_hypothesis_quadruple(rng, n, 16)
            logs = [CubeFn(n, tuple(math.log(float(v)) for v in fn.values)) for fn in (f, g, h, k)]
            for phi in (PHI_ENTROPY, _phi_mean):
                lhs = functional_power(phi, logs[0]) + functional_power(phi, logs[1])
                rhs = functional_power(phi, logs[2]) + functional_power(phi, logs[3])
                assert lhs <= rhs + 1e-9, (phi.__name__, lhs, rhs)


def test_restrict_all_ones():
    one = RealFn(0, (F(1), F(1)))
    red = restrict_to_binary_cube(one, one, one, one)
    assert red.cube_hypothesis_ok and red.line_hypothesis_ok and red.equivalent
    assert (red.lhs, red.rhs) == (F(4), F(4))
    assert red.conclusion_ok


def test_restrict_random_binary_supported(rng):
    for _ in range(100):
        quad = random_hypothesis_quadruple(rng, 1, 16)
        fns = [RealFn(0, fn.values) for fn in quad]
        red = restrict_to_binary_cube(*fns)
        assert red.cube_hypothesis_ok and red.line_hypothesis_ok and red.equivalent
        assert red.conclusion_ok


def test_restrict_violation_fails_both_ways():
    f = RealFn(0, (F(2), F(0)))
    h = RealFn(0, (F(1), F(1)))
    red = restrict_to_binary_cube(f, f, h, h)
    assert not red.cube_hypothesis_ok and not red.line_hypothesis_ok and red.equivalent


def test_restrict_zero_extended_windows_match_the_two_point_restriction(rng):
    verdicts = set()
    for _ in range(200):
        f0, f1, g0, g1, h0, h1, k0, k1 = (F(rng.randint(0, 3)) for _ in range(8))
        narrow = restrict_to_binary_cube(
            RealFn(0, (f0, f1)), RealFn(0, (g0, g1)), RealFn(0, (h0, h1)), RealFn(0, (k0, k1))
        )
        wide = restrict_to_binary_cube(
            RealFn(-2, (F(0), F(0), f0, f1, F(0))),
            RealFn(0, (g0, g1, F(0), F(0))),
            RealFn(-1, (F(0), h0, h1)),
            RealFn(0, (k0, k1)),
        )
        assert wide == narrow
        assert wide.equivalent
        verdicts.add(wide.line_hypothesis_ok)
    assert verdicts == {True, False}


def test_restrict_rejects_wide_support():
    wide = RealFn(0, (F(1, 2), F(1, 4), F(1, 4)))
    one = RealFn(0, (F(1), F(1)))
    with pytest.raises(SupportNotBinary):
        restrict_to_binary_cube(wide, one, one, one)


def test_bits_of_roundtrip():
    assert bits_of(5, 3) == (1, 0, 1)
    assert bits_of(0, 2) == (0, 0)
