import bisect
import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import pytest

import oracles
from discretepl import limits
from discretepl.errors import ConfigError, ConvexityWitnessFailed, HypothesisFailedOnGrid, QuadratureFailed, SupportExceedsWindow
from discretepl.fourfunctions import CubeFn, check_4ft_additive
from discretepl.limits import (
    CLT_DEMOS,
    DISP_DEMOS,
    PL_DEMOS,
    PointMass,
    UniformInterval,
    _check_cube_hypothesis,
    clt_experiment,
    discretize_quadruple,
    gaussian_exp_integral,
    grid_hypothesis_witness,
    interval_integral,
    pl_limit_experiment,
    rescaled_displacement_experiment,
)
from discretepl.measures import EQ_TOL, RealFn, left_sum

F = Fraction


def _grid_point(half_width, n, i):
    """x_i = -N + 2iN/n."""
    return -half_width + 2 * i * half_width / n


def test_grid_points():
    # x + N + 1 is positive and increasing on [-N - N/n, N + N/n], so each value reads its point
    inc = lambda x: x + 2
    f, g, h, k = discretize_quadruple(inc, inc, inc, inc, 1.0, 2)
    assert f.values == g.values == k.values == (1.0, 2.0, 3.0)
    assert h.values == (1.5, 2.5, 3.5)  # the step is 1.0, so H is read half a step right


def test_grid_rejects_bad_spec():
    one = lambda x: 1.0
    for half_width, n in ((1.0, 0), (0.0, 4), (-1.0, 4)):
        with pytest.raises(ConfigError, match="need n >= 1 and a positive half-width"):
            discretize_quadruple(one, one, one, one, half_width, n)


def test_discretize_constants():
    one = lambda x: 1.0
    f, g, h, k = discretize_quadruple(one, one, one, one, 1.0, 2)
    assert f.values == (1.0, 1.0, 1.0)
    assert h.values == (1.0, 1.0, 1.0)
    assert k.values == (1.0, 1.0, 1.0)


def test_discretize_monotone_takes_shifted_value():
    inc = lambda x: x + 2
    _, _, h, _ = discretize_quadruple(inc, inc, inc, inc, 1.0, 4)
    half_step = 1.0 / 4
    assert h.values == tuple(_grid_point(1.0, 4, i) + half_step + 2 for i in range(5))


def test_discretize_calls_each_function_once_per_point_in_index_order():
    calls = {name: [] for name in "FGHK"}
    fns = [lambda x, name=name: calls[name].append(x) or 1.0 for name in "FGHK"]
    discretize_quadruple(*fns, 6.0, 8)
    points = [_grid_point(6.0, 8, i) for i in range(9)]
    assert calls["F"] == calls["G"] == points
    # H and K at x_i and then at its shift x_i +- N/n, before x_{i+1}
    assert calls["H"] == [z for x in points for z in (x, x + 0.75)]
    assert calls["K"] == [z for x in points for z in (x, x - 0.75)]


def test_discretize_rejects_a_nan_at_a_half_step_point():
    # max(H(x_i), NaN) would keep H(x_i): the NaN is named, with the function, i and n
    bump = lambda x: math.exp(-x * x)
    nan_at = lambda z: lambda x: math.nan if x == z else bump(x)
    cases = (
        ((bump, bump, nan_at(-5.25), bump), r"^H is NaN at x_i \+ N/n for i=0 and n=8$"),
        ((bump, bump, bump, nan_at(5.25)), r"^K is NaN at x_i - N/n for i=8 and n=8$"),
        ((bump, bump, nan_at(0.75), nan_at(0.75)), r"^H is NaN at x_i \+ N/n for i=4 and n=8$"),
    )
    for fns, message in cases:
        with pytest.raises(ConfigError, match=message):
            discretize_quadruple(*fns, 6.0, 8)
    # a +inf and a -inf also sum to NaN; the -inf is a negative sample
    signs = lambda x: math.inf if x == -5.25 else -math.inf if x == 5.25 else bump(x)
    with pytest.raises(ConfigError, match=r"^H is negative at x_i \+ N/n for i=7 and n=8$"):
        discretize_quadruple(bump, bump, signs, bump, 6.0, 8)
    # a +inf alone is >= 0, and max keeps it
    spike = lambda x: math.inf if x == -5.25 else bump(x)
    _, _, h, _ = discretize_quadruple(bump, bump, spike, bump, 6.0, 8)
    assert h.values[0] == math.inf and h.values[7] == bump(4.5)


def test_discretize_rejects_a_negative_sample():
    # the discrete PL forms are about non-negative functions
    bump = lambda x: math.exp(-x * x)
    below_at = lambda z, v: lambda x: v if x == z else bump(x)
    cases = (
        ((below_at(-4.5, -1e-300), bump, bump, bump), r"^F is negative on the grid at i=1 for n=8$"),
        ((bump, bump, bump, below_at(4.5, -math.inf)), r"^K is negative on the grid at i=7 for n=8$"),
        ((bump, bump, bump, below_at(5.25, -2.0)), r"^K is negative at x_i - N/n for i=8 and n=8$"),
        # the first sample that is not >= 0 is named, NaN or negative
        ((bump, bump, bump, lambda x: -1.0 if x == 0.0 else math.nan if x == 1.5 else bump(x)), r"^K is negative on the grid at i=4 "),
        ((bump, bump, bump, lambda x: math.nan if x == 0.0 else -1.0 if x == 1.5 else bump(x)), r"^K is NaN on the grid at i=4 "),
    )
    for fns, message in cases:
        with pytest.raises(ConfigError, match=message):
            discretize_quadruple(*fns, 6.0, 8)
    discretize_quadruple(below_at(-4.5, -0.0), bump, bump, bump, 6.0, 8)  # -0.0 >= 0


def test_discretized_gaussian_quadruple_satisfies_grid_hypothesis():
    F_, G_, H_, K_, N = PL_DEMOS["gaussian"]
    for n in (8, 33, 64):
        f, g, h, k = discretize_quadruple(F_, G_, H_, K_, N, n)
        assert grid_hypothesis_witness(f, g, h, k) is None


def test_grid_witness_reads_f_and_g_at_their_offsets():
    # only f(0) = 1 is positive, and f(0)f(0) = 1 <= h(0)k(0) = 1
    f = RealFn(-1, (0, 1))
    hk = RealFn(0, (1, 0))
    assert grid_hypothesis_witness(f, f, hk, hk) is None
    # a witness is reported in true coordinates
    assert grid_hypothesis_witness(RealFn(-1, (0, 2)), f, hk, hk) == (0, 0)


def test_grid_witness_takes_each_window_from_its_own_function():
    f = RealFn(0, (1, 1, 1))
    g = RealFn(0, (1,))
    assert grid_hypothesis_witness(f, g, f, f) is None
    assert grid_hypothesis_witness(g, f, f, f) is None
    assert grid_hypothesis_witness(f, g, f, RealFn(0, (1, 0))) == (1, 0)


def _first_violation(f, g, h, k):
    """The first (x, y) in lexicographic order with f(x)g(y) > h(floor)k(ceil) of (x+y)/2, pair by pair in Python."""
    hv, kv = dict(zip(h.window(), h.values)), dict(zip(k.window(), k.values))
    for x, fx in zip(f.window(), f.values):
        for y, gy in zip(g.window(), g.values):
            if fx * gy > hv.get(math.floor((x + y) / 2), 0) * kv.get(math.ceil((x + y) / 2), 0):
                return x, y
    return None


def test_exhaustive_grid_witness_matches_a_brute_force_scan(rng, monkeypatch):
    # exact rationals are screened on float64 images and rechecked exactly, floats compared in float64:
    # both must match Python's own products.  Blocks of 1, 2, 3 and 7 points cut one input's windows into
    # several blocks, the last one often partial, and sweeps of 1, 3 and 10 pairs split the rows of one
    # block.  The last draw mixes ints with a float NaN, infinities and -0.0: their images are NaN, so
    # their pairs are rechecked exactly
    specials = (math.nan, math.inf, -math.inf, -0.0, -1.5, -0.3)
    draws = (
        lambda: F(rng.randint(0, 4), rng.randint(1, 3)),
        lambda: rng.randint(0, 12) / 10,
        lambda: rng.choice(specials) if rng.random() < 0.25 else rng.randint(0, 12) / 10,
        lambda: rng.choice((math.nan, math.inf, -math.inf, -0.0)) if rng.random() < 0.25 else rng.randint(0, 3),
    )
    for cells, block in ((1, 1), (3, 2), (10, 3), (10, 7), (limits._SWEEP_CELLS, limits._BLOCK)):
        monkeypatch.setattr(limits, "_SWEEP_CELLS", cells)
        monkeypatch.setattr(limits, "_BLOCK", block)
        for draw in draws:
            found = 0
            for _ in range(300):
                f, g, h, k = (RealFn(rng.randint(-5, 5), tuple(draw() for _ in range(rng.randint(1, 7)))) for _ in range(4))
                expected = _first_violation(f, g, h, k)
                assert grid_hypothesis_witness(f, g, h, k) == expected
                found += expected is not None
            assert 0 < found < 300


def test_bounded_grid_witness_matches_a_brute_force_scan_where_most_block_pairs_hold(rng, monkeypatch):
    # f, g in [0, 1] and h, k in [1, 1.5] but at a few drawn points, so most block pairs are skipped and
    # the first violation, if any, sits among them; h and k now and then hold a low value or a float NaN.
    # Exact and mixed windows are bounded on their screened images, floats on their own values
    def window(offset, length, usual, odd, odds):
        return RealFn(offset, tuple(odd() if rng.random() < odds else usual() for _ in range(length)))

    def value(a, b):  # in the current mode
        m = rng.randint(a, b)
        return F(m, 8) if mode == "exact" or (mode == "mixed" and rng.random() < 0.5) else m / 8

    for block in (1, 2, 3, 7, limits._BLOCK):
        monkeypatch.setattr(limits, "_BLOCK", block)
        for mode in ("float", "exact", "mixed"):
            low = (lambda: value(0, 8)) if mode == "exact" else (lambda: rng.choice((math.nan, value(0, 8))))
            found = 0
            for _ in range(40):
                f, g = (window(rng.randint(-5, 5), rng.randint(1, 80), lambda: value(0, 8), lambda: value(-16, 24), 0.02) for _ in "fg")
                h, k = (window(rng.randint(-8, 0), rng.randint(60, 120), lambda: value(8, 12), low, 0.01) for _ in "hk")
                expected = _first_violation(f, g, h, k)
                assert grid_hypothesis_witness(f, g, h, k) == expected
                found += expected is not None
            assert 0 < found < 40


def _least_feasible_kl(rng, width):
    """f, g, h random ints in [1, 64] on 0..width-1 and the least k with f(x)g(y) <= h(floor)k(ceil) of (x+y)/2:
    k(b) = max(r(2b)/h(b), r(2b-1)/h(b-1)), r(s) the largest f(x)g(y) with x + y = s."""
    f, g, h = ([rng.randint(1, 64) for _ in range(width)] for _ in range(3))
    r = [0] * (2 * width - 1)
    for x, fx in enumerate(f):
        for y, gy in enumerate(g):
            r[x + y] = max(r[x + y], fx * gy)
    k = [max(F(r[2 * b], h[b]), F(r[2 * b - 1], h[b - 1]) if b else 0) for b in range(width)]
    return f, g, h, k


def test_grid_witness_of_least_feasible_rational_kl_quadruples_with_exact_ties(rng):
    # every sum s has a pair with f(x)g(y) = h k exactly, so the float64 screen proves none of those pairs
    # and the exact recheck decides them; the widths run from within one block of rows and columns
    # (16 x 16 pairs is the largest cube sweep that loops, a grid sweeps in blocks at every size) to several
    for width in (5, 16, 17, 40, 100, 150):
        f, g, h, k = _least_feasible_kl(rng, width)
        quadruple = [RealFn(0, tuple(vs)) for vs in (f, g, h, k)]
        assert grid_hypothesis_witness(*quadruple) is None is _first_violation(*quadruple)
        for _ in range(3):  # one k value lowered by its smallest step breaks the pairs that bound it
            b = rng.randrange(width)
            lowered = k[:b] + [k[b] - F(1, k[b].denominator)] + k[b + 1 :]
            planted = [*quadruple[:3], RealFn(0, tuple(lowered))]
            expected = _first_violation(*planted)
            assert expected is not None and grid_hypothesis_witness(*planted) == expected


def test_grid_witness_of_floats_mixed_with_fractions_is_compared_in_full():
    # 1 == 1.0, but a Fraction times 1 is exact and times 1.0 is rounded down here, so no corner product
    # of g's one block bounds both: the only violating pair is (0, 1), where 1/3 > float(1/3)
    third = F(1, 3)
    assert third * 1.0 == float(third) < third * 1
    f, g, h, k = RealFn(0, (third,)), RealFn(0, (1.0, 1)), RealFn(0, (float(third),)), RealFn(0, (1.0, 1.0))
    assert grid_hypothesis_witness(f, g, h, k) == (0, 1) == _first_violation(f, g, h, k)


def test_grid_witness_is_never_a_nan_pair(monkeypatch):
    # row 0 is NaN on the left, and the right side is NaN at the sums 2 and 3; in blocks of two
    # rows, the first pair that breaks the hypothesis is (2, 2), at the sum 4
    monkeypatch.setattr(limits, "_SWEEP_CELLS", 6)
    f, g = RealFn(0, (math.nan, 1.0, 2.0)), RealFn(0, (1.0, 1.0, 1.0))
    h, k = RealFn(0, (1.0, math.nan, 1.0)), RealFn(0, (1.0, 1.0, 1.0))
    assert grid_hypothesis_witness(f, g, h, k) == (2, 2) == _first_violation(f, g, h, k)


def test_grid_witness_sweeps_overflowing_and_nan_products_without_a_warning():
    # 1e200 * 1e200 overflows to inf on both sides, and inf * 0.0 is NaN; neither is a witness
    big, zero = RealFn(0, (1e200, 1e200)), RealFn(0, (0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert grid_hypothesis_witness(big, big, big, big) is None
        assert grid_hypothesis_witness(zero, big, RealFn(0, (math.inf, math.inf)), zero) is None


def _planted(size, violations):
    """f = g = 1 and h k = 1.5 on 0..size-1, except f(x) = g(y) = 1.25 at each planted pair (x, y)."""
    f, g = [1.0] * size, [1.0] * size
    for x, y in violations:
        f[x] = g[y] = 1.25
    return RealFn(0, tuple(f)), RealFn(0, tuple(g)), RealFn(0, (1.0,) * size), RealFn(0, (1.5,) * size)


def test_grid_witness_in_the_last_row_of_700():
    # 1.25 * 1.25 > 1.5 >= 1.25: the only violating pair is (699, 350), in the last block
    quadruple = _planted(700, [(699, 350)])
    assert grid_hypothesis_witness(*quadruple) == (699, 350) == _first_violation(*quadruple)


def test_grid_witness_in_the_first_row_of_a_later_block():
    step = limits._SWEEP_CELLS // 700
    assert step < 200  # row 3 * step lies past the first _SWEEP_CELLS pairs in row-major order
    # planted pairs share their f and g values, so (3 step, 5) and (3 step + 1, 600) violate too
    quadruple = _planted(700, [(3 * step, 600), (3 * step + 1, 5), (5 * step, 0)])
    assert grid_hypothesis_witness(*quadruple) == (3 * step, 0) == _first_violation(*quadruple)


@pytest.mark.parametrize("where", ["alone", "last partial block", "first row of a later block"])
def test_grid_witness_of_one_planted_pair_among_1025_squared(where, monkeypatch):
    # 1025 = 32 blocks of 32 points and one of 1: only the planted pair violates, and its own block pair
    # is the only one compared; its neighbours and every other block pair hold
    block = limits._BLOCK
    planted = {"alone": (15 * block + 20, 21 * block + 5), "last partial block": (1024, 1024), "first row of a later block": (7 * block, 3)}
    x, y = planted[where]
    quadruple = _planted(1025, [(x, y)])
    spans = []
    unsafe_spans = limits._unsafe_spans
    monkeypatch.setattr(limits, "_unsafe_spans", lambda *args: spans.extend(unsafe_spans(*args)) or spans)
    assert grid_hypothesis_witness(*quadruple) == (x, y)
    lo = y // block * block
    assert spans == [(x // block * block, lo, min(1025, lo + block))]


def test_binomial_weights_match_pascal_rows_for_every_n_up_to_1200():
    for n, row in enumerate(oracles.pascal_rows(1200)):
        assert [w.hex() for w in limits.binomial_weights(n)] == [oracles.scaled_binomial(c, n).hex() for c in row]


@pytest.mark.parametrize("n", [3000, 3001, 10000, 16384])
def test_binomial_weights_match_one_comb_per_weight(n):
    # the first weight that does not underflow, found by bisection on math.comb alone
    edge = bisect.bisect_left(range(n // 2 + 1), True, key=lambda k: math.comb(n, k).bit_length() - n >= -1080)
    ks = {*range(0, n + 1, n // 40), *range(edge - 8, edge + 9), *range(n // 2 - 8, n // 2 + 9), n - edge, n - 1, n}
    weights = limits.binomial_weights(n)
    assert all(weights[k].hex() == w.hex() for k, w in oracles.binomial_weights(n, sorted(ks)).items())


def _counting_comb(monkeypatch) -> list[tuple[int, int]]:
    """Record the (n, k) of every later math.comb call in the test, which `limits` makes through the math module."""
    calls = []
    comb = math.comb
    monkeypatch.setattr(limits.math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
    return calls


@pytest.mark.parametrize("bracket_bits, fallbacks", [(60, 100_000), (limits._BRACKET_BITS, 1_000)], ids=["60-bits", "default"])
def test_binomial_weights_from_the_bracket_match_pascal_rows(monkeypatch, bracket_bits, fallbacks):
    # every walk past its first step runs on the bracket; at 60 bits the top 55 bits are often left open
    monkeypatch.setattr(limits, "_BRACKET_BITS", bracket_bits)
    monkeypatch.setattr(limits, "_EXACT_BITS", 0)
    calls = _counting_comb(monkeypatch)
    for n, row in enumerate(oracles.pascal_rows(1200)):
        assert [w.hex() for w in limits.binomial_weights(n)] == [oracles.scaled_binomial(c, n).hex() for c in row]
    # every call is a fallback (the centre comes from prime powers), at the default width where comb(n, k) nears 55 bits
    assert len(calls) >= fallbacks


@pytest.mark.parametrize("n", [3000, 10000])
def test_binomial_weights_from_a_narrow_bracket_match_one_comb_per_weight(monkeypatch, n):
    monkeypatch.setattr(limits, "_BRACKET_BITS", 60)
    calls = _counting_comb(monkeypatch)
    weights = limits.binomial_weights(n)
    fallbacks = [k for _, k in calls]
    assert len(fallbacks) > 100
    ks = {*range(0, n + 1, n // 40), *fallbacks[:20], *(k - 1 for k in fallbacks[:20]), n // 2}
    assert all(weights[k].hex() == w.hex() for k, w in oracles.binomial_weights(n, sorted(ks)).items())


def test_central_comb_is_math_comb(rng):
    # every n up to 2000, and sampled n up to 20000 with the powers of two among them
    for n in [*range(2001), *rng.sample(range(2001, 20001), 40), 4096, 8192, 16384, 16385, 20000]:
        assert limits._central_comb(n) == math.comb(n, n // 2), n


def test_binomial_weights_call_math_comb_only_to_fall_back(monkeypatch):
    calls = _counting_comb(monkeypatch)
    for n in (0, 1, 100, 3001, 10000):
        limits.binomial_weights(n)
    assert (10000, 5000) not in calls and all(k != n // 2 for n, k in calls)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 1081, 1082, 1100, 1200])
def test_binomial_weights_are_within_an_ulp_and_zero_far_below_the_subnormals(n):
    tiny = Fraction(1, 2**1080)
    for k, w in enumerate(limits.binomial_weights(n)):
        exact = Fraction(math.comb(n, k), 2**n)
        assert w == 0.0 if exact < tiny else abs(Fraction(w) - exact) <= math.ulp(w)


def test_pl_finds_a_single_violating_pair_far_from_the_diagonal():
    # only f(900)g(100) = 4 > h(500)k(500) = 2 breaks the hypothesis, on a grid of 1025^2 pairs
    F_ = lambda x: 2.0 if x == _grid_point(1.0, 1024, 900) else 1.0
    G_ = lambda x: 2.0 if x == _grid_point(1.0, 1024, 100) else 1.0
    HK = lambda x: math.sqrt(2)
    with pytest.raises(HypothesisFailedOnGrid, match=r"\(900, 100\)"):
        pl_limit_experiment(F_, G_, HK, HK, 1.0, [1024])


def test_pl_rows_hold_and_converge():
    rows = pl_limit_experiment(*PL_DEMOS["gaussian"], [32, 128, 512])
    assert all(row.holds for row in rows)
    errs = [row.rel_err for row in rows]
    assert errs == sorted(errs, reverse=True)  # refining the grid improves the ratio
    assert rows[-1].target == pytest.approx(1.0, abs=1e-9)


def test_pl_shifted_demo_holds():
    rows = pl_limit_experiment(*PL_DEMOS["shifted-gaussian"], [64, 256])
    assert all(row.holds for row in rows)


def test_pl_zero_demo():
    rows = pl_limit_experiment(*PL_DEMOS["zero"], [16])
    assert rows[0].lhs == 0.0 and rows[0].holds


def test_pl_rejects_violating_quadruple():
    one = lambda x: 1.0
    tiny = lambda x: 0.1
    with pytest.raises(HypothesisFailedOnGrid):
        pl_limit_experiment(one, one, tiny, tiny, 1.0, [8])


def test_clt_zero_triple_is_constant_one():
    zero = lambda x: 0.0
    rows = clt_experiment(zero, zero, zero, [8, 64])
    for row in rows:
        assert row.value_f == pytest.approx(1.0, abs=1e-12)
        assert row.value_g == pytest.approx(1.0, abs=1e-12)
        assert row.value_h == pytest.approx(1.0, abs=1e-12)
        assert row.holds


def test_clt_rejects_concave_h():
    cap = lambda x: -x * x
    with pytest.raises(ConvexityWitnessFailed):
        clt_experiment(cap, cap, cap, [8])


def test_clt_rejects_a_bump_at_one_grid_point():
    # x^2 plus a height-1 bump at the grid point t_5 of n = 8 has a negative second difference there
    t5 = (5 - 8 / 2) / (math.sqrt(8) / 2)
    zero = lambda x: 0.0
    bumped = lambda x: x * x + (1.0 if x == t5 else 0.0)
    with pytest.raises(ConvexityWitnessFailed, match=r"k=5, t_k=0\.7071.* n=8"):
        clt_experiment(zero, zero, bumped, [8])


def test_clt_rejects_a_triple_whose_cube_hypothesis_fails():
    # f(t_a) + g(t_b) exceeds h(t_a) + h(t_b) by 2 at every pair, though h is linear
    shifted = lambda x: x + 1
    with pytest.raises(HypothesisFailedOnGrid, match=r"\(a,b\)=\(0, 0\) for n=8"):
        clt_experiment(shifted, shifted, lambda x: x, [8])


def test_clt_rejects_a_single_nan_value():
    # one NaN among the values of g, which a maximum taken by comparisons would skip
    gv = [0.0] * 9
    gv[4] = math.nan
    with pytest.raises(ConfigError, match=r"^g is NaN on the grid at k=4, t_k=4 for n=8$"):
        _check_cube_hypothesis(range(9), [0.0] * 9, gv, [0.0] * 9)


def test_pl_rejects_a_nan_grid_value_before_any_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(limits, "interval_integral", lambda *args: calls.append(args))
    bump = lambda x: math.exp(-x * x)
    nan_at_3 = lambda x: math.nan if x == 3.0 else bump(x)  # the grid point i = 7 of n = 8 on [-4, 4]
    cases = (
        ((nan_at_3, bump, bump, bump), [4, 8], "F is NaN on the grid at i=7 for n=8"),
        ((bump, bump, bump, nan_at_3), [8], "K is NaN on the grid at i=7 for n=8"),
        # for n = 4, 3 = x_4 - N/n is the point K is read at half a step left of x_4
        ((bump, bump, bump, nan_at_3), [4, 8], "K is NaN at x_i - N/n for i=4 and n=4"),
    )
    for fns, n_list, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            pl_limit_experiment(*fns, 4.0, n_list)
    assert calls == []


def test_clt_rejects_an_infinite_h_at_an_end_grid_point():
    # the second differences at k = 1 are +inf and would pass the convexity test, while E[e^{H_n}] is +inf
    t0 = (0 - 8 / 2) / (math.sqrt(8) / 2)
    zero = lambda x: 0.0
    spiked = lambda x: math.inf if x == t0 else x * x
    with pytest.raises(ConfigError, match=r"h is \+inf on the grid at k=0, t_k=-2\.828.* for n=8"):
        clt_experiment(zero, zero, spiked, [8])


def test_clt_hypothesis_check_matches_the_exhaustive_additive_4ft(rng):
    # functions of |x| on {0,1}^n with h convex: the O(n) check against the sweep over all pairs
    verdicts = []
    for n in range(1, 6):
        for _ in range(60):
            hv = [rng.randint(-3, 3)]
            for slope in sorted(rng.randint(-3, 3) for _ in range(n)):
                hv.append(hv[-1] + slope)
            fv, gv = ([v + rng.randint(-3, 1) for v in hv] for _ in range(2))
            f, g, h = (CubeFn(n, tuple(v[bin(i).count("1")] for i in range(2**n))) for v in (fv, gv, hv))
            holds = check_4ft_additive(f, g, h, h).hypothesis_ok
            try:
                _check_cube_hypothesis(range(n + 1), fv, gv, hv)
                passed = True
            except HypothesisFailedOnGrid:
                passed = False
            assert passed == holds, (fv, gv, hv)
            verdicts.append(holds)
    assert any(verdicts) and not all(verdicts)


def test_clt_linear_demo_converges_to_mgf():
    rows = clt_experiment(*CLT_DEMOS["linear"], [64, 1024])
    target = math.exp(0.5)
    assert rows[0].target_f == pytest.approx(target, abs=1e-9)
    assert rows[-1].rel_err_f < rows[0].rel_err_f
    assert all(row.holds for row in rows)
    # identical f = g = h makes the product inequality an equality
    assert rows[-1].lhs == pytest.approx(rows[-1].rhs, rel=1e-12)


def test_clt_quadratic_demo_holds():
    rows = clt_experiment(*CLT_DEMOS["quadratic"], [64, 512])
    assert all(row.holds for row in rows)
    assert rows[-1].rel_err_f < 0.01


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_clt_rejects_a_lambda_that_is_not_positive_and_finite(lam):
    with pytest.raises(ConfigError, match="lam must be > 0 and finite"):
        clt_experiment(*CLT_DEMOS["linear"], [8], lam=lam)


def test_clt_lambda_rescaling_changes_targets():
    rows1 = clt_experiment(*CLT_DEMOS["quadratic"], [64], lam=1.0)
    rows2 = clt_experiment(*CLT_DEMOS["quadratic"], [64], lam=4.0)
    assert rows1[0].target_f != rows2[0].target_f


def test_gauss_integral_oracle():
    assert gaussian_exp_integral(lambda x: x) == pytest.approx(math.exp(0.5), abs=1e-9)
    assert gaussian_exp_integral(lambda x: 0.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "fn, message",
    [
        (lambda x: x * x / 2, r"^quadrature failed \(no convergence: the interval at x = \S+ is too narrow to bisect\)$"),
        (lambda x: x * x, r"OverflowError"),
        (lambda x: -1000.0, r"gave 0\.0, outside \(0, inf\)"),
    ],
    ids=["divergent", "overflow", "underflow"],
)
def test_gauss_integral_fails_instead_of_returning_a_meaningless_value(fn, message):
    with pytest.raises(QuadratureFailed, match=message):
        gaussian_exp_integral(fn)


def test_clt_names_the_target_whose_quadrature_fails():
    zero, low = (lambda x: 0.0), (lambda x: -1000.0)
    with pytest.raises(QuadratureFailed, match=r"^target_g: quadrature gave 0\.0"):
        clt_experiment(zero, low, zero, [8])


def test_pl_names_the_target_whose_quadrature_fails():
    zero, wild = (lambda x: 0.0), (lambda x: math.sin(1 / (x + 1e-9)) + 2)
    with pytest.raises(QuadratureFailed, match=r"^target_H: quadrature failed \(no convergence "):
        pl_limit_experiment(zero, zero, wild, wild, 6.0, [8])


def test_interval_integral_fails_on_an_overflowing_integrand():
    with pytest.raises(QuadratureFailed, match="OverflowError"):
        interval_integral(lambda x: math.exp(1000 * x), 0.0, 1.0)


def test_interval_integral_fails_on_a_pole_at_a_node():
    # 0 is the middle node of [-1, 1], where 0.0 ** -0.9 divides by zero
    with pytest.raises(QuadratureFailed, match=r"^quadrature failed \(ZeroDivisionError: "):
        interval_integral(lambda x: math.fabs(x) ** -0.9, -1.0, 1.0)


def test_clt_expectation_survives_grid_values_beyond_the_exp_range(monkeypatch):
    # f(t_0) = 1024 at n = 4096: e^1024 overflows, its binomial weight underflows to 0.0 and is skipped
    expectation, weights_seen = limits._expectation, []
    monkeypatch.setattr(limits, "_expectation", lambda ws, vs: weights_seen.extend(ws) or expectation(ws, vs))
    quarter = lambda x: x * x / 4
    rows = clt_experiment(quarter, quarter, quarter, [64, 4096])
    assert rows[-1].value_f == pytest.approx(math.sqrt(2), rel=1e-3)
    assert len(weights_seen) == 3 * (65 + 4097 - limits.binomial_weights(4096).count(0.0))
    assert min(weights_seen) > 0.0
    assert limits._weighted_exp(2.0**-1070, 800.0) == pytest.approx(math.exp(800.0 - 1070 * math.log(2)))


def test_clt_expectation_takes_the_weighted_exp_route_when_a_kept_exponent_overflows(monkeypatch):
    # h(t_0) = 720 at n = 64: e^720 overflows, but its weight 2^-64 is kept, and w e^v is finite
    _count_quadratures(monkeypatch)
    weighted_exp, seen = limits._weighted_exp, []
    monkeypatch.setattr(limits, "_weighted_exp", lambda w, v: seen.append((w, v)) or weighted_exp(w, v))
    steep = lambda x: 11.25 * x * x
    (row,) = clt_experiment(steep, steep, steep, [64])
    weights, points = limits.binomial_weights(64), [(k - 32) / 4.0 for k in range(65)]
    expected = left_sum(weighted_exp(w, steep(t)) for w, t in zip(weights, points))
    assert seen[0] == (2.0**-64, 720.0) and len(seen) == 3 * 65
    assert row.value_f == row.value_g == row.value_h == expected and 1e293 < expected < math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 3001, 10000, 16384])
def test_clt_points_are_the_formulas_floats_bit_for_bit(monkeypatch, n):
    _count_quadratures(monkeypatch)
    seen, zero = [], lambda x: 0.0
    clt_experiment(lambda x: seen.append(x) or 0.0, zero, zero, [n])
    half_sqrt = math.sqrt(n) / 2
    assert set(map(type, seen)) == {float}
    assert [t.hex() for t in seen] == [((k - n / 2) / half_sqrt).hex() for k in range(n + 1)]


def test_clt_rejects_an_n_below_one():
    with pytest.raises(ConfigError, match="need n >= 1, not 0"):
        clt_experiment(*CLT_DEMOS["linear"], [4, 0])


def _count_quadratures(monkeypatch):
    calls = []
    for name in ("interval_integral", "gaussian_exp_integral"):
        monkeypatch.setattr(limits, name, lambda *args: calls.append(args) or 1.0)
    return calls


def test_pl_checks_every_grid_before_any_quadrature(monkeypatch):
    # f(0.5) = 2 is a grid point at n = 4 only, so the grid at n = 2 passes and the one at n = 4 fails
    calls = _count_quadratures(monkeypatch)
    one = lambda x: 1.0
    with pytest.raises(HypothesisFailedOnGrid, match="for n=4"):
        pl_limit_experiment(lambda x: 2.0 if x == 0.5 else 1.0, one, one, one, 1.0, [2, 4])
    assert calls == []


def test_clt_checks_every_grid_before_any_quadrature(monkeypatch):
    # the bump sits on a grid point at n = 8 only, so the grid at n = 2 passes and the one at n = 8 fails
    calls = _count_quadratures(monkeypatch)
    t5 = (5 - 8 / 2) / (math.sqrt(8) / 2)
    zero = lambda x: 0.0
    with pytest.raises(ConvexityWitnessFailed, match="for n=8"):
        clt_experiment(zero, zero, lambda x: x * x + (1.0 if x == t5 else 0.0), [2, 8])
    assert calls == []


def test_interval_integral_oracle():
    assert interval_integral(lambda x: x * x, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-10)


def _mpmath_reference(fn, points):
    """mpmath's tanh-sinh quadrature of fn over the points, at 30 digits: an algorithm apart from the oracle's."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.quad(fn, points))


@pytest.mark.parametrize("name", sorted(PL_DEMOS))
def test_pl_demo_targets_agree_with_mpmath(name):
    *fns, half_width = PL_DEMOS[name]
    for fn in fns:
        exact = _mpmath_reference(fn, [-half_width, half_width])
        assert interval_integral(fn, -half_width, half_width) == pytest.approx(exact, rel=EQ_TOL, abs=EQ_TOL)


@pytest.mark.parametrize("name", sorted(CLT_DEMOS))
def test_clt_demo_targets_agree_with_mpmath(name):
    import mpmath

    for fn in CLT_DEMOS[name]:
        weighted = _mpmath_reference(lambda x: mpmath.exp(fn(x) - x * x / 2), [-mpmath.inf, mpmath.inf])
        assert gaussian_exp_integral(fn) == pytest.approx(weighted / math.sqrt(2 * math.pi), rel=EQ_TOL)


@pytest.mark.parametrize(
    "fn, mp_fn",
    [
        (lambda x: math.fabs(x - 0.3), lambda x: abs(x - 0.3)),
        (lambda x: float(x > 0.3), lambda x: float(x > 0.3)),
        (lambda x: 1 / math.sqrt(math.fabs(x - 0.3)), lambda x: 1 / abs(x - 0.3) ** 0.5),
    ],
    ids=["kink", "jump", "inverse-square-root"],
)
def test_interval_integral_of_a_rough_integrand_is_right_or_fails(fn, mp_fn):
    # QUADPACK's qags would extrapolate toward the singular point; the plain bisection may fail instead
    exact = _mpmath_reference(mp_fn, [-6, 0.3, 6])
    try:
        value = interval_integral(fn, -6.0, 6.0)
    except QuadratureFailed:
        return
    assert value == pytest.approx(exact, rel=EQ_TOL, abs=EQ_TOL)


def test_interval_integral_fails_where_only_extrapolation_converges():
    # |x - 0.3|^-0.9 is integrable on [-1, 1], but without extrapolation the bisection toward 0.3 never converges
    with pytest.raises(QuadratureFailed, match=r"^quadrature failed \(no convergence: the interval at x = 0\.3 "):
        interval_integral(lambda x: math.fabs(x - 0.3) ** -0.9, -1.0, 1.0)


def test_uniform_interval_cells_exact():
    cells = UniformInterval(F(0), F(1)).cell_masses(4, 1)
    assert cells.support_points() == [0, 1, 2, 3]
    assert cells.masses == (F(1, 4),) * 4
    offset_cells = UniformInterval(F(-1, 2), F(1, 2)).cell_masses(4, 1)
    assert offset_cells.support_points() == [-2, -1, 0, 1]


def test_uniform_interval_cells_match_the_fraction_oracle(rng):
    for index in range(240):
        n = 2048 if index % 40 == 0 else int(2 ** rng.uniform(0, 11))
        # an endpoint on a cell edge k/n, or off the edges with its own denominator
        a, b = sorted(F(rng.randint(-n, n), n) if rng.random() < 0.4 else F(rng.randint(-97, 97), 97) for _ in range(2))
        if a == b:
            continue
        nu = UniformInterval(a, b).cell_masses(n, 1)
        assert (nu.offset, nu.masses) == oracles.lattice_cell_masses(a, b, n)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_uniform_interval_over_one_two_or_three_cells_matches_the_fraction_oracle(n):
    # endpoints on the cell edges k/n and a quarter, a half and three quarters of a cell past them
    points = [F(i, 4 * n) for i in range(-4 * n, 4 * n + 1)]
    seen = set()
    for a, b in itertools.combinations(points, 2):
        lo, masses = oracles.lattice_cell_masses(a, b, n)
        if len(masses) <= 3:
            nu = UniformInterval(a, b).cell_masses(n, 1)
            assert (nu.offset, nu.masses) == (lo, masses)
            seen.add((len(masses), (a * n).denominator == 1, (b * n).denominator == 1))
    assert len(seen) == 12


def test_point_mass_cell():
    assert PointMass(F(1, 3)).cell_masses(6, 1).support_points() == [2]


def test_support_window_guard():
    with pytest.raises(SupportExceedsWindow):
        UniformInterval(F(0), F(3)).cell_masses(4, 1)
    with pytest.raises(SupportExceedsWindow):
        PointMass(F(2)).cell_masses(4, 1)


def test_disp_same_uniform_gap_zero():
    rows = rescaled_displacement_experiment(*DISP_DEMOS["same-uniform"], [4, 16, 64])
    for row in rows:
        assert row.gap == pytest.approx(0.0, abs=1e-10)
        assert row.holds and row.ratio_sum == 1


def test_disp_two_uniform_entropies_are_log2():
    rows = rescaled_displacement_experiment(*DISP_DEMOS["two-uniform"], [8, 64, 256])
    for row in rows:
        assert row.entropy0 == pytest.approx(math.log(2), abs=1e-9)
        assert row.cont0 == pytest.approx(math.log(2), abs=1e-12)
        assert row.jensen0_ok and row.jensen1_ok and row.holds


def test_disp_dirac_vs_uniform_positive_gap():
    rows = rescaled_displacement_experiment(*DISP_DEMOS["dirac-uniform"], [16, 64])
    assert all(row.gap > 0.1 for row in rows)
    assert all(row.cont0 is None and row.jensen0_ok is None for row in rows)


def test_disp_row_holds_as_its_displacement_report(monkeypatch):
    # a gap of -5e-11 is inside SUM_SLACK but outside the INEQ_SLACK of DisplacementReport.holds
    real = limits.displacement_gap
    monkeypatch.setattr(limits, "displacement_gap", lambda nu0, nu1: dataclasses.replace(real(nu0, nu1), gap=-5e-11))
    (row,) = rescaled_displacement_experiment(*DISP_DEMOS["same-uniform"], [4])
    assert row.gap == -5e-11 and row.ratio_sum == 1 and not row.holds
