"""Discrete-to-continuous experiments.

Three experiment families, each producing per-n report rows suitable for
CSV export:

* `pl_limit_experiment`: discretize a continuous quadruple F,G,H,K on the
  grid x_i = -N + 2iN/n with the shifted-max rule for H and K, check the
  integer-line midpoint hypothesis at every pair of grid points (skipping
  the blocks of pairs that a corner bound proves, with the same witness as
  a full sweep), and track the Riemann-scaled product inequality toward
  the continuous one.
* `clt_experiment`: push a midpoint triple f,g,h onto the cube via the
  standardized coordinate sum, check the four functions hypothesis of the
  pushed triple exactly from its grid values, evaluate the three binomial
  expectations exactly in the weights (big-integer binomials, no 2^n
  enumeration), verify the product inequality, and track convergence to
  standard Gaussian integrals.
* `rescaled_displacement_experiment`: round compactly supported laws to the
  lattice (1/n)Z by floor(nX)/n, run the displacement-convexity check there
  (index arithmetic reduces it to the Z machinery), and compare discrete
  relative entropies against their continuous counterparts.

Continuous targets come from an adaptive-quadrature oracle at EQ_TOL
accuracy (`interval_integral`: QUADPACK's 7-15 point Gauss-Kronrod pair,
written with the standard library), independent of the experiment code
paths.

The module also holds the one midpoint pair sweep, `_midpoint_violation`,
which `fourfunctions` runs on the cube: on {0,1} the floor and ceiling of
(x+y)/2 are meet and join, so only the right side's index map differs.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress
from typing import Callable, Sequence

from .displacement import displacement_gap
from .errors import ConfigError, ConvexityWitnessFailed, HypothesisFailedOnGrid, PreconditionViolated, QuadratureFailed, SupportExceedsWindow
from .measures import APPROX_TOL, EQ_TOL, INEQ_SLACK, SUM_SLACK, Pmf, RealFn, _canonical, delta, left_sum, to_common_unit


FloatFn = Callable[[float], float]  # a closed-form function on R


def discretize_quadruple(F: FloatFn, G: FloatFn, H: FloatFn, K: FloatFn, half_width: float, n: int):
    """Grid restriction to x_i = -N + 2iN/n, i = 0..n: f(i)=F(x_i), g(i)=G(x_i), and the shifted maxima

        h(i) = max(H(x_i), H(x_i + N/n)),  k(i) = max(K(x_i), K(x_i - N/n)),

    all zero outside {0..n}.  The half-step shifts absorb the parity error
    x_i/2 + x_j/2 = x_{floor((i+j)/2)} + (0 or N/n), so the line midpoint
    hypothesis on indices follows from the continuous one.  Each function is
    called once per point, in index order, H and K at x_i and then at its
    shift.  The discrete PL forms are about non-negative functions, so a
    NaN or negative sample raises ConfigError naming the function, the point
    and n.  Only a sample list whose `min` is not >= 0 or whose sum is NaN
    (a NaN can hide from `min`) is searched: a valid grid gets no per-value
    pass.  The points and their shifts are formed by numpy, in the same
    IEEE operations as the formulas above, and passed as Python floats.
    """
    import numpy as np  # not at module level: cli imports this module, and most commands never sample a grid

    if n < 1 or half_width <= 0:
        raise ConfigError("need n >= 1 and a positive half-width")

    def checked(name: str, values: Sequence[float], where: str) -> Sequence[float]:
        # once min >= 0 no -inf is left, so the sum is NaN just when a value is; only that is read
        if not min(values) >= 0 or math.isnan(sum(values)):
            i, v = next((i, v) for i, v in enumerate(values) if not v >= 0)
            raise ConfigError(f"{name} is {'NaN' if math.isnan(v) else 'negative'} {where.format(i=i)}")
        return values

    with np.errstate(all="ignore"):  # as in Python floats, which overflow to inf without a word
        xs = np.arange(0, 2 * n + 1, 2) * half_width / n - half_width
        shifted = [xs + shift for shift in (half_width / n, -half_width / n)]
    points = xs.tolist()
    grid = f"on the grid at i={{i}} for n={n}"
    fns = [RealFn(0, checked(name, tuple(map(fn, points)), grid)) for name, fn in (("F", F), ("G", G))]
    for name, fn, moved, sign in (("H", H, shifted[0], "+"), ("K", K, shifted[1], "-")):
        values = list(map(fn, chain.from_iterable(zip(points, moved.tolist()))))
        on = checked(name, values[0::2], grid)
        off = checked(name, values[1::2], f"at x_i {sign} N/n for i={{i}} and n={n}")
        fns.append(RealFn(0, tuple([b if b > a else a for a, b in zip(on, off)])))  # max(a, b): a unless b > a
    return tuple(fns)


#: a sweep's one unit: values below 2^(511 - 256) scale to ints below 2^511, in the screen's image range;
#: int products, scaling included, beat Fraction products at every unit timed up to 721 bits (Python 3.11)
MAX_UNIT_BITS = 256
#: cube sweeps of at most this many pairs run in the interpreted loop: a check_4ft_hypothesis took 53 us in blocks
#: against 51 looped at 4^4 pairs (79 against 54 on campaign quadruples) and 86 against 153 at 4^5 pairs
LOOP_MAX_PAIRS = 4**4
#: pairs compared per numpy call, and twice the block pairs bounded per call in `_unsafe_spans`.  One gaussian
#: pl grid took a median 7.7-8.8 ms at n = 4096 and 59-69 ms at n = 16384, its temporaries 0.4 and 0.5 MB; over
#: the 21 pl grids of the cube-limits benchmark 2^14 pairs were 6% slower, 2^15 and 2^17 within 2% (Python 3.11)
_SWEEP_CELLS = 1 << 16
#: points per block of `_unsafe_spans`.  Over the 21 pl grids of the cube-limits benchmark the sweeps
#: took 28.7 ms with blocks of 32, against 63.3 ms compared in full, 29.1 with blocks of 16, 27.6 with
#: 24, 30.8 with 48 and 31.9 with 64, and one slice over two blocks of rows was 11% slower than two
#: slices.  With 32, the pairs compared are 37%, 21% and 11% of the gaussian grid at n = 1024, 4096
#: and 16384, and none of the zero demo's
_BLOCK = 32
#: the screen's slacks, on f's product images and on the largest sum image (error bounds in `_blocked_violation`)
_PRODUCT_SLACK, _SUM_SLACK = 1 + 2.0**-48, 2.0**-47


def _swept(vectors: list, blocked: bool) -> tuple[list, bool, int | None]:
    """(the value vectors (f, g, h, k) a sweep compares, whether all are floats, their int unit or None).

    The one type check of the midpoint sweeps and the 4FT conclusion: a
    side, (f, g) or (h, k), that mixes floats with an int or Fraction past
    the float range, on which Python's mixed arithmetic overflows, raises
    PreconditionViolated (a float compares exactly with a Fraction, so the
    two sides may differ).  Rationals are scaled to ints in one unit U,
    which keeps every comparison (U^2, or U for sums, cancels), unless U is
    longer than MAX_UNIT_BITS or, in a `blocked` sweep, an int reaches
    2^511, past the screen's image range.
    """
    kinds = set()
    for side in (vectors[:2], vectors[2:]):
        side_kinds = {issubclass(t, float) for t in set(map(type, chain(*side)))}
        if len(side_kinds) == 2:
            try:
                [*map(float, chain(*side))]
            except OverflowError:
                raise PreconditionViolated("a value mixed with floats lies past the float range") from None
        kinds |= side_kinds
    scaled = None if True in kinds else to_common_unit([*chain(*vectors)], MAX_UNIT_BITS)
    if scaled is None or (blocked and max(scaled[0]) >= 2**511):
        return vectors, kinds == {True}, None
    ints, unit = scaled
    return [ints[end - len(vs) : end] for vs, end in zip(vectors, accumulate(map(len, vectors)))], False, unit


def _midpoint_violation(swept: list, floats: bool, combine, sums=None) -> tuple[int, int] | None:
    """The first (x, y) in row-major order with combine(f[x], g[y]) > the right side, or None.

    (f, g, h, k) = swept and floats come from `_swept`, and combine is
    operator.mul or operator.add.  Only the right side depends on the
    geometry: on the cube it is combine(h[x & y], k[x | y]), meet and join;
    on Z, sums = (meets, joins) index arrays over the sums x + y into h and
    k padded with a 0 at each end.  A cube sweep of at most LOOP_MAX_PAIRS
    pairs runs in an interpreted loop, and every other sweep in numpy
    blocks (`_blocked_violation`), which find the loop's first pair.
    """
    f, g, h, k = swept
    if sums is not None or len(f) * len(g) > LOOP_MAX_PAIRS:
        return _blocked_violation(f, g, h, k, floats, combine, sums)
    for x in range(len(f)):
        for y in range(len(g)):
            if combine(f[x], g[y]) > combine(h[x & y], k[x | y]):
                return x, y
    return None


def _images(np, values: list, low: float, high: float, signed: bool):
    """float64 images of the values: float(v) where low <= |float(v)| < high or v == 0, else NaN.

    float(v) is correctly rounded for ints, Fractions and floats, so each
    image is within a relative 2^-53 of its value.  A value whose image
    would be subnormal, zero, out of range, past `high` or (when `signed`)
    negative gets NaN, and so does a NaN or infinite float.
    """
    try:
        images = np.array(values, dtype=float)
    except OverflowError:  # an int or Fraction past the float range, whose image is NaN below
        images = np.array([float(max(-(2**1023), min(v, 2**1023))) for v in values])
    bounded = images if signed else np.abs(images)
    for i in np.flatnonzero(~((low <= bounded) & (bounded < high))).tolist():
        if values[i]:
            images[i] = math.nan
    return images


def _block_extremes(values):
    """(max, min) of each block of _BLOCK values, the last block possibly shorter; a float NaN is both."""
    import numpy as np

    starts = np.arange(0, len(values), _BLOCK)
    return np.maximum.reduceat(values, starts), np.minimum.reduceat(values, starts)


def _unsafe_spans(column, row, envelope) -> list[tuple[int, int, int]]:
    """(first row, lo, hi) of each block of rows, with the columns [lo, hi) of its block pairs that may fail.

    column holds f on the rows (x), row holds g on the columns (y), and
    envelope the right side at each sum x + y, from the first sum on.  A
    block pair (I, J) holds when the largest of its four corner products
    (max or min of f on I times max or min of g on J) is <= the least
    envelope value over the sums I + J.  Those sums lie in the envelope
    blocks p + q and p + q + 1, so one minimum per envelope block serves
    every pair.  A block of rows whose pairs all hold is left out.  A NaN
    corner (inf times 0) or a NaN minimum compares False, so its pair is
    kept: `np.maximum` and the float64 reductions carry a NaN through.  The
    bounds are formed in strips of at most _SWEEP_CELLS / 2 block pairs.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    f_max, f_min = _block_extremes(column)
    g_max, g_min = _block_extremes(row)
    least = _block_extremes(envelope)[1]
    least = sliding_window_view(np.minimum(least, np.append(least[1:], least[-1:])), len(g_max))
    step = max(1, _SWEEP_CELLS // (2 * len(g_max)))  # two float temporaries take the bytes of one sweep
    spans = []
    for top in range(0, len(f_max), step):
        high, low = f_max[top : top + step, None], f_min[top : top + step, None]
        corner = high * g_max
        for a, b in ((high, g_min), (low, g_max), (low, g_min)):
            np.maximum(corner, a * b, out=corner)
        unsafe = ~(corner <= least[top : top + len(high)])
        blocks = np.flatnonzero(unsafe.any(axis=1))
        unsafe = unsafe[blocks]
        lo, hi = unsafe.argmax(axis=1), len(g_max) - unsafe[:, ::-1].argmax(axis=1)
        firsts, hi = (blocks + top) * _BLOCK, np.minimum(hi * _BLOCK, len(row))
        spans += zip(firsts.tolist(), (lo * _BLOCK).tolist(), hi.tolist())
    return spans


def _blocked_violation(f, g, h, k, floats: bool, combine, sums) -> tuple[int, int] | None:
    """`_midpoint_violation` in numpy row blocks of at most _SWEEP_CELLS pairs.

    When every value is a float, each block forms the loop's own IEEE
    products (or sums) in float64 with no slack, so its first True is the
    loop's first failing pair; a NaN compares False and is never a witness.
    Otherwise the float64 images (`_images`, within a relative u = 2^-53 of
    their values, or NaN, which proves no pair) screen each block: a pair
    the screen proves is skipped, and every other pair is compared exactly,
    in one pass over object arrays of the swept values (the loop's own
    Python operations), before the next block is screened.

    Products: nonzero images lie in [2^-511, 2^511), so every product below
    is 0 or a normal float, with one rounding of relative error <= u and no
    overflow.  Let F = fl(f~ (1 + 2^-48)) for the image f~ of f(x),
    L = fl(F g~) and R = fl(h~ k~).  The pair is proven when L <= R.  If
    L = 0, then f(x) or g(y) is 0 and the pair holds.  Else
    f(x)g(y) <= f~g~ / (1-u)^2 <= L / ((1 + 2^-48)(1-u)^4) and the right
    side is >= R / (1+u)^3, and (1 + 2^-48)(1-u)^4 > (1+u)^3 needs
    2^-48 = 32u > 7u + O(u^2): over 4x margin.  An exact tie such as the
    comparable pairs of (au, bu, au, bu) is never proven.

    Sums: nonzero images lie in [2^-1022, 2^1021), so no sum overflows.
    Let S be the largest image magnitude, L = fl(h1~ + h2~),
    R = fl(h3~ + h4~) and D = fl(R - L).  Each exact sum is within
    u(2 + u)(|h_i| + |h_j|) <= 2.0001u * 2S / (1 - u) of its float sum, so
    the exact right side minus the exact left side is at least
    D / (1+u) - 8.001uS.  The pair is proven when D >= E =
    max(2^-47 S, 2^-1022) >= 64uS: over 7x margin.

    On Z the right side is one table over the sums (the IEEE products, or
    R), read through `sliding_window_view`, and the block pairs that
    `_unsafe_spans` proves on the same numbers (the floats, or F, g~ and R)
    are skipped: rounding is monotone, so a pair's product is <= the
    largest of its block's four corner products <= its own right side.
    Each other block of rows is compared on one contiguous slice of columns.
    numpy's warnings for NaN and overflowing products are silenced.
    """
    import numpy as np  # not at module level: cli imports this module, and small sweeps never build arrays
    from numpy.lib.stride_tricks import sliding_window_view

    rows, cols = len(f), len(g)
    product = combine is operator.mul
    if floats:
        fv, gv, hv, kv = (np.array(vs, dtype=float) for vs in (f, g, h, k))
    else:
        low, high = (2.0**-511, 2.0**511) if product else (sys.float_info.min, 2.0**1021)
        images = _images(np, [*f, *g, *h, *k], low, high, product)
        if product:
            images[:rows] *= _PRODUCT_SLACK
        else:
            least_gap = max(_SUM_SLACK * np.fmax.reduce(np.abs(images)), sys.float_info.min)
        fv, gv, hv, kv = images[:rows], images[rows : rows + cols], images[rows + cols : -len(k)], images[-len(k) :]
    if sums is not None:  # the index maps over the sums read h and k padded with a 0 at each end
        hv, kv = (np.concatenate(([0.0], vs, [0.0])) for vs in (hv, kv))
    objects = None
    with np.errstate(over="ignore", invalid="ignore"):
        if sums is None:
            spans, block, index = [(0, 0, cols)], rows, np.arange(rows)

            def right(start, end, lo, hi):
                xs, ys = index[start:end, None], index[lo:hi]
                return combine(hv[xs & ys], kv[xs | ys])

        else:
            envelope = combine(hv[sums[0]], kv[sums[1]])
            windows = sliding_window_view(envelope, cols)
            spans, block = _unsafe_spans(fv, gv, envelope), _BLOCK

            def right(start, end, lo, hi):
                return windows[start:end, lo:hi]

        for top, lo, hi in spans:
            width = hi - lo
            stop, step = min(rows, top + block), max(1, _SWEEP_CELLS // width)
            for start in range(top, stop, step):
                end = min(stop, start + step)
                lhs, rhs = combine(fv[start:end, None], gv[lo:hi]), right(start, end, lo, hi)
                # failing pairs of floats, or pairs the screen leaves; lhs goes before the next block's is formed
                over = lhs > rhs if floats else ~(lhs <= rhs if product else rhs - lhs >= least_gap)
                del lhs, rhs
                first = int(over.argmax())
                if not over.flat[first]:
                    continue
                if floats:
                    return start + first // width, lo + first % width
                unproven = np.flatnonzero(over)
                if objects is None:
                    objects = [np.array(vs, dtype=object) for vs in (f, g, h, k)]
                    if sums is not None:
                        objects[2:] = (np.concatenate(([0], vs, [0])) for vs in objects[2:])
                fo, go, ho, ko = objects
                px, py = start + unproven // width, lo + unproven % width
                a, b = (px & py, px | py) if sums is None else (sums[0][px + py], sums[1][px + py])
                over = combine(fo[px], go[py]) > combine(ho[a], ko[b])
                first = int(over.argmax())
                if over[first]:
                    return int(px[first]), int(py[first])
    return None


def grid_hypothesis_witness(f: RealFn, g: RealFn, h: RealFn, k: RealFn):
    """First (x, y) in lexicographic order with f(x)g(y) > h(floor)k(ceil) of the midpoint, or None.

    x runs over the window of f and y over the window of g; h and k are zero
    outside their windows.  The right side depends on x + y only, so the
    midpoint sweep (`_midpoint_violation`) reads it from one table over the
    sums.  Floats compare in IEEE products with no slack, and anything else
    exactly.  A NaN compares False and is never a witness.
    """
    import numpy as np  # not at module level: cli imports this module, and most commands never sweep a grid

    low = f.offset + g.offset
    sums = np.arange(low, low + len(f.values) + len(g.values) - 1)
    meets = np.clip(sums // 2 - h.offset + 1, 0, len(h.values) + 1)
    joins = np.clip(-(-sums // 2) - k.offset + 1, 0, len(k.values) + 1)
    swept, floats, _ = _swept([f.values, g.values, h.values, k.values], True)
    pair = _midpoint_violation(swept, floats, operator.mul, (meets, joins))
    return None if pair is None else (f.offset + pair[0], g.offset + pair[1])


@dataclass(frozen=True)
class PlRow:
    n: int
    lhs: float
    rhs: float
    ratio: float
    target: float
    rel_err: float
    holds: bool


def _targets(names: str, fns: Sequence[FloatFn], integral: Callable[..., float], *bounds: float) -> list[float]:
    """integral(fn, *bounds) for each fn; a QuadratureFailed names the target it came from."""
    targets = []
    for name, fn in zip(names, fns):
        try:
            targets.append(integral(fn, *bounds))
        except QuadratureFailed as exc:
            raise QuadratureFailed(f"target_{name}: {exc}") from None
    return targets


#: QUADPACK's qk15 (Piessens et al., 1983) on [-1, 1] from -1 to 0, as (node, weight of the 15-point
#: Kronrod rule, weight of the 7-point Gauss rule on every second node); the rule is symmetric about 0
_QK15_HALF = (
    (-0.9914553711208126, 0.022935322010529224, 0.0),
    (-0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (-0.8648644233597691, 0.10479001032225019, 0.0),
    (-0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (-0.5860872354676911, 0.1690047266392679, 0.0),
    (-0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (-0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
)
_NODES, _KRONROD, _GAUSS = zip(*_QK15_HALF, *((-x, k, g) for x, k, g in reversed(_QK15_HALF[:-1])))
#: the most intervals one quadrature may bisect its range into (QUADPACK's `limit`)
_MAX_INTERVALS = 500


def _kronrod(fn: FloatFn, a: float, b: float) -> tuple[float, float]:
    """The 15-point Kronrod value of the integral of fn over [a, b] and QUADPACK's estimate of its error.

    The estimate scales the distance to the 7-point Gauss value on the same
    nodes by the spread of fn about its mean, and is at least 50 ulps of
    the integral of |fn|.  A value that is not finite raises QuadratureFailed.
    """
    center, half = (a + b) / 2, (b - a) / 2
    values = [fn(center + half * x) for x in _NODES]
    kronrod = gauss = size = spread = 0.0  # sums from left to right, as `left_sum` adds, but without its calls
    for k, g, v in zip(_KRONROD, _GAUSS, values):
        kronrod, gauss, size = kronrod + k * v, gauss + g * v, size + k * abs(v)
    if not math.isfinite(kronrod * half):
        raise QuadratureFailed(f"quadrature gave {kronrod * half}")
    for k, v in zip(_KRONROD, values):
        spread += k * abs(v - kronrod / 2)
    error, spread = abs(kronrod - gauss) * half, spread * half
    if spread and error:
        error = spread * min(1.0, (200 * error / spread) ** 1.5)
    return kronrod * half, max(50 * sys.float_info.epsilon * size * half, error)


def interval_integral(fn: FloatFn, a: float, b: float) -> float:
    """Integral of fn over [a, b], a < b, to EQ_TOL absolute or relative accuracy (the target oracle).

    Global adaptive bisection with QUADPACK's 7-15 point Gauss-Kronrod pair
    (qk15, without the extrapolation of its qags): the interval with the
    largest error estimate is halved until the estimates sum to at most
    EQ_TOL max(1, |value|), and the value is the exactly rounded sum over
    the intervals.  a and b are finite, or -inf and inf, a range mapped
    onto (-1, 1) by x = t/(1 - t^2).  Raises QuadratureFailed when that
    takes more than 500 intervals or one under 4096 ulps wide (a divergent,
    oscillating or singular integral), when the integrand overflows or
    divides by zero, or when a value is not finite.
    """
    to_x = float  # the point x of [a, b] at the point t of the range bisected
    if a == -math.inf and b == math.inf:
        integrand, to_x = fn, lambda t: t / (1 - t * t)

        def fn(t: float) -> float:
            s = 1 - t * t
            return integrand(t / s) * (1 + t * t) / (s * s)

        a, b = -1.0, 1.0
    try:
        value, error = _kronrod(fn, a, b)
        intervals = [(-error, a, b, value)]
        total, total_error = value, error
        while not total_error <= EQ_TOL * max(1.0, abs(total)):
            if len(intervals) == _MAX_INTERVALS:
                raise QuadratureFailed(f"quadrature failed (no convergence within {_MAX_INTERVALS} intervals)")
            minus_error, lo, hi, value = heapq.heappop(intervals)
            mid = (lo + hi) / 2
            if hi - lo < 4096 * math.ulp(max(abs(lo), abs(hi))):  # the nodes of its halves could round onto their ends
                reason = f"no convergence: the interval at x = {to_x(mid):.6g} is too narrow to bisect"
                raise QuadratureFailed(f"quadrature failed ({reason})")
            total, total_error = total - value, total_error + minus_error
            for part in ((lo, mid), (mid, hi)):
                value, error = _kronrod(fn, *part)
                heapq.heappush(intervals, (-error, *part, value))
                total, total_error = total + value, total_error + error
        return math.fsum(value for *_, value in intervals)
    except (OverflowError, ZeroDivisionError) as exc:
        raise QuadratureFailed(f"quadrature failed ({type(exc).__name__}: {exc})") from None


def pl_limit_experiment(F: FloatFn, G: FloatFn, H: FloatFn, K: FloatFn, half_width: float, n_list: Sequence[int]):
    """Riemann-scaled product inequality along a refining grid.

    For each n, an N so large that (2N/n)^2 overflows raises ConfigError,
    and so does a NaN or negative sample (`discretize_quadruple` checks
    them all); the quadruple must satisfy the line hypothesis at every pair
    of grid points (a failure raises HypothesisFailedOnGrid); every grid is
    checked before any quadrature runs, and a failed target quadrature
    raises QuadratureFailed naming F, G, H or K.  The row records

        lhs = (2N/n)^2 (sum f)(sum g)  <=  rhs = (2N/n)^2 (sum h)(sum k),

    each product taken with 0 * inf = 0, together with the ratio lhs/rhs and its continuous target
    (int F int G) / (int H int K) over [-N, N].  Both sides are float sums
    of user float functions, so a row holds when lhs <= rhs (1 + SUM_SLACK).
    """
    sums = []
    for n in n_list:
        try:
            scale = (2 * half_width / n) ** 2
        except OverflowError:
            raise ConfigError(f"N={half_width} is too large for n={n}: the Riemann scale (2N/n)^2 overflows") from None
        fns = discretize_quadruple(F, G, H, K, half_width, n)
        witness = grid_hypothesis_witness(*fns)
        if witness is not None:
            raise HypothesisFailedOnGrid(f"grid hypothesis fails at (i,j)={witness} for n={n}")
        sf, sg, sh, sk = (left_sum(fn.values) for fn in fns)
        # a +inf sample times a zero sum would be NaN in floats
        sums.append((n, *(0.0 if 0 in (scale, a, b) else scale * a * b for a, b in ((sf, sg), (sh, sk)))))
    int_f, int_g, int_h, int_k = _targets("FGHK", (F, G, H, K), interval_integral, -half_width, half_width)
    num, den = int_f * int_g, int_h * int_k
    target = num / den if den > 0 else math.nan
    rows = []
    for n, lhs, rhs in sums:
        ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
        rel = abs(ratio - target) / abs(target) if target and not math.isnan(target) else abs(ratio)
        rows.append(PlRow(n, lhs, rhs, ratio, target, rel, lhs <= rhs * (1 + SUM_SLACK)))
    return rows


@dataclass(frozen=True)
class CltRow:
    n: int
    value_f: float
    value_g: float
    value_h: float
    lhs: float
    rhs: float
    holds: bool
    target_f: float
    target_g: float
    target_h: float
    rel_err_f: float
    rel_err_g: float
    rel_err_h: float


def gaussian_exp_integral(fn: FloatFn) -> float:
    """int e^{fn(x)} dgamma(x) for the standard Gaussian, by `interval_integral`.

    Besides the failures of `interval_integral`, raises QuadratureFailed
    when the value is not in (0, inf), as when it underflows to 0.0.
    """
    value = interval_integral(lambda x: math.exp(fn(x) - x * x / 2), -math.inf, math.inf) / math.sqrt(2 * math.pi)
    if not 0 < value < math.inf:
        raise QuadratureFailed(f"quadrature gave {value}, outside (0, inf)")
    return value


#: bits kept in each end of the bracket on comb(n, k), 73 more than a weight reads
_BRACKET_BITS = 128
#: an exact comb(n, k) this short steps exactly: its step costs no more than a bracket step up to 1,500-1,700 bits
_EXACT_BITS = 1536


def _central_comb(n: int) -> int:
    """comb(n, n // 2) exactly: the p^e of the sieved primes p <= n, multiplied in a balanced tree.

    e = sum_i floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i) for k = n // 2 (Legendre), one term past sqrt(n).
    """
    k, m, root = n // 2, n - n // 2, math.isqrt(n)
    sieve = bytearray(2) + bytearray([1]) * (n - 1)  # 0 and 1 are not prime
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    powers = []
    for p in compress(range(root + 1), sieve):
        e, q = 0, p
        while q <= n:
            e, q = e + n // q - k // q - m // q, q * p
        powers.append(p**e)
    powers += [p for p in compress(range(root + 1, n + 1), sieve[root + 1 :]) if n // p - k // p - m // p]
    while len(powers) > 1:
        powers = [*map(operator.mul, powers[::2], powers[1::2]), *powers[len(powers) & ~1 :]]
    return powers[0] if powers else 1


def binomial_weights(n: int) -> list[float]:
    """comb(n, k) / 2^n for k = 0..n: ldexp of the top 55 bits of comb(n, k), accurate to an ulp.

    The walk steps outward from the central coefficient, exact from
    `_central_comb` (prime powers, not `math.comb`), stops at the first
    weight that underflows (the tails are exactly 0.0), and fills the upper
    half by symmetry.  Past `_EXACT_BITS` bits it carries a bracket
    lo <= comb(n, k) / 2^e <= hi of `_BRACKET_BITS`-bit ints, which a step
    multiplies by k / (n - k + 1), lo rounded down and hi up.  A weight is
    read off the bracket only when lo and hi agree in bit length and top 55
    bits, and so comb(n, k) between them does; else comb(n, k) is recomputed
    with `math.comb` and the walk goes on from lo = hi = comb(n, k), e = 0.
    """
    weights = [0.0] * (n + 1)
    k = n // 2
    lo = hi = _central_comb(n)
    e, exact = 0, True
    ldexp = math.ldexp
    while k >= 0:
        bits = hi.bit_length()
        if bits + e - n < -1080:  # comb(n, k) < 2^(bits + e)
            break
        shift = bits - 55 if bits > 55 else 0
        top = hi >> shift
        if not exact and lo >> shift != top:
            lo = hi = math.comb(n, k)
            e, exact = 0, True
            continue
        weights[k] = weights[n - k] = ldexp(top, shift + e - n)
        if exact and bits <= _EXACT_BITS:
            lo = hi = lo * k // (n - k + 1)  # comb(n, k - 1), exactly
        else:
            t = _BRACKET_BITS - bits
            num, den = (k << t, n - k + 1) if t >= 0 else (k, n - k + 1 << -t)
            lo, hi, e, exact = lo * num // den, -(-hi * num // den), e - t, False
        k -= 1
    return weights


def _weighted_exp(w: float, v: float) -> float:
    """w e^v for w > 0, also where e^v alone overflows: then e^(v + log w)."""
    try:
        return w * math.exp(v)
    except OverflowError:
        return math.exp(v + math.log(w))


def _expectation(weights: list[float], values: list[float]) -> float:
    """The left-to-right sum of w e^v, by `_weighted_exp` only when some e^v overflows."""
    try:
        return left_sum(map(operator.mul, weights, map(math.exp, values)))
    except OverflowError:
        return left_sum(map(_weighted_exp, weights, values))


def _check_cube_hypothesis(points: Sequence[float], fv: Sequence[float], gv: Sequence[float], hv: Sequence[float]):
    """Raise unless the pushed triple meets the additive 4FT hypothesis on {0,1}^n.

    With F(x) = fv[|x|], G(y) = gv[|y|] and H(z) = hv[|z|] the hypothesis is
    fv[a] + gv[b] <= hv[p] + hv[a + b - p] for all a, b in 0..n and every
    p = |x^y| the pair allows, all of them <= min(a, b).  When hv is convex,
    hv[p] + hv[a + b - p] does not increase as p grows toward (a + b)/2, so
    the comparable pair x <= y (p = min(a, b)) binds, and the hypothesis is
    max_a (fv - hv)[a] + max_b (gv - hv)[b] <= 0.  A NaN value raises
    ConfigError, and so does a +inf value of hv: E[e^{H_n}] is then
    infinite, and an infinite second difference would pass.  Convexity is
    checked next (ConvexityWitnessFailed), then that sum
    (HypothesisFailedOnGrid), both up to APPROX_TOL and in O(n).
    """
    import numpy as np  # not at module level: cli imports this module, and most commands never run an experiment

    n = len(points) - 1
    f, g, h = (np.array(values, dtype=float) for values in (fv, gv, hv))
    for name, values in zip("fgh", (f, g, h)):
        nan = np.flatnonzero(np.isnan(values))
        if nan.size:
            k = int(nan[0])
            raise ConfigError(f"{name} is NaN on the grid at k={k}, t_k={points[k]} for n={n}")
    infinite = np.flatnonzero(h == math.inf)
    if infinite.size:
        k = int(infinite[0])
        raise ConfigError(f"h is +inf on the grid at k={k}, t_k={points[k]} for n={n}")
    bent = np.flatnonzero(~(h[:-2] + h[2:] - 2 * h[1:-1] >= -APPROX_TOL))
    if bent.size:
        k = int(bent[0]) + 1
        raise ConvexityWitnessFailed(f"h is not convex on the grid at k={k}, t_k={points[k]} for n={n}")
    a, b = int(np.argmax(f - h)), int(np.argmax(g - h))  # argmax returns the first NaN if there is one
    if not f[a] - h[a] + g[b] - h[b] <= APPROX_TOL:
        raise HypothesisFailedOnGrid(
            f"cube hypothesis f(t_a) + g(t_b) <= h(t_a) + h(t_b) fails at (a,b)=({a}, {b}) for n={n}"
        )


def clt_experiment(f: FloatFn, g: FloatFn, h: FloatFn, n_list: Sequence[int], lam: float = 1.0):
    """Binomial expectations of the standardized-sum push-forwards.

    The cube functions depend only on the coordinate sum S, so each
    expectation is a binomial average over the standardized points
    t_k = (k - n/2)/(sqrt(n)/2) (formed by numpy in the same IEEE operations),
    with exact big-integer binomial weights (`binomial_weights`: its central
    coefficient from prime powers).  For each n the grid values must pass `_check_cube_hypothesis`, the four
    functions hypothesis of the pushed triple; every grid is checked before
    any quadrature runs, and a failed target quadrature raises
    QuadratureFailed naming f, g or h.  The row records the product
    inequality

        E[e^{F_n}] E[e^{G_n}] <= E[e^{H_n}]^2

    alongside convergence of all three expectations to their standard
    Gaussian integrals.  Only the grid values are checked: convexity of h
    off the grid is neither checked nor claimed, and the rows do not need
    it.  `lam` rescales the arguments by sqrt(lam) (the flat-to-Gaussian
    reweighting step).
    """
    import numpy as np  # not at module level: cli imports this module, and most commands never run an experiment

    if not 0 < lam < math.inf:  # inf * 0 would make NaN grid values
        raise ConfigError(f"lam must be > 0 and finite, not {lam}")
    root = math.sqrt(lam)
    fns = [fn if lam == 1.0 else (lambda x, fn=fn: fn(root * x)) for fn in (f, g, h)]
    grids = []
    for n in n_list:
        if n < 1:  # numpy would divide by sqrt(0) without a word
            raise ConfigError(f"need n >= 1, not {n}")
        points = ((np.arange(n + 1) - n / 2) / (math.sqrt(n) / 2)).tolist()
        values = [list(map(fn, points)) for fn in fns]
        _check_cube_hypothesis(points, *values)
        grids.append((n, values))
    targets = _targets("fgh", fns, gaussian_exp_integral)
    rows = []
    for n, values in grids:
        weights = binomial_weights(n)
        # only the weights that did not underflow: the zeros are the two tails, of equal length
        tail = weights.count(0.0) // 2
        kept = slice(tail, n + 1 - tail)
        ef, eg, eh = (_expectation(weights[kept], vs[kept]) for vs in values)
        lhs, rhs = ef * eg, eh * eh
        rel_errs = (abs(e - t) / t for e, t in zip((ef, eg, eh), targets))
        rows.append(CltRow(n, ef, eg, eh, lhs, rhs, lhs <= rhs * (1 + INEQ_SLACK), *targets, *rel_errs))
    return rows


@dataclass(frozen=True)
class UniformInterval:
    """Uniform law on [a, b) with rational endpoints; exact cell probabilities."""

    a: Fraction
    b: Fraction

    def cell_masses(self, n: int, half_width: int) -> Pmf:
        if not (-half_width <= self.a < self.b <= half_width):
            raise SupportExceedsWindow(f"[{self.a},{self.b}) not inside [-{half_width},{half_width})")
        (p, s), r = to_common_unit([self.a, self.b])
        lo, hi = p * n // r, -(-s * n // r)  # floor(a n) and ceil(b n)
        # in the unit 1 / (rn), cell [k/n, (k+1)/n) = [kr, (k+1)r) meets [pn, sn) in r, less the end cells' parts outside
        overlaps = [r] * (hi - lo)
        overlaps[0] -= p * n - lo * r
        overlaps[-1] -= hi * r - s * n
        return _canonical(lo, overlaps, (s - p) * n)

    def continuous_entropy(self, half_width: int) -> float:
        # H(uniform[a,b) | uniform[-K,K)) = log(2K / (b - a))
        return math.log(2 * half_width / float(self.b - self.a))


@dataclass(frozen=True)
class PointMass:
    """Deterministic law at a rational point: a single lattice cell after rounding."""

    c: Fraction

    def cell_masses(self, n: int, half_width: int) -> Pmf:
        if not -half_width <= self.c < half_width:
            raise SupportExceedsWindow(f"{self.c} not inside [-{half_width},{half_width})")
        return delta(math.floor(self.c * n))

    def continuous_entropy(self, half_width: int) -> None:
        return None  # not absolutely continuous


@dataclass(frozen=True)
class DispRow:
    n: int
    entropy0: float
    entropy1: float
    entropy_minus: float
    entropy_plus: float
    gap: float
    ratio_sum: Fraction
    reference_shift: float
    cont0: float | None
    cont1: float | None
    jensen0_ok: bool | None
    jensen1_ok: bool | None
    holds: bool


def rescaled_displacement_experiment(dist0, dist1, half_width: int, n_list: Sequence[int]):
    """Displacement convexity on (1/n)Z via floor(nX)/n rounding.

    The lattice index map k <-> k/n reduces everything to the integer
    machinery; entropies relative to the uniform reference on the 2nK cells
    are counting entropies plus the explicit shift log(2nK), which cancels
    in the displacement gap.  When a continuous relative entropy is
    available, the row also records the rounding monotonicity
    H(nu_i^n | mu^n) <= H(nu_i | mu) (+APPROX_TOL).  A row holds when
    its `DisplacementReport` holds.
    """
    rows = []
    for n in n_list:
        nu0 = dist0.cell_masses(n, half_width)
        nu1 = dist1.cell_masses(n, half_width)
        shift = math.log(2 * n * half_width)
        report = displacement_gap(nu0, nu1)
        cont0 = dist0.continuous_entropy(half_width)
        cont1 = dist1.continuous_entropy(half_width)
        h0 = report.entropy0 + shift
        h1 = report.entropy1 + shift
        rows.append(
            DispRow(
                n=n,
                entropy0=h0,
                entropy1=h1,
                entropy_minus=report.entropy_minus + shift,
                entropy_plus=report.entropy_plus + shift,
                gap=report.gap,
                ratio_sum=report.ratio_sum,
                reference_shift=shift,
                cont0=cont0,
                cont1=cont1,
                jensen0_ok=None if cont0 is None else h0 <= cont0 + APPROX_TOL,
                jensen1_ok=None if cont1 is None else h1 <= cont1 + APPROX_TOL,
                holds=report.holds,
            )
        )
    return rows


def _gauss_bump(x: float) -> float:
    return math.exp(-x * x)


PL_DEMOS = {
    # hypothesis F(x)G(y) <= H(m)K(m), m=(x+y)/2, holds by the parallelogram
    # identity x^2 + y^2 >= (x+y)^2/2 (shift x,y for the off-center pair)
    "gaussian": (_gauss_bump, _gauss_bump, _gauss_bump, _gauss_bump, 6.0),
    "shifted-gaussian": (
        lambda x: math.exp(-((x - 1) ** 2)),
        lambda x: math.exp(-((x + 1) ** 2)),
        _gauss_bump,
        _gauss_bump,
        6.0,
    ),
    "zero": (lambda x: 0.0, lambda x: 0.0, _gauss_bump, _gauss_bump, 4.0),
}

CLT_DEMOS = {
    # (f(x)+g(y))/2 <= h((x+y)/2): equality for the linear triple; for the
    # quadratic one, dropping -x^2/4 terms only lowers the left side
    "linear": (lambda x: x, lambda x: x, lambda x: x),
    "quadratic": (lambda x: x - x * x / 4, lambda x: x - x * x / 4, lambda x: x),
}

DISP_DEMOS = {
    "same-uniform": (UniformInterval(Fraction(0), Fraction(1)), UniformInterval(Fraction(0), Fraction(1)), 1),
    "two-uniform": (UniformInterval(Fraction(-1), Fraction(0)), UniformInterval(Fraction(0), Fraction(1)), 1),
    "dirac-uniform": (PointMass(Fraction(0)), UniformInterval(Fraction(0), Fraction(1)), 1),
}
