"""Lattice checks on the discrete cube {0,1}^n.

The multiplicative four-functions hypothesis f(x)g(y) <= h(x^y)k(xvy) and
its conclusion (sum f)(sum g) <= (sum h)(sum k) are checked exactly when the
values are rational; the hypothesis sweep then runs on ints, the whole
quadruple scaled to one common integer unit (`measures.to_common_unit`),
unless that unit is longer than MAX_UNIT_BITS or a screened sweep's ints
would leave the screen's float64 range.
The additive form works on exponents: its hypothesis runs the same pair
sweep on sums, exact when every value is rational, and its conclusion
compares log-sum-exps, so no value is ever exponentiated out of range.

Both hypotheses share one pair sweep, `_first_violation`: an interpreted
loop up to LOOP_MAX_DIM, and numpy row blocks above it.  A sweep over
floats forms the loop's own IEEE products or sums in float64.  Any other
sweep is screened on the float64 images of its values: a pair is skipped
only when the images prove it with a stated error bound, and every other
pair (an exact tie, a value with no normal image) is compared exactly on
the swept values.  Either way the witness is the loop's first failing pair.

Cube functions are stored as length-2^n vectors; bit i of the index is
coordinate i, so meet/join of index vectors are bitwise AND/OR and slicing
on the last coordinate is a contiguous split.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable

from .errors import DimensionMismatch, LengthMismatch, NegativeMass, PreconditionViolated, SupportNotBinary
from .limits import grid_hypothesis_witness
from .measures import APPROX_TOL, RealFn, _uniform_ints, left_sum, logsumexp, to_common_unit


@dataclass(frozen=True)
class CubeFn:
    """Function on {0,1}^n as a 2^n vector (rationals or floats)."""

    n: int
    values: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.values) != 2**self.n:
            raise LengthMismatch(f"need 2^{self.n} values, got {len(self.values)}")

    def slice_last(self, a: int) -> "CubeFn":
        """Restriction h^a fixing the last coordinate to a."""
        half = 2 ** (self.n - 1)
        return CubeFn(self.n - 1, self.values[a * half : (a + 1) * half])


def bits_of(index: int, n: int) -> tuple[int, ...]:
    return tuple([(index >> i) & 1 for i in range(n)])


def _same_dimension(*fns: CubeFn) -> int:
    n = fns[0].n
    if any(f.n != n for f in fns):
        raise DimensionMismatch(f"dimensions {[f.n for f in fns]} differ")
    return n


def _holds_floats(values) -> bool:
    """Whether any of the value vectors holds a float; PreconditionViolated if a float is not finite."""
    if not any([issubclass(t, float) for t in set(map(type, chain(*values)))]):
        return False
    if not all([math.isfinite(v) for vs in values for v in vs if isinstance(v, float)]):
        raise PreconditionViolated("multiplicative 4FT values must be finite")
    return True


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    witness: tuple | None  # (x_bits, y_bits, lhs, rhs) of the first failing pair


def _first_violation(n: int, swept, reported, combine) -> tuple | None:
    """(x_bits, y_bits, lhs, rhs) of the first pair with combine(f(x), g(y)) > combine(h(x^y), k(xvy)).

    The pairs are swept on the value vectors `swept` = (f, g, h, k) in
    row-major order (x outer, y inner), in an interpreted loop up to
    LOOP_MAX_DIM and in numpy row blocks above it (`_screened_violation`);
    both find the same first pair.  combine is operator.mul or operator.add.
    lhs and rhs of the failing pair are recomputed from `reported`, the same
    four functions in the values the caller reports.
    """
    sweep = _screened_violation if n > LOOP_MAX_DIM else _looped_violation
    pair = sweep(2**n, swept, combine)
    if pair is None:
        return None
    x, y = pair
    f, g, h, k = reported
    return bits_of(x, n), bits_of(y, n), combine(f[x], g[y]), combine(h[x & y], k[x | y])


#: dimensions up to this one sweep in the interpreted loop, larger ones in numpy row blocks.  A whole
#: check_4ft_hypothesis took 53 us screened against 51 us looped at n = 4 on the cube-limits benchmark's
#: quadruples, and 79 against 54 on campaign quadruples, whose many exact ties all go to the recheck;
#: at n = 5 it took 86 us against 153 (Python 3.11, numpy 2.4, 2 cores)
LOOP_MAX_DIM = 4

#: pairs per numpy row block of `_screened_violation`: a block's arrays stay near 0.5 MB each at n = 12
_BLOCK_PAIRS = 2**16

#: the screen proves f(x)g(y) <= h(x^y)k(xvy) when the float64 product of the images, f's image first
#: scaled by this factor, is <= that of h and k (error bound in `_screened_violation`)
_PRODUCT_SLACK = 1 + 2.0**-48

#: the screen proves h1(x)+h2(y) <= h3(x^y)+h4(xvy) when the float64 sums differ by at least this
#: multiple of the largest image magnitude (error bound in `_screened_violation`)
_SUM_SLACK = 2.0**-47


def _looped_violation(size: int, swept, combine) -> tuple[int, int] | None:
    f, g, h, k = swept
    for x in range(size):
        for y in range(size):
            if combine(f[x], g[y]) > combine(h[x & y], k[x | y]):
                return x, y
    return None


def _images(np, values: list, low: float, high: float):
    """float64 images of the values: float(v) where low <= |float(v)| < high or v == 0, else NaN.

    float(v) is correctly rounded for ints, Fractions and floats, so each
    image is within a relative 2^-53 of its value; a value whose image would
    be subnormal, zero, out of range or past `high` gets NaN instead.
    """
    try:
        images = np.array(values, dtype=float)
    except OverflowError:  # an int or Fraction past the float range
        images = np.array([_image(v) for v in values])
    magnitudes = np.abs(images)
    for i in np.flatnonzero(~((low <= magnitudes) & (magnitudes < high))).tolist():
        if values[i]:
            images[i] = math.nan
    return images


def _image(v) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.nan


def _screened_violation(size: int, swept, combine) -> tuple[int, int] | None:
    """The first (x, y) in row-major order whose pair fails, from numpy row blocks of at most _BLOCK_PAIRS pairs.

    Meet and join indices are `xs & ys` and `xs | ys`.  When every value is
    a float, each block forms the loop's own IEEE products (or sums) in
    float64, so its first True is the loop's first failing pair.

    Otherwise the float64 images screen each block: a pair the screen proves
    is skipped, and every other pair is compared exactly, in one pass over
    object arrays of the swept values (the loop's own Python operations),
    before the next block is screened.  Images are within a relative
    u = 2^-53 of their values (`_images`), and a value without such an
    image is NaN, which proves no pair.

    Products (values >= 0): nonzero images lie in [2^-511, 2^511), so every
    product below is 0 or a normal float, with one rounding of relative
    error <= u and no overflow.  Let F = fl(f~ (1 + 2^-48)) for the image f~
    of f(x), L = fl(F g~) and R = fl(h~ k~).  The pair is proven when
    L <= R.  If L = 0, then f(x) or g(y) is 0 and the pair holds.  Else
    f(x)g(y) <= f~g~ / (1-u)^2 <= L / ((1 + 2^-48)(1-u)^4) and
    h(x^y)k(xvy) >= R / (1+u)^3, and (1 + 2^-48)(1-u)^4 > (1+u)^3 needs
    2^-48 = 32u > 7u + O(u^2): over 4x margin.  An exact tie such as the
    comparable pairs of (au, bu, au, bu) is never proven.

    Sums: nonzero images lie in [2^-1022, 2^1021), so no sum overflows.
    Let S be the largest image magnitude, L = fl(h1~ + h2~),
    R = fl(h3~ + h4~) and D = fl(R - L).  Each exact sum is within
    u(2 + u)(|h_i| + |h_j|) <= 2.0001u * 2S / (1 - u) of its float sum, so
    the exact right side minus the exact left side is at least
    D / (1+u) - 8.001uS.  The pair is proven when D >= E =
    max(2^-47 S, 2^-1022) >= 64uS: over 7x margin.
    """
    import numpy as np  # not at module level: cli imports this module, and small sweeps never build arrays

    values = [*chain(*swept)]
    floats = all([issubclass(t, float) for t in set(map(type, values))])
    product = combine is operator.mul
    if floats:
        images = np.array(values, dtype=float)
    elif product:
        images = _images(np, values, 2.0**-511, 2.0**511)
        images[:size] *= _PRODUCT_SLACK
    else:
        images = _images(np, values, sys.float_info.min, 2.0**1021)
        least_gap = max(_SUM_SLACK * np.fmax.reduce(np.abs(images)), sys.float_info.min)
    f, g, h, k = images.reshape(4, size)
    objects = None
    ys = np.arange(size)
    rows = max(1, _BLOCK_PAIRS // size)
    for top in range(0, size, rows):
        xs = ys[top : top + rows, None]
        with np.errstate(over="ignore", invalid="ignore"):
            lhs, rhs = combine(f[xs], g), combine(h[xs & ys], k[xs | ys])
            if floats:
                over = lhs > rhs
                first = int(over.argmax())
                if over.flat[first]:
                    return top + first // size, first % size
                continue
            proven = lhs <= rhs if product else rhs - lhs >= least_gap
        unproven = np.flatnonzero(~proven)
        if not len(unproven):
            continue
        if objects is None:
            objects = [np.array(vs, dtype=object) for vs in swept]
        fo, go, ho, ko = objects
        px, py = top + unproven // size, unproven % size
        over = combine(fo[px], go[py]) > combine(ho[px & py], ko[px | py])
        first = int(over.argmax())
        if over[first]:
            return int(px[first]), int(py[first])
    return None


#: a quadruple's one unit: values below 2^(511 - 256) scale to ints below 2^511, in the screen's image range;
#: int products, scaling included, beat Fraction products at every unit timed up to 721 bits (Python 3.11)
MAX_UNIT_BITS = 256


def _one_unit(values) -> tuple[list[int], int] | None:
    """(ints, unit) of the four value vectors in one common unit, or None for floats and units past MAX_UNIT_BITS."""
    return None if _holds_floats(values) else to_common_unit([*chain(*values)], MAX_UNIT_BITS)


def check_4ft_hypothesis(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn) -> HypothesisCheck:
    """Exhaustive check of f(x)g(y) <= h(x^y)k(xvy) over all 4^n pairs.

    Exact for rational values: the four functions are scaled to ints in one
    common unit U, and the hypothesis holds exactly when it holds for the
    ints, as U^2 cancels.  A unit longer than MAX_UNIT_BITS (many distinct
    large denominators) could push the ints out of the screen's float64
    range, so such a quadruple is swept on its own values; so is one whose
    largest int reaches 2^511 above LOOP_MAX_DIM (large values in a short
    unit), and one holding a float, as floats compare (exact scaling could
    flip a float near-tie).
    Witness products are in the given values.  Values must be non-negative
    (NegativeMass; U > 0 keeps each sign) and finite (PreconditionViolated).
    """
    n = _same_dimension(f, g, h, k)
    values = [fn.values for fn in (f, g, h, k)]
    scaled = _one_unit(values)
    if scaled is not None and n > LOOP_MAX_DIM and max(scaled[0]) >= 2**511:  # past the screen's image range
        scaled = None
    swept = values if scaled is None else [scaled[0][i : i + 2**n] for i in range(0, 4 * 2**n, 2**n)]
    if min(chain(*swept)) < 0:
        raise NegativeMass("multiplicative form needs non-negative values")
    witness = _first_violation(n, swept, values, operator.mul)
    return HypothesisCheck(witness is None, witness)


def check_4ft_conclusion(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn):
    """(lhs, rhs, holds) for (sum f)(sum g) <= (sum h)(sum k), exact sums.

    Rational values are summed as ints in the quadruple's one unit U, and
    each side is built once from its int product over U^2: an int when the
    side's two functions hold only ints, else a Fraction.  Floats, and a
    unit past MAX_UNIT_BITS, are summed in their own values by `left_sum`.
    Values must be finite (PreconditionViolated); a sum that overflows to
    inf from finite floats is reported as it is.
    """
    n = _same_dimension(f, g, h, k)
    values = [fn.values for fn in (f, g, h, k)]
    scaled = _one_unit(values)
    if scaled is None:
        sf, sg, sh, sk = map(left_sum, values)
        lhs, rhs = sf * sg, sh * sk
    else:
        ints, unit = scaled
        sf, sg, sh, sk = (sum(ints[i : i + 2**n]) for i in range(0, 4 * 2**n, 2**n))
        lhs, rhs = (
            a * b // unit**2 if all([issubclass(t, int) for t in set(map(type, chain(*vs)))]) else Fraction(a * b, unit**2)
            for a, b, vs in ((sf, sg, values[:2]), (sh, sk, values[2:]))
        )
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class AdditiveCheck:
    hypothesis_ok: bool
    hyp_witness: tuple | None
    lhs: float  # log sum e^{h1} + log sum e^{h2}
    rhs: float  # log sum e^{h3} + log sum e^{h4}
    conclusion_ok: bool

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.conclusion_ok


def check_4ft_additive(h1: CubeFn, h2: CubeFn, h3: CubeFn, h4: CubeFn) -> AdditiveCheck:
    """Additive form h1(x)+h2(y) <= h3(x^y)+h4(xvy) with log-sum conclusion.

    The hypothesis sweep sums exactly when every value is rational, and in
    floats once any value is a float; witness sums are reported as floats.
    The conclusion compares log-sum-exps with APPROX_TOL, so it is exact up
    to round-off for any finite exponents.  Values must be finite:
    PreconditionViolated otherwise.
    """
    n = _same_dimension(h1, h2, h3, h4)
    fns = (h1, h2, h3, h4)
    try:
        finite = all(math.isfinite(v) for h in fns for v in h.values)
    except OverflowError:  # a rational beyond the float range
        finite = False
    if not finite:
        raise PreconditionViolated("additive 4FT values must be finite")
    values = [h.values for h in fns]
    if any(isinstance(v, float) for vs in values for v in vs):
        values = [list(map(float, vs)) for vs in values]
    witness = _first_violation(n, values, values, operator.add)
    if witness is not None:
        witness = (*witness[:2], float(witness[2]), float(witness[3]))
    lhs_log = logsumexp(h1.values) + logsumexp(h2.values)
    rhs_log = logsumexp(h3.values) + logsumexp(h4.values)
    conclusion_ok = lhs_log <= rhs_log + APPROX_TOL
    return AdditiveCheck(witness is None, witness, lhs_log, rhs_log, conclusion_ok)


def functional_power(phi: Callable[[float, float], float], h: CubeFn) -> float:
    """Tensorized value: apply the two-point functional phi(u0, u1) recursively over the last coordinate.

    phi must be monotone in each of its two values: that is what lets the
    recursive tensorization propagate the lattice hypothesis.  The one
    built-in is log-mean-exp (`PHI_ENTROPY`), a sup of affine maps with
    non-negative coefficients, hence monotone; its value is
    log int e^h dm_n over the uniform measure m_n.
    """
    if h.n == 1:
        return phi(h.values[0], h.values[1])
    return phi(functional_power(phi, h.slice_last(0)), functional_power(phi, h.slice_last(1)))


def log_mean_exp(h: CubeFn) -> float:
    """Direct log int e^h dm_n (uniform m_n); the non-recursive route."""
    return logsumexp(h.values) - h.n * math.log(2)


def PHI_ENTROPY(u0, u1) -> float:
    return logsumexp((u0, u1)) - math.log(2)


@dataclass(frozen=True)
class CubeReduction:
    """Outcome of restricting a binary-supported quadruple on Z to the cube {0,1}.

    On {0,1} the floor/ceiling midpoints coincide with meet/join, so the
    integer-line hypothesis for the zero-extended functions is equivalent to
    the n=1 cube hypothesis, and the line conclusion specializes to
    (f(0)+f(1))(g(0)+g(1)) <= (h(0)+h(1))(k(0)+k(1)).
    """

    cube_hypothesis_ok: bool
    line_hypothesis_ok: bool
    equivalent: bool
    lhs: object
    rhs: object
    conclusion_ok: bool


def restrict_to_binary_cube(f: RealFn, g: RealFn, h: RealFn, k: RealFn) -> CubeReduction:
    """Check the line/cube equivalence for non-negative functions supported in {0,1}.

    The line hypothesis is the Z midpoint sweep over {0,1}^2; every other
    pair has a zero factor on the left, so the hypothesis is vacuous there.
    """
    for fn in (f, g, h, k):
        for x in fn.window():
            v = fn.value(x)
            if v < 0:
                raise NegativeMass("values must be non-negative")
            if v > 0 and x not in (0, 1):
                raise SupportNotBinary(f"positive value at {x}")
    cubes = tuple(CubeFn(1, (fn.value_or(0), fn.value_or(1))) for fn in (f, g, h, k))
    cube_check = check_4ft_hypothesis(*cubes)
    line_ok = grid_hypothesis_witness(*(RealFn(0, cube.values) for cube in cubes)) is None
    lhs, rhs, concl = check_4ft_conclusion(*cubes)
    return CubeReduction(
        cube_hypothesis_ok=cube_check.ok,
        line_hypothesis_ok=line_ok,
        equivalent=cube_check.ok == line_ok,
        lhs=lhs,
        rhs=rhs,
        conclusion_ok=concl,
    )


def random_hypothesis_quadruple(rng, n: int, resolution: int):
    """Random rational quadruple satisfying the multiplicative hypothesis.

    Draws positive integer values, repairs them into a log-supermodular
    function by sweeping meet/join pairs (raising the meet/join values to
    the max of an offending pair) until a fixpoint, then returns scaled
    copies (alpha*u, beta*u, alpha*u, beta*u).  At the fixpoint no pair
    violates u(x)u(y) <= u(x^y)u(xvy): a violation needs the meet or the
    join value below max(u(x), u(y)), and the sweep raises both to it.
    """
    size = 2**n
    vals = _uniform_ints(rng, size, 1, resolution)
    changed = True
    while changed:
        changed = False
        for x in range(size):
            for y in range(x + 1, size):
                lo, hi = x & y, x | y
                if vals[x] * vals[y] > vals[lo] * vals[hi]:
                    top = max(vals[x], vals[y])
                    if vals[lo] < top:
                        vals[lo] = top
                        changed = True
                    if vals[hi] < top:
                        vals[hi] = top
                        changed = True
    alpha_num, alpha_den, beta_num, beta_den = _uniform_ints(rng, 4, 1, resolution)
    alpha, beta = Fraction(alpha_num, alpha_den), Fraction(beta_num, beta_den)
    f = CubeFn(n, tuple([alpha * v for v in vals]))
    g = CubeFn(n, tuple([beta * v for v in vals]))
    return (f, g, f, g)
