"""Lattice checks on the discrete cube {0,1}^n.

The multiplicative four-functions hypothesis f(x)g(y) <= h(x^y)k(xvy) and
its conclusion (sum f)(sum g) <= (sum h)(sum k) are checked exactly when the
values are rational; the hypothesis sweep then runs on ints, each function
scaled to the common integer unit of its values (`measures.to_common_unit`),
unless a unit is longer than MAX_UNIT_BITS.
The additive form works on exponents: its hypothesis runs the same pair
sweep on sums, exact when every value is rational, and its conclusion
compares log-sum-exps, so no value is ever exponentiated out of range.

Cube functions are stored as length-2^n vectors; bit i of the index is
coordinate i, so meet/join of index vectors are bitwise AND/OR and slicing
on the last coordinate is a contiguous split.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    witness: tuple | None  # (x_bits, y_bits, lhs, rhs) of the first failing pair


def _first_violation(n: int, swept, reported, combine) -> tuple | None:
    """(x_bits, y_bits, lhs, rhs) of the first pair with combine(f(x), g(y)) > combine(h(x^y), k(xvy)).

    The pairs are swept on the value vectors `swept` = (f, g, h, k); lhs and
    rhs of the failing pair are recomputed from `reported`, the same four
    functions in the values the caller reports.
    """
    f, g, h, k = swept
    size = 2**n
    for x in range(size):
        for y in range(size):
            if combine(f[x], g[y]) > combine(h[x & y], k[x | y]):
                f, g, h, k = reported
                return bits_of(x, n), bits_of(y, n), combine(f[x], g[y]), combine(h[x & y], k[x | y])
    return None


#: the int sweep's products carry the four units: per pair it is 2.5x faster than the Fraction
#: products with 300-bit units, and 2.8x slower with 1200-bit ones (dim 8, Python 3.11)
MAX_UNIT_BITS = 256


def check_4ft_hypothesis(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn) -> HypothesisCheck:
    """Exhaustive check of f(x)g(y) <= h(x^y)k(xvy) over all 4^n pairs.

    Exact for rational values: each function is scaled to integers in its
    own common unit, f's integers are multiplied by the units of h and k and
    h's by those of f and g, so the sweep compares int products.  A unit of
    more than MAX_UNIT_BITS bits (many distinct large denominators) would
    make every product larger than the Fraction products it replaces, so
    such a quadruple is swept on its own values.  So is a quadruple holding
    any float, as floats compare; exact scaling could flip a float
    near-tie.  The witness products are in the given values.  Values must
    be non-negative (NegativeMass), which is tested on the scaled ints when
    the sweep runs on them.
    """
    n = _same_dimension(f, g, h, k)
    values = [fn.values for fn in (f, g, h, k)]
    units = []
    if not any(isinstance(v, float) for vs in values for v in vs):
        units = [to_common_unit(vs, MAX_UNIT_BITS) for vs in values]
    exact = units and all(units)
    # a unit is positive, so each scaled int has the sign of its value
    negative = min(min(ints) for ints, _ in units) < 0 if exact else any(v < 0 for vs in values for v in vs)
    if negative:
        raise NegativeMass("multiplicative form needs non-negative values")
    swept = values
    if exact:
        (fi, sf), (gi, sg), (hi, sh), (ki, sk) = units
        swept = [[v * sh * sk for v in fi], gi, [v * sf * sg for v in hi], ki]
    witness = _first_violation(n, swept, values, operator.mul)
    return HypothesisCheck(witness is None, witness)


def check_4ft_conclusion(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn):
    """(lhs, rhs, holds) for (sum f)(sum g) <= (sum h)(sum k), exact sums."""
    _same_dimension(f, g, h, k)
    lhs = left_sum(f.values) * left_sum(g.values)
    rhs = left_sum(h.values) * left_sum(k.values)
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
