"""Lattice checks on the discrete cube {0,1}^n.

The multiplicative four-functions hypothesis f(x)g(y) <= h(x^y)k(xvy) and
its conclusion (sum f)(sum g) <= (sum h)(sum k) are checked exactly when the
values are rational; the conclusion sums ints in the quadruple's one common
integer unit (`measures.to_common_unit`) unless that unit is longer than
MAX_UNIT_BITS.  The additive form works on exponents: its hypothesis runs
the same pair sweep on sums, exact when every value is rational, and its
conclusion compares log-sum-exps, so no value is ever exponentiated out of
range.

Both hypotheses run the one midpoint sweep of `limits`, which also sweeps
the pl grids on Z (`limits._midpoint_violation`): on {0,1} the floor and
ceiling of (x+y)/2 are meet and join, so only the right side's index map
differs.  Rationals are swept as ints in one unit, screened in float64
blocks with a stated error bound and rechecked exactly where the screen
proves nothing; floats get the loop's own IEEE comparisons with no slack.
Either way the witness is the loop's first failing pair.

Cube functions are stored as length-2^n vectors; bit i of the index is
coordinate i, so meet/join of index vectors are bitwise AND/OR and slicing
on the last coordinate is a contiguous split.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable

from .errors import DimensionMismatch, LengthMismatch, NegativeMass, PreconditionViolated, SupportNotBinary
from .limits import LOOP_MAX_PAIRS, _midpoint_violation, _swept, grid_hypothesis_witness
from .measures import APPROX_TOL, RealFn, _uniform_ints, left_sum, logsumexp


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


def _finite(values) -> None:
    """PreconditionViolated unless every float among the value vectors is finite."""
    if not all([math.isfinite(v) for vs in values for v in vs if isinstance(v, float)]):
        raise PreconditionViolated("multiplicative 4FT values must be finite")


@dataclass(frozen=True)
class HypothesisCheck:
    ok: bool
    witness: tuple | None  # (x_bits, y_bits, lhs, rhs) of the first failing pair


def _first_violation(n: int, swept, floats: bool, reported, combine) -> tuple | None:
    """(x_bits, y_bits, lhs, rhs) of the first pair with combine(f(x), g(y)) > combine(h(x^y), k(xvy)).

    The pairs are swept by `limits._midpoint_violation` on `swept` and
    `floats` from `limits._swept`; lhs and rhs of the failing pair are
    formed in `reported`, the four functions in the values reported.
    """
    pair = _midpoint_violation(swept, floats, combine)
    if pair is None:
        return None
    x, y = pair
    f, g, h, k = reported
    return bits_of(x, n), bits_of(y, n), combine(f[x], g[y]), combine(h[x & y], k[x | y])


def check_4ft_hypothesis(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn) -> HypothesisCheck:
    """Exhaustive check of f(x)g(y) <= h(x^y)k(xvy) over all 4^n pairs.

    Exact for rational values: `limits._swept` scales the four functions to
    ints in one common unit U, as U^2 cancels, unless U is longer than
    MAX_UNIT_BITS or the ints would leave the screen's float64 range; such
    a quadruple, and one holding a float, is swept on its own values (exact
    scaling could flip a float near-tie).  Witness products are in the
    given values.  Values must be non-negative (NegativeMass; U > 0 keeps
    each sign) and finite, and no side, (f, g) or (h, k), may mix floats
    with a rational past the float range (PreconditionViolated).
    """
    n = _same_dimension(f, g, h, k)
    values = [fn.values for fn in (f, g, h, k)]
    swept, floats, unit = _swept(values, 4**n > LOOP_MAX_PAIRS)
    if unit is None:  # scaled ints are finite
        _finite(values)
    if min(chain(*swept)) < 0:
        raise NegativeMass("multiplicative form needs non-negative values")
    witness = _first_violation(n, swept, floats, values, operator.mul)
    return HypothesisCheck(witness is None, witness)


def check_4ft_conclusion(f: CubeFn, g: CubeFn, h: CubeFn, k: CubeFn):
    """(lhs, rhs, holds) for (sum f)(sum g) <= (sum h)(sum k), exact sums.

    Rational values are summed as ints in the quadruple's one unit U, and
    each side is built once from its int product over U^2: an int when the
    side's two functions hold only ints, else a Fraction.  Floats, and a
    unit past MAX_UNIT_BITS, are summed in their own values by `left_sum`.
    Values must be finite, and no side may mix floats with a rational past
    the float range (PreconditionViolated); a sum that overflows to inf
    from finite floats is reported as it is.
    """
    _same_dimension(f, g, h, k)
    values = [fn.values for fn in (f, g, h, k)]
    ints, _, unit = _swept(values, False)
    if unit is None:
        _finite(values)
        sf, sg, sh, sk = map(left_sum, values)
        lhs, rhs = sf * sg, sh * sk
    else:
        sf, sg, sh, sk = map(sum, ints)
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
    witness = _first_violation(n, *_swept(values, 4**n > LOOP_MAX_PAIRS)[:2], values, operator.add)
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
