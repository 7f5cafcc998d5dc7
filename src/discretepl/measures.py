"""Finitely supported probability mass functions on Z and entropy functionals.

A Pmf stores coprime integer weights over one integer total, so every mass
is the exact rational weight / total and every mass-only identity
(normalization, marginals, ratio sums) can be checked in integers or with
rational equality.  Logarithmic quantities (entropies, log-Laplace
transforms) are IEEE doubles in natural log.  They are formed from the
weights without building Fractions (`_log_ratio`), and equal the Fraction
formulas bit for bit; a Fraction is built only where a value is returned or
reported.  Float verdicts use the tolerances named below, except two
comparisons with no slack (ROADMAP items 13 and 16): the one midpoint sweep
of `limits` on floats, which serves the pl grid and the 4FT hypotheses, and
the multiplicative 4FT conclusion on floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NegativeMass, NotNormalized

ZERO = Fraction(0)
ONE = Fraction(1)

#: two-sided float identities are asserted to this tolerance; also the
#: accuracy target of the quadrature oracle in `limits`
EQ_TOL = 1e-10
#: one-sided float inequalities get this much slack (also the rescaled-lattice gaps)
INEQ_SLACK = 1e-12
#: exception, one-sided: both sides are float sums over many atoms (Jensen
#: certificates, transport cost against entropies, and, relative, the pl rows)
SUM_SLACK = 1e-10
#: exception, either side: one side comes from quadrature, a continuous closed
#: form, a log-sum-exp of user exponents or a user float function
APPROX_TOL = 1e-9


def to_common_unit(values, max_bits: int | None = None) -> tuple[list[int], int] | None:
    """(ints, scale) with values[i] == ints[i] / scale exactly; scale is the lcm of the denominators.

    Every value is read off its `as_integer_ratio`, which ints, bools,
    Fractions and floats all have: the reduced (numerator, denominator) of
    an int or a Fraction, and the exact binary value of a float (what
    `Fraction(float)` reads, without building the Fraction; NaN and +-inf
    raise there).  With `max_bits`, a scale longer than that many bits gives
    None before any value is scaled; past 64 values the lcm takes them 64 at
    a time and stops at the first partial lcm past the cap, as it only grows.
    The lcm's arguments come from a list, not a generator: a tuple built from
    a generator is allocated at one size and freed at another, which strands
    a small tuple on CPython's free lists on every call.
    """
    ratios = [v.as_integer_ratio() for v in values]
    if max_bits is None or len(ratios) <= 64:
        scale = math.lcm(*[q for _, q in ratios])
    else:
        scale = 1
        for i in range(0, len(ratios), 64):
            if (scale := math.lcm(scale, *[q for _, q in ratios[i : i + 64]])).bit_length() > max_bits:
                return None
    if max_bits is not None and scale.bit_length() > max_bits:
        return None
    return [p * (scale // q) for p, q in ratios], scale


@dataclass(frozen=True)
class Pmf:
    """Probability mass function stored on a contiguous window of Z.

    The mass at `offset + i` is `weights[i] / total`.  Canonical form: the
    first and last weights are strictly positive (zeros may occur inside),
    the weights are coprime and they sum to `total`, so equal measures
    compare and hash equal.  Instances are immutable; build them with
    :func:`pmf` or :func:`from_weights`, which validate and trim.  `gapless`
    (asked of a transport reference on every trial and every cost cell) is
    an O(window) walk, computed once per instance.
    """

    offset: int
    weights: tuple[int, ...]
    total: int

    @property
    def masses(self) -> tuple[Fraction, ...]:
        """The masses as Fractions, built on each access."""
        return tuple([Fraction(w, self.total) for w in self.weights])

    def window(self) -> range:
        return range(self.offset, self.offset + len(self.weights))

    def weight(self, x: int) -> int:
        i = x - self.offset
        return self.weights[i] if 0 <= i < len(self.weights) else 0

    def mass(self, x: int) -> Fraction:
        return Fraction(self.weight(x), self.total)

    def support_points(self) -> list[int]:
        return [self.offset + i for i, w in enumerate(self.weights) if w]

    def __str__(self) -> str:
        body = " ".join([_ratio_str(w, self.total) for w in self.weights])
        return f"{self.offset}; {body}"

    @functools.cached_property
    def gapless(self) -> bool:
        """No zero weight inside the window, so the positive support is the whole window."""
        return all(self.weights)


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for ints n >= 0 and d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _log_ratio(n: int, d: int) -> float:
    """log(n / d) for positive ints, safe for huge ones: the difference of the logs of the reduced n and d."""
    g = math.gcd(n, d)
    return math.log(n // g) - math.log(d // g)


def _mass_times_log(w: int, unit: int, n: int, d: int) -> float:
    """float(Fraction(w, unit)) * _log_ratio(n, d) for positive ints, on ints.

    w / unit is correctly rounded, as the float of a Fraction is, so the
    float is the same.
    """
    return w / unit * _log_ratio(n, d)


def _canonical(offset: int, ints: list[int], unit: int) -> Pmf:
    """The canonical Pmf with mass ints[i] / unit at offset + i: trimmed and divided by the gcd."""
    if min(ints, default=0) < 0:
        raise NegativeMass(f"negative mass {Fraction(next(w for w in ints if w < 0), unit)}")
    total = sum(ints)
    if total != unit:
        raise NotNormalized(Fraction(unit - total, unit))
    lo, hi = 0, len(ints) - 1
    while not ints[lo]:
        lo += 1
    while not ints[hi]:
        hi -= 1
    g = math.gcd(*ints)
    return Pmf(offset + lo, tuple(ints[lo : hi + 1] if g == 1 else [w // g for w in ints[lo : hi + 1]]), unit // g)


def pmf(offset: int, masses: Sequence) -> Pmf:
    """Validated, canonically trimmed Pmf from a window of rational masses."""
    return _canonical(offset, *to_common_unit(masses))


def delta(x: int) -> Pmf:
    return Pmf(x, (1,), 1)


def uniform_on(points: Sequence[int]) -> Pmf:
    """Equal mass on the given (not necessarily contiguous) points."""
    pts = set(points)
    lo, hi = min(pts), max(pts)
    return from_weights(lo, [int(x in pts) for x in range(lo, hi + 1)])


def from_weights(offset: int, weights: Sequence) -> Pmf:
    """Normalize non-negative rational weights exactly; int weights are used as they are."""
    ints = weights if all([type(w) is int for w in weights]) else to_common_unit(weights)[0]
    if sum(ints) <= 0:
        raise NotNormalized(ONE)
    return _canonical(offset, ints, sum(ints))


def _uniform_ints(rng, count: int, lo: int, hi: int) -> list[int]:
    """`[rng.randint(lo, hi) for _ in range(count)]`, the same draws at about a quarter of the cost.

    On Python 3.10 to 3.13, `randint` draws `getrandbits(k)` with k the bit
    length of the range size and rejects values past the range; this is that
    loop without its per-draw calls, so the rng ends in the same state.
    """
    size = hi - lo + 1
    if size < 1:
        raise ValueError(f"empty range {lo}..{hi}")
    bits = size.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        draws.append(lo + r)
    return draws


@dataclass(frozen=True)
class RealFn:
    """Real-valued function on a finite contiguous window of Z.

    Values may be floats or Fractions; operations only assume they support
    arithmetic and comparison.
    """

    offset: int
    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("RealFn needs a non-empty window")

    def window(self) -> range:
        return range(self.offset, self.offset + len(self.values))

    def value(self, x: int):
        i = x - self.offset
        if not 0 <= i < len(self.values):
            raise KeyError(f"{x} outside window {self.window()}")
        return self.values[i]

    def value_or(self, x: int):
        """The value at x, or 0 outside the window."""
        i = x - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0


def counting_entropy(nu: Pmf) -> float:
    """Entropy relative to counting measure: sum nu(x) log nu(x) over the support.

    Always <= 0 because every atom is <= 1.  Invariant under translation.
    Each term is float(m) * log m, formed from the weights, once per distinct
    weight if `_repeats`, and the terms are added left to right.
    """
    weights, total = nu.weights, nu.total
    if not _repeats(total, len(weights)):
        return left_sum([_mass_times_log(w, total, w, total) for w in weights if w])
    term = {w: _mass_times_log(w, total, w, total) for w in set(weights) if w}
    return left_sum([term[w] for w in weights if w])


def _repeats(total: int, count: int) -> bool:
    """Whether under count / 2 of `count` int weights summing to `total` can be distinct and positive.

    D distinct positive weights sum to over D^2 / 2, so D < count / 2 once 8 total <= count^2: an O(1) test.
    """
    return 8 * total <= count * count


def relative_entropy(nu: Pmf, mu: Pmf) -> float:
    """sum nu(x) log(nu(x)/mu(x)); +inf when nu charges a mu-null point.

    Non-negative by Jensen; exactly 0.0 when nu == mu.  Each term is
    float(m) * log(m / q), formed from the weights.
    """
    acc = 0.0
    ref = mu.weights
    for i, w in enumerate(nu.weights, nu.offset - mu.offset):
        if w:
            v = ref[i] if 0 <= i < len(ref) else 0
            if v == 0:
                return math.inf
            acc += _mass_times_log(w, nu.total, w * mu.total, nu.total * v)
    return acc


def left_sum(values):
    """The sum of the values, added left to right from an int 0 (which is returned for no values).

    This is `sum` up to Python 3.11; from 3.12 `sum` compensates float
    rounding, so the last bits of a float sum would depend on the
    interpreter.  Every sum that can see floats goes through here.
    """
    return functools.reduce(operator.add, values, 0)


def logsumexp(values) -> float:
    """log of sum e^v over the values, floated first; an infinite maximum is returned as is."""
    exponents = [float(v) for v in values]
    top = max(exponents)
    if math.isinf(top):
        return top
    return top + math.log(left_sum(math.exp(e - top) for e in exponents))


def log_laplace(phi: RealFn) -> float:
    """log of sum e^{phi(x)} over the window of phi (counting weight 1 per point)."""
    return logsumexp(phi.values)


def expectation(phi: RealFn, nu: Pmf) -> float:
    """Integral of phi against nu (float)."""
    return left_sum(w / nu.total * float(phi.value(x)) for x, w in enumerate(nu.weights, nu.offset) if w)


def gibbs_optimizer(phi: RealFn) -> Pmf:
    """nu* proportional to e^phi on the window: the maximizer of nu -> int phi dnu - H(nu), H the counting entropy.

    The values minus their maximum are exponentiated in float, then
    normalized exactly, so nu* is a valid Pmf with rational masses; the dual
    gap log_laplace(phi) - (int phi dnu* - H(nu*)) vanishes to EQ_TOL.
    """
    values = [float(v) for v in phi.values]
    shift = max(values)
    return from_weights(phi.offset, [math.exp(v - shift) for v in values])


def dual_gap(phi: RealFn) -> float:
    """log_laplace(phi) minus the variational value at the Gibbs optimizer."""
    nu = gibbs_optimizer(phi)
    return log_laplace(phi) - (expectation(phi, nu) - counting_entropy(nu))
