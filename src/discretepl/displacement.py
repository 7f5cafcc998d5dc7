"""Midpoint measures along the monotone coupling and displacement convexity of entropy.

For the monotone coupling pi of (nu0, nu1), the floor/ceiling midpoint maps

    m_minus(x, y) = floor((x+y)/2),    m_plus(x, y) = ceil((x+y)/2)

define nu_minus = m_minus # pi and nu_plus = m_plus # pi.  The exact rational
ratio sum

    P = sum over atoms of  nu_minus(m-) nu_plus(m+) / (nu0(x) nu1(y)) * pi(x,y)

satisfies P <= 1, and Jensen's inequality turns that into the entropy
inequality  H(nu-|m) + H(nu+|m) <= H(nu0|m) + H(nu1|m)  with m the counting
measure.  This module computes all of these plus the level-set and chain
combinatorics that drive the bound.

Everything is read off the integer cells of the coupling and the integer
weights of the four measures.  The support of pi is a staircase, so x + y
never decreases from cell to cell: one pass over the sorted cells adds each
weight into the int lists of nu_minus and nu_plus, and the level sets are
the runs of equal floor along the cells.  P is summed in ints and becomes
one Fraction at the end, and the Jensen certificate and the entropies take
their logs on reduced int ratios.  So the floats are those of the same
formulas written on Fraction masses, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .coupling import Coupling, is_staircase, monotone_coupling
from .errors import NotMonotone, PreconditionViolated
from .measures import INEQ_SLACK, SUM_SLACK, ZERO, Pmf, _canonical, _log_ratio, _mass_times_log, _repeats, counting_entropy


def m_minus(x: int, y: int) -> int:
    return (x + y) // 2  # floor division floors toward -inf, also for negatives


def m_plus(x: int, y: int) -> int:
    return -((-x - y) // 2)


@dataclass(frozen=True)
class MidpointPair:
    """nu_minus, nu_plus and the monotone coupling they were pushed from.

    Mass-center conservation holds exactly:
    mean(nu_minus) + mean(nu_plus) = mean(marginal0) + mean(marginal1),
    since m_minus + m_plus = x + y pointwise.
    """

    nu_minus: Pmf
    nu_plus: Pmf
    pi: Coupling


def midpoint_measures(nu0: Pmf, nu1: Pmf) -> MidpointPair:
    """nu- = m-#pi and nu+ = m+#pi for the monotone coupling pi, read off its cells in one pass.

    The cells run from (min supp nu0, min supp nu1) to (max supp nu0, max supp nu1), and x + y
    never decreases between them, so the first and last sums bound both windows.
    """
    pi = monotone_coupling(nu0, nu1)
    first = nu0.offset + nu1.offset
    last = first + len(nu0.weights) + len(nu1.weights) - 2
    a0, b0 = first // 2, first - first // 2  # the first floor and ceiling
    minus, plus = [0] * (last // 2 - a0 + 1), [0] * (last - last // 2 - b0 + 1)
    for x, y, w in pi.cells:
        s = x + y
        a = s // 2  # m_minus(x, y); s - a is m_plus(x, y)
        minus[a - a0] += w
        plus[s - a - b0] += w
    return MidpointPair(_canonical(a0, minus, pi.unit), _canonical(b0, plus, pi.unit), pi)


def _cell_factors(pair: MidpointPair) -> list[tuple[int, int, int]]:
    """(w, nu-(m-) nu+(m+), nu0(x) nu1(y)) in weights for each cell (x, y, w), in cell order.

    In masses the ratio of the atom is the second over the third, times
    T0 T1 / (T- T+) of the four totals; the third is positive on supp(pi),
    so 0/0 is never formed.
    """
    nu0, nu1, lo, hi = pair.pi.marginal0, pair.pi.marginal1, pair.nu_minus, pair.nu_plus
    # every point read lies in its pmf's window, so the weights are indexed directly
    factors = []
    for x, y, w in pair.pi.cells:
        a = (x + y) // 2  # m_minus(x, y)
        b = x + y - a  # m_plus(x, y)
        num = lo.weights[a - lo.offset] * hi.weights[b - hi.offset]
        factors.append((w, num, nu0.weights[x - nu0.offset] * nu1.weights[y - nu1.offset]))
    return factors


def _ratio_sum(pair: MidpointPair, factors: list[tuple[int, int, int]]) -> Fraction:
    """P from the cell factors: T0 T1 / (U T- T+) times the sum of w num / den, one Fraction in all.

    Each term is reduced by its own gcd before the lcm of the denominators
    is taken.  A cell's weight often fills its whole row or column, so most
    reduced denominators are single weights rather than products, and the
    lcm stays short.
    """
    by_den: dict[int, int] = {}
    for w, num, den in factors:
        n = w * num
        g = math.gcd(n, den)
        by_den[den // g] = by_den.get(den // g, 0) + n // g
    lcm = math.lcm(*by_den)
    numerator = sum([n * (lcm // d) for d, n in by_den.items()])
    nu0, nu1, lo, hi = pair.pi.marginal0, pair.pi.marginal1, pair.nu_minus, pair.nu_plus
    return Fraction(numerator * nu0.total * nu1.total, lcm * pair.pi.unit * lo.total * hi.total)


def pair_ratio_sum(pair: MidpointPair) -> Fraction:
    """Exact P for an already-built midpoint pair."""
    return _ratio_sum(pair, _cell_factors(pair))


def _jensen_certificate(pair: MidpointPair, factors: list[tuple[int, int, int]]) -> float:
    """The float sum over atoms of float(pi(x,y)) * log(ratio), formed from the cell factors, each once if `_repeats`."""
    nu0, nu1, lo, hi = pair.pi.marginal0, pair.pi.marginal1, pair.nu_minus, pair.nu_plus
    scale_num, scale_den, unit = nu0.total * nu1.total, lo.total * hi.total, pair.pi.unit
    certificate = 0.0
    if _repeats(unit, len(factors)):
        term = {(w, num, den): _mass_times_log(w, unit, num * scale_num, den * scale_den) for w, num, den in set(factors)}
        for factor in factors:
            certificate += term[factor]
        return certificate
    for w, num, den in factors:
        certificate += _mass_times_log(w, unit, num * scale_num, den * scale_den)
    return certificate


@dataclass(frozen=True)
class DisplacementReport:
    """Entropy bookkeeping for one (nu0, nu1) pair.

    `gap` is H(nu0)+H(nu1) - H(nu-)-H(nu+) (counting-measure entropies,
    floats) and is >= -INEQ_SLACK.  `jensen_certificate` is the exact-ratio sum
    sum pi log(ratio), which equals -gap up to float error and is bounded by
    log(ratio_sum) by concavity of log.
    """

    pair: MidpointPair
    entropy0: float
    entropy1: float
    entropy_minus: float
    entropy_plus: float
    gap: float
    jensen_certificate: float
    ratio_sum: Fraction
    log_ratio_sum: float

    @property
    def holds(self) -> bool:
        """gap >= -INEQ_SLACK, P <= 1 and jensen_certificate <= log P + SUM_SLACK."""
        return (
            self.gap >= -INEQ_SLACK
            and self.ratio_sum <= 1
            and self.jensen_certificate <= self.log_ratio_sum + SUM_SLACK
        )


def displacement_gap(nu0: Pmf, nu1: Pmf) -> DisplacementReport:
    pair = midpoint_measures(nu0, nu1)
    h0 = counting_entropy(nu0)
    h1 = counting_entropy(nu1)
    hm = counting_entropy(pair.nu_minus)
    hp = counting_entropy(pair.nu_plus)
    factors = _cell_factors(pair)
    p_sum = _ratio_sum(pair, factors)
    return DisplacementReport(
        pair=pair,
        entropy0=h0,
        entropy1=h1,
        entropy_minus=hm,
        entropy_plus=hp,
        gap=h0 + h1 - hm - hp,
        jensen_certificate=_jensen_certificate(pair, factors),
        ratio_sum=p_sum,
        log_ratio_sum=_log_ratio(p_sum.numerator, p_sum.denominator) if p_sum > 0 else -math.inf,
    )


class LevelSet(NamedTuple):
    """Atoms of the coupling whose m_minus image is `a`; at most two of them.

    A named tuple, so it is immutable and compares and hashes by value: a
    frozen dataclass sets each field through `object.__setattr__`, which
    took most of the time of `level_sets`.
    """

    a: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def card_holds(self) -> bool:
        """The card lemma: at most two atoms, and two are neighbours with even lower coordinate sum."""
        if len(self.pairs) != 2:
            return len(self.pairs) < 2
        (x0, y0), (x1, y1) = self.pairs
        return abs(x1 - x0) + abs(y1 - y0) == 1 and (x0 + y0) % 2 == 0


def level_sets(pi: Coupling) -> list[LevelSet]:
    """Partition of supp(pi) by m_minus value, sorted by level.

    Requires a staircase-monotone coupling.  Along a staircase the atom sums
    x + y rise strictly, so each level holds one or two atoms and a two-atom
    level is a pair of neighbours with even lower sum: `LevelSet.card_holds`
    reports that as a verdict.
    """
    if not is_staircase(pi):
        raise NotMonotone("level sets are only defined for staircase couplings")
    # along a staircase x + y never decreases, so each level is a run of atoms
    runs: list[tuple[int, list[tuple[int, int]]]] = []
    for x, y, _ in pi.cells:
        a = (x + y) // 2  # m_minus(x, y)
        if runs and runs[-1][0] == a:
            runs[-1][1].append((x, y))
        else:
            runs.append((a, [(x, y)]))
    return [LevelSet(a, tuple(pairs)) for a, pairs in runs]


@dataclass(frozen=True)
class ElemRecord:
    """Floor/ceiling midpoint predicates for an ordered pair of lattice points.

    Both equivalences are evaluated from both sides so they can be checked
    independently:

    * floors agree  iff  the points are adjacent (coordinate gap sum 1) and
      the lower coordinate sum is even; in that case the ceiling moves up by
      exactly one.
    * when floors differ by >= 2 the ceilings must differ; when floors
      differ by exactly 1, ceilings agree iff the points are adjacent with
      odd lower coordinate sum.
    """

    floor_equal: bool
    adjacent_even: bool
    item1_iff: bool
    item1_ceil_shift: bool
    floor_gap: int
    ceil_equal: bool
    adjacent_odd: bool
    item2_iff: bool

    @property
    def all_hold(self) -> bool:
        return self.item1_iff and self.item1_ceil_shift and self.item2_iff


def floor_ceil_iffs(x1: int, y1: int, x2: int, y2: int) -> ElemRecord:
    if not (x1 <= x2 and y1 <= y2 and (x1, y1) != (x2, y2)):
        raise PreconditionViolated("need x1<=x2, y1<=y2 and distinct points")
    a1, a2 = m_minus(x1, y1), m_minus(x2, y2)
    c1, c2 = m_plus(x1, y1), m_plus(x2, y2)
    adjacent = (x2 - x1) + (y2 - y1) == 1
    floor_equal = a1 == a2
    adjacent_even = adjacent and (x1 + y1) % 2 == 0
    item1_iff = floor_equal == adjacent_even
    item1_ceil_shift = (not floor_equal) or (c2 == c1 + 1)
    gap = a2 - a1
    ceil_equal = c1 == c2
    adjacent_odd = adjacent and (x1 + y1) % 2 != 0
    if gap >= 2:
        item2_iff = not ceil_equal
    elif gap == 1:
        item2_iff = ceil_equal == adjacent_odd
    else:
        item2_iff = True  # item 2 only constrains pairs with distinct floors
    return ElemRecord(
        floor_equal=floor_equal,
        adjacent_even=adjacent_even,
        item1_iff=item1_iff,
        item1_ceil_shift=item1_ceil_shift,
        floor_gap=gap,
        ceil_equal=ceil_equal,
        adjacent_odd=adjacent_odd,
        item2_iff=item2_iff,
    )


@dataclass(frozen=True)
class ChainRecord:
    """One maximal run of m_minus levels whose m_plus images overlap.

    A singleton run is an *isolated* level: its m_plus image meets neither
    neighbour's.  For every m_plus value b touched by the run, nu_plus(b)
    must be exactly the run's atom mass sent to b (`plus_decomposition_exact`),
    and the per-value coefficients

        alpha[b] = sum over run atoms with m_plus = b of
                   nu_minus(m_minus) pi(x,y) / (nu0(x) nu1(y))

    are all <= 1, which bounds the run's ratio contribution by its mass.
    """

    levels: tuple[int, ...]
    isolated: bool
    alphas: dict[int, Fraction]
    mass: Fraction
    ratio_contribution: Fraction
    plus_decomposition_exact: bool

    @property
    def bound_holds(self) -> bool:
        return all(a <= 1 for a in self.alphas.values()) and self.ratio_contribution <= self.mass


def chain_diagnostics(pair: MidpointPair) -> list[ChainRecord]:
    """Label each level as isolated or chained and verify the per-chain bound."""
    sets = level_sets(pair.pi)
    weight_at = {(x, y): w for x, y, w in pair.pi.cells}
    plus_img = {ls.a: {m_plus(x, y) for x, y in ls.pairs} for ls in sets}

    runs: list[list[LevelSet]] = []
    for ls in sets:
        if runs and runs[-1][-1].a == ls.a - 1 and plus_img[runs[-1][-1].a] & plus_img[ls.a]:
            runs[-1].append(ls)
        else:
            runs.append([ls])

    nu0, nu1, lo, hi = pair.pi.marginal0, pair.pi.marginal1, pair.nu_minus, pair.nu_plus
    unit = pair.pi.unit
    records = []
    for run in runs:
        alphas: dict[int, Fraction] = {}
        sent: dict[int, int] = {}  # cell weights sent to each m_plus value, over `unit`
        for ls in run:
            for x, y in ls.pairs:
                w = weight_at[(x, y)]
                b = m_plus(x, y)
                # nu-(a) pi(x,y) / (nu0(x) nu1(y)), from the weights and the totals
                coeff = Fraction(
                    lo.weight(ls.a) * w * nu0.total * nu1.total, lo.total * unit * nu0.weight(x) * nu1.weight(y)
                )
                alphas[b] = alphas.get(b, ZERO) + coeff
                sent[b] = sent.get(b, 0) + w
        records.append(
            ChainRecord(
                levels=tuple([ls.a for ls in run]),
                isolated=len(run) == 1,
                alphas=alphas,
                mass=Fraction(sum(sent.values()), unit),
                ratio_contribution=sum((alpha * hi.mass(b) for b, alpha in alphas.items()), ZERO),
                plus_decomposition_exact=all(hi.weight(b) * unit == q * hi.total for b, q in sent.items()),
            )
        )
    return records
