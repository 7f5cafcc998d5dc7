"""Curvature cost of a positive reference pmf, exact optimal transport, and the transport-entropy check.

The curvature cost of a reference measure mu is

    c_mu(x, y) = log[ mu(m-) mu(m+) / (mu(x) mu(y)) ],   m-/+ = floor/ceil midpoints,

which vanishes on the diagonal and on adjacent pairs, and is non-negative
whenever mu is log-concave.  mu may be given either as a rational Pmf or as
rational log-weights w with mu(x) proportional to e^{w(x)}; in the latter
case c_mu = w(m-) + w(m+) - w(x) - w(y) is exact and normalization cancels,
so truncating an infinite family to a window does not change the cost.

The transport cost T_c(nu0, nu1) = inf over couplings of the integral of c
is a finite linear program, solved exactly by successive shortest paths
with potentials.  It runs on ints: the masses are the two pmfs' integer
weights, scaled to the unit 1 / (T0 T1) of their totals, and the rational
costs are scaled to their common unit (`measures.to_common_unit`); the plan,
its value and the potentials are divided back once.  Each augmentation's
Dijkstra search keeps the order of a (dist, counter) heap, but the nodes it
reaches over zero-reduced-cost arcs go on their level's FIFO list; it stops
once the lowest-index sink with demand is reached or a level holding one is
settled, and at distance 0 no potential moves.  The flows and potentials are
those of a full heap search.  Returned dual potentials satisfy
u(x) + v(y) <= c(x, y) with equality on the support of the optimal plan.

With w = log mu, c_mu(x, y) = s(x+y) - w(x) - w(y) where
s(k) = w(floor(k/2)) + w(ceil(k/2)); the increments of s are those of w,
each repeated twice.  So for log-concave mu, s is concave, c_mu is a Monge
cost and the monotone (north-west corner) coupling is an optimal plan
(Hoffman 1963).  The transport-entropy check reads its cost off that plan for
every mu positive on a window holding both supports: along the plan pi,
H(nu0|mu) + H(nu1|mu) = int c_mu dpi + gap + H(nu-|mu) + H(nu+|mu), where
every term after int c_mu dpi is >= 0 (gap is the `displacement` check's
entropy gap), so the check is a theorem and int c_mu dpi >= T_{c_mu}.
The costs of the plan's cells are read off the weight tuple of mu in one
pass per coupling (`_curvature_costs`, which `cost_mu` runs on one cell),
and the relative entropies index the same tuple.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .coupling import Coupling, _reduced, monotone_coupling
from .displacement import m_minus, m_plus
from .errors import ConfigError, InfeasibleCost, OutsidePositiveWindow
from .measures import (
    SUM_SLACK,
    Pmf,
    RealFn,
    _log_ratio,
    left_sum,
    logsumexp,
    relative_entropy,
    to_common_unit,
)


@dataclass(frozen=True)
class LogWeights:
    """Unnormalized log-mass on a contiguous window: mu(x) proportional to e^{weights[x-offset]}.

    The weights are ints or Fractions, so every curvature cost is exact.  The
    normalizer is an O(window) walk, computed once per instance: check-te runs
    every trial against one reference.
    """

    offset: int
    weights: tuple[int | Fraction, ...]
    gapless = True  # every window point has a finite log-weight, so a positive mass

    def window(self) -> range:
        return range(self.offset, self.offset + len(self.weights))

    def weight(self, x: int) -> int | Fraction:
        i = x - self.offset
        if not 0 <= i < len(self.weights):
            raise OutsidePositiveWindow(f"{x} outside window {self.window()}")
        return self.weights[i]

    @functools.cached_property
    def log_normalizer(self) -> float:
        return logsumexp(self.weights)


def geometric_weights(half_width: int) -> LogWeights:
    """w(x) = -|x| on [-K, K]: two-sided geometric-type weights."""
    return LogWeights(-half_width, tuple(-abs(x) for x in range(-half_width, half_width + 1)))


def gaussian_weights(half_width: int) -> LogWeights:
    """w(x) = -2 x^2 on [-K, K]: Gaussian-type weights."""
    return LogWeights(-half_width, tuple(-2 * x * x for x in range(-half_width, half_width + 1)))


def positive_window(mu: Pmf | LogWeights) -> range:
    """Maximal contiguous window on which mu is strictly positive.

    A canonical Pmf has positive end masses, and log-weights are positive
    everywhere, so this is the whole window.  Raises OutsidePositiveWindow
    when the positive support is not contiguous (curvature costs are only
    defined relative to a positive window).
    """
    if not mu.gapless:
        raise OutsidePositiveWindow("positive support is not contiguous")
    return mu.window()


#: a cost on Z^2: any callable (x, y) -> exact Fraction or float
Cost = Callable[[int, int], "Fraction | float"]


def cost_mu(mu: Pmf | LogWeights, x: int, y: int):
    """Curvature cost at (x, y): exact int or Fraction for log-weights, float for a rational Pmf."""
    return _curvature_costs(mu, (x,), (y,))[0]


def _curvature_costs(mu: Pmf | LogWeights, xs, ys) -> list:
    """c_mu at each (x, y) in zip(xs, ys), read off the weight tuple of mu.

    The positive window is found once for all the pairs.  With
    m- = (x + y) // 2 and m+ = (x + y + 1) // 2, each cost is
    w(m-) + w(m+) - w(x) - w(y) for log-weights, or the log of
    mu(m-) mu(m+) / (mu(x) mu(y)) by `_log_ratio` for a Pmf.
    """
    window = positive_window(mu)
    lo, hi = window.start, window.stop
    ws, off = mu.weights, mu.offset
    exact = isinstance(mu, LogWeights)
    costs = []
    for x, y in zip(xs, ys):
        if not (lo <= x < hi and lo <= y < hi):  # the window is contiguous, so it holds the midpoints too
            _raise_outside(mu, window, x, y)
        a, b, u, v = ws[(x + y) // 2 - off], ws[(x + y + 1) // 2 - off], ws[x - off], ws[y - off]
        costs.append(a + b - u - v if exact else _log_ratio(a * b, u * v))
    return costs


def _raise_outside(mu: Pmf | LogWeights, window: range, x: int, y: int) -> None:
    """Raise the error that a lookup per point raised: it names the first point outside the window."""
    if isinstance(mu, LogWeights):
        for z in (m_minus(x, y), m_plus(x, y), x, y):
            mu.weight(z)  # raises at the first point outside the window
    z = x if x not in window else y
    raise OutsidePositiveWindow(f"{z} outside positive window {window}")


def curvature_cost(mu: Pmf | LogWeights) -> Cost:
    """c_mu as a cost callable; cost_mu is looked up at each call, so a rebinding of it is seen."""
    return lambda x, y: cost_mu(mu, x, y)


def closed_form_cost(kind: str, x: int, y: int) -> int:
    """Closed forms of the curvature cost for the two reference families.

    geometric (w = -|x|):  2 min(|x|,|y|) when x and y have opposite signs, else 0.
    gaussian  (w = -2x^2): (x-y)^2 for even x+y, (x-y)^2 - 1 for odd x+y.
    """
    if kind == "geometric":
        return 2 * min(abs(x), abs(y)) if x * y < 0 else 0
    if kind == "gaussian":
        d2 = (x - y) ** 2
        return d2 if (x + y) % 2 == 0 else d2 - 1
    raise ValueError(f"unknown closed-form kind {kind!r}")


#: one exact solve with duals on 50 x 50 support points takes 1.4-1.7 s on a cost table whose
#: entries have distinct 6-digit prime denominators, so that the cost unit runs to about 50,000
#: bits, and 7.1-8.9 s on such a 75 x 75 table; a random pmf reference that is not log-concave
#: takes 0.065-0.079 s on 50 x 50 (Python 3.11.7, 2 cores; with every reached node on the heap,
#: timed alongside: 1.5-1.7 s, 8.7-10.3 s and 0.097-0.117 s)
MAX_OT_CELLS = 2_500


@dataclass(frozen=True)
class TransportPlanResult:
    cost: float
    cost_exact: Fraction  # exact optimum for the rationalized costs
    plan: Coupling
    dual_u: RealFn | None
    dual_v: RealFn | None


def _successive_shortest_paths(supply: list[int], demand: list[int], cost: list[list[int]]):
    """Exact min-cost transportation by shortest augmenting paths with potentials.

    The int supplies and demands are masses in one unit, with equal sums;
    they are used up in place.  The int costs are in another unit, so the
    search, the potentials and the flows are all ints.  The flows (per sink)
    are returned in the mass unit, the potentials (sources', then sinks') in
    the cost unit.

    Node j < n is sink j, and node n + i source i.  Forward arcs i -> j have
    infinite capacity; the backward arc j -> i exists while into[j][i], the
    flow on i -> j kept per sink in first-use order, is positive.  The exact
    potentials keep every residual reduced cost non-negative, so an arc with
    flow is tight, and each search is Dijkstra's with strict relaxations.  It
    settles nodes in the order of a heap keyed (dist, counter, node), by
    three facts that spare most heap operations:

    1. FIFO within a level.  At distance d that heap pops its key-d entries
       pushed before level d began, in push order, then the nodes reached at
       d over zero-reduced-cost arcs, in the order reached.  So only nodes
       reached past d are pushed: level d is a list of the live key-d
       entries, with the nodes reached at d appended.  Level 0 is the roots.
    2. No potential update when D = 0, as each node gains min(dist, D).
    3. Early stop.  Once `first`, the lowest-index sink with demand, is
       reached at level d, it is the target, its `prev` arc is final and
       D = d.  Otherwise the search stops once a level holding a sink with
       demand is settled, and the lowest-index one is the target.  The nodes
       left gain D either way, so the flows and potentials are a full search's.
    """
    m, n = len(supply), len(demand)
    into: list[dict[int, int]] = [{} for _ in range(n)]
    # initial potentials: shortest one-arc distances from the active sources
    pot = [min(cost[i][j] for i in range(m)) for j in range(n)] + [0] * m
    counter = itertools.count()
    first = 0
    while any(supply):
        while first < n and demand[first] == 0:
            first += 1
        if first == n:
            raise InfeasibleCost("no augmenting path to a sink with remaining demand")
        dist: list[int | None] = [None] * n + [0 if s > 0 else None for s in supply]  # None: not reached
        prev: list[int | None] = [None] * (n + m)  # the node each node was reached from
        level, heap = [n + i for i in range(m) if supply[i] > 0], []
        d, settled = 0, False  # settled: a sink with demand was settled at d
        while True:
            for node in level:  # the loop also visits the nodes appended to the level
                if dist[first] == d:
                    break
                if node >= n:
                    base, row = d + pot[node], cost[node - n]
                    for j in range(n):
                        nd = base + row[j] - pot[j]
                        old = dist[j]
                        if old is None or nd < old:
                            dist[j], prev[j] = nd, node
                            if nd == d:
                                level.append(j)
                            else:
                                heapq.heappush(heap, (nd, next(counter), j))
                else:
                    settled = settled or demand[node] > 0
                    for i, f in into[node].items():  # tight: the backward arc reaches n + i at d
                        old = dist[n + i]
                        if f > 0 and (old is None or old > d):
                            dist[n + i], prev[n + i] = d, node
                            level.append(n + i)
            if settled or dist[first] == d:
                break
            # the next level: the live entries of the least key (first is still on the heap)
            d, level = heap[0][0], []
            while heap and heap[0][0] == d:
                node = heapq.heappop(heap)[2]
                if dist[node] == d:
                    level.append(node)
        target = next(j for j in range(first, n) if demand[j] > 0 and dist[j] == d)
        # walk back to the source: the arcs (i, j) alternate forward (into a sink) and backward
        arcs, node = [], target
        while prev[node] is not None:
            arcs.append((prev[node] - n, node) if node < n else (node - n, prev[node]))
            node = prev[node]
        source = node - n
        amount = min([supply[source], demand[target]] + [into[j][i] for i, j in arcs[1::2]])
        for i, j in arcs[0::2]:
            into[j][i] = into[j].get(i, 0) + amount
        for i, j in arcs[1::2]:
            into[j][i] -= amount
        supply[source] -= amount
        demand[target] -= amount
        if d:
            for v in range(n + m):
                dv = dist[v]
                pot[v] += d if dv is None or dv > d else dv
    return into, pot[n:] + pot[:n]


def ot_cost(cost: Cost, nu0: Pmf, nu1: Pmf, want_duals: bool = False) -> TransportPlanResult:
    """Exact optimal transport cost between two finitely supported measures.

    `cost` is any callable (x, y) -> Fraction | float, such as
    `curvature_cost(mu)` or a parsed cost table.  It is called once per pair
    of support points, and, when duals are wanted, again at the pairs that
    extend them to the window points off the supports.

    Float costs are rationalized to their exact binary values, so the
    returned plan and value are the exact optimum of the rationalized
    program; the result's `cost` is the float image of that exact value.
    More than MAX_OT_CELLS support pairs raise ConfigError before any cost
    is evaluated.
    """
    xs = nu0.support_points()
    ys = nu1.support_points()
    if len(xs) * len(ys) > MAX_OT_CELLS:
        raise ConfigError(f"{len(xs)} x {len(ys)} support points exceed the {MAX_OT_CELLS} pairs of one exact solve")
    # the weights in the unit 1 / (T0 T1): both sides sum to T0 T1
    supply = [nu0.weight(x) * nu1.total for x in xs]
    demand = [nu1.weight(y) * nu0.total for y in ys]
    values = []
    for x in xs:
        for y in ys:
            value = cost(x, y)
            if isinstance(value, float) and math.isinf(value):
                raise InfeasibleCost(f"cost infinite at ({x},{y})")
            values.append(value)
    flat, cost_unit = to_common_unit(values)
    n = len(ys)
    rows = [flat[i * n : (i + 1) * n] for i in range(len(xs))]
    into, pot = _successive_shortest_paths(supply, demand, rows)
    # the flows are already in the unit 1 / (T0 T1)
    unit = nu0.total * nu1.total
    flow = [(i, j, f) for j, row in enumerate(into) for i, f in row.items() if f > 0]
    plan = _reduced(sorted([(xs[i], ys[j], f) for i, j, f in flow]), unit, nu0, nu1)
    exact = Fraction(sum([rows[i][j] * f for i, j, f in flow]), cost_unit * unit)
    dual_u = dual_v = None
    if want_duals:
        u = {x: Fraction(-pot[i], cost_unit) for i, x in enumerate(xs)}
        v = {y: Fraction(pot[len(xs) + j], cost_unit) for j, y in enumerate(ys)}
        # Extend feasibly to the full windows: first u via the support v,
        # then v via the extended u; on the supports the originals are
        # reproduced (a complementary-slackness pair attains each min), and
        # u(x)+v(y) <= c(x,y) holds on the whole window product.
        for x in nu0.window():
            if x not in u:
                u[x] = min(Fraction(cost(x, y)) - v[y] for y in ys)
        for y in nu1.window():
            if y not in v:
                v[y] = min(Fraction(cost(x, y)) - u[x] for x in nu0.window())
        dual_u = RealFn(nu0.offset, tuple([float(u[x]) for x in nu0.window()]))
        dual_v = RealFn(nu1.offset, tuple([float(v[y]) for y in nu1.window()]))
    return TransportPlanResult(float(exact), exact, plan, dual_u, dual_v)


@dataclass(frozen=True)
class TransportEntropyCheck:
    lhs: float  # c_mu-cost of the monotone coupling: T_{c_mu} for log-concave mu, else an upper bound on it
    rhs: float  # H(nu0|mu) + H(nu1|mu)
    holds: bool


def transport_entropy_check(mu: Pmf | LogWeights, nu0: Pmf, nu1: Pmf) -> TransportEntropyCheck:
    """int c_mu dpi <= H(nu0|mu) + H(nu1|mu) along the monotone coupling pi, with SUM_SLACK.

    Both supports must live inside the positive window of mu.  The lhs is the
    exact cost of pi, which is T_{c_mu}(nu0, nu1) for log-concave mu (pi is
    optimal there) and an upper bound on it otherwise; the inequality holds
    for every mu positive on the window (see the module docstring).
    """
    window = positive_window(mu)
    for nu in (nu0, nu1):
        if nu.offset < window.start or nu.offset + len(nu.weights) > window.stop:  # else it holds the support
            for x in nu.support_points():
                if x not in window:
                    raise OutsidePositiveWindow(f"support point {x} outside positive window")
    pi = monotone_coupling(nu0, nu1)
    xs, ys, masses = zip(*pi.cells)
    costs, cost_unit = to_common_unit(_curvature_costs(mu, xs, ys))
    lhs = sum([c * w for c, w in zip(costs, masses)]) / (cost_unit * pi.unit)  # as float(Fraction(n, d))
    if isinstance(mu, LogWeights):
        rhs = _relative_entropy_logweights(nu0, mu) + _relative_entropy_logweights(nu1, mu)
    else:
        rhs = relative_entropy(nu0, mu) + relative_entropy(nu1, mu)
    return TransportEntropyCheck(lhs, rhs, lhs <= rhs + SUM_SLACK)


def _relative_entropy_logweights(nu: Pmf, mu: LogWeights) -> float:
    log_z = mu.log_normalizer
    t, ref = nu.total, mu.weights
    # the check has placed the support inside the window, so each index i is in range
    indexed = enumerate(nu.weights, nu.offset - mu.offset)
    return left_sum([w / t * (_log_ratio(w, t) - float(ref[i]) + log_z) for i, w in indexed if w])

