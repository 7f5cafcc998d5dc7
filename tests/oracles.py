"""Independent brute-force oracles used by the test suite.

Everything here stays deliberately separate from the library's own
algorithms: transport optima come from enumerating the vertices of the
transportation polytope (spanning-tree basic solutions) or from scipy's float
LP solver, and feasibility of linear systems is decided by an exact phase-1
simplex over rationals.  The one exception is
`heap_successive_shortest_paths`, a frozen copy of an earlier library solver:
it pins which of many optimal plans the library returns, not optimality.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from discretepl.errors import InfeasibleCost

ZERO = Fraction(0)


def sum_left_to_right(values):
    """The values added one plain + at a time from 0: sum() up to Python 3.11 (3.12's sum compensates floats)."""
    total = 0
    for value in values:
        total = total + value
    return total


def support(nu) -> list[tuple[int, Fraction]]:
    """The (point, mass) pairs of a Pmf with positive mass, in increasing order, read off its int weights."""
    return [(x, Fraction(w, nu.total)) for x, w in enumerate(nu.weights, nu.offset) if w]


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational: the difference of the logs of its (reduced) numerator and denominator."""
    assert q > 0
    return math.log(q.numerator) - math.log(q.denominator)


@lru_cache(maxsize=None)
def spanning_tree_edge_sets(m: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All spanning trees of the complete bipartite graph K_{m,n}, as cell sets."""
    cells = [(i, j) for i in range(m) for j in range(n)]
    size = m + n - 1
    trees = []
    for combo in itertools.combinations(cells, size):
        parent = list(range(m + n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        acyclic = True
        for i, j in combo:
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if acyclic:
            trees.append(combo)
    return tuple(trees)


def solve_tree(m: int, n: int, edges, a, b):
    """Unique flow on a spanning tree matching integer marginals (leaf peeling).

    Returns the cell -> flow dict, which may contain negative entries (then
    the tree is not a feasible basis).
    """
    balance = list(a) + [-x for x in b]
    incident = {v: set() for v in range(m + n)}
    for i, j in edges:
        incident[i].add((i, j))
        incident[m + j].add((i, j))
    flow = {}
    leaves = [v for v in incident if len(incident[v]) == 1]
    while leaves:
        v = leaves.pop()
        if not incident[v]:
            continue
        (edge,) = incident[v]
        i, j = edge
        f = balance[v] if v < m else -balance[v]
        flow[edge] = f
        other = m + j if v < m else i
        balance[other] += balance[v]
        balance[v] = 0
        incident[v].clear()
        incident[other].discard(edge)
        if len(incident[other]) == 1:
            leaves.append(other)
    return flow


def transport_vertices(a: list[Fraction], b: list[Fraction]):
    """All vertices of the transportation polytope, deduplicated by support.

    Marginals are scaled to integers first; vertices are returned as
    cell -> Fraction flow dicts (zero entries dropped).
    """
    m, n = len(a), len(b)
    denom = 1
    for q in list(a) + list(b):
        denom = denom * q.denominator // _gcd(denom, q.denominator)
    ia = [int(q * denom) for q in a]
    ib = [int(q * denom) for q in b]
    seen = set()
    out = []
    for tree in spanning_tree_edge_sets(m, n):
        flow = solve_tree(m, n, tree, ia, ib)
        if any(f < 0 for f in flow.values()):
            continue
        positive = tuple(sorted((cell, f) for cell, f in flow.items() if f > 0))
        if positive in seen:
            continue
        seen.add(positive)
        out.append({cell: Fraction(f, denom) for cell, f in positive})
    return out


def _gcd(x: int, y: int) -> int:
    while y:
        x, y = y, x % y
    return x


def min_cost_over_vertices(a, b, cost_matrix) -> Fraction:
    """Exact transport optimum by scanning every polytope vertex."""
    best = None
    for vertex in transport_vertices(list(a), list(b)):
        value = sum((cost_matrix[i][j] * f for (i, j), f in vertex.items()), ZERO)
        if best is None or value < best:
            best = value
    assert best is not None
    return best


def heap_successive_shortest_paths(supply: list[int], demand: list[int], cost: list[list[int]]):
    """Exact min-cost transportation by shortest augmenting paths with potentials.

    A verbatim copy of the library's earlier solver, whose Dijkstra search keeps
    every reached node on one binary heap.  It is the reference that pins which
    of many optimal plans and potentials the library's solver returns: its flows
    `into` (each sink's dict in insertion order) and its potentials `pot` must
    be reproduced exactly.

    The int supplies and demands are masses in one unit, with equal sums;
    they are used up in place.  The int costs are in another unit, so the
    search, the potentials and the flows are all ints.  The flows (per sink)
    are returned in the mass unit, the potentials in the cost unit.

    Nodes 0..m-1 are sources, m..m+n-1 sinks.  Forward arcs i -> m+j have
    infinite capacity; the backward arc m+j -> i exists while into[j][i], the
    flow on i -> j kept per sink in first-use order, is positive.  The exact
    potentials keep every residual reduced cost non-negative, so a popped node
    never improves: Dijkstra, keyed (dist, counter, node), skips stale entries
    (d > dist[node]) and relaxes only on strict improvement.

    Each search stops once every node at distance D has been popped, D being
    the distance of the first sink with demand to be popped: it breaks at
    the first live entry past D.  The target is the lowest-index sink with
    demand at D, and every node gains min(dist, D) in potential (D if not
    reached).  A full search gives the same flows and potentials: the
    unsettled nodes have distance > D, so they gain D either way, and every
    node at distance D is settled before the stop, so the target and the
    `prev` arcs of its path are the same.
    """
    m, n = len(supply), len(demand)
    into: list[dict[int, int]] = [{} for _ in range(n)]
    # initial potentials: shortest one-arc distances from the active sources
    pot = [0] * m + [min(cost[i][j] for i in range(m)) for j in range(n)]
    counter = itertools.count()
    while any(supply):
        dist: list[int | None] = [None] * (m + n)  # None: not reached
        prev: list[tuple[int, int] | None] = [None] * (m + n)  # the arc (i, j) that reached each node
        heap = []
        for i in range(m):
            if supply[i] > 0:
                dist[i] = 0
                heap.append((0, next(counter), i))  # sorted, hence a heap
        d_target = None  # D, once a sink with demand is popped
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            if d_target is not None and d > d_target:
                break
            base = d + pot[node]
            if node < m:
                row = cost[node]
                for j in range(n):
                    nd = base + row[j] - pot[m + j]
                    old = dist[m + j]
                    if old is None or nd < old:
                        dist[m + j], prev[m + j] = nd, (node, j)
                        heapq.heappush(heap, (nd, next(counter), m + j))
            else:
                j = node - m
                if d_target is None and demand[j] > 0:
                    d_target = d
                for i, f in into[j].items():
                    if f > 0:
                        nd = base - cost[i][j] - pot[i]
                        old = dist[i]
                        if old is None or nd < old:
                            dist[i], prev[i] = nd, (i, j)
                            heapq.heappush(heap, (nd, next(counter), i))
        if d_target is None:
            raise InfeasibleCost("no augmenting path to a sink with remaining demand")
        target = next(j for j in range(n) if demand[j] > 0 and dist[m + j] == d_target)
        # walk back to the source: the arcs alternate forward (into a sink) and backward
        arcs, node = [], m + target
        while prev[node] is not None:
            i, j = prev[node]
            arcs.append((i, j))
            node = i if node >= m else m + j
        amount = min([supply[node], demand[target]] + [into[j][i] for i, j in arcs[1::2]])
        for i, j in arcs[0::2]:
            into[j][i] = into[j].get(i, 0) + amount
        for i, j in arcs[1::2]:
            into[j][i] -= amount
        supply[node] -= amount
        demand[target] -= amount
        for v in range(m + n):
            dv = dist[v]
            pot[v] += d_target if dv is None or dv > d_target else dv
    return into, pot


def ot_cost_float(cost, nu0, nu1) -> float:
    """Float transport optimum from scipy's HiGHS LP solver, independent of the exact solver."""
    import numpy as np
    from scipy.optimize import linprog

    xs = nu0.support_points()
    ys = nu1.support_points()
    m, n = len(xs), len(ys)
    c = np.array([float(cost(x, y)) for x in xs for y in ys])
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.array([float(nu0.mass(x)) for x in xs] + [float(nu1.mass(y)) for y in ys])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def lp_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Exact feasibility of  A x = b, x >= 0  via phase-1 simplex with Bland's rule."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [ZERO] * m + [b])
        tableau[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    total = n + m

    def reduced_cost(j: int) -> Fraction:
        # phase-1 objective: minimize the sum of artificial variables
        c_j = Fraction(1) if j >= n else ZERO
        return c_j - sum(tableau[i][j] for i in range(m) if basis[i] >= n)

    while True:
        entering = next((j for j in range(total) if reduced_cost(j) < 0), None)
        if entering is None:
            break
        best = None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][total] / tableau[i][entering]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            break  # unbounded cannot happen in phase 1, defensive
        _, pivot_row = best
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [v / pivot for v in tableau[pivot_row]]
        for i in range(m):
            if i != pivot_row and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [v - factor * p for v, p in zip(tableau[i], tableau[pivot_row])]
        basis[pivot_row] = entering
    artificial_mass = sum(tableau[i][total] for i in range(m) if basis[i] >= n)
    return artificial_mass == 0


def meet_join_coupling_feasible(nu1_masses, nu2_masses, swap_targets: bool) -> bool:
    """Is there a coupling of (nu1, nu2) on {0,1}^2 whose meet/join image couples
    (nu1, nu2) (or (nu2, nu1) when `swap_targets`)?  Exact LP feasibility.

    Masses are length-4 vectors indexed by the two-bit points 00, 10, 01, 11
    (bit i of the index is coordinate i).
    """
    points = range(4)
    var = {(x, y): k for k, (x, y) in enumerate((x, y) for x in points for y in points)}
    rows, rhs = [], []
    for x in points:  # first marginal of pi
        row = [ZERO] * 16
        for y in points:
            row[var[(x, y)]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(nu1_masses[x]))
    for y in points:  # second marginal of pi
        row = [ZERO] * 16
        for x in points:
            row[var[(x, y)]] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(nu2_masses[y]))
    target0 = nu2_masses if swap_targets else nu1_masses
    target1 = nu1_masses if swap_targets else nu2_masses
    for z in points:  # first marginal of S#pi (meet) and second (join)
        row = [ZERO] * 16
        for x in points:
            for y in points:
                if x & y == z:
                    row[var[(x, y)]] += 1
        rows.append(row)
        rhs.append(Fraction(target0[z]))
    for z in points:
        row = [ZERO] * 16
        for x in points:
            for y in points:
                if x | y == z:
                    row[var[(x, y)]] += 1
        rows.append(row)
        rhs.append(Fraction(target1[z]))
    return lp_feasible(rows, rhs)


def four_functions_witness(f, g, h, k):
    """First pair violating f(x)g(y) <= h(x^y)k(xvy) on {0,1}^n, by exact Fraction comparison.

    The value lists are indexed by sum(x_i 2^i).  Pairs are visited with x
    outer and y inner, both in that index order.  Returns (x, y, f(x)g(y),
    h(x^y)k(xvy)) with the products formed in the given values, or None.
    """
    n = len(f).bit_length() - 1

    def index(bits):
        return sum(b << i for i, b in enumerate(bits))

    cube = sorted(itertools.product((0, 1), repeat=n), key=index)
    for x in cube:
        for y in cube:
            lhs = f[index(x)] * g[index(y)]
            rhs = h[index(tuple(map(min, x, y)))] * k[index(tuple(map(max, x, y)))]
            if Fraction(lhs) > Fraction(rhs):
                return x, y, lhs, rhs
    return None


def normalized_window(offset, values):
    """(first point, masses) of the values divided by their sum, with the zero ends cut off.

    Plain Fraction division, with no integer scaling: the oracle for a
    Pmf's `offset` and `masses`.
    """
    qs = [Fraction(v) for v in values]
    total = sum(qs, ZERO)
    kept = [i for i, q in enumerate(qs) if q != 0]
    return offset + kept[0], tuple(q / total for q in qs[kept[0] : kept[-1] + 1])


def quantile_coupling(nu0, nu1) -> list[tuple[int, int, Fraction]]:
    """The monotone coupling as Fraction atoms (x, y, mass), in increasing order, built from quantile overlaps.

    Each support point owns the half-open interval [F(x-), F(x)) of its
    cumulative masses, and the pair (x, y) gets the length of the overlap of
    the two intervals.
    """

    def intervals(nu):
        out, start = [], ZERO
        for x, m in support(nu):
            out.append((x, start, start + m))
            start += m
        return out

    atoms = []
    for x, lo0, hi0 in intervals(nu0):
        for y, lo1, hi1 in intervals(nu1):
            overlap = min(hi0, hi1) - max(lo0, lo1)
            if overlap > 0:
                atoms.append((x, y, overlap))
    return atoms


def ratio_sum_fraction(nu0, nu1) -> Fraction:
    """P by its definition, one Fraction per term, on the `quantile_coupling` built here.

    The floor and ceiling midpoint measures are summed from its atoms, and P
    is the sum of pi(x,y) nu-(floor) nu+(ceil) / (nu0(x) nu1(y)) term by term.
    """
    total = ZERO
    for p, ratio in _midpoint_ratios(nu0, nu1):
        total += p * ratio
    return total


def jensen_certificate(nu0, nu1) -> float:
    """The sum of float(pi(x,y)) * log(nu-(m-) nu+(m+) / (nu0(x) nu1(y))) over the `quantile_coupling`.

    One Fraction ratio per atom, the terms added in atom order from 0.0.
    """
    certificate = 0.0
    for p, ratio in _midpoint_ratios(nu0, nu1):
        certificate += float(p) * log_fraction(ratio)
    return certificate


def midpoint_masses(nu0, nu1):
    """(atoms, floor masses, ceiling masses): the `quantile_coupling` and its images under floor and ceil of (x+y)/2.

    Each image is a dict from point to Fraction mass, summed atom by atom
    from Fraction midpoints.
    """
    atoms = quantile_coupling(nu0, nu1)
    floor_mass, ceil_mass = {}, {}
    for x, y, p in atoms:
        mid = Fraction(x + y, 2)
        floor_mass[math.floor(mid)] = floor_mass.get(math.floor(mid), ZERO) + p
        ceil_mass[math.ceil(mid)] = ceil_mass.get(math.ceil(mid), ZERO) + p
    return atoms, floor_mass, ceil_mass


def _midpoint_ratios(nu0, nu1) -> list[tuple[Fraction, Fraction]]:
    """(pi(x,y), nu-(m-) nu+(m+) / (nu0(x) nu1(y))) for each atom of the `quantile_coupling`, in its order.

    The floor and ceiling midpoint measures are those of `midpoint_masses`.
    """
    atoms, floor_mass, ceil_mass = midpoint_masses(nu0, nu1)
    ratios = []
    for x, y, p in atoms:
        mid = Fraction(x + y, 2)
        ratios.append((p, floor_mass[math.floor(mid)] * ceil_mass[math.ceil(mid)] / (nu0.mass(x) * nu1.mass(y))))
    return ratios


def counting_entropy(nu) -> float:
    """The sum of float(m) * log m over the support of nu, one Fraction mass per term, added left to right."""
    return sum_left_to_right([float(m) * log_fraction(m) for _, m in support(nu)])


def lattice_cell_masses(a, b, n):
    """(first cell, masses) of the uniform law on [a, b) rounded to the cells [k/n, (k+1)/n).

    One Fraction per cell: the length of the cell's overlap with [a, b),
    divided by b - a.  The oracle for `UniformInterval.cell_masses`.
    """
    lo, hi = math.floor(a * n), math.ceil(b * n)
    return lo, tuple(max(min(b, Fraction(k + 1, n)) - max(a, Fraction(k, n)), ZERO) / (b - a) for k in range(lo, hi))


def scaled_binomial(c: int, n: int) -> float:
    """c / 2^n floated as `limits.binomial_weights` does: the top 55 bits of c scaled by ldexp, 0.0 when c < 2^(n - 1081)."""
    bits = c.bit_length()
    shift = max(0, bits - 55)
    return 0.0 if bits - n < -1080 else math.ldexp(c >> shift, shift - n)


def binomial_weights(n: int, ks) -> dict[int, float]:
    """{k: comb(n, k) / 2^n} for each k in ks, each from its own `math.comb(n, k)`.

    The oracle for `limits.binomial_weights`, with no running product and no
    symmetry.  math.comb(16384, k) takes milliseconds, so callers pick the k.
    """
    return {k: scaled_binomial(math.comb(n, k), n) for k in ks}


def pascal_rows(last: int):
    """The rows comb(n, 0..n) for n = 0..last, each by adding neighbours in the row before.

    Additions only: every n <= 1200 takes 0.1 s, where one math.comb per
    coefficient takes 11 s.
    """
    row = [1]
    for _ in range(last + 1):
        yield row
        row = [1, *map(int.__add__, row, row[1:]), 1]


def is_log_concave(nu) -> bool:
    """nu(x-1) nu(x+1) <= nu(x)^2 at every interior point of the window, on the Fraction masses.

    An interior zero between positive masses fails.
    """
    m = nu.masses
    return all(m[i - 1] * m[i + 1] <= m[i] ** 2 for i in range(1, len(m) - 1))


def curvature_cost(mass: dict[int, Fraction], x: int, y: int) -> float:
    """c_mu(x, y) for a reference given by its Fraction masses: the log of F = mu(m-) mu(m+) / (mu(x) mu(y)).

    The midpoints are the floor and ceiling of the rational (x + y) / 2, and
    the log is that of F's numerator minus that of its denominator.
    """
    mid = Fraction(x + y, 2)
    return log_fraction(mass[math.floor(mid)] * mass[math.ceil(mid)] / (mass[x] * mass[y]))


def relative_entropy_terms(nu, mass: dict[int, Fraction]) -> list[float]:
    """The terms float(m) * log(m / q) of H(nu|mu), one per support point of nu in increasing order.

    q is the reference's Fraction mass at the point (absent means 0, which
    gives an infinite term).
    """
    terms = []
    for x, m in support(nu):
        q = mass.get(x, ZERO)
        terms.append(math.inf if q == 0 else float(m) * log_fraction(m / q))
    return terms


def log_weight_entropy_terms(nu, weight: dict[int, Fraction]) -> list[float]:
    """The terms float(m) * (log m - float(w(x)) + log Z) of H(nu|mu) for mu(x) = e^{w(x)} / Z.

    log Z is the log-sum-exp of the floated weights, shifted by their
    maximum and added left to right.
    """
    exponents = [float(w) for w in weight.values()]
    top = max(exponents)
    log_z = top + math.log(sum_left_to_right([math.exp(e - top) for e in exponents]))
    return [float(m) * (log_fraction(m) - float(weight[x]) + log_z) for x, m in support(nu)]


def campaign_extremes(check: str, values: list[dict]) -> dict:
    """A campaign's extremes over its records' values, trial i at position i, one branch per check.

    Each extreme is the built-in `max` or `min` over the whole list, which
    keeps the first index on a tie; P is compared as an exact Fraction and
    reported as the record's string.
    """
    records = list(enumerate(values))
    extremes = {}
    if check in ("leq1", "displacement"):
        index, best = max(records, key=lambda r: Fraction(r[1]["P"]))
        extremes["max_P"] = {"index": index, "P": best["P"]}
        if check == "displacement":
            index, best = min(records, key=lambda r: r[1]["gap"])
            extremes["min_gap"] = {"index": index, "gap": best["gap"]}
    elif check == "card":
        index, best = max(records, key=lambda r: r[1]["max_card"])
        extremes["max_card"] = {"index": index, "card": best["max_card"]}
    elif check == "te":
        index, best = min(records, key=lambda r: r[1]["rhs"] - r[1]["lhs"])
        extremes["min_slack"] = {"index": index, "slack": best["rhs"] - best["lhs"]}
    return extremes
