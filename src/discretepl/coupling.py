"""Couplings on Z^2: the monotone rearrangement and the binary lattice couplings.

The monotone coupling of (nu0, nu1) is the law of (F0^{-1}(U), F1^{-1}(U))
for U uniform on (0,1).  It is built here by merging the two cumulative-sum
partitions of (0,1) in integers: atom (x, y) receives the length of the
overlap of the half-open quantile intervals [F(x-), F(x)) of x under nu0 and
y under nu1, counted in the unit 1 / (T0 T1) of the two totals.  Shared
breakpoints therefore never create a zero-mass atom.

A coupling stores int cells (x, y, w) over one int `unit`, canonical like a
`Pmf`: so every mass identity on it (marginals, push-forwards) is a sum of
ints, and the `Fraction` atoms are built only when asked for.

`pushforward` is the general image under a map (x, y) -> z.  `check_marginals`
re-derives both marginals through it, so the verifier shares no code with the
constructors or with the one-pass midpoint measures of `displacement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable

from .errors import SupportNotBinary
from .measures import Pmf, _canonical

Atom = tuple[int, int, Fraction]
#: (x, y, w): mass w / unit at (x, y)
Cell = tuple[int, int, int]


@dataclass(frozen=True)
class Coupling:
    """Finitely supported joint mass on Z^2 with its two marginals.

    The mass at (x, y) is w / `unit` for each cell (x, y, w).  Canonical
    form: the cells are lexicographically sorted with w > 0, and the weights
    are coprime and sum to `unit`, so equal couplings compare and hash equal.
    Row sums equal `marginal0` and column sums `marginal1` exactly.  The
    constructors keep these contracts; `check_marginals` re-derives the
    marginals for verification.
    """

    cells: tuple[Cell, ...]
    unit: int
    marginal0: Pmf
    marginal1: Pmf

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The (x, y, mass) triples with Fraction masses, built on each access."""
        return tuple([(x, y, Fraction(w, self.unit)) for x, y, w in self.cells])


def _reduced(cells: list[Cell], unit: int, marginal0: Pmf, marginal1: Pmf) -> Coupling:
    """The canonical coupling of sorted positive cells summing to `unit`: weights divided by their gcd."""
    g = math.gcd(*[w for _, _, w in cells])
    if g > 1:
        cells = [(x, y, w // g) for x, y, w in cells]
    return Coupling(tuple(cells), unit // g, marginal0, marginal1)


def _from_cells(cells: Iterable[Cell], unit: int) -> Coupling:
    """Coupling with mass w / unit at each (x, y, w), merging cells and dropping zeros.

    The marginals are the row and column sums; they check that the weights
    are non-negative and sum to `unit`.
    """
    acc: dict[tuple[int, int], int] = {}
    for x, y, w in cells:
        if w:
            acc[(x, y)] = acc.get((x, y), 0) + w
    if not acc:
        raise ValueError("coupling needs at least one positive atom")
    merged = [(x, y, w) for (x, y), w in sorted(acc.items())]
    return _reduced(merged, unit, _axis_sum(merged, 0, unit), _axis_sum(merged, 1, unit))


def _image(points: list[int], weights: Iterable[int], unit: int) -> Pmf:
    """Pmf with mass w / unit at each z of `points` paired with w of `weights`, summed in one list over [min, max]."""
    lo = min(points)
    ints = [0] * (max(points) - lo + 1)
    for z, w in zip(points, weights):
        ints[z - lo] += w
    return _canonical(lo, ints, unit)


def _axis_sum(cells: list[Cell], axis: int, unit: int) -> Pmf:
    return _image([cell[axis] for cell in cells], [w for _, _, w in cells], unit)


def check_marginals(c: Coupling) -> bool:
    """Exact check, in ints, that the `pushforward`s under the two projections reproduce the stored marginals."""
    return pushforward(c, lambda x, y: x) == c.marginal0 and pushforward(c, lambda x, y: y) == c.marginal1


def is_staircase(c: Coupling) -> bool:
    """Monotone-support test: x1 < x2 implies y1 <= y2 over all atom pairs.

    The cells are lex sorted, so this holds exactly when y never decreases
    from one cell to the next.
    """
    return all(a[1] <= b[1] for a, b in pairwise(c.cells))


def monotone_coupling(nu0: Pmf, nu1: Pmf) -> Coupling:
    """The unique coupling with staircase-monotone support.

    Two-pointer sweep over the supports: each step emits the overlap of the
    current quantile intervals and advances whichever side is exhausted
    (both on ties).  Atom count is at most |supp nu0| + |supp nu1| - 1.
    The sweep runs on int masses in the unit 1 / (T0 T1) of the two totals,
    and (i, j) only rises, so the cells come out lex sorted.
    """
    rows = iter([(x, w * nu1.total) for x, w in enumerate(nu0.weights, nu0.offset) if w])
    cols = iter([(y, w * nu0.total) for y, w in enumerate(nu1.weights, nu1.offset) if w])
    cells: list[Cell] = []
    (x, r0), (y, r1) = next(rows), next(cols)
    # both sides hold T0 T1 in all, so neither runs out while the other has mass left
    while True:
        if r0 < r1:
            cells.append((x, y, r0))
            r1 -= r0
            x, r0 = next(rows)
        elif r1 < r0:
            cells.append((x, y, r1))
            r0 -= r1
            y, r1 = next(cols)
        else:
            cells.append((x, y, r0))
            row = next(rows, None)
            if row is None:
                break
            (x, r0), (y, r1) = row, next(cols)
    return _reduced(cells, nu0.total * nu1.total, nu0, nu1)


def pushforward(c: Coupling, mapping: Callable[[int, int], int]) -> Pmf:
    """Image measure of the coupling under (x, y) -> z, exact: the cell weights summed in ints."""
    return _image([mapping(x, y) for x, y, _ in c.cells], [w for _, _, w in c.cells], c.unit)


def meet_join_pushforward(c: Coupling) -> Coupling:
    """Push a coupling on {0,1}^2 (as integers) forward under S(x,y) = (min, max)."""
    return _from_cells(((min(x, y), max(x, y), w) for x, y, w in c.cells), c.unit)


def _require_binary(nu: Pmf) -> None:
    if any(x not in (0, 1) for x in nu.support_points()):
        raise SupportNotBinary(f"support {nu.support_points()} not inside {{0,1}}")


def binary_lattice_couplings(nu1: Pmf, nu2: Pmf) -> tuple[Coupling, Coupling]:
    """The two-point couplings (pi, pi_tilde) with pi_tilde = S#pi, S = (min, max).

    In both cases pi is the monotone rearrangement coupling of (nu1, nu2);
    the case split governs which order S#pi couples the marginals in:

    * nu2(0) <= nu1(0): pi(0,0) = nu2(0), pi(1,0) = 0,
      pi(0,1) = nu1(0) - nu2(0), pi(1,1) = nu1(1); S#pi couples (nu1, nu2)
      again and equals pi.
    * nu2(0) > nu1(0): pi(0,0) = nu1(0), pi(1,1) = nu2(1), pi(0,1) = 0,
      pi(1,0) = nu2(0) - nu1(0); S#pi couples (nu2, nu1), with
      pi_tilde(0,1) = pi(1,0) and pi_tilde(1,0) = 0.

    Both couplings are returned; neither is silently substituted for the
    other.
    """
    _require_binary(nu1)
    _require_binary(nu2)
    pi = monotone_coupling(nu1, nu2)
    return pi, meet_join_pushforward(pi)
