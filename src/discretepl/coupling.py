"""Couplings on Z^2: the monotone rearrangement and the binary lattice couplings.

The monotone coupling of (nu0, nu1) is the law of (F0^{-1}(U), F1^{-1}(U))
for U uniform on (0,1).  It is built here by merging the two cumulative-sum
partitions of (0,1) with exact rational arithmetic: atom (x, y) receives the
length of the overlap of the half-open quantile intervals [F(x-), F(x)) of
x under nu0 and y under nu1.  Shared breakpoints therefore never create a
zero-mass atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from typing import Callable, Iterable

from .errors import PreconditionViolated, SupportNotBinary
from .measures import ZERO, Pmf, _canonical, to_common_unit

Atom = tuple[int, int, Fraction]


@dataclass(frozen=True)
class Coupling:
    """Finitely supported joint mass on Z^2 with its two marginals.

    Atoms are lexicographically sorted (x, y, mass) triples with mass > 0
    summing to 1; row sums equal `marginal0` and column sums `marginal1`
    exactly.  Builders maintain these contracts; `check_marginals` re-derives
    them for verification.
    """

    atoms: tuple[Atom, ...]
    marginal0: Pmf
    marginal1: Pmf

    def mass(self, x: int, y: int) -> Fraction:
        for ax, ay, p in self.atoms:
            if (ax, ay) == (x, y):
                return p
        return ZERO

    def total(self) -> Fraction:
        return sum((p for _, _, p in self.atoms), ZERO)


def coupling_from_atoms(atoms: Iterable[tuple[int, int, Fraction]]) -> Coupling:
    """Build a coupling from (x, y, mass) triples, merging cells and dropping zeros.

    Marginals are derived from row/column sums and validated (they must be
    probability vectors, i.e. the atom masses must sum to 1).
    """
    cells: dict[tuple[int, int], Fraction] = {}
    for x, y, p in atoms:
        if p < 0:
            raise ValueError(f"negative coupling mass at ({x},{y})")
        if p > 0:
            cells[(x, y)] = cells.get((x, y), ZERO) + p
    if not cells:
        raise ValueError("coupling needs at least one positive atom")
    sorted_atoms = tuple((x, y, p) for (x, y), p in sorted(cells.items()))
    return Coupling(sorted_atoms, _axis_sum(sorted_atoms, 0), _axis_sum(sorted_atoms, 1))


def _image(points: Iterable[tuple[int, Fraction]]) -> Pmf:
    """Pmf of the (point, mass) pairs, merging masses that land on the same point."""
    pairs = list(points)
    ints, unit = to_common_unit([p for _, p in pairs])
    acc: dict[int, int] = {}
    for (z, _), w in zip(pairs, ints):
        acc[z] = acc.get(z, 0) + w
    lo, hi = min(acc), max(acc)
    return _canonical(lo, [acc.get(z, 0) for z in range(lo, hi + 1)], unit)


def _axis_sum(atoms: tuple[Atom, ...], axis: int) -> Pmf:
    return _image((atom[axis], atom[2]) for atom in atoms)


def check_marginals(c: Coupling) -> bool:
    """Exact rational check that row/column sums reproduce the stored marginals."""
    return _axis_sum(c.atoms, 0) == c.marginal0 and _axis_sum(c.atoms, 1) == c.marginal1


def is_staircase(c: Coupling) -> bool:
    """Monotone-support test: x1 < x2 implies y1 <= y2 over all atom pairs.

    The atoms are lex sorted, so this holds exactly when y never decreases
    from one atom to the next.
    """
    return all(a[1] <= b[1] for a, b in pairwise(c.atoms))


def quantile(nu: Pmf, t: Fraction) -> int:
    """Generalized inverse CDF: the smallest x with F(x) >= t, exact in rationals."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise PreconditionViolated("quantile level must lie in (0,1)")
    acc = ZERO
    for x, m in nu.support():
        acc += m
        if acc >= t:
            return x
    raise AssertionError("unreachable: masses sum to 1")


def monotone_coupling(nu0: Pmf, nu1: Pmf) -> Coupling:
    """The unique coupling with staircase-monotone support.

    Two-pointer sweep over the supports: each step emits the overlap of the
    current quantile intervals and advances whichever side is exhausted
    (both on ties).  Atom count is at most |supp nu0| + |supp nu1| - 1.
    The sweep runs on int masses in the unit 1 / (T0 T1) of the two totals.
    """
    unit = nu0.total * nu1.total
    s0 = [(x, w * nu1.total) for x, w in enumerate(nu0.weights, nu0.offset) if w]
    s1 = [(y, w * nu0.total) for y, w in enumerate(nu1.weights, nu1.offset) if w]
    atoms: list[Atom] = []
    i = j = 0
    r0 = s0[0][1]
    r1 = s1[0][1]
    while i < len(s0) and j < len(s1):
        take = min(r0, r1)
        atoms.append((s0[i][0], s1[j][0], Fraction(take, unit)))
        r0 -= take
        r1 -= take
        if r0 == 0:
            i += 1
            r0 = s0[i][1] if i < len(s0) else 0
        if r1 == 0:
            j += 1
            r1 = s1[j][1] if j < len(s1) else 0
    return Coupling(tuple(atoms), nu0, nu1)


def pushforward(c: Coupling, mapping: Callable[[int, int], int]) -> Pmf:
    """Image measure of the coupling under (x, y) -> z, exact."""
    return _image((mapping(x, y), p) for x, y, p in c.atoms)


def meet_join_pushforward(c: Coupling) -> Coupling:
    """Push a coupling on {0,1}^2 (as integers) forward under S(x,y) = (min, max)."""
    return coupling_from_atoms((min(x, y), max(x, y), p) for x, y, p in c.atoms)


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
