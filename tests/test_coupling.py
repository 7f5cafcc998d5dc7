import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

import oracles
from conftest import pmf_strategy
from discretepl.coupling import (
    _from_cells,
    binary_lattice_couplings,
    check_marginals,
    is_staircase,
    meet_join_pushforward,
    monotone_coupling,
    pushforward,
)
from discretepl.displacement import m_minus, m_plus
from discretepl.errors import SupportNotBinary
from discretepl.measures import delta, from_weights, pmf, uniform_on
from discretepl.transport import ot_cost

F = Fraction


def _vertex_coupling(vertex, xs, ys, unit):
    """The coupling of a transport vertex: its Fraction flows as int cells over `unit`, a common multiple."""
    return _from_cells([(xs[i], ys[j], int(f * unit)) for (i, j), f in vertex.items()], unit)


def test_monotone_coupling_of_diracs():
    pi = monotone_coupling(delta(0), delta(1))
    assert pi.atoms == ((0, 1, F(1)),)


def test_monotone_coupling_split_atom():
    pi = monotone_coupling(uniform_on([0, 2]), delta(1))
    assert pi.atoms == ((0, 1, F(1, 2)), (2, 1, F(1, 2)))


def test_monotone_coupling_is_the_unique_staircase_vertex():
    # exactly one extreme coupling is monotone, and it is ours
    nu0 = uniform_on([0, 2])
    nu1 = delta(1)
    xs, ys = nu0.support_points(), nu1.support_points()
    vertices = oracles.transport_vertices([nu0.mass(x) for x in xs], [nu1.mass(y) for y in ys])
    staircase = []
    for vertex in vertices:
        atoms = tuple(sorted((xs[i], ys[j], f) for (i, j), f in vertex.items()))
        # transport_vertices drops zero flows, so no cell is lost here
        c = _vertex_coupling(vertex, xs, ys, nu0.total * nu1.total)
        assert (c.marginal0, c.marginal1) == (nu0, nu1)
        if is_staircase(c):
            staircase.append(atoms)
    assert staircase == [monotone_coupling(nu0, nu1).atoms]


def test_binary_lattice_case_i_matches_stated_masses():
    nu1 = pmf(0, [F(3, 4), F(1, 4)])
    nu2 = pmf(0, [F(1, 2), F(1, 2)])
    pi, pi_tilde = binary_lattice_couplings(nu1, nu2)
    # pi(0,0) = 1/2, pi(0,1) = 1/4, pi(1,1) = 1/4 and no mass at (1,0)
    assert pi.atoms == ((0, 0, F(1, 2)), (0, 1, F(1, 4)), (1, 1, F(1, 4)))
    assert pi_tilde.atoms == pi.atoms
    assert pi_tilde.marginal0 == nu1 and pi_tilde.marginal1 == nu2


def test_binary_lattice_identical_marginals_is_diagonal():
    nu = pmf(0, [F(2, 5), F(3, 5)])
    pi, pi_tilde = binary_lattice_couplings(nu, nu)
    assert pi.atoms == ((0, 0, F(2, 5)), (1, 1, F(3, 5)))
    assert pi_tilde.atoms == pi.atoms


def test_binary_lattice_case_ii_swaps_off_diagonal():
    nu1 = pmf(0, [F(1, 4), F(3, 4)])
    nu2 = pmf(0, [F(1, 2), F(1, 2)])
    pi, pi_tilde = binary_lattice_couplings(nu1, nu2)
    # pi(1,0) = 1/4 and no mass at (0,1); S#pi moves that mass to (0,1)
    assert pi.atoms == ((0, 0, F(1, 4)), (1, 0, F(1, 4)), (1, 1, F(1, 2)))
    assert pi_tilde.atoms == ((0, 0, F(1, 4)), (0, 1, F(1, 4)), (1, 1, F(1, 2)))
    # push-forward marginals come out in swapped order
    assert pi_tilde.marginal0 == nu2 and pi_tilde.marginal1 == nu1


def test_binary_lattice_rejects_wide_support():
    with pytest.raises(SupportNotBinary):
        binary_lattice_couplings(uniform_on([0, 2]), delta(0))


def test_binary_lattice_agrees_with_quantile_merge(rng):
    # in both cases pi is the quantile-merge monotone coupling of (nu1, nu2);
    # the case split only shows in which order S#pi couples the marginals
    for _ in range(400):
        w = [rng.randint(0, 16), rng.randint(0, 16)]
        v = [rng.randint(0, 16), rng.randint(0, 16)]
        if sum(w) == 0:
            w[0] = 1
        if sum(v) == 0:
            v[1] = 1
        nu1, nu2 = from_weights(0, w), from_weights(0, v)
        pi, pi_tilde = binary_lattice_couplings(nu1, nu2)
        assert check_marginals(pi)
        assert pi.marginal0 == nu1 and pi.marginal1 == nu2
        assert pi.atoms == monotone_coupling(nu1, nu2).atoms
        assert pi_tilde.atoms == meet_join_pushforward(pi).atoms
        if nu2.mass(0) <= nu1.mass(0):
            assert pi_tilde.atoms == pi.atoms
            assert pi_tilde.marginal0 == nu1 and pi_tilde.marginal1 == nu2
        else:
            assert pi_tilde.marginal0 == nu2 and pi_tilde.marginal1 == nu1


def test_no_meet_join_coupling_exists_in_two_dimensions():
    # hard-coded witness: nu1 uniform on {(1,0),(0,1)}, nu2 uniform on
    # {(0,0),(1,1)}; neither orientation admits a coupling whose meet/join
    # image is again a coupling (exact LP feasibility check)
    nu1 = [F(0), F(1, 2), F(1, 2), F(0)]
    nu2 = [F(1, 2), F(0), F(0), F(1, 2)]
    assert not oracles.meet_join_coupling_feasible(nu1, nu2, swap_targets=False)
    assert not oracles.meet_join_coupling_feasible(nu1, nu2, swap_targets=True)


def test_two_dimensional_counterexample_found_by_grid_search():
    # exhaustive search over all pairs with masses on the 1/2-grid finds the
    # witness above (and the witness really is among the infeasible pairs)
    def half_grid():
        out = []
        for a in range(3):
            for b in range(3 - a):
                for c in range(3 - a - b):
                    d = 2 - a - b - c
                    out.append([F(a, 2), F(b, 2), F(c, 2), F(d, 2)])
        return out

    witness = ([F(0), F(1, 2), F(1, 2), F(0)], [F(1, 2), F(0), F(0), F(1, 2)])
    infeasible = []
    for nu1 in half_grid():
        for nu2 in half_grid():
            if not oracles.meet_join_coupling_feasible(nu1, nu2, False) and not oracles.meet_join_coupling_feasible(
                nu1, nu2, True
            ):
                infeasible.append((nu1, nu2))
    assert infeasible
    assert witness in [tuple(pair) for pair in infeasible] or (list(witness[0]), list(witness[1])) in infeasible


@given(pmf_strategy(), pmf_strategy())
@settings(max_examples=200, deadline=None)
def test_monotone_coupling_contracts(nu0, nu1):
    pi = monotone_coupling(nu0, nu1)
    assert check_marginals(pi)
    assert sum(w for _, _, w in pi.cells) == pi.unit
    assert is_staircase(pi)
    assert len(pi.atoms) <= len(nu0.support_points()) + len(nu1.support_points()) - 1
    assert all(p > 0 for _, _, p in pi.atoms)


def _moved(pi, k, x, y):
    """pi with its k-th cell moved to (x, y), keeping the weight and the stored marginals."""
    cells = list(pi.cells)
    cells[k] = (x, y, cells[k][2])
    return replace(pi, cells=tuple(cells))


def _bumped(rng, nu):
    """nu with one weight raised by one, normalized again."""
    i = rng.randrange(len(nu.weights))
    return from_weights(nu.offset, [w + (k == i) for k, w in enumerate(nu.weights)])


def test_check_marginals_fails_on_planted_faults(rng):
    for _ in range(200):
        nu0 = from_weights(rng.randint(-5, 5), [rng.randint(1, 9) for _ in range(rng.randint(2, 8))])
        nu1 = from_weights(rng.randint(-5, 5), [rng.randint(1, 9) for _ in range(rng.randint(2, 8))])
        pi = monotone_coupling(nu0, nu1)
        assert check_marginals(pi)
        # a stored marginal off by one weight: every weight is positive, so the bumped law is another law
        assert not check_marginals(replace(pi, marginal0=_bumped(rng, nu0)))
        assert not check_marginals(replace(pi, marginal1=_bumped(rng, nu1)))
        # a cell moved to another row or column inside the marginal's window
        k = rng.randrange(len(pi.cells))
        x, y, _ = pi.cells[k]
        assert not check_marginals(_moved(pi, k, rng.choice([r for r in nu0.window() if r != x]), y))
        assert not check_marginals(_moved(pi, k, x, rng.choice([c for c in nu1.window() if c != y])))
        # a cell outside the marginal's window, on either side
        assert not check_marginals(_moved(pi, k, rng.choice((nu0.offset - 1, nu0.window().stop + 2)), y))
        assert not check_marginals(_moved(pi, k, x, rng.choice((nu1.offset - 3, nu1.window().stop))))


def test_is_staircase_matches_the_pairwise_definition(rng):
    verdicts = set()
    for _ in range(400):
        cells = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))}
        atoms = tuple(sorted((x, y, F(1, len(cells))) for x, y in cells))
        c = _from_cells([(x, y, 1) for x, y in cells], len(cells))
        expected = all(y1 <= y2 for x1, y1, _ in atoms for x2, y2, _ in atoms if x1 < x2)
        assert is_staircase(c) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_uniqueness_of_staircase_vertex_small_supports(rng):
    for _ in range(60):
        nu0 = from_weights(rng.randint(-3, 3), [rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        nu1 = from_weights(rng.randint(-3, 3), [rng.randint(1, 9) for _ in range(rng.randint(1, 3))])
        xs, ys = nu0.support_points(), nu1.support_points()
        vertices = oracles.transport_vertices([nu0.mass(x) for x in xs], [nu1.mass(y) for y in ys])
        unit = nu0.total * nu1.total
        staircase = [v for v in vertices if is_staircase(_vertex_coupling(v, xs, ys, unit))]
        assert len(staircase) == 1
        atoms = tuple(sorted((xs[i], ys[j], f) for (i, j), f in staircase[0].items()))
        assert atoms == monotone_coupling(nu0, nu1).atoms


def test_pushforward_floor_and_ceiling():
    pi = _from_cells([(0, 1, 1)], 1)
    assert pushforward(pi, m_minus) == delta(0)
    assert pushforward(pi, m_plus) == delta(1)


def test_pushforward_two_atoms():
    pi = monotone_coupling(uniform_on([0, 2]), delta(1))
    assert pushforward(pi, m_minus) == uniform_on([0, 1])
    assert pushforward(pi, m_plus) == uniform_on([1, 2])


@given(pmf_strategy(), pmf_strategy())
@settings(max_examples=100, deadline=None)
def test_equal_couplings_compare_and_hash_equal_from_every_constructor(nu0, nu1):
    pi = monotone_coupling(nu0, nu1)
    # split every atom in two, so the merge and the gcd reduction both have work to do
    halves = list(pi.cells) * 2
    # (x - y)^2 is strictly Monge, so the monotone coupling is the only optimal plan
    plan = ot_cost(lambda x, y: (x - y) ** 2, nu0, nu1).plan
    for other in (_from_cells(pi.cells, pi.unit), _from_cells(reversed(halves), 2 * pi.unit), plan):
        assert other == pi
        assert hash(other) == hash(pi)
    assert math.gcd(pi.unit, *[w for _, _, w in pi.cells]) == 1
    assert sum(w for _, _, w in pi.cells) == pi.unit
