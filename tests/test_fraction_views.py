"""Exact values are read as ints: the Fraction views of a Pmf or Coupling are for reports only.

The float functions below read the canonical int weights, and each is
compared with its formula written on Fraction masses, bit for bit.
"""

import random
from fractions import Fraction

import oracles
from discretepl import campaign
from discretepl.coupling import Coupling
from discretepl.fourfunctions import random_hypothesis_quadruple
from discretepl.limits import DISP_DEMOS, PointMass, UniformInterval, rescaled_displacement_experiment
from discretepl.measures import Pmf, RealFn, expectation, from_weights
from discretepl.transport import LogWeights, _relative_entropy_logweights, cost_mu

F = Fraction


def _random_phi(rng, window):
    return RealFn(window.start, tuple([rng.uniform(-3, 3) for _ in window]))


def _random_log_weights(rng, window):
    return LogWeights(window.start, tuple([F(rng.randint(-30, 5), rng.randint(1, 6)) for _ in window]))


def _converted_calls(rng):
    """One call of each function that reads the int weights where it once read Fractions."""
    nu = from_weights(-2, [rng.randint(1, 40) for _ in range(rng.randint(1, 9))])
    phi = _random_phi(rng, nu.window())
    lw = _random_log_weights(rng, nu.window())
    return [
        lambda: UniformInterval(F(-1, 3), F(5, 7)).cell_masses(64, 1),
        lambda: PointMass(F(-2, 3)).cell_masses(64, 1),
        lambda: random_hypothesis_quadruple(rng, 3, 64),
        lambda: expectation(phi, nu),
        lambda: cost_mu(nu, nu.offset, nu.window().stop - 1),
        lambda: _relative_entropy_logweights(nu, lw),
    ]


def test_no_checker_reads_a_fraction_view(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction view was read")

    calls = _converted_calls(random.Random(3))  # built before the views are closed
    for cls, names in ((Pmf, ("masses", "mass")), (Coupling, ("atoms",))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse) if name in ("masses", "atoms") else refuse)
    for call in calls:
        call()
    for check in campaign.CHECKS:
        report = campaign.run_campaign(campaign.CampaignConfig(1, 20, check=check))
        assert report.failures == 0
    for dist0, dist1, half_width in DISP_DEMOS.values():
        assert all(row.holds for row in rescaled_displacement_experiment(dist0, dist1, half_width, [8, 64]))


# the formulas on Fraction masses that the int readers replace


def _expectation_fraction(phi, nu):
    return oracles.sum_left_to_right(float(m) * float(phi.value(x)) for x, m in oracles.support(nu))


def _cost_fraction(mu, x, y):
    lo, hi = (x + y) // 2, -((-x - y) // 2)
    return oracles.log_fraction(mu.mass(lo) * mu.mass(hi) / (mu.mass(x) * mu.mass(y)))


def _relative_entropy_logweights_fraction(nu, mu):
    log_z = mu.log_normalizer
    terms = (float(m) * (oracles.log_fraction(m) - float(mu.weight(x)) + log_z) for x, m in oracles.support(nu))
    return oracles.sum_left_to_right(terms)


def test_float_readers_equal_their_fraction_formulas_bit_for_bit(rng):
    for _ in range(300):
        base = from_weights(rng.randint(-4, 4), [rng.randint(0, 30) or 1 for _ in range(rng.randint(1, 9))])
        wide = range(base.offset - 2, base.window().stop + 2)
        phi = _random_phi(rng, wide)
        nu = from_weights(base.offset, [rng.choice([0, rng.randint(1, 30)]) for _ in base.window()] + [1])
        for pmf in (base, nu):  # nu may hold zero weights inside its window
            assert expectation(phi, pmf) == _expectation_fraction(phi, pmf)
        for x in base.window():
            for y in base.window():
                assert cost_mu(base, x, y) == _cost_fraction(base, x, y)
        lw = _random_log_weights(rng, wide)
        assert _relative_entropy_logweights(nu, lw) == _relative_entropy_logweights_fraction(nu, lw)

