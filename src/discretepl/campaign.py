"""Seeded random campaigns over the inequality checkers.

Instances are generated from integer weights with exact normalization, so
every mass identity in a campaign is checked in rational arithmetic.  The
instance stream is a pure function of (seed, trial index): records carry an
input digest and the emitted JSON/CSV is byte-stable for a fixed seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .coupling import Coupling, binary_lattice_couplings, check_marginals, monotone_coupling
from .displacement import displacement_gap, level_sets, midpoint_measures, pair_ratio_sum
from .errors import ConfigError
from .fourfunctions import check_4ft_conclusion, check_4ft_hypothesis, random_hypothesis_quadruple
from .io import dump_json, long_int_strings
from .measures import Pmf, _uniform_ints, from_weights
from .transport import LogWeights, positive_window, transport_entropy_check

#: a million default trials take 1.0-4.7 min (transport-lemma 1.0-1.2, te 1.7, displacement 4.3-4.7, 4ft 2.9-3.6),
#: the best of four timings over 5,000 trials with the JSON report, up to 1.5x that on a loaded host, and keep about
#: 0.5 GB of records; a million check-te trials take 0.7-1.0 min and keep only failures (Python 3.11, 2 cores)
MAX_TRIALS = 1_000_000
#: one displacement trial on two full-width pmfs takes 0.10-0.11 s at width 20000 and resolution 64, and 2.6 s
#: at resolution 10^9 (Python 3.11, 2 cores)
MAX_SUPPORT_WIDTH = 20_000
#: the weights are drawn from 1..resolution, and every exact step grows with their digits: one displacement trial
#: takes 1.6 s at width 20000 and resolution 10^9, and 21 s at width 200 and resolution 10^4000; one check-te trial
#: at --K 100000 and --width 200001 takes 3.4-4.3 s at resolution 10^9 (Python 3.11, 2 cores)
MAX_RESOLUTION = 10**9


@dataclass(frozen=True)
class CampaignConfig:
    seed: int
    trials: int
    support_width: int = 40
    mass_resolution: int = 64
    check: str = "leq1"

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be >= 1 and <= {MAX_TRIALS}")
        if not 2 <= self.mass_resolution <= MAX_RESOLUTION:
            raise ConfigError(f"mass resolution must be >= 2 and <= {MAX_RESOLUTION}")
        if not 1 <= self.support_width <= MAX_SUPPORT_WIDTH:
            raise ConfigError(f"support width must be >= 1 and <= {MAX_SUPPORT_WIDTH}")
        if self.check not in CHECKS:
            raise ConfigError(f"unknown check {self.check!r}; choose from {CHECKS}")


@dataclass(frozen=True)
class TrialRecord:
    index: int
    digest: str
    passed: bool
    values: dict
    witness: str | None = None


@dataclass
class CampaignReport:
    config: CampaignConfig
    records: list[TrialRecord] = field(default_factory=list)
    extremes: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failures(self) -> int:
        return len(self.records) - self.passes

    def payload(self) -> dict:
        """The report as JSON-ready data: the dataclass field names are the keys."""
        return {
            "config": vars(self.config),
            "summary": {"passes": self.passes, "failures": self.failures, "extremes": self.extremes},
            "records": [vars(r) for r in self.records],
        }

    def to_json(self) -> str:
        return dump_json(self.payload())

    def to_csv(self) -> str:
        keys = sorted({k for r in self.records for k in r.values})
        lines = [",".join(["index", "digest", "passed"] + keys)]
        for r in self.records:
            row = [str(r.index), r.digest, str(int(r.passed))]
            row += [str(r.values.get(k, "")) for k in keys]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def trial_rng(seed: int, index: int) -> random.Random:
    # string seeding is hash-randomization independent, so trials are
    # reproducible individually and order-independent
    return random.Random(f"{seed}:{index}")


def random_pmf(rng: random.Random, max_width: int, resolution: int) -> Pmf:
    """Integer weights in [1, resolution] on a random window, normalized exactly."""
    width = rng.randint(1, max_width)
    offset = rng.randint(-max_width, max_width)
    return from_weights(offset, _uniform_ints(rng, width, 1, resolution))


def random_binary_pmf(rng: random.Random, resolution: int) -> Pmf:
    w0, w1 = _uniform_ints(rng, 2, 0, resolution)
    if w0 == 0 and w1 == 0:
        w1 = 1
    return from_weights(0, [w0, w1])


#: log-concave reference families, in the order te trials draw them by index:
#: name -> rational weight of x on [-half_width, half_width]
_FAMILY_WEIGHTS = {
    "geometric-half": lambda x, half_width: Fraction(1, 2) ** abs(x),
    "geometric-two-thirds": lambda x, half_width: Fraction(2, 3) ** abs(x),
    "binomial": lambda x, half_width: Fraction(math.comb(2 * half_width, x + half_width)),
    "gaussian-half": lambda x, half_width: Fraction(1, 2) ** (x * x),
    "uniform": lambda x, half_width: Fraction(1),
}
LOG_CONCAVE_FAMILIES = tuple(_FAMILY_WEIGHTS)


@functools.cache
def rational_log_concave_family(name: str, half_width: int) -> Pmf:
    """Truncated log-concave reference families with exact rational masses.

    Built once per (name, half_width): a Pmf is immutable, and te trials
    draw the same few references over and over.
    """
    if name not in _FAMILY_WEIGHTS:
        raise ConfigError(f"unknown family {name!r}")
    weight = _FAMILY_WEIGHTS[name]
    return from_weights(-half_width, [weight(x, half_width) for x in range(-half_width, half_width + 1)])


def _pmf_in_window(rng: random.Random, window: range, resolution: int, max_width: int) -> Pmf:
    width = rng.randint(1, min(max_width, len(window)))
    start = rng.randint(window.start, window.stop - width)
    return from_weights(start, _uniform_ints(rng, width, 1, resolution))


def _leq1_trial(rng: random.Random, cfg: CampaignConfig):
    nu0 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    nu1 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    pair = midpoint_measures(nu0, nu1)
    total = pair_ratio_sum(pair)
    passed = total <= 1
    witness = None if passed else f"P={total}>1 for nu0={nu0} nu1={nu1}"
    return (nu0, nu1), passed, {"P": str(total), "atoms": len(pair.pi.cells)}, witness


def _displacement_trial(rng: random.Random, cfg: CampaignConfig):
    nu0 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    nu1 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    report = displacement_gap(nu0, nu1)
    witness = None if report.holds else f"gap={report.gap} P={report.ratio_sum} for nu0={nu0} nu1={nu1}"
    return (nu0, nu1), report.holds, {"gap": report.gap, "P": str(report.ratio_sum)}, witness


def _card_trial(rng: random.Random, cfg: CampaignConfig):
    nu0 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    nu1 = random_pmf(rng, cfg.support_width, cfg.mass_resolution)
    pi = monotone_coupling(nu0, nu1)
    sets = level_sets(pi)
    passed = all(ls.card_holds for ls in sets) and check_marginals(pi)
    witness = None if passed else f"level-set invariant failed for nu0={nu0} nu1={nu1}"
    return (nu0, nu1), passed, {"max_card": max(len(ls.pairs) for ls in sets), "levels": len(sets)}, witness


def _fourfn_trial(rng: random.Random, cfg: CampaignConfig):
    n = rng.randint(1, 4)
    quad = random_hypothesis_quadruple(rng, n, cfg.mass_resolution)
    hyp = check_4ft_hypothesis(*quad)
    lhs, rhs, holds = check_4ft_conclusion(*quad)
    passed = hyp.ok and holds
    witness = None if passed else f"conclusion {lhs} > {rhs}"
    return tuple([q.values for q in quad]), passed, {"n": n, "lhs": str(lhs), "rhs": str(rhs)}, witness


def _has_cells(c: Coupling, cells: list[tuple[int, int, int]], unit: int) -> bool:
    """Whether c's atoms are exactly the positive cells (x, y, w): mass w / unit, in lex order."""
    return [(x, y, w * unit) for x, y, w in c.cells] == [(x, y, w * c.unit) for x, y, w in cells if w]


def _transport_lemma_trial(rng: random.Random, cfg: CampaignConfig):
    nu1 = random_binary_pmf(rng, cfg.mass_resolution)
    nu2 = random_binary_pmf(rng, cfg.mass_resolution)
    pi, pi_tilde = binary_lattice_couplings(nu1, nu2)
    # the stated masses as ints in the unit 1 / (T1 T2)
    unit = nu1.total * nu2.total
    (a0, a1), (b0, b1) = [nu1.weight(x) * nu2.total for x in (0, 1)], [nu2.weight(y) * nu1.total for y in (0, 1)]
    case_i = b0 <= a0
    if case_i:  # S#pi = pi couples (nu1, nu2)
        lemma_pi = lemma_tilde = [(0, 0, b0), (0, 1, a0 - b0), (1, 1, a1)]
        tilde_marginals = (nu1, nu2)
    else:  # S#pi moves pi(1,0) to (0,1) and couples (nu2, nu1)
        lemma_pi = [(0, 0, a0), (1, 0, b0 - a0), (1, 1, b1)]
        lemma_tilde = [(0, 0, a0), (0, 1, b0 - a0), (1, 1, b1)]
        tilde_marginals = (nu2, nu1)
    found = (pi.marginal0, pi.marginal1, pi_tilde.marginal0, pi_tilde.marginal1)
    passed = (
        _has_cells(pi, lemma_pi, unit)
        and _has_cells(pi_tilde, lemma_tilde, unit)
        and found == (nu1, nu2, *tilde_marginals)
    )
    witness = None if passed else f"coupling masses off for nu1={nu1} nu2={nu2}"
    return (nu1, nu2), passed, {"case": "i" if case_i else "ii"}, witness


def te_trial(rng: random.Random, mu: Pmf | LogWeights, family: str, width: int, resolution: int):
    """T <= H(nu0|mu) + H(nu1|mu) on two random pmfs of support width at most `width` in mu's positive window."""
    window = positive_window(mu)
    nu0 = _pmf_in_window(rng, window, resolution, width)
    nu1 = _pmf_in_window(rng, window, resolution, width)
    check = transport_entropy_check(mu, nu0, nu1)
    witness = None if check.holds else f"T={check.lhs} > H+H={check.rhs} under {family}"
    return (family, nu0, nu1), check.holds, {"family": family, "lhs": check.lhs, "rhs": check.rhs}, witness


def _te_trial(rng: random.Random, cfg: CampaignConfig):
    family = LOG_CONCAVE_FAMILIES[rng.randrange(len(LOG_CONCAVE_FAMILIES))]
    return te_trial(rng, rational_log_concave_family(family, min(12, cfg.support_width)), family, 12, cfg.mass_resolution)


_MAX_P = ("max_P", "P", max, lambda values: Fraction(values["P"]))
#: check -> (trial (rng, config) -> (inputs, passed, values, witness), extremes): the digest hashes each input's
#: str(), and an extreme (name, label, min or max, key of the values) reads {"index", label}: values[label], else key
_CHECKS = {
    "leq1": (_leq1_trial, [_MAX_P]),
    "displacement": (_displacement_trial, [_MAX_P, ("min_gap", "gap", min, itemgetter("gap"))]),
    "card": (_card_trial, [("max_card", "card", max, itemgetter("max_card"))]),
    "4ft": (_fourfn_trial, []),
    "transport-lemma": (_transport_lemma_trial, []),
    "te": (_te_trial, [("min_slack", "slack", min, lambda values: values["rhs"] - values["lhs"])]),
}
CHECKS = tuple(_CHECKS)


def run_trials(check: str, seed: int, trials: int, emit, trial, *args) -> dict:
    """Run `trial(rng, *args)` on `trial_rng(seed, index)` for each index < trials; return the check's extremes.

    Each outcome goes to `emit(index, inputs, passed, values, witness)`; on a tie an extreme keeps the first index.
    """
    extremes, best = _CHECKS[check][1], {}
    for index in range(trials):
        inputs, passed, values, witness = trial(trial_rng(seed, index), *args)
        emit(index, inputs, passed, values, witness)
        for name, _, pick, key in extremes:  # min and max return their first argument unless the second is better
            value = key(values)
            if name not in best or pick(best[name][1], value) is not best[name][1]:
                best[name] = (index, value, values)
    rows = zip(extremes, best.values())  # best was filled in the rows' order on trial 0
    return {name: {"index": i, label: kept.get(label, v)} for (name, label, _, _), (i, v, kept) in rows}


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Deterministic campaign: same seed, byte-identical report.

    Exact values are reported in full, however many digits they have.
    """
    report = CampaignReport(cfg)

    def keep(index, inputs, passed, values, witness):
        digest = hashlib.sha256("|".join(map(str, inputs)).encode()).hexdigest()[:12]
        report.records.append(TrialRecord(index, digest, passed, values, witness))

    with long_int_strings():
        report.extremes = run_trials(cfg.check, cfg.seed, cfg.trials, keep, _CHECKS[cfg.check][0], cfg)
    return report
