"""Seeded workloads: op builders and the benchmark's own output checks.

Every op is a pure function of (workload, seed, index): its inputs are drawn
from a generator seeded with those three values, so any op can be rebuilt and
replayed alone.  An op's ``call`` runs public discretepl functions on inputs
built beforehand; its ``check`` inspects the output with code of the
benchmark's own and returns a reason string when the output is wrong.

Calls go through the module objects (``transport.ot_cost``, not a name
imported from it), so the traced run sees the rebound functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from discretepl import campaign, fourfunctions, limits, measures, transport
from discretepl import io as formats

#: campaign settings of the acceptance ``big_campaigns`` fixture
SUPPORT_WIDTH = 40
RESOLUTION = 64
#: half-width of the transport references (campaign ``te`` and ``check-te``)
TE_HALF_WIDTH = 12
#: one-sided float inequalities in the reports carry this slack
SLACK = 1e-10


@dataclass
class Op:
    index: int
    kind: str
    digest: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    #: support size, transport cells or n, when the benchmark chose it
    size: int | None = None
    #: whether the op's reference measure is log-concave; None without a reference
    log_concave: bool | None = None


def digest(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:12]


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"bench:{workload}:{seed}:{index}")


def stratified(options: tuple, key: str, rank: int):
    """The option for the rank-th op of a kind: cycles through seeded shuffles of all options.

    Every run then holds each option in nearly the same share, so a run's mean
    and tail do not hinge on how often its seed drew the largest sizes.
    """
    cycle, position = divmod(rank, len(options))
    order = list(options)
    random.Random(f"{key}:{cycle}").shuffle(order)
    return order[position]


def op_seed(workload: str, seed: int, index: int) -> int:
    """Campaign seed of one op: 32 bits of a hash of (workload, seed, index)."""
    return int(hashlib.sha256(f"{workload}:{seed}:{index}".encode()).hexdigest()[:8], 16)


# --- campaign ops -------------------------------------------------------------


def _check_leq1(values) -> str | None:
    p = Fraction(values["P"])
    if not 0 < p <= 1:
        return f"ratio sum P={p} outside (0, 1]"
    if values["atoms"] < 1:
        return "coupling has no atoms"
    return None


def _check_displacement(values) -> str | None:
    p = Fraction(values["P"])
    if not 0 < p <= 1:
        return f"ratio sum P={p} outside (0, 1]"
    if not values["gap"] >= -1e-12:
        return f"entropy gap {values['gap']} < 0"
    return None


def _check_card(values) -> str | None:
    if not 1 <= values["max_card"] <= 2 or values["levels"] < 1:
        return f"level sets {values} break the two-atom bound"
    return None


def _check_lemma(values) -> str | None:
    return None if values["case"] in ("i", "ii") else f"unknown case {values['case']!r}"


def _check_4ft(values) -> str | None:
    if not 1 <= values["n"] <= 4:
        return f"dimension {values['n']} outside 1..4"
    if Fraction(values["lhs"]) > Fraction(values["rhs"]):
        return f"4FT conclusion {values['lhs']} > {values['rhs']}"
    return None


def _check_te_values(values) -> str | None:
    lhs, rhs = values["lhs"], values["rhs"]
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return f"non-finite transport-entropy sides {lhs}, {rhs}"
    if lhs < -SLACK:
        return f"negative transport cost {lhs} under a log-concave reference"
    if lhs > rhs + SLACK:
        return f"T={lhs} > H+H={rhs}"
    return None


CAMPAIGN_VALUE_CHECKS = {
    "leq1": _check_leq1,
    "displacement": _check_displacement,
    "card": _check_card,
    "transport-lemma": _check_lemma,
    "4ft": _check_4ft,
    "te": _check_te_values,
}


def check_campaign_report(check: str, seed: int, doc: dict) -> str | None:
    """Check one parsed single-trial ``CampaignReport.to_json()`` output."""
    config = doc["config"]
    if (config["check"], config["seed"], config["trials"]) != (check, seed, 1):
        return f"report config {config} does not match the request"
    records = doc["records"]
    if len(records) != 1 or records[0]["index"] != 0:
        return f"expected one record with index 0, got {len(records)}"
    record = records[0]
    if not record["passed"] or doc["summary"]["failures"] != 0:
        return f"theorem check failed on valid input: {record['witness']}"
    return CAMPAIGN_VALUE_CHECKS[check](record["values"])


def campaign_op(workload: str, seed: int, index: int, check: str) -> Op:
    cfg = campaign.CampaignConfig(
        seed=op_seed(workload, seed, index),
        trials=1,
        support_width=SUPPORT_WIDTH,
        mass_resolution=RESOLUTION,
        check=check,
    )

    def call():
        return campaign.run_campaign(cfg).to_json()

    op = Op(index, check, digest("campaign", check, cfg.seed, SUPPORT_WIDTH, RESOLUTION), call, None)

    def check_output(text):
        doc = json.loads(text)
        reason = check_campaign_report(check, cfg.seed, doc)
        if reason is None and check == "4ft":
            op.size = doc["records"][0]["values"]["n"]
        if reason is None and check == "te":
            op.log_concave = family_is_log_concave(doc["records"][0]["values"]["family"])
        return reason

    op.check = check_output
    return op


_FAMILY_LOG_CONCAVE: dict[str, bool] = {}


def family_is_log_concave(name: str) -> bool:
    """The benchmark's own exact test of a campaign reference family."""
    if name not in _FAMILY_LOG_CONCAVE:
        mu = campaign.rational_log_concave_family(name, TE_HALF_WIDTH)
        _FAMILY_LOG_CONCAVE[name] = masses_log_concave(list(mu.masses))
    return _FAMILY_LOG_CONCAVE[name]


def masses_log_concave(masses: list) -> bool:
    """m(x-1) m(x+1) <= m(x)^2 on the window, exactly; zeros inside fail."""
    return all(masses[i - 1] * masses[i + 1] <= masses[i] ** 2 for i in range(1, len(masses) - 1)) and all(
        m > 0 for m in masses
    )


def weights_concave(w) -> bool:
    """w(x-1) + w(x+1) <= 2 w(x) on the window, exactly."""
    return all(w[i - 1] + w[i + 1] <= 2 * w[i] for i in range(1, len(w) - 1))


# --- shared helpers for transport checks ----------------------------------------


def draw_pmf(rng: random.Random, lo: int, hi: int, width: int):
    """Integer weights in [1, RESOLUTION] on a random window of the given width inside [lo, hi]."""
    start = rng.randint(lo, hi - width + 1)
    return measures.from_weights(start, [rng.randint(1, RESOLUTION) for _ in range(width)])


def support(nu) -> list[tuple[int, Fraction]]:
    return [(nu.offset + i, m) for i, m in enumerate(nu.masses) if m > 0]


def m_lo(x: int, y: int) -> int:
    return (x + y) // 2


def m_hi(x: int, y: int) -> int:
    return (x + y + 1) // 2


def monotone_plan(nu0, nu1) -> list[tuple[int, int, Fraction]]:
    """North-west-corner plan of two pmfs; a feasible coupling."""
    s0, s1 = support(nu0), support(nu1)
    plan, i, j = [], 0, 0
    r0, r1 = s0[0][1], s1[0][1]
    while i < len(s0) and j < len(s1):
        take = min(r0, r1)
        plan.append((s0[i][0], s1[j][0], take))
        r0 -= take
        r1 -= take
        if r0 == 0:
            i += 1
            r0 = s0[i][1] if i < len(s0) else 0
        if r1 == 0:
            j += 1
            r1 = s1[j][1] if j < len(s1) else 0
    return plan


# --- te workload -----------------------------------------------------------------


#: log-weights w of the two ``check-te`` references, mu proportional to e^w on [-K, K]
LOG_WEIGHTS = {"geometric": lambda z: -abs(z), "gaussian": lambda z: -2 * z * z}


def closed_form_cost(kind: str, x: int, y: int) -> int:
    """c_mu(x, y) = w(m-) + w(m+) - w(x) - w(y), exact in integers."""
    w = LOG_WEIGHTS[kind]
    return w(m_lo(x, y)) + w(m_hi(x, y)) - w(x) - w(y)


def logweights_entropy(nu, kind: str) -> float:
    """H(nu | mu) for mu proportional to e^w on [-K, K], in floats."""
    w = LOG_WEIGHTS[kind]
    window = range(-TE_HALF_WIDTH, TE_HALF_WIDTH + 1)
    top = max(w(z) for z in window)
    log_z = top + math.log(sum(math.exp(w(z) - top) for z in window))
    return sum(float(m) * (math.log(m.numerator) - math.log(m.denominator) - w(x) + log_z) for x, m in support(nu))


def check_te_result(kind: str, nu0, nu1, result) -> str | None:
    if not result.holds:
        return f"transport-entropy check failed on valid input: T={result.lhs} H+H={result.rhs}"
    rhs = logweights_entropy(nu0, kind) + logweights_entropy(nu1, kind)
    if abs(result.rhs - rhs) > 1e-9 * (1 + abs(rhs)):
        return f"entropy side {result.rhs} differs from the benchmark's {rhs}"
    # any coupling bounds the optimum from above; c_mu >= 0 bounds it from below
    upper = sum(closed_form_cost(kind, x, y) * p for x, y, p in monotone_plan(nu0, nu1))
    if not -SLACK <= result.lhs <= float(upper) + 1e-9 * (1 + float(upper)):
        return f"transport cost {result.lhs} outside [0, {float(upper)}] (monotone-plan cost)"
    if result.lhs > result.rhs + SLACK:
        return f"T={result.lhs} > H+H={result.rhs}"
    return None


class TeWorkload:
    """Three campaign ``te`` trials, then one ``check-te``-style op, repeating.

    The check-te ops cycle through every (reference, width0, width1) with
    widths up to 8, in seeded order.
    """

    name = "te"
    period = 4
    CHECK_TE = tuple((kind, w0, w1) for kind in ("geometric", "gaussian") for w0 in range(1, 9) for w1 in range(1, 9))

    def __init__(self):
        self.references = {
            "geometric": transport.geometric_weights(TE_HALF_WIDTH),
            "gaussian": transport.gaussian_weights(TE_HALF_WIDTH),
        }
        self.reference_log_concave = {kind: weights_concave(mu.weights) for kind, mu in self.references.items()}

    def op(self, seed: int, index: int) -> Op:
        if index % self.period != self.period - 1:
            return campaign_op(self.name, seed, index, "te")
        rng = op_rng(self.name, seed, index)
        kind, w0, w1 = stratified(self.CHECK_TE, f"bench:{self.name}:{seed}", index // self.period)
        mu = self.references[kind]
        nu0 = draw_pmf(rng, -TE_HALF_WIDTH, TE_HALF_WIDTH, w0)
        nu1 = draw_pmf(rng, -TE_HALF_WIDTH, TE_HALF_WIDTH, w1)

        def call():
            return transport.transport_entropy_check(mu, nu0, nu1)

        return Op(
            index,
            "te-check",
            digest("te-check", kind, nu0, nu1),
            call,
            lambda result: check_te_result(kind, nu0, nu1, result),
            size=len(support(nu0)) * len(support(nu1)),
            log_concave=self.reference_log_concave[kind],
        )

    def warmup(self) -> list[Op]:
        return [self.op(0, index) for index in range(self.period)]


# --- midpoint workload -------------------------------------------------------------


class MidpointWorkload:
    """Campaign trials rotating over the four Fraction-bound midpoint checks."""

    name = "midpoint"
    kinds = ("leq1", "displacement", "card", "transport-lemma")

    def op(self, seed: int, index: int) -> Op:
        return campaign_op(self.name, seed, index, self.kinds[index % len(self.kinds)])

    def warmup(self) -> list[Op]:
        return [self.op(0, index) for index in range(len(self.kinds))]


# --- ot-general workload -------------------------------------------------------------


def certify_ot(cost_of, exact_costs: bool, nu0, nu1, result) -> str | None:
    """Primal-dual optimality certificate of an ``ot_cost(..., want_duals=True)`` result.

    The plan, its marginals and its objective are exact rationals.  The duals
    come back as floats, so dual feasibility and the duality gap are checked
    to 1e-9 relative to the largest cost.
    """
    costs = {(x, y): cost_of(x, y) for x in nu0.window() for y in nu1.window()}
    scale = 1 + max(abs(float(c)) for c in costs.values())
    tol = 1e-9 * scale
    rows: dict[int, Fraction] = {}
    cols: dict[int, Fraction] = {}
    primal = Fraction(0)
    for x, y, p in result.plan.atoms:
        if p <= 0:
            return f"plan atom ({x},{y}) has mass {p}"
        rows[x] = rows.get(x, 0) + p
        cols[y] = cols.get(y, 0) + p
        primal += costs[(x, y)] * p
    if rows != dict(support(nu0)) or cols != dict(support(nu1)):
        return "plan marginals differ from the inputs"
    if exact_costs:
        if primal != result.cost_exact:
            return f"reported cost {result.cost_exact} != plan cost {primal}"
    elif abs(primal - result.cost_exact) > 1e-12 * scale:
        return f"reported cost {float(result.cost_exact)} != plan cost {float(primal)}"
    if abs(result.cost - float(result.cost_exact)) > 1e-12 * scale:
        return f"float cost {result.cost} != exact cost {float(result.cost_exact)}"
    u, v = result.dual_u, result.dual_v
    if u is None or v is None or u.offset != nu0.offset or v.offset != nu1.offset:
        return "duals missing or on the wrong windows"
    if len(u.values) != len(nu0.masses) or len(v.values) != len(nu1.masses):
        return "duals missing or on the wrong windows"
    for (x, y), c in costs.items():
        excess = u.values[x - u.offset] + v.values[y - v.offset] - float(c)
        if excess > tol:
            return f"infeasible duals: u({x})+v({y}) exceeds c by {excess}"
    dual = sum(float(m) * u.values[x - u.offset] for x, m in support(nu0))
    dual += sum(float(m) * v.values[y - v.offset] for y, m in support(nu1))
    if abs(dual - float(primal)) > tol:
        return f"duality gap {float(primal) - dual} between plan cost and duals"
    return None


class OtGeneralWorkload:
    """Exact OT with duals under costs with no Monge structure: pmf references or tables.

    Ops alternate between the two cost kinds; each kind cycles through every
    pair of support widths up to 12, in seeded order.
    """

    name = "ot-general"
    period = 2
    half_width = 12
    WIDTHS = tuple((w0, w1) for w0 in range(1, 13) for w1 in range(1, 13))

    def op(self, seed: int, index: int) -> Op:
        rng = op_rng(self.name, seed, index)
        k = self.half_width
        w0, w1 = stratified(self.WIDTHS, f"bench:{self.name}:{seed}:{index % self.period}", index // self.period)
        nu0 = draw_pmf(rng, -k, k, w0)
        nu1 = draw_pmf(rng, -k, k, w1)
        cells = len(support(nu0)) * len(support(nu1))
        if index % self.period == 0:
            while True:
                weights = [rng.randint(1, RESOLUTION) for _ in range(2 * k + 1)]
                if not masses_log_concave(weights):
                    break
            mu = measures.from_weights(-k, weights)

            def cost_of(x, y):
                ratio = Fraction(weights[m_lo(x, y) + k] * weights[m_hi(x, y) + k], weights[x + k] * weights[y + k])
                return Fraction(math.log(ratio.numerator) - math.log(ratio.denominator))

            def call():
                return transport.ot_cost(transport.curvature_cost(mu), nu0, nu1, want_duals=True)

            return Op(
                index,
                "ot-pmf",
                digest("ot-pmf", mu, nu0, nu1),
                call,
                lambda result: certify_ot(cost_of, False, nu0, nu1, result),
                size=cells,
                log_concave=False,
            )
        table = {
            (x, y): Fraction(rng.randint(0, 100), rng.randint(1, 12)) for x in nu0.window() for y in nu1.window()
        }
        text = "".join(f"{x} {y} {c}\n" for (x, y), c in table.items())
        cost = formats.parse_cost_table_text(text)

        def call():
            return transport.ot_cost(cost, nu0, nu1, want_duals=True)

        return Op(
            index,
            "ot-table",
            digest("ot-table", text, nu0, nu1),
            call,
            lambda result: certify_ot(lambda x, y: table[(x, y)], True, nu0, nu1, result),
            size=cells,
        )

    def warmup(self) -> list[Op]:
        return [self.op(0, index) for index in range(self.period)]


# --- cube-limits workload ------------------------------------------------------------


def hypothesis_quadruple(rng: random.Random, n: int):
    """(f, g, h, k) = (a u, b u, c u, d u) with u log-supermodular and cd >= ab.

    u(x) = prod_i r_i^{x_i} * s^{C(|x|, 2)}: the product is modular and
    C(|x|,2) is convex in |x|, while |x^y| + |xvy| = |x| + |y| and the pair
    (|x^y|, |xvy|) majorizes (|x|, |y|); so u(x)u(y) <= u(x^y)u(xvy).
    """
    ratios = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    s = rng.randint(1, 3)
    values = []
    for index in range(2**n):
        bits = [(index >> i) & 1 for i in range(n)]
        weight = Fraction(s) ** math.comb(sum(bits), 2)
        for r, b in zip(ratios, bits):
            if b:
                weight *= r
        values.append(weight)
    a, b, c = (Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(3))
    d = a * b / c * Fraction(rng.randint(8, 12), 8)
    return tuple(fourfunctions.CubeFn(n, tuple(scale * v for v in values)) for scale in (a, b, c, d))


def check_pl_rows(n: int, rows) -> str | None:
    if len(rows) != 1 or rows[0].n != n:
        return "expected one pl row for the requested n"
    row = rows[0]
    if not (row.holds and math.isfinite(row.lhs) and 0 <= row.lhs <= row.rhs):
        return f"discrete PL product inequality failed: lhs={row.lhs} rhs={row.rhs}"
    if abs(row.ratio - row.lhs / row.rhs) > 1e-12:
        return f"ratio {row.ratio} != lhs/rhs"
    return None


def check_clt_rows(n: int, rows) -> str | None:
    if len(rows) != 1 or rows[0].n != n:
        return "expected one clt row for the requested n"
    row = rows[0]
    if not (row.holds and 0 < row.lhs <= row.rhs * (1 + 1e-12)):
        return f"binomial product inequality failed: lhs={row.lhs} rhs={row.rhs}"
    if not min(row.target_f, row.target_g, row.target_h) > 0:
        return "non-positive Gaussian target"
    return None


def check_disp_rows(n: int, rows) -> str | None:
    if len(rows) != 1 or rows[0].n != n:
        return "expected one disp row for the requested n"
    row = rows[0]
    if not (row.holds and row.gap >= -1e-10 and 0 < row.ratio_sum <= 1):
        return f"rescaled displacement failed: gap={row.gap} P={row.ratio_sum}"
    if row.jensen0_ok is False or row.jensen1_ok is False:
        return "rounding increased a relative entropy"
    return None


class CubeLimitsWorkload:
    """4FT campaign trials, exhaustive 4FT hypothesis sweeps and limit-experiment rows.

    The schedule repeats every ``len(SCHEDULE)`` ops; its mix gives the
    fourfunctions and limits layers each at least a quarter of the time, and
    puts the median op among the n=5 sweeps.  Each kind's sizes (and demos)
    are stratified, see ``stratified``.
    """

    name = "cube-limits"
    SCHEDULE = ("4ft", "sweep", "pl", "4ft", "sweep", "clt", "4ft", "sweep", "disp", "4ft", "sweep", "sweep")
    SWEEP_N = (5, 5, 5, 6, 6)
    PL = tuple((demo, n) for demo in sorted(limits.PL_DEMOS) for n in (64, 128, 256, 512, 1024, 2048, 4096))
    CLT = tuple((demo, n) for demo in sorted(limits.CLT_DEMOS) for n in (100, 300, 1000, 3000, 10000))
    DISP_N = (64, 128, 256, 512, 1024, 2048)

    def option(self, seed: int, index: int, kind: str, options: tuple, smallest: bool):
        if smallest:
            return min(options)
        period = len(self.SCHEDULE)
        slots = [i for i, k in enumerate(self.SCHEDULE) if k == kind]
        rank = (index // period) * len(slots) + slots.index(index % period)
        return stratified(options, f"bench:{self.name}:{seed}:{kind}", rank)

    def op(self, seed: int, index: int, smallest: bool = False) -> Op:
        kind = self.SCHEDULE[index % len(self.SCHEDULE)]
        if kind == "4ft":
            return campaign_op(self.name, seed, index, "4ft")
        rng = op_rng(self.name, seed, index)
        if kind == "sweep":
            n = self.option(seed, index, kind, self.SWEEP_N, smallest)
            quad = hypothesis_quadruple(rng, n)

            def call():
                return fourfunctions.check_4ft_hypothesis(*quad)

            def check(result):
                if not result.ok or result.witness is not None:
                    return f"4FT hypothesis rejected on a valid quadruple: {result.witness}"
                return None

            return Op(index, "sweep", digest("sweep", *(q.values for q in quad)), call, check, size=n)
        if kind == "pl":
            demo, n = self.option(seed, index, kind, self.PL, smallest)
            *fns, half_width = limits.PL_DEMOS[demo]

            def call():
                return limits.pl_limit_experiment(*fns, half_width, [n])

            return Op(index, "pl", digest("pl", demo, n), call, lambda rows: check_pl_rows(n, rows), size=n)
        if kind == "clt":
            demo, n = self.option(seed, index, kind, self.CLT, smallest)
            fns = limits.CLT_DEMOS[demo]

            def call():
                return limits.clt_experiment(*fns, [n])

            return Op(index, "clt", digest("clt", demo, n), call, lambda rows: check_clt_rows(n, rows), size=n)
        n = self.option(seed, index, kind, self.DISP_N, smallest)
        # unit-width intervals at seeded sixteenths: n cells each, so ~2k-atom couplings at n=2048
        starts = [rng.randint(-16, 0) for _ in range(2)]
        dists = [limits.UniformInterval(Fraction(a, 16), Fraction(a + 16, 16)) for a in starts]

        def call():
            return limits.rescaled_displacement_experiment(*dists, 1, [n])

        return Op(index, "disp", digest("disp", starts, n), call, lambda rows: check_disp_rows(n, rows), size=n)

    def warmup(self) -> list[Op]:
        """One op of each kind at its smallest size, so set-up does not depend on the seed."""
        firsts = {}
        for index, kind in enumerate(self.SCHEDULE):
            firsts.setdefault(kind, index)
        return [self.op(0, index, smallest=True) for index in firsts.values()]


WORKLOADS = {w.name: w for w in (MidpointWorkload, TeWorkload, OtGeneralWorkload, CubeLimitsWorkload)}
