"""Traced run: per-layer self time and counts, measured from outside the program.

``Tracer.installed`` rebinds each public function listed in ``LAYERS`` in its
defining module and in every discretepl module that imported it (for example
``campaign.transport_entropy_check`` and ``displacement.monotone_coupling``),
and methods on their class.  Each wrapper records a span (name, start, end,
parent, op id) in memory; ``write`` saves the spans when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  The benchmark opens one root span ``op`` per op, so every op's traced
time is split exactly between the layers and the root's own remainder.
Per-atom helpers (``m_minus``, ``Pmf.mass``, ``log_of_fraction``) are not
wrapped: their cost would drown the layers they serve.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

#: layer metric stem -> public functions ("module:attr" or "module:Class.method")
LAYERS = {
    "measures.pmf_build": ("measures:from_weights", "measures:pmf"),
    "measures.entropy": ("measures:counting_entropy", "measures:relative_entropy"),
    "coupling.monotone": ("coupling:monotone_coupling",),
    "coupling.pushforward": ("coupling:pushforward",),
    "coupling.verify": ("coupling:check_marginals", "coupling:is_staircase"),
    "coupling.binary": ("coupling:binary_lattice_couplings",),
    "displacement.ratio_sum": ("displacement:pair_ratio_sum",),
    "displacement.gap": ("displacement:displacement_gap",),
    "displacement.level_sets": ("displacement:level_sets",),
    "transport.cost_eval": ("transport:cost_mu",),
    "transport.ot": ("transport:ot_cost",),
    "transport.te_check": ("transport:transport_entropy_check",),
    "fourfunctions.generate": ("fourfunctions:random_hypothesis_quadruple",),
    "fourfunctions.hypothesis": ("fourfunctions:check_4ft_hypothesis",),
    "limits.grid": ("limits:discretize_quadruple", "limits:grid_hypothesis_witness"),
    "limits.quadrature": ("limits:interval_integral", "limits:gaussian_exp_integral"),
    "limits.binomial": ("limits:binomial_weights",),
    "limits.lattice": ("limits:UniformInterval.cell_masses", "limits:PointMass.cell_masses"),
    "limits.experiment": (
        "limits:pl_limit_experiment",
        "limits:clt_experiment",
        "limits:rescaled_displacement_experiment",
    ),
    "campaign.self": ("campaign:run_campaign",),
    "campaign.json": ("campaign:CampaignReport.to_json",),
}

ROOT = "op"


def _support_size(nu) -> int:
    return sum(1 for m in nu.masses if m)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_pmf(tracer, parent, args, kwargs, result):
    if parent != "measures.pmf_build":  # from_weights builds through pmf: count the outer call
        tracer.counts["measures.pmf_builds"] += 1
        tracer.counts["measures.pmf_atoms"] += len(result.masses)


def _count_monotone(tracer, parent, args, kwargs, result):
    tracer.counts["coupling.atoms"] += len(result.atoms)
    tracer.note_size(_support_size(result.marginal0) + _support_size(result.marginal1))


def _count_binary(tracer, parent, args, kwargs, result):
    tracer.note_size(sum(_support_size(_arg(args, kwargs, i, name)) for i, name in ((0, "nu1"), (1, "nu2"))))


def _count_levels(tracer, parent, args, kwargs, result):
    tracer.counts["displacement.levels"] += len(result)


def _count_cost(tracer, parent, args, kwargs, result):
    tracer.counts["transport.cost_evals"] += 1


def _count_cells(tracer, parent, args, kwargs, result):
    cells = _support_size(_arg(args, kwargs, 1, "nu0")) * _support_size(_arg(args, kwargs, 2, "nu1"))
    tracer.counts["transport.support_cells"] += cells
    tracer.note_size(cells)


def _count_cube_pairs(tracer, parent, args, kwargs, result):
    size = 2 ** _arg(args, kwargs, 0, "f").n
    if result.ok:
        tracer.counts["fourfunctions.pairs"] += size * size
    else:
        xs, ys = result.witness[0], result.witness[1]
        x = sum(b << i for i, b in enumerate(xs))
        y = sum(b << i for i, b in enumerate(ys))
        tracer.counts["fourfunctions.pairs"] += x * size + y + 1


def _count_grid_pairs(tracer, parent, args, kwargs, result):
    side = len(_arg(args, kwargs, 0, "f").values)
    sample = args[4] if len(args) > 4 else kwargs.get("sample")
    if sample is None:
        tracer.counts["limits.grid_pairs"] += side * side if result is None else result[0] * side + result[1] + 1
    else:
        tracer.counts["limits.grid_pairs"] += 3 * side + sample


COUNTERS = {
    "measures:from_weights": _count_pmf,
    "measures:pmf": _count_pmf,
    "coupling:monotone_coupling": _count_monotone,
    "coupling:binary_lattice_couplings": _count_binary,
    "displacement:level_sets": _count_levels,
    "transport:cost_mu": _count_cost,
    "transport:ot_cost": _count_cells,
    "fourfunctions:check_4ft_hypothesis": _count_cube_pairs,
    "limits:grid_hypothesis_witness": _count_grid_pairs,
}

#: every count the tracer reports, so a count that stays zero is still emitted
COUNTS = (
    "measures.pmf_builds",
    "measures.pmf_atoms",
    "coupling.atoms",
    "displacement.levels",
    "transport.cost_evals",
    "transport.support_cells",
    "fourfunctions.pairs",
    "limits.grid_pairs",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent span index, op id)
        self.self_ns: Counter = Counter()  # scaled to reference speed
        self.op_ns = 0.0  # summed duration of the root spans, scaled
        self.counts: Counter = Counter()
        self.op_sizes: dict[int, int] = {}  # op id -> first support size or cell count seen
        self._stack: list = []  # open spans: [name, span index, child ns]
        self._op = None
        self._op_start = 0
        self._factor = 1.0
        self._bound: list | None = None  # (holder, attribute, original, wrapper), built on first use

    # -- op boundaries (the benchmark's root span) --

    def begin_op(self, op_id: int, factor: float = 1.0) -> None:
        """Open the root span of an op; its self times are scaled by `factor` (see run.SpeedGauge)."""
        self._op = op_id
        self._factor = factor
        self._stack.append([ROOT, len(self.spans), 0])
        self.spans.append(None)
        self._op_start = perf_counter_ns()

    def end_op(self) -> None:
        end = perf_counter_ns()
        name, index, child = self._stack.pop()
        self.self_ns[ROOT] += (end - self._op_start - child) * self._factor
        self.op_ns += (end - self._op_start) * self._factor
        self.spans[index] = (ROOT, self._op_start, end, None, self._op)
        self._op = None

    def note_size(self, size: int) -> None:
        self.op_sizes.setdefault(self._op, size)

    # -- wrapping --

    def _wrap(self, name: str, fn, counter):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside an op: the benchmark checking an output
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, len(spans), 0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(self, parent[0], args, kwargs, result)
            finally:
                end = perf_counter_ns()
                stack.pop()
                parent[2] += end - start
                self.self_ns[name] += (end - start - frame[2]) * self._factor
                spans[frame[1]] = (name, start, end, parent[1], self._op)
            return result

        return traced

    def _bindings(self) -> list:
        """(holder, attribute, original, wrapper) for every rebinding, computed once."""
        modules = [m for key, m in sys.modules.items() if key == "discretepl" or key.startswith("discretepl.")]
        bindings = []
        for stem, targets in LAYERS.items():
            for target in targets:
                module_name, _, attr = target.partition(":")
                module = importlib.import_module(f"discretepl.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    bindings.append((owner, method, original, self._wrap(stem, original, COUNTERS.get(target))))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(stem, original, COUNTERS.get(target))
                bindings += [(m, attr, original, wrapper) for m in modules if getattr(m, attr, None) is original]
        return bindings

    @contextlib.contextmanager
    def installed(self):
        """Rebind the wrappers for the duration of the block."""
        if self._bound is None:
            self._bound = self._bindings()
        for holder, attr, _, wrapper in self._bound:
            setattr(holder, attr, wrapper)
        try:
            yield self
        finally:
            for holder, attr, original, _ in self._bound:
                setattr(holder, attr, original)

    # -- results --

    def per_op(self, ops: int) -> dict[str, float]:
        """Self ms and counts per op, for every layer and count."""
        out = {f"{stem}_ms": self.self_ns[stem] / ops / 1e6 for stem in LAYERS}
        out.update({name: self.counts[name] / ops for name in COUNTS})
        return out

    def write(self, path) -> None:
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))
