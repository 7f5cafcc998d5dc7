"""Command-line surface.

Subcommands: check-displacement, check-4ft, transport-cost, check-te,
limit-exp, campaign.  Exit codes: 0 all checks pass, 1 an inequality check
failed (an implementation-bug signal, since the inequalities are theorems)
or a user-supplied instance violates a hypothesis, 2 usage or parse errors,
including a numeric option outside its bounds (0 <= --K <= 100000;
1 <= --trials <= 1000000; --width >= 1; 1 <= --resolution <= 10^9, and
>= 2 for campaign; 1 <= --n <= 16384; finite --lambda > 0;
1 <= --support-width <= 20000), no reference or more than one (--mu,
--mu-kind and, for transport-cost, --cost-table), an option that would be
ignored (--K without --mu-kind, --lambda without --kind clt, --demo with
--spec, a spec key that takes no effect, such as N for clt), a path that
cannot be read or written, more than 2500 support pairs in one exact
transport solve, a NaN grid value of a pl or clt function, a negative
sample of a pl function, and a pl or clt target whose quadrature fails,
3 an internal error, 141 (128 + SIGPIPE) when standard output was closed
early by its reader.
`--json` switches to machine output everywhere.

Each `_cmd_*` maps the options and parsed input files, with no I/O, to
(JSON payload, text lines, ok, CSV text or None); `main` alone reads the
files and opens `--csv`, both before any work, prints, and exits 0 if ok.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import io as formats
from .campaign import CHECKS, MAX_RESOLUTION, MAX_TRIALS, CampaignConfig, run_campaign, run_trials, te_trial
from .displacement import chain_diagnostics, displacement_gap, level_sets
from .errors import ConfigError, ConvexityWitnessFailed, DiscretePLError, HypothesisFailedOnGrid
from .fourfunctions import check_4ft_additive, check_4ft_conclusion, check_4ft_hypothesis
from .limits import (
    CLT_DEMOS,
    DISP_DEMOS,
    PL_DEMOS,
    clt_experiment,
    pl_limit_experiment,
    rescaled_displacement_experiment,
)
from .measures import INEQ_SLACK
from .transport import curvature_cost, gaussian_weights, geometric_weights, ot_cost


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


#: at --K 100000 building mu's 2K+1 int weights takes 25 ms, a first check-te trial walks them in
#: 50-70 ms, and a later one takes 0.07-0.12 ms (Python 3.11, 2 cores)
MAX_K = 100_000
#: --mu-kind: name -> log-weights on [-K, K]; subcommand -> --K when it is not given
_MU_KINDS = {"geometric": geometric_weights, "gaussian": gaussian_weights}
_DEFAULT_K = {"transport-cost": 50, "check-te": 12}


#: subcommand -> option -> inclusive (low, high) bounds
_BOUNDS = {
    "transport-cost": {"K": (0, MAX_K)},
    "check-te": {"K": (0, MAX_K), "trials": (1, MAX_TRIALS), "width": (1, math.inf), "resolution": (1, MAX_RESOLUTION)},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="discretepl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-displacement", help="exact ratio sum and entropy gap for one pair of pmfs")
    p.add_argument("--nu0", required=True)
    p.add_argument("--nu1", required=True)
    p.add_argument("--dump-coupling", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-4ft", help="four-functions hypothesis and conclusion on the cube")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--additive", action="store_true", help="treat the files as exponents")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("transport-cost", help="exact optimal transport cost under a curvature cost")
    p.add_argument("--mu")
    p.add_argument("--mu-kind", choices=_MU_KINDS)
    p.add_argument("--K", type=int, help="truncation half-width for --mu-kind (default 50)")
    p.add_argument("--cost-table", help="explicit cost table file instead of a curvature cost")
    p.add_argument("--nu0", required=True)
    p.add_argument("--nu1", required=True)
    p.add_argument("--duals", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-te", help="random transport-entropy checks under a reference measure")
    p.add_argument("--mu")
    p.add_argument("--mu-kind", choices=_MU_KINDS)
    p.add_argument("--K", type=int, help="truncation half-width for --mu-kind (default 12)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=8, help="max support width of the random pmfs")
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("limit-exp", help="discrete-to-continuous experiments")
    p.add_argument("--kind", choices=("pl", "clt", "disp"), required=True)
    p.add_argument("--demo", help=f"pl: {','.join(PL_DEMOS)}; clt: {','.join(CLT_DEMOS)}; disp: {','.join(DISP_DEMOS)}")
    p.add_argument("--spec", help="JSON file with expression strings (see README)")
    p.add_argument("--n", type=_int_list, default=[64, 256, 1024, 4096])
    p.add_argument("--lambda", dest="lam", type=float, help="argument rescaling for clt (default 1.0)")
    p.add_argument("--csv", help="write rows to this CSV file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("campaign", help="seeded random campaign over one inequality suite")
    p.add_argument("--check", choices=CHECKS, default="leq1")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--support-width", type=int, default=40)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", help="write per-trial records to this CSV file")

    return parser


def _cmd_check_displacement(args, files) -> tuple:
    report = displacement_gap(files["nu0"], files["nu1"])
    chains = chain_diagnostics(report.pair)
    cards = all(ls.card_holds for ls in level_sets(report.pair.pi))
    ok = report.holds and cards and all(c.bound_holds for c in chains)
    payload = {
        "P": str(report.ratio_sum),
        "gap": report.gap,
        "entropies": {
            "nu0": report.entropy0,
            "nu1": report.entropy1,
            "nu_minus": report.entropy_minus,
            "nu_plus": report.entropy_plus,
        },
        "jensen_certificate": report.jensen_certificate,
        "levels": [
            {
                "levels": c.levels,
                "isolated": c.isolated,
                "alphas": {str(b): str(a) for b, a in c.alphas.items()},
                "bound_holds": c.bound_holds,
            }
            for c in chains
        ],
        "coupling": [[x, y, str(p)] for x, y, p in report.pair.pi.atoms] if args.dump_coupling else None,
        "ok": ok,
    }
    lines = [
        f"P = {report.ratio_sum} (<= 1: {report.ratio_sum <= 1})",
        f"entropy gap = {report.gap:.12g} (>= 0 up to {INEQ_SLACK:g}: {report.gap >= -INEQ_SLACK})",
    ]
    for c in chains:
        kind = "isolated" if c.isolated else "chain"
        lines.append(f"  {kind} levels={list(c.levels)} mass={c.mass} contribution={c.ratio_contribution} ok={c.bound_holds}")
    if args.dump_coupling:
        lines += formats.emit_coupling(report.pair.pi).splitlines()
    return payload, lines, ok, None


def _cmd_check_4ft(args, files) -> tuple:
    fns = [files[name] for name in "fghk"]
    if args.additive:
        outcome = check_4ft_additive(*fns)
        ok = outcome.ok
        payload = {
            "hypothesis_ok": outcome.hypothesis_ok,
            "witness": outcome.hyp_witness,
            "lhs_log": outcome.lhs,
            "rhs_log": outcome.rhs,
            "conclusion_ok": outcome.conclusion_ok,
        }
    else:
        hyp = check_4ft_hypothesis(*fns)
        lhs, rhs, concl = check_4ft_conclusion(*fns)
        ok = hyp.ok and concl
        payload = {
            "hypothesis_ok": hyp.ok,
            "witness": [str(w) for w in hyp.witness] if hyp.witness else None,
            "lhs": str(lhs),
            "rhs": str(rhs),
            "conclusion_ok": concl,
        }
    return payload, [f"{key}: {value}" for key, value in payload.items()], ok, None


def _reference_measure(args, files):
    return files["mu"] if args.mu else _MU_KINDS[args.mu_kind](_DEFAULT_K[args.command] if args.K is None else args.K)


def _cmd_transport_cost(args, files) -> tuple:
    cost = files["cost_table"] if args.cost_table else curvature_cost(_reference_measure(args, files))
    result = ot_cost(cost, files["nu0"], files["nu1"], want_duals=args.duals)
    payload = {
        "cost": result.cost,
        "cost_exact": str(result.cost_exact),
        "plan": [[x, y, str(p)] for x, y, p in result.plan.atoms],
        "dual_u": list(result.dual_u.values) if result.dual_u else None,
        "dual_v": list(result.dual_v.values) if result.dual_v else None,
    }
    lines = [f"transport cost = {result.cost:.12g} (exact {result.cost_exact})"]
    lines += [f"  {x} -> {y}: {p}" for x, y, p in result.plan.atoms]
    if result.dual_u is not None:
        lines.append(f"dual u: {[round(v, 9) for v in result.dual_u.values]}")
        lines.append(f"dual v: {[round(v, 9) for v in result.dual_v.values]}")
    return payload, lines, True, None


def _cmd_check_te(args, files) -> tuple:
    mu, failures = _reference_measure(args, files), []

    def keep_failure(index, inputs, passed, values, witness):
        if not passed:
            failures.append(dict(index=index, nu0=str(inputs[1]), nu1=str(inputs[2]), lhs=values["lhs"], rhs=values["rhs"]))

    trial_args = (mu, args.mu or args.mu_kind, args.width, args.resolution)
    worst = run_trials("te", args.seed, args.trials, keep_failure, te_trial, *trial_args)["min_slack"]["slack"]
    lines = [f"{args.trials - len(failures)}/{args.trials} transport-entropy checks passed; min slack {worst:.6g}"]
    lines += [f"  FAILED {f}" for f in failures]
    return {"trials": args.trials, "failures": failures, "min_slack": worst}, lines, not failures, None


_SPEC_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp, ast.UnaryOp, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.UAdd, ast.USub,
)
#: public math names; the functions return floats, so integer-only ones such as
#: factorial reject their arguments instead of starting unbounded work
_SPEC_NAMES = {
    name: (lambda *args, fn=value: float(fn(*args))) if callable(value) else value
    for name, value in vars(math).items()
    if not name.startswith("_")
}


def _load_expr(expr: str):
    """Float function of x from numbers, x, math names, + - * / ** % and calls of math functions."""
    try:  # RecursionError and MemoryError: the parser or the compiler gave up on deep nesting
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if (
                not isinstance(node, _SPEC_NODES)
                or isinstance(node, ast.Constant) and type(node.value) not in (int, float)
                or isinstance(node, ast.Name) and node.id != "x" and node.id not in _SPEC_NAMES
                or isinstance(node, ast.Call) and (node.keywords or not isinstance(node.func, ast.Name))
            ):
                raise ConfigError(f"unsupported term {ast.unparse(node)!r} in expression {expr!r}")
            if isinstance(node, ast.Constant):
                node.value = float(node.value)  # float powers overflow where int powers grow without bound
        code = compile(tree, "<spec>", "eval")
    except (SyntaxError, RecursionError, MemoryError):
        raise ConfigError(f"bad or too deeply nested expression {expr[:80]!r}") from None
    names = {"__builtins__": {}, **_SPEC_NAMES}

    def fn(x: float) -> float:
        try:
            return float(eval(code, names, {"x": x}))  # noqa: S307 - nodes and names are whitelisted above
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"expression {expr!r} fails at x = {x}: {exc}") from None

    return fn


_SPEC_KEYS = {"pl": ("F", "G", "H", "K", "N"), "clt": ("f", "g", "h")}
_DEMOS = {"pl": PL_DEMOS, "clt": CLT_DEMOS, "disp": DISP_DEMOS}


def _parse_spec(text: str, kind: str) -> tuple:
    """The expression functions of a pl or clt spec, then N for pl; a key the kind does not read is an error."""
    try:
        spec = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past the int-digit limit, or too deep nesting
        raise ConfigError(f"spec is not JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ConfigError("spec must be a JSON object")
    keys = _SPEC_KEYS[kind]
    if unread := [key for key in spec if key not in keys]:
        raise ConfigError(f"spec key {unread[0]!r} takes no effect for --kind {kind} (keys: {', '.join(keys)})")
    names = [key for key in keys if key != "N"]
    for key in names:
        if not isinstance(spec.get(key), str):
            raise ConfigError(f"spec needs an expression string under key {key!r}")
    try:
        half_width = float(spec.get("N", 6.0))
    except (TypeError, ValueError):
        raise ConfigError("spec N must be a number") from None
    if kind == "pl" and not 0 < half_width < math.inf:  # false for NaN too
        raise ConfigError(f"spec N must be finite and > 0, not {half_width}")
    fns = tuple(_load_expr(spec[key]) for key in names)
    return (*fns, half_width) if kind == "pl" else fns


def _cmd_limit_exp(args, files) -> tuple:
    demos = _DEMOS[args.kind]
    inputs = files["spec"] if args.spec else demos[args.demo or next(iter(demos))]
    if args.kind == "pl":
        rows = pl_limit_experiment(*inputs, args.n)
    elif args.kind == "clt":
        rows = clt_experiment(*inputs, args.n, lam=1.0 if args.lam is None else args.lam)
    else:
        rows = rescaled_displacement_experiment(*inputs, args.n)
    dicts = [{k: str(v) if isinstance(v, Fraction) else v for k, v in vars(row).items()} for row in rows]
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=list(dicts[0].keys()))
    writer.writeheader()
    writer.writerows(dicts)
    lines = [" ".join(f"{k}={v}" for k, v in d.items()) for d in dicts]
    return dicts, lines, all(row.holds for row in rows), table.getvalue()


def _cmd_campaign(args, files) -> tuple:
    report = run_campaign(args.config)
    lines = [f"{report.passes}/{len(report.records)} {args.check} trials passed (seed {args.seed})"]
    lines += [f"  {key}: {value}" for key, value in report.extremes.items()]
    lines += [f"  FAILED trial {record.index}: {record.witness}" for record in report.records if not record.passed]
    return report.payload(), lines, report.failures == 0, report.to_csv() if args.csv else None


_COMMANDS = {
    "check-displacement": _cmd_check_displacement,
    "check-4ft": _cmd_check_4ft,
    "transport-cost": _cmd_transport_cost,
    "check-te": _cmd_check_te,
    "limit-exp": _cmd_limit_exp,
    "campaign": _cmd_campaign,
}


def _check_options(args) -> None:
    """Reject a bad option before any file is read or opened; a campaign's options become `args.config`."""
    for name, (low, high) in _BOUNDS.get(args.command, {}).items():
        if (value := getattr(args, name)) is not None and not low <= value <= high:  # None: the default applies
            raise ConfigError(f"--{name} must be >= {low}" + (f" and <= {high}" if high < math.inf else ""))
    if args.command in ("transport-cost", "check-te"):
        references = {"--mu": args.mu, "--mu-kind": args.mu_kind}
        if args.command == "transport-cost":
            references["--cost-table"] = args.cost_table
        given = [option for option, value in references.items() if value]
        if not given:
            raise ConfigError("need --mu or --mu-kind")
        if len(given) > 1:
            raise ConfigError(f"{' and '.join(given)} exclude each other; give one of {', '.join(references)}")
        if args.K is not None and not args.mu_kind:
            raise ConfigError(f"--K applies only to --mu-kind, not to {given[0]}")
    # the 4FT sweep screens its 4^dim pairs in float64 blocks: a whole check-4ft run at dim 12 takes 0.35 s on
    # floats, 0.45 s on small-denominator rationals and 0.65 s on 4,096 distinct 20-bit denominators; when every
    # pair is an exact tie, each is compared exactly: 1.3 s on small ints, 140 s on rationals in a unit of
    # hundreds of bits (Python 3.11, numpy 2.4, 2 cores)
    if args.command == "check-4ft" and not 1 <= args.dim <= 12:
        raise ConfigError("--dim must be in 1..12")
    if args.command == "limit-exp":
        # a pl row checks all (n+1)^2 pairs: 0.17-0.19 s at 16384, and the whole limit-exp run 0.3-0.45 s
        # with its imports and quadrature (Python 3.11, 2 cores)
        if not args.n or min(args.n) < 1 or max(args.n) > 16384:
            raise ConfigError("--n must list integers >= 1 and <= 16384")
        if args.lam is not None and args.kind != "clt":
            raise ConfigError(f"--lambda applies only to --kind clt, not to --kind {args.kind}")
        if args.lam is not None and not 0 < args.lam < math.inf:  # false for NaN too
            raise ConfigError("--lambda must be > 0 and finite")
        if args.spec and args.demo:
            raise ConfigError("--demo and --spec exclude each other")
        if args.spec and args.kind not in _SPEC_KEYS:
            raise ConfigError("--spec for disp experiments is not supported; use --demo")
        if args.demo and args.demo not in _DEMOS[args.kind]:
            raise ConfigError(f"unknown demo {args.demo!r}; choose from {list(_DEMOS[args.kind])}")
    if args.command == "campaign":
        args.config = CampaignConfig(args.seed, args.trials, args.support_width, args.resolution, args.check)


def _read_inputs(args) -> dict:
    """Option name -> its UTF-8 input file, parsed, for each file option given; an error names the file."""
    parsers = dict.fromkeys(("nu0", "nu1", "mu"), formats.parse_pmf_text)
    parsers.update(dict.fromkeys("fghk", lambda text: formats.parse_cubefn_text(text, args.dim)))
    parsers.update(cost_table=formats.parse_cost_table_text, spec=lambda text: _parse_spec(text, args.kind))
    files = {}
    for name, parse in parsers.items():
        if path := getattr(args, name, None):
            with open(path, encoding="utf-8") as fh:
                try:
                    files[name] = parse(fh.read())
                except (UnicodeDecodeError, DiscretePLError) as exc:
                    raise ConfigError(f"{path}: {exc}") from None
    return files


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        files = _read_inputs(args)  # before the lift below: an input token keeps the int-digit limit
        csv_path = getattr(args, "csv", None)
        with open(csv_path, "w", newline="", encoding="utf-8") if csv_path else contextlib.nullcontext() as csv_out:
            with formats.long_int_strings():
                payload, lines, ok, table = _COMMANDS[args.command](args, files)
                text = formats.dump_json(payload) if args.json else "\n".join(lines)
            if csv_out:
                csv_out.write(table)
        print(text)
        sys.stdout.flush()
        return 0 if ok else 1
    except BrokenPipeError:
        # the reader closed the pipe: send the rest to devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DiscretePLError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        # a failed hypothesis on valid input is a failed check, as in check-4ft
        return 1 if isinstance(exc, (HypothesisFailedOnGrid, ConvexityWitnessFailed)) else 2
    except Exception as exc:  # a fault of the program, never a failed inequality
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
