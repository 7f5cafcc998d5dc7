"""Byte-identity oracle: ``campaign --json --trials 200 --seed 1`` for all six checks.

``oracle.json`` holds the sha256 of each report exactly as the CLI prints it.
The ``te`` report is compared differently, because a faster transport plan may
move its floats by up to 1e-12: the report with every ``lhs``, ``rhs`` and
``slack`` value blanked must hash the same, and each of those values must lie
within 1e-12 of the recorded one.

    python3 bench/oracle.py            # verify all six checks
    python3 bench/oracle.py --record   # rewrite oracle.json from the current code
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ORACLE_FILE = Path(__file__).resolve().with_name("oracle.json")
CHECKS = ("leq1", "displacement", "card", "4ft", "transport-lemma", "te")
ARGS = ("campaign", "--json", "--trials", "200", "--seed", "1")
TE_FLOAT_KEYS = ("lhs", "rhs", "slack")
TE_TOL = 1e-12


def campaign_output(check: str) -> str:
    """Standard output of the CLI run for one check; raises if it exits non-zero."""
    from discretepl import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([*ARGS, "--check", check])
    if code != 0:
        raise RuntimeError(f"campaign --check {check} exited {code}")
    return buffer.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split_te(text: str) -> tuple[str, list[float]]:
    """(sha256 of the report with its floats blanked, the floats in document order)."""
    floats: list[float] = []

    def blank(node):
        if isinstance(node, dict):
            out = {}
            for key in sorted(node):
                if key in TE_FLOAT_KEYS and isinstance(node[key], float):
                    floats.append(node[key])
                    out[key] = None
                else:
                    out[key] = blank(node[key])
            return out
        if isinstance(node, list):
            return [blank(item) for item in node]
        return node

    stripped = blank(json.loads(text))
    return sha256(json.dumps(stripped, sort_keys=True)), floats


def fingerprint(check: str, text: str) -> dict:
    if check == "te":
        blanked, floats = split_te(text)
        return {"sha256_blanked": blanked, "floats": floats}
    return {"sha256": sha256(text)}


def mismatch(check: str, text: str, expected: dict) -> str | None:
    """Why the output differs from the recorded fingerprint, or None."""
    got = fingerprint(check, text)
    if check != "te":
        return None if got == expected else f"sha256 {got['sha256']} != recorded {expected['sha256']}"
    if got["sha256_blanked"] != expected["sha256_blanked"]:
        return "te report differs outside its lhs/rhs/slack values"
    if len(got["floats"]) != len(expected["floats"]):
        return "te report has a different number of lhs/rhs/slack values"
    worst = max(abs(a - b) for a, b in zip(got["floats"], expected["floats"]))
    return None if worst <= TE_TOL else f"te lhs/rhs/slack moved by {worst:.3g} > {TE_TOL}"


def load() -> dict:
    return json.loads(ORACLE_FILE.read_text())


def verify(checks) -> list[tuple[str, str | None]]:
    """(check, reason or None) for each check; an exception counts as a mismatch."""
    recorded = load()["checks"]
    results = []
    for check in checks:
        try:
            reason = mismatch(check, campaign_output(check), recorded[check])
        except Exception as exc:  # the oracle must report, not abort the run
            reason = f"{type(exc).__name__}: {exc}"
        results.append((check, reason))
    return results


def record() -> None:
    payload = {
        "command": "discretepl " + " ".join(ARGS) + " --check <check>",
        "te_tolerance": TE_TOL,
        "checks": {check: fingerprint(check, campaign_output(check)) for check in CHECKS},
    }
    ORACLE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ORACLE_FILE.parent.parent / "src"))
    if argv == ["--record"]:
        record()
        return 0
    failures = [(check, reason) for check, reason in verify(CHECKS) if reason]
    for check, reason in failures:
        print(f"MISMATCH {check}: {reason}")
    print(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} campaign reports match the oracle")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
