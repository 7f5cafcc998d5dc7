"""Text formats for the CLI.

A pmf file holds one measure on one line, `offset; m0 m1 m2 ...` with masses
as `p/q` rationals (or integers).  Cube-function files hold one value per
line in index order, rationals or decimal floats.  Cost tables hold
`x y value` lines, at most one per pair.  Coupling dumps are `x y p/q` lines
in lexicographic order.  Parsing and emission round-trip exactly on
canonical forms.  The parsers take text, not paths: the CLI reads each file
and names it in any error.  Parsing keeps CPython's int-str digit limit, so
an over-long token is a parse error; exact reports lift the limit with
`long_int_strings`.  Every JSON report is written by `dump_json`.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .coupling import Coupling
from .errors import ConfigError, NegativeMass, NotNormalized, ParseError
from .fourfunctions import CubeFn
from .measures import Pmf, pmf
from .transport import Cost


@contextlib.contextmanager
def long_int_strings() -> Iterator[None]:
    """Lift CPython's limit on the digits of int-str conversions inside the block.

    Exact report values (ratio sums, 4FT sums, coupling atoms) can run past
    the default 4,300 digits although every input token is within it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


_LITERALS = {None: "null", True: "true", False: "false"}


def dump_json(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte, on JSON-ready data.

    With an `indent`, `json.dumps` runs CPython's pure-Python encoder; this
    writer makes the same text about twice as fast.  It takes dicts with str
    keys, lists, tuples, str, int, float, bool and None; any other value, or
    a key that is not a str, raises TypeError.
    """
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(value, out: list[str], newline: str) -> None:
    """Append the text of `value` to `out`; `newline` is the line break and indent of its own level."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value in (math.inf, -math.inf):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _write_json(item, out, inner)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            lead = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def parse_rational(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"bad rational {token!r}") from None


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped line) for each line that is neither blank nor a # comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def parse_pmf_text(text: str) -> Pmf:
    """The one non-empty, non-comment line as a Pmf; errors carry line numbers."""
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError(0, "empty pmf file")
    if len(lines) > 1:
        raise ParseError(lines[1][0], "a pmf file holds one measure on one line")
    line_no, line = lines[0]
    if ";" not in line:
        raise ParseError(line_no, "expected 'offset; m0 m1 ...'")
    head, _, tail = line.partition(";")
    try:
        offset = int(head.strip())
    except ValueError:
        raise ParseError(line_no, f"bad offset {head.strip()!r}") from None
    tokens = tail.split()
    if not tokens:
        raise ParseError(line_no, "no masses")
    masses = [parse_rational(t, line_no) for t in tokens]
    try:
        return pmf(offset, masses)
    except NotNormalized as exc:
        raise ParseError(line_no, f"masses do not sum to 1 (deficit {exc.deficit})") from None
    except NegativeMass as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_cubefn_text(text: str, n: int) -> CubeFn:
    values = []
    for line_no, line in _data_lines(text):
        if "." in line or ("e" in line.lower() and "/" not in line):
            try:
                value = float(line)
            except ValueError:
                raise ParseError(line_no, f"bad value {line!r}") from None
            if not math.isfinite(value):
                raise ParseError(line_no, f"non-finite value {line!r}")
            values.append(value)
        else:
            values.append(parse_rational(line, line_no))
    if len(values) != 2**n:
        raise ParseError(0, f"expected 2^{n} = {2**n} values, found {len(values)}")
    return CubeFn(n, tuple(values))


def parse_cost_table_text(text: str) -> Cost:
    """The table as a cost callable; a pair it does not list raises ConfigError."""
    table: dict[tuple[int, int], Fraction] = {}
    for line_no, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(line_no, "expected 'x y value'")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, "bad integer coordinate") from None
        if (x, y) in table:
            raise ParseError(line_no, f"repeated pair ({x},{y})")
        table[(x, y)] = parse_rational(parts[2], line_no)

    def evaluate(x: int, y: int) -> Fraction:
        try:
            return table[(x, y)]
        except KeyError:
            raise ConfigError(f"cost table has no entry for ({x},{y})") from None

    return evaluate


def emit_coupling(c: Coupling) -> str:
    return "\n".join(f"{x} {y} {p}" for x, y, p in c.atoms) + "\n"
