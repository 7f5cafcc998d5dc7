"""Every public name of the library has a caller outside the unit tests.

A public module-level function or class in `src/discretepl/` must be
referenced either in `src/` outside its own body or in the acceptance gate,
`tests/test_acceptance.py`.  A reference is a `Name` node, or an attribute
read off a `discretepl` module (`campaign.run_campaign`); imports and
re-exports in `__init__.py` are not references, and neither is an attribute
of anything else, such as `str.join`.

A public method or property of a public class must be read as an attribute
of something in `src/` outside its own body, in the acceptance gate or in
the benchmark, `bench/*.py` (which reads `Pmf.masses` and `Coupling.atoms`).
The types of the objects are not known, so any attribute of that name
counts: `nu.window()` on a `Pmf` is a caller of `RealFn.window` too.

Each file is walked once, and each definition's own body once more, so that
its own references (a recursive call, `self.name`) can be taken off the
file's counts.
"""

import ast
from collections import Counter
from pathlib import Path

import discretepl

SRC = Path(discretepl.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
BENCH = Path(__file__).parent.parent / "bench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to a discretepl module: `from discretepl import campaign`, `from . import io as formats`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "discretepl" or node.level and node.module is None):
            aliases.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names if alias.name.startswith("discretepl.") and alias.asname)
    return aliases


def _references(tree: ast.AST, aliases: set[str]) -> tuple[Counter, Counter]:
    """(names, attributes): `Name` ids and attributes of discretepl modules, and every attribute read."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names[node.attr] += 1
    return names, attributes


def _public(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _uncalled() -> list[str]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    aliases = {module: _module_aliases(tree) for module, tree in modules.items()}
    counts = {module: _references(tree, aliases[module]) for module, tree in modules.items()}
    src_names = sum((names for names, _ in counts.values()), Counter())
    src_attributes = sum((attributes for _, attributes in counts.values()), Counter())
    acceptance = _parse(ACCEPTANCE)
    gate_names, gate_attributes = _references(acceptance, _module_aliases(acceptance))
    bench_attributes = sum((_references(_parse(path), set())[1] for path in sorted(BENCH.glob("*.py"))), Counter())
    uncalled = []
    for module, tree in modules.items():
        for definition in _public(tree.body):
            own_names, _ = _references(definition, aliases[module])
            if not gate_names[definition.name] and src_names[definition.name] <= own_names[definition.name]:
                uncalled.append(f"{module}.{definition.name}")
            if not isinstance(definition, ast.ClassDef):
                continue
            for member in _public(definition.body):
                _, own_attributes = _references(member, aliases[module])
                outside = src_attributes[member.name] - own_attributes[member.name]
                if not (outside or gate_attributes[member.name] or bench_attributes[member.name]):
                    uncalled.append(f"{module}.{definition.name}.{member.name}")
    return uncalled


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    assert _uncalled() == []
