"""Every public name of the library has a caller outside the unit tests.

A public module-level function or class in `src/discretepl/` must be
referenced either in `src/` outside its own body or in the acceptance gate,
`tests/test_acceptance.py`.  A reference is a `Name` node, or an attribute
read off a `discretepl` module (`campaign.run_campaign`); imports and
re-exports in `__init__.py` are not references, and neither is an attribute
of anything else, such as `str.join`.
"""

import ast
from pathlib import Path

import discretepl

SRC = Path(discretepl.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to a discretepl module: `from discretepl import campaign`, `from . import io as formats`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "discretepl" or node.level and node.module is None):
            aliases.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names if alias.name.startswith("discretepl.") and alias.asname)
    return aliases


def _references(tree: ast.AST, aliases: set[str]) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return names


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    acceptance = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    called = _references(acceptance, _module_aliases(acceptance))
    uncalled = []
    for module, tree in modules.items():
        for definition in _public_definitions(tree):
            if definition.name in called:
                continue
            # references in src/ outside the definition's own body (a recursive call is not a caller)
            outside = set()
            for other, other_tree in modules.items():
                aliases = _module_aliases(other_tree)
                if other != module:
                    outside |= _references(other_tree, aliases)
                    continue
                for node in other_tree.body:
                    if node is not definition:
                        outside |= _references(node, aliases)
            if definition.name not in outside:
                uncalled.append(f"{module}.{definition.name}")
    assert uncalled == []
