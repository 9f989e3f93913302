"""Every public name of the package has a caller that is not a unit test.

A public top-level function or class of ``src/kahlergg/*.py`` must be
referenced as an ``ast.Name`` or ``ast.Attribute`` somewhere in the package,
the benchmark (``bench/*.py``) or the acceptance gate; a public method only
as an ``ast.Attribute``, so that a local variable of the same spelling does
not count as a call.  An import does not count: re-exporting a name is not
using it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kahlergg").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> list:
    """(qualified name, bare name, is a method) of each public top-level def/class and method."""
    out = []
    for path in PACKAGE:
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{module}.{node.name}.{m.name}", m.name, True) for m in node.body
                        if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return out


def _references() -> tuple:
    """(bare names, attribute names) referenced in the users."""
    names, attrs = set(), set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_name_has_a_caller_outside_unit_tests():
    names, attrs = _references()
    unused = sorted(qual for qual, name, method in _definitions()
                    if name not in attrs and (method or name not in names))
    assert unused == [], f"public API with no caller in src/, bench/ or the acceptance gate: {unused}"
