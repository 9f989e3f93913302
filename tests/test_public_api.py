"""Every public name of the package has a caller that is not a unit test.

A public top-level function or class of ``src/kahlergg/*.py``, and every
public method, must be referenced as an ``ast.Name`` or ``ast.Attribute``
somewhere in the package, the benchmark (``bench/*.py``) or the acceptance
gate.  An import does not count: re-exporting a name is not using it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kahlergg").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> list:
    """(qualified name, bare name) of each public top-level def/class and public method."""
    out = []
    for path in PACKAGE:
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{module}.{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return out


def _references() -> set:
    seen = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_public_name_has_a_caller_outside_unit_tests():
    used = _references()
    unused = sorted(qual for qual, name in _definitions() if name not in used)
    assert unused == [], f"public API with no caller in src/, bench/ or the acceptance gate: {unused}"
