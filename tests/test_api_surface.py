"""Every function, method and class of the package has a user outside the
tests: its name appears as a name, an attribute or a string constant
somewhere in ``src/`` or ``bench/``, or it is exported in
``limdd.__all__``.  Dunders and decorated functions (the click commands)
are exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import limdd

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _names_used() -> set:
    used = set(limdd.__all__)
    for _, tree in _trees(ROOT / "src", ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def test_every_definition_has_a_user_outside_the_tests():
    used = _names_used()
    unused = []
    for path, tree in _trees(ROOT / "src" / "limdd"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                continue
            name = node.name
            if isinstance(node, ast.FunctionDef) and node.decorator_list:
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "defined but used only by tests: " + ", ".join(unused)
