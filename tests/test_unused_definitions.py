"""Every function and method of the package is named outside its own definition.

A name counts when it appears as a variable, an attribute or an imported
name anywhere in ``src/``, ``tests/`` or ``perfbench/``, outside the
body of the definition itself (so recursion alone does not count).
Dunder methods are skipped: the language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qnet_stp"
SCANNED = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def names(tree: ast.AST) -> Counter:
    """Every identifier ``tree`` refers to, with its count."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def unreferenced(defining: dict, everywhere: Counter) -> list[str]:
    """Definitions of the parsed ``defining`` modules that ``everywhere``
    names no more often than their own bodies do."""
    out = []
    for module, tree in sorted(defining.items()):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] <= names(node)[name]:
                out.append(f"{module}:{name}")
    return out


def test_finds_an_unreferenced_function():
    source = "def used():\n    return 1\n\ndef unused():\n    return unused()\n\nx = used()\n"
    tree = ast.parse(source)
    assert unreferenced({"m.py": tree}, names(tree)) == ["m.py:unused"]


def test_every_definition_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SCANNED}
    everywhere = sum((names(t) for t in trees.values()), Counter())
    defining = {p.name: t for p, t in trees.items() if p.parent == PACKAGE}
    assert unreferenced(defining, everywhere) == []
