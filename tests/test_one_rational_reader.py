"""Every rational the package takes is read by ``netgraph.parse_rational``.

``Fraction(x)`` accepts floats, bools, ``Decimal`` and numbers of any
length, and raises ``ValueError`` or ``TypeError`` on what it refuses, so
outside ``parse_rational`` no ``src/`` call passes ``Fraction`` a single
argument other than an int literal or an ``int(...)``, and none passes
``Fraction`` itself as a converter.  Two-argument calls build a value from
integers the package already holds and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
READER = "parse_rational"


def _whole(node: ast.expr) -> bool:
    """An int literal (not a bool) or a call of ``int``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"


def _is_fraction(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "Fraction"


def coercions(tree: ast.AST, where: str) -> list[str]:
    """``where:line`` of each call in ``tree`` that reads a rational with
    ``Fraction`` rather than :func:`parse_rational`."""
    skipped = {id(n) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == READER for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skipped:
            continue
        args = [*node.args, *(k.value for k in node.keywords)]
        if any(_is_fraction(a) for a in args):
            found.append(f"{where}:{node.lineno} passes Fraction as a converter")
        elif _is_fraction(node.func) and len(args) == 1 and not _whole(args[0]):
            found.append(f"{where}:{node.lineno} {ast.unparse(node)}")
    return found


def test_finds_each_kind_of_coercion():
    source = (
        "def parse_rational(x):\n    return Fraction(x)\n\n"
        "def f(x, xs):\n"
        "    a, b, c = Fraction(0), Fraction(int(x)), Fraction(x, 2)\n"
        "    d = Fraction(x)\n"
        "    e = Fraction(True)\n"
        "    return list(map(Fraction, xs)), sorted(xs, key=Fraction)\n"
    )
    assert coercions(ast.parse(source), "m.py") == [
        "m.py:6 Fraction(x)",
        "m.py:7 Fraction(True)",
        "m.py:8 passes Fraction as a converter",
        "m.py:8 passes Fraction as a converter",
    ]


def test_every_rational_goes_through_parse_rational():
    found = []
    for path in SOURCES:
        found += coercions(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []
