"""No module of the package, nor the test oracles, imports a name it never uses.

``__init__.py`` is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import qnet_stp

MODULES = sorted(
    p for p in Path(qnet_stp.__file__).parent.glob("*.py") if p.name != "__init__.py"
) + [Path(__file__).resolve().parent / "reference_scans.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_finds_an_unused_import():
    source = "import os\nfrom typing import Mapping, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Mapping"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
