"""A CLI call loads only the package modules its command runs.

Each check starts a fresh interpreter with ``PYTHONPATH=src`` and
compares the ``qnet_stp`` entries of ``sys.modules`` before and after,
so modules an earlier test imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qnet_stp
from qnet_stp import rate_core

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = ["qnet_stp", "qnet_stp.cli", "qnet_stp.errors", "qnet_stp.netgraph"]

#: Modules beyond BASE that each command loads.
COMMANDS = [
    (["rate"], ["rate_core"]),
    (["rate", "--format", "text"], ["rate_core"]),
    (["analyze"], ["planner", "rate_core"]),
    (["optimize", "--candidates", "1-3"], ["planner", "rate_core"]),
    (["pack"], ["packing", "rate_core"]),
    (["pack", "--method", "basic"], ["packing", "rate_core"]),
    (["pack", "--method", "oracle", "--format", "dot"], ["packing", "rate_core"]),
    (["simulate", "--audit"], ["packing", "protocol", "rate_core"]),
    (["simulate", "--rounds", "2"], ["packing", "protocol", "rate_core"]),
    (["export-dot"], []),
]


def loaded_by(statements: str) -> list[str]:
    """The ``qnet_stp`` modules a fresh interpreter loads running ``statements``."""
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements.splitlines())
        + "print(json.dumps(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[0] == 'qnet_stp')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_of_the_cli_loads_four_modules():
    assert loaded_by("import qnet_stp.cli") == BASE


def test_import_of_the_package_loads_no_submodule():
    assert loaded_by("import qnet_stp") == ["qnet_stp"]
    assert loaded_by("import qnet_stp\nqnet_stp.Caps") == [
        "qnet_stp", "qnet_stp.errors", "qnet_stp.netgraph",
    ]


@pytest.mark.parametrize("argv,extra", COMMANDS, ids=lambda x: " ".join(x) or "-")
def test_each_command_loads_only_its_own_modules(tmp_path, argv, extra):
    nodes = ["1", "2", "3", "4"]
    edges = [{"u": nodes[i], "v": nodes[(i + 1) % 4], "rate": 1} for i in range(4)]
    path = tmp_path / "ring4.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}), encoding="utf-8")
    full = [argv[0], str(path), *argv[1:]]
    added = loaded_by(f"from qnet_stp import cli\nassert cli.main({full!r}) == 0")
    assert added == sorted(BASE + [f"qnet_stp.{m}" for m in extra])
    assert "qnet_stp.lp_core" not in added


def test_every_public_name_is_its_submodules_object():
    script = (
        "import importlib, qnet_stp\n"
        "for name in qnet_stp.__all__[:-1]:\n"
        "    obj = getattr(qnet_stp, name)\n"
        "    assert obj.__module__.startswith('qnet_stp.'), name\n"
        "    assert obj is getattr(importlib.import_module(obj.__module__), name), name\n"
        "star = {}\n"
        "exec('from qnet_stp import *', star)\n"
        "for name in qnet_stp.__all__:\n"
        "    assert star[name] is getattr(qnet_stp, name), name"
    )
    assert "qnet_stp.lp_core" in loaded_by(script)
    assert qnet_stp.__all__[-1] == "__version__"


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(qnet_stp.__all__) <= set(dir(qnet_stp))
    assert "__getattr__" in dir(qnet_stp)
    with pytest.raises(AttributeError, match="no_such_name"):
        qnet_stp.no_such_name
    with pytest.raises(ImportError):
        from qnet_stp import no_such_name  # noqa: F401


def test_public_names_follow_their_submodule_without_caching(monkeypatch):
    original = rate_core.nwt_rate
    assert qnet_stp.nwt_rate is original
    monkeypatch.setattr(rate_core, "nwt_rate", lambda *args, **kwargs: None)
    assert qnet_stp.nwt_rate is rate_core.nwt_rate
    monkeypatch.undo()
    assert qnet_stp.nwt_rate is original
    assert "nwt_rate" not in vars(qnet_stp)
