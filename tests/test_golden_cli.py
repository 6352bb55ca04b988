"""Golden CLI outputs: the sha256 of stdout for every acceptance fixture.

Each fixture is run through ``rate``, ``analyze``, ``pack`` (every
method, the oracle also with two rounds), ``simulate`` (with and without
``--audit`` and ``--rounds``) and ``optimize`` (greedy and exhaustive,
over the fixture's missing links, and again at budget 3, also as text,
with rates of new denominators and a candidate on an existing link).
The exit code and the digest of stdout must match ``golden_cli.json``,
so a refactor that is meant to keep the output proves that it kept it
byte for byte.

To re-record (only when an output is meant to change, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_cli.py --record

It prints each row whose exit code or digest changed, with the old and
new exit codes, before it writes the table.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qnet_stp.cli import main

from conftest import bip_tie7, build, complete, ring

GOLDEN = Path(__file__).with_name("golden_cli.json")


def fixtures() -> dict:
    return {
        "triangle": build(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)]),
        "tri_pendant": build(
            ["1", "2", "3", "4"], [("1", "2", 1), ("2", "3", 1), ("1", "3", 1), ("3", "4", 1)]
        ),
        "k4": complete(4),
        "k4_minus": build(
            ["1", "2", "3", "4"],
            [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1)],
        ),
        "square": ring(4),
        "square_diag": build(
            ["1", "2", "3", "4"],
            [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("1", "4", 1), ("1", "3", 1)],
        ),
        "hexagon": ring(6),
        "square_diag_tail": build(
            [str(i) for i in range(1, 7)],
            [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("1", "4", 1),
             ("1", "3", 1), ("1", "5", 1), ("2", "6", 1), ("5", "6", 1)],
        ),
        "star4": build(["c", "1", "2", "3"], [("c", "1", 1), ("c", "2", 1), ("c", "3", 1)]),
        "path4": build(["1", "2", "3", "4"], [("1", "2", 1), ("2", "3", 1), ("3", "4", 1)]),
        "rates12": build(
            ["1", "2", "3", "4"],
            [("1", "2", 2), ("2", "3", 1), ("3", "4", 2), ("1", "4", 1), ("2", "4", 1)],
        ),
        "halves": build(["1", "2", "3"], [("1", "2", "1/2"), ("1", "3", 1), ("2", "3", "3/2")]),
        "plus_labels": build(["a", "b", "a+b"], [("a", "b", 5), ("a", "a+b", 1), ("b", "a+b", 1)]),
        "k6": complete(6),
        "k8": complete(8),
        # the first minimizer has three blocks and ties with a bipartition,
        # so analyze prints the first minimum-cut side
        "bip_tie7": bip_tie7(),
    }


def commands(g) -> list:
    present = {e.key for e in g.edges}
    labels = g.sorted_nodes()
    missing = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]
               if (u, v) not in present][:4]
    spec = ",".join(f"{u}-{v}" for u, v in missing)
    out = [
        ["rate"],
        ["analyze"],
        ["pack", "--method", "general"],
        ["pack", "--method", "basic"],
    ]
    if g.node_count <= 6:
        out += [
            ["pack", "--method", "oracle"],
            ["pack", "--method", "oracle", "--rounds", "2"],
            ["simulate"],
            ["simulate", "--audit"],
            ["simulate", "--rounds", "2", "--seed", "7"],
            ["simulate", "--rounds", "2", "--audit"],
            ["optimize", "--candidates", spec, "--budget", "1"],
            ["optimize", "--candidates", spec, "--budget", "2", "--exhaustive"],
        ]
        # rates that bring in new denominators, and a candidate on an existing
        # link, written end first
        first = g.edges[0]
        rich = ",".join([f"{u}-{v}:{r}" for (u, v), r in zip(missing, ("1/3", "5/2", "1"))]
                        + [f"{first.v}-{first.u}:5/2"])
        out += [
            ["optimize", "--candidates", rich, "--budget", "3"],
            ["optimize", "--candidates", rich, "--budget", "3", "--exhaustive"],
            ["optimize", "--candidates", rich, "--budget", "3", "--format", "text"],
        ]
    return out


def cases():
    for name, g in fixtures().items():
        for argv in commands(g):
            yield f"{name} {' '.join(argv)}", g, argv


def run_case(g, argv, directory) -> tuple:
    """(exit code or escaping exception class, sha256 of stdout)."""
    path = os.path.join(directory, "graph.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(g.to_json())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main([argv[0], path, *argv[1:]])
        except Exception as exc:  # recorded, never raised past the run
            code = type(exc).__name__
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


CASES = list(cases())


@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_golden_cli_output(case, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    g, argv = next((g, argv) for name, g, argv in CASES if name == case)
    code, digest = run_case(g, argv, str(tmp_path))
    assert [code, digest] == golden[case]


def test_golden_table_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(name for name, _, _ in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --record")
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    table = {}
    with tempfile.TemporaryDirectory() as directory:
        for name, g, argv in CASES:
            table[name] = list(run_case(g, argv, directory))
    for name in sorted(set(old) | set(table)):
        before, after = old.get(name, [None, None]), table.get(name, [None, None])
        if before != after:
            print(f"changed: {name}: exit {before[0]} -> {after[0]}")
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases in {GOLDEN}")
