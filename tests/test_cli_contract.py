"""The CLI's exit-code contract on generated networks and unreadable files.

Every ``qnet-stp`` call exits 0, 2, 3 or 4 and prints JSON (the README's
promise); no traceback escapes.  Networks are seeded random graphs on
up to six nodes whose labels mix letters with ``+``, ``-`` and ``:``,
characters that contraction labels, candidate specs and rate suffixes
also use.  Files nested too deeply for the JSON parser, not UTF-8, or
holding an integer longer than the parser converts are schema errors.
"""

import json
import random

import pytest

from qnet_stp.cli import main

from conftest import build

PIECES = ("a", "b", "c", "1", "2", "+", "-", ":")
TREE_RATES = ("1", "1", "2", "1/2")
EXTRA_RATES = TREE_RATES + ("0",)


def labels(rng, n):
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(PIECES) for _ in range(rng.randint(1, 3))))
    return sorted(out, key=lambda _: rng.random())


def random_network(rng):
    n = rng.randint(2, 6)
    nodes = labels(rng, n)
    edges = {
        frozenset((nodes[i], nodes[rng.randrange(i)])): rng.choice(TREE_RATES)
        for i in range(1, n)
    }
    for _ in range(rng.randint(0, n)):
        edges.setdefault(frozenset(rng.sample(nodes, 2)), rng.choice(EXTRA_RATES))
    return build(nodes, [(*sorted(key), rate) for key, rate in edges.items()])


def commands(rng, g):
    labels_ = g.sorted_nodes()
    present = {e.key for e in g.edges}
    missing = [f"{u}-{v}" for i, u in enumerate(labels_) for v in labels_[i + 1:]
               if (u, v) not in present]
    spec = ",".join(rng.sample(missing, min(3, len(missing)))) or "x-y"
    return [
        ["rate"],
        ["analyze"],
        ["pack"],
        ["pack", "--method", "basic"],
        ["pack", "--method", "oracle", "--rounds", str(rng.randint(1, 2))],
        ["simulate", "--seed", str(rng.randrange(100))],
        ["simulate", "--audit"],
        ["simulate", "--rounds", "1", "--audit"],
        # "=" keeps argparse from reading a spec that starts with "-" as a flag
        ["optimize", f"--candidates={spec}", "--budget", str(rng.randint(1, 2))],
    ]


@pytest.mark.parametrize("seed", range(12))
def test_every_command_exits_by_contract_with_json(seed, tmp_path, capsys):
    rng = random.Random(seed)
    path = tmp_path / "g.json"
    for _ in range(5):
        g = random_network(rng)
        path.write_text(g.to_json(), encoding="utf-8")
        for argv in commands(rng, g):
            code = main([argv[0], str(path), *argv[1:]])
            out = capsys.readouterr().out
            assert code in (0, 2, 3, 4), (argv, g.to_json())
            doc = json.loads(out)
            assert (code == 0) == ("error" not in doc), (argv, out)
        assert main(["export-dot", str(path)]) == 0
        assert capsys.readouterr().out.startswith("graph network {")


LONG_INT = b'{"nodes":["a","b"],"edges":[{"u":"a","v":"b","rate":' + b"1" * 5000 + b"}]}"
EDGE_FIELDS = 'each edge needs "u", "v" and "rate" fields'
NODE_LIST = '"nodes" must be a list of strings'


def misshapen(doc, message, name):
    return pytest.param(json.dumps(doc).encode(), message, id=name)


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param(b"[" * 100_000, None, id="deep"),
        pytest.param(b"\xff\xfe{}", None, id="not-utf8"),
        pytest.param(LONG_INT, None, id="long-int"),
        misshapen([], "top-level JSON value must be an object", "list"),
        misshapen({"nodes": "ab", "edges": []}, NODE_LIST, "nodes-string"),
        misshapen({"nodes": ["a", 1], "edges": []}, NODE_LIST, "node-number"),
        misshapen({"nodes": ["a"], "edges": {}}, '"edges" must be a list', "edges-object"),
        misshapen({"nodes": ["a", "b"], "edges": [{"u": "a", "v": "b"}]}, EDGE_FIELDS, "no-rate"),
        misshapen({"nodes": ["a", "b"], "edges": [7]}, EDGE_FIELDS, "edge-number"),
        misshapen({"nodes": ["a", "b"], "edges": [{"u": "a", "v": 2, "rate": 1}]},
                  "edge endpoints must be strings", "endpoint-number"),
        misshapen({"nodes": [], "edges": []}, "a network needs at least one node", "no-nodes"),
    ],
)
@pytest.mark.parametrize(
    "command", ["rate", "pack", "simulate", "analyze", "optimize", "export-dot"]
)
def test_unreadable_file_is_a_schema_error(command, content, message, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "Schema"
    if message is not None:
        assert doc["error"]["message"] == message
