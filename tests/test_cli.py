import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qnet_stp.cli import _json_text, build_parser, main, parse_candidates, read_caps
from qnet_stp.errors import SchemaError

from conftest import build, complete, ring, run_measured


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(g.to_json(), encoding="utf-8")
        return str(path)
    return write


@pytest.fixture
def triangle_path(graph_file, triangle):
    return graph_file("triangle.json", triangle)


@pytest.fixture
def hexagon_path(graph_file, hexagon):
    return graph_file("hexagon.json", hexagon)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_json(capsys, triangle_path):
    code, out = run(capsys, "rate", triangle_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["rate"] == "3/2"
    assert doc["finest_is_optimal"] is True


def test_rate_text(capsys, hexagon_path):
    code, out = run(capsys, "rate", hexagon_path, "--format", "text")
    assert (code, out) == (0, "6/5\n")


def test_rate_disconnected(capsys, graph_file):
    path = graph_file("disc.json", build(["1", "2", "3"], [("1", "2", 1)]))
    code, out = run(capsys, "rate", path)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "Disconnected"


def test_missing_file(capsys):
    code, out = run(capsys, "rate", "/nonexistent/graph.json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "Schema"


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out = run(capsys, "rate", str(path))
    assert code == 2


# ---------------------------------------------------------------------------
# pack
# ---------------------------------------------------------------------------

def test_pack_basic_k4(capsys, graph_file, k4):
    code, out = run(capsys, "pack", graph_file("k4.json", k4), "--method", "basic")
    assert code == 0
    doc = json.loads(out)
    assert doc["achieved_rate"] == "2"
    assert doc["optimal"] is True
    assert doc["packing"]["rounds"] == 3
    assert sum(doc["packing"]["multiplicities"]) == 6


def test_pack_general_tail(capsys, graph_file, square_diag_tail):
    code, out = run(
        capsys, "pack", graph_file("tail.json", square_diag_tail),
        "--method", "general",
    )
    assert code == 0
    assert json.loads(out)["achieved_rate"] == "3/2"


def test_pack_oracle_rounds(capsys, triangle_path):
    code, out = run(
        capsys, "pack", triangle_path, "--method", "oracle", "--rounds", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["packing"]["multiplicities"]) == 3


def test_pack_rounds_requires_oracle(capsys, triangle_path):
    code, out = run(
        capsys, "pack", triangle_path, "--method", "basic", "--rounds", "2"
    )
    assert code == 2


def test_pack_dot_output(capsys, triangle_path):
    code, out = run(
        capsys, "pack", triangle_path, "--method", "oracle", "--rounds", "2",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("graph packing {")
    assert "cluster_t0" in out and "cluster_t2" in out
    assert '"t0_1" -- "t0_2"' in out  # per-tree namespaced nodes


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_with_audit(capsys, triangle_path):
    code, out = run(
        capsys, "simulate", triangle_path, "--rounds", "2", "--audit",
        "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unanimity"] is True
    assert doc["audit"]["secrecy"] == "uniform"
    assert doc["audit"]["edge_disjoint"] is True
    assert doc["rate"] == "3/2"
    assert len(doc["conference_key"]) == 3


def test_simulate_default_packing(capsys, graph_file, tri_pendant):
    code, out = run(capsys, "simulate", graph_file("p.json", tri_pendant))
    assert code == 0
    doc = json.loads(out)
    assert doc["unanimity"] is True
    assert doc["rate"] == "1"


def test_simulate_zero_rounds(capsys, triangle_path):
    code, out = run(capsys, "simulate", triangle_path, "--rounds", "0")
    assert code == 2
    # the same round check, and so the same message, as the oracle packer's
    pack_code, pack_out = run(capsys, "pack", triangle_path, "--method", "oracle", "--rounds", "0")
    assert pack_code == 2
    message = json.loads(out)["error"]["message"]
    assert message == json.loads(pack_out)["error"]["message"]
    assert message == "round count must be a positive integer, got 0"


def test_simulate_deterministic(capsys, triangle_path):
    _, first = run(capsys, "simulate", triangle_path, "--rounds", "2", "--seed", "9")
    _, second = run(capsys, "simulate", triangle_path, "--rounds", "2", "--seed", "9")
    assert first == second
    _, third = run(capsys, "simulate", triangle_path, "--rounds", "2", "--seed", "10")
    assert first != third


# ---------------------------------------------------------------------------
# analyze / optimize
# ---------------------------------------------------------------------------

def test_analyze_json(capsys, graph_file, tri_pendant):
    code, out = run(capsys, "analyze", graph_file("p.json", tri_pendant))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bipartition"
    assert doc["minimizing_partition"] == [["1", "2", "3"], ["4"]]
    assert doc["certificate"]["violating_subset"] == ["4"]


def test_analyze_text(capsys, hexagon_path):
    code, out = run(capsys, "analyze", hexagon_path, "--format", "text")
    assert code == 0
    assert "no bottleneck" in out


def test_analyze_and_pack_with_plus_in_labels(capsys, graph_file):
    # {a,b} contracts to "a+b", which is already a node label
    path = graph_file("plus.json", build(
        ["a", "b", "a+b"], [("a", "b", 5), ("a", "a+b", 1), ("b", "a+b", 1)]
    ))
    code, out = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["minimizing_partition"] == [["a", "b"], ["a+b"]]
    assert sorted(doc["contracted"]["nodes"]) == ["a+b", "a+b#1"]
    code, out = run(capsys, "pack", path)
    assert code == 0
    assert json.loads(out)["achieved_rate"] == "2"


def test_pack_refuses_greedy_trees_past_the_step_budget(capsys, graph_file, monkeypatch):
    # 8 greedy trees on a 4-ring at rate 2 take 64 steps of 8 each, within
    # a budget of 80; at rate 3 the 12 trees would take 96, and both
    # greedy packers refuse before the first
    monkeypatch.setattr("qnet_stp.packing.EXACT_STEP_BUDGET", 80)
    for rate, code_expected in ((2, 0), (3, 4)):
        path = graph_file("ring.json", build(ring(4).node_ids, [(e.u, e.v, rate) for e in ring(4).edges]))
        for method in ("general", "basic"):
            code, out = run(capsys, "pack", path, "--method", method)
            assert code == code_expected
            doc = json.loads(out)
            if code:
                assert doc == {"error": {
                    "code": "HeuristicFailed",
                    "message": "extracting 12 trees passes the budget of 80 steps",
                }}
            else:
                assert (doc["achieved_rate"], doc["optimal"]) == ("8/3", True)


@pytest.mark.parametrize("n", [6, 8])
def test_pack_oracle_on_complete_graphs(capsys, graph_file, n):
    # the greedy packer stalls on unit K6 and K8 and the exact packer
    # finishes; the oracle, past the 1296 and 262144 spanning trees the
    # exhaustive search refused, packs the same count
    path = graph_file(f"k{n}.json", complete(n))
    for method in ("general", "basic"):
        code, out = run(capsys, "pack", path, "--method", method)
        assert code == 0
        doc = json.loads(out)
        assert doc["optimal"] is True
        assert doc["diagnostics"]["fallback"] is True
        assert doc["packing"]["multiplicities"] == [1] * (n // 2)
    code, out = run(capsys, "pack", path, "--method", "oracle", "--rounds", "1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["optimal"], sum(doc["packing"]["multiplicities"])) == (True, n // 2)
    assert doc["diagnostics"] == {"packer_calls": 1}


def test_trees_is_no_longer_a_cap(capsys, graph_file, monkeypatch):
    # the packers are bounded by the exact packer's step budget
    monkeypatch.setenv("QNET_STP_CAPS", "trees=4")
    code, out = run(capsys, "pack", graph_file("k10.json", complete(10)), "--method", "oracle")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "Schema"
    assert error["message"].startswith("unknown cap 'trees'")


def test_oracle_refuses_an_oversize_target_before_building(capsys, graph_file, monkeypatch):
    # 20,000,000 trees of unit K4 would seed 160,000,000 node steps
    forests = []
    monkeypatch.setattr("qnet_stp.packing.spanning_forest", lambda *args: forests.append(args))
    path = graph_file("k4.json", complete(4))
    code, out = run(capsys, "pack", path, "--method", "oracle", "--rounds", "10000000")
    assert code == 4
    assert json.loads(out)["error"]["message"] == (
        "the exact packer passed its budget of 1000000 search steps"
    )
    assert forests == []


def test_oracle_certificate_proves_optimality_under_the_partition_cap(
    capsys, graph_file, monkeypatch
):
    # the path 4-1-2-3-5 over 3 rounds packs the 3 copies of (1, 2); the
    # partition that refused the count before proves it optimal
    path = graph_file("path5.json", build(
        ["1", "2", "3", "4", "5"],
        [("1", "4", 3), ("1", "2", 1), ("2", "3", 3), ("3", "5", 2)],
    ))
    monkeypatch.setenv("QNET_STP_CAPS", "partitions=2")
    code, out = run(capsys, "pack", path, "--method", "oracle", "--rounds", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["achieved_rate"], doc["optimal"]) == ("1", True)


def test_exact_step_budget_exits_4(tmp_path):
    # 800,000 one-edge trees over 8 rounds of a two-node link at rate
    # 100,000: 8.3 s and 539 MB without the budget
    path = tmp_path / "link.json"
    path.write_text(build(["a", "b"], [("a", "b", 100_000)]).to_json(), encoding="utf-8")
    code, out, seconds, peak_mb = run_measured(f"""
import sys
from qnet_stp.cli import main
sys.exit(main(["pack", {str(path)!r}, "--method", "oracle", "--rounds", "8"]))
""")
    assert code == 4
    assert json.loads(out)["error"] == {
        "code": "HeuristicFailed", "message": "the exact packer passed its budget of 1000000 search steps",
    }
    assert seconds < 2 and peak_mb < 100, (seconds, peak_mb)


def test_oracle_step_budget_bounds_the_time(capsys, graph_file):
    # a 4-ring at rate 100 over 3 rounds (400 trees) passed the exhaustive
    # search's budget; the exact packer packs it, and refuses at rate 1000
    for rate, expected in ((100, 0), (1000, 4)):
        path = graph_file("ring.json", build(ring(4).node_ids, [(e.u, e.v, rate) for e in ring(4).edges]))
        for argv in (["pack", path, "--method", "oracle"], ["simulate", path, "--rounds", "3"]):
            start = time.process_time()
            code, out = run(capsys, *argv)
            assert code == expected
            assert time.process_time() - start < 2
            if expected:
                assert json.loads(out)["error"]["message"] == (
                    "the exact packer passed its budget of 1000000 search steps"
                )
            else:
                field = "rate" if argv[0] == "simulate" else "achieved_rate"
                assert json.loads(out)[field] == "400/3"


def test_simulate_refuses_past_the_protocol_budget(capsys, graph_file):
    # a 4-ring at rate 20,000 packs 80,000 trees over 3 rounds, 240,000
    # tree-edge instances: 13.6 s, 47 MB of output and a 321 MB peak
    # without the budget on a 2-vCPU VM.  At rate 2,500 it is 30,000; pack still answers
    path = graph_file("ring.json", build(ring(4).node_ids, [(e.u, e.v, 2_500) for e in ring(4).edges]))
    start = time.process_time()
    code, out = run(capsys, "simulate", path)
    assert time.process_time() - start < 2
    assert (code, json.loads(out)) == (4, {"error": {
        "code": "HeuristicFailed",
        "message": "running the protocol on 30000 tree-edge instances passes the budget of 20000",
    }})
    code, out = run(capsys, "pack", path)
    assert (code, json.loads(out)["achieved_rate"]) == (0, "10000/3")


TWO_TRIANGLES = build(
    ["a", "b", "c", "d", "e", "f"],
    [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("d", "e", 1), ("e", "f", 1), ("d", "f", 1),
     ("c", "d", 1)],
)


def test_subset_cap_reaches_the_packers(capsys, graph_file, monkeypatch):
    path = graph_file("two_triangles.json", TWO_TRIANGLES)
    monkeypatch.setenv("QNET_STP_CAPS", "subsets=2")
    for argv in (["pack"], ["pack", "--method", "basic"], ["simulate"]):
        code, out = run(capsys, argv[0], path, *argv[1:])
        assert code == 3
        assert json.loads(out)["error"] == {
            "code": "ExactModeLimit", "message": "subset scan over 6 nodes exceeds the cap of 2",
        }


def test_partition_cap_reaches_the_optimality_check(capsys, graph_file, monkeypatch):
    # under the cap only the finest or the violator's partition proves a
    # rate optimal: neither bound is the two triangles' rate 1, while the
    # 8-ring's rate 8/7 is its finest bound
    for g, rounds, optimal in ((TWO_TRIANGLES, "1", None), (ring(8), "7", True)):
        path = graph_file("g.json", g)
        for caps, expected in (("", True), ("partitions=2", optimal)):
            monkeypatch.setenv("QNET_STP_CAPS", caps)
            for argv in (["pack"], ["pack", "--method", "oracle", "--rounds", rounds]):
                code, out = run(capsys, argv[0], path, *argv[1:])
                assert code == 0
                assert json.loads(out)["optimal"] is expected


def test_splice_fallback_needs_no_partition_scan(capsys, graph_file, monkeypatch):
    # the remainder {2,3,4,5} is disconnected, so the split fails; the
    # fallback's descent needs no partition scan, so a partition cap below
    # the node count changes nothing
    path = graph_file("split.json", build(
        ["1", "2", "3", "4", "5"],
        [("1", "2", 1), ("1", "3", 1), ("2", "4", 1), ("2", "5", 3), ("4", "5", 3)],
    ))
    code, uncapped = run(capsys, "pack", path)
    assert code == 0
    doc = json.loads(uncapped)
    assert (doc["diagnostics"]["fallback"], doc["optimal"]) == (True, True)
    monkeypatch.setenv("QNET_STP_CAPS", "partitions=4")
    assert run(capsys, "pack", path) == (0, uncapped)


def test_optimize_candidates_with_dash_labels(capsys, graph_file):
    path = graph_file("dash.json", build(
        ["a", "a-1", "b", "1-b", "c"],
        [("a", "a-1", 1), ("a-1", "b", 1), ("b", "1-b", 1), ("1-b", "c", 1), ("a", "c", 1)],
    ))
    code, out = run(capsys, "optimize", path, "--candidates", "a-1-c:2", "--budget", "1")
    assert code == 0
    assert json.loads(out)["steps"][0]["edge"] == ["a-1", "c"]
    # "a-1-b" could link a-1 with b, or a with 1-b
    code, out = run(capsys, "optimize", path, "--candidates", "a-1-b", "--budget", "1")
    assert code == 2
    assert "more than one way" in json.loads(out)["error"]["message"]
    code, out = run(capsys, "optimize", path, "--candidates", "a-2-c", "--budget", "1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "Schema"


def test_optimize_candidates_with_colon_labels(capsys, graph_file):
    path = graph_file("colon.json", build(
        ["a", "b", "b:1", "c"], [("a", "c", 1), ("b", "c", 1), ("b:1", "c", 1)],
    ))
    # "a-b:1" could link a with b at rate 1, or a with b:1
    code, out = run(capsys, "optimize", path, "--candidates", "a-b:1", "--budget", "1")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "Schema" and "more than one way" in error["message"]
    # "1:2" is no rate, so this reads one way only
    code, out = run(capsys, "optimize", path, "--candidates", "a-b:1:2", "--budget", "1")
    assert code == 0
    step = json.loads(out)["steps"][0]
    assert (step["edge"], step["added_rate"]) == (["a", "b:1"], "2")
    path = graph_file("colon_only.json", build(
        ["a", "b:1", "c"], [("a", "c", 1), ("b:1", "c", 1)],
    ))
    code, out = run(capsys, "optimize", path, "--candidates", "a-b:1", "--budget", "1")
    assert code == 0
    step = json.loads(out)["steps"][0]
    assert (step["edge"], step["added_rate"]) == (["a", "b:1"], "1")


def test_optimize_picks_best_link(capsys, hexagon_path):
    code, out = run(
        capsys, "optimize", hexagon_path,
        "--candidates", "1-4,2-6", "--budget", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][0]["edge"] == ["1", "4"]
    assert doc["final_rate"] == "7/5"
    assert doc["steps"][0]["dot"].startswith("graph network {")


def test_optimize_budget_zero(capsys, hexagon_path):
    code, out = run(capsys, "optimize", hexagon_path, "--budget", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == []
    assert doc["initial_rate"] == doc["final_rate"] == "6/5"


def test_optimize_no_candidates(capsys, hexagon_path):
    code, out = run(capsys, "optimize", hexagon_path, "--budget", "1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "EmptyPlan"


def test_optimize_text(capsys, hexagon_path):
    code, out = run(
        capsys, "optimize", hexagon_path, "--candidates", "1-4",
        "--budget", "1", "--format", "text",
    )
    assert code == 0
    assert "+ (1,4) rate 1 -> 7/5" in out


# ---------------------------------------------------------------------------
# export-dot
# ---------------------------------------------------------------------------

def test_export_dot_golden(capsys, triangle_path):
    code, out = run(capsys, "export-dot", triangle_path)
    assert code == 0
    assert out == (
        "graph network {\n"
        "  node [shape=circle];\n"
        '  "1";\n'
        '  "2";\n'
        '  "3";\n'
        '  "1" -- "2" [label="1"];\n'
        '  "1" -- "3" [label="1"];\n'
        '  "2" -- "3" [label="1"];\n'
        "}\n"
    )


QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_escapes_quotes_and_backslashes(capsys, graph_file):
    # every quoted token closes on its own line and unescapes to the label
    labels = ['a"b', 'a\\"b', "c\\"]
    g = build(labels, [(u, v, 1) for i, u in enumerate(labels) for v in labels[i + 1:]])
    path = graph_file("quotes.json", g)
    for argv in (["export-dot", path], ["pack", path, "--format", "dot"]):
        code, out = run(capsys, *argv)
        assert code == 0
        tokens = set()
        for line in out.splitlines():
            assert '"' not in QUOTED.sub("", line), (argv, line)
            tokens.update(re.sub(r"\\(.)", r"\1", t[1:-1]) for t in QUOTED.findall(line))
        assert set(labels) <= tokens, argv


@pytest.mark.parametrize("caps, g, argv, code, expected", [
    # 56 key bits under the default caps: the audit has no cap
    ("", ring(8), ["simulate", "--audit"], 0, {"audit": {
        "conference_bits": 8, "edge_disjoint": True, "secrecy": "uniform",
        "total_bits": 56, "uniform": True, "violations": [],
    }}),
    ("", complete(4), ["pack", "--method", "basic"], 0, {
        "optimal": True, "diagnostics": {"backtracks": 2, "fallback": False},
    }),
])
def test_audit_and_backtrack_caps_reach_the_cli(
    capsys, graph_file, monkeypatch, caps, g, argv, code, expected
):
    monkeypatch.setenv("QNET_STP_CAPS", caps)
    got, out = run(capsys, argv[0], graph_file("g.json", g), *argv[1:])
    assert got == code
    doc = json.loads(out)
    assert {key: doc[key] for key in expected} == expected


SEARCH_GIVES_UP = {
    "backtracks": 1, "fallback": True,
    "fallback_reason": "no next-to-last tree leaves a clean final tree",
}
#: The greedy's one next-to-last candidate leaves no clean final tree.
STALL4 = build(["1", "2", "3", "4"],
               [("1", "2", 1), ("1", "3", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 2)])


@pytest.mark.parametrize("g, budget", [(STALL4, 10_000), (complete(4), 1)],
                         ids=["stall4", "k4-budget1"])
def test_greedy_budget_reaches_the_cli(capsys, graph_file, monkeypatch, g, budget):
    monkeypatch.setattr("qnet_stp.packing.BACKTRACK_BUDGET", budget)
    code, out = run(capsys, "pack", graph_file("g.json", g), "--method", "basic")
    assert code == 0
    doc = json.loads(out)
    assert (doc["optimal"], doc["achieved_rate"]) == (True, "2")
    assert doc["diagnostics"] == SEARCH_GIVES_UP


def test_backtrack_is_no_longer_a_cap(capsys, graph_file, monkeypatch):
    monkeypatch.setenv("QNET_STP_CAPS", "backtrack=1")
    code, out = run(capsys, "rate", graph_file("ring8.json", ring(8)))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "Schema"
    assert error["message"].startswith("unknown cap 'backtrack'")


def _long_rationals():
    nines = "9" * 4300
    triangle = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    ring6 = [str(i) for i in range(6)]
    return {
        # a 5001-digit rate, and rates whose sum has 4301 digits
        "1e5000": (triangle, ['"1e5000"', "1", "1"], edges),
        "nines quoted": (triangle, [f'"{nines}"'] * 3, edges),
        "nines bare": (triangle, [nines] * 3, edges),
        # 1000-digit denominators whose least common multiple passes 4300 digits
        "ring6": (ring6, [f'"1/{10 ** 999 + i}"' for i in range(6)],
                  [(ring6[i], ring6[(i + 1) % 6]) for i in range(6)]),
    }


@pytest.mark.parametrize("name, command", [
    (name, command)
    for name in ("1e5000", "nines quoted", "nines bare")
    for command in ("rate", "analyze", "export-dot")
] + [("ring6", "rate"), ("ring6", "analyze")])
def test_rationals_too_long_to_print_are_schema_errors(capsys, tmp_path, name, command):
    nodes, rates, edges = _long_rationals()[name]
    items = ",".join(f'{{"u": "{u}", "v": "{v}", "rate": {r}}}' for (u, v), r in zip(edges, rates))
    path = tmp_path / "long.json"
    path.write_text(f'{{"nodes": {json.dumps(nodes)}, "edges": [{items}]}}', encoding="utf-8")
    code, out = run(capsys, command, str(path))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "Schema"


# ---------------------------------------------------------------------------
# caps and candidate parsing
# ---------------------------------------------------------------------------

def test_caps_env_lowers_partition_cap(capsys, hexagon_path, monkeypatch):
    monkeypatch.setenv("QNET_STP_CAPS", "partitions=3")
    code, out = run(capsys, "rate", hexagon_path)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "ExactModeLimit"


def test_caps_env_malformed(capsys, hexagon_path, monkeypatch):
    monkeypatch.setenv("QNET_STP_CAPS", "partitions")
    code, _ = run(capsys, "rate", hexagon_path)
    assert code == 2
    monkeypatch.setenv("QNET_STP_CAPS", "nonsense=3")
    code, _ = run(capsys, "rate", hexagon_path)
    assert code == 2


def test_read_caps_defaults_and_overrides():
    caps = read_caps("")
    assert caps.partitions == 12 and caps.subsets == 20
    caps = read_caps("partitions=500, subsets=7")
    assert caps.partitions == 500 and caps.subsets == 7
    with pytest.raises(SchemaError):
        read_caps("partitions=abc")
    with pytest.raises(SchemaError):
        read_caps("partitions=0")
    assert sorted(caps._fields) == ["partitions", "subsets"]
    for gone in ("lp", "oracle_rounds", "audit", "backtrack", "trees"):
        with pytest.raises(SchemaError, match=f"unknown cap '{gone}'"):
            read_caps(f"{gone}=16")


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--candidates", "-a-b"],
     "qnet-stp optimize: argument --candidates: expected one argument"),
    (["rate", "--bogus"], "qnet-stp: unrecognized arguments: --bogus"),
])
def test_usage_errors_print_json(capsys, hexagon_path, argv, message):
    code, out = run(capsys, argv[0], hexagon_path, *argv[1:])
    assert code == 2
    assert json.loads(out) == {"error": {"code": "Schema", "message": message}}


def test_parser_is_built_once_and_keeps_no_state(capsys, hexagon_path):
    assert build_parser() is build_parser()
    plan = ["optimize", hexagon_path, "--candidates", "1-4,2-6,1-5", "--budget", "2"]
    for first, then in [
        (plan + ["--exhaustive"], plan),
        (["pack", hexagon_path, "--method", "oracle", "--rounds", "2"], ["pack", hexagon_path]),
        (["rate", hexagon_path, "--format", "dot"], ["rate", hexagon_path]),
    ]:
        build_parser.cache_clear()
        alone = run(capsys, *then)
        assert run(capsys, *first)[0] in (0, 2)
        assert run(capsys, *then) == alone
    assert json.loads(run(capsys, *plan)[1])["mode"] == "greedy"
    code, out = run(capsys, "rate", hexagon_path, "--format", "dot")
    assert (code, json.loads(out)["error"]["code"]) == (2, "Schema")
    code, out = run(capsys, "pack", hexagon_path)
    doc = json.loads(out)
    # the general packer's plan over N - 1 rounds, not the oracle's two
    assert (code, doc["packing"]["rounds"], "splits" in doc["diagnostics"]) == (0, 5, True)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qnet-stp rate")


def test_parse_candidates():
    assert parse_candidates("1-4,2-6") == [("1", "4", 1), ("2", "6", 1)]
    assert parse_candidates("a-b:3/2") == [("a", "b", Fraction(3, 2))]
    with pytest.raises(SchemaError):
        parse_candidates("14")
    with pytest.raises(SchemaError):
        parse_candidates("1-2-3")
    labels = {"a-1", "c", "a"}
    assert parse_candidates("a-1-c,a-c", labels) == [("a-1", "c", 1), ("a", "c", 1)]
    assert parse_candidates("x-y", labels) == [("x", "y", 1)]  # one dash: split as before
    with pytest.raises(SchemaError):
        parse_candidates("a-1-c-d", labels)


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.dictionaries(st.integers() | st.floats(), inner, max_size=4)
        | st.dictionaries(st.booleans(), inner, max_size=2)
    ),
    max_leaves=20,
)


@given(JSON_DOCS)
def test_printer_matches_indented_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"": [{}, [], ()]}, "\x00\x1f\x7fé \ud800\U0001f600",
    {"b": 1, "a": [True, False, None]}, {2: "x", 10: "y"}, {None: 0}, {1.5: 0, -2.0: 1},
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300], -(10**50),
])
def test_printer_matches_indented_json_dumps_on_edge_cases(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{"a": 1, 2: 3}, {object(): 1}, [object()], {1, 2}])
def test_printer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(doc)
