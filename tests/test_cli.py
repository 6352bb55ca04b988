import enum
import importlib
import io
import json
import random
import re
import sys
import time
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qnet_stp import VertexPartition, WeightedGraph, finest_bound, partition_bound
from qnet_stp import cli
from qnet_stp.cli import _json_text, build_parser, main, parse_candidates
from qnet_stp.errors import ExactModeLimitError, SchemaError
from qnet_stp.netgraph import format_rational
from qnet_stp.packing import (
    SPLIT_DEPTH,
    _general_packing,
    _optimal_flag,
    _oracle_packing,
    general_algorithm,
    packing_rate,
)
from qnet_stp.protocol import run_packing_protocol, secrecy_audit
from qnet_stp.rate_core import (
    PARTITION_BUDGET,
    SUBSET_BUDGET,
    _partition_scan,
    check_no_bottleneck,
    nwt_rate,
)

from conftest import (
    build,
    complete,
    ladder_graph,
    random_connected_graph,
    ring,
    run_measured,
    sorted_path,
)


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


AWKWARD_LABELS = ['q"uote', "back\\slash", "é", "a+b", "c-d", "e:f", '"\\é+-:', "plain"]


def relabelled(g, labels):
    """``g`` with node ``i`` (in label order) renamed ``labels[i]``."""
    name = dict(zip(g.sorted_nodes(), labels))
    return WeightedGraph([name[v] for v in g.node_ids],
                         [(name[e.u], name[e.v], e.rate, e.epsilon) for e in g.edges])


def library_simulate_doc(g, rounds, seed, audit):
    """What ``simulate`` prints, built from the library's reference forms."""
    pk = _general_packing(g)[0] if rounds is None else _oracle_packing(g, rounds)[0]
    doc = run_packing_protocol(g, pk, seed).to_json_dict()
    doc["packing"] = pk.to_json_dict()
    doc["rate"] = format_rational(packing_rate(pk))
    if audit:
        report = secrecy_audit(g, pk)
        doc["audit"] = {**report.to_json_dict(),
                        "secrecy": "uniform" if report.uniform else "nonuniform"}
    return doc


def simulate_cases():
    rng = random.Random(34)
    for i in range(40):
        g = random_connected_graph(rng, max_nodes=7, max_extra=4)
        if i % 2:
            g = relabelled(g, rng.sample(AWKWARD_LABELS, g.node_count))
        yield g, rng.choice([None, None, 1, 2]), rng.randrange(1 << 16), i % 5 == 0
    for seed in range(3):
        yield complete(4, rate=3), None, seed, seed == 0  # multiplicities above 1
        yield relabelled(complete(4, rate=3), AWKWARD_LABELS[:4]), 2, seed, False
    yield relabelled(ring(8), AWKWARD_LABELS), None, 5, True
    # rational epsilons, one of them on a zero-rate link: the security
    # budget and the consumed bits of a link no tree uses
    for i, labels in enumerate((None, AWKWARD_LABELS[:6])):
        g = with_epsilons(ring(6).with_edge("1", "4", 0), [Fraction(1, 3), Fraction(2, 7), 0])
        g = relabelled(g, labels) if labels else g
        yield g, [None, 2][i], 11 + i, i == 0
        yield with_epsilons(complete(4, rate=3), [Fraction(5, 4), Fraction(1, 6)]), i + 1, i, False


def with_epsilons(g, epsilons):
    """``g`` with ``epsilons`` in turn on its links in key order."""
    return WeightedGraph(g.node_ids, [(e.u, e.v, e.rate, epsilons[k % len(epsilons)])
                                      for k, e in enumerate(g.edges)])


def test_simulate_prints_the_library_transcript_byte_for_byte(capsys, graph_file):
    multiplicities = set()
    for i, (g, rounds, seed, audit) in enumerate(simulate_cases()):
        argv = ["simulate", graph_file(f"g{i}.json", g), "--seed", str(seed)]
        argv += ["--rounds", str(rounds)] if rounds is not None else []
        argv += ["--audit"] if audit else []
        code, out = run(capsys, *argv)
        assert code == 0, out
        doc = library_simulate_doc(g, rounds, seed, audit)
        assert out == _json_text(doc) + "\n"
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        multiplicities.update(doc["packing"]["multiplicities"])
    assert max(multiplicities) > 1


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


@pytest.mark.parametrize("name", ["tri_pendant", "hexagon", "two_cliques_hub"])
def test_rate_pack_simulate_and_analyze_build_no_edge_records(request, capsys, graph_file,
                                                              monkeypatch, name):
    # every command reads the graph's rate map and integer links, never WeightedGraph.edges
    g = request.getfixturevalue(name)
    path = graph_file(f"{name}.json", g)
    nodes = g.sorted_nodes()  # a new chord at a new denominator and an existing link
    plan = ["optimize", path, "--candidates", f"{nodes[1]}-{nodes[-1]}:2/3,{nodes[1]}-{nodes[0]}"]
    runs = [["rate", path], ["pack", path], ["simulate", path, "--audit"], ["analyze", path],
            plan, [*plan, "--format", "text"], [*plan, "--budget", "2", "--exhaustive"],
            ["export-dot", path]]
    unpatched = [run(capsys, *argv) for argv in runs]
    assert [code for code, _ in unpatched] == [0] * len(runs)
    built = []

    def edges(g):
        built.append(g)
        raise AssertionError("WeightedGraph.edges")

    monkeypatch.setattr(WeightedGraph, "edges", property(edges))
    assert [run(capsys, *argv) for argv in runs] == unpatched
    assert built == []
    if name == "tri_pendant":  # analyze prints its contracted network
        assert "contracted" in json.loads(unpatched[3][1])


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
    # partition that refused the count before proves it optimal, with no
    # budget left for a partition scan
    path = graph_file("path5.json", build(
        ["1", "2", "3", "4", "5"],
        [("1", "4", 3), ("1", "2", 1), ("2", "3", 3), ("3", "5", 2)],
    ))
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 0)
    code, out = run(capsys, "pack", path, "--method", "oracle", "--rounds", "3")
    assert code == 0
    doc = json.loads(out)
    assert (doc["achieved_rate"], doc["optimal"]) == ("1", True)


def test_exact_step_budget_exits_4(tmp_path):
    # 800,000 one-edge trees over 8 rounds of a two-node link at rate
    # 100,000: 8.3 s and 539 MB without the budget.  The seeding's node
    # steps pass the budget, so the packer refuses before its first forest
    path = tmp_path / "link.json"
    path.write_text(build(["a", "b"], [("a", "b", 100_000)]).to_json(), encoding="utf-8")
    code, out, seconds, peak_mb = run_measured(f"""
import sys
from qnet_stp import packing
from qnet_stp.cli import main
forests = []
seed = packing.spanning_forest
packing.spanning_forest = lambda *args: forests.append(1) or seed(*args)
code = main(["pack", {str(path)!r}, "--method", "oracle", "--rounds", "8"])
print(len(forests))
sys.exit(code)
""")
    assert code == 4
    doc, forests = out.rsplit("\n", 2)[:2]
    assert json.loads(doc)["error"] == {
        "code": "HeuristicFailed", "message": "the exact packer passed its budget of 1000000 search steps",
    }
    assert forests == "0"
    assert seconds < 10 and peak_mb < 100, (seconds, peak_mb)


def counting(monkeypatch, target: str) -> list:
    """Record each call of the function at ``target`` in the returned list."""
    calls = []
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, lambda *args: calls.append(1) or real(*args))
    return calls


def test_oracle_step_budget_bounds_the_time(capsys, graph_file, monkeypatch):
    # a 4-ring at rate 100 over 3 rounds (400 trees) passed the exhaustive
    # search's budget; the exact packer packs it after 200 exchange
    # searches, and refuses at rate 1000 (4000 trees) after 29
    searches = counting(monkeypatch, "qnet_stp.packing._exchange_path")
    for rate, expected, count in ((100, 0, 200), (1000, 4, 29)):
        path = graph_file("ring.json", build(ring(4).node_ids, [(e.u, e.v, rate) for e in ring(4).edges]))
        for argv in (["pack", path, "--method", "oracle"], ["simulate", path, "--rounds", "3"]):
            searches.clear()
            start = time.process_time()
            code, out = run(capsys, *argv)
            assert (code, len(searches)) == (expected, count)
            assert time.process_time() - start < 10
            if expected:
                assert json.loads(out)["error"]["message"] == (
                    "the exact packer passed its budget of 1000000 search steps"
                )
            else:
                field = "rate" if argv[0] == "simulate" else "achieved_rate"
                assert json.loads(out)[field] == "400/3"


def test_simulate_refuses_past_the_protocol_budget(capsys, graph_file, monkeypatch):
    # a 4-ring at rate 20,000 packs 80,000 trees over 3 rounds, 240,000
    # tree-edge instances: 13.6 s, 47 MB of output and a 321 MB peak
    # without the budget on a 2-vCPU VM.  At rate 2,500 it is 30,000, and
    # the refusal comes before any key is drawn; pack still answers
    keys = counting(monkeypatch, "qnet_stp.protocol._pools")
    path = graph_file("ring.json", build(ring(4).node_ids, [(e.u, e.v, 2_500) for e in ring(4).edges]))
    start = time.process_time()
    code, out = run(capsys, "simulate", path)
    assert time.process_time() - start < 10
    assert (code, json.loads(out), keys) == (4, {"error": {
        "code": "HeuristicFailed",
        "message": "running the protocol on 30000 tree-edge instances passes the budget of 20000",
    }}, [])
    code, out = run(capsys, "pack", path)
    assert (code, json.loads(out)["achieved_rate"]) == (0, "10000/3")
    # the unit 4-ring packs 4 trees over 3 rounds: 12 instances
    path = graph_file("unit.json", ring(4))
    for budget, expected, generated in ((12, 0, 1), (11, 4, 0)):
        monkeypatch.setattr("qnet_stp.protocol.PROTOCOL_BUDGET", budget)
        keys.clear()
        code, out = run(capsys, "simulate", path)
        assert (code, len(keys)) == (expected, generated)
    assert json.loads(out)["error"]["message"] == (
        "running the protocol on 12 tree-edge instances passes the budget of 11"
    )


TWO_TRIANGLES = build(
    ["a", "b", "c", "d", "e", "f"],
    [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("d", "e", 1), ("e", "f", 1), ("d", "f", 1),
     ("c", "d", 1)],
)


def test_subset_cap_reaches_the_packers(capsys, graph_file, monkeypatch):
    # the walk over 6 nodes charges 6 steps as it enters its first loop
    path = graph_file("two_triangles.json", TWO_TRIANGLES)
    monkeypatch.setattr("qnet_stp.rate_core.SUBSET_BUDGET", 5)
    for argv in (["pack"], ["pack", "--method", "basic"], ["simulate"]):
        code, out = run(capsys, argv[0], path, *argv[1:])
        assert code == 3
        assert json.loads(out)["error"] == {
            "code": "ExactModeLimit",
            "message": "the subset scan of 6 nodes passed its budget of 5 steps",
        }


def without_link(g, u, v):
    return WeightedGraph(g.node_ids, [e for e in g.edges if e.key != (u, v)])


@pytest.mark.parametrize("make, steps, violator", [
    (lambda request: ring(12).with_edge("1", "7", 1), 3432, None),
    (lambda request: without_link(complete(8), "1", "2"), 284, None),
    (lambda request: request.getfixturevalue("two_cliques_hub"), 197, ("1", "2", "3", "4", "9")),
], ids=["ring12_chord", "complete8_less_a_link", "two_cliques_hub"])
def test_full_subset_walks_take_their_step_counts(request, monkeypatch, make, steps, violator):
    # the least budget each whole walk answers at, and one less refuses;
    # the least degrees and the minimum cut leave these networks undecided
    g = make(request)
    monkeypatch.setattr("qnet_stp.rate_core.SUBSET_BUDGET", steps)
    assert check_no_bottleneck(g).violating_subset == violator
    monkeypatch.setattr("qnet_stp.rate_core.SUBSET_BUDGET", steps - 1)
    with pytest.raises(ExactModeLimitError, match=(
        f"^the subset scan of {g.node_count} nodes passed its budget of {steps - 1} steps$"
    )):
        check_no_bottleneck(g)


@pytest.mark.parametrize("make, units", [
    (lambda request: ring(12), 8182),
    (lambda request: complete(8), 121),
    (lambda request: request.getfixturevalue("two_cliques_hub"), 42),
], ids=["ring12", "complete8", "two_cliques_hub"])
def test_partition_scans_take_their_unit_counts(request, monkeypatch, make, units):
    # the least budget each whole scan answers at, and one less refuses
    g = make(request)
    want = nwt_rate(g)
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", units)
    assert nwt_rate(g) == want
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", units - 1)
    with pytest.raises(ExactModeLimitError, match=(
        f"^the partition scan of {g.node_count} nodes passed its budget of {units - 1} steps$"
    )):
        nwt_rate(g)


def test_the_optimality_scan_takes_its_unit_count(monkeypatch, two_cliques_hub):
    # pack proves the hub network's packing optimal with one scan cut off
    # at its rate, 3/2: it answers at 42 units and refuses at 41
    g = two_cliques_hub
    rate = packing_rate(general_algorithm(g).packing)
    assert rate == Fraction(3, 2) == nwt_rate(g).rate < finest_bound(g)
    labels, scale, links = g.integer_links()
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 42)
    assert _optimal_flag(g, rate) is True
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 41)
    assert _optimal_flag(g, rate) is None
    with pytest.raises(ExactModeLimitError, match=(
        "^the partition scan of 9 nodes passed its budget of 41 steps$"
    )):
        _partition_scan(len(labels), links, rate * scale)


def test_simulate_runs_no_partition_scan(capsys, graph_file, two_cliques_hub, monkeypatch):
    # pack needs one cutoff scan to prove the hub network's packing
    # optimal; simulate prints no such proof, so it runs none
    path = graph_file("hub.json", two_cliques_hub)
    runs = [["simulate", path], ["simulate", path, "--rounds", "2"]]
    unpatched = [run(capsys, *argv) for argv in runs]
    assert [code for code, _ in unpatched] == [0, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("partition scan")

    monkeypatch.setattr("qnet_stp.packing._partition_scan", refuse)
    assert [run(capsys, *argv) for argv in runs] == unpatched
    scans = []

    def counting(*args, **kwargs):
        scans.append(args)
        return _partition_scan(*args, **kwargs)

    monkeypatch.setattr("qnet_stp.packing._partition_scan", counting)
    code, out = run(capsys, "pack", path)
    assert (code, json.loads(out)["optimal"], len(scans)) == (0, True, 1)


def test_partition_cap_reaches_the_optimality_check(capsys, graph_file, monkeypatch):
    # with no budget for a partition scan only the finest or the
    # violator's partition proves a rate optimal: neither bound is the two
    # triangles' rate 1, while the 8-ring's rate 8/7 is its finest bound
    for g, rounds, optimal in ((TWO_TRIANGLES, "1", None), (ring(8), "7", True)):
        path = graph_file("g.json", g)
        for budget, expected in ((PARTITION_BUDGET, True), (0, optimal)):
            monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", budget)
            for argv in (["pack"], ["pack", "--method", "oracle", "--rounds", rounds]):
                code, out = run(capsys, argv[0], path, *argv[1:])
                assert code == 0
                assert json.loads(out)["optimal"] is expected


# the first violator is {1}; the remainder {2,3,4,5} is disconnected
SPLIT5 = build(
    ["1", "2", "3", "4", "5"],
    [("1", "2", 1), ("1", "3", 1), ("2", "4", 1), ("2", "5", 3), ("4", "5", 3)],
)


def test_splice_fallback_needs_no_partition_scan(capsys, graph_file, monkeypatch):
    # the split fails; the fallback's descent needs no partition scan, so
    # a partition budget of 0 changes nothing
    path = graph_file("split.json", SPLIT5)
    code, uncapped = run(capsys, "pack", path)
    assert code == 0
    doc = json.loads(uncapped)
    assert (doc["diagnostics"]["fallback"], doc["optimal"]) == (True, True)
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 0)
    assert run(capsys, "pack", path) == (0, uncapped)


def test_split_fallback_past_the_exact_budget_exits_4(capsys, graph_file, monkeypatch):
    path = graph_file("split.json", SPLIT5)
    monkeypatch.setattr("qnet_stp.packing.EXACT_STEP_BUDGET", 5)
    code, out = run(capsys, "pack", path)
    assert (code, json.loads(out)) == (4, {"error": {"code": "HeuristicFailed", "message": (
        "splice failed (remainder network on ['2', '3', '4', '5'] is not connected; cannot split)"
        " and the exact packer stopped: the exact packer passed its budget of 5 search steps"
    )}})


def test_pack_text(capsys, graph_file):
    path = graph_file("split.json", SPLIT5)
    assert run(capsys, "pack", path, "--format", "text") == (
        0, "rate 1\ntrees 1 rounds 1\n  x1: (1,2) (1,3) (2,4) (2,5)\n"
    )


def test_exhaustive_plan_past_its_cap_exits_3(capsys, graph_file, monkeypatch):
    # two of three candidates make three combinations
    path = graph_file("split.json", SPLIT5)
    argv = ["optimize", path, "--candidates", "1-4,1-5,3-4", "--budget", "2", "--exhaustive"]
    monkeypatch.setattr("qnet_stp.planner.EXHAUSTIVE_PLAN_CAP", 3)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr("qnet_stp.planner.EXHAUSTIVE_PLAN_CAP", 2)
    code, out = run(capsys, *argv)
    assert (code, json.loads(out)) == (3, {"error": {
        "code": "ExactModeLimit",
        "message": "3 candidate combinations exceed the exhaustive-plan cap of 2",
    }})


def deep(frames: int, call):
    """``call()`` from ``frames`` frames further down the stack."""
    return deep(frames - 1, call) if frames else call()


def test_a_1000_node_path_scans_at_any_stack_depth(capsys, graph_file):
    # the partition scan recursed once per node: RecursionError and exit 1
    # from 991 nodes when called from the command line, sooner from deeper
    path = graph_file("path.json", sorted_path(1000, lambda i: 1))
    plan = ["optimize", path, "--candidates", "0000-0002"]
    for argv in (["rate", path], ["analyze", path], plan):
        code, out = deep(700, lambda: run(capsys, *argv))
        doc = json.loads(out)
        assert (code, doc.get("rate", doc.get("final_rate"))) == (0, "1")
        assert doc.get("finest_is_optimal", True) is True


def test_splits_past_the_split_depth_fall_back(capsys, graph_file):
    # each split peels the path's weakest end node, one nested split per
    # node: RecursionError and exit 1 from 493 nodes, after 41 s at 492
    path = graph_file("path.json", sorted_path(1000, lambda i: i + 1))
    code, out = deep(700, lambda: run(capsys, "pack", path))
    doc = json.loads(out)
    diagnostics = doc["diagnostics"]
    assert (code, doc["achieved_rate"], doc["optimal"]) == (0, "1", True)
    assert (diagnostics["fallback"], diagnostics["fallback_reason"]) == (
        True, f"splits nest more than {SPLIT_DEPTH} deep"
    )
    assert diagnostics["splits"] == [
        {"subset": [f"{i:04d}"], "depth": i} for i in range(SPLIT_DEPTH + 1)
    ]
    path = graph_file("short.json", sorted_path(SPLIT_DEPTH + 3, lambda i: i + 1))
    code, out = run(capsys, "simulate", path)
    assert (code, json.loads(out)["rate"]) == (0, "1")


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


#: The bipartition {a, b}{é} caps its rate at 1, so the label é is in
#: every text answer as well as in every DOT one.
ACCENTED = build(["a", "b", "é"], [("a", "b", 2), ("b", "é", 1)])


def run_ascii(monkeypatch, path, argv):
    """Exit code and stdout bytes of one call whose stdout encodes ASCII only."""
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    code = main([argv[0], path, *argv[1:]])
    sys.stdout.flush()
    return code, raw.getvalue()


@pytest.mark.parametrize("argv", [
    ["export-dot"],
    ["pack", "--format", "dot"],
    ["pack", "--format", "text"],
    ["analyze", "--format", "text"],
    ["optimize", "--candidates", "a-é", "--format", "text"],
], ids=["export-dot", "pack-dot", "pack-text", "analyze-text", "optimize-text"])
def test_an_answer_stdout_cannot_encode_exits_2_unwritten(graph_file, monkeypatch, argv):
    # the answer leaves in one write, so none of it precedes the error
    code, out = run_ascii(monkeypatch, graph_file("accented.json", ACCENTED), argv)
    assert code == 2
    doc = json.loads(out)
    assert out == (_json_text(doc) + "\n").encode()
    assert doc["error"]["code"] == "Schema"
    assert doc["error"]["message"].startswith(
        "stdout cannot encode the output: 'ascii' codec can't encode character '\\xe9'"
    )


@pytest.mark.parametrize("argv", [
    ["rate"], ["pack"], ["simulate", "--audit"], ["analyze"], ["optimize", "--candidates", "a-é"],
], ids=lambda argv: argv[0])
def test_json_answers_escape_labels_for_any_stdout(graph_file, monkeypatch, argv):
    code, out = run_ascii(monkeypatch, graph_file("accented.json", ACCENTED), argv)
    assert code == 0
    assert b"\\u00e9" in out
    json.loads(out)


class RefusingStdout(io.StringIO):
    """A stdout that refuses its writes, or only its flushes, as a full disk does."""

    def __init__(self, refuse: str):
        super().__init__()
        self.refuse = refuse

    def write(self, text):
        if self.refuse == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.refuse == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("refuse", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["rate", "{graph}"],
    ["optimize", "{graph}", "--candidates", "1-3"],
    ["rate", "{graph}", "--format", "bogus"],
    ["rate", "{missing}"],
], ids=["answer", "plan", "usage-error", "input-error"])
def test_a_stdout_that_refuses_the_output_exits_2_without_raising(graph_file, monkeypatch, tmp_path,
                                                                   refuse, argv):
    paths = {"graph": graph_file("g.json", ring(4)), "missing": str(tmp_path / "missing.json")}
    refusing = RefusingStdout(refuse)
    monkeypatch.setattr(sys, "stdout", refusing)
    assert main([a.format(**paths) for a in argv]) == 2
    # stdout is left for a sink, so nothing flushes the refused bytes again
    assert sys.stdout is not refusing


@pytest.mark.parametrize("g, argv, code, expected", [
    # 56 key bits: the audit has no cap
    (ring(8), ["simulate", "--audit"], 0, {"audit": {
        "conference_bits": 8, "edge_disjoint": True, "secrecy": "uniform",
        "total_bits": 56, "uniform": True, "violations": [],
    }}),
    (complete(4), ["pack", "--method", "basic"], 0, {
        "optimal": True, "diagnostics": {"backtracks": 2, "fallback": False},
    }),
])
def test_audit_and_backtrack_caps_reach_the_cli(capsys, graph_file, g, argv, code, expected):
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
# the gone caps variable, step budgets and candidate parsing
# ---------------------------------------------------------------------------

def test_the_gone_caps_variable_changes_nothing(capsys, hexagon_path, monkeypatch):
    # QNET_STP_CAPS set node caps before the step budgets; nothing reads it now
    calls = [
        ["rate", hexagon_path], ["pack", hexagon_path, "--format", "text"],
        ["simulate", hexagon_path, "--audit"], ["analyze", hexagon_path],
        ["optimize", hexagon_path, "--candidates", "1-4"], ["export-dot", hexagon_path],
        ["rate", hexagon_path, "--format", "dot"],
    ]
    want = [run(capsys, *argv) for argv in calls]
    assert [code for code, _ in want] == [0] * 6 + [2]
    for value in ("partitions=3", "trees=4", "backtrack=1", "nonsense", " "):
        monkeypatch.setenv("QNET_STP_CAPS", value)
        assert [run(capsys, *argv) for argv in calls] == want, value


@pytest.mark.parametrize("g", [
    pytest.param(complete(16), id="k16"),
    pytest.param(complete(24), id="k24"),
    *(pytest.param(ladder_graph(n, 2 * n - 1), id=f"sparse{n}") for n in (16, 20, 24, 28)),
    *(pytest.param(ladder_graph(n, 3 * n), id=f"dense{n}") for n in (16, 20, 24, 28)),
])
def test_rate_answers_above_the_old_node_caps(capsys, graph_file, g):
    # the partition scan stops at its budget, not at 12 nodes
    path = graph_file("g.json", g)
    code, out = run(capsys, "rate", path)
    assert code == 0
    doc = json.loads(out)
    rate = Fraction(doc["rate"])
    assert rate == partition_bound(g, VertexPartition.from_blocks(doc["minimizing_partition"]))
    assert doc["finest_is_optimal"] is (rate == finest_bound(g))
    if len(g.edges) == g.node_count * (g.node_count - 1) // 2:  # unit K_n: rate n/2
        assert (rate, doc["finest_is_optimal"]) == (Fraction(g.node_count, 2), True)
        code, out = run(capsys, "analyze", path)
        assert code == 0
        report = json.loads(out)
        assert (report["rate"], report["kind"]) == (doc["rate"], "none")


def test_a_ring_past_the_partition_budget_exits_3_the_same_way_twice(capsys, graph_file):
    # the unit ring's scan grows about twofold per node: ring21's is
    # already 6,824,381 units, twice the budget
    path = graph_file("ring24.json", ring(24))
    first = run(capsys, "rate", path)
    assert first == run(capsys, "rate", path)
    code, out = first
    assert (code, json.loads(out)) == (3, {"error": {
        "code": "ExactModeLimit",
        "message": f"the partition scan of 24 nodes passed its budget of {PARTITION_BUDGET} steps",
    }})


def test_pack_of_a_ring_past_the_subset_budget_exits_3(capsys, graph_file):
    # a chord leaves the 24-ring to the subset walk (its least degrees
    # and minimum cut prove nothing), which passes the budget
    chorded = ring(24).with_edge("1", "13", 1)
    code, out = run(capsys, "pack", graph_file("ring24-chord.json", chorded))
    assert (code, json.loads(out)) == (3, {"error": {
        "code": "ExactModeLimit",
        "message": f"the subset scan of 24 nodes passed its budget of {SUBSET_BUDGET} steps",
    }})


@pytest.mark.parametrize("g, rate", [
    (ring(24), "24/23"),
    (ring(64), "64/63"),
    (complete(32), "16"),
], ids=["ring24", "ring64", "complete32"])
def test_pack_of_networks_the_cut_certifies_is_optimal(capsys, graph_file, g, rate):
    # the least degrees and one minimum cut prove no bottleneck, where the
    # subset walk alone would pass its budget
    code, out = run(capsys, "pack", graph_file("g.json", g))
    doc = json.loads(out)
    assert (code, doc["achieved_rate"], doc["optimal"]) == (0, rate, True)


def test_a_low_partition_budget_refuses_optimize_and_unproves_optimal(
    capsys, graph_file, hexagon_path, monkeypatch
):
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 1)
    assert _optimal_flag(TWO_TRIANGLES, Fraction(1)) is None
    code, out = run(capsys, "optimize", hexagon_path, "--candidates", "1-4", "--budget", "1")
    assert (code, json.loads(out)) == (3, {"error": {
        "code": "ExactModeLimit",
        "message": "the partition scan of 6 nodes passed its budget of 1 steps",
    }})
    code, out = run(capsys, "pack", graph_file("g.json", TWO_TRIANGLES))
    assert (code, json.loads(out)["optimal"]) == (0, None)


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--candidates", "-a-b"],
     "qnet-stp optimize: argument --candidates: expected one argument"),
    (["rate", "--bogus"], "qnet-stp: unrecognized arguments: --bogus"),
])
def test_usage_errors_print_json(capsys, hexagon_path, argv, message):
    code, out = run(capsys, argv[0], hexagon_path, *argv[1:])
    assert code == 2
    assert json.loads(out) == {"error": {"code": "Schema", "message": message}}


#: argv ("G" stands for a graph file) and the exit code, ("exit", code)
#: for argparse's own exit after printing help, or None where it depends
#: on the Python version
DISPATCH = [
    ([], 2),
    (["rat", "G"], 2),
    (["-h"], ("exit", 0)),
    (["--help", "rate"], ("exit", 0)),
    (["rate", "-h"], ("exit", 0)),
    (["optimize", "G", "--help"], ("exit", 0)),
    (["rate"], 2),
    (["pack", "--method", "basic"], 2),
    (["pack", "G", "--method", "x"], 2),
    (["rate", "G", "--format", "dot"], 2),
    (["pack", "G", "--method", "oracle", "--rounds", "x"], 2),
    (["simulate", "G", "--seed", "x"], 2),
    (["optimize", "G", "--budget", "x"], 2),
    (["pack", "G", "--method"], 2),
    (["optimize", "G", "--candidates"], 2),
    (["rate", "G", "--bogus"], 2),
    (["rate", "G", "--bogus", "x", "-q"], 2),
    (["rate", "G", "extra"], 2),
    (["export-dot", "G", "G"], 2),
    (["pack", "G", "--meth", "basic"], 0),
    (["rate", "--", "G"], 0),
    (["--", "rate", "G"], None),  # Python 3.13 drops a leading "--"; 3.11 does not
    (["rate", "G", "--", "--format"], 2),
    (["rate", "G", "--format", "text"], 0),
    (["simulate", "G", "--rounds", "2", "--audit"], 0),
    (["export-dot", "G"], 0),
]


def outcome(capsys, argv):
    """Exit code (or argparse's exit), stdout and stderr of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", DISPATCH)
def test_each_command_parses_its_own_argv_as_the_full_parser_does(
    capsys, monkeypatch, hexagon_path, argv, code
):
    argv = [hexagon_path if a == "G" else a for a in argv]
    own = outcome(capsys, argv)
    monkeypatch.setattr(cli, "parse_args", lambda argv: build_parser().parse_args(argv))
    assert outcome(capsys, argv) == own
    assert own[0] == code or code is None
    if own[0] == 2:
        assert json.loads(own[1])["error"]["code"] == "Schema"


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
    assert parse_candidates("1-3,,1-3:2") == [("1", "3", 1), ("1", "3", 2)]  # empty item skipped
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

class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


class Table(dict):
    pass


# the documents the commands build: text keys; None, bool, int and text
# leaves; lists, tuples and dicts
JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=20,
)


@given(JSON_DOCS)
def test_printer_matches_indented_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"": [{}, [], ()]}, "\x00\x1f\x7fé \ud800\U0001f600",
    {"b": 1, "a": [True, False, None]}, -(10**50),
    # exact str and int leaves and keys are written in place; these
    # bools, str and int subclasses and tuples take a call, and dict
    # subclasses are sorted and written as plain dicts are
    [True, 1, [False, 0]], {"t": True, "f": False, "n": 1},
    Level.LOW, [Level.LOW, 1], {"level": Level.LOW},
    Label("é"), [Label("a"), "b"], {Label("b"): Label("x"), "a": 1},
    OrderedDict([("b", 1), ("a", [2])]), {"x": OrderedDict([("d", {}), ("c", ())])},
    Table(b=1, a=Table(z="é")), [Table(), Table(k=[1])],
    ((1, ("a", (2, ()))), ()), {"t": (("b", 1), ["c", (True,)])},
])
def test_printer_matches_indented_json_dumps_on_edge_cases(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    # lists and tuples of two exact str take one template; any other
    # shape, and str subclasses, the recursive call
    ["a", "b"], ("a", "b"), [["a", "b"], ("c", "d")], {"k": ["é", '"'], "t": ("\\", "+-:")},
    [[["a", "b"], ["c", "d"]], [("e", "f")]],
    {"tree": [["1", "2"], ["2", "3"]], "x": [["a", "b"]]},
    [Label("a"), Label("b")], [["a", Label("b")], (Label("c"), "d")], {"p": [Label("x"), "y"]},
    [["a", "b", "c"], ["a"], ["a", 1], [1, "a"], ["a", None], ["a", ["b"]], [[], []]],
    {"pairs": [("a", "b"), ["", ""], ["\x00", "\ud800"]]},
])
def test_printer_writes_pairs_of_strings_as_json_dumps_does(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {2: "x", 10: "y"}, {None: 0}, {1.5: 0, -2.0: 1},
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300], {Level.LOW: "x"},
])
def test_printer_refuses_floats_and_keys_that_are_not_text(doc):
    # json.dumps writes these; no command's document holds them
    with pytest.raises(TypeError):
        _json_text(doc)


@pytest.mark.parametrize("doc", [{"a": 1, 2: 3}, {object(): 1}, [object()], {1, 2}])
def test_printer_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(doc)
