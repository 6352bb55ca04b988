import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qnet_stp import (
    Caps,
    PackingOutcome,
    SpanningTree,
    TreePacking,
    basic_algorithm,
    brute_force_packing,
    exact_packing,
    general_algorithm,
    nwt_length,
    nwt_rate,
    packing_rate,
    validate_packing,
)
from qnet_stp.cli import main
from qnet_stp import packing
from qnet_stp.errors import (
    HeuristicFailedError,
    InvalidPackingError,
    PreconditionFailedError,
    SchemaError,
)
from qnet_stp.netgraph import enumerate_spanning_trees, spanning_forest

from conftest import build, complete, random_connected_graph, ring, run_measured
from reference_scans import reweight_by_lp


# ---------------------------------------------------------------------------
# the packing container
# ---------------------------------------------------------------------------

def tree(*edges):
    return SpanningTree.of(list(edges))


def test_duplicate_trees_merge():
    t = tree(("1", "2"), ("1", "3"))
    pk = TreePacking.weighted([t, t], [Fraction(1, 4), Fraction(1, 4)])
    assert len(pk.trees) == 1
    assert pk.weights == (Fraction(1, 2),)


def test_zero_weight_dropped():
    t1 = tree(("1", "2"), ("1", "3"))
    t2 = tree(("1", "2"), ("2", "3"))
    pk = TreePacking.weighted([t1, t2], [Fraction(0), Fraction(1)])
    assert pk.trees == (t2,)


def test_negative_weight_rejected():
    t = tree(("1", "2"))
    with pytest.raises(InvalidPackingError):
        TreePacking.weighted([t], [Fraction(-1)])
    with pytest.raises(InvalidPackingError):
        TreePacking.multigraph([t], [-1], 2)
    with pytest.raises(SchemaError):
        TreePacking.multigraph([t], [1], 0)


def test_instances_in_order(triangle):
    pk = brute_force_packing(triangle, 2).packing
    labels = [(i, c) for i, c, _ in pk.instances()]
    assert labels == [(0, 0), (1, 0), (2, 0)]
    assert pk.tree_count == 3


def test_validate_packing_rejects_non_tree(triangle):
    loop = tree(("1", "2"), ("1", "3"), ("2", "3"))
    pk = TreePacking.multigraph([loop], [1], 1)
    assert not validate_packing(triangle, pk).ok


def test_validate_packing_capacity(triangle):
    t = tree(("1", "2"), ("1", "3"))
    ok = TreePacking.multigraph([t], [2], 2)
    assert validate_packing(triangle, ok).ok
    crowded = TreePacking.multigraph([t], [3], 2)
    verdict = validate_packing(triangle, crowded)
    assert not verdict.ok
    assert verdict.violated_edge in (("1", "2"), ("1", "3"))


def test_weighted_capacity_check():
    g = build(["1", "2"], [("1", "2", "1/2")])
    t = tree(("1", "2"))
    assert validate_packing(g, TreePacking.weighted([t], [Fraction(1, 2)])).ok
    assert not validate_packing(g, TreePacking.weighted([t], [Fraction(2, 3)])).ok


def test_mode_conversion_roundtrip(triangle):
    pk = brute_force_packing(triangle, 2).packing
    w = TreePacking.weighted(pk.trees, pk.weights)
    assert w.weights == (Fraction(1, 2),) * 3
    assert packing_rate(w) == packing_rate(pk) == Fraction(3, 2)
    back = TreePacking.multigraph(w.trees, w.multiplicities, w.rounds)
    assert back.rounds == 2
    assert back.multiplicities == (1, 1, 1)


@given(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=4),
                min_size=1, max_size=4))
def test_weighted_roundtrip_preserves_rate(weights):
    if not any(weights):
        return
    trees = [
        tree(("1", "2"), ("1", "3")),
        tree(("1", "2"), ("2", "3")),
        tree(("1", "3"), ("2", "3")),
        tree(("1", "2"), ("1", "3")),
    ][: len(weights)]
    pk = TreePacking.weighted(trees, weights)
    multi = TreePacking.multigraph(pk.trees, pk.multiplicities, pk.rounds)
    back = TreePacking.weighted(multi.trees, multi.weights)
    assert packing_rate(back) == packing_rate(pk)
    assert back == pk


def test_a_packing_is_its_trees_multiplicities_and_rounds():
    # built from weights or from multiplicities, equal packings compare equal
    t = tree(("1", "2"), ("1", "3"))
    assert TreePacking.weighted([t], [Fraction(1, 2)]) == TreePacking.multigraph([t], [1], 2)
    assert TreePacking._fields == ("trees", "multiplicities", "rounds")


# ---------------------------------------------------------------------------
# exact packer
# ---------------------------------------------------------------------------

def test_triangle_two_rounds(triangle):
    out = brute_force_packing(triangle, 2)
    assert out.packing.tree_count == 3
    assert out.achieved_rate == Fraction(3, 2)
    assert out.optimal
    assert out.packing == exact_packing(triangle, 2, 3)
    assert validate_packing(triangle, out.packing).ok


def test_oracle_packing_is_the_exact_packers_at_its_count(
    triangle, k4, k4_minus, tri_pendant, square, square_diag
):
    for g in (triangle, k4, k4_minus, tri_pendant, square, square_diag):
        for rounds in (1, 2, 3):
            pk = brute_force_packing(g, rounds).packing
            assert pk == exact_packing(g, rounds, pk.tree_count)


def test_exact_matches_length_formula_on_fixtures(
    triangle, k4, k4_minus, tri_pendant, square, square_diag
):
    for g in (triangle, k4, k4_minus, tri_pendant, square, square_diag):
        for n in (1, 2, 3):
            out = brute_force_packing(g, n)
            assert out.packing.tree_count == nwt_length(g, n)
            assert validate_packing(g, out.packing).ok


def test_fractional_rates_floor_capacities():
    # per-edge flooring can cost a tree relative to the ideal length
    g = build(["1", "2", "3"],
              [("1", "2", "2/3"), ("1", "3", "2/3"), ("2", "3", "2/3")])
    assert nwt_length(g, 2) == 2
    out = brute_force_packing(g, 2)
    assert out.packing.tree_count == 1
    assert not out.optimal


def test_oracle_has_no_round_cap():
    # 9 rounds of a triangle: 27 edge copies, 13 trees of two edges
    out = brute_force_packing(ring(3), 9)
    assert out.packing.tree_count == nwt_length(ring(3), 9) == 13
    assert validate_packing(ring(3), out.packing).ok
    assert out.diagnostics == {"packer_calls": 1}


@pytest.mark.parametrize("g, rounds, trees", [
    (complete(6), 5, 15),
    (complete(8), 7, 28),
    (complete(10), 9, 45),
    (complete(12), 8, 48),
], ids=["k6", "k8", "k10", "k12"])
def test_oracle_packs_what_the_exhaustive_search_refused(g, rounds, trees):
    # 1296 spanning trees of K6 up to 6.2e10 of K12, past the old search's
    # 800-tree cap; K10 over 9 rounds was past its 8-round cap
    out = brute_force_packing(g, rounds)
    assert out.packing.tree_count == trees
    assert out.optimal is True
    assert validate_packing(g, out.packing).ok
    assert out.diagnostics == {"packer_calls": 1}


def test_rate_descent_ends_at_the_network_rate(tri_pendant):
    # from 3 trees a round each refusal names a partition of lower bound,
    # down to the pendant's bound 1, the rate: the last call is the exact
    # packer's at the rate, and the partition that refused before it
    # proves that rate
    pk, refusal, calls = packing._descend(tri_pendant, 1, 3, fixed_rounds=False)
    assert pk == exact_packing(tri_pendant, 1, 1)
    assert (str(refusal), calls) == ("{1,2,3}{4}", 3)
    assert packing._descend(tri_pendant, 1, 1, fixed_rounds=False) == (pk, None, 1)


def test_oracle_descends_along_refuting_partitions():
    # the path 3-1-2-4 over 3 rounds carries 9, 4 and 6 copies: it starts
    # at min(19 // 3, 6) = 6 trees, and each refusal names a partition of
    # lower bound until the 4 copies of (1, 2) are the answer
    g = build(["1", "2", "3", "4"], [("1", "2", "3/2"), ("1", "3", 3), ("2", "4", 2)])
    out = brute_force_packing(g, 3)
    assert out.packing.tree_count == 4
    assert out.diagnostics == {"packer_calls": 3}
    assert validate_packing(g, out.packing).ok
    assert out.optimal is False  # 4/3 of a rate of 3/2


def test_oracle_reports_the_last_refusing_partition():
    # the path 4-1-2-3-5 over 3 rounds: the (1, 2) link, 3 copies, is the
    # answer, and the partition that refused the count before it proves
    # it optimal under a partition cap the scan cannot pass
    g = build(["1", "2", "3", "4", "5"],
              [("1", "4", 3), ("1", "2", 1), ("2", "3", 3), ("3", "5", 2)])
    out = brute_force_packing(g, 3, caps=Caps(partitions=2))
    assert (out.packing.tree_count, out.optimal) == (3, True)
    assert validate_packing(g, out.packing).ok


def test_exact_prefers_lexicographic_smallest(triangle):
    # over 2 rounds the triangle has one packing: each of its trees once
    out = brute_force_packing(triangle, 2)
    assert [t.edges for t in out.packing.trees] == [
        (("1", "2"), ("1", "3")),
        (("1", "2"), ("2", "3")),
        (("1", "3"), ("2", "3")),
    ]


# ---------------------------------------------------------------------------
# exact packer (matroid partition)
# ---------------------------------------------------------------------------

def test_exact_packing_on_complete_graphs():
    for n in (6, 8, 10, 12):
        g = complete(n)
        pk = exact_packing(g, 1, n // 2)
        # unit rates over one round: edge-disjoint trees, each once
        assert (pk.multiplicities, pk.rounds) == ((1,) * (n // 2), 1)
        assert validate_packing(g, pk).ok


def test_exact_packing_is_deterministic(square_diag_tail):
    assert exact_packing(square_diag_tail, 2, 3) == exact_packing(square_diag_tail, 2, 3)


def test_exact_packing_names_a_refuting_partition(tri_pendant):
    # 8 edge copies over 2 rounds: 2 trees fit, 3 would need 9
    assert exact_packing(tri_pendant, 2, 2).tree_count == 2
    with pytest.raises(HeuristicFailedError) as info:
        exact_packing(tri_pendant, 2, 3)
    assert str(info.value) == (
        "3 edge-disjoint spanning trees do not fit over 2 rounds: "
        "partition {1}{2}{3}{4} is crossed by 8 edge copies, fewer than 3 x 3"
    )
    assert info.value.partition.is_finest()


def test_exact_packing_floors_capacities():
    # rate 1/2 edges carry no copy in one round
    g = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", "1/2"), ("1", "3", "1/2")])
    with pytest.raises(HeuristicFailedError, match="crossed by 1 edge copies, fewer than 1 x 2"):
        exact_packing(g, 1, 1)
    assert exact_packing(g, 2, 1).tree_count == 1
    assert exact_packing(g, 1, 0).trees == ()


def test_exact_packing_refuses_an_oversize_target_before_building(monkeypatch):
    # seeding 250,001 forests of a two-node link charges 1,000,004 node
    # steps: the refusal comes before the first forest
    forests = []

    def counting_forest(nodes, keys):
        forests.append(len(keys))
        return spanning_forest(nodes, keys)

    monkeypatch.setattr(packing, "spanning_forest", counting_forest)
    g = build(["a", "b"], [("a", "b", 250_001)])
    with pytest.raises(HeuristicFailedError, match="passed its budget of 1000000") as info:
        exact_packing(g, 1, 250_001)
    assert info.value.partition is None
    assert forests == []
    assert exact_packing(g, 1, 1000).tree_count == 1000
    assert forests == [1] * 1000


RING = "build([str(i) for i in range(1, 5)], [(str(i), str(i % 4 + 1), {rate}) for i in range(1, 5)])"


def test_exact_packing_step_budget_bounds_the_time():
    # 4000 trees on a 4-ring at rate 1000 over 3 rounds: 37.6 s without a budget
    code, out, _, peak_mb = run_measured(f"""
import time
from conftest import build
from qnet_stp import exact_packing
from qnet_stp.errors import HeuristicFailedError
g = {RING.format(rate=1000)}
start = time.process_time()
try:
    exact_packing(g, 3, 4000)
except HeuristicFailedError as exc:
    print(exc.partition, exc)
print(time.process_time() - start)
""")
    assert code == 0
    message, seconds = out.splitlines()
    assert message == "None the exact packer passed its budget of 1000000 search steps"
    assert float(seconds) < 2 and peak_mb < 100, (seconds, peak_mb)


def test_exact_packing_within_budget_on_a_heavy_ring():
    # 400 trees on the same ring at rate 100: past the old oracle's
    # budget, within this one
    code, out, _, _ = run_measured(f"""
import time
from conftest import build
from qnet_stp import brute_force_packing
g = {RING.format(rate=100)}
start = time.process_time()
outcome = brute_force_packing(g, 3)
print(outcome.packing.tree_count, outcome.optimal, time.process_time() - start < 1)
""")
    assert (code, out) == (0, "400 True True\n")


def probe_graph(n, seed):
    """Sparse N/seed: a random tree on N nodes plus N random pairs, rates 1..3."""
    rng = random.Random(seed)
    nodes = [str(i) for i in range(1, n + 1)]
    edges = {}
    for i in range(1, n):
        key = tuple(sorted((nodes[i], nodes[rng.randrange(i)])))
        edges[key] = rng.randint(1, 3)
    for _ in range(n):
        edges.setdefault(tuple(sorted(rng.sample(nodes, 2))), rng.randint(1, 3))
    return build(nodes, [(u, v, r) for (u, v), r in edges.items()])


PROBES = {f"sparse{n}/{s}": (probe_graph, n, s)
          for n in (6, 7, 8, 9, 10, 12) for s in range(1, 6)}
PROBES.update({f"k{n}": (lambda n, _: complete(n), n, None) for n in (6, 8, 10, 12)})


@pytest.mark.parametrize("name", sorted(PROBES))
def test_pack_is_optimal_on_probe_graphs(name, tmp_path, capsys):
    # several of these hung in the oracle fallback or exited 4
    make, n, seed = PROBES[name]
    g = make(n, seed)
    path = tmp_path / "g.json"
    path.write_text(g.to_json(), encoding="utf-8")
    assert main(["pack", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal"] is True
    spec = doc["packing"]
    pk = TreePacking.multigraph(spec["trees"], spec["multiplicities"], spec["rounds"])
    assert validate_packing(g, pk).ok
    assert pk.tree_count == nwt_rate(g).rate * pk.rounds


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def test_basic_on_fixtures(triangle, k4, k4_minus, square, square_diag, hexagon):
    expected = {
        "triangle": (Fraction(3, 2), 3, 2),
        "k4": (Fraction(2), 6, 3),
        "k4_minus": (Fraction(5, 3), 5, 3),
        "square": (Fraction(4, 3), 4, 3),
        "square_diag": (Fraction(5, 3), 5, 3),
        "hexagon": (Fraction(6, 5), 6, 5),
    }
    graphs = {
        "triangle": triangle, "k4": k4, "k4_minus": k4_minus,
        "square": square, "square_diag": square_diag, "hexagon": hexagon,
    }
    for name, g in graphs.items():
        rate, k, n = expected[name]
        out = basic_algorithm(g)
        assert out.achieved_rate == rate, name
        assert out.packing.tree_count == k, name
        assert out.packing.rounds == n, name
        assert out.optimal, name
        assert validate_packing(g, out.packing).ok, name


def test_basic_requires_no_bottleneck(tri_pendant):
    with pytest.raises(PreconditionFailedError):
        basic_algorithm(tri_pendant)


def test_basic_requires_integer_rates():
    g = build(["1", "2"], [("1", "2", "1/2")])
    with pytest.raises(PreconditionFailedError):
        basic_algorithm(g)


def test_basic_packs_greedy_trees_within_the_step_budget(monkeypatch):
    # each extraction on a 4-ring costs 4 edge and 4 node steps: 8 trees
    # take 64 of a budget of 80, and 12 trees would take 96, so the
    # greedy refuses before the first
    monkeypatch.setattr(packing, "EXACT_STEP_BUDGET", 80)
    two, three = (build(ring(4).node_ids, [(e.u, e.v, r) for e in ring(4).edges]) for r in (2, 3))
    out = basic_algorithm(two)
    assert (out.packing.tree_count, out.optimal) == (8, True)
    assert validate_packing(two, out.packing).ok
    with pytest.raises(HeuristicFailedError) as exc:
        basic_algorithm(three)
    assert str(exc.value) == "extracting 12 trees passes the budget of 80 steps"
    assert exc.value.partition is None


@pytest.mark.parametrize("rate, budget", [(1000, 100), (3000, 10000)])
def test_basic_refuses_greedy_trees_past_the_step_budget(rate, budget, monkeypatch):
    # 4 * rate trees at 8 steps each pass the budget many times over: the
    # refusal comes before the first extraction, not after thousands
    monkeypatch.setattr(packing, "EXACT_STEP_BUDGET", budget)
    g = build(ring(4).node_ids, [(e.u, e.v, rate) for e in ring(4).edges])
    with pytest.raises(HeuristicFailedError) as exc:
        basic_algorithm(g)
    assert str(exc.value) == f"extracting {4 * rate} trees passes the budget of {budget} steps"
    assert exc.value.partition is None


def test_basic_fallback_still_optimal(triangle, monkeypatch):
    monkeypatch.setattr(packing, "BACKTRACK_BUDGET", 0)
    out = basic_algorithm(triangle)
    assert out.achieved_rate == Fraction(3, 2)
    assert out.diagnostics["fallback"]
    assert out.diagnostics["backtracks"] == 0
    assert validate_packing(triangle, out.packing).ok


def test_basic_fallback_counts_the_candidates_tried():
    # after four greedy trees 2-4 and 3-4 weigh 2; the one candidate
    # holding both leaves the triangle 2-3-4, not a tree: the search
    # tries it, then gives up
    g = build(["1", "2", "3", "4"],
              [("1", "2", 1), ("1", "3", 1), ("2", "3", 1), ("2", "4", 1), ("3", "4", 2)])
    out = basic_algorithm(g)
    assert out.optimal and out.achieved_rate == 2
    assert out.diagnostics == {
        "backtracks": 1, "fallback": True,
        "fallback_reason": "no next-to-last tree leaves a clean final tree",
    }
    assert validate_packing(g, out.packing).ok


def test_general_on_pendant(tri_pendant):
    out = general_algorithm(tri_pendant)
    assert out.achieved_rate == 1
    assert out.packing.tree_count == 2
    assert out.packing.rounds == 2
    assert out.optimal
    assert validate_packing(tri_pendant, out.packing).ok
    assert out.diagnostics["splits"] == [{"subset": ["4"], "depth": 0}]


def test_general_on_tail_fixture(square_diag_tail):
    out = general_algorithm(square_diag_tail)
    assert out.achieved_rate == Fraction(3, 2)
    assert (out.packing.tree_count, out.packing.rounds) == (9, 6)
    assert out.optimal
    assert validate_packing(square_diag_tail, out.packing).ok


def test_general_recurses_twice_on_hub_fixture(two_cliques_hub):
    out = general_algorithm(two_cliques_hub)
    assert out.achieved_rate == Fraction(3, 2)
    assert out.optimal
    assert validate_packing(two_cliques_hub, out.packing).ok
    depths = [s["depth"] for s in out.diagnostics["splits"]]
    assert depths == [0, 1]


def test_packers_scan_each_network_once(square_diag_tail, monkeypatch):
    from qnet_stp import rate_core
    from qnet_stp.rate_core import _partition_scan, check_no_bottleneck

    scanned, rates, cutoffs = [], [], []

    def counting_check(g, **kwargs):
        scanned.append(g.node_count)
        return check_no_bottleneck(g, **kwargs)

    def counting_rate(w, cutoff=None):
        rates.append(len(w))
        return _partition_scan(w, cutoff)

    def counting_scan(w, cutoff=None):
        cutoffs.append(cutoff)
        return _partition_scan(w, cutoff)

    monkeypatch.setattr(packing, "check_no_bottleneck", counting_check)
    # the rate scan, wherever it is called from
    monkeypatch.setattr(rate_core, "_partition_scan", counting_rate)
    monkeypatch.setattr(packing, "_partition_scan", counting_scan)
    # no bottleneck: one scan, and the finest bound proves the rate optimal
    assert general_algorithm(ring(8)).optimal
    assert (scanned, rates, cutoffs) == ([8], [], [])
    scanned.clear()
    # the whole network, the contraction, the remainder: each scanned once
    assert general_algorithm(square_diag_tail).optimal
    assert scanned == [6, 3, 4]
    assert rates == []
    scanned.clear()
    assert basic_algorithm(ring(8)).optimal
    assert (scanned, rates, cutoffs) == ([8], [], [])
    scanned.clear()
    # the remainder {2,3,4,5} is disconnected, so the split fails; the
    # fallback's descent reaches the rate with no scan, and its last
    # refusing partition proves it
    split = build(
        ["1", "2", "3", "4", "5"],
        [("1", "2", 1), ("1", "3", 1), ("2", "4", 1), ("2", "5", 3), ("4", "5", 3)],
    )
    out = general_algorithm(split)
    assert out.diagnostics["fallback"] and out.optimal
    assert (scanned, rates, cutoffs) == ([5], [], [])


def test_split_fallback_answers_above_the_partition_cap():
    # sparse 13/5: the remainder of the first split is disconnected, and
    # the descent packs the rate, 1, with no partition scan over 13 nodes
    g = probe_graph(13, 5)
    out = general_algorithm(g)
    assert out.diagnostics["fallback"] is True
    assert out.diagnostics["fallback_reason"].endswith("is not connected; cannot split")
    assert (out.achieved_rate, out.optimal) == (1, True)
    assert validate_packing(g, out.packing).ok


def test_linear_bounds_prove_optimality_above_the_partition_cap():
    # 14 nodes pass the partition cap of 12, but the ring's rate 14/13 is
    # its finest bound, so every packer proves it without a partition scan
    g = ring(14)
    outcomes = [general_algorithm(g), basic_algorithm(g), brute_force_packing(g, 13)]
    assert [(out.achieved_rate, out.optimal) for out in outcomes] == [(Fraction(14, 13), True)] * 3
    # a rate below every linear bound stays unproven there
    assert brute_force_packing(g, 1).optimal is None


def test_general_delegates_without_bottleneck(triangle):
    out = general_algorithm(triangle)
    assert out.achieved_rate == Fraction(3, 2)
    assert validate_packing(triangle, out.packing).ok


def test_heuristics_match_exact_rate_randomized():
    rng = random.Random(41)
    for _ in range(30):
        g = random_connected_graph(rng, max_nodes=5, rates=(1, 2))
        out = general_algorithm(g)
        assert validate_packing(g, out.packing).ok
        assert out.achieved_rate == nwt_rate(g).rate


# ---------------------------------------------------------------------------
# weight optimization over a fixed tree set
# ---------------------------------------------------------------------------

def test_reweight_hexagon_trees(hexagon):
    trees = list(enumerate_spanning_trees(hexagon))
    pk = reweight_by_lp(hexagon, trees)
    assert packing_rate(pk) == Fraction(6, 5)
    assert pk.weights == (Fraction(1, 5),) * 6
    assert validate_packing(hexagon, pk).ok


def test_reweight_rejects_foreign_trees(triangle):
    with pytest.raises(InvalidPackingError):
        reweight_by_lp(triangle, [tree(("1", "2"), ("1", "4"))])


def test_reweight_reaches_exact_rate_randomized():
    rng = random.Random(43)
    for _ in range(15):
        g = random_connected_graph(rng, max_nodes=5, rates=(1, 2, Fraction(3, 2)))
        trees = list(enumerate_spanning_trees(g))
        pk = reweight_by_lp(g, trees)
        assert packing_rate(pk) == nwt_rate(g).rate
        assert validate_packing(g, pk).ok
