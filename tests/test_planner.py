import math
import random
from fractions import Fraction

import pytest

from qnet_stp import (
    VertexPartition,
    WeightedGraph,
    best_additions,
    bottleneck_report,
    check_no_bottleneck,
    evaluate_addition,
    nwt_rate,
    partition_bound,
)
from qnet_stp.cli import graph_dot
from qnet_stp.errors import (
    DisconnectedError,
    EmptyPlanError,
    ExactModeLimitError,
    NegativeRateError,
    QNetError,
    SchemaError,
    SelfLoopError,
    TrivialNetworkError,
    UnknownNodeError,
)
from qnet_stp.rate_core import _partition_scan

import reference_scans
from conftest import bip_tie7, build, random_connected_graph, ring


# ---------------------------------------------------------------------------
# bottleneck reports
# ---------------------------------------------------------------------------

def test_report_no_bottleneck(hexagon):
    report = bottleneck_report(hexagon)
    assert report.kind == "none"
    assert report.finest_is_optimal
    assert report.contracted is None
    assert report.certificate is None
    assert report.rate == Fraction(6, 5)


def test_report_bipartition(tri_pendant):
    report = bottleneck_report(tri_pendant)
    assert report.kind == "bipartition"
    assert report.minimizing_partition == VertexPartition.from_blocks(
        [["1", "2", "3"], ["4"]]
    )
    # the contraction is a single unit-rate link
    assert report.contracted.sorted_nodes() == ("1+2+3", "4")
    assert report.contracted.rate("1+2+3", "4") == 1
    assert report.certificate is not None
    assert report.certificate.violating_subset == ("4",)


def test_report_multiblock(two_cliques_hub):
    report = bottleneck_report(two_cliques_hub)
    assert report.kind == "multiblock"
    assert report.rate == Fraction(3, 2)
    assert report.best_bipartition_bound == 2
    assert report.minimizing_partition.block_count == 3
    assert report.contracted.node_count == 3
    assert "beats the best bipartition bound 2" in report.narrative


def test_report_partition_achieves_rate():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected_graph(rng, max_nodes=6)
        report = bottleneck_report(g)
        assert partition_bound(g, report.minimizing_partition) == report.rate


def test_report_skips_the_subset_scan_without_a_bottleneck(hexagon, tri_pendant, monkeypatch):
    import qnet_stp.planner as planner

    scanned = []

    def counting(g, **kwargs):
        scanned.append(g)
        return check_no_bottleneck(g, **kwargs)

    monkeypatch.setattr(planner, "check_no_bottleneck", counting)
    assert bottleneck_report(hexagon).certificate is None
    assert scanned == []
    assert bottleneck_report(tri_pendant).certificate == check_no_bottleneck(tri_pendant)
    assert scanned == [tri_pendant]


def test_report_needs_no_subset_budget_without_a_bottleneck(hexagon, tri_pendant, monkeypatch):
    # the subset scan runs only behind a bottleneck, and only then can its
    # budget refuse the report
    monkeypatch.setattr("qnet_stp.rate_core.SUBSET_BUDGET", 0)
    assert bottleneck_report(hexagon).kind == "none"
    with pytest.raises(ExactModeLimitError, match="^the subset scan of 4 nodes passed its budget of 0 steps$"):
        bottleneck_report(tri_pendant)


def test_report_takes_a_two_block_minimizer_as_the_cut(tri_pendant, monkeypatch):
    import qnet_stp.planner as planner

    def refuse(*args):
        raise AssertionError("no cut is needed when the minimizer has two blocks")

    monkeypatch.setattr(planner, "_min_cut", refuse)
    monkeypatch.setattr(planner, "_best_bipartition", refuse)
    report = bottleneck_report(tri_pendant)
    assert report.minimizing_partition.block_count == 2
    assert report.best_bipartition_bound == report.rate == 1


def test_report_searches_for_the_cut_side_once_on_a_tie(monkeypatch):
    import qnet_stp.planner as planner

    searched = []
    search = planner._best_bipartition

    def counting(labels, w, least):
        searched.append(labels)
        return search(labels, w, least)

    monkeypatch.setattr(planner, "_best_bipartition", counting)
    g = bip_tie7()
    assert nwt_rate(g).minimizing_partition.block_count == 3
    report = bottleneck_report(g)
    assert searched == [g.sorted_nodes()]
    assert report.kind == "bipartition"
    assert report.minimizing_partition == VertexPartition.from_blocks(
        [["0", "1", "2", "3", "5", "6"], ["4"]]
    )
    assert report.best_bipartition_bound == report.rate == 5


def test_report_runs_stoer_wagner_once_on_a_tie(monkeypatch):
    # the side search takes its cut weight from the run that gave the bound
    import qnet_stp.planner as planner

    cuts = []
    min_cut = planner._min_cut

    def counting(w):
        cuts.append(len(w))
        return min_cut(w)

    monkeypatch.setattr(planner, "_min_cut", counting)
    assert bottleneck_report(bip_tie7()).kind == "bipartition"
    assert cuts == [7]


def test_the_cut_side_search_charges_the_partition_budget(monkeypatch):
    # the search's first loop tries nodes 1 to 6 of 7, at 7 units each
    import qnet_stp.planner as planner

    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 41)
    with pytest.raises(
        ExactModeLimitError, match="^the bipartition search of 7 nodes passed its budget of 41 steps$"
    ):
        reference_scans.library_best_bipartition(bip_tie7())


def test_the_minimum_cut_charges_the_partition_budget(monkeypatch):
    # the cut of 7 nodes costs 7**3 // 3 = 114 units up front; past it the
    # report stops before the cut, within it the side search runs on
    import qnet_stp.planner as planner

    cuts = []
    min_cut = planner._min_cut
    monkeypatch.setattr(planner, "_min_cut", lambda w: cuts.append(len(w)) or min_cut(w))
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 113)
    with pytest.raises(
        ExactModeLimitError, match="^the minimum cut of 7 nodes passed its budget of 113 steps$"
    ):
        bottleneck_report(bip_tie7())
    assert cuts == []
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 114)
    with pytest.raises(
        ExactModeLimitError, match="^the bipartition search of 7 nodes passed its budget of 114 steps$"
    ):
        bottleneck_report(bip_tie7())
    assert cuts == [7]


def test_report_json(two_cliques_hub):
    doc = bottleneck_report(two_cliques_hub).to_json_dict()
    assert doc["kind"] == "multiblock"
    assert doc["rate"] == "3/2"
    assert doc["best_bipartition_bound"] == "2"
    assert "contracted" in doc and "certificate" in doc


# ---------------------------------------------------------------------------
# single-candidate evaluation
# ---------------------------------------------------------------------------

def test_evaluate_known_additions(hexagon):
    r14 = evaluate_addition(hexagon, "1", "4")
    assert (r14.rate_before, r14.rate_after) == (Fraction(6, 5), Fraction(7, 5))
    assert r14.delta == Fraction(1, 5)

    r26 = evaluate_addition(hexagon, "2", "6")
    assert r26.rate_after == Fraction(4, 3)
    assert r26.minimizing_partition == VertexPartition.from_blocks(
        [["1", "2", "6"], ["3"], ["4"], ["5"]]
    )

    after14 = r14.graph
    assert evaluate_addition(after14, "2", "6").rate_after == Fraction(8, 5)
    assert evaluate_addition(after14, "3", "6").rate_after == Fraction(8, 5)
    r15 = evaluate_addition(after14, "1", "5")
    assert r15.rate_after == Fraction(3, 2)
    assert r15.minimizing_partition == VertexPartition.from_blocks(
        [["1", "4", "5", "6"], ["2"], ["3"]]
    )


def test_evaluate_merges_existing_edge(hexagon):
    result = evaluate_addition(hexagon, "1", "2", 1)
    assert result.graph.rate("1", "2") == 2
    assert result.delta >= 0


def test_evaluate_addition_matches_the_what_if_reference():
    # rational networks; chords at new denominators and raises of existing
    # links, each with its ends in both orders, against nwt_rate of g.with_edge
    rng = random.Random(46)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=7, max_extra=4, rates=("1", "2", "1/2", "3/4"))
        nodes = g.sorted_nodes()
        picks = [(*rng.sample(nodes, 2), rng.choice(("1/3", "5/7", Fraction(6, 5), 2)))
                 for _ in range(3)]
        picks += [(e.u, e.v, rng.choice(("1/3", "1", 1)))
                  for e in rng.sample(g.edges, min(2, len(g.edges)))]
        for u, v, rate in picks:
            for a, b in ((u, v), (v, u)):
                got = evaluate_addition(g, a, b, rate)
                want = reference_scans.evaluate_addition(g, a, b, rate)
                assert got == want
                assert got.to_json_dict() == want.to_json_dict()


WHAT_IF_REFUSALS = [
    # (network, u, v, rate, the refusal), the rate checked first, then the
    # network's own rate, then the ends
    ("ring", "1", "4", 0, NegativeRateError("candidate rate must be positive, got 0")),
    ("ring", "1", "4", "-1/2", NegativeRateError("candidate rate must be positive, got -1/2")),
    ("ring", "1", "4", "x", SchemaError("malformed rational 'x'")),
    ("ring", "1", "4", 0.5, SchemaError(
        "refusing float 0.5: quote it as a string (e.g. \"1/4\") for exactness")),
    ("ring", "1", "4", True, SchemaError("expected a rational, got boolean True")),
    ("ring", "1", "99", 1, UnknownNodeError("unknown node '99'")),
    ("ring", "99", "1", 1, UnknownNodeError("unknown node '99'")),
    ("ring", "98", "99", 1, UnknownNodeError("unknown node '98'")),
    ("ring", "1", "99", 0, NegativeRateError("candidate rate must be positive, got 0")),
    ("ring", "2", "2", 1, SelfLoopError("self-loop at node '2'")),
    ("one node", "a", "b", 1, TrivialNetworkError("rates need at least two nodes")),
    ("one node", "a", "a", 1, TrivialNetworkError("rates need at least two nodes")),
    ("one node", "a", "b", "-1", NegativeRateError("candidate rate must be positive, got -1")),
    ("disconnected", "1", "99", 1, DisconnectedError("positive-rate subgraph is not connected")),
    ("disconnected", "1", "1", 1, DisconnectedError("positive-rate subgraph is not connected")),
    ("disconnected", "1", "99", "y", SchemaError("malformed rational 'y'")),
]


@pytest.mark.parametrize("network, u, v, rate, refusal", WHAT_IF_REFUSALS)
def test_evaluate_addition_refuses_as_the_what_if_reference(network, u, v, rate, refusal):
    g = {
        "ring": ring(6),
        "one node": WeightedGraph(["a"], []),
        "disconnected": build(["1", "2", "3", "4"], [("1", "2", 1), ("3", "4", 1)]),
    }[network]
    with pytest.raises(QNetError) as got:
        evaluate_addition(g, u, v, rate)
    with pytest.raises(QNetError) as want:
        reference_scans.evaluate_addition(g, u, v, rate)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert (type(got.value), str(got.value)) == (type(refusal), str(refusal))


def test_addition_never_hurts():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=6)
        nodes = g.sorted_nodes()
        u, v = rng.sample(nodes, 2)
        result = evaluate_addition(g, u, v, Fraction(rng.randint(1, 3)))
        assert result.delta >= 0
        assert result.rate_after == nwt_rate(result.graph).rate


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_greedy_reproduces_case_study(hexagon):
    plan = best_additions(hexagon, [("1", "4"), ("2", "6")], 1)
    assert plan.steps[0].edge == ("1", "4")
    assert plan.final_rate == Fraction(7, 5)

    two = best_additions(
        hexagon, [("1", "4"), ("2", "6"), ("3", "6"), ("1", "5")], 2
    )
    assert [s.edge for s in two.steps] == [("1", "4"), ("2", "6")]
    assert [s.rate_after for s in two.steps] == [Fraction(7, 5), Fraction(8, 5)]
    assert two.initial_rate == Fraction(6, 5)


def test_tie_breaks_lexicographically(hexagon):
    g = hexagon.with_edge("1", "4", Fraction(1))
    plan = best_additions(g, [("3", "6"), ("2", "6")], 1)
    assert plan.steps[0].edge == ("2", "6")  # both reach 8/5


def test_budget_zero_is_noop(hexagon):
    plan = best_additions(hexagon, [("1", "4")], 0)
    assert plan.steps == ()
    assert plan.initial_rate == plan.final_rate == Fraction(6, 5)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", -1])
def test_a_budget_is_a_non_negative_int_and_not_a_bool(hexagon, bad):
    with pytest.raises(SchemaError) as info:
        best_additions(hexagon, [("1", "4")], bad)
    assert str(info.value) == f"budget must be a non-negative integer, got {bad!r}"


@pytest.mark.parametrize("bad", ["13", "133", "1-3", 5, None, {"a": 1, "b": 2}])
def test_a_candidate_that_is_not_a_tuple_or_list_is_refused(bad):
    # a string unpacks into its characters: "13" would plan link (1,3) and
    # "133" plan it at rate 3; a dict would unpack into its keys
    with pytest.raises(SchemaError) as info:
        best_additions(ring(4), [bad], 1)
    assert str(info.value) == f"candidate must be (u, v) or (u, v, rate), got {bad!r}"


def test_candidates_not_in_a_list_or_tuple_are_refused():
    with pytest.raises(SchemaError) as info:
        best_additions(ring(4), None, 1)
    assert str(info.value) == "candidates must be a list or tuple, got NoneType"


def test_budget_beyond_candidates(hexagon):
    plan = best_additions(hexagon, [("1", "4")], 5)
    assert len(plan.steps) == 1


def test_empty_candidates_rejected(hexagon):
    with pytest.raises(EmptyPlanError):
        best_additions(hexagon, [], 1)
    # but a zero budget asks for nothing, so nothing is an answer
    assert best_additions(hexagon, [], 0).steps == ()


def test_plan_validates_input(hexagon):
    with pytest.raises(SchemaError):
        best_additions(hexagon, [("1", "4")], -1)
    with pytest.raises(SchemaError):
        best_additions(hexagon, [("1", "4", 1, "x")], 1)
    with pytest.raises(NegativeRateError):
        best_additions(hexagon, [("1", "4", 0)], 1)


def test_exhaustive_matches_greedy_here(hexagon):
    candidates = [("1", "4"), ("2", "6"), ("1", "5")]
    greedy = best_additions(hexagon, candidates, 2)
    exhaustive = best_additions(hexagon, candidates, 2, exhaustive=True)
    assert exhaustive.final_rate >= greedy.final_rate
    assert exhaustive.final_rate == Fraction(8, 5)
    assert exhaustive.mode == "exhaustive"


def test_trajectory_never_decreases():
    rng = random.Random(9)
    for _ in range(15):
        g = random_connected_graph(rng, max_nodes=5)
        nodes = g.sorted_nodes()
        candidates = []
        for _ in range(4):
            u, v = rng.sample(nodes, 2)
            candidates.append((u, v, Fraction(rng.randint(1, 2))))
        plan = best_additions(g, candidates, 3)
        rates = [plan.initial_rate] + [s.rate_after for s in plan.steps]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert plan.final_rate == rates[-1]


def test_plan_json(hexagon):
    doc = best_additions(hexagon, [("1", "4")], 1).to_json_dict()
    assert doc["mode"] == "greedy"
    assert doc["initial_rate"] == "6/5"
    assert doc["final_rate"] == "7/5"
    assert doc["steps"][0]["edge"] == ["1", "4"]


def test_plans_scan_each_graph_once(hexagon, monkeypatch):
    import qnet_stp.planner as planner

    calls = []
    scans = []

    def counting(g, **kwargs):
        calls.append(g)
        return nwt_rate(g, **kwargs)

    def counting_scan(n, links, cutoff=None):
        found = _partition_scan(n, links, cutoff)
        scans.append((cutoff, cutoff is not None and Fraction(found[0], found[1]) <= cutoff))
        return found

    monkeypatch.setattr(planner, "nwt_rate", counting)
    monkeypatch.setattr(planner, "_partition_scan", counting_scan)
    candidates = [("1", "4"), ("2", "6"), ("1", "5")]
    greedy = best_additions(hexagon, candidates, 2)
    # the initial rate only: each step's rate comes from its winner's scan
    assert len(calls) == 1
    # step 1 scans 1-4 (7/5); the finest partition (7/5 with 1-5 or 2-6
    # added) drops the others.  Step 2 scans 1-4 + 1-5 (3/2), then 1-4 + 2-6
    # past that cutoff (8/5).
    assert scans == [(None, False), (None, False), (Fraction(3, 2), False)]
    calls.clear()
    scans.clear()
    exhaustive = best_additions(hexagon, candidates, 2, exhaustive=True)
    # the initial rate only: the last step's rate is the winner's scan and
    # the first step's is one scan of the winner's first addition
    assert len(calls) == 1
    # 1-4 + 1-5 (3/2), 1-4 + 2-6 past that cutoff (8/5); the finest
    # partition (8/5 with 1-5 + 2-6 added) drops the third combination;
    # then 1-4 alone (7/5) for the first step
    assert scans == [(None, False), (Fraction(3, 2), False), (None, False)]
    monkeypatch.undo()
    for plan in (greedy, exhaustive):
        current = hexagon
        for step in plan.steps:
            before = nwt_rate(current).rate
            assert step == reference_scans.score_addition(current, *step.edge, step.added_rate, before)
            current = step.graph


def ring_with_chords(rng, n):
    """An ``n``-ring with a few chords, rates drawn from whole and half units."""
    nodes = [str(i) for i in range(1, n + 1)]
    edges = {(nodes[i], nodes[(i + 1) % n]): rng.choice(("1", "1", "2", "1/2")) for i in range(n)}
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges[(u, v)] = rng.choice(("1", "3/2"))
    return build(nodes, [(u, v, r) for (u, v), r in edges.items()])


def candidate_pool(rng, g):
    """Chords with new denominators, an existing edge, a duplicate and a reversed copy."""
    nodes = g.sorted_nodes()
    pool = []
    for _ in range(rng.randint(2, 9)):
        u, v = rng.sample(nodes, 2)
        pool.append((u, v, rng.choice(("1", "1", "1/3", "5/2"))))
    existing = rng.choice(g.edges)
    pool.append((existing.v, existing.u, rng.choice(("1", "1/3"))))
    pool.append(rng.choice(pool))
    u, v, rate = rng.choice(pool)
    pool.append((v, u, rate))
    rng.shuffle(pool)
    return pool


def test_plans_match_the_per_candidate_reference(monkeypatch):
    import qnet_stp.planner as planner

    counts = {"rates": 0, "scans": 0}

    def counting(g, **kwargs):
        counts["rates"] += 1
        return nwt_rate(g, **kwargs)

    def counting_scan(n, links, cutoff=None):
        counts["scans"] += 1
        return _partition_scan(n, links, cutoff)

    rng = random.Random(11)
    top_ties = dropped = reused = 0
    for _ in range(30):
        g = ring_with_chords(rng, rng.randint(6, 9))
        pool = candidate_pool(rng, g)
        first = [evaluate_addition(g, u, v, rate) for u, v, rate in pool]
        best = max(r.rate_after for r in first)
        top_ties += len({(r.edge, r.added_rate) for r in first if r.rate_after == best}) > 1
        for budget in (1, 2, 3):
            for exhaustive in (False, True):
                counts.update(rates=0, scans=0)
                with monkeypatch.context() as m:
                    m.setattr(planner, "nwt_rate", counting)
                    m.setattr(planner, "_partition_scan", counting_scan)
                    got = best_additions(g, pool, budget, exhaustive=exhaustive)
                want = reference_scans.best_additions(g, pool, budget, exhaustive=exhaustive)
                assert got.to_json_dict() == want.to_json_dict()
                assert [s.graph for s in got.steps] == [s.graph for s in want.steps]
                # each step's DOT, against the reference's networks rebuilt from their links
                rebuilt = [WeightedGraph(s.graph.node_ids, s.graph.edges) for s in want.steps]
                assert [graph_dot(s.graph) for s in got.steps] == list(map(graph_dot, rebuilt))
                # the initial rate only
                assert counts["rates"] == 1
                reused += len(got.steps)
                if exhaustive:
                    # and one scan per prefix of the winner, for the steps before the last
                    counts["scans"] -= len(got.steps) - 1
                    candidates = math.comb(len(pool), budget)
                else:
                    candidates = sum(len(pool) - k for k in range(budget))
                assert counts["scans"] <= candidates
                dropped += candidates - counts["scans"]
    assert top_ties > 0
    assert dropped > 0 and reused > 0


@pytest.mark.parametrize("exhaustive", [False, True])
def test_plans_refuse_the_first_bad_candidate(hexagon, exhaustive):
    # pool order: the self-loop first; sorted order: the unknown node first
    pool = [("1", "4"), ("6", "6"), ("1", "99"), ("2", "5")]
    with pytest.raises((UnknownNodeError, SelfLoopError)) as got:
        best_additions(hexagon, pool, 2, exhaustive=exhaustive)
    with pytest.raises((UnknownNodeError, SelfLoopError)) as want:
        reference_scans.best_additions(hexagon, pool, 2, exhaustive=exhaustive)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    if exhaustive:
        assert (type(got.value), str(got.value)) == (UnknownNodeError, "unknown node '99'")
    else:
        assert (type(got.value), str(got.value)) == (SelfLoopError, "self-loop at node '6'")
