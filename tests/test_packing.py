import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qnet_stp import (
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
from qnet_stp.packing import SPLIT_DEPTH
from qnet_stp.errors import (
    HeuristicFailedError,
    InvalidPackingError,
    PreconditionFailedError,
    QNetError,
    SchemaError,
)
from qnet_stp.netgraph import VertexPartition, _tree_walk, enumerate_spanning_trees, spanning_forest

from conftest import build, complete, random_connected_graph, ring, run_measured, sorted_path
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


def test_packers_return_canonical_trees():
    # TreePacking keeps a SpanningTree as given, so every producer of one
    # keeps the invariant: edges sorted, each key canonical
    rng = random.Random(31)
    for _ in range(300):
        g = random_connected_graph(rng, max_nodes=7, max_extra=5)
        rounds = rng.randint(1, 3)
        oracle = brute_force_packing(g, rounds).packing
        packings = [general_algorithm(g).packing, oracle,
                    exact_packing(g, rounds, oracle.tree_count)]
        try:
            packings.append(basic_algorithm(g).packing)
        except PreconditionFailedError:
            pass  # a bottleneck: the greedy does not apply
        trees = [t for pk in packings for t in pk.trees]
        trees += list(enumerate_spanning_trees(g))[:50]
        assert trees
        for t in trees:
            assert type(t) is SpanningTree and t == SpanningTree.of(t.edges)


def test_a_spanning_tree_is_kept_as_given():
    t = tree(("1", "2"), ("1", "3"))
    assert TreePacking.multigraph([t], [1], 1).trees[0] is t
    assert TreePacking.multigraph([[("3", "1"), ("2", "1")]], [1], 1).trees == (t,)


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
    with pytest.raises(InvalidPackingError, match="one multiplicity per tree required"):
        TreePacking.multigraph([t, tree(("1", "3"))], [1], 1)
    with pytest.raises(SchemaError):
        TreePacking.multigraph([t], [1], 0)


@pytest.mark.parametrize("bad", [True, 1.9, "2", Fraction(2), None])
def test_a_multiplicity_is_an_int(bad):
    t = tree(("1", "2"), ("1", "3"))
    with pytest.raises(InvalidPackingError) as info:
        TreePacking.multigraph([t], [bad], 2)
    assert str(info.value) == f"tree multiplicity must be an integer, got {bad!r}"
    assert TreePacking.multigraph([t, t], iter([2, 0]), 2).multiplicities == (2,)


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
    view = labels, _, _ = tri_pendant.integer_links()
    pk, refusal, calls = packing._descend(view, 1, 3, fixed_rounds=False)
    assert packing._labelled(labels, pk) == exact_packing(tri_pendant, 1, 1)
    assert (str(VertexPartition.from_rgs(labels, refusal)), calls) == ("{1,2,3}{4}", 3)
    assert packing._descend(view, 1, 1, fixed_rounds=False) == (pk, None, 1)


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


def test_oracle_reports_the_last_refusing_partition(monkeypatch):
    # the path 4-1-2-3-5 over 3 rounds: the (1, 2) link, 3 copies, is the
    # answer, and the partition that refused the count before it proves
    # it optimal with no budget left for a partition scan
    g = build(["1", "2", "3", "4", "5"],
              [("1", "4", 3), ("1", "2", 1), ("2", "3", 3), ("3", "5", 2)])
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 0)
    out = brute_force_packing(g, 3)
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


@pytest.mark.parametrize("bad", [-1, True, 1.5, "2", None])
def test_exact_packing_refuses_a_tree_count_that_is_not_a_non_negative_int(bad):
    g = complete(3, rate=2)
    with pytest.raises(SchemaError) as info:
        exact_packing(g, 1, bad)
    assert str(info.value) == f"tree count must be a non-negative integer, got {bad!r}"
    assert exact_packing(g, 1, 0).tree_count == 0  # no trees asked, none packed


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
    # labels out of numeric order ("10" < "2" < "3" < "9") and a doubled
    # triangle: 3 trees need 3 copies to the pendant "2", whose link has 2
    g = build(["10", "3", "9", "2"], [("10", "3", 2), ("3", "9", 2), ("10", "9", 2), ("9", "2", 1)])
    assert exact_packing(g, 2, 2).tree_count == 2
    with pytest.raises(HeuristicFailedError) as info:
        exact_packing(g, 2, 3)
    assert str(info.value) == (
        "3 edge-disjoint spanning trees do not fit over 2 rounds: "
        "partition {10,3,9}{2} is crossed by 2 edge copies, fewer than 3 x 1"
    )
    assert info.value.partition.blocks == (("10", "3", "9"), ("2",))


def test_exact_packers_follow_label_order_not_numeric_order():
    # labels sort as strings ("10" < "2", "a+b" < "b-c" < "é"): each
    # network packs and refuses as its order-preserving relabelling to
    # "v00", "v01", ... does, mapped back
    def outcome(pack, g, label):
        """The packing, or the refusal, with every node label passed through ``label``."""
        try:
            result = pack(g)
        except QNetError as exc:
            partition = getattr(exc, "partition", None)
            if partition is None:
                return type(exc), str(exc)
            mapped = VertexPartition.from_blocks(map(label, b) for b in partition.blocks)
            return type(exc), str(exc).replace(str(partition), str(mapped)), mapped
        pk = getattr(result, "packing", result)
        trees = [[(label(u), label(v)) for u, v in t.edges] for t in pk.trees]
        return (TreePacking.multigraph(trees, pk.multiplicities, pk.rounds),
                getattr(result, "optimal", None), getattr(result, "diagnostics", None))

    rng = random.Random(35)
    pool = ["10", "2", "3", "9", "a+b", "b-c", "é"]
    rates = [0, 1, 2, "1/3", "3/2"]
    for _ in range(200):
        labels = rng.sample(pool, rng.randint(2, 6))
        edges = [(u, v, rng.choice(rates)) for i, u in enumerate(labels) for v in labels[i + 1:]
                 if rng.random() < 0.7]
        name = {v: f"v{i:02d}" for i, v in enumerate(sorted(labels))}
        back = {w: v for v, w in name.items()}
        g = build(labels, edges)
        h = build([name[v] for v in labels], [(name[u], name[v], r) for u, v, r in edges])
        rounds, target = rng.randint(1, 3), rng.randint(0, 5)
        for pack in (lambda x: exact_packing(x, rounds, target),
                     lambda x: brute_force_packing(x, rounds)):
            assert outcome(pack, g, str) == outcome(pack, h, back.__getitem__)


def test_exact_packing_floors_capacities():
    # rate 1/2 edges carry no copy in one round
    g = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", "1/2"), ("1", "3", "1/2")])
    with pytest.raises(HeuristicFailedError, match="crossed by 1 edge copies, fewer than 1 x 2"):
        exact_packing(g, 1, 1)
    assert exact_packing(g, 2, 1).tree_count == 1
    assert exact_packing(g, 1, 0).trees == ()


def test_exact_packing_refuses_an_oversize_target_before_building(monkeypatch):
    # seeding 250,001 forests of a two-node link charges 1,000,004 node
    # steps: the refusal comes before the first forest.  Within the budget
    # the one distinct forest is built once, with its 1000 copies
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
    assert forests == [1]


def test_exact_packing_memory_follows_the_distinct_forests():
    # 190,000 one-edge trees over 8 rounds of a two-node link at rate
    # 100,000: one set per tree peaked at 42.7 MB under tracemalloc
    code, out, _, _ = run_measured("""
import tracemalloc
from conftest import build
from qnet_stp import exact_packing
g = build(["a", "b"], [("a", "b", 100_000)])
tracemalloc.start()
pk = exact_packing(g, 8, 190_000)
print(pk.to_json_dict(), tracemalloc.get_traced_memory()[1] / 2**20)
""")
    assert code == 0
    packing_doc, peak_mb = out.rsplit(" ", 1)
    assert packing_doc == str({
        "mode": "multigraph", "trees": [[["a", "b"]]], "multiplicities": [190_000], "rounds": 8,
    })
    assert float(peak_mb) < 10, peak_mb


RING = "build([str(i) for i in range(1, 5)], [(str(i), str(i % 4 + 1), {rate}) for i in range(1, 5)])"


def test_exact_packing_step_budget_bounds_the_time():
    # 4000 trees on a 4-ring at rate 1000 over 3 rounds: 37.6 s without a
    # budget; it refuses after 29 exchange searches
    code, out, _, peak_mb = run_measured(f"""
import time
from conftest import build
from qnet_stp import exact_packing, packing
from qnet_stp.errors import HeuristicFailedError
searches = []
search = packing._exchange_path
packing._exchange_path = lambda *args: searches.append(1) or search(*args)
g = {RING.format(rate=1000)}
start = time.process_time()
try:
    exact_packing(g, 3, 4000)
except HeuristicFailedError as exc:
    print(exc.partition, exc)
print(len(searches), time.process_time() - start)
""")
    assert code == 0
    message, counts = out.splitlines()
    searches, seconds = counts.split()
    assert message == "None the exact packer passed its budget of 1000000 search steps"
    assert searches == "29"
    assert float(seconds) < 10 and peak_mb < 100, (seconds, peak_mb)


def test_exact_packing_within_budget_on_a_heavy_ring():
    # 400 trees on the same ring at rate 100: past the old oracle's
    # budget, within this one, which they take 744,400 steps of
    code, out, _, _ = run_measured(f"""
import time
from conftest import build
from qnet_stp import brute_force_packing, packing
from qnet_stp.errors import HeuristicFailedError
g = {RING.format(rate=100)}
start = time.process_time()
outcome = brute_force_packing(g, 3)
print(outcome.packing.tree_count, outcome.optimal, time.process_time() - start < 5)
packing.EXACT_STEP_BUDGET = 744_400
print(brute_force_packing(g, 3).packing.tree_count)
packing.EXACT_STEP_BUDGET -= 1
try:
    brute_force_packing(g, 3)
except HeuristicFailedError as exc:
    print(exc)
""")
    assert (code, out) == (0, (
        "400 True True\n400\nthe exact packer passed its budget of 744399 search steps\n"
    ))


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


def test_basic_checks_its_optimal_flag(monkeypatch):
    # a valid packing one tree short of the unit 4-ring's four: its rate,
    # 1, is below the finest bound 4/3, and the partition scan refutes it
    real = packing._greedy_pack

    def one_short(view, diagnostics):
        trees, rounds = real(view, diagnostics)
        return {t: trees[t] for t in sorted(trees)[1:]}, rounds

    monkeypatch.setattr(packing, "_greedy_pack", one_short)
    g = ring(4)
    out = basic_algorithm(g)
    assert validate_packing(g, out.packing).ok
    assert (out.packing.tree_count, out.achieved_rate, out.optimal) == (3, 1, False)
    assert out.diagnostics == {"backtracks": 1, "fallback": False}


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


def test_general_search_decides_residual_pairs_of_weight_three(monkeypatch):
    # the splits peel off 3, 4 and 5; the greedy on the remainder 0, 1, 2,
    # 6, 7, 8 leaves 6-7, the pair (3, 4), at weight 3, which every
    # candidate leaves at 2 or more: it falls back with no walk there, and
    # only the splits' two-node greedies walk
    walks = []

    def recording(n, keys, fixed):
        walks.append((n, keys, fixed))
        return _tree_walk(n, keys, fixed)

    monkeypatch.setattr(packing, "_tree_walk", recording)
    g = build([str(i) for i in range(9)], [
        ("0", "1", 5), ("0", "2", 2), ("0", "3", 3), ("0", "5", 3), ("0", "8", 3), ("1", "6", 2),
        ("1", "7", 4), ("2", "6", 5), ("2", "8", 3), ("3", "4", 1), ("4", "8", 4), ("6", "7", 6),
    ])
    out = general_algorithm(g)
    assert walks == [(2, [], [(0, 1)])] * 3
    assert (out.achieved_rate, out.optimal) == (3, True)
    assert out.diagnostics == {
        "recursion_depth": 3, "backtracks": 3, "fallback": True,
        "splits": [{"subset": [v], "depth": d} for d, v in enumerate("345")],
        "fallback_reason": "no next-to-last tree leaves a clean final tree",
    }
    assert validate_packing(g, out.packing).ok


def test_a_residual_pair_of_weight_three_ends_the_search_before_any_candidate():
    # the residual weighs 2 (N - 1) and a candidate takes N - 1 units, so
    # a clean final tree needs every pair left at one: a pair at 3 stays
    # at 2 or more under any candidate, and the greedy falls back at once.
    # Here that drops two of the four candidates the search used to try
    links = ("0-1:2 0-3:2 1-2:2 1-6:3 10-2:2 10-3:1 10-5:1 10-7:3 2-4:3 2-5:1 3-6:1 3-7:2 "
             "4-5:1 4-9:2 5-8:2")
    g = build([str(i) for i in range(11)],
              [(*pair.split("-"), int(r)) for pair, r in (x.split(":") for x in links.split())])
    out = general_algorithm(g)
    assert (out.achieved_rate, out.optimal) == (2, True)
    assert (out.diagnostics["backtracks"], out.diagnostics["fallback"]) == (2, True)
    assert out.diagnostics["fallback_reason"] == "no next-to-last tree leaves a clean final tree"
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
    from qnet_stp.rate_core import _partition_scan, _subset_scan

    scanned, rates, cutoffs = [], [], []

    def counting_check(n, links):
        scanned.append(n)
        return _subset_scan(n, links)

    def counting_rate(n, links, cutoff=None):
        rates.append(n)
        return _partition_scan(n, links, cutoff)

    def counting_scan(n, links, cutoff=None):
        cutoffs.append(cutoff)
        return _partition_scan(n, links, cutoff)

    monkeypatch.setattr(packing, "_subset_scan", counting_check)
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


def test_general_packings_are_valid():
    # with whole rates no splice fails, so every packing the general packer
    # builds, by splices or by the fallback, is valid, and says whether it
    # reaches the rate
    spliced = 0
    for seed in range(300):
        g = random_connected_graph(random.Random(seed), max_nodes=8, max_extra=5)
        out = general_algorithm(g)
        assert validate_packing(g, out.packing).ok, seed
        assert out.optimal is (out.achieved_rate == nwt_rate(g).rate), seed
        spliced += bool(out.diagnostics["splits"]) and not out.diagnostics["fallback"]
    assert spliced > 50


def test_producers_hand_back_the_public_packers_packing_witness_and_diagnostics():
    # what simulate packs with is what pack prints: the private producers
    # give the public packers' packing and diagnostics, and a witness that
    # is None or each node's block, in a partition of two or more blocks
    seen = Counter()
    for seed in range(300):
        g = random_connected_graph(random.Random(seed), max_nodes=9, max_extra=8)
        produced = [(packing._general_packing(g), general_algorithm(g))]
        produced += [(packing._oracle_packing(g, r), brute_force_packing(g, r)) for r in (1, 2, 3, 4)]
        for (pk, witness, diagnostics), out in produced:
            assert (pk, diagnostics) == (out.packing, out.diagnostics), seed
            assert witness is None or len(witness) == g.node_count and len(set(witness)) > 1, seed
        diagnostics = produced[0][0][2]
        seen["split"] += bool(diagnostics["splits"])
        reason = diagnostics.get("fallback_reason", "")
        seen["split fallback"] += reason.endswith("cannot split")
        seen["greedy fallback"] += reason.startswith(("no next-to-last", "positive-weight"))
    assert min(seen["split"], seen["split fallback"], seen["greedy fallback"]) > 0, seen


def test_split_depth_bounds_the_nesting():
    # a path whose rates rise from one end splits off that end, then the
    # next node, and so on: a path of N nodes nests N - 2 splits deep
    for n, fallback in ((SPLIT_DEPTH + 2, False), (SPLIT_DEPTH + 3, True)):
        g = sorted_path(n, lambda i: i + 1)
        out = general_algorithm(g)
        assert out.diagnostics["fallback"] is fallback
        assert len(out.diagnostics["splits"]) == SPLIT_DEPTH + fallback
        assert (out.achieved_rate, out.optimal) == (1, True)
        assert validate_packing(g, out.packing).ok


def test_linear_bounds_prove_optimality_above_the_partition_cap(monkeypatch):
    # with no budget for a partition scan, the ring's rate 14/13 is still
    # its finest bound, so every packer proves it without one
    g = ring(14)
    assert brute_force_packing(g, 1).optimal is False  # the scan settles it
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 0)
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


def test_the_rate_descent_ends_on_a_view_whose_scale_is_above_one(monkeypatch):
    # scale 2, rate 7/3: capacities floored at rounds * w // scale asked
    # (3, 7) again and again; over rounds * scale rounds they are whole
    g = random_connected_graph(random.Random(0), max_nodes=8, max_extra=12,
                               rates=(1, 2, 3, Fraction(1, 2), Fraction(5, 3)))
    view = g.integer_links()
    assert view[1] == 2 and nwt_rate(g).rate == Fraction(7, 3)
    calls = []

    def counting(*args):
        calls.append(args[1:])
        assert len(calls) < 50, calls[:5]
        return exact_pack(*args)

    exact_pack = packing._exact_pack
    monkeypatch.setattr(packing, "_exact_pack", counting)
    (trees, rounds), _, _ = packing._descend(view, 7, 19, fixed_rounds=False)
    assert Fraction(sum(trees.values()), rounds) == Fraction(7, 3)
