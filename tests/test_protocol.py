import random
from collections import Counter
from fractions import Fraction

import pytest

from qnet_stp import (
    SpanningTree,
    TreePacking,
    announce,
    brute_force_packing,
    general_algorithm,
    generate_keys,
    orient_tree,
    recover,
    run_packing_protocol,
    secrecy_audit,
    security_budget,
)
from qnet_stp import protocol
from qnet_stp.errors import (
    HeuristicFailedError,
    IncompleteTranscriptError,
    InvalidEdgeError,
    InvalidPackingError,
    KeyDepletedError,
    PreconditionFailedError,
)
from qnet_stp.protocol import KeyMaterial, consumption_schedule

from conftest import build, complete, random_connected_graph, ring


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------

def test_generate_keys_pool_sizes(triangle):
    km = generate_keys(triangle, 4, seed=0)
    assert all(len(km.bits(u, v)) == 4 for u, v in
               [("1", "2"), ("1", "3"), ("2", "3")])


def test_generate_keys_deterministic(triangle):
    a = generate_keys(triangle, 8, seed=5)
    b = generate_keys(triangle, 8, seed=5)
    c = generate_keys(triangle, 8, seed=6)
    assert a.pools == b.pools
    assert a.pools != c.pools  # 24 coin flips colliding would be a miracle
    assert a.algorithm == "python-random-mt19937"


def test_generate_keys_needs_integer_rates():
    g = build(["1", "2"], [("1", "2", "3/2")])
    with pytest.raises(PreconditionFailedError):
        generate_keys(g, 2, seed=0)
    with pytest.raises(PreconditionFailedError):
        generate_keys(build(["1", "2"], [("1", "2", 1)]), 0, seed=0)


def test_zero_rate_edge_gets_no_bits():
    g = build(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 0)])
    km = generate_keys(g, 3, seed=0)
    assert km.bits("2", "3") == ()


def test_bit_reads_pool_by_index(triangle):
    km = generate_keys(triangle, 2, seed=1)
    assert (km.bit(("1", "2"), 0), km.bit(("1", "2"), 1)) == km.bits("1", "2")


def test_depletion(triangle):
    km = generate_keys(triangle, 1, seed=1)
    with pytest.raises(KeyDepletedError):
        km.bit(("1", "2"), 1)  # only one bit exists
    with pytest.raises(KeyDepletedError):
        km.bit(("1", "2"), -1)
    with pytest.raises(InvalidEdgeError):
        km.bit(("1", "9"), 0)


def test_key_material_validates_bits():
    with pytest.raises(InvalidEdgeError):
        KeyMaterial({("1", "2"): (0, 2)})


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def test_orientation_of_relay_tree(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    ori = orient_tree(t, conference_edge=("6", "7"))
    assert ori.roots == ("6", "7")
    assert ori.in_edge["6"] == ("6", "7") and ori.in_edge["7"] == ("6", "7")
    assert ori.in_edge["1"] == ("1", "4")
    assert ori.in_edge["4"] == ("4", "6")
    assert ori.out_edges["4"] == (("1", "4"), ("2", "4"))
    assert ori.out_edges["5"] == (("3", "5"),)
    assert ori.out_edges["7"] == (("7", "8"), ("7", "9"))
    assert ori.out_edges["1"] == ()
    assert ori.parent["1"] == "4" and ori.parent["4"] == "6"
    assert ori.parent["6"] is None


def test_default_conference_edge_is_smallest(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    assert orient_tree(t).conference_edge == ("1", "4")


def test_orientation_rejects_foreign_edge(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    with pytest.raises(InvalidEdgeError):
        orient_tree(t, conference_edge=("1", "9"))


# ---------------------------------------------------------------------------
# announcements and recovery
# ---------------------------------------------------------------------------

def first_bits(tree):
    """The schedule step of a tree's first instance: bit 0 of every edge."""
    return dict.fromkeys(tree.edges, 0)


def test_relay_tree_announcement_count(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    g = build([str(i) for i in range(1, 10)],
              [(u, v, 1) for u, v in relay_tree_edges])
    km = generate_keys(g, 1, seed=3)
    anns = announce(orient_tree(t, conference_edge=("6", "7")), km, first_bits(t))
    assert len(anns) == 7  # one per non-conference edge
    announced_edges = {a.edge for a in anns}
    assert ("6", "7") not in announced_edges
    assert len(announced_edges) == 7


def test_relay_tree_recovery_chain(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    g = build([str(i) for i in range(1, 10)],
              [(u, v, 1) for u, v in relay_tree_edges])
    km = generate_keys(g, 1, seed=3)
    ori = orient_tree(t, conference_edge=("6", "7"))
    anns = announce(ori, km, first_bits(t))
    rec = recover("1", ori, anns, km, first_bits(t))
    # leaf 1 peels two relays on its way to the trunk edge
    assert rec.chain == (
        ("key", ("1", "4")),
        ("announcement", "4", ("1", "4")),
        ("announcement", "6", ("4", "6")),
    )
    trunk_bit = km.bit(("6", "7"), 0)
    assert rec.bit == trunk_bit
    for node in g.node_ids:
        assert recover(node, ori, anns, km, first_bits(t)).bit == trunk_bit


def test_announcement_values_are_xors(triangle):
    km = generate_keys(triangle, 1, seed=9)
    t = SpanningTree.of([("1", "2"), ("1", "3")])
    ori = orient_tree(t)  # conference edge (1,2)
    anns = announce(ori, km, first_bits(t))
    assert len(anns) == 1
    a = anns[0]
    assert a.announcer == "1"
    assert a.edge == ("1", "3")
    assert a.value == km.bit(("1", "2"), 0) ^ km.bit(("1", "3"), 0)


def test_recover_needs_full_transcript(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    g = build([str(i) for i in range(1, 10)],
              [(u, v, 1) for u, v in relay_tree_edges])
    km = generate_keys(g, 1, seed=3)
    ori = orient_tree(t, conference_edge=("6", "7"))
    anns = announce(ori, km, first_bits(t))
    partial = [a for a in anns if a.edge != ("4", "6")]
    with pytest.raises(IncompleteTranscriptError):
        recover("1", ori, partial, km, first_bits(t))


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_triangle_run_reproduces_worked_example(triangle):
    # two rounds of the three-party protocol: three trees, three announcements,
    # conference key = both bits of the (1,2) key plus the second (1,3) bit
    pk = brute_force_packing(triangle, 2).packing
    tr = run_packing_protocol(triangle, pk, seed=7)
    km = generate_keys(triangle, 2, seed=7)
    k12, k13, k23 = km.bits("1", "2"), km.bits("1", "3"), km.bits("2", "3")
    assert tr.conference_key == (k12[0], k12[1], k13[1])
    assert tr.unanimity
    values = [(a.announcer, a.edge, a.value) for a in tr.announcements]
    assert values == [
        ("1", ("1", "3"), k12[0] ^ k13[0]),
        ("2", ("2", "3"), k12[1] ^ k23[0]),
        ("3", ("2", "3"), k13[1] ^ k23[1]),
    ]
    assert tr.consumed == {("1", "2"): 2, ("1", "3"): 2, ("2", "3"): 2}
    assert all(bits == tr.conference_key for bits in tr.recovered.values())


def test_unanimity_across_seeds(triangle, tri_pendant, star4):
    for g in (triangle, tri_pendant, star4):
        pk = general_algorithm(g).packing
        for seed in range(100):
            assert run_packing_protocol(g, pk, seed).unanimity


def test_run_follows_the_consumption_schedule(triangle, tri_pendant, star4):
    # the run announces exactly what announce() gives for each schedule
    # step, and reports each edge's bit count as its uses in the schedule
    for g in (triangle, tri_pendant, star4):
        pk = general_algorithm(g).packing
        schedule = consumption_schedule(g, pk)
        for seed in range(10):
            km = generate_keys(g, pk.rounds, seed)
            expected = [
                a
                for (i, copy, tree), step in zip(pk.instances(), schedule)
                for a in announce(orient_tree(tree), km, step, copy, tree_index=i)
            ]
            tr = run_packing_protocol(g, pk, seed)
            assert list(tr.announcements) == expected
            assert set(tr.consumed) == set(km.pools)
            assert tr.consumed == Counter(key for step in schedule for key in step)


def test_run_rejects_overfull_packing(triangle):
    t = SpanningTree.of([("1", "2"), ("1", "3")])
    pk = TreePacking.multigraph([t], [3], 2)
    with pytest.raises(KeyDepletedError):
        run_packing_protocol(triangle, pk, seed=0)


def test_run_refuses_past_its_budget_before_generating_keys(monkeypatch):
    # the unit 4-ring packs 4 trees of 3 edges: 12 tree-edge instances
    g = ring(4)
    pk = general_algorithm(g).packing
    monkeypatch.setattr(protocol, "PROTOCOL_BUDGET", 12)
    assert run_packing_protocol(g, pk, seed=0).unanimity
    monkeypatch.setattr(protocol, "PROTOCOL_BUDGET", 11)
    monkeypatch.setattr(protocol, "generate_keys", lambda *args: pytest.fail("keys generated"))
    with pytest.raises(HeuristicFailedError, match="^running the protocol on 12 tree-edge "
                       "instances passes the budget of 11$"):
        run_packing_protocol(g, pk, seed=0)


def test_transcript_json_shape(triangle):
    pk = brute_force_packing(triangle, 2).packing
    doc = run_packing_protocol(triangle, pk, seed=1).to_json_dict()
    assert doc["rounds"] == 2
    assert len(doc["conference_key"]) == 3
    assert doc["prng"] == {"algorithm": "python-random-mt19937", "seed": 1}
    assert all(set(a) >= {"tree", "round", "announcer", "edge", "bits"}
               for a in doc["announcements"])


# ---------------------------------------------------------------------------
# security accounting
# ---------------------------------------------------------------------------

def test_budget_sums_tree_epsilons():
    eps = Fraction(1, 10 ** 9)
    g = build(["1", "2", "3"],
              [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])
    pk = brute_force_packing(g, 2).packing
    budget = security_budget(pk, {e.key: eps for e in g.edges})
    assert budget.per_tree == (2 * eps,) * 3
    assert budget.merged == 6 * eps


@pytest.mark.parametrize("n_nodes,copies", [(2, 1), (3, 2), (5, 3), (6, 4)])
def test_budget_on_plain_tree_network(n_nodes, copies):
    eps = Fraction(1, 1000)
    nodes = [str(i) for i in range(1, n_nodes + 1)]
    edges = [(nodes[i], nodes[i + 1], copies) for i in range(n_nodes - 1)]
    g = build(nodes, edges)
    t = SpanningTree.of([(u, v) for u, v, _ in edges])
    pk = TreePacking.multigraph([t], [copies], copies)
    budget = security_budget(pk, {e.key: eps for e in g.edges})
    assert budget.per_tree == ((n_nodes - 1) * eps,) * copies
    assert budget.merged == copies * (n_nodes - 1) * eps


def test_budget_equals_the_per_instance_fraction_sums():
    # mixed denominators, zeros and plain ints, against the sum taken
    # one tree instance and one edge at a time
    rng = random.Random(8)
    for _ in range(60):
        g = random_connected_graph(rng, max_nodes=7)
        pk = general_algorithm(g).packing
        eps = {
            e.key: rng.choice([0, 1, Fraction(rng.randint(0, 9), rng.randint(1, 36))])
            for e in g.edges
        }
        per_tree = tuple(
            sum((Fraction(eps[key]) for key in tree.edges), Fraction(0))
            for _, _, tree in pk.instances()
        )
        budget = security_budget(pk, eps)
        assert budget.per_tree == per_tree
        assert budget.merged == sum(per_tree, Fraction(0))
        assert all(type(x) is Fraction for x in (*budget.per_tree, budget.merged))


# ---------------------------------------------------------------------------
# exhaustive secrecy audit
# ---------------------------------------------------------------------------

def test_audit_uniform_on_triangle(triangle):
    pk = brute_force_packing(triangle, 2).packing
    report = secrecy_audit(triangle, pk)
    assert report.uniform
    assert report.edge_disjoint
    assert report.total_bits == 6
    assert report.conference_bits == 3
    assert not report.violations


def test_audit_uniform_on_single_edge():
    g = build(["a", "b"], [("a", "b", 1)])
    t = SpanningTree.of([("a", "b")])
    pk = TreePacking.multigraph([t], [2], 2)
    report = secrecy_audit(g, pk)
    assert report.uniform and report.edge_disjoint


def test_audit_flags_bit_reuse(triangle):
    pk = brute_force_packing(triangle, 2).packing
    schedule = [dict(step) for step in consumption_schedule(triangle, pk)]
    schedule[1][("1", "2")] = schedule[0][("1", "2")]  # reuse across trees
    report = secrecy_audit(triangle, pk, schedule=schedule)
    assert not report.uniform
    assert not report.edge_disjoint
    assert any("reused" in v for v in report.violations)


def test_audit_on_a_40_ring():
    # one tree per left-out edge: 40 edges x 39 rounds = 1560 key bits
    g = ring(40)
    keys = [e.key for e in g.edges]
    pk = TreePacking.multigraph(
        [SpanningTree.of(keys[:i] + keys[i + 1:]) for i in range(40)], [1] * 40, 39
    )
    report = secrecy_audit(g, pk)
    assert (report.uniform, report.edge_disjoint) == (True, True)
    assert (report.total_bits, report.conference_bits) == (1560, 40)
    assert not report.violations

    schedule = [dict(step) for step in consumption_schedule(g, pk)]
    first, second = (orient_tree(t).conference_edge for _, _, t in list(pk.instances())[1:3])
    assert first == second
    schedule[2][second] = schedule[1][first]  # two instances share a conference bit
    report = secrecy_audit(g, pk, schedule=schedule)
    assert (report.uniform, report.edge_disjoint) == (False, False)
    assert report.violations[-1] == "conference key not uniform for transcript " + "0" * 40 * 38


PATH3 = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)])
FOREIGN_TREE = SpanningTree.of([("1", "2"), ("1", "3")])  # (1,3) is not a path edge


def test_audit_rejects_a_tree_edge_the_network_lacks():
    pk = TreePacking.multigraph([FOREIGN_TREE], [1], 1)
    with pytest.raises(InvalidPackingError, match=r"tree uses unknown edge \('1', '3'\)"):
        secrecy_audit(PATH3, pk, schedule=[{("1", "2"): 0, ("1", "3"): 0}])


def test_announce_and_recover_reject_a_step_missing_a_tree_edge():
    km = generate_keys(PATH3, 1, seed=0)
    step = {("1", "2"): 0, ("2", "3"): 0}  # the path's own schedule step
    orientation = orient_tree(FOREIGN_TREE)
    message = r"schedule misses edge \('1', '3'\) of a tree"
    with pytest.raises(InvalidPackingError, match=message):
        announce(orientation, km, step)
    with pytest.raises(InvalidPackingError, match=message):
        recover("3", orientation, [], km, step)


def test_schedule_matches_run_consumption(tri_pendant):
    pk = general_algorithm(tri_pendant).packing
    schedule = consumption_schedule(tri_pendant, pk)
    assert len(schedule) == pk.tree_count
    for step, (_, _, tree) in zip(schedule, pk.instances()):
        assert set(step) == set(tree.edges)
    counts = {}
    for step in schedule:
        for key, idx in step.items():
            assert idx == counts.get(key, 0)  # strictly sequential
            counts[key] = idx + 1
