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
    SchemaError,
)
from qnet_stp.netgraph import enumerate_spanning_trees
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


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
def test_generate_keys_draws_the_bits_of_a_per_bit_stream(seed):
    # one draw per pool keeps each 32-bit output's top bit, which is the
    # bit getrandbits(1) takes: pools of 0 to 93 bits, edges in key order
    g = build(["1", "2", "3", "4"],
              [("1", "2", 0), ("2", "3", 1), ("3", "4", 3), ("1", "4", 2), ("1", "3", 31)])
    for rounds in (1, 2, 3):
        rng = random.Random(seed)
        expected = {e.key: tuple(rng.getrandbits(1) for _ in range(rounds * int(e.rate)))
                    for e in g.edges}
        assert generate_keys(g, rounds, seed).pools == expected


def test_generate_keys_needs_integer_rates():
    g = build(["1", "2"], [("1", "2", "3/2")])
    with pytest.raises(PreconditionFailedError):
        generate_keys(g, 2, seed=0)
    # a bad round count is refused as at every other entry point
    with pytest.raises(SchemaError, match="round count must be a positive integer, got 0"):
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
    assert orient_tree(t, ["7", "6"]) == ori  # a list, either way round


def test_default_conference_edge_is_smallest(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    assert orient_tree(t).conference_edge == ("1", "4")


def test_orientation_rejects_foreign_edge(relay_tree_edges):
    t = SpanningTree.of(relay_tree_edges)
    with pytest.raises(InvalidEdgeError):
        orient_tree(t, conference_edge=("1", "9"))
    with pytest.raises(InvalidEdgeError, match="cannot orient an empty tree"):
        orient_tree(SpanningTree(()))


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
    with pytest.raises(InvalidEdgeError, match="node 'x' is not spanned by the tree"):
        recover("x", ori, anns, km, first_bits(t))


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


def recovered_by_recover(g, pk, seed):
    """Each node's bits as :func:`recover` finds them, instance by instance."""
    km = generate_keys(g, pk.rounds, seed)
    tr = run_packing_protocol(g, pk, seed)
    bits = {v: [] for v in g.node_ids}
    for (i, copy, tree), step in zip(pk.instances(), consumption_schedule(g, pk)):
        anns = [a for a in tr.announcements if (a.tree, a.round) == (i, copy)]
        orientation = orient_tree(tree)
        for v in g.node_ids:
            bits[v].append(recover(v, orientation, anns, km, step).bit)
    return tr.recovered, {v: tuple(b) for v, b in bits.items()}


def test_run_recovers_what_recover_does():
    # the run's one pass per instance gives recover()'s bit at every node
    cases = [random_connected_graph(random.Random(s), max_nodes=7, max_extra=4)
             for s in range(40)]
    oracle = brute_force_packing(complete(4, rate=2), 2).packing
    assert max(oracle.multiplicities) > 1
    for g in cases:
        pk = general_algorithm(g).packing
        for seed in range(3):
            run, reference = recovered_by_recover(g, pk, seed)
            assert run == reference
    for seed in range(10):
        run, reference = recovered_by_recover(complete(4, rate=2), oracle, seed)
        assert run == reference


def test_run_refuses_a_tree_that_misses_a_node():
    pk = TreePacking.multigraph([SpanningTree.of([("1", "2"), ("2", "3")])], [1], 1)
    with pytest.raises(InvalidEdgeError, match="^node '4' is not spanned by the tree$"):
        run_packing_protocol(ring(4), pk, seed=0)


def test_run_refuses_an_edge_set_in_two_pieces():
    # a triangle and a stray edge: N - 1 keys, but the walk from the
    # conference edge never reaches 4 or 5
    g = build(["1", "2", "3", "4", "5"],
              [("1", "2", 1), ("1", "3", 1), ("2", "3", 1), ("3", "4", 1), ("4", "5", 1)])
    pieces = SpanningTree.of([("1", "2"), ("1", "3"), ("2", "3"), ("4", "5")])
    pk = TreePacking.multigraph([pieces], [1], 1)
    with pytest.raises(InvalidEdgeError, match="^node '4' is not spanned by the tree$"):
        run_packing_protocol(g, pk, seed=0)


def test_run_and_audit_orient_each_tree_once(monkeypatch):
    # K4 at rate 3 packs 18 instances of 6 distinct trees
    g = complete(4, rate=3)
    pk = general_algorithm(g).packing
    assert pk.multiplicities == (4, 1, 4, 4, 1, 4)
    # the run and the audit both orient on link positions and node indices,
    # by the one rule: each call is read back as the tree's keys
    transcript, audit = run_packing_protocol(g, pk, seed=0), secrecy_audit(g, pk)
    keys = [e.key for e in g.edges]
    labels = g.sorted_nodes()
    orient, oriented = protocol._orient, []

    def counting(ends, edges, *args):
        assert all(type(e) is int for e in edges)
        assert [(labels[i], labels[j]) for i, j in ends] == keys
        oriented.append(SpanningTree(tuple(keys[e] for e in edges)))
        return orient(ends, edges, *args)

    monkeypatch.setattr(protocol, "_orient", counting)
    assert run_packing_protocol(g, pk, seed=0) == transcript
    assert oriented == list(pk.trees)
    oriented.clear()
    assert secrecy_audit(g, pk) == audit
    assert oriented == list(pk.trees)


def instance_schedule(g, pk):
    """The key bits each instance uses, assigned one instance and one key at a time."""
    sizes = {e.key: pk.rounds * int(e.rate) for e in g.edges}
    used = dict.fromkeys(sizes, 0)
    schedule = []
    for _, _, tree in pk.instances():
        step = {}
        for key in tree.edges:
            if key not in sizes:
                raise InvalidPackingError(f"tree uses unknown edge {key}")
            if used[key] >= sizes[key]:
                raise KeyDepletedError(f"edge {key} ran out of key bits")
            step[key] = used[key]
            used[key] += 1
        schedule.append(step)
    return schedule


def outcome(f, *args):
    try:
        return f(*args)
    except (InvalidPackingError, KeyDepletedError) as exc:
        return type(exc), str(exc)


def test_schedule_and_run_match_the_instance_by_instance_assignment():
    # random trees and multiplicities over few rounds, so that many
    # packings overflow a key, at the first copy or a later one
    rng = random.Random(33)
    for _ in range(300):
        g = random_connected_graph(rng, max_nodes=6, max_extra=4)
        every = list(enumerate_spanning_trees(g))
        trees = rng.sample(every, min(len(every), rng.randint(1, 3)))
        nodes = g.sorted_nodes()
        foreign = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
                   if not g.has_edge(u, v)]
        if foreign and rng.random() < 0.3:  # one tree gets an edge the network lacks
            edges = list(rng.choice(trees).edges)
            edges[rng.randrange(len(edges))] = rng.choice(foreign)
            trees.insert(rng.randint(0, len(trees)), SpanningTree.of(edges))
        pk = TreePacking.multigraph(trees, [rng.randint(1, 4) for _ in trees], rng.randint(1, 2))
        expected = outcome(instance_schedule, g, pk)
        assert outcome(consumption_schedule, g, pk) == expected
        run = outcome(run_packing_protocol, g, pk, 0)
        if isinstance(expected, tuple):
            assert run == expected
        else:
            km = generate_keys(g, pk.rounds, 0)
            assert list(run.announcements) == [
                a
                for (i, copy, tree), step in zip(pk.instances(), expected)
                for a in announce(orient_tree(tree), km, step, copy, tree_index=i)
            ]


PATH_TREE = SpanningTree.of([("1", "2"), ("2", "3")])


@pytest.mark.parametrize("g,trees,mults,rounds,error,message", [
    # the classes and messages the instance-at-a-time run raised; a tree
    # missing a node alone, and one instance past the budget, have tests
    # of their own
    pytest.param(build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)]),
                 [[("1", "2"), ("1", "3")]], [1], 1,
                 InvalidPackingError, "tree uses unknown edge ('1', '3')", id="unknown-edge"),
    pytest.param(build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)]),
                 [[("1", "2"), ("2", "9")]], [2], 1,
                 InvalidPackingError, "tree uses unknown edge ('2', '9')",
                 id="unknown-edge-before-a-later-copy-overflows"),
    pytest.param(build(["1", "2", "3"], [("1", "2", 3), ("2", "3", 2)]), [PATH_TREE.edges], [4], 1,
                 KeyDepletedError, "edge ('2', '3') ran out of key bits",
                 id="second-key-overflows-at-an-earlier-copy"),
    pytest.param(build(["1", "2", "3"], [("1", "2", 2), ("2", "3", 3)]), [PATH_TREE.edges], [4], 1,
                 KeyDepletedError, "edge ('1', '2') ran out of key bits",
                 id="first-key-overflows-at-an-earlier-copy"),
    pytest.param(build(["1", "2", "3"], [("1", "2", 2), ("2", "3", 2)]), [PATH_TREE.edges], [3], 1,
                 KeyDepletedError, "edge ('1', '2') ran out of key bits",
                 id="two-keys-overflow-at-one-copy"),
    pytest.param(build(["1", "2", "3"], [("1", "2", 2), ("2", "3", 2), ("1", "3", 2)]),
                 [PATH_TREE.edges, [("1", "3"), ("2", "3")]], [1, 2], 1,
                 KeyDepletedError, "edge ('2', '3') ran out of key bits",
                 id="a-later-tree-overflows"),
    pytest.param(ring(4), [PATH_TREE.edges], [2], 1,
                 KeyDepletedError, "edge ('1', '2') ran out of key bits",
                 id="overflow-before-a-missed-node"),
])
def test_run_raises_what_the_instance_by_instance_run_raised(
    g, trees, mults, rounds, error, message
):
    pk = TreePacking.multigraph([SpanningTree.of(t) for t in trees], mults, rounds)
    with pytest.raises(error) as caught:
        run_packing_protocol(g, pk, seed=0)
    assert type(caught.value) is error and str(caught.value) == message


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
    monkeypatch.setattr(protocol, "_pools", lambda *args: pytest.fail("keys generated"))
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
    with pytest.raises(InvalidPackingError, match="schedule length does not match"):
        secrecy_audit(triangle, pk, schedule=schedule[:-1])
    past = [dict(step) for step in consumption_schedule(triangle, pk)]
    past[0][("1", "2")] = 2  # two rounds of unit rates: each pool holds bits 0 and 1
    with pytest.raises(KeyDepletedError, match=r"edge \('1', '2'\) has no bit at index 2"):
        secrecy_audit(triangle, pk, schedule=past)


def test_audit_is_edge_disjoint_exactly_when_no_reuse_is_listed(square_diag):
    # the protocol's schedule with one or two entries moved to a random bit
    # of their pool: where a move lands on a used bit, that bit is reused
    pk = brute_force_packing(square_diag, 3).packing
    sizes = {key: 3 * int(rate) for key, (rate, _) in square_diag.link_items()}
    rng = random.Random(4801)
    seen = Counter()
    for _ in range(200):
        schedule = [dict(step) for step in consumption_schedule(square_diag, pk)]
        for _ in range(rng.randint(1, 2)):
            step = rng.choice(schedule)
            key = rng.choice(sorted(step))
            step[key] = rng.randrange(sizes[key])
        report = secrecy_audit(square_diag, pk, schedule=schedule)
        reused = any(" reused by instances " in v for v in report.violations)
        assert report.edge_disjoint is not reused
        seen[report.edge_disjoint, report.uniform] += 1
    assert seen[True, True] and seen[False, False], seen


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
    with pytest.raises(InvalidPackingError, match=r"tree uses unknown edge \('1', '3'\)"):
        consumption_schedule(PATH3, pk)


def test_announce_and_recover_reject_a_step_missing_a_tree_edge():
    km = generate_keys(PATH3, 1, seed=0)
    step = {("1", "2"): 0, ("2", "3"): 0}  # the path's own schedule step
    orientation = orient_tree(FOREIGN_TREE)
    message = r"schedule misses edge \('1', '3'\) of a tree"
    with pytest.raises(InvalidPackingError, match=message):
        announce(orientation, km, step)
    with pytest.raises(InvalidPackingError, match=message):
        recover("3", orientation, [], km, step)


PATH_TREE3 = SpanningTree.of([("1", "2"), ("2", "3")])  # PATH3 itself


def bit_index_entries() -> dict:
    """Each entry point that reads a schedule step's key-bit index, on PATH3's
    one instance; each reads the index of edge (2, 3)."""
    km = generate_keys(PATH3, 1, seed=0)
    orientation = orient_tree(PATH_TREE3)
    sent = announce(orientation, km, {("1", "2"): 0, ("2", "3"): 0})
    pk = TreePacking.multigraph([PATH_TREE3], [1], 1)
    return {
        "announce": lambda step: announce(orientation, km, step),
        "recover": lambda step: recover("3", orientation, sent, km, step),
        "secrecy_audit": lambda step: secrecy_audit(PATH3, pk, schedule=[step]),
    }


@pytest.mark.parametrize("entry", ["announce", "recover", "secrecy_audit"])
@pytest.mark.parametrize("index,error,message", [
    ("0", SchemaError, "bit index of edge ('2', '3') must be an integer, got '0'"),
    (0.0, SchemaError, "bit index of edge ('2', '3') must be an integer, got 0.0"),
    (1.5, SchemaError, "bit index of edge ('2', '3') must be an integer, got 1.5"),
    (True, SchemaError, "bit index of edge ('2', '3') must be an integer, got True"),
    (None, SchemaError, "bit index of edge ('2', '3') must be an integer, got None"),
    (-1, KeyDepletedError, "edge ('2', '3') has no bit at index -1"),
    (1, KeyDepletedError, "edge ('2', '3') has no bit at index 1"),
], ids=["str", "float", "fraction-float", "bool", "None", "negative", "past-the-pool"])
def test_every_reader_of_a_bit_index_refuses_what_is_no_index_alike(entry, index, error, message):
    # one reader: no TypeError escapes, True is no bit 1, and ints outside
    # the one-bit pool keep their depletion message
    step = {("1", "2"): 0, ("2", "3"): index}
    with pytest.raises(error) as caught:
        bit_index_entries()[entry](step)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("entry", ["announce", "recover"])
@pytest.mark.parametrize("step", [None, [], 5, "12"], ids=["None", "list", "int", "str"])
def test_a_step_that_is_not_a_mapping_is_a_schema_error(entry, step):
    # no TypeError escapes from the membership test
    with pytest.raises(SchemaError) as caught:
        bit_index_entries()[entry](step)
    assert str(caught.value) == (
        f"a schedule step must be a mapping from edge to bit index, got {step!r}")


@pytest.mark.parametrize("index,error,message", [
    ("0", SchemaError, "bit index of edge ('1', '2') must be an integer, got '0'"),
    (True, SchemaError, "bit index of edge ('1', '2') must be an integer, got True"),
    (0.0, SchemaError, "bit index of edge ('1', '2') must be an integer, got 0.0"),
    (None, SchemaError, "bit index of edge ('1', '2') must be an integer, got None"),
    (1, KeyDepletedError, "edge ('1', '2') has no bit at index 1"),
    (-1, KeyDepletedError, "edge ('1', '2') has no bit at index -1"),
], ids=["str", "bool", "float", "None", "past-the-pool", "negative"])
def test_key_material_reads_a_bit_index_as_the_schedule_readers_do(index, error, message):
    km = generate_keys(PATH3, 1, seed=0)
    assert km.bit(("1", "2"), 0) in (0, 1)
    with pytest.raises(error) as caught:
        km.bit(("1", "2"), index)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("entry", [
    lambda pk: run_packing_protocol(PATH3, pk, seed=0),
    lambda pk: consumption_schedule(PATH3, pk),
    lambda pk: secrecy_audit(PATH3, pk),
    lambda pk: secrecy_audit(PATH3, pk, schedule=[{("1", "2"): 0, ("2", "3"): 0}]),
], ids=["run", "schedule", "audit", "audit-with-a-schedule"])
@pytest.mark.parametrize("mult,message", [
    (True, "tree multiplicity must be an integer, got True"),
    ("1", "tree multiplicity must be an integer, got '1'"),
    (1.0, "tree multiplicity must be an integer, got 1.0"),
    (-1, "negative tree multiplicity"),
], ids=["bool", "str", "float", "negative"])
def test_a_packing_built_without_multigraph_has_its_counts_checked(entry, mult, message):
    # the named-tuple constructor skips multigraph's check; the protocol
    # refuses with its class and messages
    with pytest.raises(InvalidPackingError) as caught:
        TreePacking.multigraph([PATH_TREE3], [mult], 1)
    assert str(caught.value) == message
    with pytest.raises(InvalidPackingError) as caught:
        entry(TreePacking((PATH_TREE3,), (mult,), 1))
    assert str(caught.value) == message
    assert entry(TreePacking((PATH_TREE3,), (1,), 1))


@pytest.mark.parametrize("schedule", [5, "abc", [None], ({("1", "2"): 0, ("2", "3"): 0}, None),
                                      {0: {("1", "2"): 0, ("2", "3"): 0}}],
                         ids=["int", "str", "None-step", "tuple-with-None", "dict"])
def test_audit_refuses_a_schedule_that_is_not_a_list_of_mappings(schedule):
    pk = TreePacking.multigraph([PATH_TREE3], [1], 1)
    with pytest.raises(SchemaError, match="^schedule must be a list or tuple of mappings "
                       "from edge to bit index$"):
        secrecy_audit(PATH3, pk, schedule=schedule)
    steps = ({("1", "2"): 0, ("2", "3"): 0},)
    assert secrecy_audit(PATH3, pk, schedule=steps) == secrecy_audit(PATH3, pk)


@pytest.mark.parametrize("call,error,message", [
    (lambda: security_budget(TreePacking.multigraph([PATH_TREE3], [1], 1), None), SchemaError,
     "epsilons must be a mapping from edge to epsilon, got None"),
    (lambda: security_budget(TreePacking.multigraph([PATH_TREE3], [1], 1), 5), SchemaError,
     "epsilons must be a mapping from edge to epsilon, got 5"),
    (lambda: security_budget(TreePacking.multigraph([PATH_TREE3], [1], 1), {("1", "2"): 0}),
     InvalidEdgeError, "no epsilon for edge ('2', '3')"),
    (lambda: orient_tree(PATH_TREE3, "12"), SchemaError,
     "conference edge must be a pair of node labels, got '12'"),
    (lambda: orient_tree(PATH_TREE3, ("1",)), SchemaError,
     "conference edge must be a pair of node labels, got ('1',)"),
    (lambda: orient_tree(PATH_TREE3, ("1", "2", "3")), SchemaError,
     "conference edge must be a pair of node labels, got ('1', '2', '3')"),
    (lambda: orient_tree(PATH_TREE3, 12), SchemaError,
     "conference edge must be a pair of node labels, got 12"),
    (lambda: orient_tree(PATH_TREE3, ("1", 2)), SchemaError,
     "conference edge must be a pair of node labels, got ('1', 2)"),
], ids=["budget-None", "budget-int", "budget-missing-edge", "conference-str",
        "conference-one-item", "conference-three-items", "conference-int", "conference-int-label"])
def test_budget_and_orientation_refuse_inputs_of_the_wrong_shape(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


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
