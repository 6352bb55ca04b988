"""The exact scans agree with their exhaustive reference versions.

Full results are compared -- rate report, every certificate field, the
bipartition pair, every audit report field, the ordered list of spanning
trees -- so visit order and tie-breaks are checked too, not just the
optimum.  The oracle is the exception: it packs with the exact packer,
not by the reference's exhaustive search, so only its tree count, round
count, ``optimal`` flag and validity are compared.
"""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from qnet_stp import (
    Caps,
    SpanningTree,
    TreePacking,
    VertexPartition,
    bottleneck_report,
    brute_force_packing,
    check_no_bottleneck,
    enumerate_spanning_trees,
    exact_packing,
    finest_bound,
    general_algorithm,
    is_connected,
    is_spanning_tree,
    nwt_rate,
    partition_bound,
    secrecy_audit,
    validate_packing,
)
from qnet_stp import packing
from qnet_stp.errors import DisconnectedError, HeuristicFailedError
from qnet_stp.netgraph import capacities
from qnet_stp.packing import _greedy_pack, _max_weight_tree, _optimal_flag
from qnet_stp.planner import _best_bipartition
from qnet_stp.protocol import consumption_schedule
from qnet_stp.rate_core import _partition_scan

import reference_scans
from conftest import bip_tie7, build, complete, random_connected_graph, ring

RATES = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "7/3")
INTEGER_RATES = ("1", "2", "3", "4")
FRACTIONAL_RATES = ("1/2", "3/2", "2/3", "5/4", "7/3")
ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz") + tuple(str(i) for i in range(10))


def random_graph(rng, n, rates=RATES):
    """Connected graph on ``n`` random labels, listed in random order.

    A random spanning tree of positive ``rates`` plus a random number of
    extra edges, some of them at rate 0; labels mix letters and digits so
    that the sorted order differs from the listed one.
    """
    labels = rng.sample(ALPHABET, n)
    order = labels[:]
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[frozenset((labels[i], labels[j]))] = rng.choice(rates)
    for _ in range(rng.randint(0, n * (n - 1) // 2)):
        a, b = rng.sample(labels, 2)
        edges.setdefault(frozenset((a, b)), rng.choice(rates + ("0",)))
    return build(order, [(*sorted(key), Fraction(r)) for key, r in edges.items()])


def assert_same_scans(g):
    assert nwt_rate(g) == reference_scans.nwt_rate(g)
    assert check_no_bottleneck(g) == reference_scans.check_no_bottleneck(g)
    assert _best_bipartition(g) == reference_scans.best_bipartition(g)


@pytest.mark.parametrize("seed", range(8))
def test_scans_match_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    for n in range(2, 9):
        for _ in range(4):
            assert_same_scans(random_graph(rng, n))


def test_scans_match_reference_with_uniform_rates():
    # uniform rates make many partitions tie, so tie-breaks decide
    rng = random.Random(99)
    for n in range(2, 9):
        g = random_graph(rng, n)
        assert_same_scans(build(g.node_ids, [(e.u, e.v, 1) for e in g.edges]))
        assert_same_scans(complete(n, rate=Fraction(2, 3)))
        assert_same_scans(ring(n) if n > 2 else complete(2))


@pytest.mark.parametrize("seed", range(4))
def test_partition_scan_stops_exactly_at_its_cutoff(seed):
    # the scan with a cutoff gives up only when the minimum is at most the cutoff
    rng = random.Random(seed)
    for n in range(2, 9):
        g = random_graph(rng, n)
        _, scale, w = g.integer_weights()
        full = _partition_scan(w)
        value = Fraction(full[0], full[1])
        assert Fraction(full[0], full[1] * scale) == nwt_rate(g).rate
        for cutoff in (value - Fraction(1, 7), value, value + Fraction(1, 7), Fraction(0)):
            got = _partition_scan(w, cutoff)
            assert got == (None if value <= cutoff else full)


@pytest.mark.parametrize("seed", range(4))
def test_a_witness_at_most_the_cutoff_stops_the_scan(seed):
    # the planner drops a candidate without a scan when some partition it
    # kept is at most the cutoff, and keeps the partition a scan stopped at
    rng = random.Random(seed)
    for n in range(2, 9):
        g = random_graph(rng, n)
        labels, scale, w = g.integer_weights()
        for _ in range(6):
            blocks = [0, 1] + [rng.randrange(n) for _ in range(n - 2)]
            rng.shuffle(blocks)
            first = {}
            rgs = tuple(first.setdefault(b, len(first)) for b in blocks)
            cross = sum(w[i][j] for i in range(n) for j in range(i) if rgs[i] != rgs[j])
            cutoff = max(Fraction(0), Fraction(cross, max(rgs)) + Fraction(rng.randint(-3, 3), 7))
            stop = []
            got = _partition_scan(w, cutoff, stop)
            if cross <= cutoff * max(rgs):
                assert got is None
            if got is None:
                (at,) = stop
                assert partition_bound(g, VertexPartition.from_rgs(labels, at)) * scale <= cutoff
            else:
                assert stop == [] and got == _partition_scan(w)


def uniform_tree(rng, n, rate):
    """Random spanning tree on ``n`` shuffled labels, every rate ``rate``."""
    labels = [f"t{i}" for i in range(n)]
    rng.shuffle(labels)
    return build(labels, [(labels[i], labels[rng.randrange(i)], rate) for i in range(1, n)])


def two_cliques(m1, m2, bridges, rate=1, hub=False):
    """K_m1 and K_m2 joined by ``bridges`` disjoint links, and each tied to a
    hub node when ``hub``; every rate ``rate``."""
    left = [f"a{i}" for i in range(m1)]
    right = [f"b{i}" for i in range(m2)]
    edges = [(x, y, rate) for side in (left, right) for x, y in itertools.combinations(side, 2)]
    edges += [(left[-1 - k], right[k], rate) for k in range(bridges)]
    nodes = left + right
    if hub:
        nodes.append("h")
        edges += [("h", left[0], rate), ("h", right[-1], rate)]
    return build(nodes, edges)


@pytest.mark.parametrize("n", range(3, 11))
def test_seeded_scan_keeps_the_first_of_partitions_tied_with_the_finest(n):
    # in a uniform tree every partition into connected blocks ties with the
    # finest one, which comes last in RGS order; two K4s joined by two links
    # tie the bipartition between them with the finest partition too
    rng = random.Random(n)
    graphs = [uniform_tree(rng, n, rng.choice(("1", "2/3")))]
    if n == 8:
        graphs += [two_cliques(4, 4, 2), two_cliques(4, 4, 2, rate=Fraction(3, 2))]
    for g in graphs:
        report = nwt_rate(g)
        assert report == reference_scans.nwt_rate(g)
        assert report.finest_is_optimal and not report.minimizing_partition.is_finest()


@pytest.mark.parametrize("seed", range(4))
def test_cutoff_at_or_above_the_finest_value_stops_at_once(seed):
    rng = random.Random(seed)
    for n in range(2, 9):
        g = random_graph(rng, n)
        _, _, w = g.integer_weights()
        finest = Fraction(sum(map(sum, w)) // 2, n - 1)
        for cutoff in (finest, finest + Fraction(1, 3)):
            stop = []
            assert _partition_scan(w, cutoff, stop) is None
            assert stop == [tuple(range(n))]


@pytest.mark.parametrize("seed", range(4))
def test_bottleneck_report_matches_the_subset_scan(seed):
    # the report skips the subset scan when the finest partition is optimal
    rng = random.Random(seed)
    for n in range(2, 9):
        for g in (random_graph(rng, n), uniform_tree(rng, n, "1"), ring(n) if n > 2 else complete(2)):
            report = bottleneck_report(g)
            certificate = reference_scans.check_no_bottleneck(g)
            assert report.certificate == (None if certificate.ok else certificate)
            assert report.finest_is_optimal == certificate.ok
            assert report.rate == reference_scans.nwt_rate(g).rate
            assert report.best_bipartition_bound == reference_scans.best_bipartition(g)[0]


def assert_same_report(g):
    report = bottleneck_report(g)
    want = reference_scans.bottleneck_report(g)
    assert report.to_json_dict() == want.to_json_dict()
    assert report == want


@pytest.mark.parametrize("seed", range(3))
def test_bottleneck_report_matches_reference_on_random_graphs(seed):
    # the report computes a cut only when the minimizer has three or more
    # blocks, and searches for the cut's side only when it ties the rate
    rng = random.Random(900 + seed)
    for n in range(2, 10):
        assert_same_report(random_graph(rng, n, INTEGER_RATES))
        g = random_graph(rng, n, FRACTIONAL_RATES)
        assert g.integer_weights()[1] > 1
        assert_same_report(g)


@pytest.mark.parametrize("n", range(2, 10))
def test_bottleneck_report_matches_reference_on_tied_families(n):
    path = build([str(i) for i in range(n)], [(str(i), str(i + 1), 1) for i in range(n - 1)])
    graphs = [complete(n), path]
    if n >= 3:
        graphs.append(ring(n))
    if n >= 5:
        graphs.append(two_cliques((n - 1) // 2, n - 1 - (n - 1) // 2, 1, hub=True))
    if n == 7:
        graphs.append(bip_tie7())
    for g in graphs:
        assert_same_report(g)


@pytest.mark.parametrize("n", range(2, 13))
def test_best_bipartition_keeps_the_smallest_of_tied_minimum_cuts(n):
    # every arc of a ring, and every single node of a uniform complete
    # graph, is a minimum cut; two cliques tie their bridges with small sides
    graphs = [complete(n, rate=Fraction(2, 3)), ring(n) if n > 2 else complete(2)]
    if n >= 4:
        graphs.append(two_cliques(n // 2, n - n // 2, 1))
        graphs.append(two_cliques(n // 2, n - n // 2, min(n // 2, 3), rate=2))
    if n >= 5:
        graphs.append(two_cliques((n - 1) // 2, n - 1 - (n - 1) // 2, 1, hub=True))
    for g in graphs:
        assert _best_bipartition(g) == reference_scans.best_bipartition(g)


def sparse(rng, n, extra):
    """Random tree on ``n`` shuffled labels plus ``extra`` more edges, or
    as many as fit."""
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    edges = {
        frozenset((labels[i], labels[rng.randrange(i)])): rng.choice(RATES)
        for i in range(1, n)
    }
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        a, b = rng.sample(labels, 2)
        edges.setdefault(frozenset((a, b)), rng.choice(RATES))
    return build(labels, [(*sorted(key), Fraction(r)) for key, r in edges.items()])


@pytest.mark.parametrize("make", [
    lambda: ring(9),
    lambda: ring(10),
    lambda: complete(9),
    lambda: sparse(random.Random(9), 9, 3),
    lambda: sparse(random.Random(10), 10, 4),
], ids=["ring9", "ring10", "k9", "sparse9", "sparse10"])
def test_scans_match_reference_on_larger_graphs(make):
    assert_same_scans(make())


def test_scans_match_reference_on_two_cliques_hub(two_cliques_hub):
    assert_same_scans(two_cliques_hub)


def assert_same_kernel(w):
    """The scan returns what the static-bound reference scan returns, with
    no cutoff and with cutoffs below, at and above the minimum and at and
    above the finest value, ``stop`` witnesses included."""
    full = _partition_scan(w)
    assert full == reference_scans.partition_scan(w)
    value = Fraction(full[0], full[1])
    finest = Fraction(sum(map(sum, w)) // 2, len(w) - 1)
    cutoffs = {value - Fraction(1, 7), value, (value + finest) / 2, value + Fraction(1, 7),
               finest, finest + Fraction(1, 3)}
    for cutoff in sorted(c for c in cutoffs if c >= 0):
        got, want = [], []
        assert _partition_scan(w, cutoff, got) == reference_scans.partition_scan(w, cutoff, want)
        assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_partition_scan_matches_the_static_bound_scan_on_random_graphs(seed):
    # rates 0 and fractional rates, up to N = 12 where Bell(N) is too slow
    rng = random.Random(500 + seed)
    for n in range(2, 13):
        assert_same_kernel(random_graph(rng, n).integer_weights()[2])
        assert_same_kernel(sparse(rng, n, rng.randint(0, n)).integer_weights()[2])


@pytest.mark.parametrize("n", range(2, 13))
def test_partition_scan_matches_the_static_bound_scan_on_tied_families(n):
    # uniform trees tie every partition into connected blocks with the
    # finest; unit complete graphs, rings and two cliques tie many more
    rng = random.Random(n)
    graphs = [uniform_tree(rng, n, "1"), uniform_tree(rng, n, "2/3"), complete(n),
              ring(n) if n > 2 else complete(2)]
    if n >= 4:
        graphs += [two_cliques(n // 2, n - n // 2, 1), two_cliques(n // 2, n - n // 2, 2, rate=3)]
    if n >= 5:
        graphs.append(two_cliques((n - 1) // 2, n - 1 - (n - 1) // 2, 1, hub=True))
    for g in graphs:
        assert_same_kernel(g.integer_weights()[2])


@pytest.mark.parametrize("make, violator_size", [
    (lambda: ring(11), 0),
    (lambda: ring(12), 0),
    (lambda: complete(11), 0),
    (lambda: complete(12, rate=Fraction(2, 3)), 0),
    (lambda: two_cliques(6, 6, 1), 6),
    (lambda: two_cliques(6, 6, 2, rate=Fraction(3, 2)), 6),
    (lambda: two_cliques(6, 5, 2), 5),
    (lambda: two_cliques(5, 7, 1), 4),
    (lambda: two_cliques(6, 5, 2, rate=Fraction(2, 3)), 5),
    (lambda: two_cliques(5, 7, 1, rate=Fraction(7, 4)), 4),
], ids=["ring11", "ring12", "k11", "k12", "cliques6-6", "cliques6-6x2", "cliques6-5x2",
        "cliques5-7", "cliques6-5x2-thirds", "cliques5-7-quarters"])
def test_subset_scan_matches_reference_on_eleven_and_twelve_nodes(make, violator_size):
    # the violators come after every smaller subset: the prune skips most
    # of the walk before them
    g = make()
    certificate = check_no_bottleneck(g)
    assert certificate == reference_scans.check_no_bottleneck(g)
    assert len(certificate.violating_subset or ()) == violator_size


@pytest.mark.parametrize("seed", range(3))
def test_subset_scan_matches_reference_on_random_eleven_and_twelve_node_graphs(seed):
    rng = random.Random(700 + seed)
    for n in (11, 12):
        for g in (random_graph(rng, n), sparse(rng, n, n), sparse(rng, n, 2 * n)):
            assert check_no_bottleneck(g) == reference_scans.check_no_bottleneck(g)


@pytest.mark.parametrize("seed", range(4))
def test_subset_scan_certificate_matches_reference_on_fractional_rates(seed):
    # the certificate's bounds are integer sums over a scale above 1
    rng = random.Random(800 + seed)
    violators = 0
    for n in range(2, 11):
        for g in (random_graph(rng, n, FRACTIONAL_RATES), sparse(rng, n, rng.randint(0, n))):
            if g.integer_weights()[1] == 1:
                continue
            certificate = check_no_bottleneck(g)
            assert certificate == reference_scans.check_no_bottleneck(g)
            violators += not certificate.ok
    assert violators >= 3


def random_packing(rng, g, rounds):
    """Random spanning trees with random multiplicities that fit ``rounds``."""
    room = capacities(g, rounds)
    trees = list(enumerate_spanning_trees(g))
    rng.shuffle(trees)
    chosen, mults = [], []
    for tree in trees[: rng.randint(1, 4)]:
        fit = min(room[k] for k in tree.edges)
        count = rng.randint(0, fit) if fit else 0
        if count:
            for k in tree.edges:
                room[k] -= count
            chosen.append(tree)
            mults.append(count)
    return TreePacking.multigraph(chosen, mults, rounds)


def reuse_schedule(rng, g, pk):
    """The protocol's schedule with one or two bits pointed at bits used elsewhere."""
    schedule = [dict(step) for step in consumption_schedule(g, pk)]
    for _ in range(rng.randint(1, 2)):
        step = rng.choice(schedule)
        key = rng.choice(sorted(step))
        step[key] = rng.choice([s[key] for s in schedule if key in s])
    return schedule


def assert_same_audit(g, pk, schedule=None):
    report = secrecy_audit(g, pk, schedule=schedule)
    expected = reference_scans.secrecy_audit(g, pk, schedule=schedule)
    del expected["histograms"]  # a view only the enumeration keeps
    assert {field: getattr(report, field) for field in expected} == expected
    return report


@pytest.mark.parametrize("seed", range(8))
def test_audit_matches_every_assignment(seed):
    rng = random.Random(seed)
    verdicts = set()
    for n in range(2, 6):
        for rounds in (1, 2):
            for _ in range(4):
                g = random_connected_graph(rng, max_nodes=n, max_extra=2, rates=(1, 2))
                if sum(capacities(g, rounds).values()) > 14:
                    continue
                pk = random_packing(rng, g, rounds)
                verdicts.add(assert_same_audit(g, pk).uniform)
                for _ in range(2 if pk.trees else 0):
                    verdicts.add(assert_same_audit(g, pk, reuse_schedule(rng, g, pk)).uniform)
    assert verdicts == {True, False}


def test_audit_matches_every_assignment_on_ring4():
    g = ring(4)
    for rounds in (3, 4):  # 12 and 16 key bits
        assert_same_audit(g, brute_force_packing(g, rounds).packing)


def assert_same_oracle_answer(g, rounds):
    """Tree count, rounds and ``optimal`` of the reference search, and a valid packing."""
    outcome = brute_force_packing(g, rounds)
    expected = reference_scans.brute_force_packing(g, rounds)
    got, want = outcome.packing, expected.packing
    assert (got.tree_count, got.rounds, outcome.optimal) == (
        want.tree_count, want.rounds, expected.optimal
    )
    assert validate_packing(g, got).ok


@pytest.mark.parametrize("seed", range(8))
def test_oracle_matches_reference_search(seed):
    rng = random.Random(100 + seed)
    for _ in range(12):
        g = random_connected_graph(rng, max_nodes=5, max_extra=5, rates=(1, 2, 3, "1/2", "3/2"))
        for rounds in range(1, 4):
            assert_same_oracle_answer(g, rounds)


@pytest.mark.parametrize("make", [
    lambda: complete(4, rate=2),
    lambda: complete(4, rate=Fraction(3, 2)),
    lambda: complete(5),
], ids=["k4-rate2", "k4-rate3/2", "k5"])
def test_oracle_matches_reference_search_on_dense_graphs(make):
    # the reference search visits thousands of memoized states here
    g = make()
    for rounds in range(1, 4 if g.node_count == 5 else 5):
        assert_same_oracle_answer(g, rounds)


def integer_graph(rng, n, extra=None):
    """Random tree at rates 1..3 on ``n`` labels, plus ``extra`` (0..n
    by default) draws of extra edges at rates 0..3."""
    labels = rng.sample(ALPHABET, n)
    edges = {frozenset((labels[i], labels[rng.randrange(i)])): rng.randint(1, 3)
             for i in range(1, n)}
    for _ in range(rng.randint(0, n) if extra is None else extra):
        edges.setdefault(frozenset(rng.sample(labels, 2)), rng.randint(0, 3))
    return build(labels, [(*sorted(key), r) for key, r in edges.items()])


def assert_partition_refutes(g, rounds, target, partition):
    """Fewer than ``target * (blocks - 1)`` edge copies cross ``partition``."""
    block = partition.block_of()
    crossing = sum(m for (u, v), m in capacities(g, rounds).items()
                   if block[u] != block[v])
    assert crossing < target * (partition.block_count - 1)


@pytest.mark.parametrize("seed", range(8))
def test_exact_packer_reaches_the_reference_oracle_count(seed):
    rng = random.Random(300 + seed)
    for _ in range(10):
        g = integer_graph(rng, rng.randint(2, 6))
        for rounds in (1, 2, 3):
            best = reference_scans.brute_force_packing(g, rounds).packing.tree_count
            pk = exact_packing(g, rounds, best)
            assert (pk.tree_count, pk.rounds) == (best, rounds)
            assert validate_packing(g, pk).ok
            with pytest.raises(HeuristicFailedError) as info:
                exact_packing(g, rounds, best + 1)
            assert str(info.value.partition) in str(info.value)
            assert_partition_refutes(g, rounds, best + 1, info.value.partition)


def any_graph(rng, n):
    """Random edges at rates 0, 1 and 2 on ``n`` random labels, often disconnected."""
    labels = rng.sample(ALPHABET, n)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    return build(labels, [(a, b, rng.choice((0, 1, 1, 2))) for a, b in chosen])


#: Most trees the enumeration comparison lists; denser graphs are only counted.
TREES_LISTED = 3000


def trees_or_error(enumerate_, g):
    try:
        if reference_scans.count_spanning_trees(g) > TREES_LISTED:
            return "too many to list"
        return list(enumerate_(g))
    except DisconnectedError as exc:
        return type(exc), str(exc)


def tree_candidates(rng, g, trees):
    """Valid trees and trees with a foreign edge, a repeated edge, a cycle
    or the wrong size, each as a sorted or an unsorted key tuple."""
    keys = [e.key for e in g.edges]
    labels = g.sorted_nodes()
    foreign = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
               if not g.has_edge(a, b)] + [("!", labels[0])]
    valid = [list(t.edges) for t in rng.sample(trees, min(3, len(trees)))]
    out = valid + [
        rng.sample(keys, size)  # trees, forests and cycles
        for size in (g.node_count - 1 + rng.choice((-1, 0, 0, 1)) for _ in range(6))
        if 0 <= size <= len(keys)
    ]
    for edges in valid:
        if edges:
            out += [edges[1:] + [rng.choice(foreign)], edges[1:] + [edges[-1]], edges[1:]]
        out.append(edges + [rng.choice(keys or foreign)])
    return [SpanningTree(tuple(edges)) for edges in out]


@pytest.mark.parametrize("seed", range(8))
def test_spanning_tree_helpers_match_reference(seed):
    rng = random.Random(200 + seed)
    for n in range(1, 9):
        for _ in range(6):
            g = any_graph(rng, n) if rng.random() < 0.5 else random_graph(rng, n)
            for positive_only in (False, True):
                assert is_connected(g, positive_only) == reference_scans.is_connected(
                    g, positive_only
                )
            trees = trees_or_error(enumerate_spanning_trees, g)
            assert trees == trees_or_error(reference_scans.enumerate_spanning_trees, g)
            count = reference_scans.count_spanning_trees(g)
            if isinstance(trees, list):
                assert count == len(trees)
            elif trees[0] is DisconnectedError:
                assert count == 0
            if isinstance(trees, list) and trees:
                # keys of one tree, and at times one more (which may close a cycle)
                keys = [e.key for e in g.positive_edges()]
                required = rng.sample(rng.choice(trees).edges, rng.randint(0, n - 1))
                if keys and rng.random() < 0.5:
                    required.append(rng.choice(keys))
                assert list(enumerate_spanning_trees(g, required=required)) == [
                    t for t in trees if set(required) <= set(t.edges)
                ]
            for tree in tree_candidates(rng, g, trees if isinstance(trees, list) else []):
                assert is_spanning_tree(g, tree) == reference_scans.is_spanning_tree(g, tree)
            if n > 1:  # the greedy packers need two nodes
                weight = {e.key: rng.randint(-1, 3) for e in g.edges}
                assert _max_weight_tree(g, weight) == reference_scans.max_weight_tree(g, weight)


@pytest.mark.parametrize("budget", [packing.BACKTRACK_BUDGET, 1, 3],
                         ids=["default", "backtrack1", "backtrack3"])
def test_greedy_pack_matches_reference(monkeypatch, budget):
    # the next-to-last tree is searched only among trees holding every
    # weight-2 residual edge; packings, backtracks and fallbacks stay the same
    monkeypatch.setattr(packing, "BACKTRACK_BUDGET", budget)
    rng = random.Random(500)
    reasons = collections.Counter()
    for _ in range(300):
        n = rng.randint(3, 7)
        g = integer_graph(rng, n, extra=rng.randint(n // 2, 2 * n))
        if not check_no_bottleneck(g).ok:
            continue
        got = _greedy_pack(g).to_json_dict()
        assert got == reference_scans.greedy_pack(g).to_json_dict()
        reasons[got["diagnostics"].get("fallback_reason")] += 1
    # the greedy succeeds on most, and its search gives up on some
    assert reasons[None] > 40
    assert reasons["no next-to-last tree leaves a clean final tree"] > 0


def square_diag_tail(n):
    """A square with a diagonal, plus a tail path from its first to its second corner."""
    a, b, c, d, *tail = [str(i) for i in range(1, n + 1)]
    path = [a, *tail, b]
    edges = [(a, b, 1), (b, c, 1), (c, d, 1), (a, d, 1), (a, c, 1)]
    return build([a, b, c, d, *tail], edges + [(x, y, 1) for x, y in zip(path, path[1:])])


def two_cliques_hub(n):
    """Two cliques joined by one edge, both tied to a hub node."""
    hub, *rest = [str(i) for i in range(1, n + 1)]
    left, right = rest[:len(rest) // 2], rest[len(rest) // 2:]
    edges = [(x, y, 1) for group in (left, right) for i, x in enumerate(group) for y in group[i + 1:]]
    edges += [(left[-1], right[0], 1), (left[0], hub, 1), (right[-1], hub, 1)]
    return build([hub, *rest], edges)


@pytest.mark.parametrize("seed", range(6))
def test_optimal_flag_matches_reference(seed):
    rng = random.Random(300 + seed)
    # integer rates for the general packer, rational ones for the oracle
    graphs = [random_connected_graph(rng, max_nodes=7, max_extra=4) for _ in range(5)]
    graphs += [random_graph(rng, rng.randint(2, 6)) for _ in range(3)]
    if seed == 0:  # the general packer loses rate on these
        graphs += [square_diag_tail(8), square_diag_tail(10), two_cliques_hub(10)]
    for g in graphs:
        report = nwt_rate(g)
        rates = {report.rate, Fraction(0)}
        if all(e.rate.denominator == 1 for e in g.edges):
            rates.add(general_algorithm(g).achieved_rate)
        for rounds in (1, 2, 3):
            rates.add(brute_force_packing(g, rounds).achieved_rate)
        # the partitions the packers pass in: a violator's, the minimizer
        witnesses = (None, check_no_bottleneck(g).partition, report.minimizing_partition)
        for r in sorted(rates):
            expected = reference_scans.optimal_flag(g, r)
            for witness in witnesses:
                assert _optimal_flag(g, r, Caps(), witness) == expected, (r, witness)
                # under the cap only a linear bound proves the rate optimal
                proven = r == finest_bound(g) or (
                    witness is not None and r == partition_bound(g, witness)
                )
                capped = _optimal_flag(g, r, Caps(partitions=g.node_count - 1), witness)
                assert capped is (True if proven else None), (r, witness)
    if seed == 0:
        assert [general_algorithm(g).optimal for g in graphs[-3:]] == [False] * 3


def test_enumeration_matches_reference_on_k6_minus_two_edges():
    g = complete(6)
    g = build(g.node_ids, [(e.u, e.v, 1) for e in g.edges if e.key not in (("1", "2"), ("3", "4"))])
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == 576
    assert trees == list(reference_scans.enumerate_spanning_trees(g))
