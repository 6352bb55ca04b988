"""The exact scans agree with their exhaustive reference versions.

Full results are compared -- rate report, every certificate field, the
bipartition pair -- so visit order and tie-breaks are checked too, not
just the optimum.
"""

import random
from fractions import Fraction

import pytest

from qnet_stp import check_no_bottleneck, nwt_rate
from qnet_stp.planner import _best_bipartition

import reference_scans
from conftest import build, complete, ring

RATES = ("1", "2", "3", "1/2", "3/2", "2/3", "5/4", "7/3")
ALPHABET = tuple("abcdefghijklmnopqrstuvwxyz") + tuple(str(i) for i in range(10))


def random_graph(rng, n):
    """Connected graph on ``n`` random labels, listed in random order.

    A random spanning tree of positive rates plus a random number of
    extra edges, some of them at rate 0; labels mix letters and digits so
    that the sorted order differs from the listed one.
    """
    labels = rng.sample(ALPHABET, n)
    order = labels[:]
    rng.shuffle(order)
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[frozenset((labels[i], labels[j]))] = rng.choice(RATES)
    for _ in range(rng.randint(0, n * (n - 1) // 2)):
        a, b = rng.sample(labels, 2)
        edges.setdefault(frozenset((a, b)), rng.choice(RATES + ("0",)))
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


def sparse(rng, n, extra):
    """Random tree on ``n`` shuffled labels plus ``extra`` more edges."""
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    edges = {
        frozenset((labels[i], labels[rng.randrange(i)])): rng.choice(RATES)
        for i in range(1, n)
    }
    while len(edges) < n - 1 + extra:
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
