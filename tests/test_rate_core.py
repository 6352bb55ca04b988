import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qnet_stp import (
    VertexPartition,
    check_no_bottleneck,
    contract,
    finest_bound,
    nwt_length,
    nwt_rate,
    partition_bound,
    triangle_rate,
)
from qnet_stp import rate_core
from qnet_stp.errors import (
    DisconnectedError,
    ExactModeLimitError,
    InvalidPartitionError,
    NegativeRateError,
    SchemaError,
    TrivialNetworkError,
)

import reference_scans
from conftest import build, complete, random_connected_graph, ring
from reference_scans import enumerate_partitions


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def test_triangle_rate_value(triangle):
    report = nwt_rate(triangle)
    assert report.rate == Fraction(3, 2)
    assert report.finest_is_optimal
    assert report.minimizing_partition.is_finest()


def test_k4_minus_edge_value(k4_minus):
    assert nwt_rate(k4_minus).rate == Fraction(5, 3)


def test_k4_value(k4):
    assert nwt_rate(k4).rate == 2


def test_pendant_value(tri_pendant):
    report = nwt_rate(tri_pendant)
    assert report.rate == 1
    assert report.minimizing_partition == VertexPartition.from_blocks(
        [["1", "2", "3"], ["4"]]
    )


def test_hexagon_value(hexagon):
    report = nwt_rate(hexagon)
    assert report.rate == Fraction(6, 5)
    assert report.finest_is_optimal


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_unit_trees_rate_one(n):
    nodes = [str(i) for i in range(1, n + 1)]
    path = build(nodes, [(nodes[i], nodes[i + 1], 1) for i in range(n - 1)])
    assert nwt_rate(path).rate == 1
    star = build(nodes, [(nodes[0], v, 1) for v in nodes[1:]])
    assert nwt_rate(star).rate == 1


def test_two_node_network():
    g = build(["a", "b"], [("a", "b", "7/3")])
    report = nwt_rate(g)
    assert report.rate == Fraction(7, 3)
    assert report.minimizing_partition.block_count == 2


def test_rate_errors(monkeypatch):
    with pytest.raises(TrivialNetworkError):
        nwt_rate(build(["1"], []))
    with pytest.raises(TrivialNetworkError, match="rates need at least two nodes"):
        finest_bound(build(["1"], []))
    with pytest.raises(DisconnectedError):
        nwt_rate(build(["1", "2", "3"], [("1", "2", 1)]))
    # 13 nodes passed the old node cap; the scan's own budget refuses it
    assert nwt_rate(ring(13)).rate == Fraction(13, 12)
    monkeypatch.setattr("qnet_stp.rate_core.PARTITION_BUDGET", 100)
    with pytest.raises(ExactModeLimitError, match="^the partition scan of 13 nodes passed its budget of 100 steps$"):
        nwt_rate(ring(13))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_partition_bound_examples(hexagon):
    halves = VertexPartition.from_blocks([["1", "2", "3"], ["4", "5", "6"]])
    assert partition_bound(hexagon, halves) == 2
    assert finest_bound(hexagon) == Fraction(6, 5)
    with pytest.raises(InvalidPartitionError):
        partition_bound(hexagon, VertexPartition.from_blocks(
            [["1", "2", "3", "4", "5", "6"]]
        ))


def test_minimizer_achieves_rate(two_cliques_hub):
    report = nwt_rate(two_cliques_hub)
    assert partition_bound(two_cliques_hub, report.minimizing_partition) == report.rate
    assert report.minimizing_partition == VertexPartition.from_blocks(
        [["1", "2", "3", "4"], ["5", "6", "7", "8"], ["9"]]
    )


def test_length_floors(triangle, hexagon):
    assert nwt_length(triangle, 2) == 3
    assert nwt_length(triangle, 1) == 1
    assert nwt_length(hexagon, 5) == 6
    assert nwt_length(hexagon, 4) == 4  # floor(24/5)
    with pytest.raises(SchemaError):
        nwt_length(triangle, 0)


# ---------------------------------------------------------------------------
# bottleneck test
# ---------------------------------------------------------------------------

def test_no_bottleneck_on_hexagon(hexagon):
    cert = check_no_bottleneck(hexagon)
    assert cert.ok
    assert cert.violating_subset is None
    assert cert.to_json_dict() == {"bottleneck": False}


def test_pendant_bottleneck(tri_pendant):
    cert = check_no_bottleneck(tri_pendant)
    assert not cert.ok
    assert cert.violating_subset == ("4",)
    assert cert.network_bound == Fraction(4, 3)
    assert cert.attachment_bound == 1
    assert cert.partition == VertexPartition.from_blocks([["1", "2", "3"], ["4"]])
    assert contract(tri_pendant, cert.partition).rate("1+2+3", "4") == 1


def test_tail_bottleneck(square_diag_tail):
    cert = check_no_bottleneck(square_diag_tail)
    assert cert.violating_subset == ("5", "6")
    assert cert.attachment_bound == Fraction(3, 2)


def test_hub_bottleneck(two_cliques_hub):
    cert = check_no_bottleneck(two_cliques_hub)
    assert cert.violating_subset == ("1", "2", "3", "4", "9")


def test_bottleneck_matches_finest_optimality():
    rng = random.Random(7)
    for _ in range(120):
        g = random_connected_graph(rng, max_nodes=6)
        assert check_no_bottleneck(g).ok == nwt_rate(g).finest_is_optimal


def cut_certifies(g):
    _, _, links = g.integer_links()
    degree = [0] * g.node_count
    for i, j, x in links:
        degree[i] += x
        degree[j] += x
    return rate_core._cut_certifies(degree, links)


def test_the_cut_certificate_never_hides_a_violator(monkeypatch):
    # wherever the least degrees and the minimum cut certify, the walk,
    # made to run, finds no violator either
    rng = random.Random(31)
    certified = 0
    for _ in range(600):
        g = random_connected_graph(rng, max_nodes=8, max_extra=rng.randint(0, 12),
                                   rates=(1, 2, 3, Fraction(1, 2)))
        if cut_certifies(g):
            certified += 1
            assert reference_scans.check_no_bottleneck(g).ok
            with monkeypatch.context() as m:
                m.setattr(rate_core, "_cut_certifies", lambda degree, links: False)
                assert check_no_bottleneck(g).ok
        assert check_no_bottleneck(g) == reference_scans.check_no_bottleneck(g)
    assert certified > 100


def test_the_cut_certificate_runs_only_within_the_subset_budget(monkeypatch):
    # the 12-ring is certified at a budget of 12**3 steps; below it the
    # certificate is skipped and the walk refuses as it did without one
    cuts = []
    min_cut = rate_core._min_cut

    def counting(w):
        cuts.append(len(w))
        return min_cut(w)

    monkeypatch.setattr(rate_core, "_min_cut", counting)
    monkeypatch.setattr(rate_core, "SUBSET_BUDGET", 12 ** 3)
    assert check_no_bottleneck(ring(12)).ok
    assert cuts == [12]
    monkeypatch.setattr(rate_core, "SUBSET_BUDGET", 12 ** 3 - 1)
    with pytest.raises(ExactModeLimitError,
                       match="^the subset scan of 12 nodes passed its budget of 1727 steps$"):
        check_no_bottleneck(ring(12))
    assert cuts == [12]


def test_attachment_and_subnetwork_forms_agree():
    # the per-subset test in its attachment form and its subnetwork form
    # must accept/reject identically whenever both are defined
    from qnet_stp.netgraph import induced_subgraph, proper_vertex_subsets

    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=6)
        nodes = g.sorted_nodes()
        n = len(nodes)
        total = g.total_rate()
        for subset in proper_vertex_subsets(nodes):
            if len(subset) > n - 2:
                continue
            inside = set(subset)
            attach = sum(
                (e.rate for e in g.edges if e.u in inside or e.v in inside),
                Fraction(0),
            )
            rest_rate = total - attach
            attachment_ok = total * len(subset) <= attach * (n - 1)
            subnetwork_ok = rest_rate * len(subset) <= attach * (n - len(subset) - 1)
            assert attachment_ok == subnetwork_ok


# ---------------------------------------------------------------------------
# three-party closed form
# ---------------------------------------------------------------------------

def test_triangle_closed_form_values():
    assert triangle_rate(Fraction(1), Fraction(1), Fraction(1)) == Fraction(3, 2)
    assert triangle_rate(Fraction(1), Fraction(2), Fraction(5)) == 3
    assert triangle_rate(Fraction(2), Fraction(3), Fraction(4)) == Fraction(9, 2)
    # one missing link: reduces to the path through the middle
    assert triangle_rate(Fraction(0), Fraction(2), Fraction(3)) == 2
    with pytest.raises(NegativeRateError, match="triangle rates must be nonnegative"):
        triangle_rate(Fraction(1), Fraction(-1), Fraction(1))
    with pytest.raises(DisconnectedError, match="two zero-rate links leave a node isolated"):
        triangle_rate(Fraction(0), Fraction(2), Fraction(0))


@given(
    st.fractions(min_value=0, max_value=4, max_denominator=5),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
    st.fractions(min_value=0, max_value=4, max_denominator=5),
)
def test_triangle_closed_form_matches_scan(r12, r13, r23):
    if sum(1 for r in (r12, r13, r23) if r == 0) >= 2:
        return  # disconnected
    g = build(["1", "2", "3"], [("1", "2", r12), ("1", "3", r13), ("2", "3", r23)])
    assert triangle_rate(r12, r13, r23) == nwt_rate(g).rate


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_every_partition_bounds_the_rate():
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=6)
        rate = nwt_rate(g).rate
        for p in enumerate_partitions(g):
            assert partition_bound(g, p) >= rate


def test_contraction_never_lowers_rate():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=6)
        rate = nwt_rate(g).rate
        partitions = [p for p in enumerate_partitions(g) if p.block_count >= 2]
        p = rng.choice(partitions)
        if p.block_count < 2:
            continue
        assert nwt_rate(contract(g, p)).rate >= rate


def test_rate_scales_homogeneously():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=6)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = build(
            g.sorted_nodes(), [(e.u, e.v, e.rate * c) for e in g.edges]
        )
        assert nwt_rate(scaled).rate == c * nwt_rate(g).rate


def least_partition_budget(monkeypatch, n, links, cutoff):
    """The least ``PARTITION_BUDGET`` under which ``_partition_scan`` finishes, by bisection."""
    refused, finished = -1, rate_core.PARTITION_BUDGET
    with monkeypatch.context() as m:
        while finished - refused > 1:
            budget = (refused + finished) // 2
            m.setattr(rate_core, "PARTITION_BUDGET", budget)
            try:
                rate_core._partition_scan(n, links, cutoff)
                finished = budget
            except ExactModeLimitError:
                refused = budget
    return finished


def test_the_partition_scan_does_not_depend_on_the_order_of_its_links(monkeypatch):
    # the planner scans its additions after the key-ordered links: any order
    # gives the same result, with or without a cutoff, and spends the same units
    rng = random.Random(46)
    stopped, bisected = 0, []
    for trial in range(150):
        g = random_connected_graph(rng, max_nodes=9, max_extra=10, rates=(1, 2, 3, Fraction(1, 2)))
        labels, _, links = g.integer_links()
        n = len(labels)
        shuffled = list(links)
        rng.shuffle(shuffled)
        least = rate_core._partition_scan(n, links)
        low = Fraction(least[0], least[1])
        finest = Fraction(sum(x for _, _, x in links), n - 1)
        for cutoff in (None, low - Fraction(1, 3), low, (low + finest) / 2, finest):
            found = rate_core._partition_scan(n, links, cutoff)
            assert rate_core._partition_scan(n, shuffled, cutoff) == found
            stopped += found != least
            if trial % 3 == 0:
                units = least_partition_budget(monkeypatch, n, links, cutoff)
                assert least_partition_budget(monkeypatch, n, shuffled, cutoff) == units
                bisected.append(units)
    # cutoffs that stop scans early, and scans that spend units
    assert stopped > 100 and sum(x > 0 for x in bisected) > 100


def test_length_is_floor_of_rate_multiple():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=6, rates=(1, 2, Fraction(1, 2)))
        rate = nwt_rate(g).rate
        for n in (1, 2, 3, 7):
            scaled = n * rate
            assert nwt_length(g, n) == scaled.numerator // scaled.denominator
