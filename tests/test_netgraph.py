import json
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qnet_stp import (
    Edge,
    SpanningTree,
    TreePacking,
    VertexPartition,
    WeightedGraph,
    brute_force_packing,
    capacities,
    contract,
    enumerate_spanning_trees,
    exact_packing,
    explicit_rates_no_bottleneck,
    generate_keys,
    induced_subgraph,
    is_connected,
    is_spanning_tree,
    nwt_length,
    parse_graph,
    partition_bound,
    rates_from_packing,
    secrecy_audit,
    security_budget,
    triangle_rate,
)
from qnet_stp.cli import main
from qnet_stp.errors import (
    DuplicateEdgeError,
    InvalidEdgeError,
    InvalidPartitionError,
    InvalidSubsetError,
    NegativeRateError,
    PreconditionFailedError,
    SchemaError,
    SelfLoopError,
    UnknownNodeError,
)
from qnet_stp.netgraph import (
    check_rounds,
    edge_key,
    integer_rates,
    parse_rational,
)
from qnet_stp.protocol import consumption_schedule

from conftest import build, complete, ring, sorted_path
from reference_scans import count_spanning_trees, enumerate_partitions, restricted_growth_strings


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


@pytest.mark.parametrize("bad", [1.5, True, None, [1], "x/y", "1/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(SchemaError):
        parse_rational(bad)


def test_parse_rational_bounds_digits():
    # at most 1000 digits above and below the line, in every accepted form
    assert parse_rational(10**1000 - 1) == 10**1000 - 1
    assert parse_rational("1/" + "9" * 1000) == Fraction(1, 10**1000 - 1)
    assert parse_rational("1e999") == 10**999
    assert parse_rational(" 1e999  ") == 10**999
    # leading zeros past 1000 digits, still under Python's int-string limit
    assert parse_rational("1/" + "0" * 4000 + "1") == 1
    for bad in (10**1000, -(10**1000), Fraction(1, 10**1000), "1e1000", "1e-1000", "1e99999", "1e99999 ",
                "9" * 5000, "1." + "0" * 5000):
        with pytest.raises(SchemaError, match="more than 1000 digits"):
            parse_rational(bad)
    # a malformed input is quoted, but not all of it
    with pytest.raises(SchemaError, match="^malformed rational 'xxx") as info:
        parse_rational("x" * 5000)
    assert len(str(info.value)) < 120


def fraction_parse(text):
    """The string rule of ``parse_rational`` with ``Fraction``'s parser on every input."""
    too_long = "rational with more than 1000 digits in its numerator or denominator"
    if len(text.strip().lower().partition("e")[2].lstrip("+-0")) > 4:
        raise SchemaError(too_long)
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        if sum(map(str.isdigit, text)) > 1000:
            raise SchemaError(too_long) from None
        raise SchemaError(f"malformed rational {text[:80]!r}{'...' if len(text) > 80 else ''}") from None
    if abs(x.numerator) >= 10**1000 or x.denominator >= 10**1000:
        raise SchemaError(too_long)
    return x


RATIONAL_CORPUS = [
    "0", "7", "007", "12345", "7/5", "10/4", "0/5", "5/1", "3/0", "0/0", "5/00", "1/2/3",
    "", " ", "/", "1/", "/2", "1//2", " 3", "3 ", "\t7/5\n", "1 / 2",
    "+3", "-3", "-3/4", "+3/4", "3/-4", "-0", "--3",
    "1_000", "1_000/2_0", "1__0", "_1", "1_", "1/_2",
    "0.25", ".5", "5.", "1.5/2", "1e3", "1E-3", "2.5e+2", "1e99999", "1e", "e3",
    "\u0663", "\u0663/\u0664", "\uff13", "1\u0660", "\u00b2", "x/y", "abc", "0x10", "inf", "nan",
    "9" * 40, "9" * 39 + "/" + "9" * 40, "9" * 41, "1/" + "9" * 1000, "1/" + "9" * 1001,
    "9" * 1001, "9" * 5000, "1/" + "0" * 4000 + "1", "1." + "0" * 5000,
]


@pytest.mark.parametrize("text", RATIONAL_CORPUS, ids=range(len(RATIONAL_CORPUS)))
def test_parse_rational_matches_the_fraction_parser(text):
    try:
        want = fraction_parse(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            parse_rational(text)
        assert str(info.value) == str(exc)
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want


def test_graphs_keep_the_parsed_fractions():
    rate = parse_rational("3/2")
    g = WeightedGraph(["a", "b"], [("a", "b", rate, Fraction(0))])
    assert g.edge("a", "b").rate is rate
    assert type(WeightedGraph(["a", "b"], [("a", "b", 2)]).rate("a", "b")) is Fraction


def test_parse_graph_roundtrip(triangle):
    text = triangle.to_json()
    again = parse_graph(text)
    assert again == triangle
    assert json.loads(text)["nodes"] == ["1", "2", "3"]


def test_parse_graph_float_rate_rejected():
    doc = {"nodes": ["a", "b"], "edges": [{"u": "a", "v": "b", "rate": 0.5}]}
    with pytest.raises(SchemaError, match="quote it"):
        parse_graph(json.dumps(doc))


def k10_doc(rates, **extra):
    """K10 on labels 1..10, edge ``k`` (in pair order) at ``rates[k % len(rates)]``."""
    nodes = [str(i) for i in range(1, 11)]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    edges = [{"u": u, "v": v, "rate": rates[k % len(rates)], **extra}
             for k, (u, v) in enumerate(pairs)]
    return {"nodes": nodes, "edges": edges}


def test_parse_graph_with_repeated_rate_strings_matches_the_fractions():
    doc = k10_doc(["3/2", "2", "0.25"])
    assert len(doc["edges"]) == 45
    want = WeightedGraph(
        doc["nodes"], [(e["u"], e["v"], Fraction(e["rate"]), Fraction(0)) for e in doc["edges"]]
    )
    assert parse_graph(json.dumps(doc)) == want


def test_parse_graph_names_the_first_malformed_rate():
    doc = k10_doc(["1"])
    doc["edges"][2]["rate"] = "1//2"
    doc["edges"][5]["rate"] = "1//2"
    with pytest.raises(SchemaError) as info:
        parse_graph(json.dumps(doc))
    assert str(info.value) == "malformed rational '1//2'"


def test_parse_graph_refuses_a_null_epsilon():
    doc = k10_doc(["1"], epsilon="1/8")
    doc["edges"][7]["epsilon"] = None
    with pytest.raises(SchemaError, match="expected a rational, got NoneType"):
        parse_graph(json.dumps(doc))


def test_parse_graph_parses_each_rate_string_once(monkeypatch):
    import qnet_stp.netgraph as netgraph

    calls = []

    def counting(value):
        calls.append(value)
        return parse_rational(value)

    want = complete(10)  # built before the count: the constructor reads its rates too
    monkeypatch.setattr(netgraph, "parse_rational", counting)
    g = parse_graph(json.dumps(k10_doc(["1"])))
    assert g == want
    assert calls == ["1"]


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build(["1", "2"], [("1", "1", 1)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        build(["1", "2"], [("1", "2", 1), ("2", "1", 2)])


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        build(["1", "2"], [("1", "3", 1)])


def test_negative_rate_rejected():
    with pytest.raises(NegativeRateError):
        build(["1", "2"], [("1", "2", -1)])


def test_negative_epsilon_file_rejected(tmp_path, capsys):
    doc = {"nodes": ["1", "2"], "edges": [{"u": "1", "v": "2", "rate": "1", "epsilon": "-1/2"}]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["rate", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"code": "NegativeRate", "message": "edge (1,2) has negative epsilon -1/2"}


def test_duplicate_node_rejected():
    with pytest.raises(SchemaError):
        WeightedGraph(["1", "1"], [])


def test_edges_are_kept_in_key_order():
    g = WeightedGraph(["c", "a", "b", "d"], [("d", "a", 1), ("b", "c", 2), ("b", "a", 3)])
    assert [e.key for e in g.edges] == [("a", "b"), ("a", "d"), ("b", "c")]
    assert g.edges_at("a") == (("a", "b"), ("a", "d"))
    assert g.edges_at("b") == (("a", "b"), ("b", "c"))
    assert g.edges_at("d") == (("a", "d"),)
    assert g.has_node("c") and not g.has_node("e")
    assert g.edge("b", "a").rate == 3
    with pytest.raises(InvalidEdgeError, match="no edge between 'c' and 'd'"):
        g.edge("c", "d")
    with pytest.raises(UnknownNodeError):
        g.edges_at("e")


def test_every_kind_of_edge_item_builds_the_parsed_graph():
    doc = {"nodes": ["1", "2", "3", "10"], "edges": [
        {"u": "2", "v": "1", "rate": "3/2"},
        {"u": "1", "v": "10", "rate": 2, "epsilon": "1/4"},
        {"u": "3", "v": "2", "rate": "0"},
        {"u": "10", "v": "3", "rate": "5", "epsilon": 0},
    ]}
    parsed = parse_graph(json.dumps(doc))
    records = [Edge("1", "2", Fraction(3, 2)), Edge("1", "10", Fraction(2), Fraction(1, 4)),
               Edge("2", "3", Fraction(0)), Edge("10", "3", Fraction(5), Fraction(0))]
    built = [
        WeightedGraph(doc["nodes"], records),
        WeightedGraph(doc["nodes"], records[::-1]),
        WeightedGraph(doc["nodes"], [list(r) for r in records]),
        WeightedGraph([1, 2, 3, 10], [(2, 1, "3/2"), (1, 10, 2, Fraction(1, 4)), (3, 2, 0),
                                      (10, 3, Fraction(5))]),
        WeightedGraph(doc["nodes"], [("1", "2", Fraction(3, 2), 0), ("10", "1", "2", "1/4"),
                                     ("3", "2", "0"), ("3", "10", 5, "0")]),
    ]
    want_links = (("1", "10", "2", "3"), 2, ((0, 1, 4), (0, 2, 3), (1, 3, 10), (2, 3, 0)))
    for g in built:
        # the integer view first, from the constructor's map alone
        assert g.integer_links() == parsed.integer_links() == want_links
        assert g == parsed and hash(g) == hash(parsed)
        assert g.edges == parsed.edges == tuple(sorted(records))
        assert g.epsilon_map() == parsed.epsilon_map() == {
            ("1", "10"): Fraction(1, 4), ("1", "2"): 0, ("2", "3"): 0, ("10", "3"): 0}
        assert all(type(x) is Fraction for e in g.edges for x in e[2:])


def test_a_document_with_several_faults_raises_the_first_in_check_order():
    """Every record's schema, then the node list, then each link's self-loop,
    unknown-node, negative-rate, negative-epsilon and duplicate checks, link by
    link in document order."""
    links = [
        ("1", "2", "1"),
        ("9", "9", "-1"),  # a self-loop at an unknown node, negative
        ("3", "9", "-1"),  # an unknown node, negative
        ("2", "1", "-1"),  # negative and a duplicate
        ("1", "3", "1", "-1"),  # a negative epsilon
        ("2", "1", "2"),  # a duplicate
    ]
    faults = [
        (SchemaError, 'each edge needs "u", "v" and "rate" fields'),
        (SchemaError, "malformed rational 'x'"),
        (SchemaError, "duplicate node labels"),
        (SelfLoopError, "self-loop at node '9'"),
        (UnknownNodeError, "edge endpoint '9' is not a declared node"),
        (NegativeRateError, "edge (2,1) has negative rate -1"),
        (NegativeRateError, "edge (1,3) has negative epsilon -1"),
        (DuplicateEdgeError, "edge (1,2) appears more than once"),
    ]
    edges = [dict(zip(("u", "v", "rate", "epsilon"), link)) for link in links]
    records = [{"u": "1", "v": "3"}, {"u": "1", "v": "2", "rate": "x"}]  # after every link
    nodes = ["1", "2", "3", "2"]
    for error, message in faults:
        with pytest.raises(error) as info:
            parse_graph(json.dumps({"nodes": nodes, "edges": edges + records}))
        assert str(info.value) == message
        # mend the fault just raised
        if records:
            records.pop(0)
        elif len(nodes) > 3:
            nodes.pop()
        else:
            edges.pop(1)
    assert parse_graph(json.dumps({"nodes": nodes, "edges": edges})).edges == (
        Edge("1", "2", Fraction(1)),)


NOT_LINKS = {
    "two items": ("1", "2"),
    "five items": ("1", "2", 1, 0, 9),
    "None": None,
    "string": "121",
    "dict": {"u": "1"},
}


@pytest.mark.parametrize("bad", NOT_LINKS.values(), ids=NOT_LINKS)
def test_a_link_is_a_three_or_four_item_tuple_or_list(bad):
    # a string unpacks into its characters: "121" would build link (1,2) at rate 1
    with pytest.raises(SchemaError) as info:
        WeightedGraph(["1", "2"], [("1", "2", 1), bad])
    assert str(info.value) == f"link must be (u, v, rate) or (u, v, rate, epsilon), got {bad!r}"


def test_a_library_call_reads_its_links_before_its_node_list():
    # as parse_graph does: the rate's error, not the duplicate label's
    with pytest.raises(SchemaError) as info:
        WeightedGraph(["1", "2", "2"], [("1", "2", 1), ("2", "1", "x")])
    assert str(info.value) == "malformed rational 'x'"
    with pytest.raises(SchemaError) as info:
        parse_graph(json.dumps({"nodes": ["1", "2", "2"],
                                "edges": [{"u": "1", "v": "2", "rate": "x"}]}))
    assert str(info.value) == "malformed rational 'x'"


def test_zero_rate_edge_allowed():
    g = build(["1", "2", "3"], [("1", "2", 0), ("1", "3", 1), ("2", "3", 1)])
    assert g.rate("1", "2") == 0
    assert len(g.positive_edges()) == 2


def test_with_edge_merges_rates(triangle):
    g = triangle.with_edge("1", "2", Fraction(1, 2))
    assert g.rate("1", "2") == Fraction(3, 2)
    assert triangle.rate("1", "2") == 1  # original untouched
    with pytest.raises(NegativeRateError, match=r"negative addition on edge \(1,2\)"):
        triangle.with_edge("1", "2", -1)


@pytest.mark.parametrize("u, v, rate, eps", [
    ("3", "1", Fraction(1, 3), Fraction(0)),  # a new link, end first
    ("4", "2", "5/2", Fraction(1, 7)),  # a new link with an epsilon
    ("2", "1", Fraction(5, 2), Fraction(0)),  # an existing link, end first
    ("1", "2", 1, Fraction(1, 4)),  # an existing link, rate and epsilon both merged
])
def test_with_edge_builds_the_graph_built_from_scratch(u, v, rate, eps):
    edges = [("1", "2", Fraction(1, 2), Fraction(1, 9)), ("2", "3", 1), ("3", "4", Fraction(3, 2))]
    g = WeightedGraph(["1", "2", "3", "4"], edges)
    g.integer_links()  # a parent's cached view does not leak into the copy
    got = g.with_edge(u, v, rate, eps)
    merged = {edge_key(e.u, e.v): (e.rate, e.epsilon) for e in g.edges}
    old_rate, old_eps = merged.get(edge_key(u, v), (0, 0))
    merged[edge_key(u, v)] = (old_rate + Fraction(rate), old_eps + eps)
    want = WeightedGraph(g.node_ids, [(*key, *r) for key, r in merged.items()])
    assert got == want and hash(got) == hash(want)
    assert got.edges == want.edges
    assert got.integer_links() == want.integer_links()
    assert got.epsilon_map() == want.epsilon_map()
    assert got.node_ids == want.node_ids and got.node_count == 4
    # the parent is untouched
    parent = WeightedGraph(["1", "2", "3", "4"], edges)
    assert g == parent and g.integer_links() == parent.integer_links()
    assert g.epsilon_map() == parent.epsilon_map()


@pytest.mark.parametrize("u, v, rate, eps, error, message", [
    ("1", "9", 1, 0, UnknownNodeError, "unknown node '9'"),
    ("9", "1", 1, 0, UnknownNodeError, "unknown node '9'"),
    ("2", "2", 1, 0, SelfLoopError, "self-loop at node '2'"),
    ("1", "3", -1, 0, NegativeRateError, "negative addition on edge (1,3)"),
    ("1", "2", Fraction(-1, 2), 0, NegativeRateError, "negative addition on edge (1,2)"),
    ("2", "1", 1, -1, NegativeRateError, "negative addition on edge (2,1)"),
])
def test_with_edge_refuses_a_bad_link(u, v, rate, eps, error, message):
    g = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)])
    with pytest.raises(error) as got:
        g.with_edge(u, v, rate, eps)
    assert (type(got.value), str(got.value)) == (error, message)


def test_is_connected_respects_zero_rates():
    g = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 0)])
    assert not is_connected(g)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_restricted_growth_order():
    strings = list(restricted_growth_strings(3))
    assert strings == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


@pytest.mark.parametrize("n,bell", [(3, 5), (4, 15), (5, 52), (6, 203)])
def test_partition_counts(n, bell):
    assert sum(1 for _ in restricted_growth_strings(n)) == bell
    # enumerate_partitions drops the single-block partition
    assert sum(1 for _ in enumerate_partitions(ring(n))) == bell - 1


def test_partition_canonical_form():
    p = VertexPartition.from_blocks([["3", "2"], ["1"]])
    assert p.blocks == (("1",), ("2", "3"))
    assert str(p) == "{1}{2,3}"


def test_partition_overlap_rejected():
    with pytest.raises(InvalidPartitionError):
        VertexPartition.from_blocks([["1", "2"], ["2", "3"]])
    with pytest.raises(InvalidPartitionError, match="empty block"):
        VertexPartition.from_blocks([[]])
    with pytest.raises(InvalidPartitionError, match="partition has no blocks"):
        VertexPartition.from_blocks([])


def test_finest_partition(triangle):
    p = VertexPartition.finest(triangle.node_ids)
    assert p.block_count == 3
    assert p.is_finest()


def test_partition_bound_sums_cross_edges(tri_pendant):
    p = VertexPartition.from_blocks([["1", "2", "3"], ["4"]])
    assert partition_bound(tri_pendant, p) == tri_pendant.rate("3", "4")
    other = VertexPartition.from_blocks([["1", "2"], ["3"]])
    with pytest.raises(InvalidPartitionError, match="partition does not cover exactly"):
        partition_bound(tri_pendant, other)


def test_contract_merges_parallel_rates():
    g = build(["1", "2", "3", "4"],
              [("1", "3", 1), ("2", "4", 2), ("1", "2", 5)])
    p = VertexPartition.from_blocks([["1", "2"], ["3", "4"]])
    c = contract(g, p)
    assert c.sorted_nodes() == ("1+2", "3+4")
    assert c.rate("1+2", "3+4") == 3  # parallel cross edges merge


def test_contract_refuses_a_merged_rate_past_the_digit_bound():
    big = 5 * 10**999
    g = build(["1", "2", "3", "4"], [("1", "3", big), ("2", "4", big)])
    with pytest.raises(SchemaError, match="more than 1000 digits"):
        contract(g, VertexPartition.from_blocks([["1", "2"], ["3", "4"]]))


def test_contract_keeps_singleton_labels(tri_pendant):
    p = VertexPartition.from_blocks([["1", "2", "3"], ["4"]])
    c = contract(tri_pendant, p)
    assert c.sorted_nodes() == ("1+2+3", "4")
    assert c.rate("1+2+3", "4") == 1


def test_contract_makes_clashing_joined_labels_unique():
    nodes = ["a", "b+c", "a+b", "c", "a+b+c#1"]
    g = build(nodes, [("a", "a+b", 1), ("b+c", "c", 1), ("c", "a+b+c#1", 1)])
    p = VertexPartition.from_blocks([["a", "b+c"], ["a+b", "c"], ["a+b+c#1"]])
    c = contract(g, p)
    # both merged blocks join to "a+b+c"; "#1" is already a node
    assert c.node_ids == ("a+b+c#2", "a+b+c#3", "a+b+c#1")
    assert c.rate("a+b+c#2", "a+b+c#3") == 2


def test_induced_subgraph(square_diag):
    sub = induced_subgraph(square_diag, ["1", "2", "3"])
    assert sub.sorted_nodes() == ("1", "2", "3")
    assert {e.key for e in sub.edges} == {("1", "2"), ("2", "3"), ("1", "3")}
    with pytest.raises(InvalidSubsetError):
        induced_subgraph(square_diag, [])
    with pytest.raises(InvalidSubsetError, match="repeated node in subset"):
        induced_subgraph(square_diag, ["1", "2", "1"])
    with pytest.raises(UnknownNodeError, match="unknown node 'x'"):
        induced_subgraph(square_diag, ["1", "x"])


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def test_triangle_has_three_trees(triangle):
    trees = list(enumerate_spanning_trees(triangle))
    assert len(trees) == 3
    assert count_spanning_trees(triangle) == 3
    assert all(is_spanning_tree(triangle, t) for t in trees)


def test_k4_has_sixteen_trees(k4):
    assert count_spanning_trees(k4) == 16
    assert len(list(enumerate_spanning_trees(k4))) == 16


def test_ring_trees_drop_one_edge(hexagon):
    trees = list(enumerate_spanning_trees(hexagon))
    assert len(trees) == 6 == count_spanning_trees(hexagon)


def test_enumeration_is_sorted(k4):
    trees = [t.edges for t in enumerate_spanning_trees(k4)]
    assert trees == sorted(trees)


def test_zero_rate_edges_excluded_from_trees():
    g = build(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1), ("1", "3", 0)])
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == 1
    assert trees[0].edges == (("1", "2"), ("2", "3"))


def test_enumeration_is_lazy():
    # K12 has 12^10 spanning trees: the first comes without counting them
    first = next(enumerate_spanning_trees(complete(12)))
    assert first.edges == tuple(sorted(("1", str(i)) for i in range(2, 13)))


def test_enumeration_of_a_1000_node_path_does_not_recurse():
    # the walk keeps its branches on a list: the unit and the rising path
    # each have one tree, their 999 links, and the enumeration then stops
    for rate in (lambda i: 1, lambda i: i + 1):
        g = sorted_path(1000, rate)
        assert list(enumerate_spanning_trees(g)) == [SpanningTree(tuple(e.key for e in g.edges))]


def test_non_tree_rejected(k4):
    cycle = SpanningTree.of([("1", "2"), ("2", "3"), ("1", "3")])
    assert not is_spanning_tree(k4, cycle)
    missing = SpanningTree.of([("1", "2"), ("2", "3")])
    assert not is_spanning_tree(k4, missing)


def test_multigraph_floors():
    g = build(["1", "2", "3"], [("1", "2", "3/2"), ("2", "3", "2/3"), ("1", "3", 1)])
    assert capacities(g, 2) == {("1", "2"): 3, ("2", "3"): 1, ("1", "3"): 2}
    assert capacities(g, 1) == {("1", "2"): 1, ("2", "3"): 0, ("1", "3"): 1}
    for bad in (0, -1, 1.5, "2"):
        with pytest.raises(SchemaError, match="round count must be a positive integer"):
            capacities(g, bad)


def test_integer_links_of_shared_and_separate_rate_objects_agree():
    # parse_graph shares one Fraction per rate string; built graphs may hold
    # equal rates as separate objects, or one object on every link
    nodes = [str(i) for i in range(1, 7)]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    texts = ["3/2", "2", "1/4", "5/6", "0"]
    doc = {"nodes": nodes, "edges": [{"u": u, "v": v, "rate": texts[k % len(texts)]}
                                     for k, (u, v) in enumerate(pairs)]}
    shared = parse_graph(json.dumps(doc))
    separate = WeightedGraph(nodes, [(u, v, Fraction(texts[k % len(texts)]))
                                     for k, (u, v) in enumerate(pairs)])
    one = Fraction(5, 6)
    alike = WeightedGraph(nodes, [(u, v, one) for u, v in pairs])
    labels, scale, links = shared.integer_links()
    assert separate.integer_links() == (labels, scale, links)
    assert scale == 12
    index_pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]  # the labels sort as listed
    assert links == tuple((i, j, int(Fraction(texts[k % len(texts)]) * 12))
                          for k, (i, j) in enumerate(index_pairs))
    assert alike.integer_links() == (labels, 6, tuple((i, j, 5) for i, j, _ in links))


def test_integer_rates_names_the_first_non_integer_rate_in_edge_order():
    assert integer_rates(build(["1", "2", "3"], [("1", "2", 2), ("2", "3", 0)]), "why") is None
    g = build(["1", "2", "3"], [("2", "3", "1/3"), ("1", "3", "3/2"), ("1", "2", 1)])
    with pytest.raises(PreconditionFailedError) as exc:
        integer_rates(g, "keys come in whole bits")
    assert str(exc.value) == "edge (1,3) has non-integer rate 3/2; keys come in whole bits"


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

node_lists = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=2),
    min_size=2, max_size=5, unique=True,
)


@st.composite
def small_graphs(draw):
    nodes = draw(node_lists)
    keys = [
        (nodes[i], nodes[j]) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
    ]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    rates = draw(
        st.lists(
            st.fractions(min_value=0, max_value=5, max_denominator=6),
            min_size=len(chosen), max_size=len(chosen),
        )
    )
    return WeightedGraph(nodes, [(u, v, r) for (u, v), r in zip(chosen, rates)])


@given(small_graphs())
def test_json_roundtrip(g):
    assert parse_graph(g.to_json()) == g


@given(small_graphs())
def test_spanning_tree_count_matches_enumeration(g):
    if not is_connected(g):
        return
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == count_spanning_trees(g)
    assert len(set(trees)) == len(trees)


@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_partition_roundtrip(n, rnd):
    nodes = tuple(str(i) for i in range(1, n + 1))
    labels = [rnd.randrange(3) for _ in nodes]
    blocks = {}
    for node, lab in zip(nodes, labels):
        blocks.setdefault(lab, []).append(node)
    p = VertexPartition.from_blocks(list(blocks.values()))
    again = VertexPartition.from_blocks([list(b) for b in p.blocks])
    assert p == again
    assert p.vertices() == frozenset(nodes)


# ---------------------------------------------------------------------------
# the library boundary
# ---------------------------------------------------------------------------

_PAIR = WeightedGraph(["1", "2", "3"], [("1", "2", 1), ("2", "3", 1)])
_TREE = SpanningTree.of([("1", "2"), ("2", "3")])

#: Each library entry point that takes a rational, called with ``x`` in one place.
RATIONAL_ENTRY_POINTS = {
    "constructor rate": lambda x: WeightedGraph(["1", "2"], [("1", "2", x)]),
    "constructor epsilon": lambda x: WeightedGraph(["1", "2"], [("1", "2", 1, x)]),
    "with_edge rate": lambda x: _PAIR.with_edge("1", "3", x),
    "with_edge epsilon": lambda x: _PAIR.with_edge("1", "3", 1, x),
    "TreePacking.weighted": lambda x: TreePacking.weighted([_TREE], [x]),
    "security_budget": lambda x: security_budget(
        TreePacking.multigraph([_TREE], [1], 1), {("1", "2"): 0, ("2", "3"): x}),
    "triangle_rate r12": lambda x: triangle_rate(x, 1, 1),
    "triangle_rate r13": lambda x: triangle_rate(1, x, 1),
    "triangle_rate r23": lambda x: triangle_rate(1, 1, x),
}

NOT_RATIONALS = {
    "float": 0.5,
    "bool": True,
    "malformed": "x",
    "None": None,
    "Decimal": Decimal("0.5"),
    "1001 digits": "1" * 1001,
    "1001-digit Fraction": Fraction(10**1000 + 1, 3),
}


@pytest.mark.parametrize("value", NOT_RATIONALS.values(), ids=NOT_RATIONALS)
@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS.values(), ids=RATIONAL_ENTRY_POINTS)
def test_every_library_entry_point_refuses_what_parse_rational_refuses(entry, value):
    # the JSON reader's message, as a SchemaError: no ValueError or TypeError escapes
    with pytest.raises(SchemaError) as want:
        parse_rational(value)
    with pytest.raises(SchemaError) as got:
        entry(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS.values(), ids=RATIONAL_ENTRY_POINTS)
def test_every_library_entry_point_reads_strings_ints_and_fractions_alike(entry):
    assert entry("3/2") == entry(Fraction(3, 2)) == entry(Fraction("6/4"))
    assert entry("2") == entry(2) == entry(Fraction(2))


def test_library_reads_of_a_network_build_no_edge_records(monkeypatch, hexagon):
    # equality, hashing and every query below read the rate map, never WeightedGraph.edges
    halves = build(["1", "2", "3"], [("1", "2", "1/2"), ("2", "3", 1), ("1", "3", 1)])
    pk = brute_force_packing(hexagon, 1).packing
    same = WeightedGraph(hexagon.node_ids, [(e.v, e.u, str(e.rate)) for e in hexagon.edges[::-1]])
    wider = hexagon.with_edge("1", "4", 1)
    want = (hash(hexagon), hexagon.edges_at("1"), hexagon.total_rate(),
            capacities(halves, 2), rates_from_packing(hexagon, pk),
            explicit_rates_no_bottleneck(hexagon))
    built = []

    def edges(g):
        built.append(g)
        raise AssertionError("WeightedGraph.edges")

    monkeypatch.setattr(WeightedGraph, "edges", property(edges))
    assert hexagon == same and hexagon != wider and hash(same) == want[0]
    assert (hexagon.edges_at("1"), hexagon.total_rate(), capacities(halves, 2)) == want[1:4]
    assert hexagon.edges_at("1") == (("1", "2"), ("1", "6"))
    with pytest.raises(PreconditionFailedError, match=re.escape("edge (1,2) has non-integer rate 1/2")):
        integer_rates(halves, "whole bits")
    assert rates_from_packing(hexagon, pk) == want[4]
    assert explicit_rates_no_bottleneck(hexagon) == want[5]
    assert built == []


def _with_rounds(rounds):
    # a packing as a caller may build it by hand, with any round count
    return TreePacking((_TREE,), (1,), rounds)


#: Every library entry point that takes a round count, directly or as a
#: packing's, called on the triangle.
ROUND_ENTRIES = {
    "check_rounds": lambda g, r: check_rounds(r),
    "capacities": capacities,
    "nwt_length": nwt_length,
    "brute_force_packing": brute_force_packing,
    "exact_packing": lambda g, r: exact_packing(g, r, 1),
    "TreePacking.multigraph": lambda g, r: TreePacking.multigraph([_TREE], [1], r),
    "generate_keys": lambda g, r: generate_keys(g, r, seed=0),
    "consumption_schedule": lambda g, r: consumption_schedule(g, _with_rounds(r)),
    "secrecy_audit": lambda g, r: secrecy_audit(g, _with_rounds(r)),
}


@pytest.mark.parametrize("entry", sorted(ROUND_ENTRIES))
@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", "2", 0, -1])
def test_every_entry_point_refuses_a_bad_round_count_alike(triangle, entry, bad):
    # not a bool, a float or a string, and positive
    with pytest.raises(SchemaError) as info:
        ROUND_ENTRIES[entry](triangle, bad)
    assert str(info.value) == f"round count must be a positive integer, got {bad!r}"
    ROUND_ENTRIES[entry](triangle, 2)  # and takes a good one


def test_from_rgs_gives_the_from_blocks_partition():
    # unsorted labels, out of numeric order or reading as joins, in
    # arbitrary integer block ids, or in two bool ids as the planner's
    # bipartition search gives them
    rng = random.Random(4800)
    names = ("10", "2", "a+b", "b-c", "\u00e9", "1")
    for _ in range(300):
        labels = rng.sample(names, rng.randint(1, len(names)))
        for ids in ([rng.randrange(-3, 9) for _ in labels], [rng.random() < 0.5 for _ in labels]):
            blocks: dict = {}
            for label, b in zip(labels, ids):
                blocks.setdefault(b, []).append(label)
            want = VertexPartition.from_blocks(blocks.values())
            assert VertexPartition.from_rgs(labels, ids) == want, (labels, ids)


NOT_CONTAINERS = {
    "no links": (["1"], None),
    "no node list": (None, []),
    "links an int": (["1", "2"], 5),
    "node list a string": ("12", [("1", "2", 1)]),
}


@pytest.mark.parametrize("nodes,links", NOT_CONTAINERS.values(), ids=NOT_CONTAINERS)
def test_the_node_list_and_the_links_are_iterables_other_than_strings(nodes, links):
    # no TypeError escapes, and "12" does not build the nodes 1 and 2
    what, bad = ("links", links) if nodes is not None and links in (None, 5) else ("node labels", nodes)
    with pytest.raises(SchemaError) as info:
        WeightedGraph(nodes, links)
    assert str(info.value) == f"{what} must be an iterable other than a string, got {bad!r}"
