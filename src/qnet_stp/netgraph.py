"""Exact-arithmetic network model: weighted graphs, partitions, spanning trees.

A network is an undirected simple graph whose edges carry a nonnegative
rational key rate and a rational security parameter (epsilon).  All
arithmetic is done with :class:`fractions.Fraction`; floats never enter a
rate computation, so every derived quantity is exact.

Conventions used throughout the package:

* Node labels are strings.  Wherever an order matters (subset order,
  tie-breaking) nodes are taken in lexicographic label order.
* An edge is identified by its canonical key ``(u, v)`` with ``u < v``.
* A vertex partition has one canonical form, whatever built it;
  :meth:`VertexPartition.from_rgs` reads one off each node's block id,
  as the partition scans, the planner and the packers give them.
* All value types are immutable after construction.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DisconnectedError,
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

EdgeKey = tuple[str, str]

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

#: Numerators and denominators must stay below this (at most 1000
#: digits), well inside Python's 4300-digit limit for printing an int.
_RATIONAL_BOUND = 10**1000
_TOO_LONG = "rational with more than 1000 digits in its numerator or denominator"
#: Strings this short whose parts are plain digits skip Fraction's parser.
_SHORT = 40


def parse_rational(value) -> Fraction:
    """Parse an exact rational from JSON-level data.

    Accepted forms: an ``int``, or a string holding an integer (``"3"``),
    a fraction (``"7/5"``), or a terminating decimal (``"0.25"``).  Floats
    are rejected on purpose: they would silently destroy exactness.

    Raises:
        SchemaError: on floats, malformed strings, other types, or a
            numerator or denominator of more than 1000 digits.
    """
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, float):
        raise SchemaError(
            f"refusing float {value!r}: quote it as a string (e.g. \"1/4\") for exactness"
        )
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if (
            len(value) <= _SHORT
            and value.isascii()
            and num.isdigit()
            and (not slash or den.isdigit() and den.strip("0"))
        ):
            # "123" or "p/q" in ASCII digits, q nonzero: what Fraction's
            # parser would make of it, without the parser
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        # a five-digit exponent alone passes the bound: refuse it before
        # Fraction expands it
        if len(value.strip().lower().partition("e")[2].lstrip("+-0")) > 4:
            raise SchemaError(_TOO_LONG)
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            # past Python's int-string limit Fraction fails before the bound
            if sum(map(str.isdigit, value)) > 1000:
                raise SchemaError(_TOO_LONG) from exc
            cut = "..." if len(value) > 80 else ""
            raise SchemaError(f"malformed rational {value[:80]!r}{cut}") from exc
    elif isinstance(value, (int, Fraction)):
        x = value if type(value) is Fraction else Fraction(value)
    else:
        raise SchemaError(f"expected a rational, got {type(value).__name__}")
    if abs(x.numerator) >= _RATIONAL_BOUND or x.denominator >= _RATIONAL_BOUND:
        raise SchemaError(_TOO_LONG)
    return x


def format_rational(x: Fraction) -> str:
    """Render a rational in lowest terms, ``"p/q"`` or plain ``"p"``.

    Raises:
        SchemaError: a numerator or denominator too long to print.
    """
    try:
        return str(x)
    except ValueError as exc:
        raise SchemaError(f"rational too long to print: {exc}") from exc


def edge_key(u: str, v: str) -> EdgeKey:
    """Canonical (sorted) key for the undirected edge between ``u`` and ``v``."""
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

class Edge(NamedTuple):
    """An undirected edge with an exact rate and security parameter."""

    u: str
    v: str
    rate: Fraction
    epsilon: Fraction = Fraction(0)

    @property
    def key(self) -> EdgeKey:
        return (self.u, self.v)


class WeightedGraph:
    """Immutable undirected simple graph with rational edge rates.

    Args:
        node_ids: labels, in any order; must be nonempty and unique.
        edges: links, each a 3- or 4-item tuple or list
            ``(u, v, rate[, epsilon])``; an ``Edge`` record is one.

    The one reader of links, for :func:`parse_graph` as for the library: it
    reads every rate and epsilon, ``Fraction``s included, with
    :func:`parse_rational` (each distinct string once), then checks the node
    list, then each link once into the one copy of the links, a map from its
    key to its rate and epsilon; :attr:`edges` is built from it.

    Raises:
        SchemaError: links that are not an iterable other than a string, a
            link of another shape, a refused rational, or a node list that
            is not such an iterable, is empty or repeats a label, in that order.
        SelfLoopError / DuplicateEdgeError / NegativeRateError /
        UnknownNodeError: per offending edge.
    """

    __slots__ = ("node_ids", "_nodes", "_rates", "_links")

    def __init__(self, node_ids: Sequence[str], edges: Iterable):
        parsed: dict[str, Fraction] = {}  # only strings: True == 1 as a key

        def rational(value) -> Fraction:
            if type(value) is not str:
                return parse_rational(value)
            x = parsed.get(value)
            if x is None:
                x = parsed[value] = parse_rational(value)
            return x

        links = []
        for link in _items(edges, "links"):
            if not isinstance(link, (tuple, list)) or not 2 < len(link) < 5:
                raise SchemaError(f"link must be (u, v, rate) or (u, v, rate, epsilon), got {link!r}")
            links.append((link[0], link[1], rational(link[2]),
                          rational(link[3]) if len(link) == 4 else _ZERO))
        ids = tuple(str(n) for n in _items(node_ids, "node labels"))
        if not ids:
            raise SchemaError("a network needs at least one node")
        known = set(ids)
        if len(known) != len(ids):
            raise SchemaError("duplicate node labels")
        rates: dict[EdgeKey, tuple[Fraction, Fraction]] = {}  # in input order
        for u, v, rate, eps in links:
            u, v = str(u), str(v)
            if u == v:
                raise SelfLoopError(f"self-loop at node {u!r}")
            if u not in known or v not in known:
                missing = u if u not in known else v
                raise UnknownNodeError(f"edge endpoint {missing!r} is not a declared node")
            if rate.numerator < 0:  # a Fraction comparison is far slower
                raise NegativeRateError(f"edge ({u},{v}) has negative rate {rate}")
            if eps.numerator < 0:
                raise NegativeRateError(f"edge ({u},{v}) has negative epsilon {eps}")
            key = (u, v) if u <= v else (v, u)
            if key in rates:
                raise DuplicateEdgeError(f"edge ({key[0]},{key[1]}) appears more than once")
            rates[key] = rate, eps
        self.node_ids = ids
        self._nodes = known
        self._rates = rates
        self._links = None

    # -- queries ---------------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The ``Edge`` records in key order, built on each access."""
        return tuple([Edge(*key, *r) for key, r in self.link_items()])

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.node_ids))

    def has_node(self, label: str) -> bool:
        return label in self._nodes

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self._rates

    def edge(self, u: str, v: str) -> Edge:
        key = edge_key(u, v)
        try:
            return Edge(*key, *self._rates[key])
        except KeyError:
            raise InvalidEdgeError(f"no edge between {u!r} and {v!r}") from None

    def rate(self, u: str, v: str) -> Fraction:
        return self.edge(u, v).rate

    def edges_at(self, node: str) -> tuple[EdgeKey, ...]:
        """Keys of the edges at ``node``, in key order."""
        if node not in self._nodes:
            raise UnknownNodeError(f"unknown node {node!r}")
        return tuple(sorted(key for key in self._rates if node in key))

    def total_rate(self) -> Fraction:
        return sum((rate for rate, _ in self._rates.values()), _ZERO)

    def positive_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.rate > 0)

    def link_items(self) -> list[tuple[EdgeKey, tuple[Fraction, Fraction]]]:
        """Each link's key and its ``(rate, epsilon)``, in key order, without ``Edge`` records."""
        return sorted(self._rates.items())

    def epsilon_map(self) -> dict[EdgeKey, Fraction]:
        return {key: eps for key, (_, eps) in self.link_items()}

    def integer_links(self) -> tuple[tuple[str, ...], int, tuple[tuple[int, int, int], ...]]:
        """Label order, scale and integer links of the exact scans, built once.

        Node ``i`` is the ``i``-th label in sorted order.  Each edge comes,
        in key order, as ``(i, j, w)``: ``i < j`` are its ends' indices (a
        key's ends are sorted too) and ``w`` its rate times ``scale``, the
        lcm of the rate denominators.  Built from the constructor's map of
        rates in one sort of the index pairs.
        """
        if self._links is None:
            labels = self.sorted_nodes()
            idx = {v: i for i, v in enumerate(labels)}
            rates = self._rates
            scale = math.lcm(*[r.denominator for r, _ in rates.values()])
            links = sorted([(idx[u], idx[v], r.numerator * (scale // r.denominator))
                            for (u, v), (r, _) in rates.items()])
            self._links = labels, scale, tuple(links)
        return self._links

    def link_key(self, u: str, v: str) -> EdgeKey:
        """Key of a link between ``u`` and ``v``, which may or may not exist yet.

        Raises:
            UnknownNodeError: either end is not a node.
            SelfLoopError: ``u == v``.
        """
        if not (self.has_node(u) and self.has_node(v)):
            missing = u if not self.has_node(u) else v
            raise UnknownNodeError(f"unknown node {missing!r}")
        if u == v:
            raise SelfLoopError(f"self-loop at node {u!r}")
        return edge_key(u, v)

    # -- derivation ------------------------------------------------------

    def with_edge(self, u: str, v: str, rate, epsilon=Fraction(0)) -> WeightedGraph:
        """Return a copy with ``rate`` added on ``(u, v)``.

        If the edge already exists the rates (and epsilons) are summed -- adding capacity to an
        existing link is not an error.  Only the added link is checked, as the others already were.
        """
        rate, epsilon = parse_rational(rate), parse_rational(epsilon)
        key = self.link_key(u, v)
        if rate.numerator < 0 or epsilon.numerator < 0:
            raise NegativeRateError(f"negative addition on edge ({u},{v})")
        old_rate, old_eps = self._rates.get(key, (_ZERO, _ZERO))
        g = object.__new__(WeightedGraph)
        g.node_ids, g._nodes, g._links = self.node_ids, self._nodes, None
        g._rates = {**self._rates, key: (old_rate + rate, old_eps + epsilon)}
        return g

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.node_ids),
            "edges": [
                {"u": u, "v": v, "rate": format_rational(rate), "epsilon": format_rational(eps)}
                for (u, v), (rate, eps) in self.link_items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.node_ids == other.node_ids and self._rates == other._rates

    def __hash__(self) -> int:
        return hash((self.node_ids, frozenset(self._rates.items())))

    def __repr__(self) -> str:
        return f"WeightedGraph(nodes={len(self.node_ids)}, edges={len(self._rates)})"


def _items(values, what: str) -> Iterator:
    """An iterator over ``values``; SchemaError if they are a string or not iterable."""
    if not isinstance(values, (str, bytes)):
        try:
            return iter(values)
        except TypeError:
            pass
    raise SchemaError(f"{what} must be an iterable other than a string, got {values!r}")


def parse_graph(text: str) -> WeightedGraph:
    """Parse the canonical JSON document into a :class:`WeightedGraph`.

    Expected shape::

        {"nodes": ["1", "2"], "edges": [{"u": "1", "v": "2", "rate": "1"}]}

    ``epsilon`` is optional per edge and defaults to 0.  Only the JSON and
    each edge record are checked here: the constructor reads each record's
    ``(u, v, rate[, epsilon])`` in order, so the first bad one raises its own error.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also ints over the digit limit
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    nodes = doc.get("nodes")
    raw_edges = doc.get("edges")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise SchemaError('"nodes" must be a list of strings')
    if not isinstance(raw_edges, list):
        raise SchemaError('"edges" must be a list')
    return WeightedGraph(nodes, _links_of(raw_edges))


def _links_of(records: list) -> Iterator[tuple]:
    """Each JSON edge record's ``(u, v, rate[, epsilon])``, checked as a record only."""
    for rec in records:
        if not isinstance(rec, dict) or "u" not in rec or "v" not in rec or "rate" not in rec:
            raise SchemaError('each edge needs "u", "v" and "rate" fields')
        u, v = rec["u"], rec["v"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise SchemaError("edge endpoints must be strings")
        yield (u, v, rec["rate"], rec["epsilon"]) if "epsilon" in rec else (u, v, rec["rate"])


def integer_rates(g: WeightedGraph, need: str) -> None:
    """Refuse non-integer rates: all are whole iff ``g.integer_links()`` has scale 1.

    Raises:
        PreconditionFailedError: at the first non-integer rate in edge
            order; the message ends with ``need``, the caller's reason.
    """
    if g.integer_links()[1] != 1:
        (u, v), rate = next((k, r) for k, (r, _) in g.link_items() if r.denominator != 1)
        raise PreconditionFailedError(f"edge ({u},{v}) has non-integer rate {rate}; {need}")


def spanning_forest(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Kruskal over ``pairs`` in the given order: the pairs that join two components.

    The nodes are ``0..n-1``, with their parents in one list: the node
    indices of :meth:`WeightedGraph.integer_links` (sorted-label order),
    of a contracted or split network, or the secrecy audit's key-bit
    positions.  The result is a spanning tree of the nodes exactly when
    it has ``n - 1`` pairs; the scan stops once it has.
    """
    parent = list(range(n))
    forest: list[tuple[int, int]] = []
    for pair in pairs:
        u, v = pair
        while parent[u] != u:  # each end to its root, halving the path
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            forest.append(pair)
            if len(forest) == n - 1:
                break
    return forest


def is_connected(g: WeightedGraph) -> bool:
    """True when ``g``'s positive-rate edges connect all its nodes."""
    pairs = ((i, j) for i, j, w in g.integer_links()[2] if w)
    return len(spanning_forest(g.node_count, pairs)) == g.node_count - 1


# ---------------------------------------------------------------------------
# vertex partitions
# ---------------------------------------------------------------------------

class VertexPartition(NamedTuple):
    """A partition of a vertex set into disjoint nonempty blocks.

    Canonical form: each block sorted, blocks ordered by first element.
    """

    blocks: tuple[tuple[str, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[str]]) -> VertexPartition:
        canon = []
        seen: set[str] = set()
        for block in blocks:
            b = tuple(sorted(str(x) for x in block))
            if not b:
                raise InvalidPartitionError("empty block")
            for x in b:
                if x in seen:
                    raise InvalidPartitionError(f"node {x!r} appears in two blocks")
                seen.add(x)
            canon.append(b)
        if not canon:
            raise InvalidPartitionError("partition has no blocks")
        return cls(tuple(sorted(canon)))

    @classmethod
    def finest(cls, labels: Iterable[str]) -> VertexPartition:
        return cls.from_blocks([x] for x in labels)

    @classmethod
    def from_rgs(cls, labels: Sequence[str], rgs: Sequence) -> VertexPartition:
        """The partition with ``labels[i]`` in block ``rgs[i]`` (any hashable id): the one
        builder from node blocks.  It checks nothing, as every caller passes distinct
        ``str`` labels; :meth:`from_blocks` is the validating builder for outside input."""
        groups: dict = {}
        for label, b in zip(labels, rgs):
            groups.setdefault(b, []).append(label)
        return cls(tuple(sorted([tuple(sorted(b)) for b in groups.values()])))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def vertices(self) -> frozenset[str]:
        return frozenset(x for b in self.blocks for x in b)

    def block_of(self) -> dict[str, int]:
        """Map every vertex to the index of its block."""
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def is_finest(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def to_json_list(self) -> list[list[str]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "{" + "}{".join(",".join(b) for b in self.blocks) + "}"


def _check_partition_of(g: WeightedGraph, p: VertexPartition) -> None:
    if p.vertices() != set(g.node_ids):
        raise InvalidPartitionError("partition does not cover exactly the graph's nodes")


def contract(g: WeightedGraph, p: VertexPartition) -> WeightedGraph:
    """Contract each block of ``p`` to a single node.

    Parallel rates (and epsilons) between two blocks are summed; edges
    internal to a block disappear.  A singleton block keeps its label, a
    larger block is labelled by joining its members with ``+``, so
    contracting the finest partition returns the graph unchanged.  Where
    a joined label equals another block's label, every multi-node block
    with that label gets the first free suffix ``#1``, ``#2``, ...
    The new graph's ``node_ids`` follow the order of ``p.blocks``.
    """
    _check_partition_of(g, p)
    labels = _block_labels(p.blocks)
    block = p.block_of()
    agg: dict[tuple[int, int], list[Fraction]] = {}
    for (u, v), (rate, eps) in g._rates.items():
        bu, bv = block[u], block[v]
        if bu == bv:
            continue
        pair = (bu, bv) if bu < bv else (bv, bu)
        if pair in agg:
            agg[pair][0] += rate
            agg[pair][1] += eps
        else:
            agg[pair] = [rate, eps]
    edges = [(labels[a], labels[b], vals[0], vals[1]) for (a, b), vals in agg.items()]
    return WeightedGraph(labels, edges)


def _block_labels(blocks: Sequence[Sequence[str]]) -> list[str]:
    """The label of each block's contracted node, in the order of ``blocks``.

    A singleton keeps its member's label; a larger block joins its sorted
    members with ``+``.  Where a joined label equals another block's,
    every multi-node block with that label takes the first free suffix
    ``#1``, ``#2``, ...  :func:`contract` and the general packer's splits
    both label, and so order, a contracted network by this rule.
    """
    joined = ["+".join(b) for b in blocks]
    labels = list(joined)
    taken = set(joined)
    for i, b in enumerate(blocks):
        if len(b) > 1 and joined.count(joined[i]) > 1:
            k = 1
            while f"{joined[i]}#{k}" in taken:
                k += 1
            labels[i] = f"{joined[i]}#{k}"
            taken.add(labels[i])
    return labels


def induced_subgraph(g: WeightedGraph, keep: Iterable[str]) -> WeightedGraph:
    """Subgraph on the node subset ``keep`` with the edges internal to it."""
    kept = [str(x) for x in keep]
    if not kept:
        raise InvalidSubsetError("empty node subset")
    if len(set(kept)) != len(kept):
        raise InvalidSubsetError("repeated node in subset")
    for x in kept:
        if not g.has_node(x):
            raise UnknownNodeError(f"unknown node {x!r}")
    kept_set = set(kept)
    order = [n for n in g.node_ids if n in kept_set]
    edges = [(u, v, *r) for (u, v), r in g._rates.items() if u in kept_set and v in kept_set]
    return WeightedGraph(order, edges)


def proper_vertex_subsets(labels: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Nonempty proper subsets of ``labels``: cardinality ascending, then lexicographic."""
    ordered = sorted(labels)
    for k in range(1, len(ordered)):
        yield from itertools.combinations(ordered, k)


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

class SpanningTree(NamedTuple):
    """A spanning tree, stored as a sorted tuple of canonical edge keys.

    Every instance keeps that invariant: its edges are sorted and each
    key is canonical (:func:`edge_key`).  Build one with :meth:`of`
    unless the keys already are so; packings keep a tree as given, and
    the protocol reads each node's edges in key order off it.

    ``len()`` counts edges.  ``_make`` and ``_replace`` work as on any
    named tuple.
    """

    edges: tuple[EdgeKey, ...]

    @classmethod
    def of(cls, keys: Iterable[EdgeKey]) -> SpanningTree:
        return cls(tuple(sorted(edge_key(u, v) for u, v in keys)))

    def vertices(self) -> frozenset[str]:
        return frozenset(x for e in self.edges for x in e)

    def degree(self, node: str) -> int:
        return sum(1 for e in self.edges if node in e)

    def __contains__(self, key: EdgeKey) -> bool:
        return key in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def to_json_list(self) -> list[list[str]]:
        return [[u, v] for u, v in self.edges]


# The named tuple's own ``_make``, which ``_replace`` calls, checks the
# field count with ``len()``, the edge count here.  typing.NamedTuple
# refuses the override inside the class body.
SpanningTree._make = classmethod(lambda cls, iterable: cls(*iterable))


def is_spanning_tree(g: WeightedGraph, tree: SpanningTree) -> bool:
    """True when ``tree`` uses edges of ``g`` and spans every node acyclically."""
    keys = tree.edges
    if len(keys) != g.node_count - 1 or not all(g.has_edge(u, v) for u, v in keys):
        return False
    index = {v: i for i, v in enumerate(g.integer_links()[0])}
    return len(spanning_forest(g.node_count, [(index[u], index[v]) for u, v in keys])) == len(keys)


def enumerate_spanning_trees(g: WeightedGraph) -> Iterator[SpanningTree]:
    """Yield every spanning tree of the positive-rate subgraph of ``g``.

    Trees appear in lexicographic order of their (sorted) edge-key lists.
    The generator is lazy and has no bound of its own: a caller that
    wants only some trees stops taking them.  Node ``i`` is the ``i``-th
    label in sorted order, so the trees of :func:`_tree_walk` over the
    nodes' indices come in the same order.

    Raises:
        DisconnectedError: the positive-rate subgraph does not span ``g``
            (on the first ``next``).
    """
    if not is_connected(g):
        raise DisconnectedError("positive-rate subgraph is not connected")
    labels, _, links = g.integer_links()
    key_of = {(i, j): (labels[i], labels[j]) for i, j, w in links if w}  # key order
    for tree in _tree_walk(g.node_count, list(key_of), []):
        yield SpanningTree(tuple(map(key_of.__getitem__, tree)))


def _tree_walk(n: int, keys: list, fixed: list) -> Iterator[list]:
    """Each spanning tree of the nodes ``0..n-1`` made of every ``fixed``
    pair and some ``keys``, as its sorted pairs, in lexicographic order.

    Pairs are ``(i, j)`` with ``i < j``, each list sorted, and together
    they span the nodes.  With the fixed pairs joined (if one closes a
    cycle, no tree holds them all), each key is decided in order, include
    then exclude, and a key inside one component is skipped.  A branch
    holds its next key, its chosen keys and every node's component
    label; branches wait on a list, and an include relabels a copy, so
    nothing is undone.  An exclude branch, when popped, is kept only if
    one :func:`spanning_forest` over the later keys' labels still joins
    its components.
    """
    label = list(range(n))
    for i, j in fixed:
        a, b = label[i], label[j]
        if a == b:
            return
        label = [a if c == b else c for c in label]
    need = n - 1 - len(fixed)
    branches = [(0, [], label, False)]
    while branches:
        k, chosen, label, excluded = branches.pop()
        if excluded:
            joins = spanning_forest(n, [(label[i], label[j]) for i, j in keys[k:]])
            if len(joins) < need - len(chosen):
                continue
        if len(chosen) == need:
            yield sorted(fixed + chosen)
            continue
        i, j = keys[k]
        while label[i] == label[j]:  # closes a cycle
            k += 1
            i, j = keys[k]
        a, b = label[i], label[j]
        branches.append((k + 1, chosen, label, True))
        branches.append((k + 1, [*chosen, keys[k]], [a if c == b else c for c in label], False))


# ---------------------------------------------------------------------------
# multigraphs
# ---------------------------------------------------------------------------

def check_rounds(rounds) -> int:
    """``rounds`` if it is a positive integer round count (not a ``bool``), else
    ``SchemaError``: the one check of every entry point that takes a round count."""
    if type(rounds) is not int or rounds < 1:
        raise SchemaError(f"round count must be a positive integer, got {rounds!r}")
    return rounds


def capacities(g: WeightedGraph, rounds: int) -> dict[EdgeKey, int]:
    """The one capacity rule: ``floor(rounds * rate)`` parallel edges per key in ``rounds``
    copies of a network, ``rounds * w // scale`` on the integer links as the packers compute it.

    Raises:
        SchemaError: a round count that is not a positive integer.
    """
    check_rounds(rounds)
    labels, scale, links = g.integer_links()
    return {(labels[i], labels[j]): rounds * w // scale for i, j, w in links}
