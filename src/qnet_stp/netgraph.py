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
  :meth:`VertexPartition.from_rgs` reads one off a restricted growth
  string, the order in which ``rate_core`` scans partitions.
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
    QNetError,
    SchemaError,
    SelfLoopError,
    UnknownNodeError,
)

EdgeKey = tuple[str, str]


class Caps(NamedTuple):
    """The exactness caps: the largest instance each exact search takes on.

    The field names are the ``QNET_STP_CAPS`` keys (see :meth:`parse`).
    The packers are bounded by fixed budgets, not caps: the greedy's
    search by ``packing.BACKTRACK_BUDGET``, and its extractions and the
    exact packer's work by ``packing.EXACT_STEP_BUDGET``.
    """

    partitions: int = 12  # nodes in a partition scan (rates, optimality checks)
    subsets: int = 20  # nodes in a bottleneck subset scan

    @classmethod
    def parse(cls, text: str) -> Caps:
        """The defaults with ``"key=value,..."`` overrides applied.

        Raises:
            SchemaError: a malformed item, an unknown key, or a value that
                is not a positive integer.
        """
        if not text.strip():
            return cls()
        names = sorted(cls._fields)
        values: dict[str, int] = {}
        for item in text.split(","):
            if "=" not in item:
                raise SchemaError(f"cap override {item!r} is not of the form key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in names:
                raise SchemaError(f"unknown cap {key!r}; known caps: {', '.join(names)}")
            try:
                values[key] = int(value)
            except ValueError:
                raise SchemaError(f"cap {key!r} needs an integer, got {value.strip()!r}")
            if values[key] < 1:
                raise SchemaError(f"cap {key!r} must be positive")
        return cls(**values)


CAPS = Caps()


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
        x = Fraction(value)
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
        edges: ``Edge`` records or ``(u, v, rate[, epsilon])`` tuples.

    Raises:
        SchemaError: empty or duplicated node list.
        SelfLoopError / DuplicateEdgeError / NegativeRateError /
        UnknownNodeError: per offending edge.
    """

    __slots__ = ("node_ids", "edges", "_nodes", "_by_key", "_weights")

    def __init__(self, node_ids: Sequence[str], edges: Iterable):
        ids = tuple(str(n) for n in node_ids)
        if not ids:
            raise SchemaError("a network needs at least one node")
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate node labels")
        known = set(ids)
        by_key: dict[EdgeKey, Edge] = {}
        for item in edges:
            if isinstance(item, Edge):
                u, v, rate, eps = item.u, item.v, item.rate, item.epsilon
            else:
                u, v, rate = item[0], item[1], item[2]
                eps = item[3] if len(item) > 3 else Fraction(0)
            u, v = str(u), str(v)
            if type(rate) is not Fraction:
                rate = Fraction(rate)
            if type(eps) is not Fraction:
                eps = Fraction(eps)
            if u == v:
                raise SelfLoopError(f"self-loop at node {u!r}")
            if u not in known or v not in known:
                missing = u if u not in known else v
                raise UnknownNodeError(f"edge endpoint {missing!r} is not a declared node")
            if rate.numerator < 0:  # a Fraction comparison is far slower
                raise NegativeRateError(f"edge ({u},{v}) has negative rate {rate}")
            if eps.numerator < 0:
                raise NegativeRateError(f"edge ({u},{v}) has negative epsilon {eps}")
            key = edge_key(u, v)
            if key in by_key:
                raise DuplicateEdgeError(f"edge ({key[0]},{key[1]}) appears more than once")
            by_key[key] = Edge(key[0], key[1], rate, eps)
        self.node_ids = ids
        self._nodes = known
        self._by_key = dict(sorted(by_key.items()))
        self.edges = tuple(self._by_key.values())
        self._weights = None

    # -- queries ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.node_ids))

    def has_node(self, label: str) -> bool:
        return label in self._nodes

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self._by_key

    def edge(self, u: str, v: str) -> Edge:
        try:
            return self._by_key[edge_key(u, v)]
        except KeyError:
            raise InvalidEdgeError(f"no edge between {u!r} and {v!r}") from None

    def rate(self, u: str, v: str) -> Fraction:
        return self.edge(u, v).rate

    def epsilon(self, u: str, v: str) -> Fraction:
        return self.edge(u, v).epsilon

    def edges_at(self, node: str) -> tuple[EdgeKey, ...]:
        """Keys of the edges at ``node``, in key order."""
        if node not in self._nodes:
            raise UnknownNodeError(f"unknown node {node!r}")
        return tuple(k for k in self._by_key if node in k)

    def total_rate(self) -> Fraction:
        return sum((e.rate for e in self.edges), Fraction(0))

    def positive_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.rate > 0)

    def epsilon_map(self) -> dict[EdgeKey, Fraction]:
        return {e.key: e.epsilon for e in self.edges}

    def integer_weights(self) -> tuple[tuple[str, ...], int, tuple[tuple[int, ...], ...]]:
        """Label order, scale and integer weight matrix of the exact scans, built once.

        Node ``i`` is the ``i``-th label in sorted order; ``w[i][j]`` is the
        rate of edge ``(i, j)`` times ``scale`` (the lcm of the rate
        denominators), 0 where there is no edge.
        """
        if self._weights is None:
            labels = self.sorted_nodes()
            idx = {v: i for i, v in enumerate(labels)}
            scale = math.lcm(*(e.rate.denominator for e in self.edges)) if self.edges else 1
            w = [[0] * len(labels) for _ in labels]
            for e in self.edges:
                i, j = idx[e.u], idx[e.v]
                w[i][j] = w[j][i] = e.rate.numerator * (scale // e.rate.denominator)
            self._weights = labels, scale, tuple(map(tuple, w))
        return self._weights

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

        If the edge already exists the rates (and epsilons) are summed --
        adding capacity to an existing link is not an error.
        """
        rate, epsilon = Fraction(rate), Fraction(epsilon)
        key = self.link_key(u, v)
        if rate < 0 or epsilon < 0:
            raise NegativeRateError(f"negative addition on edge ({u},{v})")
        new_edges = []
        merged = False
        for e in self.edges:
            if e.key == key:
                new_edges.append(Edge(e.u, e.v, e.rate + rate, e.epsilon + epsilon))
                merged = True
            else:
                new_edges.append(e)
        if not merged:
            new_edges.append(Edge(key[0], key[1], rate, epsilon))
        return WeightedGraph(self.node_ids, new_edges)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.node_ids),
            "edges": [
                {
                    "u": e.u,
                    "v": e.v,
                    "rate": format_rational(e.rate),
                    "epsilon": format_rational(e.epsilon),
                }
                for e in self.edges
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.node_ids == other.node_ids and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.node_ids, self.edges))

    def __repr__(self) -> str:
        return f"WeightedGraph(nodes={len(self.node_ids)}, edges={len(self.edges)})"


def parse_graph(text: str) -> WeightedGraph:
    """Parse the canonical JSON document into a :class:`WeightedGraph`.

    Expected shape::

        {"nodes": ["1", "2"], "edges": [{"u": "1", "v": "2", "rate": "1"}]}

    ``epsilon`` is optional per edge and defaults to 0.  Rates and
    epsilons follow :func:`parse_rational` (exact; floats rejected).
    Each distinct rate or epsilon string is parsed once per document, and
    every edge without an ``epsilon`` shares one zero; the edges are
    still checked in order, so the first bad one raises its own error.
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
    parsed: dict[str, Fraction] = {}  # only strings: True == 1 as a key

    def rational(value) -> Fraction:
        if type(value) is not str:
            return parse_rational(value)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = parse_rational(value)
        return x

    zero = Fraction(0)
    edges = []
    for rec in raw_edges:
        if not isinstance(rec, dict) or "u" not in rec or "v" not in rec or "rate" not in rec:
            raise SchemaError('each edge needs "u", "v" and "rate" fields')
        u, v = rec["u"], rec["v"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise SchemaError("edge endpoints must be strings")
        rate = rational(rec["rate"])
        eps = rational(rec["epsilon"]) if "epsilon" in rec else zero
        edges.append((u, v, rate, eps))
    return WeightedGraph(nodes, edges)


def integer_rates(g: WeightedGraph, need: str) -> dict[EdgeKey, int]:
    """Every edge's rate as an int, in edge order.

    Raises:
        PreconditionFailedError: at the first non-integer rate; the message
            ends with ``need``, the caller's reason for integers.
    """
    rates = {}
    for e in g.edges:
        if e.rate.denominator != 1:
            raise PreconditionFailedError(
                f"edge ({e.u},{e.v}) has non-integer rate {e.rate}; {need}"
            )
        rates[e.key] = int(e.rate)
    return rates


def spanning_forest(nodes: Iterable[str], keys: Iterable[EdgeKey]) -> list[EdgeKey]:
    """Kruskal over ``keys`` in the given order: the keys that join two components.

    Every endpoint must be one of ``nodes``, which may be any hashable
    labels (the secrecy audit's are key-bit positions).  The result is
    a spanning tree of ``nodes`` exactly when it has ``len(nodes) - 1``
    keys; the scan stops once it has.
    """
    parent = {v: v for v in nodes}
    size = len(parent) - 1

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest: list[EdgeKey] = []
    for key in keys:
        ru, rv = find(key[0]), find(key[1])
        if ru != rv:
            parent[ru] = rv
            forest.append(key)
            if len(forest) == size:
                break
    return forest


def is_connected(g: WeightedGraph, positive_only: bool = False) -> bool:
    """True when ``g`` is connected (optionally counting only rate>0 edges)."""
    keys = (e.key for e in g.edges if e.rate or not positive_only)
    return len(spanning_forest(g.node_ids, keys)) == g.node_count - 1


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
    def from_rgs(cls, labels: Sequence[str], rgs: Sequence[int]) -> VertexPartition:
        groups: dict[int, list[str]] = {}
        for label, g in zip(labels, rgs):
            groups.setdefault(g, []).append(label)
        return cls.from_blocks(groups.values())

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


def cross_edges(g: WeightedGraph, p: VertexPartition) -> tuple[Edge, ...]:
    """Edges of ``g`` whose endpoints lie in different blocks of ``p``."""
    _check_partition_of(g, p)
    block = p.block_of()
    return tuple(e for e in g.edges if block[e.u] != block[e.v])


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
    joined = ["+".join(b) for b in p.blocks]
    labels = list(joined)
    taken = set(joined)
    for i, b in enumerate(p.blocks):
        if len(b) > 1 and joined.count(joined[i]) > 1:
            k = 1
            while f"{joined[i]}#{k}" in taken:
                k += 1
            labels[i] = f"{joined[i]}#{k}"
            taken.add(labels[i])
    block = p.block_of()
    agg: dict[tuple[int, int], list[Fraction]] = {}
    for e in g.edges:
        bu, bv = block[e.u], block[e.v]
        if bu == bv:
            continue
        pair = (bu, bv) if bu < bv else (bv, bu)
        if pair in agg:
            agg[pair][0] += e.rate
            agg[pair][1] += e.epsilon
        else:
            agg[pair] = [e.rate, e.epsilon]
    edges = [(labels[a], labels[b], vals[0], vals[1]) for (a, b), vals in agg.items()]
    return WeightedGraph(labels, edges)


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
    edges = [e for e in g.edges if e.u in kept_set and e.v in kept_set]
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

    def __lt__(self, other: SpanningTree) -> bool:
        return self.edges < other.edges

    def to_json_list(self) -> list[list[str]]:
        return [[u, v] for u, v in self.edges]


# The named tuple's own ``_make``, which ``_replace`` calls, checks the
# field count with ``len()``, the edge count here.  typing.NamedTuple
# refuses the override inside the class body.
SpanningTree._make = classmethod(lambda cls, iterable: cls(*iterable))


def is_spanning_tree(g: WeightedGraph, tree: SpanningTree) -> bool:
    """True when ``tree`` uses edges of ``g`` and spans every node acyclically."""
    keys = tree.edges
    return (
        len(keys) == g.node_count - 1
        and all(g.has_edge(u, v) for u, v in keys)
        and len(spanning_forest(g.node_ids, keys)) == len(keys)
    )


def enumerate_spanning_trees(
    g: WeightedGraph, *, required: Iterable[EdgeKey] = ()
) -> Iterator[SpanningTree]:
    """Yield every spanning tree of the positive-rate subgraph of ``g``
    that holds the ``required`` keys (keys of positive-rate edges).

    Trees appear in lexicographic order of their (sorted) edge-key lists.
    The generator is lazy and has no bound of its own: a caller that
    wants only some trees stops taking them.

    The walk joins the required keys first (none of them may close a
    cycle, or no tree holds them all), then decides each other key in
    order: include it, then exclude it.  It keeps the components of the
    chosen keys, with undo, and holds the invariant that they plus the
    undecided keys span the network.  A key inside one component closes
    a cycle and is skipped; including a key keeps the invariant; only
    excluding a key that joins two components needs a check, one
    :func:`spanning_forest` over the components and the keys after it.
    Two trees that hold the required keys first differ at a key that is
    not required, so the walk keeps the lexicographic order.

    Raises:
        DisconnectedError: the positive-rate subgraph does not span ``g``
            (on the first ``next``).
    """
    if not is_connected(g, positive_only=True):
        raise DisconnectedError("positive-rate subgraph is not connected")
    n = g.node_count
    held = set(required)
    fixed = sorted(held)
    keys = [e.key for e in g.positive_edges() if e.key not in held]  # already sorted
    component = {v: i for i, v in enumerate(g.node_ids)}
    members = {i: [v] for v, i in component.items()}
    chosen: list[EdgeKey] = []

    def join(key: EdgeKey) -> tuple[int, int]:
        """Relabel the smaller of ``key``'s components into the larger."""
        a, b = component[key[0]], component[key[1]]
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for v in members[b]:
            component[v] = a
        members[a].extend(members[b])
        return a, b

    for key in fixed:
        if component[key[0]] == component[key[1]]:
            return
        join(key)
    need = n - 1 - len(fixed)

    def spans(i: int) -> bool:
        """Whether the keys from ``i`` on join the components of ``chosen``."""
        pairs = ((component[u], component[v]) for u, v in keys[i:])
        return len(spanning_forest(set(component.values()), pairs)) == need - len(chosen)

    def walk(i: int) -> Iterator[SpanningTree]:
        if len(chosen) == need:
            yield SpanningTree(tuple(sorted([*fixed, *chosen])))
            return
        while component[keys[i][0]] == component[keys[i][1]]:  # closes a cycle
            i += 1
        a, b = join(keys[i])  # include keys[i]
        chosen.append(keys[i])
        yield from walk(i + 1)
        chosen.pop()  # undo, then exclude keys[i]
        del members[a][-len(members[b]):]
        for v in members[b]:
            component[v] = b
        if spans(i + 1):
            yield from walk(i + 1)

    yield from walk(0)


# ---------------------------------------------------------------------------
# multigraphs
# ---------------------------------------------------------------------------

def check_rounds(rounds, error: type[QNetError] = SchemaError) -> int:
    """``rounds`` if it is a positive integer round count; ``error`` if not."""
    if not isinstance(rounds, int) or rounds < 1:
        raise error(f"round count must be a positive integer, got {rounds!r}")
    return rounds


def capacities(g: WeightedGraph, rounds: int) -> dict[EdgeKey, int]:
    """Parallel edges per key in ``rounds`` copies of a network: ``floor(rounds * rate)``.

    Raises:
        SchemaError: a round count that is not a positive integer.
    """
    return _floors(g, check_rounds(rounds))


def _floors(g: WeightedGraph, rounds: int) -> dict[EdgeKey, int]:
    """:func:`capacities` for a round count already checked (a packing's, say)."""
    return {e.key: rounds * e.rate.numerator // e.rate.denominator for e in g.edges}
