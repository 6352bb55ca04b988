"""One-time-pad conference keying over a packed network.

Each spanning tree in a packing turns one fresh key bit per tree edge
into one shared conference bit: pick the tree's conference edge (the
lexicographically smallest unless overridden), orient every other edge
toward it, and let every relaying node announce the XOR of its inbound
edge's bit with each outbound edge's bit.  Every node can then cancel
announcements along its path and ends up holding the conference edge's
bit; nothing more leaks, because each announcement is masked by a bit
used nowhere else.

The module simulates the full protocol (deterministically seeded):
:func:`_first_bits` alone decides which key bit each tree instance
uses, and announcing, recovering and the audit read its table, or the
per-instance steps :func:`consumption_schedule` expands it into.
:func:`_layout` alone reads the network's links.  One core,
:func:`_keying`, runs the protocol on its link positions and node
indices; :func:`run_packing_protocol` labels its tables as a
:class:`ProtocolTranscript`, and the ``simulate`` command writes its
answer from them.
It also accounts the security budget and provides an exact secrecy
audit that checks the conference key is uniform given the transcript.
Each announcement is the XOR of two key bits and each conference bit is
one key bit, so the audit's GF(2) rank comparison is a spanning-forest
count over the key bits, equivalent to enumerating every key assignment.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    HeuristicFailedError,
    IncompleteTranscriptError,
    InvalidEdgeError,
    InvalidPackingError,
    KeyDepletedError,
    SchemaError,
)
from .netgraph import (
    EdgeKey,
    SpanningTree,
    WeightedGraph,
    capacities,
    check_rounds,
    edge_key,
    format_rational,
    integer_rates,
    parse_rational,
    spanning_forest,
)
from .packing import TreePacking

PRNG_ALGORITHM = "python-random-mt19937"

#: Each byte's top bit: the bit ``getrandbits(1)`` keeps of a 32-bit output.
TOP_BIT = bytes(b >> 7 for b in range(256))

#: Most tree-edge instances (tree instances times ``N - 1``) that
#: :func:`_keying` keys: about 0.15 s of ``simulate``, at some 7.3
#: microseconds per instance (packing, output and interpreter start
#: included) on a 2-vCPU Xeon VM.
PROTOCOL_BUDGET = 20_000


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------

class KeyMaterial:
    """Per-edge pools of raw key bits, read by index.

    The pools never change: which bit each tree instance uses is decided
    by :func:`_first_bits` alone.
    """

    algorithm = PRNG_ALGORITHM

    def __init__(self, pools: Mapping[EdgeKey, Sequence[int]], seed=None):
        self.pools = {k: tuple(pools[k]) for k in sorted(pools)}
        for key, pool in self.pools.items():
            if pool.count(0) + pool.count(1) != len(pool):
                raise InvalidEdgeError(f"non-bit key material on edge {key}")
        self.seed = seed

    def bits(self, u: str, v: str) -> tuple[int, ...]:
        return self.pools[edge_key(u, v)]

    def bit(self, key: EdgeKey, index: int) -> int:
        """Bit ``index`` of edge ``key``'s pool.

        Raises:
            InvalidEdgeError: no key material for ``key``.
            SchemaError: ``index`` is not an ``int`` (a ``bool`` is none).
            KeyDepletedError: the pool has no bit at ``index``.
        """
        pool = self.pools.get(key)
        if pool is None:
            raise InvalidEdgeError(f"no key material for edge {key}")
        if not 0 <= _checked_index(key, index) < len(pool):
            raise KeyDepletedError(f"edge {key} has no bit at index {index}")
        return pool[index]


def _layout(g: WeightedGraph, rounds: int) -> tuple:
    """The protocol's one reader of a network's links: ``(labels, ends,
    sizes, position)`` over ``rounds`` rounds.

    Node ``i`` is ``labels[i]`` and link ``p`` joins the nodes ``ends[p]``,
    as :meth:`WeightedGraph.integer_links` orders them (key order); link
    ``p``'s pool holds ``sizes[p]`` key bits, ``rounds`` times its rate by
    :func:`capacities`, and edge key ``k`` is link ``position[k]``.

    Raises:
        SchemaError: a round count that is not a positive integer.
        PreconditionFailedError: non-integer rates.
    """
    check_rounds(rounds)
    integer_rates(g, "keys come in whole bits")
    sizes = capacities(g, rounds)
    labels, _, links = g.integer_links()
    return (labels, [(i, j) for i, j, _ in links], list(sizes.values()),
            {key: p for p, key in enumerate(sizes)})


def _pools(sizes: Sequence[int], seed) -> list[bytes]:
    """The one pool rule: each link's key bits, by link position, for pools of
    ``sizes`` (:func:`_layout`'s).

    A link's pool of ``size`` bits comes from one seeded Mersenne-Twister
    stream, links in key order, so the bits are reproducible across runs
    and platforms.  Each bit is the top bit of one 32-bit output, as
    ``getrandbits(1)`` takes it; a pool's outputs come in one
    ``getrandbits(32 * size)``, lowest word first.
    """
    rng = random.Random(seed)
    return [
        rng.getrandbits(32 * size).to_bytes(4 * size, "little")[3::4].translate(TOP_BIT)
        for size in sizes
    ]


def generate_keys(g: WeightedGraph, rounds: int, seed) -> KeyMaterial:
    """Simulate ``rounds`` of pairwise key generation: :func:`_pools` by edge key.

    A link of integer rate ``L`` gets ``rounds * L`` bits.

    Raises:
        SchemaError: a round count that is not a positive integer.
        PreconditionFailedError: non-integer rates.
    """
    _, _, sizes, position = _layout(g, rounds)
    return KeyMaterial(dict(zip(position, _pools(sizes, seed))), seed=seed)


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

class TreeOrientation(NamedTuple):
    """A spanning tree oriented toward its conference edge.

    The conference edge's endpoints act as the two roots.  Every node has
    an inbound edge (``in_edge``): the first hop toward its root, with
    both roots assigned the conference edge itself.  All other incident
    tree edges are outbound; their announcements travel away from the
    conference edge.
    """

    tree: SpanningTree
    conference_edge: EdgeKey
    roots: tuple[str, str]
    in_edge: Mapping[str, EdgeKey]
    out_edges: Mapping[str, tuple[EdgeKey, ...]]
    parent: Mapping[str, Optional[str]]

    def relays(self) -> Iterator[tuple[str, EdgeKey, EdgeKey]]:
        """(announcer, in-edge, out-edge) per announcement, in publishing
        order: announcers sorted, then each one's out-edges sorted."""
        for node in sorted(self.out_edges):
            for key in self.out_edges[node]:
                yield node, self.in_edge[node], key


def orient_tree(tree: SpanningTree, conference_edge: Optional[EdgeKey] = None) -> TreeOrientation:
    """Orient ``tree`` toward ``conference_edge`` (default: smallest edge).

    ``tree`` is canonical (see :class:`SpanningTree`), so each node's
    out-edges come in key order.  ``in_edge`` lists the two roots first
    and every other node after its parent.

    Raises:
        SchemaError: a conference edge that is not a tuple or list of two labels.
        InvalidEdgeError: the tree is empty, or the conference edge is not in it.
    """
    keys = tree.edges
    if conference_edge is not None and not (
        isinstance(conference_edge, (tuple, list)) and len(conference_edge) == 2
        and all(isinstance(v, str) for v in conference_edge)
    ):
        raise SchemaError(f"conference edge must be a pair of node labels, got {conference_edge!r}")
    ce = edge_key(*conference_edge) if conference_edge is not None and keys else None
    if ce is not None and ce not in keys:
        raise InvalidEdgeError(f"conference edge {ce} is not part of the tree")
    in_edge, out_edges, parent = _orient(dict(zip(keys, keys)), keys, ce)
    ce = ce or keys[0]
    return TreeOrientation(tree, ce, ce, in_edge, out_edges, parent)


def _orient(ends, edges: Sequence, ce=None) -> tuple[dict, dict, dict]:
    """The one orientation rule: ``in_edge``, ``out_edges`` and ``parent`` of
    the tree of ``edges`` toward ``ce`` (default: the first edge).

    Nodes and edges are any ids, labels and keys for :func:`orient_tree`,
    node indices and link positions for :func:`_keying`; edge ``e`` joins
    the two nodes ``ends[e]``.  Each node's out-edges come in the order of
    ``edges``; ``in_edge`` lists the conference edge's two ends first and
    every other node after its parent.

    Raises:
        InvalidEdgeError: ``edges`` is empty.
    """
    if not edges:
        raise InvalidEdgeError("cannot orient an empty tree")
    adjacency: dict = {}  # per node, (edge, other end) in the order of edges
    for e in edges:
        i, j = ends[e]
        adjacency.setdefault(i, []).append((e, j))
        adjacency.setdefault(j, []).append((e, i))
    ce = edges[0] if ce is None else ce
    a, b = ends[ce]
    in_edge, parent, out_edges = {a: ce, b: ce}, {a: None, b: None}, {}
    frontier = [a, b]
    while frontier:
        node = frontier.pop()
        own = in_edge[node]
        out = []
        for e, other in adjacency[node]:
            if e != own:
                out.append(e)
                if other not in in_edge:
                    in_edge[other] = e
                    parent[other] = node
                    frontier.append(other)
        out_edges[node] = tuple(out)
    return in_edge, out_edges, parent


# ---------------------------------------------------------------------------
# announcements and recovery
# ---------------------------------------------------------------------------

class Announcement(NamedTuple):
    """One public XOR: inbound-edge bit of the announcer XOR outbound-edge bit."""

    tree: int
    round: int
    announcer: str
    edge: EdgeKey
    value: int
    in_edge: EdgeKey
    edge_bit_index: int
    in_bit_index: int

    def to_json_dict(self) -> dict:
        return {
            "tree": self.tree,
            "round": self.round,
            "announcer": self.announcer,
            "edge": list(self.edge),
            "bits": [self.value],
            "in_edge": list(self.in_edge),
            "bit_indices": {"edge": self.edge_bit_index, "in": self.in_bit_index},
        }


def _bit_index(consumed: Mapping[EdgeKey, int], key: EdgeKey) -> int:
    """``consumed[key]``: the one reader of a schedule step's key-bit index,
    for :func:`announce`, :func:`recover` and :func:`secrecy_audit`; the
    index is read by :func:`_checked_index`, as :meth:`KeyMaterial.bit` reads one.

    Raises:
        SchemaError: the step is not a mapping, or the index is not an
            ``int`` (a ``bool`` is none).
        InvalidPackingError: the step misses tree edge ``key``.
    """
    if not isinstance(consumed, Mapping):
        raise SchemaError(f"a schedule step must be a mapping from edge to bit index, got {consumed!r}")
    if key not in consumed:
        raise InvalidPackingError(f"schedule misses edge {key} of a tree")
    return _checked_index(key, consumed[key])


def _checked_index(key: EdgeKey, index) -> int:
    """``index``, a key-bit index of edge ``key``; SchemaError unless an ``int`` (a ``bool`` is none)."""
    if type(index) is not int:
        raise SchemaError(f"bit index of edge {key} must be an integer, got {index!r}")
    return index


def announce(
    orientation: TreeOrientation,
    km: KeyMaterial,
    consumed: Mapping[EdgeKey, int],
    round_label: int = 0,
    *,
    tree_index: int = 0,
) -> list[Announcement]:
    """Publish the relaying XORs of one tree instance.

    ``consumed`` maps every tree edge to the index of the key bit this
    instance uses on it (one step of :func:`consumption_schedule`).
    Every node with outbound edges announces, per outbound edge, the XOR
    of its inbound bit with that edge's bit; a tree with E edges yields
    E - 1 announcements (nothing is announced on the conference edge).

    Raises:
        SchemaError: ``consumed`` is not a mapping, or an index in it is
            not an ``int``.
        InvalidPackingError: ``consumed`` misses a tree edge.
        InvalidEdgeError / KeyDepletedError: an index ``km`` has no bit for.
    """
    announcements = []
    for node, in_key, key in orientation.relays():
        in_index, index = _bit_index(consumed, in_key), _bit_index(consumed, key)
        announcements.append(Announcement(
            tree=tree_index,
            round=round_label,
            announcer=node,
            edge=key,
            value=km.bit(in_key, in_index) ^ km.bit(key, index),
            in_edge=in_key,
            edge_bit_index=index,
            in_bit_index=in_index,
        ))
    return announcements


class Recovery(NamedTuple):
    """A recovered conference bit and the XOR chain that produced it."""

    node: str
    bit: int
    chain: tuple[tuple, ...]  # ("key", edge) then ("announcement", announcer, edge)


def recover(
    node: str,
    orientation: TreeOrientation,
    announcements: Iterable[Announcement],
    km: KeyMaterial,
    consumed: Mapping[EdgeKey, int],
) -> Recovery:
    """Recover the conference bit at ``node`` from one tree's transcript.

    Starting from the bit of the node's own inbound edge at its index in
    ``consumed`` (the instance's step of :func:`consumption_schedule`),
    each hop XORs in the announcement made on the current edge, moving
    one step toward the conference edge.

    Raises:
        InvalidEdgeError: the tree does not span ``node``, or ``km`` has no
            key material for an edge on its path.
        SchemaError: ``consumed`` is not a mapping, or an index in it is
            not an ``int``.
        InvalidPackingError: ``consumed`` misses a tree edge.
        KeyDepletedError: an index ``km`` has no bit for.
        IncompleteTranscriptError: a needed announcement is missing.
    """
    if node not in orientation.in_edge:
        raise InvalidEdgeError(f"node {node!r} is not spanned by the tree")
    by_edge = {a.edge: a for a in announcements}
    current = node
    key = orientation.in_edge[current]
    bit = km.bit(key, _bit_index(consumed, key))
    chain: list[tuple] = [("key", key)]
    while key != orientation.conference_edge:
        ann = by_edge.get(key)
        if ann is None:
            raise IncompleteTranscriptError(f"no announcement for edge {key}")
        bit ^= ann.value
        chain.append(("announcement", ann.announcer, ann.edge))
        current = orientation.parent[current]
        key = orientation.in_edge[current]
    return Recovery(node=node, bit=bit, chain=tuple(chain))


# ---------------------------------------------------------------------------
# full protocol run
# ---------------------------------------------------------------------------

def _copies(pk: TreePacking) -> tuple[int, ...]:
    """``pk``'s multiplicities, checked as :meth:`TreePacking.multigraph`
    checks them, which a packing built by the named-tuple constructor skips.

    Raises:
        InvalidPackingError: a multiplicity that is not an ``int`` (a
            ``bool`` is none), then a negative one.
    """
    counts = pk.multiplicities
    for m in counts:
        if type(m) is not int:
            raise InvalidPackingError(f"tree multiplicity must be an integer, got {m!r}")
    if any(m < 0 for m in counts):
        raise InvalidPackingError("negative tree multiplicity")
    return counts


def _first_bits(sizes: Sequence[int], position: Mapping[EdgeKey, int], pk: TreePacking) -> tuple:
    """Per tree of ``pk``, the key bit its first copy uses on each tree
    edge, and the bits the packing uses per link, from pools of ``sizes``;
    both by link position, edge key ``k`` being link ``position[k]``.

    This table is the one place that assigns key bits: instances are
    processed in packing order, each taking the next unused bit of every
    edge it contains, so copy ``c`` of a tree uses bit ``first + c``.  A
    tree of multiplicity 0 has no instance and an empty entry.

    Raises:
        InvalidPackingError: a multiplicity that is not a non-negative
            ``int`` (:func:`_copies`), then a tree that uses an edge the
            network lacks.
        KeyDepletedError: the packing overuses some edge; the message names
            the key of the first instance (then key) to run out.
    """
    used = [0] * len(sizes)
    table = []
    for tree, mult in zip(pk.trees, _copies(pk)):
        first: dict[int, int] = {}
        table.append(first)
        if not mult:
            continue
        # the first copy that runs short decides, the earlier key on a tie;
        # an unknown edge or an empty pool fails copy 0, so it raises at once
        short, short_key = mult, None
        for key in tree.edges:
            p = position.get(key)
            if p is None:
                raise InvalidPackingError(f"tree uses unknown edge {key}")
            spare = sizes[p] - used[p]
            if spare < short:
                if not spare:
                    raise KeyDepletedError(f"edge {key} ran out of key bits")
                short, short_key = spare, key
            first[p] = used[p]
            used[p] += mult
        if short_key is not None:
            raise KeyDepletedError(f"edge {short_key} ran out of key bits")
    return table, used


def consumption_schedule(g: WeightedGraph, pk: TreePacking) -> list[dict[EdgeKey, int]]:
    """Per tree instance, the key-bit index used on each tree edge, in instance order:
    the one expansion of :func:`_first_bits`' table, which the secrecy audit reads.

    Raises:
        SchemaError: the packing's round count is not a positive integer.
        InvalidPackingError: a multiplicity that is not a non-negative
            ``int``, or a tree that uses an edge the network lacks.
        KeyDepletedError: the packing overuses some edge.
        PreconditionFailedError: non-integer rates.
    """
    _, _, sizes, position = _layout(g, pk.rounds)
    keys = list(position)
    table, _ = _first_bits(sizes, position, pk)
    return [
        {keys[p]: bit + copy for p, bit in first.items()}
        for first, mult in zip(table, pk.multiplicities)
        for copy in range(mult)
    ]


class SecurityBudget(NamedTuple):
    """Failure-probability accounting: per tree instance and merged."""

    per_tree: tuple[Fraction, ...]
    merged: Fraction

    def to_json_dict(self) -> dict:
        return {
            "per_tree": [format_rational(x) for x in self.per_tree],
            "merged": format_rational(self.merged),
        }


def security_budget(pk: TreePacking, epsilons: Mapping[EdgeKey, Fraction]) -> SecurityBudget:
    """Sum each tree instance's edge epsilons; the total simply adds up.

    With a common epsilon per edge this gives (edge count) * epsilon per
    tree and (instances) * (edge count) * epsilon overall.  The sums run
    over integer numerators on the epsilons' least common denominator;
    each epsilon is read by :func:`parse_rational`.

    Raises:
        SchemaError: ``epsilons`` is not a mapping, or an epsilon is no rational.
        InvalidEdgeError: ``epsilons`` lacks an edge of a tree with copies.
    """
    if not isinstance(epsilons, Mapping):
        raise SchemaError(f"epsilons must be a mapping from edge to epsilon, got {epsilons!r}")
    used = [(tree, mult) for tree, mult in zip(pk.trees, pk.multiplicities) if mult > 0]
    eps = {}
    for key in dict.fromkeys(key for tree, _ in used for key in tree.edges):
        if key not in epsilons:
            raise InvalidEdgeError(f"no epsilon for edge {key}")
        eps[key] = parse_rational(epsilons[key])
    den = math.lcm(*(x.denominator for x in eps.values()))
    num = {key: x.numerator * (den // x.denominator) for key, x in eps.items()}
    sums: dict[int, Fraction] = {}  # one Fraction per distinct tree sum
    per_tree, total = [], 0
    for tree, mult in used:
        tree_num = sum([num[key] for key in tree.edges])
        if tree_num not in sums:
            sums[tree_num] = Fraction(tree_num, den)
        per_tree += [sums[tree_num]] * mult
        total += tree_num * mult
    return SecurityBudget(per_tree=tuple(per_tree), merged=Fraction(total, den))


class ProtocolTranscript(NamedTuple):
    """Everything observable from one protocol run."""

    rounds: int
    conference_key: tuple[int, ...]
    unanimity: bool
    announcements: tuple[Announcement, ...]
    recovered: Mapping[str, tuple[int, ...]]
    consumed: Mapping[EdgeKey, int]  # per edge, the key bits the schedule used
    budget: SecurityBudget
    prng_algorithm: str
    seed: object

    def to_json_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "conference_key": "".join(map(str, self.conference_key)),
            "unanimity": self.unanimity,
            "announcements": [a.to_json_dict() for a in self.announcements],
            "recovered": {
                node: "".join(map(str, bits)) for node, bits in sorted(self.recovered.items())
            },
            "consumed_bits": {f"{u}-{v}": c for (u, v), c in sorted(self.consumed.items())},
            "security_budget": self.budget.to_json_dict(),
            "prng": {"algorithm": self.prng_algorithm, "seed": self.seed},
        }


def run_packing_protocol(g: WeightedGraph, pk: TreePacking, seed) -> ProtocolTranscript:
    """Execute the keying protocol for every tree instance of ``pk``.

    The run is :func:`_keying`'s; this labels its tables.  Each copy's
    announcements are those of :func:`announce` and each node's bits those
    of :func:`recover`, on the key bits of :func:`_first_bits`' table.  The
    conference key concatenates one bit per instance; the table's count of
    bits used per edge is ``consumed``.

    Raises:
        InvalidPackingError: a multiplicity that is not a non-negative
            ``int``, checked first.
        HeuristicFailedError: the tree-edge instances pass
            ``PROTOCOL_BUDGET``, checked before any key is generated.
        SchemaError: the packing's round count is not a positive integer.
        PreconditionFailedError: non-integer rates.
        InvalidPackingError / KeyDepletedError: the packing does not fit.
        InvalidEdgeError: a tree is empty or misses a node of the network.
    """
    run = _keying(g, pk, seed)
    labels = run.labels
    keys = [(labels[i], labels[j]) for i, j in run.ends]
    recovered = dict(zip(labels, map(tuple, run.recovered)))
    return ProtocolTranscript(
        rounds=pk.rounds,
        conference_key=tuple(run.key),
        unanimity=run.unanimity,
        announcements=tuple([
            Announcement(tree, copy, labels[v], keys[out], bits[copy], keys[into], b + copy, a + copy)
            for tree, copies, relays, values in run.trees
            for copy in range(copies)
            for (v, into, out, a, b), bits in zip(relays, values)
        ]),
        recovered={v: recovered[v] for v in g.node_ids},
        consumed=dict(zip(keys, run.used)),
        budget=security_budget(pk, g.epsilon_map()),
        prng_algorithm=PRNG_ALGORITHM,
        seed=seed,
    )


class _Keying(NamedTuple):
    """One protocol run on node indices and link positions, as :func:`_keying` lays it out.

    Node ``i`` is ``labels[i]`` and link ``p`` joins the nodes ``ends[p]``,
    as :meth:`WeightedGraph.integer_links` orders them.  ``trees`` holds,
    per tree with copies, ``(tree index, copies, relays, values)``: the
    relays ``(announcer, in-link, out-link, in-link's first bit, out-link's
    first bit)`` in publishing order, and per relay the bit it announces in
    each copy.  ``key`` and each node's ``recovered`` hold one bit per
    instance, as bytes of 0 and 1.
    """

    labels: tuple[str, ...]
    ends: list[tuple[int, int]]
    used: list[int]  # per link, the key bits the schedule used
    trees: list[tuple]
    key: bytes
    recovered: list[bytes]
    unanimity: bool


def _keying(g: WeightedGraph, pk: TreePacking, seed) -> _Keying:
    """The keying protocol for every tree instance of ``pk``, on link
    positions and node indices: the one run both exits read,
    :func:`run_packing_protocol` and the ``simulate`` command.

    Keys are drawn by :func:`_pools` on :func:`_layout`'s links for the
    packing's round count from ``seed``, and :func:`_first_bits` assigns
    them.  Each distinct tree is
    oriented once by :func:`_orient`; its copies then run together, each
    link's bits over the copies read as one integer, so one XOR per relay
    gives a relay's announcements in every copy, and one XOR per node down
    ``in_edge`` (parents first) the node's chain of announcements back to
    the conference edge, as :func:`recover` walks it.

    Raises:
        InvalidPackingError: a multiplicity that is not a non-negative
            ``int``, checked first.
        HeuristicFailedError: the tree-edge instances pass
            ``PROTOCOL_BUDGET``, checked before any key is generated.
        SchemaError: the packing's round count is not a positive integer.
        PreconditionFailedError: non-integer rates.
        InvalidPackingError / KeyDepletedError: the packing does not fit.
        InvalidEdgeError: a tree is empty or misses a node of the network.
    """
    instances = sum(_copies(pk)) * (g.node_count - 1)
    if instances > PROTOCOL_BUDGET:
        raise HeuristicFailedError(
            f"running the protocol on {instances} tree-edge instances passes "
            f"the budget of {PROTOCOL_BUDGET}"
        )
    labels, ends, sizes, position = _layout(g, pk.rounds)
    pools = _pools(sizes, seed)
    table, used = _first_bits(sizes, position, pk)
    n = len(labels)
    trees, key, rows = [], [], [[] for _ in range(n)]  # rows: per node, its bits per tree
    for tree_idx, (tree, mult, first) in enumerate(zip(pk.trees, pk.multiplicities, table)):
        if not mult:
            continue
        edges = [position[k] for k in tree.edges]
        in_edge, out_edges, parent = _orient(ends, edges)
        if len(in_edge) < n:
            spanned = {labels[v] for v in in_edge}
            missing = next(v for v in g.node_ids if v not in spanned)
            raise InvalidEdgeError(f"node {missing!r} is not spanned by the tree")
        # each link's bits over the copies, copy 0 the most significant byte
        word = {p: int.from_bytes(pools[p][b:b + mult], "big") for p, b in first.items()}
        relays, values, sent = [], [], {}  # sent: per out-link, its announcement
        for v in sorted(out_edges):
            into = in_edge[v]
            x, a = word[into], first[into]
            for e in out_edges[v]:
                relays.append((v, into, e, a, first[e]))
                values.append(y := x ^ word[e])
                sent[e] = y
        # in_edge lists the two roots, then every other node after its
        # parent: a node's chain XORs its parent's and the announcement on
        # its own in-edge
        chain = [0] * n
        for v, e in in_edge.items():
            p = parent[v]
            if p is not None:
                chain[v] = chain[p] ^ sent[e]
        for v in range(n):
            rows[v].append((word[in_edge[v]] ^ chain[v]).to_bytes(mult, "big"))
        trees.append((tree_idx, mult, relays, [x.to_bytes(mult, "big") for x in values]))
        key.append(pools[edges[0]][first[edges[0]]:first[edges[0]] + mult])  # the roots' chains are empty
    key_bits = b"".join(key)
    recovered = [b"".join(row) for row in rows]
    return _Keying(labels, ends, used, trees, key_bits, recovered,
                   all(bits == key_bits for bits in recovered))


# ---------------------------------------------------------------------------
# exact secrecy audit
# ---------------------------------------------------------------------------

class AuditReport(NamedTuple):
    """Result of the exact secrecy check.

    ``uniform`` means: for every realizable transcript, all conference
    keys are equally likely.  ``edge_disjoint`` reports whether the
    consumption schedule uses every key bit at most once (the property
    the one-time-pad argument rests on).
    """

    uniform: bool
    edge_disjoint: bool
    total_bits: int
    conference_bits: int
    violations: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "uniform": self.uniform,
            "edge_disjoint": self.edge_disjoint,
            "total_bits": self.total_bits,
            "conference_bits": self.conference_bits,
            "violations": list(self.violations),
        }


def secrecy_audit(
    g: WeightedGraph,
    pk: TreePacking,
    *,
    schedule: Optional[Sequence[Mapping[EdgeKey, int]]] = None,
) -> AuditReport:
    """Check exactly that the key is uniform given the transcript.

    Every announcement is the XOR of two key bits and every conference
    bit is a key bit, so the map from the ``2^bits`` key assignments to
    (transcript, conference key) is GF(2)-linear.  Each transcript's
    assignments form a coset of the kernel of the transcript map, so the
    key is uniform given every transcript exactly when the joint map's
    rank exceeds the transcript map's rank by the number of conference
    bits.  Read each key bit as a node, each announcement as an edge
    between its two bits and each conference bit as an edge from its bit
    to a ground node: the rank of any set of these rows is the size of a
    spanning forest of their edges.  So with the announcements offered
    first, the key is uniform exactly when every conference edge joins
    the forest.  The verdict and the violations equal those of
    enumerating every assignment; the first transcript that enumeration
    in mask order would flag is always the all-zero one.

    A custom ``schedule`` (per-instance edge -> bit index) may be passed
    to audit a corrupted consumption plan, e.g. one reusing a bit across
    two trees; the default is the protocol's own, :func:`consumption_schedule`.
    The audit runs on :func:`_layout`'s link positions, as :func:`_keying`
    does: link ``p``'s bits follow those of the links before it, and each
    distinct tree is oriented once by :func:`_orient`, its relays listed in
    the run's publishing order.

    Raises:
        SchemaError: the packing's round count is not a positive integer, the
            schedule is not a list or tuple of mappings, or an index in it is
            not an ``int``.
        InvalidPackingError: a multiplicity that is not a non-negative
            ``int``, a tree that uses an edge the network lacks, or a
            schedule that misses a tree edge or does not match the instances.
        KeyDepletedError: an index past its edge's pool, or negative.
        InvalidEdgeError: a tree with copies is empty.
        PreconditionFailedError: non-integer rates.
    """
    _, ends, sizes, position = _layout(g, pk.rounds)
    if schedule is None:
        schedule = consumption_schedule(g, pk)
    elif not isinstance(schedule, (list, tuple)) or not all(isinstance(s, Mapping) for s in schedule):
        raise SchemaError("schedule must be a list or tuple of mappings from edge to bit index")
    instances = [(copy, tree) for tree, mult in zip(pk.trees, _copies(pk)) for copy in range(mult)]
    if len(schedule) != len(instances):
        raise InvalidPackingError("schedule length does not match the tree instances")
    offsets = list(accumulate(sizes, initial=0))  # link p's bits start at offsets[p]
    total_bits = offsets[-1]

    violations: list[str] = []
    seen_bits: dict[int, int] = {}
    ann_positions: list[tuple[int, int]] = []
    conference_positions: list[int] = []
    for (copy_idx, tree), consumed in zip(instances, schedule):
        bit = {}  # per link of the tree, the key bit this instance uses on it
        for key in tree.edges:
            p = position.get(key)
            if p is None:
                raise InvalidPackingError(f"tree uses unknown edge {key}")
            index = _bit_index(consumed, key)
            if not 0 <= index < sizes[p]:
                raise KeyDepletedError(f"edge {key} has no bit at index {index}")
            pos = offsets[p] + index
            if pos in seen_bits:
                violations.append(
                    f"bit {index} of edge {key} reused by instances "
                    f"{seen_bits[pos]} and {len(conference_positions)}"
                )
            else:
                seen_bits[pos] = len(conference_positions)
            bit[p] = pos
        if not copy_idx:  # a tree's copies come together: orient it once
            edges = [position[key] for key in tree.edges]
            in_edge, out_edges, _ = _orient(ends, edges)
            relays = [(in_edge[v], e) for v in sorted(out_edges) for e in out_edges[v]]
        ann_positions += [(bit[a], bit[b]) for a, b in relays]
        conference_positions.append(bit[edges[0]])

    edge_disjoint = not violations  # so far, only reuses are listed
    ground = total_bits
    conference_edges = [(p, ground) for p in conference_positions]
    forest = spanning_forest(total_bits + 1, ann_positions + conference_edges)
    uniform = sum(q == ground for _, q in forest) == len(conference_edges)
    if not uniform:
        violations.append("conference key not uniform for transcript " + "0" * len(ann_positions))
    return AuditReport(
        uniform=uniform,
        edge_disjoint=edge_disjoint,
        total_bits=total_bits,
        conference_bits=len(conference_positions),
        violations=tuple(violations),
    )
