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
:func:`consumption_schedule` alone decides which key bit each tree
instance uses, and announcing, recovering and the audit read its steps.
It also accounts the security budget and provides an exact secrecy
audit that checks the conference key is uniform given the transcript.
Each announcement is the XOR of two key bits and each conference bit is
one key bit, so the audit's GF(2) rank comparison is a spanning-forest
count over the key bits, equivalent to enumerating every key assignment.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    HeuristicFailedError,
    IncompleteTranscriptError,
    InvalidEdgeError,
    InvalidPackingError,
    KeyDepletedError,
    PreconditionFailedError,
)
from .netgraph import (
    EdgeKey,
    SpanningTree,
    WeightedGraph,
    _floors,
    check_rounds,
    edge_key,
    format_rational,
    integer_rates,
    spanning_forest,
)
from .packing import TreePacking

PRNG_ALGORITHM = "python-random-mt19937"

#: Most tree-edge instances (tree instances times ``N - 1``) that
#: :func:`run_packing_protocol` keys: about a second of ``simulate``, at
#: some 50 microseconds per instance (packing and output included) on a
#: 2-vCPU Xeon VM.
PROTOCOL_BUDGET = 20_000


# ---------------------------------------------------------------------------
# key material
# ---------------------------------------------------------------------------

class KeyMaterial:
    """Per-edge pools of raw key bits, read by index.

    The pools never change: which bit each tree instance uses is decided
    by :func:`consumption_schedule` alone.
    """

    algorithm = PRNG_ALGORITHM

    def __init__(self, pools: Mapping[EdgeKey, Sequence[int]], seed=None):
        self.pools = {k: tuple(int(b) for b in pools[k]) for k in sorted(pools)}
        for key, pool in self.pools.items():
            if any(b not in (0, 1) for b in pool):
                raise InvalidEdgeError(f"non-bit key material on edge {key}")
        self.seed = seed

    def bits(self, u: str, v: str) -> tuple[int, ...]:
        return self.pools[edge_key(u, v)]

    def bit(self, key: EdgeKey, index: int) -> int:
        """Bit ``index`` of edge ``key``'s pool.

        Raises:
            InvalidEdgeError: no key material for ``key``.
            KeyDepletedError: the pool has no bit at ``index``.
        """
        pool = self.pools.get(key)
        if pool is None:
            raise InvalidEdgeError(f"no key material for edge {key}")
        if not 0 <= index < len(pool):
            raise KeyDepletedError(f"edge {key} has no bit at index {index}")
        return pool[index]


def _pool_sizes(g: WeightedGraph, rounds: int) -> dict[EdgeKey, int]:
    """Key bits per edge over ``rounds`` rounds: ``rounds`` times its rate.

    Raises:
        PreconditionFailedError: a non-positive round count or non-integer rates.
    """
    check_rounds(rounds, PreconditionFailedError)
    integer_rates(g, "keys come in whole bits")
    return _floors(g, rounds)


def generate_keys(g: WeightedGraph, rounds: int, seed) -> KeyMaterial:
    """Simulate ``rounds`` of pairwise key generation.

    Edge ``e`` with integer rate ``L`` receives ``rounds * L`` fresh bits
    from a seeded Mersenne-Twister stream (edges in lexicographic order,
    so the layout is reproducible across runs and platforms).

    Raises:
        PreconditionFailedError: non-integer rates.
    """
    sizes = _pool_sizes(g, rounds)
    rng = random.Random(seed)
    pools = {key: tuple(rng.getrandbits(1) for _ in range(size)) for key, size in sizes.items()}
    return KeyMaterial(pools, seed=seed)


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

    Raises:
        InvalidEdgeError: the conference edge is not in the tree.
    """
    if not tree.edges:
        raise InvalidEdgeError("cannot orient an empty tree")
    ce = edge_key(*conference_edge) if conference_edge else tree.edges[0]
    if ce not in tree.edges:
        raise InvalidEdgeError(f"conference edge {ce} is not part of the tree")
    adjacency: dict[str, list[EdgeKey]] = {}
    for key in tree.edges:
        adjacency.setdefault(key[0], []).append(key)
        adjacency.setdefault(key[1], []).append(key)
    in_edge: dict[str, EdgeKey] = {ce[0]: ce, ce[1]: ce}
    parent: dict[str, Optional[str]] = {ce[0]: None, ce[1]: None}
    frontier = [ce[0], ce[1]]
    while frontier:
        node = frontier.pop()
        for key in adjacency[node]:
            if key == ce:
                continue
            other = key[1] if key[0] == node else key[0]
            if other not in in_edge:
                in_edge[other] = key
                parent[other] = node
                frontier.append(other)
    out_edges = {
        node: tuple(sorted(k for k in adjacency[node] if k != in_edge[node]))
        for node in adjacency
    }
    return TreeOrientation(
        tree=tree,
        conference_edge=ce,
        roots=(ce[0], ce[1]),
        in_edge=in_edge,
        out_edges=out_edges,
        parent=parent,
    )


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
    """``consumed[key]``; InvalidPackingError if the step misses tree edge ``key``."""
    if key not in consumed:
        raise InvalidPackingError(f"schedule misses edge {key} of a tree")
    return consumed[key]


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
        InvalidPackingError: ``consumed`` misses a tree edge.
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

def consumption_schedule(g: WeightedGraph, pk: TreePacking) -> list[dict[EdgeKey, int]]:
    """Per tree instance, the key-bit index used on each tree edge.

    This is the one place that assigns key bits: instances are processed
    in packing order, each taking the next unused bit of every edge it
    contains, and the announcements, the recovery and the secrecy audit
    all read these steps.

    Raises:
        InvalidPackingError: a tree uses an edge the network lacks.
        KeyDepletedError: the packing overuses some edge.
        PreconditionFailedError: non-integer rates.
    """
    sizes = _pool_sizes(g, pk.rounds)
    used: dict[EdgeKey, int] = {k: 0 for k in sizes}
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
    over integer numerators on the epsilons' least common denominator.
    """
    used = [(tree, mult) for tree, mult in zip(pk.trees, pk.multiplicities) if mult > 0]
    keys = dict.fromkeys(key for tree, _ in used for key in tree.edges)
    eps = {key: Fraction(epsilons[key]) for key in keys}
    den = math.lcm(*(x.denominator for x in eps.values()))
    num = {key: x.numerator * (den // x.denominator) for key, x in eps.items()}
    per_tree, total = [], 0
    for tree, mult in used:
        tree_num = sum(num[key] for key in tree.edges)
        per_tree += [Fraction(tree_num, den)] * mult
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

    Keys are generated for the packing's round count from ``seed``; each
    instance is oriented, announced and recovered at every node.  The
    conference key concatenates one bit per instance.

    Raises:
        HeuristicFailedError: the tree-edge instances pass
            ``PROTOCOL_BUDGET``, checked before any key is generated.
        InvalidPackingError / KeyDepletedError: the packing does not fit.
        PreconditionFailedError: non-integer rates.
    """
    instances = pk.tree_count * (g.node_count - 1)
    if instances > PROTOCOL_BUDGET:
        raise HeuristicFailedError(
            f"running the protocol on {instances} tree-edge instances passes "
            f"the budget of {PROTOCOL_BUDGET}"
        )
    schedule = consumption_schedule(g, pk)
    km = generate_keys(g, pk.rounds, seed)
    announcements: list[Announcement] = []
    conference: list[int] = []
    recovered: dict[str, list[int]] = {v: [] for v in g.node_ids}
    for (tree_idx, copy_idx, tree), consumed in zip(pk.instances(), schedule):
        orientation = orient_tree(tree)
        anns = announce(orientation, km, consumed, copy_idx, tree_index=tree_idx)
        announcements.extend(anns)
        for node in g.node_ids:
            recovered[node].append(recover(node, orientation, anns, km, consumed).bit)
        ce = orientation.conference_edge
        conference.append(km.bit(ce, consumed[ce]))
    uses = Counter(key for step in schedule for key in step)
    return ProtocolTranscript(
        rounds=pk.rounds,
        conference_key=tuple(conference),
        unanimity=all(bits == conference for bits in recovered.values()),
        announcements=tuple(announcements),
        recovered={v: tuple(bits) for v, bits in recovered.items()},
        consumed={k: uses[k] for k in km.pools},
        budget=security_budget(pk, g.epsilon_map()),
        prng_algorithm=km.algorithm,
        seed=seed,
    )


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
    two trees; the default schedule is the protocol's own.

    Raises:
        InvalidPackingError: a tree uses an edge the network lacks, or the
            schedule misses a tree edge or does not match the instances.
        PreconditionFailedError: non-integer rates.
    """
    pool_sizes = _pool_sizes(g, pk.rounds)
    total_bits = sum(pool_sizes.values())
    if schedule is None:
        schedule = consumption_schedule(g, pk)
    instances = list(pk.instances())
    if len(schedule) != len(instances):
        raise InvalidPackingError("schedule length does not match the tree instances")

    offsets = {}
    base = 0
    for key in sorted(pool_sizes):
        offsets[key] = base
        base += pool_sizes[key]

    violations: list[str] = []
    seen_bits: dict[int, int] = {}
    scheduled_uses = 0
    ann_positions: list[tuple[int, int]] = []
    conference_positions: list[int] = []
    for (_, _, tree), consumed in zip(instances, schedule):
        orientation = orient_tree(tree)
        position = {}
        for key in tree.edges:
            if key not in pool_sizes:
                raise InvalidPackingError(f"tree uses unknown edge {key}")
            index = _bit_index(consumed, key)
            if not 0 <= index < pool_sizes[key]:
                raise KeyDepletedError(f"edge {key} has no bit at index {index}")
            pos = offsets[key] + index
            if pos in seen_bits:
                violations.append(
                    f"bit {index} of edge {key} reused by instances "
                    f"{seen_bits[pos]} and {len(conference_positions)}"
                )
            else:
                seen_bits[pos] = len(conference_positions)
            scheduled_uses += 1
            position[key] = pos
        for _, in_key, key in orientation.relays():
            ann_positions.append((position[in_key], position[key]))
        conference_positions.append(position[orientation.conference_edge])

    ground = -1
    conference_edges = [(p, ground) for p in conference_positions]
    forest = spanning_forest([*range(total_bits), ground], ann_positions + conference_edges)
    uniform = sum(q == ground for _, q in forest) == len(conference_edges)
    if not uniform:
        violations.append("conference key not uniform for transcript " + "0" * len(ann_positions))
    return AuditReport(
        uniform=uniform,
        edge_disjoint=len(seen_bits) == scheduled_uses,
        total_bits=total_bits,
        conference_bits=len(conference_positions),
        violations=tuple(violations),
    )
