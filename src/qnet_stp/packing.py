"""Edge-disjoint spanning-tree packings of rate-weighted networks.

A packing assigns spanning trees to a network without exceeding any
edge's capacity: trees with integer multiplicities over ``rounds``
rounds, usage ``<= floor(rounds * rate)`` per edge.  A packing built
from rational tree weights (usage ``<= rate``) is the same value over
the weights' least common denominator.

The packing rate (trees per round, i.e. the weight sum) never exceeds
the partition bound from :mod:`.rate_core`, and equals it for an
optimal packing.  Besides validation this module provides:

* :func:`basic_algorithm` -- greedy maximum-weight-tree extraction for
  integer-rate networks without bottlenecks (with a search over the
  next-to-last tree bounded by ``BACKTRACK_BUDGET`` candidates, falling
  back to the exact packer);
* :func:`general_algorithm` -- recursive reduction of bottleneck
  networks: split off the first violating subset, pack the contraction
  and the remainder separately, and splice the results (falling back to
  the exact packer when a split fails);
* :func:`exact_packing` -- a given number of edge-disjoint spanning
  trees by matroid partition (Edmonds), in polynomial time, or a
  partition that proves they do not fit;
* :func:`brute_force_packing` -- the most trees over a given number of
  rounds (``--method oracle``), by :func:`_descend`, which the fallbacks
  share: :func:`exact_packing` at falling partition bounds; the name is
  kept from the exhaustive search it replaced.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .errors import (
    DisconnectedError,
    HeuristicFailedError,
    InvalidPackingError,
    MergeFailedError,
    PreconditionFailedError,
)
from .netgraph import (
    CAPS,
    Caps,
    EdgeKey,
    SpanningTree,
    VertexPartition,
    WeightedGraph,
    _floors,
    capacities,
    check_rounds,
    contract,
    edge_key,
    enumerate_spanning_trees,
    format_rational,
    induced_subgraph,
    integer_rates,
    is_connected,
    is_spanning_tree,
    spanning_forest,
)
from .rate_core import (
    BottleneckCertificate,
    _partition_scan,
    _require_rateable,
    check_no_bottleneck,
    finest_bound,
    partition_bound,
)

#: Most steps :func:`exact_packing` takes, about a second of work.  A
#: forest costs a step per node and per key it is built from: seeding
#: one, its nodes twice (once for the tree it becomes) and the keys
#: offered; rooting one for an exchange search, its nodes and keys.  The
#: search costs a step per forest it scans for each key it pops.
EXACT_STEP_BUDGET = 1_000_000

#: Most next-to-last tree candidates the greedy packer tries before it
#: hands the network to :func:`exact_packing`.
BACKTRACK_BUDGET = 10_000


# ---------------------------------------------------------------------------
# packing containers
# ---------------------------------------------------------------------------

class TreePacking(NamedTuple):
    """Spanning trees with integer multiplicities over ``rounds`` rounds.

    A packing built from weights has for ``rounds`` the least common
    denominator of its weights, which :attr:`weights` derives back.
    Canonical form: trees sorted lexicographically, duplicates merged,
    zero entries dropped.  Build instances via :meth:`weighted` or
    :meth:`multigraph`.
    """

    trees: tuple[SpanningTree, ...]
    multiplicities: tuple[int, ...]
    rounds: int

    @classmethod
    def weighted(cls, trees, weights) -> TreePacking:
        kept, merged = _merge(trees, weights, Fraction, "weight")
        rounds = math.lcm(*(w.denominator for w in merged))
        return cls(kept, tuple(w.numerator * (rounds // w.denominator) for w in merged), rounds)

    @classmethod
    def multigraph(cls, trees, multiplicities, rounds: int) -> TreePacking:
        check_rounds(rounds)
        kept, merged = _merge(trees, multiplicities, int, "multiplicity")
        return cls(kept, tuple(merged), rounds)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Each tree's weight: its multiplicity per round."""
        return tuple(Fraction(m, self.rounds) for m in self.multiplicities)

    @property
    def tree_count(self) -> int:
        """Number of tree instances (multiplicities counted)."""
        return sum(self.multiplicities)

    def instances(self) -> Iterator[tuple[int, int, SpanningTree]]:
        """Yield ``(tree_index, copy_index, tree)`` in deterministic order."""
        for idx, (tree, mult) in enumerate(zip(self.trees, self.multiplicities)):
            for copy in range(mult):
                yield idx, copy, tree

    def edge_usage(self) -> dict[EdgeKey, int]:
        """Tree instances laid on each edge."""
        usage: dict[EdgeKey, int] = {}
        for tree, mult in zip(self.trees, self.multiplicities):
            for key in tree.edges:
                usage[key] = usage.get(key, 0) + mult
        return usage

    def to_json_dict(self) -> dict:
        return {
            "mode": "multigraph",  # the one form; kept for readers that key on it
            "trees": [t.to_json_list() for t in self.trees],
            "multiplicities": list(self.multiplicities),
            "rounds": self.rounds,
        }


def _merge(trees, amounts, convert, what: str) -> tuple[tuple[SpanningTree, ...], list]:
    """Canonical trees and amounts: duplicates summed, zeros dropped, sorted."""
    trees = [SpanningTree.of(t.edges) if isinstance(t, SpanningTree) else SpanningTree.of(t)
             for t in trees]
    amounts = [convert(a) for a in amounts]
    if len(trees) != len(amounts):
        raise InvalidPackingError(f"one {what} per tree required")
    if any(a < 0 for a in amounts):
        raise InvalidPackingError(f"negative tree {what}")
    merged: dict[SpanningTree, object] = {}
    for t, a in zip(trees, amounts):
        merged[t] = merged.get(t, 0) + a
    kept = sorted((t for t, a in merged.items() if a > 0), key=lambda t: t.edges)
    return tuple(kept), [merged[t] for t in kept]


class PackingValidation(NamedTuple):
    ok: bool
    violated_edge: Optional[EdgeKey] = None
    reason: str = ""


class PackingOutcome(NamedTuple):
    """A packing plus how it was obtained and how good it is."""

    packing: TreePacking
    optimal: Optional[bool]
    diagnostics: dict

    @property
    def achieved_rate(self) -> Fraction:
        """The packing's trees per round."""
        return packing_rate(self.packing)

    def to_json_dict(self) -> dict:
        return {
            "achieved_rate": format_rational(self.achieved_rate),
            "optimal": self.optimal,
            "packing": self.packing.to_json_dict(),
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# validation, rate
# ---------------------------------------------------------------------------

def validate_packing(g: WeightedGraph, pk: TreePacking) -> PackingValidation:
    """Check tree shape and per-edge capacity; report the first offence."""
    for tree in pk.trees:
        if not is_spanning_tree(g, tree):
            bad = next((key for key in tree.edges if not g.has_edge(*key)), None)
            return PackingValidation(
                ok=False,
                violated_edge=bad,
                reason=f"tree {list(tree.edges)} is not a spanning tree of the network",
            )
    usage = pk.edge_usage()
    capacity = _floors(g, pk.rounds)
    for key in sorted(usage):
        if usage[key] > capacity[key]:
            return PackingValidation(
                ok=False,
                violated_edge=key,
                reason=f"edge {key} carries {usage[key]} but has capacity {capacity[key]}",
            )
    return PackingValidation(ok=True)


def packing_rate(pk: TreePacking) -> Fraction:
    """Trees per round, i.e. the weight sum."""
    return Fraction(sum(pk.multiplicities), pk.rounds)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def brute_force_packing(g: WeightedGraph, rounds: int, *, caps: Caps = CAPS) -> PackingOutcome:
    """Exact maximum multigraph packing for ``rounds`` rounds.

    By Nash-Williams and Tutte, the most trees that fit over ``rounds``
    is the least ``floor(crossing / (blocks - 1))`` over partitions,
    ``crossing`` counting ``floor(rounds * rate)`` copies per edge.
    :func:`_descend` starts at the finest partition's value or the least
    node degree, whichever is lower (``packer_calls`` counts its calls).
    ``optimal`` says whether it attains the network's rate, with the last
    refusing partition as :func:`_optimal_flag`'s witness.  The name is
    kept from the exhaustive search this replaced: the benchmark's tracer
    wraps it.

    Raises:
        HeuristicFailedError: the exact packer passed its step budget.
    """
    capacity = capacities(g, rounds)
    _require_rateable(g)
    degree = min(sum(m for key, m in capacity.items() if v in key) for v in g.node_ids)
    target = min(sum(capacity.values()) // (g.node_count - 1), degree)
    packing, witness, calls = _descend(g, rounds, target, fixed_rounds=True)
    return PackingOutcome(
        packing=packing,
        optimal=_optimal_flag(g, packing_rate(packing), caps, witness),
        diagnostics={"packer_calls": calls},
    )


def _descend(g: WeightedGraph, rounds: int, target: int, fixed_rounds: bool) -> tuple:
    """``(packing, last refusing partition or None, calls)`` of :func:`exact_packing`.

    Each refusal names a partition whose value is below the request and
    at least the maximum, so the first request that fits is the maximum:
    with ``fixed_rounds``, ``floor(crossing / (blocks - 1))`` trees over
    ``rounds``; otherwise, for whole rates, the partition's bound as a
    rate over its denominator in rounds.  A request of 0 packs nothing.
    """
    capacity = capacities(g, rounds)
    refusal = None
    calls = 0
    while target:
        calls += 1
        try:
            return exact_packing(g, rounds, target), refusal, calls
        except HeuristicFailedError as exc:
            if exc.partition is None:
                raise
            refusal = exc.partition
        if fixed_rounds:
            block = refusal.block_of()
            crossing = sum(m for (u, v), m in capacity.items() if block[u] != block[v])
            target = crossing // (refusal.block_count - 1)
        else:
            rate = partition_bound(g, refusal)
            rounds, target = rate.denominator, rate.numerator
    return TreePacking.multigraph([], [], rounds), refusal, calls


def _optimal_flag(
    g: WeightedGraph, rate: Fraction, caps: Caps, witness: Optional[VertexPartition] = None
) -> Optional[bool]:
    """Whether a packing ``rate`` equals the network's rate, or None if unknown.

    ``rate`` must come from a valid packing, so it never exceeds the
    rate.  A partition whose bound equals it proves it optimal: the
    finest partition, then ``witness`` (say, a bottleneck certificate's
    partition), both in linear time and at any size.  Otherwise, up to
    ``caps.partitions`` nodes, the partition scan runs with ``rate`` as
    its cutoff and stops at the first partition whose value is at most
    ``rate``, which exists iff ``rate`` is optimal; above that the answer
    is None.
    """
    if rate == finest_bound(g) or (witness is not None and rate == partition_bound(g, witness)):
        return True
    if g.node_count > caps.partitions:
        return None
    _, scale, w = g.integer_weights()
    return _partition_scan(w, rate * scale) is None


# ---------------------------------------------------------------------------
# exact packer (matroid partition)
# ---------------------------------------------------------------------------

def exact_packing(g: WeightedGraph, rounds: int, target: int) -> TreePacking:
    """``target`` edge-disjoint spanning trees of the ``rounds``-round multigraph.

    Edmonds' matroid partition over ``target`` forests, run on
    capacities: edge key ``e`` sits in at most ``floor(rounds * rate_e)``
    forests, at most once in each.  Each forest in turn is seeded by
    Kruskal over the sorted keys with spare capacity.  Then each
    augmentation is a breadth-first search for a shortest exchange path:
    a spare copy enters a forest, which pushes out an edge of the cycle
    it closes, which enters another forest, and so on until a copy joins
    two components of some forest.  The search starts from every key
    with spare capacity in sorted-key order and scans forests by index
    and cycle edges along the tree path, and the first copy that joins
    two components wins, so the result is the same on every run.

    When no path exists, the keys the search reached split the nodes
    into components.  All of them sit in each forest's span and every
    crossing copy is already placed, so fewer than
    ``target * (blocks - 1)`` copies cross that partition and, by
    Nash-Williams and Tutte, ``target`` trees do not fit.

    Past ``EXACT_STEP_BUDGET`` steps of seeding and searching the packer
    gives up, whatever the caller.  The seeding's node steps are charged
    before the first forest, so a target too large for the budget is
    refused before anything is built.

    Raises:
        HeuristicFailedError: more steps than ``EXACT_STEP_BUDGET``, or
            no such packing exists; ``partition`` then holds the proof.
    """
    nodes = g.sorted_nodes()
    capacity = {k: m for k, m in capacities(g, rounds).items() if m}
    spare = dict(capacity)
    forests: list[set[EdgeKey]] = []
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > EXACT_STEP_BUDGET:
            raise HeuristicFailedError(
                f"the exact packer passed its budget of {EXACT_STEP_BUDGET} search steps"
            )

    spend(2 * len(nodes) * target)
    for _ in range(target):
        offered = [k for k, m in spare.items() if m]
        spend(len(offered))
        forest = spanning_forest(nodes, offered)
        for key in forest:
            spare[key] -= 1
        forests.append(set(forest))
    for _ in range(target * (len(nodes) - 1) - sum(map(len, forests))):
        moves, reached = _exchange_path(nodes, forests, [k for k, m in spare.items() if m], spend)
        if moves is None:
            _, _, root = _rooted(nodes, spanning_forest(nodes, sorted(reached)))
            blocks: dict[str, list[str]] = {}
            for v in nodes:
                blocks.setdefault(root[v], []).append(v)
            partition = VertexPartition.from_blocks(blocks.values())
            crossing = sum(m for (u, v), m in capacity.items() if root[u] != root[v])
            raise HeuristicFailedError(
                f"{target} edge-disjoint spanning trees do not fit over {rounds} rounds: "
                f"partition {partition} is crossed by {crossing} edge copies, fewer than "
                f"{target} x {partition.block_count - 1}",
                partition=partition,
            )
        spare[moves[-1][0]] -= 1
        for key, into, out_of in moves:
            forests[into].add(key)
            if out_of is not None:
                forests[out_of].discard(key)
    copies = Counter(map(frozenset, forests))
    trees = [SpanningTree.of(f) for f in copies]
    return TreePacking.multigraph(trees, list(copies.values()), rounds)


def _exchange_path(nodes, forests, sources, spend):
    """Shortest exchange path from a spare copy of a ``sources`` key.

    Returns ``(moves, None)`` with ``moves`` the ``(key, into, out_of)``
    steps, last to first (``out_of`` None for the spare copy), or
    ``(None, reached)`` with the keys the search reached.  ``spend`` is
    charged for the forests rooted and scanned (see ``EXACT_STEP_BUDGET``).
    """
    spend(len(nodes) * len(forests) + sum(map(len, forests)))
    rooted = [_rooted(nodes, forest) for forest in forests]
    pred: dict = {(key, None): None for key in sources}
    queue = deque(pred)
    while queue:
        node = queue.popleft()
        spend(len(forests))
        key = node[0]
        for i, forest in enumerate(forests):
            if key in forest:
                continue
            parent, depth, root = rooted[i]
            u, v = key
            if root[u] != root[v]:
                moves, into = [], i
                while node is not None:
                    moves.append((node[0], into, node[1]))
                    into, node = node[1], pred[node]
                return moves, None
            while u != v:
                if depth[u] < depth[v]:
                    u, v = v, u
                step = (edge_key(u, parent[u]), i)
                if step not in pred:
                    pred[step] = node
                    queue.append(step)
                u = parent[u]
    return None, {key for key, _ in pred}


def _rooted(nodes, forest) -> tuple[dict, dict, dict]:
    """Parent, depth and root of every node in a forest of edge keys."""
    adjacent: dict[str, list[str]] = {v: [] for v in nodes}
    for u, v in forest:
        adjacent[u].append(v)
        adjacent[v].append(u)
    parent: dict = {}
    depth: dict = {}
    root: dict = {}
    for r in nodes:
        if r in root:
            continue
        parent[r], depth[r], root[r] = None, 0, r
        stack = [r]
        while stack:
            x = stack.pop()
            for y in adjacent[x]:
                if y not in root:
                    parent[y], depth[y], root[y] = x, depth[x] + 1, r
                    stack.append(y)
    return parent, depth, root


# ---------------------------------------------------------------------------
# greedy algorithm (no bottleneck, integer rates)
# ---------------------------------------------------------------------------

def _max_weight_tree(g: WeightedGraph, weight: dict[EdgeKey, int]) -> Optional[SpanningTree]:
    """Kruskal on descending weight (ties to the smaller edge key)."""
    order = sorted((k for k, w in weight.items() if w > 0), key=lambda k: (-weight[k], k))
    picked = spanning_forest(g.node_ids, order)
    return SpanningTree.of(picked) if len(picked) == g.node_count - 1 else None


def _unit_residual_tree(g: WeightedGraph, weight: dict[EdgeKey, int]) -> Optional[SpanningTree]:
    """The remaining weight, iff it is exactly one spanning tree of unit weights."""
    positive = [k for k, w in weight.items() if w > 0]
    if len(positive) != g.node_count - 1 or any(weight[k] != 1 for k in positive):
        return None
    tree = SpanningTree.of(positive)
    return tree if is_spanning_tree(g, tree) else None


def basic_algorithm(g: WeightedGraph, *, caps: Caps = CAPS) -> PackingOutcome:
    """Greedy optimal packing for integer rates without bottlenecks.

    Over ``N - 1`` rounds each edge offers ``(N - 1) * rate`` uses and
    exactly ``sum of rates`` trees fit.  Trees are extracted one at a
    time by maximum weight; the next-to-last tree is searched among the
    spanning trees of the residual that hold every weight-2 edge, in
    lexicographic order, for one whose removal leaves precisely one
    unit-weight spanning tree.  If the greedy stalls, or the search
    tries ``BACKTRACK_BUDGET`` candidates without success,
    :func:`exact_packing` builds ``total / (N - 1)`` trees per round over
    the fewest rounds that make that a whole number (flagged in
    diagnostics; ``backtracks`` counts the candidates tried).  It refuses
    before the first tree if, at a step per edge and per node each, the
    trees pass ``EXACT_STEP_BUDGET``; ``caps.subsets`` bounds the
    bottleneck scan.  No bottleneck means the
    all-singletons bound is the rate, so the packing is optimal with no
    partition scan.  :func:`general_algorithm` runs the same greedy on
    each bottleneck-free network it reaches, without repeating the scan
    it made there.

    Raises:
        PreconditionFailedError: non-integer rates or a bottleneck subset.
        ExactModeLimitError: more nodes than ``caps.subsets``.
        HeuristicFailedError: the extractions would pass
            ``EXACT_STEP_BUDGET``, or the exact packer passed it.
    """
    _require_rateable(g)
    integer_rates(g, "this algorithm needs integer rates")
    cert = check_no_bottleneck(g, caps=caps)
    if not cert.ok:
        raise PreconditionFailedError(
            f"bottleneck at subset {cert.violating_subset}; use the general algorithm"
        )
    diagnostics: dict = {"backtracks": 0, "fallback": False}
    packing = _greedy_pack(g, diagnostics)
    # no bottleneck: the all-singletons bound is attained
    return PackingOutcome(packing=packing, optimal=True, diagnostics=diagnostics)


def _greedy_pack(g: WeightedGraph, diagnostics: dict) -> TreePacking:
    """:func:`basic_algorithm` on a network its checks and bottleneck scan passed.

    The search for the next-to-last tree takes candidates from the lazy
    :func:`enumerate_spanning_trees` and stops after ``BACKTRACK_BUDGET``.
    The candidates tried and any fallback are recorded in ``diagnostics``.
    """
    n = g.node_count - 1
    rates = {e.key: e.rate.numerator for e in g.edges}  # whole: the callers checked
    total_trees = sum(rates.values())
    if total_trees * (len(rates) + g.node_count) > EXACT_STEP_BUDGET:
        raise HeuristicFailedError(
            f"extracting {total_trees} trees passes the budget of {EXACT_STEP_BUDGET} steps"
        )
    weight = {k: n * r for k, r in rates.items() if r > 0}
    chosen: list[SpanningTree] = []

    def fallback(reason: str) -> TreePacking:
        return _exact_fallback(g, Fraction(total_trees, n), reason, diagnostics)[0]

    # all but the last two trees, or the only one
    for _ in range(total_trees - 2 if total_trees > 1 else 1):
        tree = _max_weight_tree(g, weight)
        if tree is None:
            return fallback("positive-weight edges no longer span the network")
        chosen.append(tree)
        for key in tree.edges:
            weight[key] -= 1

    if total_trees > 1:
        support = WeightedGraph(
            g.node_ids, [(k[0], k[1], Fraction(w)) for k, w in weight.items() if w > 0]
        )
        if not is_connected(support, positive_only=True):
            return fallback("positive-weight edges no longer span the network")
        twos = [k for k, w in weight.items() if w == 2]
        candidates = enumerate_spanning_trees(support, required=twos)
        for candidate in islice(candidates, BACKTRACK_BUDGET):
            diagnostics["backtracks"] += 1
            for key in candidate.edges:
                weight[key] -= 1
            last = _unit_residual_tree(g, weight)
            if last is not None:
                chosen += [candidate, last]
                break
            for key in candidate.edges:
                weight[key] += 1
        else:
            return fallback("no next-to-last tree leaves a clean final tree")

    # duplicates merged by the constructor
    return TreePacking.multigraph(chosen, [1] * len(chosen), n)


def _exact_fallback(g: WeightedGraph, rate: Fraction, reason: str, diagnostics: dict) -> tuple:
    """Packing and witness of :func:`_descend` from ``rate``, flagged in diagnostics."""
    diagnostics["fallback"] = True
    diagnostics["fallback_reason"] = reason
    return _descend(g, rate.denominator, rate.numerator, fixed_rounds=False)[:2]


# ---------------------------------------------------------------------------
# general algorithm (bottlenecks via contraction)
# ---------------------------------------------------------------------------

def general_algorithm(g: WeightedGraph, *, caps: Caps = CAPS) -> PackingOutcome:
    """Optimal-rate packing for integer rates, bottlenecks included.

    While some subset violates the bottleneck test, split on the first
    violator ``I``: contract everything outside ``I`` to one node and
    solve that network, solve the remainder network on its own, then
    splice each contracted tree (its edges at the merged node re-expanded
    to concrete cross edges with remaining capacity, lexicographically
    first) onto the matching remainder tree, pairing instances by sorted
    index over a common round count.  If a split or a splice fails,
    :func:`_descend` packs the whole network at its rate from the
    top-level violator's bound.  Each network on the way is scanned
    for a bottleneck once, and a bottleneck-free one goes to the greedy
    of :func:`basic_algorithm` without a second scan.  ``optimal`` is
    proven by the first of: the finest partition's bound, the bound of
    the top-level violator's partition (after a fallback, of the
    descent's last refusing partition), a partition scan that stops at
    the first partition whose value is at most the packing rate; above
    ``caps.partitions`` nodes the scan does not run and an unproven
    ``optimal`` is None.  ``caps`` reaches every scan.

    Raises:
        PreconditionFailedError: non-integer rates.
        ExactModeLimitError: a scan over more nodes than its cap.
        HeuristicFailedError: a greedy packing or the exact packer would
            pass ``EXACT_STEP_BUDGET``.
    """
    _require_rateable(g)
    integer_rates(g, "this algorithm needs integer rates")
    diagnostics: dict = {"recursion_depth": 0, "backtracks": 0, "fallback": False, "splits": []}
    cert = check_no_bottleneck(g, caps=caps)
    witness = cert.partition
    try:
        packing = _general_pack(g, cert, diagnostics, 0, caps)
    except (MergeFailedError, DisconnectedError) as exc:
        try:
            bound = partition_bound(g, witness)
            packing, refusal = _exact_fallback(g, bound, str(exc), diagnostics)
        except HeuristicFailedError as stop:
            raise HeuristicFailedError(
                f"splice failed ({exc}) and the exact packer stopped: {stop}"
            ) from stop
        witness = refusal or witness
    return PackingOutcome(
        packing=packing,
        optimal=_optimal_flag(g, packing_rate(packing), caps, witness),
        diagnostics=diagnostics,
    )


def _general_pack(
    g: WeightedGraph, cert: BottleneckCertificate, diagnostics: dict, depth: int, caps: Caps
) -> TreePacking:
    """Pack ``g`` given ``cert``, its bottleneck scan: each network is scanned once."""
    diagnostics["recursion_depth"] = max(diagnostics["recursion_depth"], depth)
    if cert.ok:
        return _greedy_pack(g, diagnostics)
    subset = cert.violating_subset
    rest = tuple(v for v in g.sorted_nodes() if v not in set(subset))
    diagnostics["splits"].append({"subset": list(subset), "depth": depth})
    contracted = contract(g, cert.partition)
    merged_label = contracted.node_ids[cert.partition.blocks.index(rest)]
    remainder = induced_subgraph(g, rest)
    if not is_connected(remainder, positive_only=True):
        raise MergeFailedError(
            f"remainder network on {list(rest)} is not connected; cannot split"
        )
    pk_contracted, pk_remainder = (
        _general_pack(part, check_no_bottleneck(part, caps=caps), diagnostics, depth + 1, caps)
        for part in (contracted, remainder)
    )
    return _splice(g, subset, merged_label, pk_contracted, pk_remainder)


def _splice(
    g: WeightedGraph,
    subset: tuple[str, ...],
    merged_label: str,
    pk_contracted: TreePacking,
    pk_remainder: TreePacking,
) -> TreePacking:
    """Combine sub-packings of the contraction and the remainder network."""
    rounds = math.lcm(pk_contracted.rounds, pk_remainder.rounds)
    contracted_instances, remainder_instances = (
        [tree for _, _, tree in pk.instances() for _ in range(rounds // pk.rounds)]
        for pk in (pk_contracted, pk_remainder)
    )
    count = min(len(contracted_instances), len(remainder_instances))
    if count == 0:
        raise MergeFailedError("one side of the split packs no trees")
    inside = set(subset)
    capacity = _floors(g, rounds)
    used: dict[EdgeKey, int] = {}
    # cross edges available to each subset node, lexicographic
    cross_of: dict[str, list[EdgeKey]] = {v: [] for v in subset}
    for e in g.edges:
        if (e.u in inside) != (e.v in inside):
            v = e.u if e.u in inside else e.v
            cross_of[v].append(e.key)
    merged_trees = []
    for tree_c, tree_r in zip(contracted_instances[:count], remainder_instances[:count]):
        edges: list[EdgeKey] = list(tree_r.edges)
        for u, v in tree_c.edges:
            if merged_label in (u, v):
                anchor = v if u == merged_label else u
                expanded = next(
                    (
                        key
                        for key in cross_of[anchor]
                        if used.get(key, 0) < capacity[key]
                    ),
                    None,
                )
                if expanded is None:
                    raise MergeFailedError(
                        f"no remaining capacity on cross edges at node {anchor!r}"
                    )
                used[expanded] = used.get(expanded, 0) + 1
                edges.append(expanded)
            else:
                used[(u, v)] = used.get((u, v), 0) + 1
                edges.append((u, v))
        tree = SpanningTree.of(edges)
        if not is_spanning_tree(g, tree):
            raise MergeFailedError("spliced edges do not form a spanning tree")
        merged_trees.append(tree)
    return TreePacking.multigraph(merged_trees, [1] * len(merged_trees), rounds)
