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

Each packer reads its network's :meth:`~WeightedGraph.integer_links`
once.  The splits, the greedy, the splices and the exact packer all run
on node indices, with trees as sorted tuples of index pairs and optimality
witnesses as each node's block; labels appear only at the exits, in the
one :class:`TreePacking` each result builds and its diagnostics.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .errors import (
    ExactModeLimitError,
    HeuristicFailedError,
    InvalidPackingError,
    PreconditionFailedError,
    SchemaError,
)
from .netgraph import (
    EdgeKey,
    SpanningTree,
    VertexPartition,
    WeightedGraph,
    _block_labels,
    _tree_walk,
    capacities,
    check_rounds,
    format_rational,
    integer_rates,
    is_spanning_tree,
    parse_rational,
    spanning_forest,
)
from .rate_core import (
    _crossing,
    _partition_scan,
    _require_rateable,
    _subset_scan,
    _violator_blocks,
)

#: Most steps :func:`exact_packing` takes, 0.3 to 0.45 s of work.  A
#: forest costs a step per node and per pair it is built from: seeding
#: one, its nodes twice (once for the tree it becomes) and the pairs
#: offered; rooting one for an exchange search, its nodes and pairs.  The
#: search costs a step per forest it scans for each pair it pops.
EXACT_STEP_BUDGET = 1_000_000

#: Most nested splits :func:`general_algorithm` makes before it hands the
#: network to the exact packer.  Each split costs a bottleneck scan and
#: two networks to build: on a 1,000-node rising path, whose splits nest
#: one per node, :func:`general_algorithm` takes 0.2 to 0.3 s and the
#: whole ``pack`` command about 0.5 s (2-vCPU Xeon VM).
SPLIT_DEPTH = 32

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
    :meth:`multigraph`; the packers build theirs from node-index trees,
    which are canonical as they come.
    """

    trees: tuple[SpanningTree, ...]
    multiplicities: tuple[int, ...]
    rounds: int

    @classmethod
    def weighted(cls, trees, weights) -> TreePacking:
        kept, merged = _merge(trees, [parse_rational(w) for w in weights], "weight")
        rounds = math.lcm(*(w.denominator for w in merged))
        return cls(kept, tuple(w.numerator * (rounds // w.denominator) for w in merged), rounds)

    @classmethod
    def multigraph(cls, trees, multiplicities, rounds: int) -> TreePacking:
        check_rounds(rounds)
        counts = list(multiplicities)
        for m in counts:
            if type(m) is not int:  # a bool, a float or a string is no count
                raise InvalidPackingError(f"tree multiplicity must be an integer, got {m!r}")
        kept, merged = _merge(trees, counts, "multiplicity")
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


def _merge(trees, amounts: list, what: str) -> tuple[tuple[SpanningTree, ...], list]:
    """Canonical trees and amounts: duplicates summed, zeros dropped, sorted.

    A :class:`SpanningTree` is kept as given (it is canonical); any other
    edge list is made one with :meth:`SpanningTree.of`.
    """
    trees = [t if isinstance(t, SpanningTree) else SpanningTree.of(t) for t in trees]
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
    capacity = capacities(g, pk.rounds)
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
# packings on node indices
# ---------------------------------------------------------------------------

# Below the network a caller passes in, every packer runs on a view
# ``(labels, scale, links)`` as :meth:`WeightedGraph.integer_links` gives
# it, nodes ``0..n-1`` in label order, and builds an index packing
# ``(trees, rounds)``: each tree a sorted tuple of node pairs ``(i, j)``,
# ``i < j``, mapped to its multiplicity.  Labels sort as their indices
# do, so sorted pair tuples come in the order of the label trees they
# stand for, and every tie-break on indices is the one on labels.


def _labelled(labels: tuple[str, ...], packing: tuple) -> TreePacking:
    """The :class:`TreePacking` of an index ``packing`` whose node ``i`` is ``labels[i]``.

    Sorting the pair tuples sorts the trees, so the packing is canonical
    as built.
    """
    trees, rounds = packing
    kept = sorted(trees)
    return TreePacking(
        tuple(SpanningTree(tuple([(labels[i], labels[j]) for i, j in t])) for t in kept),
        tuple(trees[t] for t in kept),
        rounds,
    )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def brute_force_packing(g: WeightedGraph, rounds: int) -> PackingOutcome:
    """Exact maximum multigraph packing for ``rounds`` rounds.

    By Nash-Williams and Tutte, the most trees that fit over ``rounds``
    is the least ``floor(crossing / (blocks - 1))`` over partitions,
    ``crossing`` counting ``floor(rounds * rate)`` copies per edge.
    :func:`_descend` starts at the finest partition's value or the least
    node degree, whichever is lower (``packer_calls`` counts its calls).
    ``optimal`` says whether it attains the network's rate, with the last
    refusing partition as the witness of :func:`_proved`.  The name is
    kept from the exhaustive search this replaced: the benchmark's tracer
    wraps it.

    Raises:
        HeuristicFailedError: the exact packer passed its step budget.
    """
    return _proved(g, *_oracle_packing(g, rounds))


def _oracle_packing(g: WeightedGraph, rounds: int) -> tuple:
    """:func:`brute_force_packing`'s ``(packing, witness, diagnostics)`` before :func:`_proved`."""
    check_rounds(rounds)
    _require_rateable(g)
    view = labels, scale, links = g.integer_links()
    degree = [0] * len(labels)
    total = 0
    for i, j, w in links:
        m = rounds * w // scale
        degree[i] += m
        degree[j] += m
        total += m
    target = min(total // (len(labels) - 1), *degree)
    packing, refusal, calls = _descend(view, rounds, target, fixed_rounds=True)
    return _labelled(labels, packing), refusal, {"packer_calls": calls}


def _descend(view: tuple, rounds: int, target: int, fixed_rounds: bool) -> tuple:
    """``(index packing, last refusal or None, calls)`` of :func:`_exact_pack` on ``view``.

    A refusal is the ``root`` list of :func:`_exact_pack`.  Each names a
    partition whose value is below the request and at least the maximum,
    so the first request that fits is the maximum: with
    ``fixed_rounds``, ``floor(crossing / (blocks - 1))`` trees over
    ``rounds``; otherwise, for whole rates, the partition's bound as a
    rate over its denominator in rounds, asked of the multigraph over
    ``scale`` times as many rounds, whose capacities are whole, so each
    refusal lowers the request.  A request of 0 packs nothing.
    """
    _, scale, links = view
    step = 1 if fixed_rounds else scale
    refusal = None
    calls = 0
    while target:
        calls += 1
        packing, root = _exact_pack(view, rounds * step, target * step)
        if root is None:
            return packing, refusal, calls
        refusal = root
        gaps = len(set(root)) - 1
        if fixed_rounds:
            target = sum(rounds * w // scale for i, j, w in links if root[i] != root[j]) // gaps
        else:
            rate = Fraction(_crossing(links, root), scale * gaps)
            rounds, target = rate.denominator, rate.numerator
    return ({}, rounds), refusal, calls


def _proved(g: WeightedGraph, packing: TreePacking, witness, diagnostics: dict) -> PackingOutcome:
    """Every packer's outcome: ``packing``, proven by :func:`_optimal_flag` on ``witness``."""
    return PackingOutcome(packing, _optimal_flag(g, packing_rate(packing), witness), diagnostics)


def _optimal_flag(g: WeightedGraph, rate: Fraction, witness=None) -> Optional[bool]:
    """Whether a packing ``rate`` equals the network's rate, or None if unknown.

    ``rate`` must come from a valid packing, so it never exceeds the
    rate.  A partition whose bound equals it proves it optimal: the
    finest partition, then ``witness``, each node's block (a violator's
    partition, say, or a refusal's ``root`` list), both one linear
    :func:`~.rate_core._crossing` on the integer links.  Otherwise the
    partition scan runs with ``rate`` as its cutoff: the partition it
    returns has a value at most ``rate`` iff ``rate`` is optimal.  A scan
    that passes its budget answers None.
    """
    labels, scale, links = g.integer_links()
    for block in (range(len(labels)), witness):  # the finest partition, then the witness
        if block is not None and _crossing(links, block) == rate * scale * (len(set(block)) - 1):
            return True
    try:
        cross, pm1, _ = _partition_scan(len(labels), links, rate * scale)
    except ExactModeLimitError:
        return None
    return Fraction(cross, pm1 * scale) <= rate


# ---------------------------------------------------------------------------
# exact packer (matroid partition)
# ---------------------------------------------------------------------------

def exact_packing(g: WeightedGraph, rounds: int, target: int) -> TreePacking:
    """``target`` edge-disjoint spanning trees of the ``rounds``-round multigraph.

    Edmonds' matroid partition over ``target`` forests, run by
    :func:`_exact_pack` on capacities: node pair ``(i, j)`` of
    :meth:`~WeightedGraph.integer_links` sits in at most
    ``floor(rounds * rate)`` forests, at most once in each, and labels
    come back only in the trees and the refusal.  Each forest in turn is
    seeded by Kruskal over the sorted pairs with spare capacity; a forest
    repeats until one of its pairs runs out, so each distinct one is
    built once, with its copies.  Forests are shared ``frozenset``s,
    replaced when an exchange writes to one, so memory follows the
    distinct forests, not the tree count.  Then each augmentation is a
    breadth-first search for a shortest exchange path: a spare copy
    enters a forest, which pushes out a pair of the cycle it closes,
    which enters another forest, and so on until a copy joins two
    components of some forest.  The search starts from every pair with
    spare capacity in sorted order (key order) and scans forests by index
    and cycle pairs along the tree path, and the first copy that joins
    two components wins, so the result is the same on every run.

    When no path exists, the pairs the search reached split the nodes
    into components.  All of them sit in each forest's span and every
    crossing copy is already placed, so fewer than
    ``target * (blocks - 1)`` copies cross that partition and, by
    Nash-Williams and Tutte, ``target`` trees do not fit.

    Past ``EXACT_STEP_BUDGET`` steps of seeding and searching the packer
    gives up, whatever the caller.  The seeding's node steps are charged
    before the first forest, so a target too large for the budget is
    refused before anything is built.

    Raises:
        SchemaError: a round count that is not a positive integer, or a
            tree count ``target`` that is not a non-negative one.
        HeuristicFailedError: more steps than ``EXACT_STEP_BUDGET``, or
            no such packing exists; ``partition`` then holds the proof.
    """
    check_rounds(rounds)
    if type(target) is not int or target < 0:
        raise SchemaError(f"tree count must be a non-negative integer, got {target!r}")
    view = labels, scale, links = g.integer_links()
    packing, root = _exact_pack(view, rounds, target)
    if root is None:
        return _labelled(labels, packing)
    partition = VertexPartition.from_rgs(labels, root)
    crossing = sum(rounds * w // scale for i, j, w in links if root[i] != root[j])
    raise HeuristicFailedError(
        f"{target} edge-disjoint spanning trees do not fit over {rounds} rounds: "
        f"partition {partition} is crossed by {crossing} edge copies, fewer than "
        f"{target} x {partition.block_count - 1}",
        partition=partition,
    )


def _exact_pack(view: tuple, rounds: int, target: int) -> tuple:
    """:func:`exact_packing` on ``view``: ``(index packing, None)``, or ``(None, root)``.

    ``root[i]`` names the block of node ``i`` in the partition that
    proves the ``target`` trees do not fit.

    Raises:
        HeuristicFailedError: more steps than ``EXACT_STEP_BUDGET``.
    """
    labels, scale, links = view
    n = len(labels)
    spare = {(i, j): m for i, j, w in links if (m := rounds * w // scale)}
    forests: list[frozenset[tuple[int, int]]] = []
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > EXACT_STEP_BUDGET:
            raise HeuristicFailedError(
                f"the exact packer passed its budget of {EXACT_STEP_BUDGET} search steps"
            )

    spend(2 * n * target)
    while len(forests) < target:
        offered = [p for p, m in spare.items() if m]
        forest = spanning_forest(n, offered)
        copies = min([spare[p] for p in forest] + [target - len(forests)])
        spend(copies * len(offered))
        for p in forest:
            spare[p] -= copies
        forests += [frozenset(forest)] * copies
    for _ in range(target * (n - 1) - sum(map(len, forests))):
        moves, reached = _exchange_path(n, forests, [p for p, m in spare.items() if m], spend)
        if moves is None:
            return None, _rooted(n, spanning_forest(n, sorted(reached)))[2]
        spare[moves[-1][0]] -= 1
        for p, into, out_of in moves:
            forests[into] = forests[into] | {p}
            if out_of is not None:
                forests[out_of] = forests[out_of] - {p}
    return ({tuple(sorted(f)): c for f, c in Counter(forests).items()}, rounds), None


def _exchange_path(n, forests, sources, spend):
    """Shortest exchange path from a spare copy of a ``sources`` pair.

    Returns ``(moves, None)`` with ``moves`` the ``(pair, into, out_of)``
    steps, last to first (``out_of`` None for the spare copy), or
    ``(None, reached)`` with the pairs the search reached.  ``spend`` is
    charged for the forests rooted and scanned (see ``EXACT_STEP_BUDGET``),
    though each distinct forest is rooted once.
    """
    spend(n * len(forests) + sum(map(len, forests)))
    rooted = {f: _rooted(n, f) for f in set(forests)}
    pred: dict = {(p, None): None for p in sources}
    queue = deque(pred)
    while queue:
        node = queue.popleft()
        spend(len(forests))
        pair = node[0]
        for i, forest in enumerate(forests):
            if pair in forest:
                continue
            parent, depth, root = rooted[forest]
            u, v = pair
            if root[u] != root[v]:
                moves, into = [], i
                while node is not None:
                    moves.append((node[0], into, node[1]))
                    into, node = node[1], pred[node]
                return moves, None
            while u != v:
                if depth[u] < depth[v]:
                    u, v = v, u
                u, child = parent[u], u
                step = ((u, child) if u < child else (child, u), i)
                if step not in pred:
                    pred[step] = node
                    queue.append(step)
    return None, {p for p, _ in pred}


def _rooted(n: int, forest) -> tuple[list, list, list]:
    """Parent, depth and root of every node ``0..n-1`` in a forest of node pairs."""
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for u, v in forest:
        adjacent[u].append(v)
        adjacent[v].append(u)
    parent, depth, root = [None] * n, [0] * n, [None] * n
    for r in range(n):
        if root[r] is not None:
            continue
        root[r] = r
        stack = [r]
        while stack:
            x = stack.pop()
            for y in adjacent[x]:
                if root[y] is None:
                    parent[y], depth[y], root[y] = x, depth[x] + 1, r
                    stack.append(y)
    return parent, depth, root




# ---------------------------------------------------------------------------
# greedy algorithm (no bottleneck, integer rates)
# ---------------------------------------------------------------------------

def basic_algorithm(g: WeightedGraph) -> PackingOutcome:
    """Greedy optimal packing for integer rates without bottlenecks.

    Over ``N - 1`` rounds each edge offers ``(N - 1) * rate`` uses and
    exactly ``sum of rates`` trees fit.  Trees are extracted one at a
    time by maximum weight; the next-to-last tree is searched among the
    spanning trees of the residual that hold every weight-2 edge, in
    lexicographic order, for one that leaves ``N - 1`` unit-weight keys
    forming a spanning tree, the last tree.  If the greedy stalls, an
    edge of the residual weighs 3 or more (no candidate can succeed), or
    the search tries ``BACKTRACK_BUDGET`` candidates without success,
    :func:`exact_packing` builds ``total / (N - 1)`` trees per round over
    the fewest rounds that make that a whole number (flagged in
    diagnostics; ``backtracks`` counts the candidates tried).  It refuses
    before the first tree if, at a step per edge and per node each, the
    trees pass ``EXACT_STEP_BUDGET``.  The bottleneck scan and the greedy
    run on the network's node indices, and its labels come back only in
    the packing.  :func:`_proved` then checks ``optimal`` with no
    witness: no bottleneck means the finest bound is the rate, so a
    packing that reaches it is proven in one pass over the edges, with no
    partition scan.  :func:`general_algorithm` runs the same greedy on
    each bottleneck-free network it reaches, without repeating the scan
    it made there.

    Raises:
        PreconditionFailedError: non-integer rates or a bottleneck subset.
        ExactModeLimitError: the bottleneck scan passed its budget.
        HeuristicFailedError: the extractions would pass
            ``EXACT_STEP_BUDGET``, or the exact packer passed it.
    """
    _require_rateable(g)
    integer_rates(g, "this algorithm needs integer rates")
    view = labels, _, links = g.integer_links()
    found = _subset_scan(len(labels), links)
    if found is not None:
        subset = tuple(labels[j] for j in found[0])
        raise PreconditionFailedError(f"bottleneck at subset {subset}; use the general algorithm")
    diagnostics: dict = {"backtracks": 0, "fallback": False}
    return _proved(g, _labelled(labels, _greedy_pack(view, diagnostics)), None, diagnostics)


def _greedy_pack(view: tuple, diagnostics: dict) -> tuple:
    """:func:`basic_algorithm`'s index packing of a ``view`` its checks and bottleneck scan passed.

    Each edge keeps one integer code across the extractions, its index
    in key order less its residual weight times the edge count, so the
    codes in ascending order are the positive-weight edges by weight
    descending, ties to the smaller key, then the spent ones.  Each tree
    is one :func:`spanning_forest` over the negative codes in that order,
    which stops at ``N - 1`` edges, and each edge it takes spends a unit.
    The search for the next-to-last tree takes candidates from the lazy
    ``_tree_walk`` over the residual's node pairs and stops after
    ``BACKTRACK_BUDGET``.  The residual weighs ``2 (N - 1)`` and a
    candidate, which holds every weight-2 pair, takes ``N - 1``; so the
    clean final tree is ``N - 1`` pairs left at one unit that one
    :func:`spanning_forest` keeps whole, and a pair of weight 3 or more
    defeats every candidate.  ``diagnostics`` records the candidates
    tried and any fallback.
    """
    labels, _, links = view  # scale 1: the callers checked whole rates
    n = len(labels) - 1
    total_trees = sum(x for _, _, x in links)
    if total_trees * (len(links) + n + 1) > EXACT_STEP_BUDGET:
        raise HeuristicFailedError(
            f"extracting {total_trees} trees passes the budget of {EXACT_STEP_BUDGET} steps"
        )
    # edge e, the e-th in key order, joins the nodes ends[e] and has the
    # code e - m * (its residual weight)
    ends = [(i, j) for i, j, _ in links]
    edge_of = {pair: e for e, pair in enumerate(ends)}
    m = len(links)
    code = [e - n * x * m for e, (_, _, x) in enumerate(links)]
    chosen: list[tuple] = []

    def fallback(reason: str) -> tuple:
        return _exact_fallback(view, Fraction(total_trees, n), reason, diagnostics)[0]

    # all but the last two trees, or the only one: Kruskal on descending
    # weight, ties to the smaller key
    for _ in range(total_trees - 2 if total_trees > 1 else 1):
        order = sorted(code)
        del order[bisect_left(order, 0):]
        forest = spanning_forest(n + 1, map(ends.__getitem__, map(m.__rmod__, order)))
        if len(forest) < n:
            return fallback("positive-weight edges no longer span the network")
        forest.sort()
        chosen.append(tuple(forest))
        for pair in forest:
            code[edge_of[pair]] += m  # one unit of weight spent

    if total_trees > 1:
        residual = [(ends[e], (e - c) // m) for e, c in enumerate(code) if c < 0]  # key order
        if len(spanning_forest(n + 1, [pair for pair, _ in residual])) < n:
            return fallback("positive-weight edges no longer span the network")
        if any(w > 2 for _, w in residual):  # left at 2 or more by every candidate
            return fallback("no next-to-last tree leaves a clean final tree")
        twos = [pair for pair, w in residual if w == 2]
        rest = [pair for pair, w in residual if w != 2]
        for candidate in islice(_tree_walk(n + 1, rest, twos), BACKTRACK_BUDGET):
            diagnostics["backtracks"] += 1
            held = set(candidate)
            last = [pair for pair, w in residual if w - (pair in held) == 1]  # in key order
            if len(last) == n and len(spanning_forest(n + 1, last)) == n:
                chosen += [tuple(candidate), tuple(last)]
                break
        else:
            return fallback("no next-to-last tree leaves a clean final tree")

    return Counter(chosen), n


def _exact_fallback(view: tuple, rate: Fraction, reason: str, diagnostics: dict) -> tuple:
    """Index packing and last refusal of :func:`_descend` from ``rate``, flagged in diagnostics."""
    diagnostics["fallback"] = True
    diagnostics["fallback_reason"] = reason
    return _descend(view, rate.denominator, rate.numerator, fixed_rounds=False)[:2]


# ---------------------------------------------------------------------------
# general algorithm (bottlenecks via contraction)
# ---------------------------------------------------------------------------

def general_algorithm(g: WeightedGraph) -> PackingOutcome:
    """Optimal-rate packing for integer rates, bottlenecks included.

    While some subset violates the bottleneck test, split on the first
    violator ``I``: contract everything outside ``I`` to one node and
    solve that network, solve the remainder network on its own, then
    splice each contracted tree (its edges at the merged node re-expanded
    to concrete cross edges with remaining capacity, lexicographically
    first) onto the matching remainder tree, pairing instances by sorted
    index over a common round count.  The splice cannot fail, so a split
    fails in one way: its remainder is disconnected, or it would nest
    more than ``SPLIT_DEPTH`` deep (``fallback_reason`` says which).  Then
    :func:`_descend` packs the whole network at its rate from the
    top-level violator's bound.  Everything after the network's own
    checks runs on its node indices: the splits, one bottleneck scan per
    network, the greedy of :func:`basic_algorithm` on each
    bottleneck-free one, the splices and the fallbacks; labels come back
    only in the packing built at the end.  The merged node takes the
    label :func:`~.netgraph.contract` would give it, so it sorts, and
    breaks ties, as it would among labels.  ``optimal`` is
    proven by the first of: the finest partition's bound, the bound of
    the top-level violator's partition (after a fallback, of the
    descent's last refusing partition), a partition scan that stops at
    the first partition whose value is at most the packing rate; if that
    scan passes its budget an unproven ``optimal`` is None.

    Raises:
        PreconditionFailedError: non-integer rates.
        ExactModeLimitError: a bottleneck scan passed its budget.
        HeuristicFailedError: a greedy packing or the exact packer would
            pass ``EXACT_STEP_BUDGET``.
    """
    return _proved(g, *_general_packing(g))


class _SplitFailed(Exception):
    """A split of :func:`_split_pack` cannot go on; :func:`_general_packing` falls back."""


def _general_packing(g: WeightedGraph) -> tuple:
    """:func:`general_algorithm`'s ``(packing, witness, diagnostics)`` before :func:`_proved`:
    the witness, each node's block, is the top-level violator's or the fallback's last refusal."""
    _require_rateable(g)
    integer_rates(g, "this algorithm needs integer rates")
    view = labels, scale, links = g.integer_links()
    diagnostics: dict = {"recursion_depth": 0, "backtracks": 0, "fallback": False, "splits": []}
    found = _subset_scan(len(labels), links)
    witness = None if found is None else _violator_blocks(len(labels), found[0])
    try:
        packing = _split_pack(view, found, diagnostics, 0)
    except _SplitFailed as exc:  # only a split fails, so there is a violator
        try:  # its k members alone and the rest: k + 1 blocks
            bound = Fraction(_crossing(links, witness), scale * len(found[0]))
            packing, refusal = _exact_fallback(view, bound, str(exc), diagnostics)
        except HeuristicFailedError as stop:
            raise HeuristicFailedError(
                f"splice failed ({exc}) and the exact packer stopped: {stop}"
            ) from stop
        if refusal is not None:
            witness = refusal
    return _labelled(labels, packing), witness, diagnostics


def _split_pack(view: tuple, found, diagnostics: dict, depth: int) -> tuple:
    """Index packing of ``view`` given ``found``, its one :func:`_subset_scan`.

    A split on the violator ``I`` builds both parts' views in one pass
    over the links.  The remainder keeps the nodes outside ``I`` in
    order.  The contraction keeps ``I``'s nodes in order and puts the
    merged node where its label sorts among theirs; a pair's weight to
    it is the sum of its member's links to the rest.
    """
    diagnostics["recursion_depth"] = max(diagnostics["recursion_depth"], depth)
    if found is None:
        return _greedy_pack(view, diagnostics)
    labels, scale, links = view
    chosen = found[0]
    members = [labels[j] for j in chosen]
    diagnostics["splits"].append({"subset": members, "depth": depth})
    if depth == SPLIT_DEPTH:
        raise _SplitFailed(f"splits nest more than {SPLIT_DEPTH} deep")
    inside = set(chosen)
    rest = [v for v in range(len(labels)) if v not in inside]
    merged = _block_labels([[x] for x in members] + [[labels[v] for v in rest]])[-1]
    at = bisect_left(members, merged)  # the merged node's index in the contraction
    slot = [at] * len(labels)  # each node's index in its part
    for k, v in enumerate(rest):
        slot[v] = k
    for k, v in enumerate(chosen):
        slot[v] = k + (k >= at)
    kept, joined = [], {}
    for i, j, w in links:
        if i in inside or j in inside:
            a = slot[i] if i in inside else at
            b = slot[j] if j in inside else at
            pair = (a, b) if a < b else (b, a)
            joined[pair] = joined.get(pair, 0) + w
        else:
            kept.append((slot[i], slot[j], w))
    if len(spanning_forest(len(rest), [(i, j) for i, j, w in kept if w])) < len(rest) - 1:
        raise _SplitFailed(
            f"remainder network on {[labels[v] for v in rest]} is not connected; cannot split"
        )
    contracted = (*members[:at], merged, *members[at:]), scale, [
        (a, b, w) for (a, b), w in sorted(joined.items())
    ]
    remainder = (tuple(labels[v] for v in rest), scale, kept)
    packings = [
        _split_pack(part, _subset_scan(len(part[0]), part[2]), diagnostics, depth + 1)
        for part in (contracted, remainder)
    ]
    return _splice(view, chosen, rest, at, *packings)


def _splice(view: tuple, chosen, rest: list, at: int, contracted: tuple, remainder: tuple) -> tuple:
    """Combine index packings of a split's contraction and remainder into one of ``view``.

    Node ``at`` of the contraction is the merged node and its others are
    the ``chosen`` nodes in order; node ``k`` of the remainder is
    ``rest[k]``.  Instances pair up by sorted index over a common round
    count, and each contracted pair at the merged node becomes the first
    cross pair, in key order, of its other end with capacity left.  With
    whole rates this cannot fail: each side, being connected, packs a
    tree; a contracted edge ``(x, merged)`` carries at most what ``x``'s
    cross edges' capacities add up to; and each contracted tree, its
    merged node replaced by a remainder tree, spans the network.
    """
    _, scale, links = view
    rounds = math.lcm(contracted[1], remainder[1])
    up = [*chosen[:at], None, *chosen[at:]]  # each contraction node's node in view
    inside = set(chosen)
    # cross pairs available to each subset node, in key order; first[x]
    # is the first of x's with spare capacity, for none before it has any
    cross_of: dict[int, list] = {v: [] for v in chosen}
    spare = {}
    for i, j, w in links:
        if (i in inside) != (j in inside):
            cross_of[i if i in inside else j].append((i, j))
            spare[(i, j)] = rounds * w // scale
    first = dict.fromkeys(chosen, 0)
    # each distinct tree's pairs in view, once: a contracted tree's pairs
    # inside I, and the other ends of its pairs at the merged node
    own_r = {t: [(rest[a], rest[b]) for a, b in t] for t in remainder[0]}
    own_c = {
        t: ([(up[a], up[b]) for a, b in t if at not in (a, b)],
            [up[a if b == at else b] for a, b in t if at in (a, b)])
        for t in contracted[0]
    }
    merged_trees: Counter = Counter()
    for tree_c, tree_r in zip(*(
        [t for t in sorted(trees) for _ in range(trees[t] * (rounds // r))]
        for trees, r in (contracted, remainder)
    )):
        inner, anchors = own_c[tree_c]
        edges = own_r[tree_r] + inner
        for x in anchors:
            keys, k = cross_of[x], first[x]
            while not spare[keys[k]]:
                k += 1
            first[x] = k
            spare[keys[k]] -= 1
            edges.append(keys[k])
        edges.sort()
        merged_trees[tuple(edges)] += 1
    return merged_trees, rounds
