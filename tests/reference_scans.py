"""Plain exhaustive versions of the exact scans, kept as test oracles.

Each one visits every candidate in the order its library counterpart is
specified to honour and evaluates it from scratch:

* :func:`nwt_rate` -- every restricted growth string, every edge summed;
* :func:`check_no_bottleneck` -- every proper subset in exact rationals;
* :func:`best_bipartition` -- every bipartition cut in exact rationals;
* :func:`bottleneck_report` -- the three scans above, the bipartition
  search run on every network and the subset scan whenever the finest
  partition is not optimal;
* :func:`secrecy_audit` -- every key assignment, one histogram each;
* :func:`brute_force_packing` -- the memoized multiplicity search,
  re-summing its capacity bound at every state;
* :func:`greedy_pack` -- the greedy packer trying the next-to-last
  tree among every spanning tree of the residual, sorted by weight,
  under the library's ``BACKTRACK_BUDGET``;
* :func:`best_additions` -- one augmented network and one full rate
  scan per candidate (greedy) or per combination (exhaustive);
* :func:`is_connected`, :func:`is_spanning_tree`,
  :func:`enumerate_spanning_trees` and :func:`max_weight_tree` -- a
  depth-first search and three union-find loops of their own, the
  enumeration restoring a snapshot after each look-ahead.

Two oracles reach the library's answers by another route altogether:

* :func:`restricted_growth_strings` and :func:`enumerate_partitions` --
  every vertex partition, Bell(N) of them, for checking a property of
  the rate against each one;
* :func:`build_lp`, :func:`solve_lp` and :func:`solve_z` -- the
  omniscience program, one row per proper subset, solved by the
  library's simplex; its key rate is the secret-key capacity, which the
  paper proves equal to the packing rate :func:`qnet_stp.nwt_rate`
  returns.  :func:`verify_optimality` re-checks its certificate and
  :func:`verify_constraints` checks any announcement vector against
  every subset;
* :func:`reweight_by_lp` -- the best weights for a fixed tree list,
  from the same simplex; over every spanning tree its weight sum is the
  packing rate;
* :func:`count_spanning_trees` -- the matrix-tree theorem, the number
  of trees :func:`qnet_stp.enumerate_spanning_trees` must yield.

:func:`partition_scan` is the library's partition scan pruned by the
static per-node bound alone, not the tight one; it reaches sizes past
:func:`nwt_rate` and checks the tight scan's results, tie-breaks and
cutoff witnesses there.

The others cost Bell(N), 2^N, 2^(N-1) and 2^bits full evaluations, and the
oracle recurses once per spanning tree, so they are only meant for small
inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional

import qnet_stp
from qnet_stp import (
    BottleneckCertificate,
    PackingOutcome,
    RateReport,
    TreePacking,
    VertexPartition,
    WeightedGraph,
    contract,
)
from qnet_stp.errors import (
    DisconnectedError,
    ExactModeLimitError,
    HeuristicFailedError,
    InvalidPackingError,
    KeyDepletedError,
    PreconditionFailedError,
)
from qnet_stp.lp_core import _simplex_max
from qnet_stp.netgraph import (
    CAPS,
    SpanningTree,
    capacities,
    format_rational,
    proper_vertex_subsets,
)
from qnet_stp.packing import _exact_fallback
from qnet_stp.planner import BottleneckReport, Plan, _normalize_candidates, _score_addition
from qnet_stp.protocol import consumption_schedule, orient_tree
from qnet_stp.rate_core import _AtMostCutoff, _require_rateable

#: Largest node count for which the subset LP is built (2^N - 2 constraints).
LP_CAP_NODES = 16


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every restricted growth string of length ``n``, lexicographically.

    A restricted growth string ``a`` satisfies ``a[0] == 0`` and
    ``a[i] <= 1 + max(a[:i])``; strings correspond 1:1 to set partitions
    of ``n`` items, so the sequence has Bell(n) elements.
    """
    if n <= 0:
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        yield tuple(a)
        j = n - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for i in range(j + 1, n):
            a[i] = 0
            b[i] = nb


def enumerate_partitions(
    g: WeightedGraph, *, max_nodes: int = CAPS.partitions
) -> Iterator[VertexPartition]:
    """Yield every partition of ``g``'s vertices with at least two blocks.

    Order is the lexicographic restricted-growth-string order over nodes
    sorted by label, the order :func:`qnet_stp.nwt_rate` breaks ties in.

    Raises:
        ExactModeLimitError: when ``g`` has more than ``max_nodes`` nodes.
    """
    labels = g.sorted_nodes()
    if len(labels) > max_nodes:
        raise ExactModeLimitError(
            f"partition enumeration over {len(labels)} nodes exceeds the cap of {max_nodes}"
        )
    for rgs in restricted_growth_strings(len(labels)):
        if max(rgs) == 0:
            continue  # single block
        yield VertexPartition.from_rgs(labels, rgs)


@dataclass(frozen=True)
class LPInstance:
    """The omniscience program for one network.

    One constraint per nonempty proper subset of nodes, in deterministic
    order (cardinality ascending, then lexicographic): the announcement
    sum over the subset must cover the rate internal to the subset.
    """

    nodes: tuple[str, ...]
    subsets: tuple[tuple[str, ...], ...]
    bounds: tuple[Fraction, ...]
    total_rate: Fraction

    @property
    def constraint_count(self) -> int:
        return len(self.subsets)

    def to_text(self) -> str:
        """Plain-text listing of the objective and every inequality."""
        lines = ["minimize " + " + ".join(f"R_{v}" for v in self.nodes)]
        for subset, bound in zip(self.subsets, self.bounds):
            lhs = " + ".join(f"R_{v}" for v in subset)
            lines.append(f"  {lhs} >= {format_rational(bound)}")
        return "\n".join(lines)


def build_lp(g: WeightedGraph, *, max_nodes: int = LP_CAP_NODES) -> LPInstance:
    """Construct the omniscience program for ``g``.

    Raises:
        TrivialNetworkError / DisconnectedError: as for rates.
        ExactModeLimitError: more nodes than ``max_nodes``.
    """
    _require_rateable(g)
    subsets, bounds = zip(*_subset_bounds(g, max_nodes))
    return LPInstance(
        nodes=g.sorted_nodes(),
        subsets=subsets,
        bounds=bounds,
        total_rate=g.total_rate(),
    )


def _subset_bounds(g: WeightedGraph, max_nodes: int):
    """Yield ``(subset, rate internal to it)`` per nonempty proper subset, in order.

    Raises:
        ExactModeLimitError: more nodes than ``max_nodes``, before any subset.
    """
    labels = g.sorted_nodes()
    if len(labels) > max_nodes:
        raise ExactModeLimitError(
            f"subset LP over {len(labels)} nodes exceeds the cap of {max_nodes}"
        )
    for subset in proper_vertex_subsets(labels):
        inside = set(subset)
        yield subset, sum((e.rate for e in g.edges if e.u in inside and e.v in inside), Fraction(0))


@dataclass(frozen=True)
class LPSolution:
    """Exact optimum of an :class:`LPInstance`.

    ``announcement_rates`` is aligned with the instance's node order.
    ``support`` holds the nonzero multipliers of the binding subsets from
    the final basis -- together with the rates it forms a certificate:
    :func:`verify_optimality` checks primal feasibility, multiplier
    feasibility, and that both objectives coincide.
    """

    announcement_rates: tuple[Fraction, ...]
    omniscience_rate: Fraction  # minimal total announcement rate
    key_rate: Fraction  # total edge rate minus omniscience rate
    basis: tuple[int, ...]
    support: tuple[tuple[tuple[str, ...], Fraction], ...]
    pivots: int

    def rates_by_node(self, inst: LPInstance) -> dict[str, Fraction]:
        return dict(zip(inst.nodes, self.announcement_rates))

    def to_json_dict(self, inst: LPInstance) -> dict:
        return {
            "announcement_rates": {
                v: format_rational(r) for v, r in zip(inst.nodes, self.announcement_rates)
            },
            "omniscience_rate": format_rational(self.omniscience_rate),
            "key_rate": format_rational(self.key_rate),
        }


def solve_lp(inst: LPInstance) -> LPSolution:
    """Solve the omniscience program exactly.

    The tableau has one row per node and one column per subset (the
    program's maximization form, feasible at zero); at optimality the
    slack reduced costs are exactly the optimal announcement rates.
    """
    node_count = len(inst.nodes)
    membership = [
        [Fraction(int(v in subset)) for subset in inst.subsets] for v in inst.nodes
    ]
    value, packing, rates, basis, pivots = _simplex_max(
        membership,
        [Fraction(1)] * node_count,
        list(inst.bounds),
    )
    support = tuple(
        (inst.subsets[j], w) for j, w in enumerate(packing) if w > 0
    )
    return LPSolution(
        announcement_rates=tuple(rates),
        omniscience_rate=value,
        key_rate=inst.total_rate - value,
        basis=tuple(basis),
        support=support,
        pivots=pivots,
    )


def solve_z(g: WeightedGraph, *, max_nodes: int = LP_CAP_NODES) -> Fraction:
    """Distillable conference-key rate of ``g`` via the subset LP."""
    return solve_lp(build_lp(g, max_nodes=max_nodes)).key_rate


def reweight_by_lp(g: WeightedGraph, trees) -> TreePacking:
    """Best weights for a fixed tree list (exact LP).

    Maximizes the weight sum subject to every edge's capacity; trees that
    end up with zero weight are dropped.  With the full tree list of the
    network this attains the partition-bound rate.
    """
    tree_list = [SpanningTree.of(t.edges) for t in trees]
    for t in tree_list:
        if not is_spanning_tree(g, t):
            raise InvalidPackingError(f"tree {list(t.edges)} is not a spanning tree of the network")
    tree_list = sorted(set(tree_list), key=lambda t: t.edges)
    rows = [
        [Fraction(int(e.key in t.edges)) for t in tree_list]
        for e in g.edges
    ]
    limits = [e.rate for e in g.edges]
    _, weights, _, _, _ = _simplex_max(rows, limits, [Fraction(1)] * len(tree_list))
    return TreePacking.weighted(tree_list, weights, source="manual")


def verify_optimality(inst: LPInstance, sol: LPSolution) -> bool:
    """Re-check a solution's certificate from scratch.

    Confirms (a) the rates satisfy every subset constraint, (b) the
    support multipliers are a feasible solution of the maximization form
    (nonnegative, per-node load at most 1), and (c) both objectives
    agree.  Weak duality then pins the common value as the exact optimum.
    """
    rate_of = dict(zip(inst.nodes, sol.announcement_rates))
    if any(r < 0 for r in sol.announcement_rates):
        return False
    for subset, bound in zip(inst.subsets, inst.bounds):
        if sum((rate_of[v] for v in subset), Fraction(0)) < bound:
            return False
    load = {v: Fraction(0) for v in inst.nodes}
    mult_value = Fraction(0)
    bound_of = dict(zip(inst.subsets, inst.bounds))
    for subset, w in sol.support:
        if w < 0:
            return False
        for v in subset:
            load[v] += w
        mult_value += w * bound_of[subset]
    if any(l > 1 for l in load.values()):
        return False
    total = sum(sol.announcement_rates, Fraction(0))
    return total == sol.omniscience_rate == mult_value


def verify_constraints(
    g: WeightedGraph, rates: Mapping[str, Fraction]
) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Check announcement rates against every subset constraint of ``g``.

    Returns ``(True, None)`` or ``(False, first violated subset)`` in the
    deterministic subset order.

    Raises:
        PreconditionFailedError: a node has no rate.
        ExactModeLimitError: more nodes than ``LP_CAP_NODES`` (the scan
            visits ``2^N - 2`` subsets).
    """
    missing = [v for v in g.sorted_nodes() if v not in rates]
    if missing:
        raise PreconditionFailedError(f"no announcement rate for node {missing[0]!r}")
    for subset, bound in _subset_bounds(g, LP_CAP_NODES):
        if sum((Fraction(rates[v]) for v in subset), Fraction(0)) < bound:
            return False, subset
    return True, None


def nwt_rate(g) -> RateReport:
    """First minimizer, in restricted-growth order, of cross / (blocks - 1)."""
    labels = g.sorted_nodes()
    n = len(labels)
    idx = {v: i for i, v in enumerate(labels)}
    scale = math.lcm(*(e.rate.denominator for e in g.edges)) if g.edges else 1
    int_edges = [(idx[e.u], idx[e.v], int(e.rate * scale)) for e in g.edges if e.rate > 0]
    best_cross = None
    best_pm1 = 1
    best_rgs: tuple[int, ...] = ()
    for rgs in restricted_growth_strings(n):
        p = max(rgs) + 1
        if p < 2:
            continue
        cross = 0
        for iu, iv, w in int_edges:
            if rgs[iu] != rgs[iv]:
                cross += w
        pm1 = p - 1
        if best_cross is None or cross * best_pm1 < best_cross * pm1:
            best_cross, best_pm1, best_rgs = cross, pm1, rgs
    rate = Fraction(best_cross, best_pm1 * scale)
    return RateReport(
        rate=rate,
        minimizing_partition=VertexPartition.from_rgs(labels, best_rgs),
        finest_is_optimal=g.total_rate() / (n - 1) == rate,
    )


def partition_scan(
    w: list[list[int]], cutoff: Optional[Fraction] = None, stop: Optional[list] = None
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """The partition scan with the static per-node bound only.

    The same scan as :func:`qnet_stp.rate_core._partition_scan` (same
    arguments, results and ``stop`` witnesses) with one lower bound per
    unplaced node, ``min(0, back_k * B - A)``, summed into ``slack`` once
    per incumbent.  It visits many more prefixes than the library's
    kernel but reaches N = 12 and beyond, where the Bell(N)
    :func:`nwt_rate` is too slow.
    """
    n = len(w)
    lower = [[(j, w[i][j]) for j in range(i) if w[i][j]] for i in range(n)]
    back = [sum(x for _, x in row) for row in lower]
    rgs = [0] * n
    # the incumbent starts as the finest partition, the last RGS of all
    best_cross, best_pm1, best_rgs = sum(back), n - 1, tuple(range(n))
    if cutoff is not None and best_cross * cutoff.denominator <= cutoff.numerator * best_pm1:
        if stop is not None:
            stop.append(best_rgs)
        return None
    tie = 1  # 1 while the finest partition stands: a partition equal to it comes first
    # slack[i] = sum over k >= i of min(0, back[k] * best_pm1 - best_cross)
    slack = [0] * (n + 1)

    def bound() -> None:
        for k in range(n - 1, -1, -1):
            slack[k] = slack[k + 1] + min(0, back[k] * best_pm1 - best_cross)

    def improve(cross: int, pm1: int) -> None:
        nonlocal best_cross, best_pm1, best_rgs, tie
        if cutoff is not None and cross * cutoff.denominator <= cutoff.numerator * pm1:
            raise _AtMostCutoff
        best_cross, best_pm1, best_rgs, tie = cross, pm1, tuple(rgs), 0
        bound()

    def visit(i: int, cross: int, p: int) -> None:
        # nodes 0..i-1 are placed in p blocks with cross sum `cross`
        into = [0] * p
        for j, x in lower[i]:
            into[rgs[j]] += x
        cross += back[i]
        if i == n - 1:
            heavy = max(into)
            if p > 1 and (cross - heavy) * best_pm1 - best_cross * (p - 1) < tie:
                rgs[i] = into.index(heavy)
                improve(cross - heavy, p - 1)
            if cross * best_pm1 - best_cross * p < tie:
                rgs[i] = p
                improve(cross, p)
            return
        for b in range(p):
            if (cross - into[b]) * best_pm1 - best_cross * (p - 1) + slack[i + 1] < tie:
                rgs[i] = b
                visit(i + 1, cross - into[b], p)
        if cross * best_pm1 - best_cross * p + slack[i + 1] < tie:
            rgs[i] = p
            visit(i + 1, cross, p + 1)

    bound()
    try:
        visit(1, 0, 1)
    except _AtMostCutoff:
        if stop is not None:
            stop.append(tuple(rgs))
        return None
    return best_cross, best_pm1, best_rgs


def check_no_bottleneck(g) -> BottleneckCertificate:
    """First subset (by size, then lexicographic) whose attachment bound
    falls below the network bound."""
    labels = g.sorted_nodes()
    n = len(labels)
    network_bound = g.total_rate() / (n - 1)
    for subset in proper_vertex_subsets(labels):
        inside = set(subset)
        attachment = sum(
            (e.rate for e in g.edges if e.u in inside or e.v in inside), Fraction(0)
        ) / len(subset)
        if network_bound > attachment:
            rest = [v for v in labels if v not in inside]
            restgraph_rate = sum(
                (e.rate for e in g.edges if e.u not in inside and e.v not in inside),
                Fraction(0),
            )
            sub_bound = (
                restgraph_rate / (n - len(subset) - 1) if n - len(subset) > 1 else None
            )
            partition = VertexPartition.from_blocks([[v] for v in subset] + [rest])
            return BottleneckCertificate(
                violating_subset=subset,
                network_bound=network_bound,
                attachment_bound=attachment,
                subnetwork_bound=sub_bound,
                partition=partition,
            )
    return BottleneckCertificate(violating_subset=None, network_bound=network_bound)


def best_bipartition(g) -> tuple[Fraction, VertexPartition]:
    """Minimum cut over all bipartitions; ties go to the smallest ``blocks``."""
    nodes = g.sorted_nodes()
    rest = nodes[1:]
    best = None
    best_partition = None
    for mask in range(1 << len(rest)):
        side = {nodes[0]} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if len(side) == len(nodes):
            continue
        cut = sum(
            (e.rate for e in g.edges if (e.u in side) != (e.v in side)),
            Fraction(0),
        )
        partition = VertexPartition.from_blocks(
            [sorted(side), sorted(set(nodes) - side)]
        )
        if best is None or cut < best or (cut == best and partition.blocks < best_partition.blocks):
            best, best_partition = cut, partition
    return best, best_partition


def bottleneck_report(g) -> BottleneckReport:
    """The bottleneck report from the full rate, subset and bipartition scans."""
    report = nwt_rate(g)
    certificate = None if report.finest_is_optimal else check_no_bottleneck(g)
    bip_bound, bip_partition = best_bipartition(g)
    partition = report.minimizing_partition
    rate = format_rational(report.rate)
    if report.finest_is_optimal:
        kind, contracted = "none", None
        narrative = f"no bottleneck: the finest partition is optimal at rate {rate}"
    elif bip_bound == report.rate:
        kind = "bipartition"
        if partition.block_count != 2:
            partition = bip_partition
        contracted = contract(g, partition)
        narrative = f"bipartition bottleneck {partition}: the cut of rate {rate} caps the network"
    else:
        kind = "multiblock"
        contracted = contract(g, partition)
        narrative = (
            f"bottleneck across {partition.block_count} blocks {partition}: "
            f"contracted bound {rate} beats the best "
            f"bipartition bound {format_rational(bip_bound)}"
        )
    return BottleneckReport(
        rate=report.rate,
        minimizing_partition=partition,
        kind=kind,
        best_bipartition_bound=bip_bound,
        contracted=contracted,
        certificate=certificate,
        narrative=narrative,
    )


def secrecy_audit(g, pk, *, schedule=None) -> dict:
    """Every field of the audit report, from all 2^bits key assignments.

    The transcript and the conference key are evaluated for every mask;
    the key is uniform iff every transcript's histogram holds every key
    with one count.  Histograms are kept up to 12 bits, as in the library.
    """
    pool_sizes = capacities(g, pk.rounds)
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

    violations = []
    seen_bits = {}
    scheduled_uses = 0
    ann_positions = []
    conference_positions = []
    for (_, _, tree), consumed in zip(instances, schedule):
        orientation = orient_tree(tree)
        position = {}
        for key in tree.edges:
            index = consumed[key]
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
        for node in sorted(orientation.out_edges):
            in_pos = position[orientation.in_edge[node]]
            for key in orientation.out_edges[node]:
                ann_positions.append((in_pos, position[key]))
        conference_positions.append(position[orientation.conference_edge])

    histograms = {}
    for mask in range(1 << total_bits):
        transcript = tuple(((mask >> p) ^ (mask >> q)) & 1 for p, q in ann_positions)
        key = tuple((mask >> p) & 1 for p in conference_positions)
        histograms.setdefault(transcript, {})
        histograms[transcript][key] = histograms[transcript].get(key, 0) + 1

    key_space = 1 << len(conference_positions)
    uniform = True
    for transcript, hist in histograms.items():
        if len(hist) != key_space or len(set(hist.values())) != 1:
            uniform = False
            violations.append(
                "conference key not uniform for transcript " + "".join(map(str, transcript))
            )
            break
    return {
        "uniform": uniform,
        "edge_disjoint": len(seen_bits) == scheduled_uses,
        "total_bits": total_bits,
        "conference_bits": len(conference_positions),
        "violations": tuple(violations),
        "histograms": histograms if total_bits <= 12 else None,
    }


def brute_force_packing(g, rounds) -> PackingOutcome:
    """Exact maximum multigraph packing: every spanning tree, every
    multiplicity, memoized on (tree index, remaining capacities) and cut
    off by a volume and degree bound summed afresh at every state."""
    caps_map = capacities(g, rounds)
    usable = [(key, cap) for key, cap in sorted(caps_map.items()) if cap > 0]
    capacity_graph = WeightedGraph(
        g.node_ids, [(k[0], k[1], Fraction(c)) for k, c in usable]
    ) if usable else None
    if capacity_graph is None or not is_connected(capacity_graph, positive_only=True):
        return PackingOutcome(
            packing=TreePacking.multigraph([], [], rounds, source="oracle"),
            optimal=optimal_flag(g, Fraction(0)),
            diagnostics={"oracle_states": 0, "tree_candidates": 0},
        )
    trees = list(enumerate_spanning_trees(capacity_graph))
    key_index = {key: i for i, (key, _) in enumerate(usable)}
    tree_edges = [tuple(key_index[k] for k in t.edges) for t in trees]
    need = g.node_count - 1
    incident = [
        tuple(i for i, (key, _) in enumerate(usable) if v in key) for v in g.node_ids
    ]

    def upper_bound(caps):
        by_volume = sum(caps) // need
        by_degree = min(sum(caps[i] for i in idxs) for idxs in incident)
        return min(by_volume, by_degree)

    memo = {}

    def explore(i, caps):
        if i == len(trees):
            return 0, ()
        bound = upper_bound(caps)
        if bound == 0:
            return 0, (0,) * (len(trees) - i)
        state = (i, caps)
        if state in memo:
            return memo[state]
        best_k, best_choice = -1, ()
        for count in range(min(caps[e] for e in tree_edges[i]), -1, -1):
            reduced = list(caps)
            for e in tree_edges[i]:
                reduced[e] -= count
            sub_k, sub_choice = explore(i + 1, tuple(reduced))
            if count + sub_k > best_k:
                best_k, best_choice = count + sub_k, (count,) + sub_choice
                if best_k == bound:
                    break
        memo[state] = (best_k, best_choice)
        return memo[state]

    k, choice = explore(0, tuple(cap for _, cap in usable))
    chosen = [(t, m) for t, m in zip(trees, choice) if m > 0]
    return PackingOutcome(
        packing=TreePacking.multigraph(
            [t for t, _ in chosen], [m for _, m in chosen], rounds, source="oracle"
        ),
        optimal=optimal_flag(g, Fraction(k, rounds)),
        diagnostics={"oracle_states": len(memo), "tree_candidates": len(trees)},
    )


def optimal_flag(g, rate):
    """Whether ``rate`` is the network's rate; None beyond the partition cap."""
    if g.node_count > CAPS.partitions:
        return None
    return rate == nwt_rate(g).rate


def is_connected(g, positive_only=False) -> bool:
    """Depth-first search from the first node (optionally over rate>0 edges)."""
    nodes = g.node_ids
    if len(nodes) == 1:
        return True
    start = nodes[0]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for key in g.edges_at(node):
            if positive_only and g.rate(*key) == 0:
                continue
            other = key[1] if key[0] == node else key[0]
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(nodes)


def is_spanning_tree(g, tree) -> bool:
    """Right size, no repeated edge, every edge in ``g``, no cycle."""
    n = g.node_count
    if len(tree.edges) != n - 1:
        return False
    if len(set(tree.edges)) != len(tree.edges):
        return False
    parent = {v: v for v in g.node_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        if not g.has_edge(u, v):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def count_spanning_trees(g) -> int:
    """Number of spanning trees of the positive-rate subgraph (matrix-tree).

    The determinant of a Laplacian minor by fraction-free (Bareiss)
    elimination: every division is exact, so the arithmetic stays in
    ints.  0 when the positive-rate subgraph is disconnected.
    """
    labels = g.sorted_nodes()
    size = len(labels) - 1
    idx = {v: i for i, v in enumerate(labels)}
    lap = [[0] * (size + 1) for _ in labels]
    for e in g.positive_edges():
        i, j = idx[e.u], idx[e.v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    sign, previous = 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * top[k] - lead * top[j]) // previous
        previous = top[k]
    return sign * previous


def enumerate_spanning_trees(g):
    """Every spanning tree of the positive-rate subgraph, lexicographically.

    Include-then-exclude over the sorted positive edges; a branch is cut
    when the chosen edges plus the remaining ones cannot span, tested on
    the union-find state and then restored from a snapshot.
    """
    if not is_connected(g, positive_only=True):
        raise DisconnectedError("positive-rate subgraph is not connected")
    n = g.node_count
    if n == 1:
        yield SpanningTree(())
        return
    keys = [e.key for e in g.positive_edges()]
    m = len(keys)
    parent = {v: v for v in g.node_ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def can_complete(i):
        snapshot = dict(parent)
        comps = len({find(v) for v in g.node_ids})
        for u, v in keys[i:]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
                if comps == 1:
                    break
        parent.clear()
        parent.update(snapshot)
        return comps == 1

    chosen = []

    def walk(i):
        if len(chosen) == n - 1:
            yield SpanningTree(tuple(chosen))
            return
        if i == m or len(chosen) + (m - i) < n - 1 or not can_complete(i):
            return
        u, v = keys[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(keys[i])
            yield from walk(i + 1)
            chosen.pop()
            parent[ru] = ru
        yield from walk(i + 1)

    yield from walk(0)


def max_weight_tree(g, weight):
    """Kruskal on descending weight (ties to the smaller key); None if the
    positive-weight edges do not span."""
    order = sorted((k for k, w in weight.items() if w > 0), key=lambda k: (-weight[k], k))
    parent = {v: v for v in g.node_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked = []
    for key in order:
        ru, rv = find(key[0]), find(key[1])
        if ru != rv:
            parent[ru] = rv
            picked.append(key)
            if len(picked) == g.node_count - 1:
                return SpanningTree.of(picked)
    return None


def greedy_pack(g) -> PackingOutcome:
    """The greedy packer of :func:`qnet_stp.basic_algorithm`, searching for
    the next-to-last tree among every spanning tree of the residual support,
    sorted by descending residual weight, then by edge keys, and tried in
    turn up to ``packing.BACKTRACK_BUDGET``; the exact fallback is the
    library's.  A tree that misses a weight-2 edge leaves that edge in the
    residual, so it fails without being a candidate: when the search gives
    up, ``backtracks`` counts only the tried trees that hold every one."""
    n = g.node_count - 1
    rates = {e.key: e.rate.numerator for e in g.edges}
    total_trees = sum(rates.values())
    budget = qnet_stp.packing.EXACT_STEP_BUDGET
    if total_trees * (len(rates) + g.node_count) > budget:
        raise HeuristicFailedError(f"extracting {total_trees} trees passes the budget of {budget} steps")
    weight = {k: n * r for k, r in rates.items() if r > 0}
    diagnostics = {"backtracks": 0, "fallback": False}
    chosen = []

    def fallback(reason):
        packing, _ = _exact_fallback(g, Fraction(total_trees, n), reason, diagnostics)
        return PackingOutcome(packing=packing, optimal=True, diagnostics=diagnostics)

    def take(tree, amount):
        for key in tree.edges:
            weight[key] -= amount

    for _ in range(max(total_trees - 2, 0)):
        tree = max_weight_tree(g, weight)
        if tree is None:
            return fallback("positive-weight edges no longer span the network")
        chosen.append(tree)
        take(tree, 1)
    if total_trees == 1:
        tree = max_weight_tree(g, weight)
        if tree is None:
            return fallback("positive-weight edges no longer span the network")
        chosen.append(tree)
    else:
        support = WeightedGraph(
            g.node_ids, [(k[0], k[1], Fraction(w)) for k, w in weight.items() if w > 0]
        )
        if not is_connected(support, positive_only=True):
            return fallback("positive-weight edges no longer span the network")
        candidates = sorted(
            enumerate_spanning_trees(support),
            key=lambda t: (-sum(weight[k] for k in t.edges), t.edges),
        )
        tried = candidates[:qnet_stp.packing.BACKTRACK_BUDGET]
        twos = {k for k, w in weight.items() if w == 2}
        for candidate in tried:
            diagnostics["backtracks"] += 1
            take(candidate, 1)
            rest = SpanningTree.of(k for k, w in weight.items() if w > 0)
            if all(weight[k] == 1 for k in rest.edges) and is_spanning_tree(g, rest):
                chosen += [candidate, rest]
                break
            take(candidate, -1)
        else:
            diagnostics["backtracks"] = sum(twos <= set(t.edges) for t in tried)
            return fallback("no next-to-last tree leaves a clean final tree")
    packing = TreePacking.multigraph(chosen, [1] * len(chosen), n, source="heuristic")
    return PackingOutcome(packing=packing, optimal=True, diagnostics=diagnostics)


def best_additions(g, candidates, budget, *, exhaustive=False) -> Plan:
    """The link-placement plan, scoring every candidate on its own network.

    Greedy: each candidate's augmented network is built and scanned in
    full, and the candidates are sorted by ``(-rate_after, edge,
    added_rate)``.  Exhaustive: every combination of ``sorted`` candidates
    is built edge by edge and scanned in full; the first best wins.
    """
    pool = _normalize_candidates(candidates)
    initial = qnet_stp.nwt_rate(g).rate
    steps = []
    current = g
    if exhaustive:
        best_choice = best_rate = None
        for combo in itertools.combinations(sorted(pool), min(budget, len(pool))):
            augmented = g
            for u, v, rate in combo:
                augmented = augmented.with_edge(u, v, rate)
            rate_after = qnet_stp.nwt_rate(augmented).rate
            if best_rate is None or rate_after > best_rate:
                best_rate, best_choice = rate_after, combo
        for u, v, rate in best_choice:
            before = steps[-1].rate_after if steps else initial
            steps.append(_score_addition(current, u, v, rate, before, CAPS))
            current = steps[-1].graph
    else:
        remaining = list(pool)
        for _ in range(min(budget, len(pool))):
            before = steps[-1].rate_after if steps else initial
            scored = [
                (_score_addition(current, u, v, rate, before, CAPS), i)
                for i, (u, v, rate) in enumerate(remaining)
            ]
            scored.sort(key=lambda pair: (-pair[0].rate_after, pair[0].edge, pair[0].added_rate))
            best, index = scored[0]
            steps.append(best)
            current = best.graph
            del remaining[index]
    return Plan(
        mode="exhaustive" if exhaustive else "greedy",
        initial_rate=initial,
        final_rate=steps[-1].rate_after if steps else initial,
        steps=tuple(steps),
    )
