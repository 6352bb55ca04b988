"""Conference-key rates from vertex-partition bounds.

The attainable conference-key rate of a network equals the classic
Nash-Williams/Tutte spanning-tree-packing bound

    rate = min over partitions P (>= 2 blocks) of
           (sum of rates crossing P) / (block count - 1),

evaluated here in exact arithmetic by a depth-first scan over partitions
in restricted-growth order that starts from the all-singletons value and
skips, exactly, every branch which cannot beat the best value found so
far.
The module also provides the per-partition bound, the all-singletons
bound, the finite-length (floored) variant, a closed form for triangles,
and the per-subset "no bottleneck" test that decides whether the
all-singletons partition is already optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DisconnectedError,
    ExactModeLimitError,
    InvalidPartitionError,
    NegativeRateError,
    TrivialNetworkError,
)
from .netgraph import (
    CAPS,
    Caps,
    VertexPartition,
    WeightedGraph,
    check_rounds,
    contract,
    cross_edges,
    format_rational,
    is_connected,
)

@dataclass(frozen=True)
class RateReport:
    """Result of a rate computation.

    ``minimizing_partition`` is the first partition (in enumeration
    order) attaining the minimum; per-partition values for any other
    partition can be recomputed on demand with :func:`partition_bound`.
    """

    rate: Fraction
    minimizing_partition: VertexPartition
    finest_is_optimal: bool

    def to_json_dict(self) -> dict:
        return {
            "rate": format_rational(self.rate),
            "minimizing_partition": self.minimizing_partition.to_json_list(),
            "finest_is_optimal": self.finest_is_optimal,
        }


def _require_rateable(g: WeightedGraph) -> None:
    if g.node_count < 2:
        raise TrivialNetworkError("rates need at least two nodes")
    if not is_connected(g, positive_only=True):
        raise DisconnectedError("positive-rate subgraph is not connected")


def _integer_weights(g: WeightedGraph) -> tuple[tuple[str, ...], int, list[list[int]]]:
    """Label order, scale and integer weight matrix shared by the exact scans.

    Node ``i`` is the ``i``-th label in sorted order; ``w[i][j]`` is the
    rate of edge ``(i, j)`` times ``scale`` (the lcm of the rate
    denominators), 0 where there is no edge.
    """
    labels = g.sorted_nodes()
    idx = {v: i for i, v in enumerate(labels)}
    scale = math.lcm(*(e.rate.denominator for e in g.edges)) if g.edges else 1
    w = [[0] * len(labels) for _ in labels]
    for e in g.edges:
        i, j = idx[e.u], idx[e.v]
        w[i][j] = w[j][i] = e.rate.numerator * (scale // e.rate.denominator)
    return labels, scale, w


class _AtMostCutoff(Exception):
    """Raised inside :func:`_partition_scan` when a partition reaches its cutoff."""


def _partition_scan(
    w: list[list[int]], cutoff: Optional[Fraction] = None, stop: Optional[list] = None
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """Minimum of ``cross / (blocks - 1)`` over partitions of the weight matrix ``w``.

    Returns ``(cross, blocks - 1, rgs)`` of the first minimizer in
    restricted-growth order, or ``None`` as soon as some partition's value
    is at most ``cutoff`` (in the units of ``w``): the minimum is then at
    most ``cutoff`` too, so ``None`` comes back exactly when the minimum
    is at most ``cutoff``.  On ``None`` the RGS of that partition is
    appended to ``stop``, if given; when the finest partition is already
    at most ``cutoff`` that is its RGS, and nothing is scanned.  A scan
    that returns a minimizer never met its cutoff, so it took the path of
    the scan without one.  Each comparison the scan makes weighs two sums
    linear in the weights, so it takes the same path and picks the same
    partition on any positive multiple of ``w``.  ``w`` must be connected
    and have two or more nodes.  The scan is the one :func:`nwt_rate`
    documents.
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


def nwt_rate(g: WeightedGraph, *, caps: Caps = CAPS) -> RateReport:
    """Exact conference-key rate of ``g`` by a depth-first partition scan.

    Partitions are visited as restricted growth strings in lexicographic
    order over the nodes in sorted-label order: node ``i`` tries blocks
    ``0..p`` in turn, ``p`` opening a new block.  The cross sum is kept
    incrementally on integer-scaled rates (node ``i`` adds its weight to
    lower-indexed nodes minus its weight into the block it joins), and the
    last node's choices are evaluated together from per-block weights.

    The incumbent ``A / B`` (cross sum over block count - 1) starts as
    the finest partition, total / (N - 1), which comes last in
    restricted-growth order.  A prefix with cross sum ``c`` over ``p``
    blocks is scanned only while
    ``c*B - A*(p-1) + sum over unplaced k of min(0, back_k*B - A) < tie``,
    ``back_k`` being node ``k``'s weight to lower-indexed nodes, and a
    partition replaces the incumbent under the same test with nothing
    left unplaced.  ``tie`` is 1 while the finest partition stands, so
    the first partition equal to it replaces it, and 0 afterwards, so
    only strictly smaller values do.  The result is the first minimizer
    in restricted-growth order, the same as a full enumeration.  Each
    bound is tested before the child is visited.

    The scan is :func:`_partition_scan`; the planner runs it on candidate
    weight matrices with a cutoff, to stop at the first partition whose
    value is at most the leader's rate.

    Raises:
        TrivialNetworkError: fewer than 2 nodes.
        DisconnectedError: positive-rate subgraph not connected.
        ExactModeLimitError: more nodes than ``caps.partitions``.
    """
    _require_rateable(g)
    n = g.node_count
    if n > caps.partitions:
        raise ExactModeLimitError(
            f"partition enumeration over {n} nodes exceeds the cap of {caps.partitions}"
        )
    labels, scale, w = _integer_weights(g)
    return _rate_report(labels, scale, w, _partition_scan(w))


def _rate_report(
    labels: tuple[str, ...], scale: int, w: list[list[int]], found: tuple[int, int, tuple[int, ...]]
) -> RateReport:
    """The report of a completed :func:`_partition_scan` of ``w`` (rates times ``scale``)."""
    cross, pm1, rgs = found
    total = sum(map(sum, w)) // 2
    return RateReport(
        rate=Fraction(cross, pm1 * scale),
        minimizing_partition=VertexPartition.from_rgs(labels, rgs),
        finest_is_optimal=total * pm1 == cross * (len(w) - 1),
    )


def nwt_length(g: WeightedGraph, rounds: int, *, caps: Caps = CAPS) -> int:
    """Attainable conference-key length (in bits) over ``rounds`` rounds.

    Equals ``floor(rounds * rate)``: flooring is monotone, so the
    partition minimizing the exact rate also minimizes the floored
    per-partition value.
    """
    check_rounds(rounds)
    scaled = rounds * nwt_rate(g, caps=caps).rate
    return scaled.numerator // scaled.denominator


def partition_bound(g: WeightedGraph, p: VertexPartition) -> Fraction:
    """Cross-rate sum of ``p`` divided by (block count - 1)."""
    if p.block_count < 2:
        raise InvalidPartitionError("a rate bound needs at least two blocks")
    total = sum((e.rate for e in cross_edges(g, p)), Fraction(0))
    return total / (p.block_count - 1)


def finest_bound(g: WeightedGraph) -> Fraction:
    """Bound at the all-singletons partition: total rate / (N - 1)."""
    if g.node_count < 2:
        raise TrivialNetworkError("rates need at least two nodes")
    return g.total_rate() / (g.node_count - 1)


@dataclass(frozen=True)
class BottleneckCertificate:
    """Outcome of the per-subset bottleneck scan.

    ``violating_subset is None`` means every subset satisfies the
    condition, which holds exactly when the all-singletons partition
    attains the rate minimum.  For a violating subset ``I`` the
    certificate carries both sides of the two equivalent inequalities:

    * ``network_bound <= attachment_bound``  (whole network vs. ``I``'s
      attachment: edges inside ``I`` plus edges leaving ``I``, per node);
    * ``subnetwork_bound <= attachment_bound`` (rest-of-network form;
      undefined when ``I`` misses only one node, hence Optional),

    plus the view of the network with everything outside ``I``
    contracted to one node.
    """

    violating_subset: Optional[tuple[str, ...]]
    network_bound: Optional[Fraction] = None
    attachment_bound: Optional[Fraction] = None
    subnetwork_bound: Optional[Fraction] = None
    contracted: Optional[WeightedGraph] = None
    partition: Optional[VertexPartition] = None

    @property
    def ok(self) -> bool:
        return self.violating_subset is None

    def to_json_dict(self) -> dict:
        if self.ok:
            return {"bottleneck": False}
        return {
            "bottleneck": True,
            "violating_subset": list(self.violating_subset),
            "network_bound": format_rational(self.network_bound),
            "attachment_bound": format_rational(self.attachment_bound),
            "subnetwork_bound": (
                None if self.subnetwork_bound is None else format_rational(self.subnetwork_bound)
            ),
        }


def _require_subset_cap(g: WeightedGraph, caps: Caps) -> None:
    if g.node_count > caps.subsets:
        raise ExactModeLimitError(
            f"subset scan over {g.node_count} nodes exceeds the cap of {caps.subsets}"
        )


def check_no_bottleneck(g: WeightedGraph, *, caps: Caps = CAPS) -> BottleneckCertificate:
    """Scan proper node subsets for a rate bottleneck.

    Subsets are visited by ascending cardinality, then lexicographically
    over the sorted labels, and the first violator is reported.  The
    test per subset ``I`` is

        total_rate / (N - 1)  <=  attachment_rate(I) / |I|

    whose failure certifies that some coarser partition (single out the
    members of ``I``, contract the rest) beats the all-singletons bound.
    It runs on integer-scaled rates as ``total*|I| > attach(I)*(N-1)``,
    with ``attach(I)`` the weighted degrees of ``I`` minus its internal
    weight, kept incrementally along a depth-first walk over each
    cardinality; only the violator's certificate is built in exact
    rationals.

    Raises:
        TrivialNetworkError / DisconnectedError: as for rates.
        ExactModeLimitError: more nodes than ``caps.subsets``.
    """
    _require_rateable(g)
    _require_subset_cap(g, caps)
    n = g.node_count
    labels, _, w = _integer_weights(g)
    degree = [sum(row) for row in w]
    total = sum(degree) // 2
    chosen: list[int] = []

    def search(k: int, start: int, attach: int, to_chosen: list[int]) -> bool:
        # chosen holds fewer than k members; to_chosen[j] = weight from j to them
        if len(chosen) == k - 1:
            limit = total * k
            for j in range(start, n):
                if limit > (attach + degree[j] - to_chosen[j]) * (n - 1):
                    chosen.append(j)
                    return True
            return False
        for j in range(start, n - k + len(chosen) + 1):
            chosen.append(j)
            if search(
                k,
                j + 1,
                attach + degree[j] - to_chosen[j],
                [a + b for a, b in zip(to_chosen, w[j])],
            ):
                return True
            chosen.pop()
        return False

    network_bound = g.total_rate() / (n - 1)
    if not any(search(k, 0, 0, [0] * n) for k in range(1, n)):
        return BottleneckCertificate(violating_subset=None, network_bound=network_bound)
    subset = tuple(labels[j] for j in chosen)
    inside = set(subset)
    attachment = sum(
        (e.rate for e in g.edges if e.u in inside or e.v in inside), Fraction(0)
    ) / len(subset)
    rest = [v for v in labels if v not in inside]
    restgraph_rate = sum(
        (e.rate for e in g.edges if e.u not in inside and e.v not in inside),
        Fraction(0),
    )
    sub_bound = restgraph_rate / (len(rest) - 1) if len(rest) > 1 else None
    partition = VertexPartition.from_blocks([[v] for v in subset] + [rest])
    return BottleneckCertificate(
        violating_subset=subset,
        network_bound=network_bound,
        attachment_bound=attachment,
        subnetwork_bound=sub_bound,
        contracted=contract(g, partition),
        partition=partition,
    )


def triangle_rate(r12: Fraction, r13: Fraction, r23: Fraction) -> Fraction:
    """Closed-form conference rate for a three-node network.

    If one link is at least as strong as the two others combined, the two
    weaker links are the binding cut and the rate is their sum; otherwise
    the rate is half the total.

    Raises:
        NegativeRateError: any negative rate.
        DisconnectedError: two or more zero rates.
    """
    r12, r13, r23 = Fraction(r12), Fraction(r13), Fraction(r23)
    if r12 < 0 or r13 < 0 or r23 < 0:
        raise NegativeRateError("triangle rates must be nonnegative")
    if sum(1 for r in (r12, r13, r23) if r == 0) >= 2:
        raise DisconnectedError("two zero-rate links leave a node isolated")
    if r12 + r13 <= r23:
        return r12 + r13
    if r12 + r23 <= r13:
        return r12 + r23
    if r13 + r23 <= r12:
        return r13 + r23
    return (r12 + r13 + r23) / 2
