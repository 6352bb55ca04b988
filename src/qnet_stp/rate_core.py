"""Conference-key rates from vertex-partition bounds.

The attainable conference-key rate of a network equals the classic
Nash-Williams/Tutte spanning-tree-packing bound

    rate = min over partitions P (>= 2 blocks) of
           (sum of rates crossing P) / (block count - 1),

evaluated here in exact arithmetic by a depth-first scan over partitions
in restricted-growth order that starts from the all-singletons value and
skips, exactly, every branch which cannot beat the best value found so
far.  A branch is skipped when the value of its prefix plus a lower bound
on what each unplaced node can still add is not below the incumbent: a
node adds at least its cost of opening a block or its weight to placed
nodes outside the block it is closest to, whichever is less.
The module also provides the per-partition bound, the all-singletons
bound, the finite-length (floored) variant, a closed form for triangles,
and the per-subset "no bottleneck" test that decides whether the
all-singletons partition is already optimal; that scan skips every
subset whose members so far already attach too much weight to be a
bottleneck.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

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
    cross_edges,
    format_rational,
    is_connected,
)

class RateReport(NamedTuple):
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
    and have two or more nodes.

    With the incumbent ``A / B``, a partition beats it when
    ``F = B * cross - A * (blocks - 1)`` is below ``tie`` (see
    :func:`nwt_rate`).  Placing node ``k`` adds exactly ``B * back_k - A``
    to ``F`` when it opens a block and ``B * (back_k - into)`` when it
    joins one, ``into`` being its weight to the lower nodes of that block.
    Two lower bounds on what an unplaced node adds prune a prefix:

    * the static one, ``min(0, B * back_k - A)``, summed in ``slack``;
    * the tight one, ``min(B * back_k - A, B * spread_k)``, with
      ``spread_k`` the node's weight to placed nodes outside the placed
      block that holds most of that weight: whichever block it joins, at
      least that much weight to placed nodes crosses.

    A child is tested against the static sum first, then against the
    tight sum, which changes only in the placed node's own term and its
    higher neighbours' terms and is worked out from their block weights
    before the placement is applied; a child that passes gets its
    placement applied and the sum as ``rest``.  Both bounds only drop
    subtrees in which no partition beats the incumbent, so the visiting
    order, the improvements, the minimizer and the cutoff partition are
    those of the scan without them.  The terms depend on the incumbent
    and are summed again after it improves.
    """
    n = len(w)
    upper = [[(k, x) for k, x in enumerate(row[i + 1:], i + 1) if x] for i, row in enumerate(w)]
    back = [sum(row[:i]) for i, row in enumerate(w)]
    rgs = [0] * n
    # the incumbent starts as the finest partition, the last RGS of all
    best_cross, best_pm1, best_rgs = sum(back), n - 1, tuple(range(n))
    if cutoff is not None and best_cross * cutoff.denominator <= cutoff.numerator * best_pm1:
        if stop is not None:
            stop.append(best_rgs)
        return None
    tie = 1  # 1 while the finest partition stands: a partition equal to it comes first
    improvements = 0
    opening = [0] * n  # opening[k] = back[k] * best_pm1 - best_cross
    slack = [0] * (n + 1)  # slack[i] = sum over k >= i of min(0, opening[k])
    # into[k][b]: k's weight to the placed nodes of block b; top[k] its
    # maximum and placed[k] its sum, so spread_k = placed[k] - top[k]
    into = [[0] * n for _ in range(n)]
    top = [0] * n
    placed = [0] * n

    def bound() -> None:
        s = 0
        for k in range(n - 1, -1, -1):
            o = opening[k] = back[k] * best_pm1 - best_cross
            if o < 0:
                s += o
            slack[k] = s

    def terms(i: int) -> int:
        # sum over k >= i of min(opening[k], spread_k * best_pm1)
        s = 0
        for k in range(i, n):
            o, t = opening[k], (placed[k] - top[k]) * best_pm1
            s += t if t < o else o
        return s

    def improve(cross: int, pm1: int) -> None:
        nonlocal best_cross, best_pm1, best_rgs, tie, improvements
        if cutoff is not None and cross * cutoff.denominator <= cutoff.numerator * pm1:
            raise _AtMostCutoff
        best_cross, best_pm1, best_rgs, tie = cross, pm1, tuple(rgs), 0
        improvements += 1
        bound()

    def visit(i: int, cross: int, p: int, rest: int) -> None:
        # nodes 0..i-1 are placed in p blocks with cross sum `cross`;
        # rest = sum of the tight terms of nodes i..n-1
        row = into[i]
        cross += back[i]
        if i == n - 1:
            heavy = top[i]
            if p > 1 and (cross - heavy) * best_pm1 - best_cross * (p - 1) < tie:
                rgs[i] = row.index(heavy)
                improve(cross - heavy, p - 1)
            if cross * best_pm1 - best_cross * p < tie:
                rgs[i] = p
                improve(cross, p)
            return
        B = best_pm1
        o, t = opening[i], (placed[i] - top[i]) * B
        rest -= t if t < o else o
        for b in range(p + 1):  # b == p opens a block; row[p] is 0
            c = cross - row[b]
            q = p + (b == p)
            value = c * B - best_cross * (q - 1)
            if value + slack[i + 1] >= tie:
                continue
            tight = rest
            for k, x in upper[i]:
                o = opening[k]
                if o > 0:  # otherwise the term is o before and after
                    y, h = into[k][b] + x, top[k]
                    s, t = (placed[k] - h) * B, (placed[k] + x - (y if y > h else h)) * B
                    tight += (t if t < o else o) - (s if s < o else o)
            if value + tight >= tie:
                continue
            rgs[i] = b
            tops = []
            for k, x in upper[i]:
                blocks = into[k]
                blocks[b] += x
                placed[k] += x
                tops.append(top[k])
                if blocks[b] > top[k]:
                    top[k] = blocks[b]
            mark = improvements
            visit(i + 1, c, q, tight)
            for (k, x), old in zip(upper[i], tops):
                into[k][b] -= x
                placed[k] -= x
                top[k] = old
            if mark != improvements:
                B = best_pm1
                rest = terms(i + 1)

    for k, x in upper[0]:
        into[k][0] = top[k] = placed[k] = x
    bound()
    try:
        visit(1, 0, 1, terms(1))
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
    lower-indexed nodes minus its weight into the block it joins), and so
    is each unplaced node's weight into every block of the placed nodes.

    The incumbent ``A / B`` (cross sum over block count - 1) starts as
    the finest partition, total / (N - 1), which comes last in
    restricted-growth order.  A prefix with cross sum ``c`` over ``p``
    blocks is scanned only while
    ``c*B - A*(p-1) + sum over unplaced k of min(B*back_k - A, B*spread_k) < tie``,
    ``back_k`` being node ``k``'s weight to lower-indexed nodes and
    ``spread_k`` its weight to placed nodes outside the placed block that
    holds most of it.  The sum is a lower bound: node ``k`` adds exactly
    ``B*back_k - A`` when it opens a block, and joining any block leaves
    at least ``spread_k`` of its weight crossing.  A partition replaces
    the incumbent under the same test with nothing left unplaced.
    ``tie`` is 1 while the finest partition stands, so the first
    partition equal to it replaces it, and 0 afterwards, so only strictly
    smaller values do.  A skipped prefix has no completion that would
    replace the incumbent, so the scan visits the candidates of a full
    enumeration in the same order and keeps the same ones: the result is
    the first minimizer in restricted-growth order, with the same
    tie-breaks.

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
    labels, scale, w = g.integer_weights()
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


class BottleneckCertificate(NamedTuple):
    """Outcome of the per-subset bottleneck scan.

    ``violating_subset is None`` means every subset satisfies the
    condition, which holds exactly when the all-singletons partition
    attains the rate minimum.  For a violating subset ``I`` the
    certificate carries both sides of the two equivalent inequalities:

    * ``network_bound <= attachment_bound``  (whole network vs. ``I``'s
      attachment: edges inside ``I`` plus edges leaving ``I``, per node);
    * ``subnetwork_bound <= attachment_bound`` (rest-of-network form;
      undefined when ``I`` misses only one node, hence Optional),

    plus the partition that singles out the members of ``I`` and keeps
    the rest as one block; ``contract(g, partition)`` is the view of the
    network with everything outside ``I`` contracted to one node.
    """

    violating_subset: Optional[tuple[str, ...]]
    network_bound: Optional[Fraction] = None
    attachment_bound: Optional[Fraction] = None
    subnetwork_bound: Optional[Fraction] = None
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
    cardinality.  ``attach`` only grows as members join, so the walk skips
    a member ``j`` of a partial subset ``C`` when
    ``attach(C + {j})*(N-1) >= total*|I|``: no subset it would complete
    can violate.  Only such subsets are skipped, so the order of the
    subsets tested and the first violator are those of the full walk.
    The certificate's bounds come from the same integer sums over the
    rate ``scale``: ``total / (scale*(N-1))``, ``attach(I) / (scale*|I|)``
    and ``(total - attach(I)) / (scale*(N-|I|-1))``, the weight left
    outside ``I`` over the rest of the network.

    Raises:
        TrivialNetworkError / DisconnectedError: as for rates.
        ExactModeLimitError: more nodes than ``caps.subsets``.
    """
    _require_rateable(g)
    _require_subset_cap(g, caps)
    n = g.node_count
    labels, scale, w = g.integer_weights()
    degree = [sum(row) for row in w]
    total = sum(degree) // 2
    chosen: list[int] = []

    def search(k: int, start: int, attach: int, to_chosen: list[int]) -> Optional[int]:
        # chosen holds fewer than k members; to_chosen[j] = weight from j to
        # them; gives attach(I) of the first violator I, left in chosen
        limit = total * k
        if len(chosen) == k - 1:
            for j in range(start, n):
                grown = attach + degree[j] - to_chosen[j]
                if limit > grown * (n - 1):
                    chosen.append(j)
                    return grown
            return None
        for j in range(start, n - k + len(chosen) + 1):
            grown = attach + degree[j] - to_chosen[j]
            if grown * (n - 1) >= limit:
                continue
            chosen.append(j)
            found = search(k, j + 1, grown, [a + b for a, b in zip(to_chosen, w[j])])
            if found is not None:
                return found
            chosen.pop()
        return None

    network_bound = Fraction(total, scale * (n - 1))
    for k in range(1, n):
        attach = search(k, 0, 0, [0] * n)
        if attach is not None:
            break
    else:
        return BottleneckCertificate(violating_subset=None, network_bound=network_bound)
    size = len(chosen)
    subset = tuple(labels[j] for j in chosen)
    rest = [v for i, v in enumerate(labels) if i not in chosen]
    return BottleneckCertificate(
        violating_subset=subset,
        network_bound=network_bound,
        attachment_bound=Fraction(attach, scale * size),
        subnetwork_bound=(
            Fraction(total - attach, scale * (n - size - 1)) if size < n - 1 else None
        ),
        partition=VertexPartition.from_blocks([[v] for v in subset] + [rest]),
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
