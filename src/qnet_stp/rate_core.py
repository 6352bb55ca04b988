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
bottleneck, and runs only when the least degrees and a minimum cut
(Stoer-Wagner, the module's one minimum cut) do not already prove that
no subset is one.
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
    VertexPartition,
    WeightedGraph,
    _check_partition_of,
    check_rounds,
    format_rational,
    is_connected,
    parse_rational,
)

#: Most units of work one partition scan takes, about a second at any
#: node count: a prefix costs a unit per block its node tries and per
#: neighbour term it updates for a block, and summing the tight terms
#: again after an improvement a unit per node summed.
#: :func:`planner._best_bipartition`'s side search counts against it too,
#: and so does :func:`planner.bottleneck_report`'s minimum cut.
PARTITION_BUDGET = 3_000_000

#: Most candidate members one bottleneck subset scan tries: at least the
#: 2,097,110 of the unpruned walk over 20 nodes, so every scan of 20 or
#: fewer nodes finishes.  A walk that passes it takes about a second
#: (``pack`` of a 24-ring with one chord and of a 32-node graph of 96
#: links, 2-vCPU Xeon VM).  The minimum-cut certificate that may answer
#: before the walk runs only on ``N**3 <= SUBSET_BUDGET`` nodes, at most
#: about 40 ms.
SUBSET_BUDGET = 2_100_000


def _over_budget(search: str, n: int, budget: int) -> ExactModeLimitError:
    """The refusal of a ``search`` over ``n`` nodes that passed its ``budget``."""
    return ExactModeLimitError(f"the {search} of {n} nodes passed its budget of {budget} steps")


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
    if not is_connected(g):
        raise DisconnectedError("positive-rate subgraph is not connected")


def _crossing(links, block) -> int:
    """Weight of the integer ``links`` between blocks, node ``i`` lying in block ``block[i]``."""
    return sum(w for i, j, w in links if block[i] != block[j])


def _partition_scan(
    n: int, links, cutoff: Optional[Fraction] = None
) -> tuple[int, int, tuple[int, ...]]:
    """Partition of nodes ``0..n-1`` of least ``cross / (blocks - 1)``, or one at most ``cutoff``.

    ``links`` are ``(i, j, w)`` with ``i < j``, each pair at most once,
    in any order: nodes ``i`` and ``j`` joined by integer weight ``w``,
    of which 0 joins nothing.

    Returns ``(cross, blocks - 1, rgs)``: the first minimizer in
    restricted-growth order or, with a ``cutoff`` (in weight units), the
    first partition at most it that the scan meets, returning there, the
    last node trying only a block of its own and its heaviest (the first
    of equals); the finest, scanning nothing, when that is at most
    ``cutoff``.  So the value returned is at most ``cutoff`` exactly when
    the minimum is, and a scan whose value is above it never met its
    cutoff: it took the path of the scan without one.  Each comparison
    the scan makes weighs two sums linear in the weights, so it takes the
    same path and picks the same partition on any positive multiple of
    the weights, and so spends the same units of ``PARTITION_BUDGET``;
    past it the scan raises ExactModeLimitError.  The links must connect
    two or more nodes.

    With the incumbent ``A / B``, a partition beats it when
    ``F = B * cross - A * (blocks - 1)`` is below ``tie`` (see
    :func:`nwt_rate`).  Placing node ``k`` adds exactly ``B * back_k - A``
    to ``F`` when it opens a block and ``B * (back_k - into)`` when it
    joins one, ``into`` being its weight to the lower nodes of that block.
    So each unplaced node adds at least its tight term,
    ``min(B * back_k - A, B * spread_k)``, ``spread_k`` being its weight
    to placed nodes outside the placed block that holds most of that
    weight: whichever block it joins, that much crosses.  A placement
    never lowers another node's term (``spread_k`` only grows), so one
    lower bound, the sum of the terms, is tested on each child twice: as
    it stands (``rest``), then with the terms of the child's higher
    neighbours, worked out from their block weights before the placement
    is applied.  It drops only subtrees where no partition beats the
    incumbent, so the visiting order, improvements, minimizer and cutoff
    partition are those of the unpruned scan.  The terms are summed again
    after each improvement.  The path down is kept on flat lists, not on
    the call stack, so no node count or depth of the caller's stack
    overflows it.
    """
    # into[k][b]: k's weight to the placed nodes of block b <= k; top[k]
    # its maximum and placed[k] its sum, so spread_k = placed[k] - top[k]
    into = [[0] * (k + 1) for k in range(n)]
    # higher-index neighbours, each with its weight and its row of `into`
    upper: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(n)]
    back = [0] * n  # each node's weight to lower-index nodes
    for i, j, x in links:
        if x:
            upper[i].append((j, x, into[j]))
            back[j] += x
    rgs = [0] * n
    # the incumbent starts as the finest partition, the last RGS of all
    best_cross, best_pm1, best_rgs = sum(back), n - 1, tuple(range(n))
    if cutoff is not None and best_cross * cutoff.denominator <= cutoff.numerator * best_pm1:
        return best_cross, best_pm1, best_rgs
    tie = 1  # 1 while the finest partition stands: a partition equal to it comes first
    improvements = 0
    opening = [x * best_pm1 - best_cross for x in back]  # each node's cost of opening a block
    top = [0] * n
    placed = [0] * n
    steps, budget = 0, PARTITION_BUDGET  # units of work

    def terms(i: int) -> int:
        # sum over k >= i of min(opening[k], spread_k * best_pm1)
        s = 0
        for k in range(i, n):
            o, t = opening[k], (placed[k] - top[k]) * best_pm1
            s += t if t < o else o
        return s

    def improve(cross: int, pm1: int) -> bool:
        # the partition in `rgs` is the new incumbent; True when it is at most the cutoff
        nonlocal best_cross, best_pm1, best_rgs, tie, improvements
        best_cross, best_pm1, best_rgs, tie = cross, pm1, tuple(rgs), 0
        if cutoff is not None and cross * cutoff.denominator <= cutoff.numerator * pm1:
            return True
        improvements += 1
        opening[:] = [x * pm1 - cross for x in back]
        return False

    for k, x, blocks in upper[0]:
        blocks[0] = top[k] = placed[k] = x
    # each placed node above node 0: its cross, p and rest, its block b
    # and the improvements before it; `saved` holds the tops that the
    # placements replaced, node after node
    path = []
    saved = []
    i, cross, p, rest = 1, 0, 1, terms(1)
    while True:
        # nodes 0..i-1 are placed in p blocks with cross sum `cross`;
        # rest = sum of the tight terms of nodes i..n-1; b is the next
        # block node i tries, p opening one (row[p] is 0)
        cross += back[i]
        if i == n - 1:
            heavy = top[i]
            if p > 1 and (cross - heavy) * best_pm1 - best_cross * (p - 1) < tie:
                rgs[i] = into[i].index(heavy)
                if improve(cross - heavy, p - 1):
                    return best_cross, best_pm1, best_rgs
            if cross * best_pm1 - best_cross * p < tie:
                rgs[i] = p
                if improve(cross, p):
                    return best_cross, best_pm1, best_rgs
            b = p + 1  # no block to try: back up
        else:
            steps += p + 1
            if steps > budget:
                raise _over_budget("partition scan", n, budget)
            o, t = opening[i], (placed[i] - top[i]) * best_pm1
            rest -= t if t < o else o
            b = 0
        up, row, B = upper[i], into[i], best_pm1
        while True:  # node i's next block, backing up past nodes with none left
            if b > p:  # node i has no block left: undo its parent's placement
                if not path:
                    return best_cross, best_pm1, best_rgs
                i -= 1
                cross, p, rest, b, mark = path.pop()
                up, row = upper[i], into[i]
                for k, x, blocks in reversed(up):
                    blocks[b] -= x
                    placed[k] -= x
                    top[k] = saved.pop()
                if mark != improvements:
                    rest = terms(i + 1)
                    steps += n - i - 1
                b += 1
                continue
            c = cross - row[b]
            q = p + (b == p)
            value = c * B - best_cross * (q - 1)
            if value + rest < tie:
                steps += len(up)
                tight = rest
                for k, x, blocks in up:
                    o = opening[k]
                    if o > 0:  # otherwise the term is o before and after
                        y, h, w = blocks[b] + x, top[k], placed[k]
                        s, t = (w - h) * B, (w + x - (y if y > h else h)) * B
                        tight += (t if t < o else o) - (s if s < o else o)
                if value + tight < tie:
                    break
            b += 1
        rgs[i] = b
        for k, x, blocks in up:
            y = blocks[b] = blocks[b] + x
            placed[k] += x
            h = top[k]
            saved.append(h)
            if y > h:
                top[k] = y
        path.append((cross, p, rest, b, improvements))
        i, cross, p, rest = i + 1, c, q, tight


def nwt_rate(g: WeightedGraph) -> RateReport:
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

    The scan is :func:`_partition_scan` over ``g``'s integer links; the
    planner and the packers' optimality check run it with a cutoff, and
    it then stops at the first partition whose value is at most the
    cutoff and returns that partition.  It takes any node count, and
    stops at ``PARTITION_BUDGET`` units of work.

    Raises:
        TrivialNetworkError: fewer than 2 nodes.
        DisconnectedError: positive-rate subgraph not connected.
        ExactModeLimitError: the scan passed ``PARTITION_BUDGET``.
    """
    _require_rateable(g)
    labels, scale, links = g.integer_links()
    return _rate_report(labels, scale, links, _partition_scan(len(labels), links))


def _rate_report(
    labels: tuple[str, ...], scale: int, links, found: tuple[int, int, tuple[int, ...]]
) -> RateReport:
    """The report of a completed :func:`_partition_scan` of ``links`` (rates times ``scale``)."""
    cross, pm1, rgs = found
    total = sum(x for _, _, x in links)
    return RateReport(
        rate=Fraction(cross, pm1 * scale),
        minimizing_partition=VertexPartition.from_rgs(labels, rgs),
        finest_is_optimal=total * pm1 == cross * (len(labels) - 1),
    )


def nwt_length(g: WeightedGraph, rounds: int) -> int:
    """Attainable conference-key length (in bits) over ``rounds`` rounds.

    Equals ``floor(rounds * rate)``: flooring is monotone, so the
    partition minimizing the exact rate also minimizes the floored
    per-partition value.
    """
    check_rounds(rounds)
    scaled = rounds * nwt_rate(g).rate
    return scaled.numerator // scaled.denominator


def partition_bound(g: WeightedGraph, p: VertexPartition) -> Fraction:
    """Cross-rate sum of ``p`` (:func:`_crossing` on the integer links) over (block count - 1);
    InvalidPartitionError for fewer than two blocks, then for blocks not covering the nodes."""
    if p.block_count < 2:
        raise InvalidPartitionError("a rate bound needs at least two blocks")
    _check_partition_of(g, p)
    labels, scale, links = g.integer_links()
    block = p.block_of()
    return Fraction(_crossing(links, [block[v] for v in labels]), scale * (p.block_count - 1))


def finest_bound(g: WeightedGraph) -> Fraction:
    """Bound at the all-singletons partition: total rate / (N - 1)."""
    if g.node_count < 2:
        raise TrivialNetworkError("rates need at least two nodes")
    _, scale, links = g.integer_links()
    return Fraction(sum(x for _, _, x in links), scale * (g.node_count - 1))


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


def _weight_matrix(n: int, links) -> list[list[int]]:
    """The symmetric ``n`` x ``n`` weight matrix of the integer ``links``."""
    w = [[0] * n for _ in range(n)]
    for i, j, x in links:
        w[i][j] = w[j][i] = x
    return w


def _min_cut(w: list[list[int]]) -> int:
    """Weight of a minimum cut of the weight matrix ``w`` (two or more nodes).

    Stoer and Wagner (J. ACM 44(4), 1997): each phase grows a set by
    adding the node most tightly attached to it; the last node's
    attachment is the cut between it and the rest, and the last two
    nodes are then merged.
    """
    m = [list(row) for row in w]
    alive = list(range(len(m)))
    least: Optional[int] = None
    while len(alive) > 1:
        s, rest = alive[0], alive[1:]
        attach = m[s][:]
        while True:
            t = max(rest, key=attach.__getitem__)
            rest.remove(t)
            if not rest:
                break
            for v in rest:
                attach[v] += m[t][v]
            s = t
        if least is None or attach[t] < least:
            least = attach[t]
        alive.remove(t)
        for v in alive:
            if v != s:
                m[s][v] = m[v][s] = m[s][v] + m[t][v]
    return least


def _cut_certifies(degree: list[int], links) -> bool:
    """Whether the least degrees and one minimum cut prove no subset a bottleneck.

    ``degree`` holds the weighted degrees on the integer ``links``.  A
    proper subset ``I`` of ``k`` nodes attaches ``(sum of its degrees +
    w(cut of I)) / 2``, at least ``(S_k + c) / 2`` with ``S_k`` the ``k``
    least degrees and ``c`` the minimum cut; it violates its test only
    when ``attach(I)*(N-1) < total*k``.  So none does when
    ``(S_k + c)*(N-1) >= 2*total*k`` for ``k = 1 .. N-2`` (``N - 1``
    members attach the whole total).  The largest need ``2*total*k -
    S_k*(N-1)`` is checked first against the least degree, which bounds
    ``c``, so the cut runs only when it could certify.
    """
    n = len(degree)
    total = sum(degree) // 2
    ordered = sorted(degree)
    need, least = 0, 0
    for k in range(1, n - 1):
        least += ordered[k - 1]
        need = max(need, 2 * total * k - least * (n - 1))
    if need == 0:  # two nodes: no subset to test
        return True
    if ordered[0] * (n - 1) < need:
        return False
    return _min_cut(_weight_matrix(n, links)) * (n - 1) >= need


def check_no_bottleneck(g: WeightedGraph) -> BottleneckCertificate:
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
    cardinality; each node's weight to the members chosen is one array,
    raised along a member's higher-index neighbours (listed from the
    integer links) as it joins and lowered as it leaves.
    ``attach`` only grows as members join, so the walk skips a member
    ``j`` of a partial subset ``C`` when
    ``attach(C + {j})*(N-1) >= total*|I|``: no subset it would complete
    can violate.  One loop tries every member under this test, and the
    first last member it keeps completes the first violator.  Only such
    subsets are skipped, so the order of the subsets tested and the
    first violator are those of the full walk.
    The certificate's bounds come from the same integer sums over the
    rate ``scale``: ``total / (scale*(N-1))``, ``attach(I) / (scale*|I|)``
    and ``(total - attach(I)) / (scale*(N-|I|-1))``, the weight left
    outside ``I`` over the rest of the network.  Each member the walk
    tries is a step, charged as the walk enters the loop that tries it;
    past ``SUBSET_BUDGET`` steps the scan stops.
    Before the walk, when ``N**3 <= SUBSET_BUDGET`` (so ``N <= 128`` and
    at most about 40 ms), :func:`_cut_certifies` may prove from the
    least degrees and one minimum cut that no subset violates, and the
    walk's own answer, no violator, is returned without it.  The cut and
    the walk are :func:`_subset_scan` over the integer links, which the
    packers call on their node indices.

    Raises:
        TrivialNetworkError / DisconnectedError: as for rates.
        ExactModeLimitError: the walk passed ``SUBSET_BUDGET``.
    """
    _require_rateable(g)
    labels, scale, links = g.integer_links()
    n = len(labels)
    total = sum(x for _, _, x in links)
    network_bound = Fraction(total, scale * (n - 1))
    found = _subset_scan(n, links)
    if found is None:
        return BottleneckCertificate(violating_subset=None, network_bound=network_bound)
    chosen, attach = found
    size = len(chosen)
    return BottleneckCertificate(
        violating_subset=tuple(labels[j] for j in chosen),
        network_bound=network_bound,
        attachment_bound=Fraction(attach, scale * size),
        subnetwork_bound=(
            Fraction(total - attach, scale * (n - size - 1)) if size < n - 1 else None
        ),
        partition=VertexPartition.from_rgs(labels, _violator_blocks(n, chosen)),
    )


def _subset_scan(n: int, links) -> Optional[tuple[tuple[int, ...], int]]:
    """:func:`check_no_bottleneck`'s scan on the nodes ``0..n-1`` of integer ``links``.

    ``links`` are ``(i, j, w)`` with ``i < j``, each pair at most once,
    on two or more nodes that the positive weights connect: the callers
    test that, once per network.  Returns None when no subset is a
    bottleneck, or the first violator's members, ascending, and its
    attachment ``attach(I)``.

    Raises:
        ExactModeLimitError: the walk passed ``SUBSET_BUDGET``.
    """
    degree = [0] * n
    upper: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # higher-index neighbours
    for i, j, x in links:
        degree[i] += x
        degree[j] += x
        if x:
            upper[i].append((j, x))
    total = sum(degree) // 2
    if n ** 3 <= SUBSET_BUDGET and _cut_certifies(degree, links):
        return None
    chosen: list[int] = []
    # to_chosen[j]: weight from j to the members chosen, for every j above them
    to_chosen = [0] * n
    steps, budget = 0, SUBSET_BUDGET

    def search(k: int, start: int, attach: int) -> Optional[int]:
        # chosen holds fewer than k members, all below start; gives
        # attach(I) of the first violator I, left in chosen
        nonlocal steps
        limit = total * k
        last = len(chosen) == k - 1
        end = n - k + len(chosen) + 1
        steps += end - start
        if steps > budget:
            raise _over_budget("subset scan", n, budget)
        for j in range(start, end):
            grown = attach + degree[j] - to_chosen[j]
            if grown * (n - 1) >= limit:
                continue
            chosen.append(j)
            if last:
                return grown
            for m, x in upper[j]:
                to_chosen[m] += x
            found = search(k, j + 1, grown)
            if found is not None:
                return found
            for m, x in upper[j]:
                to_chosen[m] -= x
            chosen.pop()
        return None

    for k in range(1, n):
        attach = search(k, 0, 0)
        if attach is not None:
            return tuple(chosen), attach
    return None


def _violator_blocks(n: int, chosen) -> list[int]:
    """Each node's block when the nodes ``chosen`` are singled out and the rest kept as one."""
    block = [len(chosen)] * n
    for k, j in enumerate(chosen):
        block[j] = k
    return block


def triangle_rate(r12: Fraction, r13: Fraction, r23: Fraction) -> Fraction:
    """Closed-form conference rate for a three-node network.

    If one link is at least as strong as the two others combined, the two
    weaker links are the binding cut and the rate is their sum; otherwise
    the rate is half the total.  Each rate is read by :func:`parse_rational`.

    Raises:
        SchemaError: a rate :func:`parse_rational` refuses.
        NegativeRateError: any negative rate.
        DisconnectedError: two or more zero rates.
    """
    r12, r13, r23 = parse_rational(r12), parse_rational(r13), parse_rational(r23)
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
