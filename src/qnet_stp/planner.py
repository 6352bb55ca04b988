"""Topology analysis and link-placement planning.

Answers two operator questions: *where* is the network's rate lost
(which vertex groups, once contracted, expose the binding cut), and
*which* candidate link is worth adding.  Evaluation is exact — every
candidate is scored by the partition-minimum rate of the augmented
weight matrix, or dropped by a partition that proves it cannot win —
so the greedy plan's trajectory is authoritative, not an estimate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyPlanError, ExactModeLimitError, NegativeRateError, SchemaError
from .netgraph import (
    CAPS,
    Caps,
    EdgeKey,
    VertexPartition,
    WeightedGraph,
    contract,
    edge_key,
    format_rational,
    parse_rational,
)
from .rate_core import (
    BottleneckCertificate,
    RateReport,
    _partition_scan,
    _rate_report,
    _require_subset_cap,
    check_no_bottleneck,
    nwt_rate,
)

#: Exhaustive planning enumerates candidate combinations; refuse beyond this.
EXHAUSTIVE_PLAN_CAP = 200_000


# ---------------------------------------------------------------------------
# bottleneck reporting
# ---------------------------------------------------------------------------

class BottleneckReport(NamedTuple):
    """Where the rate minimum sits and what structure causes it."""

    rate: Fraction
    minimizing_partition: VertexPartition
    kind: str  # "none" | "bipartition" | "multiblock"
    best_bipartition_bound: Fraction
    contracted: Optional[WeightedGraph]
    certificate: Optional[BottleneckCertificate]
    narrative: str

    @property
    def finest_is_optimal(self) -> bool:
        return self.kind == "none"

    def to_json_dict(self) -> dict:
        doc = {
            "rate": format_rational(self.rate),
            "minimizing_partition": self.minimizing_partition.to_json_list(),
            "kind": self.kind,
            "finest_is_optimal": self.finest_is_optimal,
            "best_bipartition_bound": format_rational(self.best_bipartition_bound),
            "narrative": self.narrative,
        }
        if self.contracted is not None:
            doc["contracted"] = self.contracted.to_json_dict()
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json_dict()
        return doc


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


def _best_bipartition(g: WeightedGraph) -> tuple[Fraction, VertexPartition]:
    """The strongest two-block bound: the minimum cut over all bipartitions.

    The cut's weight comes from :func:`_min_cut` on integer-scaled rates.
    The partition is the first side holding the smallest label, in sorted
    order of its label tuple, whose cut has that weight, so among minimum
    cuts the partition with the smallest ``blocks`` wins.  A depth-first
    search visits the sides in that order, adding one later node at a
    time, and skips a branch when the weight between its side and the
    nodes passed over, plus each undecided node's lighter tie to the two,
    already exceeds the minimum.
    """
    nodes, scale, w = g.integer_weights()
    n = len(nodes)
    least = _min_cut(w)
    degree = [sum(row) for row in w]
    side = [0]

    def search(start: int, cut: int, fixed: int, to_in: list[int], to_out: list[int]) -> bool:
        # nodes below `start` are placed: those in `side` or else on the other
        # side; `fixed` is the weight between the two, `to_in` and `to_out`
        # each node's weight to them, `cut` the side's cut
        if cut == least and len(side) < n:
            return True
        for j in range(start, n):
            joined = [a + b for a, b in zip(to_in, w[j])]
            if fixed + to_out[j] + sum(map(min, joined[j + 1:], to_out[j + 1:])) <= least:
                side.append(j)
                if search(j + 1, cut + degree[j] - 2 * to_in[j], fixed + to_out[j], joined, to_out):
                    return True
                side.pop()
            fixed += to_in[j]
            to_out = [a + b for a, b in zip(to_out, w[j])]
        return False

    search(1, degree[0], 0, w[0], [0] * n)
    partition = VertexPartition.from_blocks(
        [[nodes[i] for i in side], [v for i, v in enumerate(nodes) if i not in side]]
    )
    return Fraction(least, scale), partition


def bottleneck_report(g: WeightedGraph, *, caps: Caps = CAPS) -> BottleneckReport:
    """Classify the binding structure behind the network's key rate.

    The report names the minimizing partition, contracts the graph onto
    its blocks, and says whether a plain bipartition already explains
    the minimum or a richer partition is needed (in which case the best
    bipartition bound is strictly looser).  The subset certificate, when
    a bottleneck exists, carries both forms of the per-subset test.  When
    the finest partition is optimal no subset violates its test, so the
    subset scan is skipped; the ``caps.subsets`` refusal still applies.

    The best bipartition bound is the minimum cut.  When the scan's
    minimizer has two blocks it is a cut at the rate, and no cut is below
    the rate, so the bound is the rate and no cut is computed; otherwise
    it is :func:`_min_cut`'s weight.  Only a bipartition bottleneck whose
    minimizer has three or more blocks names a cut the scan did not
    find, and only then does :func:`_best_bipartition` search for the
    first minimum-cut side.
    """
    if g.node_count > caps.partitions:
        raise ExactModeLimitError(
            f"bottleneck report needs partition enumeration; "
            f"{g.node_count} nodes exceed the cap of {caps.partitions}"
        )
    report: RateReport = nwt_rate(g, caps=caps)
    _require_subset_cap(g, caps)
    # no subset violates its bound exactly when the finest partition is optimal
    certificate = None if report.finest_is_optimal else check_no_bottleneck(g, caps=caps)
    partition = report.minimizing_partition
    if partition.block_count == 2:
        bip_bound = report.rate
    else:
        _, scale, w = g.integer_weights()
        bip_bound = Fraction(_min_cut(w), scale)
    if report.finest_is_optimal:
        kind = "none"
        contracted = None
        narrative = (
            f"no bottleneck: the finest partition is optimal at rate "
            f"{format_rational(report.rate)}"
        )
    elif bip_bound == report.rate:
        kind = "bipartition"
        if partition.block_count != 2:
            partition = _best_bipartition(g)[1]
        contracted = contract(g, partition)
        narrative = (
            f"bipartition bottleneck {partition}: the cut of rate "
            f"{format_rational(report.rate)} caps the network"
        )
    else:
        kind = "multiblock"
        contracted = contract(g, partition)
        narrative = (
            f"bottleneck across {partition.block_count} blocks {partition}: "
            f"contracted bound {format_rational(report.rate)} beats the best "
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


# ---------------------------------------------------------------------------
# candidate evaluation
# ---------------------------------------------------------------------------

class AugmentationResult(NamedTuple):
    """Exact effect of adding one candidate link."""

    edge: EdgeKey
    added_rate: Fraction
    rate_before: Fraction
    rate_after: Fraction
    delta: Fraction
    minimizing_partition: VertexPartition
    narrative: str
    graph: WeightedGraph  # the augmented network

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "added_rate": format_rational(self.added_rate),
            "rate_before": format_rational(self.rate_before),
            "rate_after": format_rational(self.rate_after),
            "delta": format_rational(self.delta),
            "minimizing_partition": self.minimizing_partition.to_json_list(),
            "narrative": self.narrative,
        }


def _partition_narrative(report: RateReport) -> str:
    partition = report.minimizing_partition
    if report.finest_is_optimal:
        return "minimum at the finest partition: no bottleneck structure"
    if partition.block_count == 2:
        return f"minimum at the bipartition {partition}"
    return (
        f"minimum when contracting to {partition.block_count} super-nodes: {partition}"
    )


def evaluate_addition(
    g: WeightedGraph,
    u: str,
    v: str,
    rate=1,
    *,
    caps: Caps = CAPS,
) -> AugmentationResult:
    """Score one candidate link by the exact rate of the augmented network.

    An existing edge is handled as a rate increase (the rates merge).

    Raises:
        NegativeRateError: non-positive candidate rate.
        UnknownNodeError / SelfLoopError: bad endpoints.
    """
    added = parse_rational(rate)
    if added <= 0:
        raise NegativeRateError(f"candidate rate must be positive, got {added}")
    before = nwt_rate(g, caps=caps).rate
    return _score_addition(g, u, v, added, before, caps)


def _score_addition(
    g: WeightedGraph,
    u: str,
    v: str,
    added: Fraction,
    before: Fraction,
    caps: Caps,
    after: Optional[RateReport] = None,
) -> AugmentationResult:
    """:func:`evaluate_addition` for a positive ``added`` with ``g``'s rate known.

    ``after``, when given, is the augmented network's rate report, which
    is then not computed again.
    """
    augmented = g.with_edge(u, v, added)
    if after is None:
        after = nwt_rate(augmented, caps=caps)
    return AugmentationResult(
        edge=edge_key(u, v),
        added_rate=added,
        rate_before=before,
        rate_after=after.rate,
        delta=after.rate - before,
        minimizing_partition=after.minimizing_partition,
        narrative=_partition_narrative(after),
        graph=augmented,
    )


# ---------------------------------------------------------------------------
# augmentation planning
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    """An ordered sequence of link additions with its exact trajectory."""

    mode: str  # "greedy" | "exhaustive"
    initial_rate: Fraction
    final_rate: Fraction
    steps: tuple[AugmentationResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "initial_rate": format_rational(self.initial_rate),
            "final_rate": format_rational(self.final_rate),
            "steps": [step.to_json_dict() for step in self.steps],
        }


def _normalize_candidates(candidates) -> list[tuple[str, str, Fraction]]:
    out = []
    for item in candidates:
        if len(item) == 2:
            u, v = item
            rate = Fraction(1)
        elif len(item) == 3:
            u, v, rate = item
            rate = parse_rational(rate)
        else:
            raise SchemaError(f"candidate must be (u, v) or (u, v, rate), got {item!r}")
        if rate <= 0:
            raise NegativeRateError(f"candidate rate must be positive, got {rate}")
        out.append((u, v, rate))
    return out


def _scanner(g: WeightedGraph, initial: RateReport):
    """``scan(additions, leader)``: the rate report of ``g`` with ``additions`` added.

    Each call scans a copy of ``g``'s integer weight matrix with the
    additions' weights added, rescaled to the lcm of the scale and their
    denominators.  It gives ``None`` when some partition's value is at
    most ``leader``.  It first tries its witnesses: ``initial``'s
    minimizer and each partition a scan ended on (its minimizer, or where
    it met its cutoff), kept with their cross sums on ``g``'s matrix.  A
    witness's value is that sum times the rescale factor plus the
    additions it separates, over its block count less one; one at most
    ``leader`` gives ``None`` without a scan.  A completed scan's report
    is the augmented network's :func:`nwt_rate`, because the scan takes
    the same path on any positive multiple of a matrix.
    """
    labels, scale, w = g.integer_weights()
    index = {v: i for i, v in enumerate(labels)}
    witnesses: dict[tuple[int, ...], tuple[int, int]] = {}  # node blocks -> (cross, blocks - 1)

    def keep(rgs: tuple[int, ...]) -> None:
        if rgs not in witnesses:
            cross = sum(w[i][j] for i in range(len(rgs)) for j in range(i) if rgs[i] != rgs[j])
            witnesses[rgs] = (cross, max(rgs))

    block = initial.minimizing_partition.block_of()
    keep(tuple(block[v] for v in labels))

    def scan(additions, leader: Optional[Fraction]) -> Optional[RateReport]:
        new_scale = math.lcm(scale, *(rate.denominator for _, _, rate in additions))
        factor = new_scale // scale
        added = [
            (index[u], index[v], rate.numerator * (new_scale // rate.denominator))
            for u, v, rate in additions
        ]
        cutoff = None
        if leader is not None:
            cutoff = leader * new_scale
            for rgs, (cross, pm1) in witnesses.items():
                value = cross * factor + sum(x for i, j, x in added if rgs[i] != rgs[j])
                if value * cutoff.denominator <= cutoff.numerator * pm1:
                    return None
        m = [[x * factor for x in row] for row in w]
        for i, j, x in added:
            m[i][j] += x
            m[j][i] = m[i][j]
        stop: list = []
        found = _partition_scan(m, cutoff, stop)
        keep(stop[0] if found is None else found[2])
        return None if found is None else _rate_report(labels, new_scale, m, found)

    return scan


def best_additions(
    g: WeightedGraph,
    candidates: Sequence,
    budget: int,
    *,
    exhaustive: bool = False,
    caps: Caps = CAPS,
) -> Plan:
    """Plan up to ``budget`` link additions from ``candidates``.

    Greedy mode repeatedly adds the candidate whose augmented network has
    the highest exact rate; ties go to the smallest edge key, then to the
    smallest added rate, then to the earliest in ``candidates``.
    Exhaustive mode tries every selection of ``budget`` candidates (the
    first best in ``sorted`` order wins) and is only meant for a handful
    of additions.  Candidates are scored on ``g``'s integer weight matrix;
    once a leader exists, a candidate's partition scan stops at the first
    partition whose value is at most the leader's rate, which proves the
    candidate cannot win.  A candidate is dropped without a scan when a
    partition met before has a value at most the leader's rate with the
    candidate added.  Only the chosen additions' networks are built.  Each
    greedy step, like an exhaustive plan's last step, takes its rate and
    minimizing partition from the winner's own scan; an exhaustive plan's
    earlier steps take theirs from one scan of the winner's prefix.

    Raises:
        EmptyPlanError: a positive budget with no candidates at all.
        SchemaError: malformed candidates or a negative budget.
        UnknownNodeError / SelfLoopError: the first bad candidate, in
            ``candidates`` order (greedy) or ``sorted`` order (exhaustive).
    """
    if not isinstance(budget, int) or budget < 0:
        raise SchemaError(f"budget must be a non-negative integer, got {budget!r}")
    pool = _normalize_candidates(candidates)
    if budget > 0 and not pool:
        raise EmptyPlanError("no candidate links to choose from")
    report = nwt_rate(g, caps=caps)
    initial = report.rate
    if budget == 0:
        return Plan(mode="greedy", initial_rate=initial, final_rate=initial, steps=())
    choose = _exhaustive_choice if exhaustive else _greedy_choice
    choice, afters = choose(g, report, pool, budget)
    steps: list[AugmentationResult] = []
    current, before = g, initial
    for (u, v, added), after in zip(choice, afters):
        step = _score_addition(current, u, v, added, before, caps, after)
        steps.append(step)
        current, before = step.graph, step.rate_after
    return Plan(
        mode="exhaustive" if exhaustive else "greedy",
        initial_rate=initial,
        final_rate=before,
        steps=tuple(steps),
    )


def _greedy_choice(g: WeightedGraph, initial: RateReport, pool: list, budget: int):
    """The greedy plan's additions in order, visiting candidates in tie-break order,
    and the rate report after each."""
    for u, v, _ in pool:
        g.link_key(u, v)
    scan = _scanner(g, initial)
    remaining = sorted(pool, key=lambda c: (edge_key(c[0], c[1]), c[2]))
    choice: list = []
    reports: list[RateReport] = []
    for _ in range(min(budget, len(pool))):
        leader = best = None
        for position, candidate in enumerate(remaining):
            report = scan([*choice, candidate], None if best is None else best.rate)
            if report is not None:
                leader, best = position, report
        choice.append(remaining.pop(leader))
        reports.append(best)
    return choice, reports


def _exhaustive_choice(g: WeightedGraph, initial: RateReport, pool: list, budget: int):
    """The first best combination of ``budget`` candidates, in ``sorted`` order,
    and the rate report after each of its additions in turn."""
    size = min(budget, len(pool))
    combos = math.comb(len(pool), size)
    if combos > EXHAUSTIVE_PLAN_CAP:
        raise ExactModeLimitError(
            f"{combos} candidate combinations exceed the exhaustive-plan cap "
            f"of {EXHAUSTIVE_PLAN_CAP}"
        )
    ordered = sorted(pool)
    for u, v, _ in ordered:
        g.link_key(u, v)
    scan = _scanner(g, initial)
    choice = best = None
    for combo in itertools.combinations(ordered, size):
        report = scan(combo, None if best is None else best.rate)
        if report is not None:
            best, choice = report, combo
    return choice, [scan(choice[:k], None) for k in range(1, size)] + [best]
