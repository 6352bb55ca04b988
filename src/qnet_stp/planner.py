"""Topology analysis and link-placement planning.

Answers two operator questions: *where* is the network's rate lost
(which vertex groups, once contracted, expose the binding cut), and
*which* candidate link is worth adding.  Evaluation is exact — every
candidate is scored by the partition-minimum rate of the augmented
network, or dropped by a partition that proves it cannot win — so the
greedy plan's trajectory is authoritative, not an estimate.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import rate_core
from .errors import EmptyPlanError, ExactModeLimitError, NegativeRateError, SchemaError
from .netgraph import (
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
    _crossing,
    _min_cut,
    _over_budget,
    _partition_scan,
    _rate_report,
    _weight_matrix,
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


def _best_bipartition(labels: tuple[str, ...], w: list[list[int]], least: int) -> VertexPartition:
    """The first bipartition of ``labels`` whose cut in the weight matrix ``w`` is ``least``.

    ``least`` is :func:`_min_cut`'s weight of ``w``.  The partition is the
    first side holding the smallest label, in sorted order of its label
    tuple, whose cut has that weight, so among minimum cuts the partition
    with the smallest ``blocks`` wins.  A depth-first search visits the
    sides in that order, adding one later node at a time, and skips a
    branch when the weight between its side and the nodes passed over,
    plus each undecided node's lighter tie to the two, already exceeds
    the minimum.  Each node it tries costs ``N`` units of
    ``PARTITION_BUDGET``, charged as a search enters its loop; past the
    budget it stops.

    Raises:
        ExactModeLimitError: the search passed ``PARTITION_BUDGET``.
    """
    n = len(labels)
    degree = [sum(row) for row in w]
    side = [0]
    steps, budget = 0, rate_core.PARTITION_BUDGET

    def search(start: int, cut: int, fixed: int, to_in: list[int], to_out: list[int]) -> bool:
        # nodes below `start` are placed: those in `side` or else on the other
        # side; `fixed` is the weight between the two, `to_in` and `to_out`
        # each node's weight to them, `cut` the side's cut
        nonlocal steps
        if cut == least and len(side) < n:
            return True
        steps += (n - start) * n
        if steps > budget:
            raise _over_budget("bipartition search", n, budget)
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
    return VertexPartition.from_rgs(labels, [i not in side for i in range(n)])


def bottleneck_report(g: WeightedGraph) -> BottleneckReport:
    """Classify the binding structure behind the network's key rate.

    The report names the minimizing partition, contracts the graph onto
    its blocks, and says whether a plain bipartition already explains
    the minimum or a richer partition is needed (in which case the best
    bipartition bound is strictly looser).  The subset certificate, when
    a bottleneck exists, carries both forms of the per-subset test.  When
    the finest partition is optimal no subset violates its test, so the
    subset scan is skipped.

    The best bipartition bound is the minimum cut.  When the scan's
    minimizer has two blocks it is a cut at the rate, and no cut is below
    the rate, so the bound is the rate and no cut is computed; otherwise
    it is :func:`_min_cut`'s weight, on a weight matrix built for it.  The
    cut's phases visit about ``N**3 / 3`` node pairs, charged up front
    against ``PARTITION_BUDGET``.  Only a bipartition bottleneck whose
    minimizer has three or more blocks names a cut the scan did not
    find, and only then does :func:`_best_bipartition` search that matrix
    for the first minimum-cut side.
    """
    report: RateReport = nwt_rate(g)
    # no subset violates its bound exactly when the finest partition is optimal
    certificate = None if report.finest_is_optimal else check_no_bottleneck(g)
    partition = report.minimizing_partition
    if partition.block_count == 2:
        bip_bound = report.rate
    else:
        labels, scale, links = g.integer_links()
        n = len(labels)
        if n ** 3 // 3 > rate_core.PARTITION_BUDGET:
            raise _over_budget("minimum cut", n, rate_core.PARTITION_BUDGET)
        w = _weight_matrix(n, links)
        least = _min_cut(w)
        bip_bound = Fraction(least, scale)
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
            partition = _best_bipartition(labels, w, least)
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


def evaluate_addition(g: WeightedGraph, u: str, v: str, rate=1) -> AugmentationResult:
    """Score one candidate link by the exact rate of the augmented network.

    This is the one step of :func:`best_additions` with the one candidate
    ``(u, v, rate)``, scored by the same scan, which gives the augmented
    network's :func:`nwt_rate`.  An existing edge is handled as a rate
    increase (the rates merge).

    Raises:
        NegativeRateError: non-positive candidate rate.
        UnknownNodeError / SelfLoopError: bad endpoints, checked after
            ``g``'s own rate.
    """
    return best_additions(g, [(u, v, rate)], 1).steps[0]


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
    if not isinstance(candidates, (tuple, list)):
        raise SchemaError(f"candidates must be a list or tuple, got {type(candidates).__name__}")
    out = []
    for item in candidates:
        shape = len(item) if isinstance(item, (tuple, list)) else 0
        if shape == 2:
            u, v = item
            rate = Fraction(1)
        elif shape == 3:
            u, v, rate = item
            rate = parse_rational(rate)
        else:
            raise SchemaError(f"candidate must be (u, v) or (u, v, rate), got {item!r}")
        if rate.numerator <= 0:  # a Fraction comparison is far slower
            raise NegativeRateError(f"candidate rate must be positive, got {rate}")
        out.append((u, v, rate))
    return out


def _scanner(g: WeightedGraph, initial: RateReport, pool: list[tuple[str, str, Fraction]]):
    """``scan(chosen, leader)``: the rate report of ``g`` with the candidates ``chosen`` added.

    Each candidate of ``pool`` is read once, as ``(i, j, num, den)``: its
    ends' node indices, ``i < j``, and its rate's numerator and
    denominator; ``chosen`` holds positions in ``pool``.  Each call scans
    ``g``'s integer links with the additions' weights merged in, one link
    per pair, all rescaled to the lcm of the scale and their denominators.
    It gives ``None`` when some partition's value is at most the rate
    ``leader``, which it tests in integers.  It first tries its
    witnesses: ``initial``'s minimizer and each partition a scan returned
    (its minimizer, or where it met its cutoff), kept with their cross
    sums on ``g``'s links.  A witness's value is that sum times the
    rescale factor plus the additions it separates, over its block count
    less one; one at most ``leader`` gives ``None`` without a scan, and so
    does a scan whose partition is.  Otherwise the scan returned the
    minimizer, and its report is the augmented network's :func:`nwt_rate`,
    because the scan takes the same path on any positive multiple of the
    weights.
    """
    labels, scale, links = g.integer_links()
    index = {v: i for i, v in enumerate(labels)}
    where = {(i, j): k for k, (i, j, _) in enumerate(links)}  # each linked pair's position
    candidates = []
    for u, v, rate in pool:
        i, j = sorted((index[u], index[v]))
        candidates.append((i, j, rate.numerator, rate.denominator))
    witnesses: dict[tuple[int, ...], tuple[int, int]] = {}  # node blocks -> (cross, blocks - 1)

    def keep(rgs: tuple[int, ...]) -> None:
        if rgs not in witnesses:
            witnesses[rgs] = (_crossing(links, rgs), max(rgs))

    block = initial.minimizing_partition.block_of()
    keep(tuple(block[v] for v in labels))

    def scan(chosen, leader: Optional[Fraction]) -> Optional[RateReport]:
        additions = [candidates[k] for k in chosen]
        new_scale = math.lcm(scale, *[den for _, _, _, den in additions])
        factor = new_scale // scale
        added = [(i, j, num * (new_scale // den)) for i, j, num, den in additions]
        cutoff = None
        if leader is not None:
            # the cutoff leader * new_scale is cut_num / cut_den: a partition's
            # cross over pm1 is at most it when cross * cut_den <= cut_num * pm1
            cut_num, cut_den = leader.numerator * new_scale, leader.denominator
            for rgs, (cross, pm1) in witnesses.items():
                if (cross * factor + _crossing(added, rgs)) * cut_den <= cut_num * pm1:
                    return None
            cutoff = Fraction(cut_num, cut_den)
        merged = list(links) if factor == 1 else [(i, j, x * factor) for i, j, x in links]
        unlinked: dict[tuple[int, int], int] = {}  # additions on pairs with no link
        for i, j, x in added:
            k = where.get((i, j))
            if k is None:
                unlinked[i, j] = unlinked.get((i, j), 0) + x
            else:
                merged[k] = (i, j, merged[k][2] + x)
        merged += [(i, j, x) for (i, j), x in unlinked.items()]
        found = cross, pm1, rgs = _partition_scan(len(labels), merged, cutoff)
        keep(rgs)
        if cutoff is not None and cross * cut_den <= cut_num * pm1:
            return None
        return _rate_report(labels, new_scale, merged, found)

    return scan


def best_additions(
    g: WeightedGraph,
    candidates: Sequence,
    budget: int,
    *,
    exhaustive: bool = False,
) -> Plan:
    """Plan up to ``budget`` link additions from ``candidates``.

    Greedy mode repeatedly adds the candidate whose augmented network has
    the highest exact rate; ties go to the smallest edge key, then to the
    smallest added rate, then to the earliest in ``candidates``.
    Exhaustive mode tries every selection of ``budget`` candidates (the
    first best in ``sorted`` order wins) and is only meant for a handful
    of additions.  Candidates are scored on ``g``'s integer links;
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
        SchemaError: candidates not in a list or tuple, a candidate that is
            not a 2- or 3-item tuple or list, or a negative budget.
        UnknownNodeError / SelfLoopError: the first bad candidate, in
            ``candidates`` order (greedy) or ``sorted`` order (exhaustive).
    """
    if type(budget) is not int or budget < 0:
        raise SchemaError(f"budget must be a non-negative integer, got {budget!r}")
    pool = _normalize_candidates(candidates)
    if budget > 0 and not pool:
        raise EmptyPlanError("no candidate links to choose from")
    report = nwt_rate(g)
    initial = report.rate
    if budget == 0:
        return Plan(mode="greedy", initial_rate=initial, final_rate=initial, steps=())
    choose = _exhaustive_choice if exhaustive else _greedy_choice
    choice, afters = choose(g, report, pool, budget)
    steps: list[AugmentationResult] = []
    current, before = g, initial
    for k, after in zip(choice, afters):
        u, v, added = pool[k]
        current = current.with_edge(u, v, added)
        steps.append(AugmentationResult(
            edge=edge_key(u, v),
            added_rate=added,
            rate_before=before,
            rate_after=after.rate,
            delta=after.rate - before,
            minimizing_partition=after.minimizing_partition,
            narrative=_partition_narrative(after),
            graph=current,
        ))
        before = after.rate
    return Plan(
        mode="exhaustive" if exhaustive else "greedy",
        initial_rate=initial,
        final_rate=before,
        steps=tuple(steps),
    )


def _greedy_choice(g: WeightedGraph, initial: RateReport, pool: list, budget: int):
    """The greedy plan's additions in order, as positions in ``pool``, visiting
    candidates in tie-break order, and the rate report after each."""
    for u, v, _ in pool:
        g.link_key(u, v)
    scan = _scanner(g, initial, pool)
    remaining = sorted(range(len(pool)), key=lambda k: (edge_key(*pool[k][:2]), pool[k][2]))
    choice: list[int] = []
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
    """The first best combination of ``budget`` candidates, in ``sorted`` order, as
    positions in ``pool``, and the rate report after each of its additions in turn."""
    size = min(budget, len(pool))
    combos = math.comb(len(pool), size)
    if combos > EXHAUSTIVE_PLAN_CAP:
        raise ExactModeLimitError(
            f"{combos} candidate combinations exceed the exhaustive-plan cap "
            f"of {EXHAUSTIVE_PLAN_CAP}"
        )
    ordered = sorted(range(len(pool)), key=pool.__getitem__)
    for k in ordered:
        g.link_key(*pool[k][:2])
    scan = _scanner(g, initial, pool)
    choice = best = None
    for combo in itertools.combinations(ordered, size):
        report = scan(combo, None if best is None else best.rate)
        if report is not None:
            best, choice = report, combo
    return choice, [scan(choice[:k], None) for k in range(1, size)] + [best]
