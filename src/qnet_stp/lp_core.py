"""Exact linear programming for multipartite key distillation.

The central program: every node ``i`` publicly announces ``R_i`` bits per
round so that afterwards all nodes know all raw keys (omniscience).  The
announcements are feasible iff for every nonempty proper node subset
``I``::

    sum_{i in I} R_i  >=  total rate of edges internal to I

and the distillable conference key rate is

    Z = (total rate of all edges) - min sum_i R_i.

Everything here runs on :class:`fractions.Fraction`; the solver is a
dense-tableau simplex with Bland's rule, so it terminates with the exact
optimum and returns a basis certificate that can be re-verified.

To keep the tableau small the solver pivots on the maximization form of
the program (one row per node instead of one row per subset, feasible at
zero, single phase); the optimal ``R`` vector is recovered exactly from
the reduced costs of the final tableau, and :func:`verify_optimality`
re-checks the certificate from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .errors import (
    ExactModeLimitError,
    InvalidPackingError,
    PreconditionFailedError,
    SolverLimitError,
)
from .netgraph import WeightedGraph, format_rational, proper_vertex_subsets
from .rate_core import _require_rateable, check_no_bottleneck

#: Largest node count for which the subset LP is built (2^N - 2 constraints).
LP_CAP_NODES = 16

#: Hard stop for simplex pivots; Bland's rule terminates long before this.
PIVOT_LIMIT = 500_000


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


def _simplex_max(
    rows: list[list[Fraction]],
    limits: list[Fraction],
    gains: list[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction], list[int], int]:
    """Maximize ``gains . x`` subject to ``rows @ x <= limits``, ``x >= 0``.

    Requires ``limits >= 0`` so the slack basis is feasible.  Dense
    tableau, Bland's rule (smallest-index entering column; ratio ties to
    the smallest basic variable), exact rationals throughout.

    Returns ``(value, x, multipliers, basis, pivots)`` where
    ``multipliers`` are the reduced costs of the slack columns (one per
    row) at optimality.

    Raises:
        SolverLimitError: unbounded program or pivot budget exhausted
            (either would be a bug in the caller's model).
    """
    m, n = len(rows), len(gains)
    zero = Fraction(0)
    tab = [list(row) + [Fraction(int(i == j)) for j in range(m)] + [limits[i]]
           for i, row in enumerate(rows)]
    obj = [-c for c in gains] + [zero] * m + [zero]
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise SolverLimitError("objective unbounded; the model is inconsistent")
        pivots += 1
        if pivots > PIVOT_LIMIT:
            raise SolverLimitError(f"exceeded {PIVOT_LIMIT} simplex pivots")
        pivot_row = tab[leave]
        inv = pivot_row[enter]
        pivot_row = [x / inv for x in pivot_row]
        tab[leave] = pivot_row
        for i in range(m):
            factor = tab[i][enter]
            if i != leave and factor != 0:
                tab[i] = [x - factor * y for x, y in zip(tab[i], pivot_row)]
        factor = obj[enter]
        if factor != 0:
            obj = [x - factor * y for x, y in zip(obj, pivot_row)]
        basis[leave] = enter
    x = [zero] * (n + m)
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    multipliers = obj[n : n + m]
    return obj[-1], x[:n], multipliers, basis, pivots


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


@dataclass(frozen=True)
class CommunicationRates:
    """Per-node announcement rates plus where they came from."""

    rates: dict[str, Fraction]
    provenance: str  # "lp" | "packing" | "closed-form"

    def total(self) -> Fraction:
        return sum(self.rates.values(), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "announcement_rates": {v: format_rational(r) for v, r in sorted(self.rates.items())},
            "provenance": self.provenance,
        }


def rates_from_packing(g: WeightedGraph, packing) -> CommunicationRates:
    """Announcement rates realized by a concrete tree packing.

    For each node: every tree in which the node has degree ``d``
    contributes ``weight * (d - 1)`` (it relays through all but one of
    its tree edges), and every unused sliver of an incident edge is split
    evenly between the edge's endpoints.  The resulting rates satisfy all
    subset constraints, and total-rate minus their sum equals the
    packing's rate.

    Raises:
        InvalidPackingError: the packing does not fit in ``g``.
    """
    from .packing import validate_packing

    check = validate_packing(g, packing)
    if not check.ok:
        raise InvalidPackingError(check.reason)
    usage = packing.edge_usage()
    rates = {v: Fraction(0) for v in g.node_ids}
    for tree, w in zip(packing.trees, packing.weights):
        for v in g.node_ids:
            d = tree.degree(v)
            if d:
                rates[v] += w * (d - 1)
    for e in g.edges:
        leftover = e.rate - Fraction(usage.get(e.key, 0), packing.rounds)
        rates[e.u] += leftover / 2
        rates[e.v] += leftover / 2
    return CommunicationRates(rates=rates, provenance="packing")


def explicit_rates_no_bottleneck(g: WeightedGraph) -> CommunicationRates:
    """Closed-form optimal rates when no subset bottleneck exists.

    Each node announces its incident rate sum minus the network-wide
    per-tree share ``total/(N-1)``.

    Raises:
        PreconditionFailedError: some subset violates the bottleneck test.
    """
    cert = check_no_bottleneck(g)
    if not cert.ok:
        raise PreconditionFailedError(
            f"bottleneck at subset {cert.violating_subset}; closed form does not apply"
        )
    share = g.total_rate() / (g.node_count - 1)
    rates = {}
    for v in g.node_ids:
        incident = sum((g.edge(*key).rate for key in g.edges_at(v)), Fraction(0))
        rates[v] = incident - share
    return CommunicationRates(rates=rates, provenance="closed-form")
