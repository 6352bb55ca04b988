"""Announcement rates for omniscience, and the one exact LP solver.

Every node ``i`` publicly announces ``R_i`` bits per round so that
afterwards all nodes know all raw keys (omniscience).  The announcements
suffice iff for every nonempty proper node subset ``I``::

    sum_{i in I} R_i  >=  total rate of edges internal to I

and with the least total ``sum_i R_i`` the conference key rate is
``total rate - sum_i R_i``.  An optimal spanning-tree packing realizes
such rates (:func:`rates_from_packing`), and bottleneck-free networks
have them in closed form (:func:`explicit_rates_no_bottleneck`), so the
library never builds the 2^N-row program itself; the test suite keeps
it as an oracle.

:func:`_simplex_max` is the package's one LP solver: a dense-tableau
simplex with Bland's rule over :class:`fractions.Fraction`.  No library
path calls it; the test suite solves the omniscience program and
reweights fixed tree lists with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import InvalidPackingError, PreconditionFailedError, SolverLimitError
from .netgraph import WeightedGraph, format_rational
from .rate_core import check_no_bottleneck

#: Hard stop for simplex pivots; Bland's rule terminates long before this.
PIVOT_LIMIT = 500_000


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


class CommunicationRates(NamedTuple):
    """Per-node announcement rates plus where they came from."""

    rates: dict[str, Fraction]
    provenance: str  # "packing" | "closed-form"

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
    for (u, v), (rate, _) in g.link_items():
        leftover = rate - Fraction(usage.get((u, v), 0), packing.rounds)
        rates[u] += leftover / 2
        rates[v] += leftover / 2
    return CommunicationRates(rates=rates, provenance="packing")


def explicit_rates_no_bottleneck(g: WeightedGraph) -> CommunicationRates:
    """Closed-form optimal rates when no subset bottleneck exists.

    Each node announces its incident rate sum minus the network-wide
    per-tree share ``total/(N-1)``.

    Raises:
        PreconditionFailedError: some subset violates the bottleneck test.
        ExactModeLimitError: the subset scan passed its budget.
    """
    cert = check_no_bottleneck(g)
    if not cert.ok:
        raise PreconditionFailedError(
            f"bottleneck at subset {cert.violating_subset}; closed form does not apply"
        )
    share = g.total_rate() / (g.node_count - 1)
    rates = {v: -share for v in g.node_ids}
    for (u, v), (rate, _) in g.link_items():
        rates[u] += rate
        rates[v] += rate
    return CommunicationRates(rates=rates, provenance="closed-form")
