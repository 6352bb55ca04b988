"""Plain exhaustive versions of the three exact scans, kept as test oracles.

Each one visits every candidate in the order its library counterpart is
specified to honour and evaluates it from scratch:

* :func:`nwt_rate` -- every restricted growth string, every edge summed;
* :func:`check_no_bottleneck` -- every proper subset in exact rationals;
* :func:`best_bipartition` -- every bipartition cut in exact rationals.

They cost Bell(N), 2^N and 2^(N-1) full evaluations, so they are only
meant for small N.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qnet_stp import BottleneckCertificate, RateReport, VertexPartition, contract
from qnet_stp.netgraph import proper_vertex_subsets, restricted_growth_strings


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
                contracted=contract(g, partition),
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
