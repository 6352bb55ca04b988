"""Conference-key rates and spanning-tree packings for QKD networks.

A network of pairwise QKD links (a weighted graph of key rates) supports
a group key at exactly the spanning-tree packing rate: the minimum over
vertex partitions of cross-partition rate divided by block count minus
one.  This package computes that rate exactly, constructs packings that
achieve it, simulates the one-time-pad conferencing protocol on top, and
plans which links to add when a bottleneck caps the rate.
"""

from .errors import (
    InternalError,
    LimitError,
    QNetError,
    ValidationError,
)
from .netgraph import (
    Caps,
    Edge,
    SpanningTree,
    VertexPartition,
    WeightedGraph,
    capacities,
    contract,
    enumerate_spanning_trees,
    induced_subgraph,
    is_connected,
    is_spanning_tree,
    parse_graph,
)
from .rate_core import (
    BottleneckCertificate,
    RateReport,
    check_no_bottleneck,
    finest_bound,
    nwt_length,
    nwt_rate,
    partition_bound,
    triangle_rate,
)
from .lp_core import (
    CommunicationRates,
    explicit_rates_no_bottleneck,
    rates_from_packing,
)
from .packing import (
    PackingOutcome,
    TreePacking,
    basic_algorithm,
    brute_force_packing,
    exact_packing,
    general_algorithm,
    packing_rate,
    validate_packing,
)
from .protocol import (
    AuditReport,
    KeyMaterial,
    ProtocolTranscript,
    SecurityBudget,
    announce,
    generate_keys,
    orient_tree,
    recover,
    run_packing_protocol,
    secrecy_audit,
    security_budget,
)
from .planner import (
    AugmentationResult,
    BottleneckReport,
    Plan,
    best_additions,
    bottleneck_report,
    evaluate_addition,
)

__version__ = "0.1.0"

__all__ = [
    "QNetError",
    "ValidationError",
    "LimitError",
    "InternalError",
    "Caps",
    "Edge",
    "WeightedGraph",
    "VertexPartition",
    "SpanningTree",
    "capacities",
    "parse_graph",
    "is_connected",
    "contract",
    "induced_subgraph",
    "enumerate_spanning_trees",
    "is_spanning_tree",
    "RateReport",
    "BottleneckCertificate",
    "nwt_rate",
    "nwt_length",
    "partition_bound",
    "finest_bound",
    "check_no_bottleneck",
    "triangle_rate",
    "CommunicationRates",
    "rates_from_packing",
    "explicit_rates_no_bottleneck",
    "TreePacking",
    "PackingOutcome",
    "validate_packing",
    "packing_rate",
    "brute_force_packing",
    "exact_packing",
    "basic_algorithm",
    "general_algorithm",
    "KeyMaterial",
    "generate_keys",
    "orient_tree",
    "announce",
    "recover",
    "run_packing_protocol",
    "security_budget",
    "SecurityBudget",
    "secrecy_audit",
    "AuditReport",
    "ProtocolTranscript",
    "BottleneckReport",
    "AugmentationResult",
    "Plan",
    "bottleneck_report",
    "evaluate_addition",
    "best_additions",
    "__version__",
]
