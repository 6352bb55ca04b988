"""Conference-key rates and spanning-tree packings for QKD networks.

A network of pairwise QKD links (a weighted graph of key rates) supports
a group key at exactly the spanning-tree packing rate: the minimum over
vertex partitions of cross-partition rate divided by block count minus
one.  This package computes that rate exactly, constructs packings that
achieve it, simulates the one-time-pad conferencing protocol on top, and
plans which links to add when a bottleneck caps the rate.

Importing the package loads no submodule: each public name below is
looked up in its submodule, which is imported on first use, so a CLI
call compiles only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it exports.
_EXPORTS = {
    "errors": ("QNetError", "ValidationError", "LimitError", "InternalError"),
    "netgraph": (
        "Edge", "WeightedGraph", "VertexPartition", "SpanningTree", "capacities",
        "parse_graph", "is_connected", "contract", "induced_subgraph",
        "enumerate_spanning_trees", "is_spanning_tree",
    ),
    "rate_core": (
        "RateReport", "BottleneckCertificate", "nwt_rate", "nwt_length", "partition_bound",
        "finest_bound", "check_no_bottleneck", "triangle_rate",
    ),
    "lp_core": ("CommunicationRates", "rates_from_packing", "explicit_rates_no_bottleneck"),
    "packing": (
        "TreePacking", "PackingOutcome", "validate_packing", "packing_rate",
        "brute_force_packing", "exact_packing", "basic_algorithm", "general_algorithm",
    ),
    "protocol": (
        "KeyMaterial", "generate_keys", "orient_tree", "announce", "recover",
        "run_packing_protocol", "security_budget", "SecurityBudget", "secrecy_audit",
        "AuditReport", "ProtocolTranscript",
    ),
    "planner": (
        "BottleneckReport", "AugmentationResult", "Plan", "bottleneck_report",
        "evaluate_addition", "best_additions",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    # Not cached in the package's globals: each access reads the
    # submodule's current binding, so a name rebound there (as the
    # benchmark tracer does, and then undoes) is seen here too.
    # An AttributeError raised while the submodule is first imported is
    # re-raised as an ImportError: ``from qnet_stp import X`` would turn
    # it into a bare "cannot import name" and drop its cause.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        submodule = importlib.import_module(f"{__name__}.{module}")
    except AttributeError as exc:
        raise ImportError(f"importing {__name__}.{module} failed: {exc}") from exc
    return getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *__all__})
