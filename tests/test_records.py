"""The result records are immutable named tuples, and importing the
package loads neither ``dataclasses`` nor ``inspect``.

Each record's field names and order, its ``Name(field=value, ...)``
``repr`` and its hash (that of the tuple of its fields) are pinned here,
since callers read attributes, print records and keep them in sets and
dicts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnet_stp import (
    AugmentationResult,
    AuditReport,
    BottleneckCertificate,
    BottleneckReport,
    CommunicationRates,
    Edge,
    PackingOutcome,
    Plan,
    ProtocolTranscript,
    RateReport,
    SecurityBudget,
    SpanningTree,
    TreePacking,
    VertexPartition,
)
from qnet_stp.packing import PackingValidation
from qnet_stp.protocol import Announcement, Recovery, TreeOrientation

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    Edge: ("u", "v", "rate", "epsilon"),
    VertexPartition: ("blocks",),
    SpanningTree: ("edges",),
    RateReport: ("rate", "minimizing_partition", "finest_is_optimal"),
    BottleneckCertificate: (
        "violating_subset", "network_bound", "attachment_bound", "subnetwork_bound", "partition",
    ),
    CommunicationRates: ("rates", "provenance"),
    TreePacking: ("trees", "multiplicities", "rounds"),
    PackingValidation: ("ok", "violated_edge", "reason"),
    PackingOutcome: ("packing", "optimal", "diagnostics"),
    TreeOrientation: ("tree", "conference_edge", "roots", "in_edge", "out_edges", "parent"),
    Announcement: (
        "tree", "round", "announcer", "edge", "value", "in_edge", "edge_bit_index", "in_bit_index",
    ),
    Recovery: ("node", "bit", "chain"),
    SecurityBudget: ("per_tree", "merged"),
    ProtocolTranscript: (
        "rounds", "conference_key", "unanimity", "announcements", "recovered", "consumed",
        "budget", "prng_algorithm", "seed",
    ),
    AuditReport: ("uniform", "edge_disjoint", "total_bits", "conference_bits", "violations"),
    BottleneckReport: (
        "rate", "minimizing_partition", "kind", "best_bipartition_bound", "contracted",
        "certificate", "narrative",
    ),
    AugmentationResult: (
        "edge", "added_rate", "rate_before", "rate_after", "delta", "minimizing_partition",
        "narrative", "graph",
    ),
    Plan: ("mode", "initial_rate", "final_rate", "steps"),
}

RECORDS = pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)


def sample(record):
    """An instance of ``record`` whose field values are their own names."""
    return record(*record._fields)


@RECORDS
def test_record_fields_keep_their_names_and_order(record):
    assert record._fields == FIELDS[record]


@RECORDS
def test_records_refuse_attribute_assignment(record):
    rec = sample(record)
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], "changed")
    with pytest.raises(AttributeError):
        rec.extra = "new"
    assert rec == sample(record)


@RECORDS
def test_record_repr_names_each_field(record):
    fields = ", ".join(f"{name}={name!r}" for name in record._fields)
    assert repr(sample(record)) == f"{record.__name__}({fields})"


def test_spanning_tree_counts_holds_and_orders_its_edges():
    small = SpanningTree.of([("2", "1"), ("1", "3")])
    large = SpanningTree.of([("1", "2"), ("2", "3")])
    assert small.edges == (("1", "2"), ("1", "3"))
    assert len(small) == 2
    assert ("1", "3") in small and ("2", "3") not in small
    assert small < large and not large < small
    assert small._replace(edges=large.edges) == large
    assert SpanningTree._make([large.edges]) == large
    with pytest.raises(ValueError):
        small._replace(nodes=())
    with pytest.raises(TypeError):
        SpanningTree._make([small.edges, large.edges])


def test_spanning_tree_hashes_as_the_tuple_of_its_fields():
    edges = (("1", "2"), ("1", "3"))
    assert hash(SpanningTree(edges)) == hash((edges,))


def test_packing_outcome_needs_its_diagnostics():
    packing = TreePacking.multigraph([[("1", "2")]], [1], 1)
    with pytest.raises(TypeError):
        PackingOutcome(packing, True)
    assert PackingOutcome(packing, True, {}).diagnostics == {}


@pytest.mark.parametrize("module", ["qnet_stp.cli", "qnet_stp"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # only what the import adds counts, so a site that loads them passes
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert module in added
    assert "dataclasses" not in added
    assert "inspect" not in added
