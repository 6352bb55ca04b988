"""Pinned output of packings built from rational tree weights.

No CLI command builds a packing from weights, so the golden CLI table
does not cover these paths.  ``weighted_output.json`` holds, for an LP
reweighting of the hexagon's trees and for a hand-built packing with
mixed denominators, the packing's JSON and DOT text, the announcement
rates it realizes, the protocol transcript and (for the small one) the
secrecy audit; plus ``validate_packing``'s verdict on an overfull
packing built each way.  The rates, transcripts and audits were
recorded from the code in which a weighted packing still stored its
weights and ``rounds`` was None.  The JSON, the DOT text and the
overfull verdict were re-recorded when a packing stopped carrying a
mode: a packing built from weights prints like any other, as
multiplicities over the weights' least common denominator in rounds,
and its overfull edge is reported in tree instances over those rounds.

To re-record (only when an output is meant to change, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_weighted_output.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from qnet_stp import (
    SpanningTree,
    TreePacking,
    rates_from_packing,
    run_packing_protocol,
    secrecy_audit,
    validate_packing,
)
from qnet_stp.cli import packing_dot
from qnet_stp.netgraph import enumerate_spanning_trees

from conftest import build, ring
from reference_scans import reweight_by_lp

PINNED = Path(__file__).with_name("weighted_output.json")


def tree(*edges):
    return SpanningTree.of(list(edges))


def _outputs(g, pk, audit: bool) -> dict:
    doc = {
        "packing": json.dumps(pk.to_json_dict(), sort_keys=True),
        "dot": packing_dot(g, pk),
        "rates": json.dumps(rates_from_packing(g, pk).to_json_dict(), sort_keys=True),
        "transcript": json.dumps(run_packing_protocol(g, pk, 0).to_json_dict(), sort_keys=True),
    }
    if audit:
        doc["audit"] = json.dumps(secrecy_audit(g, pk).to_json_dict(), sort_keys=True)
    return doc


def _verdict(g, pk) -> dict:
    v = validate_packing(g, pk)
    return {"ok": v.ok, "violated_edge": list(v.violated_edge), "reason": v.reason}


def observed() -> dict:
    hexagon = ring(6)
    triangle = build(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])
    uneven = build(["1", "2", "3"], [("1", "2", "3/2"), ("1", "3", 1), ("2", "3", "1/2")])
    a, b, c = tree(("1", "2"), ("1", "3")), tree(("1", "2"), ("2", "3")), tree(("1", "3"), ("2", "3"))
    mixed = TreePacking.weighted([c, a, b, a], [Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 4)])
    return {
        "hexagon_lp": _outputs(hexagon, reweight_by_lp(hexagon, list(enumerate_spanning_trees(hexagon))), False),
        "triangle_mixed": _outputs(triangle, mixed, True),
        "overfull_weighted": _verdict(uneven, TreePacking.weighted([a, b], [1, Fraction(2, 3)])),
        "overfull_multigraph": _verdict(uneven, TreePacking.multigraph([a, b], [2, 2], 2)),
    }


def test_weighted_output_matches_pinned():
    want = json.loads(PINNED.read_text())
    got = observed()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__" and "--record" in sys.argv:
    PINNED.write_text(json.dumps(observed(), indent=1, sort_keys=True) + "\n")
