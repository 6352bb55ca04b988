"""Correctness checks for one job's output, run outside the timed region.

Every check recomputes a property of the output from the input graph with
the library's own exact verifiers (``partition_bound``, ``finest_bound``,
``validate_packing``, ``packing_rate``), so it holds for any seed.  For
the default seed the answers are also compared with the reference stored
in ``baseline.json``.
"""

from __future__ import annotations

from fractions import Fraction

from qnet_stp.netgraph import VertexPartition, parse_graph
from qnet_stp.packing import TreePacking, packing_rate, validate_packing
from qnet_stp.rate_core import finest_bound, partition_bound


def answer(command: str, doc: dict) -> dict:
    """The exact answer fields of an output, as stored in the reference."""
    if command in ("rate", "analyze"):
        return {"rate": doc["rate"]}
    if command == "optimize":
        return {"initial_rate": doc["initial_rate"], "final_rate": doc["final_rate"]}
    if command == "pack":
        return {"rate": doc["achieved_rate"]}
    if command == "simulate":
        return {"rate": doc["rate"], "conference_key": doc["conference_key"]}
    raise ValueError(f"no answer fields for command {command!r}")


def _packing(doc: dict) -> TreePacking:
    if doc["mode"] == "multigraph":
        return TreePacking.multigraph(doc["trees"], doc["multiplicities"], doc["rounds"])
    return TreePacking.weighted(doc["trees"], [Fraction(w) for w in doc["weights"]])


def _check_rate(g, doc) -> list:
    rate = Fraction(doc["rate"])
    problems = []
    partition = VertexPartition.from_blocks(doc["minimizing_partition"])
    if partition_bound(g, partition) != rate:
        problems.append(f"rate {rate} differs from the bound of its partition")
    if (finest_bound(g) == rate) != doc["finest_is_optimal"]:
        problems.append("finest_is_optimal disagrees with the finest bound")
    return problems


def _check_plan(g, doc) -> list:
    problems = []
    current, before = g, Fraction(doc["initial_rate"])
    for step in doc["steps"]:
        current = current.with_edge(step["edge"][0], step["edge"][1], Fraction(step["added_rate"]))
        after = Fraction(step["rate_after"])
        partition = VertexPartition.from_blocks(step["minimizing_partition"])
        if partition_bound(current, partition) != after:
            problems.append(f"step {step['edge']}: rate differs from the bound of its partition")
        if Fraction(step["rate_before"]) != before or Fraction(step["delta"]) != after - before:
            problems.append(f"step {step['edge']}: trajectory is inconsistent")
        before = after
    if Fraction(doc["final_rate"]) != before:
        problems.append("final rate is not the last step's rate")
    return problems


def _check_packing(g, packing_doc, rate) -> list:
    pk = _packing(packing_doc)
    problems = []
    validation = validate_packing(g, pk)
    if not validation.ok:
        problems.append(f"invalid packing: {validation.reason}")
    if packing_rate(pk) != Fraction(rate):
        problems.append(f"packing rate {packing_rate(pk)} differs from reported {rate}")
    return problems


def _check_simulate(g, doc, audited) -> list:
    problems = _check_packing(g, doc["packing"], doc["rate"])
    pk = _packing(doc["packing"])
    key = doc["conference_key"]
    if not doc["unanimity"]:
        problems.append("nodes disagree on the conference key")
    if len(key) != pk.tree_count:
        problems.append(f"key has {len(key)} bits for {pk.tree_count} tree instances")
    if any(bits != key for bits in doc["recovered"].values()):
        problems.append("some node recovered a different key")
    if audited:
        audit = doc.get("audit", {})
        if not (audit.get("uniform") and audit.get("edge_disjoint")):
            problems.append("secrecy audit is not uniform and edge-disjoint")
    return problems


def check(command: str, flags, graph_text: str, doc: dict, reference=None) -> list:
    """Problems found in one successful job's output (empty when correct)."""
    g = parse_graph(graph_text)
    if command in ("rate", "analyze"):
        problems = _check_rate(g, doc)
    elif command == "optimize":
        problems = _check_plan(g, doc)
    elif command == "pack":
        problems = _check_packing(g, doc["packing"], doc["achieved_rate"])
    elif command == "simulate":
        problems = _check_simulate(g, doc, "--audit" in flags)
    else:
        raise ValueError(f"no check for command {command!r}")
    if reference is not None and "answer" in reference and answer(command, doc) != reference["answer"]:
        problems.append(f"answer {answer(command, doc)} differs from reference {reference['answer']}")
    return problems
