"""Command-line front end.

Subcommands: rate, pack, simulate, analyze, optimize, export-dot.
Graphs come in as JSON files; results leave as JSON (default), DOT, or
plain text.  Output is deterministic: identical inputs, flags and seed
produce byte-identical bytes.

Exit codes: 0 success, 2 input/validation error, 3 a resource cap was
hit, 4 internal failure (a packer gave up).
Caps can be overridden with QNET_STP_CAPS, e.g.
``QNET_STP_CAPS="partitions=10,subsets=16"``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    LimitError,
    QNetError,
    SchemaError,
    ValidationError,
)
from .netgraph import (
    Caps,
    WeightedGraph,
    format_rational,
    parse_graph,
    parse_rational,
)

if TYPE_CHECKING:
    from .packing import TreePacking

#: Color cycle for per-tree DOT subgraphs (ColorBrewer Dark2).
DOT_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def read_caps(env: Optional[str] = None) -> Caps:
    """The caps in force: ``env``, or else QNET_STP_CAPS, parsed by :meth:`Caps.parse`."""
    return Caps.parse(os.environ.get("QNET_STP_CAPS", "") if env is None else env)


def load_graph(path: str) -> WeightedGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_graph(text)


# ---------------------------------------------------------------------------
# DOT emission
# ---------------------------------------------------------------------------

def _dot_id(text: str) -> str:
    """``text`` as a quoted DOT ID, ``\\`` and ``"`` escaped so it closes where it should."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_dot(g: WeightedGraph, name: str = "network") -> str:
    lines = [f"graph {name} {{", "  node [shape=circle];"]
    for node in g.sorted_nodes():
        lines.append(f"  {_dot_id(node)};")
    for e in g.edges:
        label = format_rational(e.rate)
        lines.append(f'  {_dot_id(e.u)} -- {_dot_id(e.v)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def packing_dot(g: WeightedGraph, pk: TreePacking, name: str = "packing") -> str:
    """One colored subgraph per distinct tree, nodes prefixed per tree."""
    lines = [f"graph {name} {{", f'  label="{pk.tree_count} trees over {pk.rounds} rounds";']
    for i, tree in enumerate(pk.trees):
        color = DOT_PALETTE[i % len(DOT_PALETTE)]
        lines.append(f"  subgraph cluster_t{i} {{")
        lines.append(f'    label="tree {i} (x{pk.multiplicities[i]})";')
        lines.append(f'    color="{color}";')
        lines.append(f'    node [shape=circle, color="{color}"];')
        for node in sorted(tree.vertices()):
            lines.append(f"    {_dot_id(f't{i}_{node}')} [label={_dot_id(node)}];")
        for u, v in tree.edges:
            ends = " -- ".join(_dot_id(f"t{i}_{x}") for x in (u, v))
            lines.append(f'    {ends} [color="{color}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _scalar(x) -> str:
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return encode_basestring_ascii(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json_text(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever it indents; this
    builds the same text in one recursive pass, with the C string
    escaper.  ``pad`` is the newline and indent before a closing bracket.
    """
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    inner = pad + "  "
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [_json_text(x, inner) for x in doc]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [_key(k) + ": " + _json_text(v, inner) for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _scalar(doc)


def emit(doc) -> None:
    sys.stdout.write(_json_text(doc) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command imports the modules it runs, so a call loads no others.

def cmd_rate(args, caps) -> int:
    from .rate_core import nwt_rate

    g = load_graph(args.input)
    report = nwt_rate(g, caps=caps)
    if args.format == "text":
        sys.stdout.write(format_rational(report.rate) + "\n")
    else:
        emit(report.to_json_dict())
    return 0


def _make_packing(g, method: str, rounds: Optional[int], caps):
    from .packing import basic_algorithm, brute_force_packing, general_algorithm

    if method == "oracle":
        n = rounds if rounds is not None else g.node_count - 1
        return brute_force_packing(g, n, caps=caps)
    if rounds is not None:
        raise SchemaError("--rounds only applies to --method oracle")
    if method == "basic":
        return basic_algorithm(g, caps=caps)
    return general_algorithm(g, caps=caps)


def cmd_pack(args, caps) -> int:
    g = load_graph(args.input)
    outcome = _make_packing(g, args.method, args.rounds, caps)
    if args.format == "dot":
        sys.stdout.write(packing_dot(g, outcome.packing))
    elif args.format == "text":
        pk = outcome.packing
        sys.stdout.write(f"rate {format_rational(outcome.achieved_rate)}\n")
        sys.stdout.write(f"trees {pk.tree_count} rounds {pk.rounds}\n")
        for tree, mult in zip(pk.trees, pk.multiplicities):
            edges = " ".join(f"({u},{v})" for u, v in tree.edges)
            sys.stdout.write(f"  x{mult}: {edges}\n")
    else:
        emit(outcome.to_json_dict())
    return 0


def cmd_simulate(args, caps) -> int:
    from .packing import packing_rate
    from .protocol import run_packing_protocol, secrecy_audit

    g = load_graph(args.input)
    method = "general" if args.rounds is None else "oracle"
    pk = _make_packing(g, method, args.rounds, caps).packing
    transcript = run_packing_protocol(g, pk, args.seed)
    doc = transcript.to_json_dict()
    doc["packing"] = pk.to_json_dict()
    doc["rate"] = format_rational(packing_rate(pk))
    if args.audit:
        report = secrecy_audit(g, pk)
        audit_doc = report.to_json_dict()
        audit_doc["secrecy"] = "uniform" if report.uniform else "nonuniform"
        doc["audit"] = audit_doc
    emit(doc)
    return 0


def cmd_analyze(args, caps) -> int:
    from .planner import bottleneck_report

    g = load_graph(args.input)
    report = bottleneck_report(g, caps=caps)
    if args.format == "text":
        sys.stdout.write(report.narrative + "\n")
    else:
        emit(report.to_json_dict())
    return 0


def _link_splits(link: str, labels) -> list[tuple[str, str]]:
    """A link with one ``-`` splits there; one with more, where both sides are ``labels``."""
    splits = [(link[:i], link[i + 1:]) for i, ch in enumerate(link) if ch == "-"]
    if len(splits) > 1:
        splits = [(u, v) for u, v in splits if u in labels and v in labels]
    return splits


def _reads_as_rate(text: str) -> bool:
    try:
        parse_rational(text or "1")
    except SchemaError:
        return False
    return True


def parse_candidates(raw: str, labels=()) -> list[tuple[str, str, object]]:
    """Parse "1-4,2-6" (optionally "u-v:rate") into candidate triples.

    An item reads as a link, or as ``link:rate`` with the rate after any
    ``:``.  A link splits at its one ``-``, or, if it has more, where
    both sides are node ``labels`` (so ``a-1-c`` links ``a-1`` and
    ``c``).  The readings whose two ends are both labels and whose rate
    parses decide: with labels ``a`` and ``b:1``, ``a-b:1`` links them at
    rate 1 and ``a-b:1:2`` at rate 2.  With no such reading the rate
    starts at the first ``:``.  More than one such reading, or no split
    at all, is a SchemaError.
    """
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        suffixes = [len(item)] + [i for i, ch in enumerate(item) if ch == ":"]
        readings = [
            (u, v, item[i + 1:])
            for i in suffixes
            for u, v in _link_splits(item[:i], labels)
            if u in labels and v in labels and _reads_as_rate(item[i + 1:])
        ]
        if len(readings) > 1:
            raise SchemaError(f"candidate {item!r} splits into node labels in more than one way")
        if not readings:
            link, _, rate = item.partition(":")
            readings = [(u, v, rate) for u, v in _link_splits(link, labels) if u and v]
        if not readings:
            raise SchemaError(f"candidate {item!r} is not of the form u-v or u-v:rate")
        u, v, rate = readings[0]
        out.append((u, v, parse_rational(rate) if rate else 1))
    return out


def cmd_optimize(args, caps) -> int:
    from .planner import best_additions

    g = load_graph(args.input)
    candidates = parse_candidates(args.candidates, set(g.node_ids)) if args.candidates else []
    plan = best_additions(g, candidates, args.budget, exhaustive=args.exhaustive, caps=caps)
    if args.format == "text":
        sys.stdout.write(f"initial rate {format_rational(plan.initial_rate)}\n")
        for step in plan.steps:
            sys.stdout.write(
                f"+ ({step.edge[0]},{step.edge[1]}) rate "
                f"{format_rational(step.added_rate)} -> "
                f"{format_rational(step.rate_after)}\n"
            )
        sys.stdout.write(f"final rate {format_rational(plan.final_rate)}\n")
    else:
        doc = plan.to_json_dict()
        for step_doc, step in zip(doc["steps"], plan.steps):
            step_doc["dot"] = graph_dot(step.graph)
        emit(doc)
    return 0


def cmd_export_dot(args, caps) -> int:
    g = load_graph(args.input)
    sys.stdout.write(graph_dot(g))
    return 0


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`SchemaError`, so they exit 2 with JSON."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qnet-stp`` parser, built on first use and shared by every :func:`main` call."""
    parser = _Parser(
        prog="qnet-stp",
        description="Conference-key rates and spanning-tree packings for QKD networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="exact conference key rate of a network")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("pack", help="compute a spanning-tree packing")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--method", choices=["basic", "general", "oracle"], default="general")
    p.add_argument("--rounds", type=int, help="round count (oracle method only)")
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("simulate", help="run the keying protocol over a packing")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--rounds", type=int, help="pack exactly this many rounds (exact oracle)")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p.add_argument("--audit", action="store_true", help="exact secrecy audit (GF(2) rank check)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="bottleneck structure report")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="plan link additions")
    p.add_argument("input", help="graph JSON file")
    p.add_argument("--candidates", default="", help='candidate links, e.g. "1-4,2-6"')
    p.add_argument("--budget", type=int, default=1, help="number of links to add")
    p.add_argument("--exhaustive", action="store_true", help="try all candidate subsets")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("export-dot", help="graph as DOT")
    p.add_argument("input", help="graph JSON file")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        caps = read_caps()
        return args.func(args, caps)
    except QNetError as exc:
        emit({"error": {"code": exc.code, "message": str(exc)}})
        if isinstance(exc, ValidationError):
            return 2
        if isinstance(exc, LimitError):
            return 3
        return 4


if __name__ == "__main__":
    sys.exit(main())
