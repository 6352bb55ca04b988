"""Command-line front end.

Subcommands: rate, pack, simulate, analyze, optimize, export-dot.
A call reads its argv and one graph JSON file, and its answer leaves in
one write to stdout: JSON (default), DOT, or plain text.  Output is
deterministic: identical inputs, flags and seed produce byte-identical
bytes.

Exit codes: 0 success, 2 input/validation error or an output that
stdout's encoding cannot hold or stdout refuses, 3 a scan passed its step
budget, 4 internal failure (a packer gave up).
"""

from __future__ import annotations

import argparse
import functools
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


def graph_dot(g: WeightedGraph) -> str:
    """The network in DOT, each node quoted once."""
    ids = {node: _dot_id(node) for node in g.sorted_nodes()}
    lines = ["graph network {", "  node [shape=circle];", *[f"  {q};" for q in ids.values()]]
    for (u, v), (rate, _) in g.link_items():
        lines.append(f'  {ids[u]} -- {ids[v]} [label="{format_rational(rate)}"];')
    return "\n".join(lines) + "\n}\n"


def packing_dot(g: WeightedGraph, pk: TreePacking) -> str:
    """One colored subgraph per distinct tree, nodes prefixed per tree."""
    lines = ["graph packing {", f'  label="{pk.tree_count} trees over {pk.rounds} rounds";']
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
    raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


class _Verbatim(str):
    """JSON text, already laid out, that :func:`_json_text` writes as it is."""


def _json_text(doc, pad: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, on what the commands print.

    That is ``str``, ``int``, ``bool`` and ``None`` leaves (subclasses
    too) in lists, tuples and dicts with ``str`` keys; anything else,
    floats and other keys included, is a TypeError.  ``json.dumps``
    indents with its pure-Python encoder; this builds the same text in
    one recursive pass, with the C string escaper.  ``pad`` is the
    newline and indent before a closing bracket.  One loop writes the
    members: exact ``str`` and ``int`` leaves, and lists or tuples of two
    exact ``str`` (edge keys, two-node blocks) through one template, in
    place, the rest by a call.  A dict sorts its keys alone (two never
    compare equal, or they would be one key), then prefixes each member
    with its escaped key.  A :class:`_Verbatim` leaf is written as it is.
    """
    if isinstance(doc, str):
        return doc if type(doc) is _Verbatim else encode_basestring_ascii(doc)
    if isinstance(doc, dict):
        keys, brackets = sorted(doc), "{}"
        members = map(doc.__getitem__, keys)
    elif isinstance(doc, (list, tuple)):
        keys, brackets, members = None, "[]", doc
    else:
        return _scalar(doc)
    if not doc:
        return brackets
    inner = pad + "  "
    pair = None  # the two-string template, built on first use
    texts = []
    for x in members:
        t = type(x)
        if t is str:
            texts.append(encode_basestring_ascii(x))
        elif t is int:
            texts.append(int.__repr__(x))
        elif (t is list or t is tuple) and len(x) == 2 and type(x[0]) is type(x[1]) is str:
            if pair is None:
                pair = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
            texts.append(pair % (encode_basestring_ascii(x[0]), encode_basestring_ascii(x[1])))
        else:
            texts.append(_json_text(x, inner))
    if keys is not None:  # the escaper refuses a key that is not a str
        texts = [encode_basestring_ascii(k) + ": " + text for k, text in zip(keys, texts)]
    return brackets[0] + inner + ("," + inner).join(texts) + pad + brackets[1]


def emit(out) -> None:
    """Write ``out`` to stdout in one write, then flush: a ``str`` as it is, a document as JSON.

    An ``out`` that stdout's encoding cannot hold is a SchemaError, with nothing written.  So is
    a failed write or flush (a full disk, a closed pipe), after which a sink stands in for stdout.
    """
    text = out if isinstance(out, str) else _json_text(out) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except UnicodeEncodeError as exc:
        raise SchemaError(f"stdout cannot encode the output: {exc}") from exc
    except OSError as exc:
        import io
        sys.stdout = io.StringIO()  # so neither the error nor the flush at exit fails again
        raise SchemaError(f"cannot write to stdout: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each command returns its output, a JSON document or the whole text, for
# :func:`main` to emit.  It imports the modules it runs, so a call loads no others.

def cmd_rate(g: WeightedGraph, args) -> str | dict:
    from .rate_core import nwt_rate

    report = nwt_rate(g)
    if args.format == "text":
        return format_rational(report.rate) + "\n"
    return report.to_json_dict()


def _make_packing(g, method: str, rounds: Optional[int]):
    from .packing import basic_algorithm, brute_force_packing, general_algorithm

    if method == "oracle":
        n = rounds if rounds is not None else g.node_count - 1
        return brute_force_packing(g, n)
    if rounds is not None:
        raise SchemaError("--rounds only applies to --method oracle")
    if method == "basic":
        return basic_algorithm(g)
    return general_algorithm(g)


def cmd_pack(g: WeightedGraph, args) -> str | dict:
    outcome = _make_packing(g, args.method, args.rounds)
    pk = outcome.packing
    if args.format == "dot":
        return packing_dot(g, pk)
    if args.format == "text":
        lines = [f"rate {format_rational(outcome.achieved_rate)}",
                 f"trees {pk.tree_count} rounds {pk.rounds}"]
        for tree, mult in zip(pk.trees, pk.multiplicities):
            edges = " ".join(f"({u},{v})" for u, v in tree.edges)
            lines.append(f"  x{mult}: {edges}")
        return "\n".join(lines) + "\n"
    return outcome.to_json_dict()


def cmd_simulate(g: WeightedGraph, args) -> dict:
    # the packing alone: simulate prints no optimality proof, so runs none
    from .packing import _general_packing, _oracle_packing, packing_rate
    from .protocol import PRNG_ALGORITHM, _keying, secrecy_audit, security_budget

    pk = (_general_packing(g) if args.rounds is None else _oracle_packing(g, args.rounds))[0]
    run = _keying(g, pk, args.seed)
    # ProtocolTranscript.to_json_dict() is the reference form.  This writes it from the
    # run's tables; the announcements, most of the output, through one template with
    # each label and each link's pair escaped once, its keys in sorted order
    labels, digits = run.labels, bytes.maketrans(b"\0\1", b"01")
    quoted = [encode_basestring_ascii(v) for v in labels]
    item, key, leaf = "\n    ", "\n      ", "\n        "
    pair = [quoted[i] + "," + leaf + quoted[j] for i, j in run.ends]
    template = "".join([
        "{", key, '"announcer": %s,',
        key, '"bit_indices": {', leaf, '"edge": %d,', leaf, '"in": %d', key, "},",
        key, '"bits": [', leaf, "%d", key, "],",
        key, '"edge": [', leaf, "%s", key, "],",
        key, '"in_edge": [', leaf, "%s", key, "],",
        key, '"round": %d,', key, '"tree": %d', item, "}",
    ])
    texts = [
        template % (quoted[v], b + copy, a + copy, bits[copy], pair[out], pair[into], copy, tree)
        for tree, copies, relays, values in run.trees
        for copy in range(copies)
        for (v, into, out, a, b), bits in zip(relays, values)
    ]
    doc = {
        "announcements": _Verbatim("[" + item + ("," + item).join(texts) + "\n  ]" if texts else "[]"),
        "conference_key": run.key.translate(digits).decode(),
        "consumed_bits": {f"{labels[i]}-{labels[j]}": c for (i, j), c in zip(run.ends, run.used)},
        "packing": pk.to_json_dict(),
        "prng": {"algorithm": PRNG_ALGORITHM, "seed": args.seed},
        "rate": format_rational(packing_rate(pk)),
        "recovered": {v: bits.translate(digits).decode() for v, bits in zip(labels, run.recovered)},
        "rounds": pk.rounds,
        "security_budget": security_budget(pk, g.epsilon_map()).to_json_dict(),
        "unanimity": run.unanimity,
    }
    if args.audit:
        report = secrecy_audit(g, pk)
        audit_doc = report.to_json_dict()
        audit_doc["secrecy"] = "uniform" if report.uniform else "nonuniform"
        doc["audit"] = audit_doc
    return doc


def cmd_analyze(g: WeightedGraph, args) -> str | dict:
    from .planner import bottleneck_report

    report = bottleneck_report(g)
    if args.format == "text":
        return report.narrative + "\n"
    return report.to_json_dict()


def _link_splits(link: str, labels) -> list[tuple[str, str]]:
    """A link with one ``-`` splits there; one with more, where both sides are ``labels``."""
    splits = [(link[:i], link[i + 1:]) for i, ch in enumerate(link) if ch == "-"]
    if len(splits) > 1:
        splits = [(u, v) for u, v in splits if u in labels and v in labels]
    return splits


def _read_rate(text: str):
    """The rate ``text`` reads as, 1 when it is empty, or None when it reads as no rate."""
    try:
        return parse_rational(text) if text else 1
    except SchemaError:
        return None


def parse_candidates(raw: str, labels=()) -> list[tuple[str, str, object]]:
    """Parse "1-4,2-6" (optionally "u-v:rate") into candidate triples.

    An item reads as a link, or as ``link:rate`` with the rate after any ``:``.
    A link splits at its one ``-``, or, if it has more, where both sides are
    node ``labels`` (so ``a-1-c`` links ``a-1`` and ``c``).  The readings whose
    two ends are both labels and whose rate parses decide: with labels ``a``
    and ``b:1``, ``a-b:1`` links them at rate 1 and ``a-b:1:2`` at rate 2.
    With no such reading the rate starts at the first ``:``.  More than one
    such reading, or no split at all, is a SchemaError.  Each rate text is
    parsed once, and a malformed one again to raise its error.
    """
    out = []
    for item in filter(None, map(str.strip, raw.split(","))):
        readings = []
        for i in [len(item)] + [i for i, ch in enumerate(item) if ch == ":"]:
            uv = [(u, v) for u, v in _link_splits(item[:i], labels) if u in labels and v in labels]
            rate = _read_rate(item[i + 1:]) if uv else None
            readings += [(u, v, rate) for u, v in uv if rate is not None]
        if len(readings) > 1:
            raise SchemaError(f"candidate {item!r} splits into node labels in more than one way")
        if not readings:
            link, _, text = item.partition(":")
            uv = [(u, v) for u, v in _link_splits(link, labels) if u and v]
            if not uv:
                raise SchemaError(f"candidate {item!r} is not of the form u-v or u-v:rate")
            readings = [(*uv[0], parse_rational(text) if text else 1)]
        out.append(readings[0])
    return out


def cmd_optimize(g: WeightedGraph, args) -> str | dict:
    from .planner import best_additions

    candidates = parse_candidates(args.candidates, set(g.node_ids)) if args.candidates else []
    plan = best_additions(g, candidates, args.budget, exhaustive=args.exhaustive)
    if args.format == "text":
        lines = [f"initial rate {format_rational(plan.initial_rate)}"]
        for step in plan.steps:
            lines.append(
                f"+ ({step.edge[0]},{step.edge[1]}) rate "
                f"{format_rational(step.added_rate)} -> "
                f"{format_rational(step.rate_after)}"
            )
        lines.append(f"final rate {format_rational(plan.final_rate)}")
        return "\n".join(lines) + "\n"
    doc = plan.to_json_dict()
    for step_doc, step in zip(doc["steps"], plan.steps):
        step_doc["dot"] = graph_dot(step.graph)
    return doc


def cmd_export_dot(g: WeightedGraph, args) -> str:
    return graph_dot(g)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`SchemaError`, so they exit 2 with JSON."""

    #: on the top-level parser: each command word's own parser
    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> _Parser:
    """The ``qnet-stp`` parser, built on first use and shared by every :func:`main` call."""
    parser = _Parser(
        prog="qnet-stp",
        description="Conference-key rates and spanning-tree packings for QKD networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by the command word's own parser where
    ``argv`` starts with one.

    The full parser hands everything after the command word to that
    word's parser and reports what it leaves as unrecognized; this does
    the same without the full parser's pass over ``argv``.
    """
    parser = build_parser()
    own = parser.commands.get(argv[0]) if argv else None
    if own is None:
        return parser.parse_args(argv)
    args, extras = own.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """One call: parse ``argv``, load its graph, run its command, emit the answer or error."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        emit(args.func(load_graph(args.input), args))
        return 0
    except QNetError as exc:
        try:
            emit({"error": {"code": exc.code, "message": str(exc)}})
        except SchemaError:  # stdout refused the error as well
            return 2
        return 2 if isinstance(exc, ValidationError) else 3 if isinstance(exc, LimitError) else 4


if __name__ == "__main__":
    sys.exit(main())
