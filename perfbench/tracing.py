"""Spans and counters around the calls into each layer, from outside the library.

The tracer replaces each traced function's name in the namespace of every
package module that holds it (``rate_core.nwt_rate``, ``planner.nwt_rate``,
``packing.nwt_rate``, ...), so calls made inside a layer are seen as well
as calls from the CLI.  Each call becomes a span (name, start, end,
parent span, job id); spans stay in memory until the run ends.

Counts are read from return values only (diagnostics, pivots, certificate
positions, transcript lengths, audit bit counts), so they are exact and
repeat from run to run.  A layer's self time is its spans' time minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter

MODULES = ("cli", "netgraph", "rate_core", "lp_core", "packing", "protocol", "planner")


class Span:
    __slots__ = ("id", "name", "module", "start", "end", "parent", "job", "error")

    def __init__(self, id, name, module, start, parent, job):
        self.id, self.name, self.module = id, name, module
        self.start, self.end, self.parent, self.job = start, None, parent, job
        self.error = None

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def bell(n: int) -> int:
    """Number of set partitions of ``n`` items (restricted growth strings)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def subset_position(labels, subset) -> int:
    """1-based position of ``subset`` among the nonempty proper subsets of
    ``labels``, ordered by cardinality and then lexicographically (the
    order ``check_no_bottleneck`` scans them in)."""
    ordered = sorted(labels)
    n, k = len(ordered), len(subset)
    before = sum(math.comb(n, size) for size in range(1, k))
    index = {v: i for i, v in enumerate(ordered)}
    chosen = sorted(index[v] for v in subset)
    rank, prev = 0, -1
    for slot, c in enumerate(chosen):
        for skipped in range(prev + 1, c):
            rank += math.comb(n - 1 - skipped, k - 1 - slot)
        prev = c
    return before + rank + 1


# -- counters read from return values ----------------------------------------

def _on_nwt_rate(tracer, span, args, result, before):
    g = args[0]
    tracer.counters["rate_core.partitions_visited"] += bell(g.node_count)
    planner_span = tracer.ancestor(span, "best_additions")
    if planner_span is not None:
        tracer.counters["planner.nwt_rate_calls"] += 1
        tracer.planner_graphs.setdefault(planner_span.id, set()).add(g)


def _on_check_no_bottleneck(tracer, span, args, result, before):
    g = args[0]
    if result.violating_subset is None:
        scanned = 2 ** g.node_count - 2
    else:
        scanned = subset_position(g.node_ids, result.violating_subset)
    tracer.counters["rate_core.subsets_scanned"] += scanned


def _on_simplex(tracer, span, args, result, before):
    tracer.counters["lp_core.pivots"] += result[4]


def _on_basic(tracer, span, args, result, before):
    tracer.counters["packing.backtracks"] += result.diagnostics.get("backtracks", 0)
    if not result.diagnostics.get("fallback"):
        tracer.counters["packing.greedy_successes"] += 1


def _on_oracle(tracer, span, args, result, before):
    tracer.counters["packing.oracle_states"] += result.diagnostics.get("oracle_states", 0)


def _on_protocol(tracer, span, args, result, before):
    tracer.counters["protocol.announcements"] += len(result.announcements)


def _on_audit(tracer, span, args, result, before):
    tracer.counters["protocol.audit_assignments"] += 2 ** result.total_bits


def _stdout_position():
    return sys.stdout.tell()


def _on_emit(tracer, span, args, result, before):
    tracer.counters["cli.emit_bytes"] += sys.stdout.tell() - before


#: (module, function, on_return hook, value taken before the call)
TARGETS = (
    ("cli", "main", None, None),
    ("cli", "load_graph", None, None),
    ("cli", "emit", _on_emit, _stdout_position),
    ("netgraph", "parse_graph", None, None),
    ("netgraph", "enumerate_spanning_trees", None, None),
    ("netgraph", "contract", None, None),
    ("rate_core", "nwt_rate", _on_nwt_rate, None),
    ("rate_core", "check_no_bottleneck", _on_check_no_bottleneck, None),
    ("lp_core", "_simplex_max", _on_simplex, None),
    ("packing", "general_algorithm", None, None),
    ("packing", "basic_algorithm", _on_basic, None),
    ("packing", "brute_force_packing", _on_oracle, None),
    ("packing", "_optimal_flag", None, None),
    ("protocol", "run_packing_protocol", _on_protocol, None),
    ("protocol", "secrecy_audit", _on_audit, None),
    ("planner", "best_additions", None, None),
    ("planner", "evaluate_addition", None, None),
    ("planner", "bottleneck_report", None, None),
    ("planner", "_best_bipartition", None, None),
)

#: Per-layer metrics: (name, unit, better).  Times are summed over the
#: run's jobs; counts are exact.  BENCHMARK.json lists the same names.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
    ("cli.errors", "count", "lower"),
    ("netgraph.self_s", "s", "lower"),
    ("netgraph.parse_graph_s", "s", "lower"),
    ("netgraph.enumerate_spanning_trees_s", "s", "lower"),
    ("netgraph.spanning_trees_yielded", "count", "lower"),
    ("netgraph.contract_calls", "count", "lower"),
    ("netgraph.errors", "count", "lower"),
    ("rate_core.self_s", "s", "lower"),
    ("rate_core.nwt_rate_calls", "count", "lower"),
    ("rate_core.nwt_rate_s", "s", "lower"),
    ("rate_core.partitions_visited", "count", "lower"),
    ("rate_core.check_no_bottleneck_calls", "count", "lower"),
    ("rate_core.check_no_bottleneck_s", "s", "lower"),
    ("rate_core.subsets_scanned", "count", "lower"),
    ("rate_core.errors", "count", "lower"),
    ("lp_core.self_s", "s", "lower"),
    ("lp_core.simplex_calls", "count", "lower"),
    ("lp_core.simplex_s", "s", "lower"),
    ("lp_core.pivots", "count", "lower"),
    ("lp_core.errors", "count", "lower"),
    ("packing.self_s", "s", "lower"),
    ("packing.general_algorithm_s", "s", "lower"),
    ("packing.basic_algorithm_calls", "count", "lower"),
    ("packing.basic_algorithm_s", "s", "lower"),
    ("packing.backtracks", "count", "lower"),
    ("packing.greedy_success_ratio", "ratio", "higher"),
    ("packing.oracle_calls", "count", "lower"),
    ("packing.oracle_s", "s", "lower"),
    ("packing.oracle_states", "count", "lower"),
    ("packing.optimal_flag_s", "s", "lower"),
    ("packing.errors", "count", "lower"),
    ("protocol.self_s", "s", "lower"),
    ("protocol.run_s", "s", "lower"),
    ("protocol.announcements", "count", "lower"),
    ("protocol.audit_s", "s", "lower"),
    ("protocol.audit_assignments", "count", "lower"),
    ("protocol.errors", "count", "lower"),
    ("planner.self_s", "s", "lower"),
    ("planner.best_additions_s", "s", "lower"),
    ("planner.evaluate_addition_calls", "count", "lower"),
    ("planner.distinct_scan_ratio", "ratio", "higher"),
    ("planner.bottleneck_report_s", "s", "lower"),
    ("planner.best_bipartition_s", "s", "lower"),
    ("planner.errors", "count", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

def is_counter(name: str, unit: str) -> bool:
    """True for metrics that must repeat exactly from run to run."""
    return unit != "s" and name not in ("trace.coverage_ratio", "trace.overhead_ratio")


#: Metric name -> span name whose summed time it reports.
SPAN_TIMES = {
    "cli.emit_s": "emit",
    "netgraph.parse_graph_s": "parse_graph",
    "netgraph.enumerate_spanning_trees_s": "enumerate_spanning_trees",
    "rate_core.nwt_rate_s": "nwt_rate",
    "rate_core.check_no_bottleneck_s": "check_no_bottleneck",
    "lp_core.simplex_s": "_simplex_max",
    "packing.general_algorithm_s": "general_algorithm",
    "packing.basic_algorithm_s": "basic_algorithm",
    "packing.oracle_s": "brute_force_packing",
    "packing.optimal_flag_s": "_optimal_flag",
    "protocol.run_s": "run_packing_protocol",
    "protocol.audit_s": "secrecy_audit",
    "planner.best_additions_s": "best_additions",
    "planner.bottleneck_report_s": "bottleneck_report",
    "planner.best_bipartition_s": "_best_bipartition",
}

#: Metric name -> span name whose call count it reports.
SPAN_CALLS = {
    "netgraph.contract_calls": "contract",
    "rate_core.nwt_rate_calls": "nwt_rate",
    "rate_core.check_no_bottleneck_calls": "check_no_bottleneck",
    "lp_core.simplex_calls": "_simplex_max",
    "packing.basic_algorithm_calls": "basic_algorithm",
    "packing.oracle_calls": "brute_force_packing",
    "planner.evaluate_addition_calls": "evaluate_addition",
}


class Tracer:
    """Installs wrappers, records spans while a job is active, sums them up."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counters: Counter = Counter()
        self.errors = {m: Counter() for m in MODULES}
        self.planner_graphs: dict = {}
        self._seen_errors: set = set()
        self._job_exceptions: list = []
        self._installed: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"qnet_stp.{m}") for m in MODULES]
        modules.append(importlib.import_module("qnet_stp"))
        for module_name, fn_name, hook, before in TARGETS:
            original = getattr(importlib.import_module(f"qnet_stp.{module_name}"), fn_name)
            if original.__code__.co_flags & 0x20:  # CO_GENERATOR
                wrapper = self._wrap_generator(original, fn_name, module_name)
            else:
                wrapper = self._wrap(original, fn_name, module_name, hook, before)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._installed.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- spans -------------------------------------------------------------

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self._seen_errors.clear()
        self._job_exceptions.clear()

    def end_job(self) -> None:
        self.job = None
        self.stack.clear()
        self._job_exceptions.clear()

    def ancestor(self, span, name):
        parent = span.parent
        while parent is not None:
            candidate = self.spans[parent]
            if candidate.name == name:
                return candidate
            parent = candidate.parent
        return None

    def _open(self, name, module):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, module, time.perf_counter() - self.origin, parent, self.job)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span, exc=None):
        span.end = time.perf_counter() - self.origin
        if self.stack and self.stack[-1] is span:
            self.stack.pop()
        if exc is not None and not isinstance(exc, GeneratorExit):
            span.error = type(exc).__name__
            key = (id(exc), span.module)
            if key not in self._seen_errors:
                self._seen_errors.add(key)
                self._job_exceptions.append(exc)  # keeps id() unique for the job
                self.errors[span.module][span.error] += 1

    def _wrap(self, original, name, module, hook, before):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return original(*args, **kwargs)
            token = before() if before is not None else None
            span = tracer._open(name, module)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, exc)
                raise
            tracer._close(span)
            if hook is not None:
                hook(tracer, span, args, result, token)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, original, name, module):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return (yield from original(*args, **kwargs))
            inner = original(*args, **kwargs)
            span = tracer._open(name, module)
            count = 0
            try:
                for item in inner:
                    count += 1
                    tracer.stack.pop()
                    yield item
                    tracer.stack.append(span)
            except BaseException as exc:
                tracer._close(span, exc)
                raise
            finally:
                tracer.counters["netgraph.spanning_trees_yielded"] += count
            tracer._close(span)

        wrapper.__wrapped__ = original
        return wrapper

    # -- summary -----------------------------------------------------------

    def _closed(self):
        return [s for s in self.spans if s.end is not None]

    def self_times(self) -> dict:
        """Seconds per module of span time not covered by child spans."""
        child_time: Counter = Counter()
        for s in self._closed():
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = {m: 0.0 for m in MODULES}
        for s in self._closed():
            out[s.module] += (s.end - s.start) - child_time[s.id]
        return out

    def metrics(self, job_seconds: float, untraced_seconds: float) -> dict:
        closed = self._closed()
        span_time: Counter = Counter()
        span_calls: Counter = Counter()
        for s in closed:
            span_time[s.name] += s.end - s.start
            span_calls[s.name] += 1
        values = dict(self.counters)
        for metric, name in SPAN_TIMES.items():
            values[metric] = span_time[name]
        for metric, name in SPAN_CALLS.items():
            values[metric] = span_calls[name]
        selfs = self.self_times()
        for module in MODULES:
            values[f"{module}.self_s"] = selfs[module]
            values[f"{module}.errors"] = sum(self.errors[module].values())
        basic_calls = span_calls["basic_algorithm"]
        values["packing.greedy_success_ratio"] = (
            self.counters["packing.greedy_successes"] / basic_calls if basic_calls else 0.0
        )
        planner_calls = self.counters["planner.nwt_rate_calls"]
        distinct = sum(len(graphs) for graphs in self.planner_graphs.values())
        values["planner.distinct_scan_ratio"] = distinct / planner_calls if planner_calls else 0.0
        values["trace.job_s"] = job_seconds
        values["trace.coverage_ratio"] = sum(selfs.values()) / job_seconds if job_seconds else 0.0
        values["trace.overhead_ratio"] = (
            job_seconds / untraced_seconds - 1 if untraced_seconds else 0.0
        )
        values["trace.spans"] = len(closed)
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.to_json()) + "\n")
