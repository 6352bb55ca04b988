"""Seeded job lists for the three benchmark workloads.

Every input is generated here from the workload seed, before any timing
starts, as a plain graph document in the CLI's JSON format.  The program
under test only ever sees the written files and the argv of each job.

A workload is a fixed *composition* of job classes (command, graph family,
node count, flags).  The seed varies edge rates, node labels and which
chords or extra edges are drawn, which for most classes leaves the cost
unchanged, so the work per run stays nearly the same from seed to seed.

A run does each job of the list several times, as *copies* whose node
labels carry a per-copy prefix (:func:`copies`).  The prefix keeps the
labels' order, so a copy does the same work as the job, but its input
text differs.  Within one run no job input repeats: every graph is
distinct (checked), so no cache spanning CLI calls could serve a later job.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("rate-scan", "pack-simulate", "plan")

#: Seed whose job outputs are stored as reference answers in baseline.json.
DEFAULT_SEED = 0

RATIONAL_RATES = ("1", "2", "3", "1/2", "3/2", "5/2", "2/3", "4/3", "5/4")


@dataclass
class Job:
    """One CLI call: ``command``, the graph file written from ``graph``, ``flags``.

    ``base`` is the id of the job this one is a copy of (its own id for
    the original).
    """

    id: str
    command: str
    graph: dict
    flags: list = field(default_factory=list)
    base: str = ""

    def __post_init__(self):
        self.base = self.base or self.id

    def argv(self, path: str) -> list:
        return [self.command, path, *self.flags]


# ---------------------------------------------------------------------------
# graph families (plain documents; no library code involved)
# ---------------------------------------------------------------------------

def _doc(nodes, edges) -> dict:
    seen = {}
    for u, v, rate in edges:
        key = (u, v) if u < v else (v, u)
        if key in seen or u == v:
            raise ValueError(f"generator produced a repeated edge {key}")
        seen[key] = str(rate)
    return {
        "nodes": list(nodes),
        "edges": [{"u": u, "v": v, "rate": r} for (u, v), r in seen.items()],
    }


def _labels(rng: random.Random, n: int) -> list:
    """``n`` distinct labels drawn from a wider pool, so small graphs of one
    shape still differ from job to job."""
    return [str(i) for i in rng.sample(range(1, 10 * n), n)]


def ring(rng, n, rates=("1",)):
    nodes = _labels(rng, n)
    return _doc(nodes, [(nodes[i], nodes[(i + 1) % n], rng.choice(rates)) for i in range(n)])


def complete(rng, n, rates=("1",)):
    nodes = _labels(rng, n)
    return _doc(nodes, [(nodes[i], nodes[j], rng.choice(rates))
                        for i in range(n) for j in range(i + 1, n)])


def sparse(rng, n, edge_count, rates=("1",)):
    """Random spanning tree plus random extra edges, ``edge_count`` in all."""
    nodes = _labels(rng, n)
    edge_count = min(edge_count, n * (n - 1) // 2)
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        pairs.add((nodes[j], nodes[i]))
    while len(pairs) < edge_count:
        a, b = rng.sample(nodes, 2)
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.add((a, b))
    return _doc(nodes, [(u, v, rng.choice(rates)) for u, v in sorted(pairs)])


def two_cliques_hub(rng, n, rates=("1",)):
    """Two cliques joined by one bridge, both tied to a hub node."""
    nodes = _labels(rng, n)
    hub, rest = nodes[0], nodes[1:]
    half = len(rest) // 2
    left, right = rest[:half], rest[half:]
    edges = []
    for group in (left, right):
        edges += [(group[i], group[j], rng.choice(rates))
                  for i in range(len(group)) for j in range(i + 1, len(group))]
    edges += [(left[-1], right[0], rng.choice(rates)),
              (left[0], hub, rng.choice(rates)),
              (right[-1], hub, rng.choice(rates))]
    return _doc(nodes, edges)


def square_diag_tail(rng, n, rates=("1",)):
    """A square with a diagonal, plus a tail path closing back on the square."""
    nodes = _labels(rng, n)
    a, b, c, d = nodes[:4]
    tail = nodes[4:]
    edges = [(a, b, "1"), (b, c, "1"), (c, d, "1"), (a, d, "1"), (a, c, "1")]
    path = [a, *tail, b]
    edges += [(path[i], path[i + 1], "1") for i in range(len(path) - 1)]
    return _doc(nodes, [(u, v, rng.choice(rates)) for u, v, _ in edges])


def ring_chords(rng, n, chords, rates=("1",)):
    """A ring with ``chords`` random extra edges (hexagon-like networks)."""
    nodes = _labels(rng, n)
    pairs = {(nodes[i], nodes[(i + 1) % n]) for i in range(n)}
    ring_pairs = set(pairs)
    while len(pairs) < n + chords:
        a, b = rng.sample(nodes, 2)
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.add((a, b))
    return _doc(nodes, [(u, v, "1" if (u, v) in ring_pairs else rng.choice(rates))
                        for u, v in sorted(pairs)])


def non_edges(rng, graph: dict, count: int) -> list:
    """``count`` distinct node pairs that are not edges of ``graph``."""
    nodes = graph["nodes"]
    present = {frozenset((e["u"], e["v"])) for e in graph["edges"]}
    free = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
            if frozenset((u, v)) not in present]
    return rng.sample(free, min(count, len(free)))


# ---------------------------------------------------------------------------
# workload compositions
# ---------------------------------------------------------------------------
#
# Each block is one copy of the workload's per-block mix, generated from its
# own stream (seed, block) so that a longer run extends a shorter one.
#
# The median and the tail percentile each fall inside a dense band of jobs
# whose cost does not depend on the draw (rings and other fixed shapes of
# one size), so neither sits on a jump between two cost levels.

def _rate_scan_block(rng, block, sizes):
    small, mid, large = sizes
    families = {
        "ring": lambda n: ring(rng, n, RATIONAL_RATES),
        "complete": lambda n: complete(rng, n, RATIONAL_RATES),
        "sparse": lambda n: sparse(rng, n, 2 * n, RATIONAL_RATES),
        "cliques": lambda n: two_cliques_hub(rng, n, RATIONAL_RATES),
    }
    both = ("rate", "analyze")
    mix = []
    if block == 0:
        # Once per run, the largest size, above the tail percentile.
        mix += [(large, "ring", ("rate",))]
    # Per block: the cheaper small-size families three times (the median
    # falls among them), complete graphs once, and mid-size rings and
    # cliques (the tail percentile falls on the rings).
    mix += [(small, name, both) for name in ("ring", "cliques", "sparse")] * 3
    mix += [(small, "complete", both)]
    mix += [(mid, name, both) for name in ("ring", "cliques")]
    jobs = []
    for n, name, commands in mix:
        for command in commands:
            jobs.append((f"{command}-{name}{n}", command, families[name](n), []))
    # One job from a band of mid-size sparse graphs graded by edge count
    # (the partition scan's cost grows with it), cycling from block to block.
    band = [(edges, command) for edges in range(2 * mid, 4 * mid + 1, mid // 2)
            for command in both]
    edges, command = band[block % len(band)]
    graph = sparse(rng, mid, edges, RATIONAL_RATES)
    jobs.append((f"{command}-sparse{mid}e{edges}", command, graph, []))
    return jobs


def _pack_simulate_block(rng, block, sizes):
    jobs = []
    lo, hi = sizes
    if block == 0:
        # Unit-rate complete graphs, once per run; at the seed commit some
        # of these crash (see baseline.json), and they are kept on purpose.
        for n in range(4, max(hi, 6) + 1):
            jobs.append((f"pack-k{n}", "pack", complete(rng, n), []))

    def seed_flag():
        return ["--seed", str(rng.randrange(1 << 16))]

    # Unit rates on the larger shapes keep their cost the same from draw
    # to draw; random rates appear on the small ones.  The mid-size rings,
    # tails and cliques (lo + 3, lo + 4) hold the median.
    for n in (lo + 1, lo + 3, hi - 1, hi):
        jobs.append((f"pack-ring{n}", "pack", ring(rng, n), []))
        jobs.append((f"basic-ring{n}", "pack", ring(rng, n, ("2",)), ["--method", "basic"]))
        jobs.append((f"simulate-ring{n}", "simulate", ring(rng, n), seed_flag()))
    for n in (lo + 2, lo + 4, hi):
        jobs.append((f"pack-tail{n}", "pack", square_diag_tail(rng, n), []))
        jobs.append((f"simulate-tail{n}", "simulate", square_diag_tail(rng, n), seed_flag()))
    jobs.append((f"simulate-cliques{lo + 4}", "simulate", two_cliques_hub(rng, lo + 4), seed_flag()))
    for n in (hi - 1, hi):
        jobs.append((f"pack-cliques{n}", "pack", two_cliques_hub(rng, n), []))
    # Random sparse graphs stay at 5-6 nodes: the greedy packer gives up on
    # a few percent of them and the exact oracle finishes the job, which at
    # 9-10 nodes takes seconds to minutes depending on the draw.
    small = lo + 1
    jobs.append((f"pack-sparse{small}", "pack", sparse(rng, small, small + 1, ("1", "2")), []))
    jobs.append((f"pack-sparse{small}", "pack", sparse(rng, small, small + 2), []))
    jobs.append((f"pack-sparse{small + 1}", "pack", sparse(rng, small + 1, small + 2), []))
    for n in (small, small + 1):
        jobs.append((f"simulate-sparse{n}", "simulate", sparse(rng, n, n + 1), seed_flag()))
    # Exact oracle with few rounds, and audited runs kept within the audit
    # cap at 12 and 15 key bits, where 2^bits assignments take well under
    # a second.
    jobs.append((f"oracle-ring{small}", "pack", ring(rng, small, ("1", "2")),
                 ["--method", "oracle", "--rounds", "2"]))
    jobs.append((f"oracle-sparse{lo}", "pack", sparse(rng, lo, lo + 2),
                 ["--method", "oracle", "--rounds", "3"]))
    jobs.append(("audit-ring4", "simulate", ring(rng, 4), [*seed_flag(), "--audit"]))
    jobs.append(("audit-diamond4", "simulate", ring_chords(rng, 4, 1), [*seed_flag(), "--audit"]))
    return jobs


#: Large plans (nodes, chords, pool, budget, exhaustive), graded in cost;
#: each block takes the next two, so a run holds a dense band of them.
PLAN_BAND = [(8, 0, 8, 2, False), (9, 0, 7, 1, False), (8, 0, 10, 2, False),
             (9, 0, 5, 1, False), (8, 0, 8, 3, False), (9, 1, 6, 1, False),
             (8, 0, 12, 2, False), (9, 0, 8, 1, False), (9, 0, 4, 1, False),
             (8, 0, 10, 3, False)]


def _plan_block(rng, block, sizes):
    jobs = []
    lo, hi = sizes
    # (nodes, chords in the base graph, candidate pool, budget, exhaustive).
    # Per block, a ladder of cheap plans (the median falls among the
    # lo + 1 ones, the tail percentile among the hi - 1 ones) and two from
    # the band of large plans, above the tail percentile.
    mix = [
        (lo, 0, 4, 1, False), (lo, 1, 6, 1, False), (lo, 0, 8, 1, False), (lo, 0, 6, 2, False),
        (lo, 0, 8, 2, True), (lo, 0, 8, 3, False), (lo + 1, 0, 6, 2, False),
        (lo + 1, 1, 8, 2, True), (lo + 1, 1, 10, 2, False), (lo + 1, 0, 12, 2, False),
        (hi - 1, 0, 6, 1, False), (hi - 1, 0, 5, 2, True), (hi - 1, 0, 8, 1, False),
    ]
    shift = hi - 9  # the band is written for the full sizes (6..9)
    mix += [(n + shift, c, p, b, e)
            for n, c, p, b, e in (PLAN_BAND[(2 * block + i) % len(PLAN_BAND)] for i in (0, 1))]
    for n, chords, pool, budget, exhaustive in mix:
        graph = ring_chords(rng, n, chords, ("1", "2"))
        cands = non_edges(rng, graph, pool)
        spec = ",".join(f"{u}-{v}" if rng.random() < 0.5 else f"{u}-{v}:{rng.choice(('1', '2'))}"
                        for u, v in cands)
        flags = ["--candidates", spec, "--budget", str(budget)]
        tag = "exhaustive" if exhaustive else "greedy"
        if exhaustive:
            flags.append("--exhaustive")
        jobs.append((f"optimize-{tag}-ring{n}c{chords}p{len(cands)}b{budget}",
                     "optimize", graph, flags))
    return jobs


#: Node-count ranges per workload, full size and smoke size.
SIZES = {
    "rate-scan": {"full": (9, 10, 11), "smoke": (4, 5, 5)},
    "pack-simulate": {"full": (4, 10), "smoke": (4, 6)},
    "plan": {"full": (6, 9), "smoke": (5, 6)},
}

#: Wall seconds of the once-per-run jobs (per copy) and of one block of
#: each workload at the seed commit, on a shared 2-vCPU Xeon VM under its
#: usual load; they set how many blocks fill ``seconds``.
ONCE_SECONDS = {"rate-scan": 1.6, "pack-simulate": 2.2, "plan": 0.0}
BLOCK_SECONDS = {"rate-scan": 3.0, "pack-simulate": 2.3, "plan": 2.3}


def build_jobs(workload: str, seed: int, seconds: float, smoke: bool = False) -> list:
    """The job list: whole blocks sized to ``seconds`` (see :func:`copies`)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    blocks = 1 if smoke else max(
        1, round((seconds - ONCE_SECONDS[workload]) / BLOCK_SECONDS[workload]))
    jobs = []
    for block in range(blocks):
        rng = random.Random(f"{workload}/{seed}/{block}")
        if workload == "rate-scan":
            specs = _rate_scan_block(rng, block, sizes)
        elif workload == "pack-simulate":
            specs = _pack_simulate_block(rng, block, sizes)
        else:
            specs = _plan_block(rng, block, sizes)
        for tag, command, graph, flags in specs:
            jobs.append(Job(f"{len(jobs):03d}-{tag}", command, graph, flags))
    return jobs


def relabel(job: Job, copy: int) -> Job:
    """Copy number ``copy`` of ``job`` (0 is the job itself).

    Every node label, in the graph and in ``--candidates``, gets the same
    letter prefix, which keeps the labels' sorted order and so the work.
    """
    if copy == 0:
        return job
    prefix = chr(ord("a") + copy - 1)

    def name(label):
        return prefix + label

    def link(spec):
        pair, _, rate = spec.partition(":")
        u, v = pair.split("-")
        return f"{name(u)}-{name(v)}" + (f":{rate}" if rate else "")

    graph = {
        "nodes": [name(u) for u in job.graph["nodes"]],
        "edges": [{**e, "u": name(e["u"]), "v": name(e["v"])} for e in job.graph["edges"]],
    }
    flags = list(job.flags)
    if "--candidates" in flags:
        i = flags.index("--candidates") + 1
        flags[i] = ",".join(link(spec) for spec in flags[i].split(","))
    return Job(f"{job.id}-c{copy}", job.command, graph, flags, base=job.id)


def copies(jobs: list, count: int) -> list:
    """``count`` passes over ``jobs``, pass ``k`` running copy ``k`` of each.

    Raises ValueError if any job input repeats.
    """
    out = [relabel(job, k) for k in range(count) for job in jobs]
    seen = set()
    for job in out:
        key = (job.command, json.dumps(job.graph, sort_keys=True), tuple(job.flags))
        if key in seen:
            raise ValueError(f"job input {job.id} repeats within the run")
        seen.add(key)
    return out
