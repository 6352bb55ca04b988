import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import qnet_stp
from qnet_stp import WeightedGraph


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, ok in sorted(results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] criterion {number}: {name}")


def build(nodes, edges):
    return WeightedGraph(
        nodes, [(u, v, Fraction(r)) for u, v, r in edges]
    )


def ring(n):
    nodes = [str(i) for i in range(1, n + 1)]
    edges = [(nodes[i], nodes[(i + 1) % n], 1) for i in range(n)]
    return build(nodes, edges)


def complete(n, rate=1):
    nodes = [str(i) for i in range(1, n + 1)]
    edges = [
        (nodes[i], nodes[j], rate) for i in range(n) for j in range(i + 1, n)
    ]
    return build(nodes, edges)


def random_connected_graph(rng: random.Random, max_nodes=6, max_extra=3,
                           rates=(1, 2, 3)):
    """Random spanning tree plus a few extra edges; always connected."""
    n = rng.randint(2, max_nodes)
    nodes = [str(i) for i in range(1, n + 1)]
    edges = {}
    for i in range(1, n):
        j = rng.randint(0, i - 1)
        key = tuple(sorted((nodes[i], nodes[j])))
        edges[key] = Fraction(rng.choice(rates))
    for _ in range(rng.randint(0, max_extra)):
        a, b = rng.sample(nodes, 2)
        edges.setdefault(tuple(sorted((a, b))), Fraction(rng.choice(rates)))
    return build(nodes, [(u, v, r) for (u, v), r in edges.items()])


def sorted_path(n, rate):
    """Path on the labels ``0000``, ``0001``, ..., which sort in path order,
    with link ``i``-``(i+1)`` at ``rate(i)``."""
    nodes = [f"{i:04d}" for i in range(n)]
    return build(nodes, [(nodes[i], nodes[i + 1], rate(i)) for i in range(n - 1)])


def ladder_graph(n, edge_count, seed=1):
    """A ``random.Random(seed)`` spanning tree on ``1..n`` plus random pairs
    up to ``edge_count`` edges, rates 1 to 3: "sparse n" at ``2n - 1``
    edges, "dense n" at ``3n``."""
    rng = random.Random(seed)
    nodes = [str(i) for i in range(1, n + 1)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[tuple(sorted((nodes[i], nodes[j])))] = rng.randint(1, 3)
    while len(edges) < edge_count:
        a, b = rng.sample(nodes, 2)
        edges.setdefault(tuple(sorted((a, b))), rng.randint(1, 3))
    return build(nodes, [(u, v, r) for (u, v), r in edges.items()])


def bip_tie7():
    """Rate 5, first minimizer {0,1,2,3,4}{5}{6}, tied by the cut {0,1,2,3,5,6}{4}.

    The one small graph where ``analyze`` names a bipartition that is not
    the scan's minimizer, so the report runs the minimum-cut side search.
    """
    links = "0-1:4 0-3:3 0-5:3 1-2:3 1-3:4 1-4:1 1-5:1 2-3:4 2-4:4 3-6:2 5-6:4"
    edges = []
    for link in links.split():
        pair, rate = link.split(":")
        edges.append((*pair.split("-"), int(rate)))
    return build([str(i) for i in range(7)], edges)


@pytest.fixture
def triangle():
    return build(["1", "2", "3"], [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])


@pytest.fixture
def hexagon():
    return ring(6)


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def k4_minus():
    # complete graph on four nodes without the (3,4) edge
    return build(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("1", "3", 1), ("1", "4", 1), ("2", "3", 1), ("2", "4", 1)],
    )


@pytest.fixture
def tri_pendant():
    # triangle with one extra node hanging off vertex 3
    return build(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("2", "3", 1), ("1", "3", 1), ("3", "4", 1)],
    )


@pytest.fixture
def square():
    return ring(4)


@pytest.fixture
def square_diag():
    return build(
        ["1", "2", "3", "4"],
        [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("1", "4", 1), ("1", "3", 1)],
    )


@pytest.fixture
def two_cliques_hub():
    # two 4-cliques bridged by (4,5), both tied to a hub node 9
    nodes = [str(i) for i in range(1, 10)]
    edges = []
    for grp in (["1", "2", "3", "4"], ["5", "6", "7", "8"]):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((grp[i], grp[j], 1))
    edges += [("4", "5", 1), ("1", "9", 1), ("8", "9", 1)]
    return build(nodes, edges)


@pytest.fixture
def square_diag_tail():
    # square with a diagonal, plus a two-node tail on vertices 1 and 2
    return build(
        [str(i) for i in range(1, 7)],
        [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("1", "4", 1),
         ("1", "3", 1), ("1", "5", 1), ("2", "6", 1), ("5", "6", 1)],
    )


@pytest.fixture
def star4():
    return build(["c", "1", "2", "3"], [("c", "1", 1), ("c", "2", 1), ("c", "3", 1)])


@pytest.fixture
def path4():
    return build(["1", "2", "3", "4"], [("1", "2", 1), ("2", "3", 1), ("3", "4", 1)])


@pytest.fixture
def relay_tree_edges():
    # nine-node tree: two stars meeting across the (6,7) trunk edge
    return [("1", "4"), ("2", "4"), ("3", "5"), ("4", "6"),
            ("5", "6"), ("6", "7"), ("7", "8"), ("7", "9")]


def run_measured(script: str) -> tuple[int, str, float, float]:
    """Run ``script`` in a new interpreter that can import ``qnet_stp`` and conftest.

    Returns its exit code, its stdout, the CPU seconds it used
    (interpreter start included) and its own peak RSS in MB.  A child
    started by vfork and exec keeps its parent's ``ru_maxrss``, so the
    peak is read from ``VmHWM`` where the system reports it.
    """
    src = os.path.dirname(os.path.dirname(qnet_stp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    probe = (
        "import atexit, resource, sys, time\n"
        "def _report():\n"
        "    try:\n"
        "        with open('/proc/self/status') as f:\n"
        "            kb = next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "    except (OSError, StopIteration):\n"
        "        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(time.process_time(), kb, file=sys.stderr)\n"
        "atexit.register(_report)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe + script], capture_output=True, text=True, env=env, timeout=60
    )
    seconds, kb = done.stderr.split()[-2:]
    return done.returncode, done.stdout, float(seconds), int(kb) / 1024
