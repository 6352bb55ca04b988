import os
import random
import subprocess
import sys
import time
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


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    """Every test starts from the default caps, whatever the caller's environment."""
    monkeypatch.delenv("QNET_STP_CAPS", raising=False)


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

    Returns its exit code, its stdout, the wall-clock seconds the run
    took (interpreter start included) and its peak RSS in MB.
    """
    src = os.path.dirname(os.path.dirname(qnet_stp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    probe = (
        "import atexit, resource, sys\n"
        "atexit.register(lambda: print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
        " file=sys.stderr))\n"
    )
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", probe + script], capture_output=True, text=True, env=env, timeout=60
    )
    seconds = time.perf_counter() - start
    return done.returncode, done.stdout, seconds, int(done.stderr.split()[-1]) / 1024
