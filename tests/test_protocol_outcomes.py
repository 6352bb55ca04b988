"""Outcome digests of the protocol's library calls on hand-made packings.

Each of 3,000 seeded cases builds a network on 2 to 5 nodes, with rates
0, 1/2 and whole, and a packing by hand: trees with foreign and repeated
edges, empty, short and long trees, multiplicities 0 to 3 and round
counts 0, 1 to 3 and ``True``.  Each case runs through
``run_packing_protocol``, ``consumption_schedule``, ``secrecy_audit``
(with the protocol's schedule and with a perturbed one),
``generate_keys`` and ``orient_tree``.  Each call's result repr, or its
error class and message, goes into the case's digest, which must match
``protocol_outcomes.json``; so a refactor of the protocol that is meant
to keep every result and every refusal proves that it kept them.

To re-record (only when an outcome is meant to change, and say so in
CHANGES.md)::

    PYTHONPATH=src python tests/test_protocol_outcomes.py --record

It prints the number of cases whose digest changed before it writes the
table.
"""

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from qnet_stp import (
    SpanningTree,
    TreePacking,
    WeightedGraph,
    generate_keys,
    orient_tree,
    run_packing_protocol,
    secrecy_audit,
)
from qnet_stp.protocol import consumption_schedule

OUTCOMES = Path(__file__).with_name("protocol_outcomes.json")
SEED, CASES = 5200, 3000


def hand_made(rng: random.Random) -> tuple:
    """A network, a packing built without its constructors' checks, and a seed."""
    nodes = [str(i) for i in range(1, rng.randint(2, 5) + 1)]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    present = [p for p in pairs if rng.random() < 0.7]
    rates = [0, "1/2", 1, 1, 2, 2, 3] if rng.random() < 0.15 else [0, 1, 1, 2, 2, 3]
    g = WeightedGraph(nodes, [(u, v, rng.choice(rates), rng.choice([0, 0, "1/1000", "1/3"]))
                              for u, v in present])
    foreign = [p for p in pairs if p not in present] + [(nodes[0], "9")]
    trees = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["spanning", "spanning", "empty", "short", "long"])
        if kind == "empty" or not present:
            edges = []
        elif kind == "spanning":  # a spanning forest of the links, in random order
            shuffled = rng.sample(present, len(present))
            edges, joined = [], {v: {v} for v in nodes}
            for u, v in shuffled:
                if joined[u] is not joined[v]:
                    edges.append((u, v))
                    merged = joined[u] | joined[v]
                    for x in merged:
                        joined[x] = merged
        elif kind == "short":
            edges = rng.sample(present, rng.randint(1, min(len(present), max(1, len(nodes) - 2))))
        else:
            edges = rng.sample(present, rng.randint(min(len(nodes), len(present)), len(present)))
        if rng.random() < 0.15:
            edges.append(rng.choice(foreign))
        if edges and rng.random() < 0.1:
            edges.append(rng.choice(edges))
        trees.append(SpanningTree.of(edges))
    if trees and rng.random() < 0.1:
        trees.insert(rng.randrange(len(trees)), rng.choice(trees))
    mults = [rng.randint(0, 3) for _ in trees]
    rounds = rng.choice([0, 1, 1, 2, 2, 3, 3, True])
    return g, TreePacking(tuple(trees), tuple(mults), rounds), rng.randint(0, 3)


def perturbed(rng: random.Random, pk, schedule) -> list:
    """The protocol's ``schedule`` with one step changed or, where the protocol
    refused one, a schedule made up by hand."""
    if schedule is None:
        return [{key: rng.randint(-1, 3) for key in tree.edges if rng.random() < 0.9}
                for _, _, tree in pk.instances()]
    schedule = [dict(step) for step in schedule]
    change = rng.choice(["index", "index", "reuse", "drop key", "drop step", "add step"])
    steps = [step for step in schedule if step]
    if change == "drop step" and schedule:
        schedule.pop()
    elif change == "add step":
        schedule.append(dict(schedule[-1]) if schedule else {})
    elif steps:
        step = rng.choice(steps)
        key = rng.choice(sorted(step))
        if change == "drop key":
            del step[key]
        elif change == "reuse":
            step[key] = rng.choice([s[key] for s in schedule if key in s])
        else:
            step[key] = rng.randint(-1, step[key] + 2)
    return schedule


def outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # recorded, never raised past the case
        return f"{type(exc).__name__}: {exc}"


def pools(km) -> tuple:
    return km.pools, km.seed


def outcomes(rng: random.Random) -> dict:
    """Each call's outcome on one case, by call."""
    g, pk, seed = hand_made(rng)
    try:
        schedule = consumption_schedule(g, pk)
        made = repr(schedule)
    except Exception as exc:
        schedule, made = None, f"{type(exc).__name__}: {exc}"
    changed = perturbed(rng, pk, schedule)
    pairs = [edge for tree in pk.trees for edge in tree.edges[:1]] + [("1", "9")]
    return {
        "run_packing_protocol": outcome(lambda: run_packing_protocol(g, pk, seed)),
        "consumption_schedule": made,
        "secrecy_audit": outcome(lambda: secrecy_audit(g, pk)),
        "secrecy_audit perturbed": outcome(lambda: secrecy_audit(g, pk, schedule=changed)),
        "generate_keys": outcome(lambda: pools(generate_keys(g, pk.rounds, seed))),
        "orient_tree": "\n".join(outcome(lambda: orient_tree(tree)) for tree in pk.trees),
        "orient_tree conference edge": "\n".join(
            outcome(lambda: orient_tree(tree, rng.choice(pairs))) for tree in pk.trees),
    }


def kind(text: str) -> str:
    """An outcome's class: the error's or the record's name, or ``list`` or ``tuple``."""
    if text[0] in "[(":
        return {"[": "list", "(": "tuple"}[text[0]]
    return text.split("(", 1)[0].split(":", 1)[0]


def table() -> dict:
    """Per case its digest, and per call how often each outcome class came."""
    rng = random.Random(SEED)
    digests, tally = [], {}
    for _ in range(CASES):
        results = outcomes(rng)
        digests.append(hashlib.sha256("\n\n".join(results.values()).encode()).hexdigest()[:16])
        for call, text in results.items():
            for line in text.split("\n") if call.startswith("orient_tree") else [text]:
                if line:
                    tally.setdefault(call, Counter())[kind(line)] += 1
    return {"tally": {call: dict(sorted(c.items())) for call, c in sorted(tally.items())},
            "digests": digests}


def test_protocol_outcomes_match_the_recorded_digests():
    recorded = json.loads(OUTCOMES.read_text(encoding="utf-8"))
    now = table()
    differ = [i for i, (a, b) in enumerate(zip(now["digests"], recorded["digests"])) if a != b]
    assert len(now["digests"]) == len(recorded["digests"]) == CASES
    assert not differ, f"{len(differ)} cases differ, the first {differ[:10]}"
    assert now["tally"] == recorded["tally"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_protocol_outcomes.py --record")
    old = json.loads(OUTCOMES.read_text(encoding="utf-8")) if OUTCOMES.exists() else {"digests": []}
    new = table()
    changed = sum(a != b for a, b in zip(old["digests"], new["digests"]))
    print(f"changed: {changed} of {len(old['digests'])} recorded cases")
    OUTCOMES.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {CASES} cases in {OUTCOMES}")
