"""End-to-end acceptance battery.

Each test covers one numbered criterion and registers a PASS/FAIL line
that the terminal-summary hook prints after the run (use ``-s`` to see
the lines immediately).  Every criterion asserts, so a red line also
fails the suite.
"""

import itertools
import random
from fractions import Fraction

from qnet_stp import (
    SpanningTree,
    TreePacking,
    announce,
    basic_algorithm,
    best_additions,
    brute_force_packing,
    check_no_bottleneck,
    evaluate_addition,
    explicit_rates_no_bottleneck,
    general_algorithm,
    generate_keys,
    nwt_length,
    nwt_rate,
    orient_tree,
    packing_rate,
    partition_bound,
    rates_from_packing,
    recover,
    run_packing_protocol,
    secrecy_audit,
    security_budget,
    validate_packing,
)
from qnet_stp.netgraph import VertexPartition, WeightedGraph, contract
from qnet_stp.protocol import consumption_schedule

from conftest import build, complete, random_connected_graph, ring
from reference_scans import enumerate_partitions, solve_z, verify_constraints

RESULTS = []


def record(number, name, failures):
    ok = not failures
    RESULTS.append((number, name, ok))
    detail = "" if ok else f" -- {failures[0]}" + (
        f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}{detail}")
    assert ok, f"criterion {number}: {failures}"


def all_connected_graphs(max_nodes=4, rates=(1, 2)):
    """Every connected labeled graph up to ``max_nodes``, every rate choice."""
    for n in range(2, max_nodes + 1):
        nodes = [str(i) for i in range(1, n + 1)]
        keys = [(nodes[i], nodes[j]) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(keys)):
            chosen = [keys[i] for i in range(len(keys)) if mask >> i & 1]
            if len(chosen) < n - 1:
                continue
            parent = {v: v for v in nodes}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in chosen:
                parent[find(u)] = find(v)
            if len({find(v) for v in nodes}) != 1:
                continue
            for combo in itertools.product(rates, repeat=len(chosen)):
                yield build(nodes, [
                    (u, v, r) for (u, v), r in zip(chosen, combo)
                ])


# ---------------------------------------------------------------------------

def test_criterion_1_reference_rates():
    failures = []
    cases = [
        (build(["1", "2", "3"],
               [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)]), Fraction(3, 2)),
        (build(["1", "2", "3", "4"],
               [("1", "2", 1), ("1", "3", 1), ("1", "4", 1),
                ("2", "3", 1), ("2", "4", 1)]), Fraction(5, 3)),
        (complete(4), Fraction(2)),
        (build(["1", "2", "3", "4"],
               [("1", "2", 1), ("2", "3", 1), ("1", "3", 1), ("3", "4", 1)]),
         Fraction(1)),
        (ring(6), Fraction(6, 5)),
    ]
    for g, expected in cases:
        got = nwt_rate(g).rate
        if got != expected:
            failures.append(f"{g.sorted_nodes()}: {got} != {expected}")
    for n in range(2, 7):
        nodes = [str(i) for i in range(1, n + 1)]
        star = build(nodes, [(nodes[0], v, 1) for v in nodes[1:]])
        path = build(nodes, [(nodes[i], nodes[i + 1], 1) for i in range(n - 1)])
        for g in (star, path):
            if nwt_rate(g).rate != 1:
                failures.append(f"unit tree on {n} nodes: rate != 1")
    rng = random.Random(100)
    for _ in range(20):
        g = random_connected_graph(rng, max_nodes=6, max_extra=0, rates=(1,))
        if nwt_rate(g).rate != 1:
            failures.append("random unit tree: rate != 1")
    record(1, "reference rates on the worked fixtures", failures)


def test_criterion_2_hexagon_case_study():
    failures = []
    hexagon = ring(6)
    r14 = evaluate_addition(hexagon, "1", "4")
    if r14.rate_after != Fraction(7, 5):
        failures.append(f"(1,4): {r14.rate_after}")
    r26 = evaluate_addition(hexagon, "2", "6")
    if r26.rate_after != Fraction(4, 3):
        failures.append(f"(2,6): {r26.rate_after}")
    if r26.minimizing_partition != VertexPartition.from_blocks(
        [["1", "2", "6"], ["3"], ["4"], ["5"]]
    ):
        failures.append(f"(2,6) partition: {r26.minimizing_partition}")
    after14 = r14.graph
    for u, v in (("2", "6"), ("3", "6")):
        r = evaluate_addition(after14, u, v)
        if r.rate_after != Fraction(8, 5):
            failures.append(f"({u},{v}) after (1,4): {r.rate_after}")
    r15 = evaluate_addition(after14, "1", "5")
    if r15.rate_after != Fraction(3, 2):
        failures.append(f"(1,5) after (1,4): {r15.rate_after}")
    if r15.minimizing_partition != VertexPartition.from_blocks(
        [["1", "4", "5", "6"], ["2"], ["3"]]
    ):
        failures.append(f"(1,5) partition: {r15.minimizing_partition}")
    plan = best_additions(hexagon, [("1", "4"), ("2", "6")], 1)
    if plan.steps[0].edge != ("1", "4") or plan.final_rate != Fraction(7, 5):
        failures.append("greedy does not pick (1,4) first")
    record(2, "hexagon augmentation case study", failures)


def test_criterion_3_key_rate_equals_partition_minimum():
    failures = []
    count = 0
    for g in all_connected_graphs(max_nodes=4, rates=(1, 2)):
        count += 1
        if solve_z(g) != nwt_rate(g).rate:
            failures.append(f"exhaustive mismatch on {g.to_json()}")
            break
    if count < 600:
        failures.append(f"exhaustive sweep too small: {count}")
    rng = random.Random(300)
    for _ in range(500):
        n = rng.randint(2, 7)
        rates = tuple(
            Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(6)
        )
        g = random_connected_graph(rng, max_nodes=n, max_extra=4, rates=rates)
        if solve_z(g) != nwt_rate(g).rate:
            failures.append(f"random mismatch on {g.to_json()}")
            break
    record(3, "omniscience key rate equals the partition minimum "
              f"({count} exhaustive + 500 random graphs)", failures)


def test_criterion_4_exact_packer_reaches_length_formula():
    failures = []
    count = 0
    for g in all_connected_graphs(max_nodes=4, rates=(1, 2)):
        for n in (1, 2, 3):
            count += 1
            got = brute_force_packing(g, n).packing.tree_count
            want = nwt_length(g, n)
            if got != want:
                failures.append(f"{g.to_json()} n={n}: {got} != {want}")
                break
        if failures:
            break
    triangle = build(["1", "2", "3"],
                     [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])
    if brute_force_packing(triangle, 2).packing.tree_count != 3:
        failures.append("triangle with two rounds must pack three trees")
    record(4, f"exact packer matches the length formula ({count} cases)",
           failures)


def test_criterion_5_heuristics_optimal_on_fixtures():
    failures = []
    k4_minus = build(["1", "2", "3", "4"],
                     [("1", "2", 1), ("1", "3", 1), ("1", "4", 1),
                      ("2", "3", 1), ("2", "4", 1)])
    tri_pendant = build(["1", "2", "3", "4"],
                        [("1", "2", 1), ("2", "3", 1), ("1", "3", 1),
                         ("3", "4", 1)])
    square_diag = build(["1", "2", "3", "4"],
                        [("1", "2", 1), ("2", "3", 1), ("3", "4", 1),
                         ("1", "4", 1), ("1", "3", 1)])
    tail = build([str(i) for i in range(1, 7)],
                 [("1", "2", 1), ("2", "3", 1), ("3", "4", 1), ("1", "4", 1),
                  ("1", "3", 1), ("1", "5", 1), ("2", "6", 1), ("5", "6", 1)])
    triangle = build(["1", "2", "3"],
                     [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)])
    hexagon = ring(6)
    hx = {"h": hexagon}
    hx["h14"] = hexagon.with_edge("1", "4", Fraction(1))
    hx["h26"] = hexagon.with_edge("2", "6", Fraction(1))
    hx["h14_26"] = hx["h14"].with_edge("2", "6", Fraction(1))
    hx["h14_15"] = hx["h14"].with_edge("1", "5", Fraction(1))

    basics = {
        "triangle": triangle, "k4": complete(4), "k4_minus": k4_minus,
        "square": ring(4), "square_diag": square_diag,
        "hexagon": hexagon, "hexagon+14": hx["h14"],
        "hexagon+14+26": hx["h14_26"],
    }
    generals = {
        "tri_pendant": tri_pendant, "tail": tail,
        "hexagon+26": hx["h26"], "hexagon+14+15": hx["h14_15"],
        "two_cliques_hub": None,  # built below
    }
    nodes = [str(i) for i in range(1, 10)]
    edges = []
    for grp in (["1", "2", "3", "4"], ["5", "6", "7", "8"]):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((grp[i], grp[j], 1))
    edges += [("4", "5", 1), ("1", "9", 1), ("8", "9", 1)]
    generals["two_cliques_hub"] = build(nodes, edges)

    for name, g in basics.items():
        out = basic_algorithm(g)
        want = nwt_rate(g).rate
        if out.achieved_rate != want or not validate_packing(g, out.packing).ok:
            failures.append(f"basic on {name}: {out.achieved_rate} vs {want}")
    for name, g in {**basics, **generals}.items():
        out = general_algorithm(g)
        want = nwt_rate(g).rate
        if out.achieved_rate != want or not validate_packing(g, out.packing).ok:
            failures.append(f"general on {name}: {out.achieved_rate} vs {want}")
    record(5, "heuristic packers reach the exact rate on every fixture",
           failures)


def test_criterion_6_protocol_and_secrecy():
    failures = []
    # the worked nine-node relay tree: seven announcements, two-hop chain
    relay_edges = [("1", "4"), ("2", "4"), ("3", "5"), ("4", "6"),
                   ("5", "6"), ("6", "7"), ("7", "8"), ("7", "9")]
    t = SpanningTree.of(relay_edges)
    g9 = build([str(i) for i in range(1, 10)],
               [(u, v, 1) for u, v in relay_edges])
    km = generate_keys(g9, 1, seed=11)
    ori = orient_tree(t, conference_edge=("6", "7"))
    first = dict.fromkeys(t.edges, 0)  # the first instance's bit indices
    anns = announce(ori, km, first)
    if len(anns) != 7:
        failures.append(f"relay tree: {len(anns)} announcements")
    rec = recover("1", ori, anns, km, first)
    if rec.chain != (("key", ("1", "4")),
                     ("announcement", "4", ("1", "4")),
                     ("announcement", "6", ("4", "6"))):
        failures.append(f"relay chain: {rec.chain}")
    if rec.bit != km.bit(("6", "7"), 0):
        failures.append("relay recovery wrong bit")

    fixtures = {
        "triangle": build(["1", "2", "3"],
                          [("1", "2", 1), ("1", "3", 1), ("2", "3", 1)]),
        "k4": complete(4),
        "tri_pendant": build(["1", "2", "3", "4"],
                             [("1", "2", 1), ("2", "3", 1), ("1", "3", 1),
                              ("3", "4", 1)]),
        "square": ring(4),
        "hexagon": ring(6),
        "relay_tree": g9,
    }
    for name, g in fixtures.items():
        pk = general_algorithm(g).packing
        for seed in range(100):
            tr = run_packing_protocol(g, pk, seed)
            if not tr.unanimity:
                failures.append(f"{name} seed {seed}: no unanimity")
                break

    audit_cases = [
        ("triangle n=2", fixtures["triangle"],
         brute_force_packing(fixtures["triangle"], 2).packing),
        ("triangle n=3", fixtures["triangle"],
         brute_force_packing(fixtures["triangle"], 3).packing),
        ("tri_pendant", fixtures["tri_pendant"],
         general_algorithm(fixtures["tri_pendant"]).packing),
        ("k4 n=1", fixtures["k4"], brute_force_packing(fixtures["k4"], 1).packing),
        ("square n=3", fixtures["square"],
         brute_force_packing(fixtures["square"], 3).packing),
        ("k4 n=3", fixtures["k4"], basic_algorithm(fixtures["k4"]).packing),
    ]
    for name, g, pk in audit_cases:
        report = secrecy_audit(g, pk)
        if not (report.uniform and report.edge_disjoint):
            failures.append(f"audit {name}: uniform={report.uniform}")
    # a packing that reuses one key bit across two trees must be caught
    tri = fixtures["triangle"]
    pk = brute_force_packing(tri, 2).packing
    schedule = [dict(step) for step in consumption_schedule(tri, pk)]
    schedule[1][("1", "2")] = schedule[0][("1", "2")]
    corrupted = secrecy_audit(tri, pk, schedule=schedule)
    if corrupted.uniform or corrupted.edge_disjoint:
        failures.append("bit-reusing schedule not flagged")
    record(6, "protocol unanimity and exhaustive secrecy audits", failures)


def test_criterion_7_packing_rates_and_closed_form():
    failures = []
    rng = random.Random(700)
    checked = 0
    while checked < 200:
        g = random_connected_graph(rng, max_nodes=5, rates=(1, 2, 3))
        n = rng.randint(1, 2)
        pk = brute_force_packing(g, n).packing
        if not pk.trees:
            continue
        if rng.random() < 0.4 and pk.tree_count > 1:
            mults = list(pk.multiplicities)
            mults[rng.randrange(len(mults))] -= 1
            pk = TreePacking.multigraph(pk.trees, mults, pk.rounds)
            if not pk.trees:
                continue
        checked += 1
        rates = rates_from_packing(g, pk)
        ok, violated = verify_constraints(g, rates.rates)
        if not ok:
            failures.append(f"packing rates infeasible at {violated}")
            break
        if g.total_rate() - rates.total() != packing_rate(pk):
            failures.append("rate identity violated")
            break
    found = 0
    attempts = 0
    while found < 100 and attempts < 3000:
        attempts += 1
        g = random_connected_graph(rng, max_nodes=6, rates=(1, 2, 3))
        if not check_no_bottleneck(g).ok:
            continue
        found += 1
        rates = explicit_rates_no_bottleneck(g)
        ok, violated = verify_constraints(g, rates.rates)
        if not ok:
            failures.append(f"closed-form rates infeasible at {violated}")
            break
        n = g.node_count
        if g.total_rate() - rates.total() != g.total_rate() / (n - 1):
            failures.append("closed-form key rate wrong")
            break
    if found < 100:
        failures.append(f"only {found} bottleneck-free graphs sampled")
    record(7, "announcement rates from packings and the closed form "
              f"({checked} packings, {found} closed-form graphs)", failures)


def test_criterion_8_security_budget():
    failures = []
    for n_nodes in (2, 3, 5, 6):
        for copies in (1, 2, 4):
            for eps in (Fraction(1, 10 ** 9), Fraction(1, 1000)):
                nodes = [str(i) for i in range(1, n_nodes + 1)]
                tree_edges = [(nodes[i], nodes[i + 1])
                              for i in range(n_nodes - 1)]
                g = build(nodes, [(u, v, copies) for u, v in tree_edges])
                pk = TreePacking.multigraph(
                    [SpanningTree.of(tree_edges)], [copies], copies
                )
                if not validate_packing(g, pk).ok:
                    failures.append(f"N={n_nodes} k={copies}: packing invalid")
                    continue
                budget = security_budget(pk, {e.key: eps for e in g.edges})
                if budget.per_tree != ((n_nodes - 1) * eps,) * copies:
                    failures.append(f"N={n_nodes} k={copies}: per-tree budget")
                if budget.merged != copies * (n_nodes - 1) * eps:
                    failures.append(f"N={n_nodes} k={copies}: merged budget")
    record(8, "security budget scales as trees times edges", failures)


def test_criterion_9_bound_properties():
    failures = []
    rng = random.Random(900)
    for trial in range(100):
        g = random_connected_graph(
            rng, max_nodes=6, rates=(1, 2, 3, Fraction(1, 2))
        )
        report = nwt_rate(g)
        partitions = list(enumerate_partitions(g))
        if any(partition_bound(g, p) < report.rate for p in partitions):
            failures.append(f"trial {trial}: some partition beats the rate")
            break
        p = rng.choice(partitions)
        if p.block_count >= 2:
            if nwt_rate(contract(g, p)).rate < report.rate:
                failures.append(f"trial {trial}: contraction lowered the rate")
                break
        u, v = rng.sample(g.sorted_nodes(), 2)
        bigger = g.with_edge(u, v, Fraction(rng.randint(1, 2)))
        if nwt_rate(bigger).rate < report.rate:
            failures.append(f"trial {trial}: adding an edge lowered the rate")
            break
        c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        scaled = build(g.sorted_nodes(),
                       [(e.u, e.v, e.rate * c) for e in g.edges])
        if nwt_rate(scaled).rate != c * report.rate:
            failures.append(f"trial {trial}: homogeneity broken")
            break
    record(9, "partition bounds, monotonicity and homogeneity "
              "(100 random graphs)", failures)
