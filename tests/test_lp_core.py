import random
from fractions import Fraction

import pytest

from qnet_stp import (
    brute_force_packing,
    explicit_rates_no_bottleneck,
    nwt_rate,
    packing_rate,
    rates_from_packing,
)
from qnet_stp.errors import (
    ExactModeLimitError,
    InvalidPackingError,
    PreconditionFailedError,
)

from conftest import build, complete, random_connected_graph, ring
from reference_scans import (
    build_lp,
    solve_lp,
    solve_z,
    verify_constraints,
    verify_optimality,
)


def test_lp_instance_shape(triangle):
    inst = build_lp(triangle)
    assert inst.constraint_count == 2 ** 3 - 2
    assert inst.total_rate == 3
    text = inst.to_text()
    assert "minimize" in text and "R_1" in text


def test_lp_cap():
    with pytest.raises(ExactModeLimitError):
        build_lp(ring(17))
    # refused before the 2^17 - 2 subsets are scanned
    with pytest.raises(ExactModeLimitError, match="17 nodes exceeds the cap of 16"):
        verify_constraints(ring(17), {str(i): Fraction(1) for i in range(1, 18)})


def test_triangle_solution(triangle):
    inst = build_lp(triangle)
    sol = solve_lp(inst)
    assert sol.omniscience_rate == Fraction(3, 2)
    assert sol.key_rate == Fraction(3, 2)
    # the minimum-sum announcement rates are unique here
    assert sol.rates_by_node(inst) == {
        "1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2)
    }
    assert verify_optimality(inst, sol)


def test_hexagon_solution(hexagon):
    inst = build_lp(hexagon)
    sol = solve_lp(inst)
    assert sol.key_rate == Fraction(6, 5)
    assert set(sol.rates_by_node(inst).values()) == {Fraction(4, 5)}
    assert verify_optimality(inst, sol)


def test_verify_optimality_rejects_tampering(triangle):
    inst = build_lp(triangle)
    sol = solve_lp(inst)
    worse = type(sol)(
        announcement_rates=(Fraction(1), Fraction(1), Fraction(1)),
        omniscience_rate=Fraction(3),
        key_rate=Fraction(0),
        basis=sol.basis,
        support=sol.support,
        pivots=sol.pivots,
    )
    assert not verify_optimality(inst, worse)


def test_key_rate_equals_partition_minimum_on_fixtures(
    triangle, hexagon, k4, k4_minus, tri_pendant, two_cliques_hub
):
    for g in (triangle, hexagon, k4, k4_minus, tri_pendant, two_cliques_hub):
        assert solve_z(g) == nwt_rate(g).rate


def test_key_rate_equals_partition_minimum_randomized():
    rng = random.Random(31)
    for _ in range(60):
        g = random_connected_graph(
            rng, max_nodes=6, rates=(1, 2, Fraction(1, 2), Fraction(3, 4))
        )
        assert solve_z(g) == nwt_rate(g).rate


def test_verify_constraints_detects_violation(triangle):
    ok, violated = verify_constraints(
        triangle, {"1": Fraction(0), "2": Fraction(0), "3": Fraction(0)}
    )
    assert not ok
    assert violated is not None
    good = {"1": Fraction(1), "2": Fraction(1), "3": Fraction(1)}
    assert verify_constraints(triangle, good) == (True, None)
    with pytest.raises(PreconditionFailedError):
        verify_constraints(triangle, {"1": Fraction(1)})


def test_explicit_rates_on_hexagon(hexagon):
    rates = explicit_rates_no_bottleneck(hexagon)
    assert set(rates.rates.values()) == {Fraction(4, 5)}
    assert rates.provenance == "closed-form"
    ok, _ = verify_constraints(hexagon, rates.rates)
    assert ok
    assert hexagon.total_rate() - rates.total() == Fraction(6, 5)


def test_explicit_rates_need_no_bottleneck(tri_pendant):
    with pytest.raises(PreconditionFailedError):
        explicit_rates_no_bottleneck(tri_pendant)


def test_rates_from_triangle_packing(triangle):
    pk = brute_force_packing(triangle, 2).packing
    rates = rates_from_packing(triangle, pk)
    assert rates.provenance == "packing"
    assert rates.rates == {
        "1": Fraction(1, 2), "2": Fraction(1, 2), "3": Fraction(1, 2)
    }
    assert triangle.total_rate() - rates.total() == packing_rate(pk)


def test_rates_from_packing_rejects_invalid(triangle, k4):
    pk = brute_force_packing(k4, 1).packing
    with pytest.raises(InvalidPackingError):
        rates_from_packing(triangle, pk)


def test_packing_rates_always_feasible():
    rng = random.Random(37)
    for _ in range(40):
        g = random_connected_graph(rng, max_nodes=5, rates=(1, 2, 3))
        n = rng.randint(1, 2)
        pk = brute_force_packing(g, n).packing
        if not pk.trees:
            continue
        rates = rates_from_packing(g, pk)
        ok, violated = verify_constraints(g, rates.rates)
        assert ok, violated
        assert g.total_rate() - rates.total() == packing_rate(pk)
