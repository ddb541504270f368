"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``-rA``); the assertions carry the same conditions. Expected limits marked
as pre-computed were frozen from an independent dense-operator brute-force
oracle before the library was built.
"""

import time

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.corpus import (
    random_circulant_symmetric,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk.szegedy import SzegedyOperator

from conftest import stationary_2x2

# exact two-node limits, frozen from the independent oracle
LIMIT_TQ1 = 9 / 11
LIMIT_TQ2 = 153 / 299  # 0.51170568...
LIMIT_TQ3 = 8 / 9


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_theorem_suite(theorem_corpus):
    start = time.monotonic()
    dev1 = dev2 = dev3 = 0.0
    for g in theorem_corpus:
        fam1 = sw.build_family(g, 1, 10)
        fam2 = sw.build_family(g, 2, 11)
        dev1 = max(dev1, float(np.abs(fam1.member(1).g - g.g).max()))
        dev2 = max(dev2, float(np.abs(fam2.member(2).g - g.g).max()))
        for t in range(1, 11):
            dev3 = max(dev3, float(np.abs(fam1.member(t).g - fam2.member(t + 1).g).max()))
    elapsed = time.monotonic() - start
    ok = dev1 < 1e-12 and dev2 < 1e-12 and dev3 < 1e-12 and elapsed < 30
    _report(
        "criterion 1 (classical limits and class equivalence)",
        ok,
        f"devs {dev1:.1e}/{dev2:.1e}/{dev3:.1e} < 1e-12 on 100 matrices in {elapsed:.1f}s",
    )


def test_criterion_02_unitarity_and_matrix_free(theorem_corpus):
    rng = rng_from_seed(1)
    dev_u = dev_mf = 0.0
    for g in theorem_corpus:
        op = SzegedyOperator(g)
        u = op.dense()
        dev_u = max(dev_u, float(np.abs(u.conj().T @ u - np.eye(g.n * g.n)).max()))
        amp = rng.normal(size=g.n * g.n) + 1j * rng.normal(size=g.n * g.n)
        state = sw.EdgeState(amp / np.linalg.norm(amp))
        dev_mf = max(dev_mf, float(np.abs(op.apply(state).amp - u @ state.amp).max()))
    ok = dev_u < 1e-10 and dev_mf < 1e-10
    _report(
        "criterion 2 (unitarity, matrix-free agreement)",
        ok,
        f"|U+U-1| {dev_u:.1e}, matrix-free dev {dev_mf:.1e}, both < 1e-10",
    )


def test_criterion_03_cycle_oracle_equivalence():
    worst = 0.0
    predictions_ok = True
    measured = {}
    for n in range(3, 13):
        g = sw.cycle_graph(n)
        fam = sw.build_family(g, 1, 2 * n)
        for t in range(1, 2 * n + 1):
            worst = max(worst, float(np.abs(sw.cycle_semiclassical(n, t).g - fam.member(t).g).max()))
        pred = sw.cycle_predictions(n)
        got = (
            sw.distinct_matrices(fam),
            sw.family_period(fam),
            sw.unitary_period(g, 2 * n),
        )
        measured[n] = got
        predictions_ok &= got == (pred.distinct_count, pred.family_period, pred.unitary_period)
    ok = worst < 1e-12 and predictions_ok and measured[6] == (4, 6, 6) and measured[7] == (4, 7, 14)
    _report(
        "criterion 3 (cycle closed form and predictions)",
        ok,
        f"closed-form dev {worst:.1e} < 1e-12; n=6 {measured[6]}, n=7 {measured[7]}",
    )


def test_criterion_04_graph_breaking():
    fam6 = sw.build_family(sw.cycle_graph(6), 1, 6)
    fam7 = sw.build_family(sw.cycle_graph(7), 1, 2)
    ok = (
        sw.components(fam6.member(2)) == [[0, 2, 4], [1, 3, 5]]
        and sw.components(fam6.member(3)) == [[0, 3], [1, 4], [2, 5]]
        and sw.components(fam6.member(6)) == [[i] for i in range(6)]
        and sw.components(fam7.member(2)) == [list(range(7))]
    )
    chain_ok = all(
        sorted(np.flatnonzero(fam7.member(2).g[:, i] > 1e-9).tolist())
        == sorted({(i + 2) % 7, (i - 2) % 7})
        for i in range(7)
    )
    _report(
        "criterion 4 (graph breaking)",
        ok and chain_ok,
        "6-cycle: triangles, opposite pairs, singletons; 7-cycle: 0-2-4-6-1-3-5 chain",
    )


def test_criterion_05_symmetric_fixed_points():
    rng = rng_from_seed(2)
    dev4 = dev5 = 0.0
    for k in range(50):
        g = random_symmetric_stochastic(2 + k % 7, rng)
        uniform = np.full(g.n, 1.0 / g.n)
        dev4 = max(dev4, float(np.abs(g.g @ uniform - uniform).max()))
        op = SzegedyOperator(g)
        psi = op.uniform_superposition()
        dev5 = max(dev5, float(np.abs(op.apply(psi).amp - psi.amp).max()))
    ok = dev4 < 1e-12 and dev5 < 1e-12
    _report(
        "criterion 5 (uniform fixed points)",
        ok,
        f"matrix dev {dev4:.1e}, operator dev {dev5:.1e}, both < 1e-12 on 50 symmetric inputs",
    )


def test_criterion_06_two_node_reproduction(two_node, p0_experiment):
    series = [float(sw.evolve(two_node, p0_experiment, t).p[1]) for t in range(3)]
    series_ok = (
        abs(series[0] - 0.2) < 1e-12
        and abs(series[1] - 0.88) < 1e-12
        and abs(series[2] - 0.812) < 1e-12
    )
    limits = {}
    for t_q in (1, 2, 3):
        member = sw.semiclassical_matrix(two_node, t_q, 1)
        res = sw.limiting_distribution(member, p0_experiment)
        limits[t_q] = float(res.distribution.p[1])
    exact_ok = (
        abs(limits[1] - LIMIT_TQ1) < 1e-3
        and abs(limits[2] - LIMIT_TQ2) < 1e-6
        and abs(limits[3] - LIMIT_TQ3) < 1e-6
    )
    # closed-form route as a second, independent check of the same limits
    oracle_ok = all(
        abs(limits[t] - stationary_2x2(sw.semiclassical_matrix(two_node, t, 1).g)[1]) < 1e-6
        for t in (1, 2, 3)
    )
    rounded_ok = abs(limits[2] - 0.51) <= 0.01 and abs(limits[3] - 0.89) <= 0.01
    ok = series_ok and exact_ok and oracle_ok and rounded_ok
    _report(
        "criterion 6 (two-node evolution and limits)",
        ok,
        f"node-1 series {np.round(series, 4).tolist()}, limits "
        f"{{1: {limits[1]:.4f}, 2: {limits[2]:.4f}, 3: {limits[3]:.4f}}}",
    )


def test_criterion_07_circuit_verification(two_node, p0_experiment):
    alpha, theta0, theta1 = sw.prep_angles(two_node, p0_experiment)
    angles_ok = (
        f"{alpha:.3g}" == "0.927" and f"{theta0:.3g}" == "2.5" and f"{theta1:.3g}" == "2.21"
    )
    block_dev = max(sw.verify_block(two_node, t) for t in (1, 2, 3))
    channel_dev = max(
        float(np.abs(sw.segment_channel(two_node, t) - sw.semiclassical_matrix(two_node, t, 1).g).max())
        for t in (1, 2, 3)
    )
    ok = angles_ok and block_dev < 1e-9 and channel_dev < 1e-10
    _report(
        "criterion 7 (circuit verification)",
        ok,
        f"angles ({alpha:.3f}, {theta0:.3f}, {theta1:.3f}); block dev {block_dev:.1e} < 1e-9; "
        f"channel dev {channel_dev:.1e} < 1e-10",
    )


def test_criterion_08_sampler_statistics(two_node):
    worst_l1 = 0.0
    for x0 in range(2):
        batch = sw.sample_trajectories(two_node, x0, 1, seed=0, count=20000)
        freq = np.bincount(batch[:, 1], minlength=2) / len(batch)
        worst_l1 = max(worst_l1, float(np.abs(freq - two_node.g[:, x0]).sum()))
    again = sw.sample_trajectories(two_node, 0, 500, seed=42, count=1)[0]
    repeat = sw.sample_trajectories(two_node, 0, 500, seed=42, count=1)[0]
    bytes_ok = again.tobytes() == repeat.tobytes()
    ok = worst_l1 < 0.05 and bytes_ok
    _report(
        "criterion 8 (sampler statistics)",
        ok,
        f"worst empirical L1 {worst_l1:.3f} < 0.05 over 20000 shots per node; "
        f"identical seeds byte-identical: {bytes_ok}",
    )


def test_criterion_09_symmetry_breaking_and_ranking(hub):
    fam = sw.build_family(hub, 1, 6)
    member_asym_ok = sw.asymmetry(fam.member(1)) < 1e-12 and all(
        sw.asymmetry(fam.member(t)) > 1e-6 for t in range(2, 7)
    )
    t_q_max, burn_in = 300, 200
    result = sw.semiclassical_rank(hub, 1, t_q_max)
    final = result.final_average.p
    non_uniform = float(np.abs(final - 1.0 / hub.n).max()) > 1e-3
    hub_first = result.ordering[0] == 3
    increments = np.abs(np.diff(result.running_averages, axis=0)).max(axis=1)
    tail = float(increments[burn_in:].max())
    ok = member_asym_ok and non_uniform and hub_first and tail < 1e-3
    _report(
        "criterion 9 (symmetry breaking and ranking)",
        ok,
        f"member-1 symmetric, members 2..6 asymmetric; ordering {list(result.ordering)}; "
        f"running-average increments beyond t_q={burn_in}: {tail:.2e} < 1e-3",
    )


def test_criterion_10_homogeneous_symmetry_regression():
    rng = rng_from_seed(3)
    worst = 0.0
    for k in range(50):
        g = random_circulant_symmetric(3 + k % 8, rng)
        for m in sw.build_family(g, 1, 12).members:
            worst = max(worst, sw.asymmetry(m))
    ok = worst < 1e-9
    _report(
        "criterion 10 (homogeneous symmetric inputs never break symmetry)",
        ok,
        f"max member asymmetry {worst:.1e} < 1e-9 over 50 circulant symmetric matrices",
    )
