"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``-rA``); the assertions carry the same conditions. The checks that
``semiwalk verify`` makes come from ``semiwalk.verify``, run here on this
suite's own fixtures; each test adds only what that suite does not check.
Expected limits marked as pre-computed were frozen from an independent
dense-operator brute-force oracle before the library was built.
"""

import time

import numpy as np

import semiwalk as sw
from semiwalk import verify
from semiwalk.corpus import rng_from_seed

from conftest import stationary_2x2

# exact two-node limits, frozen from the independent oracle
LIMIT_TQ1 = 9 / 11
LIMIT_TQ2 = 153 / 299  # 0.51170568...
LIMIT_TQ3 = 8 / 9


def _report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _report_checks(criterion: str, checks: list[dict], ok: bool = True, detail: str = ""):
    """Report the suite's records together with this test's own condition ``ok``."""
    parts = [f"{c['name']}{'' if c['passed'] else ' FAILED'} {c['detail']}" for c in checks]
    passed = ok and all(c["passed"] for c in checks)
    _report(criterion, passed, "; ".join(parts + ([detail] if detail else [])))


def test_criterion_01_theorem_suite(theorem_corpus):
    start = time.monotonic()
    checks = verify.classical_limit_checks(theorem_corpus)
    elapsed = time.monotonic() - start
    _report_checks("criterion 1 (classical limits)", checks,
                   elapsed < 30, f"{len(theorem_corpus)} matrices in {elapsed:.1f}s (budget 30s)")


def test_criterion_02_unitarity_and_matrix_free(theorem_corpus):
    checks = verify.unitarity_checks(theorem_corpus, rng_from_seed(1))
    _report_checks("criterion 2 (class equivalence, unitarity, matrix-free agreement)", checks)


def test_criterion_03_cycle_oracle_equivalence():
    # the suite holds measured == predicted for every n, so these pin n = 6, 7
    pred = {n: sw.cycle_predictions(n) for n in (6, 7)}
    counts = {n: (p.distinct_count, p.family_period, p.unitary_period) for n, p in pred.items()}
    _report_checks("criterion 3 (cycle closed form and predictions)", verify.cycle_checks(range(3, 13)),
                   counts == {6: (4, 6, 6), 7: (4, 7, 14)}, f"n=6 {counts[6]}, n=7 {counts[7]}")


def test_criterion_04_graph_breaking():
    fam7 = sw.build_family(sw.cycle_graph(7), 1, 2)
    chain_ok = all(
        sorted(np.flatnonzero(fam7.member(2).g[:, i] > 1e-9).tolist())
        == sorted({(i + 2) % 7, (i - 2) % 7})
        for i in range(7)
    )
    _report_checks("criterion 4 (graph breaking)", verify.graph_breaking_checks(),
                   chain_ok, "7-cycle member 2: 0-2-4-6-1-3-5 chain")


def test_criterion_05_symmetric_fixed_points():
    checks = verify.fixed_point_checks(rng_from_seed(2), [2 + k % 7 for k in range(50)])
    _report_checks("criterion 5 (uniform fixed points)", checks)


def test_criterion_06_two_node_reproduction(two_node):
    assert verify.TWO_NODE_LIMITS == {1: LIMIT_TQ1, 2: LIMIT_TQ2, 3: LIMIT_TQ3}
    # closed-form route as a second, independent check of the same limits
    oracle = {t: stationary_2x2(sw.semiclassical_matrix(two_node, t, 1).g)[1] for t in (1, 2, 3)}
    oracle_ok = all(abs(oracle[t] - verify.TWO_NODE_LIMITS[t]) < 1e-6 for t in (1, 2, 3))
    rounded_ok = abs(LIMIT_TQ2 - 0.51) <= 0.01 and abs(LIMIT_TQ3 - 0.89) <= 0.01
    _report_checks("criterion 6 (two-node evolution and limits)", verify.two_node_checks(),
                   oracle_ok and rounded_ok,
                   f"closed-form limits {{1: {oracle[1]:.4f}, 2: {oracle[2]:.4f}, 3: {oracle[3]:.4f}}}")


def test_criterion_07_circuit_verification(two_node, p0_experiment):
    alpha, theta0, theta1 = sw.prep_angles(two_node, p0_experiment)
    angles_ok = (
        f"{alpha:.3g}" == "0.927" and f"{theta0:.3g}" == "2.5" and f"{theta1:.3g}" == "2.21"
    )
    _report_checks("criterion 7 (circuit verification)", verify.circuit_checks(),
                   angles_ok, f"angles ({alpha:.3g}, {theta0:.3g}, {theta1:.3g}) to 3 digits")


def test_criterion_08_sampler_statistics(two_node):
    again = sw.sample_trajectories(two_node, 0, 500, seed=42, count=1)[0]
    repeat = sw.sample_trajectories(two_node, 0, 500, seed=42, count=1)[0]
    bytes_ok = again.tobytes() == repeat.tobytes()
    _report_checks("criterion 8 (sampler statistics)", verify.sampler_checks(0),
                   bytes_ok, f"identical seeds byte-identical: {bytes_ok}")


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
    checks = verify.homogeneous_symmetry_checks(rng_from_seed(3), [3 + k % 8 for k in range(50)])
    _report_checks("criterion 10 (homogeneous symmetric inputs never break symmetry)", checks)
