import numpy as np
import pytest

import semiwalk as sw
from semiwalk.corpus import random_stochastic, random_symmetric_stochastic, rng_from_seed
from semiwalk.errors import DimensionMismatchError, IndexOutOfRangeError, RankFailedError

from conftest import stationary_2x2


def test_evolve_zero_steps(two_node, p0_experiment):
    out = sw.evolve(two_node, p0_experiment, 0)
    assert np.array_equal(out.p, p0_experiment.p)


def test_evolve_two_node_series(two_node, p0_experiment):
    p1 = sw.evolve(two_node, p0_experiment, 1)
    assert np.abs(p1.p - [0.12, 0.88]).max() <= 1e-12
    p2 = sw.evolve(two_node, p0_experiment, 2)
    assert np.abs(p2.p - [0.188, 0.812]).max() <= 1e-12
    # independent route: explicit matrix power
    direct = np.linalg.matrix_power(two_node.g, 2) @ p0_experiment.p
    assert np.abs(p2.p - direct).max() <= 1e-12


def test_evolve_dimension_mismatch(two_node):
    with pytest.raises(DimensionMismatchError):
        sw.evolve(two_node, sw.ProbabilityVector.uniform(3), 1)


def test_evolve_conserves_probability():
    rng = rng_from_seed(61)
    for _ in range(10):
        m = random_stochastic(6, rng)
        out = sw.evolve(m, sw.ProbabilityVector.uniform(6), 50)
        assert abs(out.p.sum() - 1.0) <= 1e-12


def test_limiting_two_node_limit(two_node):
    res = sw.limiting_distribution(two_node, sw.ProbabilityVector(np.array([0.3, 0.7])))
    assert res.mode == "converged"
    assert np.abs(res.distribution.p - [2 / 11, 9 / 11]).max() <= 1e-7
    assert np.abs(res.distribution.p - stationary_2x2(two_node.g)).max() <= 1e-7


def test_limiting_fixed_point_certificate():
    rng = rng_from_seed(67)
    tol = 1e-8
    for _ in range(10):
        m = random_stochastic(5, rng)
        res = sw.limiting_distribution(m, tol=tol)
        assert res.mode == "converged"
        assert np.abs(m.g @ res.distribution.p - res.distribution.p).sum() <= 10 * tol


def test_limiting_symmetric_from_uniform_one_step():
    m = random_symmetric_stochastic(5, rng_from_seed(71))
    res = sw.limiting_distribution(m)
    assert res.mode == "converged"
    assert res.iterations == 1
    assert np.abs(res.distribution.p - 0.2).max() <= 1e-12


def test_limiting_four_cycle_cesaro_uniform():
    res = sw.limiting_distribution(sw.cycle_graph(4), sw.ProbabilityVector.point_mass(4, 0))
    assert res.mode == "cesaro"
    assert np.abs(res.distribution.p - 0.25).max() <= 1e-12
    # brute-force running mean approaches the same value
    p = np.array([1.0, 0.0, 0.0, 0.0])
    total = p.copy()
    for _ in range(20000):
        p = sw.cycle_graph(4).g @ p
        total += p
    assert np.abs(total / 20001 - res.distribution.p).max() <= 1e-3


def test_limiting_failure_mode(two_node):
    res = sw.limiting_distribution(two_node, tol=1e-12, max_iter=3)
    assert res.mode == "failed"


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9])
def test_limit_tolerance_must_be_positive(two_node, tol):
    # a NaN tol used to pass the check and run all max_iter iterations
    with pytest.raises(ValueError, match="tol must be positive"):
        sw.limiting_distribution(two_node, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        sw.semiclassical_rank(two_node, 1, 2, tol=tol)


def test_uniform_is_fixed_point_of_symmetric_matrices():
    rng = rng_from_seed(73)
    for k in range(100):
        m = random_symmetric_stochastic(2 + k % 7, rng)
        uniform = np.full(m.n, 1.0 / m.n)
        assert np.abs(m.g @ uniform - uniform).max() <= 1e-12


def test_rank_cycle_is_uniform_identity_order():
    result = sw.semiclassical_rank(sw.cycle_graph(6), 1, 6)
    assert np.abs(result.final_average.p - 1 / 6).max() <= 1e-9
    assert result.ordering == tuple(range(6))


def test_rank_hub_ordering(hub):
    result = sw.semiclassical_rank(hub, 1, 6)
    assert result.ordering[0] == 3  # the degree-4 hub
    assert result.ordering[1] == 4  # the secondary hub
    leaves = [result.final_average.p[i] for i in (0, 1, 2)]
    assert max(leaves) == pytest.approx(result.final_average.p[1])
    assert result.modes == ("converged",) * 6


def test_rank_two_node_average_is_mean_of_limits(two_node):
    result = sw.semiclassical_rank(two_node, 1, 3)
    # oracle: closed-form stationary vector of each member, then the plain mean
    fam = sw.build_family(two_node, 1, 3)
    expected = np.mean([stationary_2x2(m.g) for m in fam.members], axis=0)
    assert np.abs(result.final_average.p - expected).max() <= 1e-6
    assert np.abs(result.running_averages[-1] - result.final_average.p).max() == 0.0


def test_rank_failure_raises(two_node):
    with pytest.raises(RankFailedError):
        sw.semiclassical_rank(two_node, 1, 2, tol=1e-12, max_iter=3)


def test_rank_running_average_shape(hub):
    result = sw.semiclassical_rank(hub, 1, 8)
    assert result.running_averages.shape == (8, 7)
    np.testing.assert_allclose(
        result.running_averages[3], np.mean([d.p for d in result.limits[:4]], axis=0)
    )


def test_sample_permutation_member_alternates():
    member = sw.cycle_semiclassical(6, 3)
    traj = sw.sample_trajectory(member, 0, 7, seed=5)
    assert traj.nodes == (0, 3, 0, 3, 0, 3, 0, 3)


def test_sample_same_seed_identical(hub):
    a = sw.sample_trajectory(hub, 2, 40, seed=99)
    b = sw.sample_trajectory(hub, 2, 40, seed=99)
    assert a.nodes == b.nodes
    c = sw.sample_trajectory(hub, 2, 40, seed=100)
    assert c.nodes != a.nodes


def test_sample_transitions_follow_support(hub):
    traj = sw.sample_trajectory(hub, 0, 200, seed=3)
    for x, y in zip(traj.nodes, traj.nodes[1:]):
        assert hub.g[y, x] > 0


def test_sample_single_step_frequencies(two_node):
    trajectories = sw.sample_trajectories(two_node, 0, 1, seed=0, count=20000)
    freq = np.bincount([t.nodes[1] for t in trajectories], minlength=2) / 20000
    assert abs(freq[1] - 0.9) <= 0.02


def test_sample_batch_uses_derived_seeds(two_node):
    batch = sw.sample_trajectories(two_node, 0, 3, seed=12, count=4)
    assert [t.seed for t in batch] == [12 ^ k for k in range(4)]
    # each stream matches the equivalent standalone call
    for k, traj in enumerate(batch):
        assert traj.nodes == sw.sample_trajectory(two_node, 0, 3, 12 ^ k).nodes


def test_sample_rejects_bad_start(two_node):
    with pytest.raises(IndexOutOfRangeError):
        sw.sample_trajectory(two_node, 5, 1, seed=0)


def test_asymmetry_values(two_node, hub):
    assert sw.asymmetry(hub) == 0.0
    assert sw.asymmetry(two_node) == pytest.approx(0.7)


def test_hub_family_breaks_symmetry(hub):
    fam = sw.build_family(hub, 1, 6)
    assert sw.asymmetry(fam.member(1)) <= 1e-12
    for t in range(2, 7):
        assert sw.asymmetry(fam.member(t)) > 1e-6


def test_running_average_increments_shrink(hub):
    result = sw.semiclassical_rank(hub, 1, 40)
    inc = np.abs(np.diff(result.running_averages, axis=0)).max(axis=1)
    assert inc[30:].max() < inc[:10].max()
