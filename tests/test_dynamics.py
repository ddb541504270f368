import json
import math
import warnings
from collections import deque

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.corpus import (
    random_circulant_symmetric,
    random_stochastic,
    random_stochastic_corpus,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk import dynamics, graphs
from semiwalk.cli import main
from semiwalk.dynamics import MAX_SAMPLES
from semiwalk.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    RankFailedError,
    TooLargeError,
)

from conftest import closure_by_squaring, stationary_2x2


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
    assert res.mode == "converged" and res.method == "fixed"
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
    # failed means the measured residual exceeds tol; ask for less than attained
    res = sw.limiting_distribution(two_node)
    assert res.mode == "converged" and 0 < res.residual <= 1e-15
    failed = sw.limiting_distribution(two_node, tol=res.residual / 2)
    assert failed.mode == "failed"
    assert failed.residual == res.residual
    assert np.array_equal(failed.distribution.p, res.distribution.p)


def _power_limit(g: np.ndarray, p: np.ndarray, tol: float = 1e-8, max_iter: int = 100_000):
    """The earlier solver, kept as a reference: iterate p <- G p until the step
    drops below tol ("converged"), or until an iterate is within tol of one of
    the last max(64, 2N + 2), then average over that cycle ("cesaro")."""
    recent = deque([p], maxlen=max(64, 2 * len(g) + 2))
    for _ in range(max_iter):
        q = g @ p
        if np.abs(q - p).sum() < tol:
            return q, "converged"
        hits = np.flatnonzero(np.abs(np.asarray(recent) - q).sum(axis=1) < tol)
        if hits.size:
            return np.mean(list(recent)[int(hits.max()) + 1:] + [q], axis=0), "cesaro"
        recent.append(q)
        p = q
    return p, "failed"


def _peripheral_mode(g: np.ndarray, p: np.ndarray) -> str:
    """Mode from the spectrum: "cesaro" iff p has weight on an eigenvalue
    omega of modulus one other than 1. Such an eigenvalue of a stochastic
    matrix is semisimple, so its spectral projector is R (L^H R)^-1 L^H with
    R and L spanning the right and left null spaces of G - omega I."""
    lam = np.linalg.eigvals(g)
    peripheral = lam[(np.abs(np.abs(lam) - 1) < 1e-9) & (np.abs(lam - 1) > 1e-9)]
    weight = 0.0
    for omega in np.unique(np.round(peripheral, 9)):
        u, s, vh = np.linalg.svd(g - omega * np.eye(len(g)))
        null = s <= 1e-9
        right, left = vh[null].conj().T, u[:, null]
        weight += np.abs(right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ p)).sum()
    return "cesaro" if weight > 1e-9 else "converged"


@pytest.mark.parametrize("a", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_slow_two_state_limit_is_exact(a):
    # the step-size test of power iteration stopped 2.5e-6 off at a = 1e-3
    g = sw.TransitionMatrix(np.array([[1 - a, 3 * a], [a, 1 - 3 * a]]))
    for p0 in (sw.ProbabilityVector.point_mass(2, 0), sw.ProbabilityVector.uniform(2)):
        res = sw.limiting_distribution(g, p0)
        assert res.mode == "converged" and res.method == "solve"
        assert res.residual <= 1e-8
        # the error grows like eps / gap (gap about 4a): measured at most
        # 2.0e-17 / a (2.0e-10 at a = 1e-7), against 6.9e-18 / a for the SVD
        assert np.abs(res.distribution.p - stationary_2x2(g.g)).sum() <= 5e-17 / a
        # max_iter is accepted for earlier callers and changes nothing
        again = sw.limiting_distribution(g, p0, max_iter=3)
        assert np.array_equal(again.distribution.p, res.distribution.p)


@pytest.mark.parametrize("periodic", [False, True], ids=["aperiodic", "periodic"])
def test_reducible_chain_absorption_split(periodic):
    # closed classes {0, 1} and {2}; 3 and 4 are transient. From 3 the walk is
    # absorbed in {0, 1} with h3 = 1/2 + h4/2, h4 = 1/3 + h3/3: h3 = 4/5, h4 = 3/5.
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) if periodic else np.array([[0.7, 0.4], [0.3, 0.6]])
    pi_a = np.array([1 / 2, 1 / 2]) if periodic else np.array([4 / 7, 3 / 7])
    g = np.zeros((5, 5))
    g[:2, :2] = a
    g[2, 2] = 1.0
    g[[0, 4], 3] = 1 / 2
    g[[1, 2, 3], 4] = 1 / 3
    h = {3: 4 / 5, 4: 3 / 5}
    for label in (np.arange(5), np.array([4, 3, 2, 1, 0])):  # node i is called label[i]
        old = np.argsort(label)
        m = sw.TransitionMatrix(g[np.ix_(old, old)])
        for p0 in (np.eye(5)[3], np.full(5, 0.2)):
            to_a = p0[0] + p0[1] + sum(p0[i] * h[i] for i in h)
            exact = np.concatenate([to_a * pi_a, [1 - to_a, 0.0, 0.0]])
            res = sw.limiting_distribution(m, sw.ProbabilityVector(p0[old]))
            assert np.abs(res.distribution.p[label] - exact).sum() <= 1e-12
            assert res.residual <= 1e-12
            assert res.mode == _peripheral_mode(m.g, p0[old])
            if p0[3] == 1:
                assert res.mode == ("cesaro" if periodic else "converged")


def _mode_cases():
    rng = rng_from_seed(79)
    cases = []
    for n in range(3, 17):
        g = sw.cycle_graph(n)
        # from two neighbours the even cycles' -1 eigenvector has no weight
        pair = sw.ProbabilityVector((np.eye(n)[0] + np.eye(n)[1]) / 2)
        cases += [(f"cycle {n} from 0", g, sw.ProbabilityVector.point_mass(n, 0)),
                  (f"cycle {n} uniform", g, sw.ProbabilityVector.uniform(n)),
                  (f"cycle {n} from 0 and 1", g, pair)]
    for k in range(12):
        n = 2 + k % 7
        g = sw.TransitionMatrix(np.eye(n)[rng.permutation(n)])
        for p0 in (sw.ProbabilityVector.point_mass(n, 0), sw.ProbabilityVector.uniform(n),
                   sw.ProbabilityVector(rng.dirichlet(np.ones(n)))):
            cases.append((f"permutation {k}", g, p0))
    for k, g in enumerate(random_stochastic_corpus(20, seed=83)):
        cases.append((f"random {k}", g, sw.ProbabilityVector.point_mass(g.n, 0)))
    return cases


def test_limit_modes_match_peripheral_spectrum():
    for name, g, p0 in _mode_cases():
        res = sw.limiting_distribution(g, p0)
        assert res.mode == _peripheral_mode(g.g, p0.p), name
        assert res.residual <= 1e-12, name
        # the Cesaro limit is the fixed point with p0's weight on each closed class
        assert np.abs(g.g @ res.distribution.p - res.distribution.p).sum() <= 1e-12, name
    for n in (3, 5, 7, 9, 33):
        # odd cycles are aperiodic: the walk converges, however slowly
        res = sw.limiting_distribution(sw.cycle_graph(n), sw.ProbabilityVector.point_mass(n, 0))
        assert res.mode == "converged"
        assert np.abs(res.distribution.p - 1 / n).max() <= 1e-12


def test_reducible_family_members_keep_both_classes():
    # Two closed blocks and a node feeding both (absorbing at t_q = 60). Late
    # members drift off unit column sums by ~1e-14, which puts the second zero
    # singular value of I - G above N * eps; the limit must still split p0's
    # mass between the blocks.
    rng = rng_from_seed(3)
    g = np.zeros((8, 8))
    g[:3, :3] = random_stochastic(3, rng).g
    g[3:7, 3:7] = random_stochastic(4, rng).g
    g[[0, 3, 7], 7] = [0.2, 0.3, 0.5]
    fam = sw.build_family(sw.TransitionMatrix(g), 1, 200)
    p0 = sw.ProbabilityVector.uniform(8)
    for t in (1, 5, 60, 100, 200):
        member = fam.member(t)
        q, _ = _power_limit(member.g, p0.p, tol=1e-13)
        res = sw.limiting_distribution(member, p0)
        assert res.mode == _peripheral_mode(member.g, p0.p) == "converged", t
        assert np.abs(res.distribution.p - q).sum() <= 1e-9, t


def test_limit_agrees_with_power_iteration_reference(theorem_corpus):
    for g in theorem_corpus:
        p0 = sw.ProbabilityVector.uniform(g.n)
        q, mode = _power_limit(g.g, p0.p)
        res = sw.limiting_distribution(g, p0)
        assert mode == res.mode == "converged"
        x = res.distribution.p
        # q - x sums to zero, so q - x = Z (I - G)(q - x) with the fundamental
        # matrix Z = (I - G + x 1^T)^-1: the reference is off by at most
        # ||Z||_1 times its own step ||G q - q||_1
        z = np.linalg.inv(np.eye(g.n) - g.g + np.outer(x, np.ones(g.n)))
        bound = np.abs(z).sum(axis=0).max() * np.abs(g.g @ q - q).sum()
        assert np.abs(q - x).sum() <= bound + 1e-13


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
    worst = max(sw.semiclassical_rank(two_node, 1, 2).residuals)
    assert worst > 0
    with pytest.raises(RankFailedError, match="residual"):
        sw.semiclassical_rank(two_node, 1, 2, tol=worst / 2)


def test_rank_running_average_shape(hub):
    result = sw.semiclassical_rank(hub, 1, 8)
    assert result.running_averages.shape == (8, 7)
    np.testing.assert_allclose(
        result.running_averages[3], np.mean([d.p for d in result.limits[:4]], axis=0)
    )


def _run_set_inputs() -> dict[str, sw.TransitionMatrix]:
    """The weighted 6-cycle and the two closed 3-blocks of .github/run_set.sh."""
    w = np.array([0.3, 0.6, 0.5, 0.2, 0.7, 0.4])
    cycle_6 = sw.TransitionMatrix(np.roll(np.diag(w), 1, axis=0) + np.roll(np.diag(1 - w), -1, axis=0))
    rng = np.random.default_rng(6)
    a, b, z = random_stochastic(3, rng).g, random_stochastic(3, rng).g, np.zeros((3, 3))
    return {"cycle_6": cycle_6, "blocks_6": sw.TransitionMatrix(np.block([[a, z], [z, b]]))}


def _mixed_families():
    """Both classes of the run set's 6-node inputs at t_q_max = 12: class 2's
    member 1 is I, so it fixes every p0; the cycle's members alternate between
    strongly connected and two closed classes, and the blocks' take the SVD."""
    return [(f"{name} class {c}", sw.build_family(g, c, 12))
            for name, g in _run_set_inputs().items() for c in (1, 2)]


def test_mixed_families_cover_every_method_and_mode():
    seen = set()
    for _, fam in _mixed_families():
        for p0 in (None, sw.ProbabilityVector.point_mass(6, 0)):
            res = sw.rank_family(fam, p0=p0)
            seen |= set(res.methods) | set(res.modes)
    assert seen == {"fixed", "solve", "svd", "converged", "cesaro"}


def test_mixed_families_compute_on_no_uninitialised_row():
    # with warnings as errors, a step on an unset row (a divide of whatever
    # np.empty held) fails; a fixed member's row is p0's bytes
    rng = rng_from_seed(157)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fam in _mixed_families():
            for p0 in (sw.ProbabilityVector.uniform(6), sw.ProbabilityVector.point_mass(6, 0),
                       sw.ProbabilityVector(rng.dirichlet(np.ones(6)))):
                res = sw.rank_family(fam, p0=p0)
                oracle = [sw.limiting_distribution(m, p0) for m in fam.members]
                assert [x.p.tobytes() for x in res.limits] == [r.distribution.p.tobytes() for r in oracle], name
                for x, method in zip(res.limits, res.methods):
                    if method == "fixed":
                        assert x.p.tobytes() == p0.p.tobytes(), name


@pytest.mark.parametrize("cut", [0.5, 0.9])
def test_rank_failure_names_the_lowest_failing_member(cut):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fam in _mixed_families():
            res = sw.rank_family(fam)
            moving = [r for r, m in zip(res.residuals, res.methods) if m != "fixed"]
            tol = cut * max(moving)
            oracle = [sw.limiting_distribution(m, tol=tol).mode for m in fam.members]
            lowest = oracle.index("failed") + 1
            assert "failed" not in oracle[:lowest - 1]
            with pytest.raises(RankFailedError, match=rf"member t_q={lowest} limit has residual"):
                sw.rank_family(fam, tol=tol)


def test_wrong_p0_size_raises_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a limit was computed before the p0 check")

    for name in ("_reach", "_stationary", "_cesaro_limit", "_period"):
        monkeypatch.setattr(dynamics, name, no_work)
    p0 = sw.ProbabilityVector.uniform(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, fam in _mixed_families():
            with pytest.raises(DimensionMismatchError, match="p0 has n=5, matrix has n=6"):
                sw.rank_family(fam, p0=p0)
            with pytest.raises(DimensionMismatchError, match="p0 has n=5, matrix has n=6"):
                sw.limiting_distribution(fam.member(2), p0)


def _oracle_cases():
    rng = rng_from_seed(163)
    hub = sw.symmetric_hub()
    inputs = _run_set_inputs()
    cases = [("hub class 1", sw.build_family(hub, 1, 60), None),
             ("hub class 2", sw.build_family(hub, 2, 60), None),
             ("two-node", sw.build_family(sw.two_node_chain(), 1, 20), None),
             ("weighted 6-cycle", sw.build_family(inputs["cycle_6"], 2, 12), sw.ProbabilityVector.point_mass(6, 0)),
             ("two closed 3-blocks", sw.build_family(inputs["blocks_6"], 1, 12), None),
             ("asymmetric ring", sw.build_family(sw.asymmetric_ring(), 1, 20), None),
             ("random 32", sw.build_family(random_stochastic(32, rng), 1, 20), None),
             ("random 128", sw.build_family(random_stochastic(128, rng), 2, 8), None)]
    cases += [(f"{name}, Dirichlet p0", fam, sw.ProbabilityVector(rng.dirichlet(np.ones(fam.source.n))))
              for name, fam, _ in (cases[0], cases[4], cases[6])]
    return [pytest.param(fam, p0, id=name) for name, fam, p0 in cases]


# the default-budget case, graphs.STREAM_BLOCK, keeps its earlier id
@pytest.mark.parametrize("members_per_block", [None, 1, 3], ids=["LIMIT_BLOCK", "1 member", "3 members"])
@pytest.mark.parametrize("fam, p0", _oracle_cases())
def test_rank_family_matches_a_limit_per_member(monkeypatch, fam, p0, members_per_block):
    # the stacked path gives each member the bits of its own call, whatever
    # the block size; 3 members a block leave a short last block at T = 20 and 8
    n = fam.source.n
    if members_per_block is not None:
        monkeypatch.setattr(graphs, "STREAM_BLOCK", members_per_block * n * n)
    start = sw.ProbabilityVector.uniform(n) if p0 is None else p0
    oracle = [sw.limiting_distribution(m, start) for m in fam.members]
    res = sw.rank_family(fam, p0=p0)
    assert [x.p.tobytes() for x in res.limits] == [r.distribution.p.tobytes() for r in oracle]
    assert res.modes == tuple(r.mode for r in oracle)
    assert res.methods == tuple(r.method for r in oracle)
    assert res.residuals == tuple(r.residual for r in oracle)
    x, modes, methods, residuals, iterations = dynamics._limits(fam.stack, start, dynamics.DEFAULT_TOL)
    assert iterations == [r.iterations for r in oracle]
    assert not x.flags.writeable and x.shape == (len(oracle), n)


@pytest.mark.parametrize("make, t_max", [
    pytest.param(sw.symmetric_hub, 60, id="hub"),
    pytest.param(lambda: random_stochastic(32, rng_from_seed(32)), 20, id="random-32"),
    pytest.param(lambda: random_symmetric_stochastic(64, rng_from_seed(64)), 20, id="symmetric-64"),
])
def test_class_2_ranking_is_class_1_one_member_shorter(make, t_max):
    # class-2 member 1 is I, whose limit is p0, and member t + 1 is class-1
    # member t: from a uniform p0 the class-2 average over T members is
    # (p0 + (T - 1) avg_1(T - 1)) / T, so it orders the nodes as avg_1(T - 1)
    g = make()
    one, two = sw.semiclassical_rank(g, 1, t_max - 1), sw.semiclassical_rank(g, 2, t_max)
    assert two.ordering == one.ordering
    p0 = np.full(g.n, 1.0 / g.n)
    shifted = (p0 + (t_max - 1) * one.final_average.p) / t_max
    assert np.abs(two.final_average.p - shifted).max() <= 1e-15


def _searchsorted_sampler(m: sw.TransitionMatrix, x0: int, u: np.ndarray) -> np.ndarray:
    """The earlier per-trajectory loop, kept as a reference: one searchsorted
    lookup per step, fed the uniform draws ``u`` (one row per trajectory)."""
    cum = np.cumsum(m.g, axis=0)
    rows = []
    for draws in u:
        nodes = [x0]
        for v in draws:
            x = int(np.searchsorted(cum[:, nodes[-1]], v, side="right"))
            nodes.append(min(x, m.n - 1))
        rows.append(nodes)
    return np.array(rows, dtype=np.int64).reshape(len(u), u.shape[1] + 1)


def _sampler_members(two_node, hub):
    member = sw.build_family(random_stochastic(8, rng_from_seed(89)), 1, 3).member(3)
    return {"two-node": two_node, "hub": hub, "random N=8 member": member}


def test_sample_matches_searchsorted_reference(two_node, hub):
    for name, m in _sampler_members(two_node, hub).items():
        for x0 in range(m.n):
            for seed, steps, count in ((0, 30, 40), (7, 1, 500), (12, 0, 3)):
                u = np.random.Generator(np.random.PCG64(seed)).random((count, steps))
                batch = sw.sample_trajectories(m, x0, steps, seed=seed, count=count)
                assert np.array_equal(batch, _searchsorted_sampler(m, x0, u)), (name, x0, seed)


def test_sample_row_blocks_do_not_change_batch(monkeypatch, hub):
    whole = sw.sample_trajectories(hub, 1, 12, seed=8, count=30)
    # blocks of 2, 1 and 4 rows: 15 full blocks, 30 blocks, and a short last one
    for entries in (2 * hub.n, 1, 4 * hub.n):
        monkeypatch.setattr(graphs, "PHASE_BLOCK", entries)
        assert np.array_equal(sw.sample_trajectories(hub, 1, 12, seed=8, count=30), whole)


def test_sample_returns_read_only_int64_rows(hub):
    nodes = sw.sample_trajectories(hub, 2, 9, seed=4, count=6)
    assert nodes.shape == (6, 10) and len(nodes) == 6
    assert nodes.dtype == np.int64
    assert not nodes.flags.writeable
    assert (nodes[:, 0] == 2).all()


def test_sample_larger_count_extends_batch(two_node, hub):
    for m in _sampler_members(two_node, hub).values():
        for steps in (0, 1, 25):
            small = sw.sample_trajectories(m, 0, steps, seed=31, count=5)
            large = sw.sample_trajectories(m, 0, steps, seed=31, count=20)
            assert np.array_equal(small, large[:5])


def test_sample_distinct_seeds_give_distinct_batches(two_node, hub):
    # under the derived seeds seed ^ k, seeds 0 and 1 gave the same two
    # trajectories in swapped order
    a = sw.sample_trajectories(two_node, 0, 5, seed=0, count=2)
    b = sw.sample_trajectories(two_node, 0, 5, seed=1, count=2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, b[::-1])
    # 50 steps on the hub: no two of these 80 rows should coincide
    rows = np.concatenate([sw.sample_trajectories(hub, 0, 50, seed=s, count=4) for s in range(20)])
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_sample_permutation_member_alternates():
    member = sw.cycle_semiclassical(6, 3)
    nodes = sw.sample_trajectories(member, 0, 7, seed=5, count=3)
    assert (nodes == [0, 3, 0, 3, 0, 3, 0, 3]).all()


def test_sample_same_seed_identical(hub):
    a = sw.sample_trajectories(hub, 2, 40, seed=99, count=3)
    b = sw.sample_trajectories(hub, 2, 40, seed=99, count=3)
    assert np.array_equal(a, b)
    c = sw.sample_trajectories(hub, 2, 40, seed=100, count=3)
    assert not np.array_equal(a, c)


def test_sample_transitions_follow_support(hub):
    nodes = sw.sample_trajectories(hub, 0, 200, seed=3, count=5)
    assert (hub.g[nodes[:, 1:], nodes[:, :-1]] > 0).all()


def test_sample_single_step_frequencies(two_node):
    nodes = sw.sample_trajectories(two_node, 0, 1, seed=0, count=20000)
    freq = np.bincount(nodes[:, 1], minlength=2) / 20000
    assert abs(freq[1] - 0.9) <= 0.02


def test_sample_single_step_frequencies_hub_member(hub):
    # 20000 one-step draws from each start of the 7-node member at t_q = 2.
    # Each count is binomial, so 5 standard errors, sqrt(p (1 - p) / n), bound
    # its frequency's gap (about 3e-5 for the 49 entries together); a zero
    # entry of the column is never drawn.
    member = sw.build_family(hub, 1, 2).member(2)
    shots = 20000
    for x0 in range(member.n):
        nodes = sw.sample_trajectories(member, x0, 1, seed=x0, count=shots)
        freq = np.bincount(nodes[:, 1], minlength=member.n) / shots
        p = member.g[:, x0]
        assert (np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / shots)).all(), x0


def test_sample_rejects_bad_start(two_node):
    with pytest.raises(IndexOutOfRangeError):
        sw.sample_trajectories(two_node, 5, 1, seed=0, count=1)


_BAD_BATCHES = [
    pytest.param({"count": -1}, ValueError, "count must be an integer >= 1", id="negative-count"),
    pytest.param({"count": 0}, ValueError, "count must be an integer >= 1", id="zero-count"),
    pytest.param({"steps": -1}, ValueError, "steps must be an integer >= 0", id="negative-steps"),
    pytest.param({"seed": -1}, ValueError, "seed must be an integer >= 0", id="negative-seed"),
    pytest.param({"count": MAX_SAMPLES // 2 + 1}, TooLargeError, "MAX_SAMPLES", id="too-many-nodes"),
]


@pytest.mark.parametrize("change, error, message", _BAD_BATCHES)
def test_sample_batch_boundary(tmp_path, capsys, two_node, change, error, message):
    batch = {"steps": 1, "seed": 0, "count": 1, **change}
    with pytest.raises(error, match=message):
        sw.sample_trajectories(two_node, 0, **batch)
    graph = tmp_path / "two_node.csv"
    graph.write_text(sw.serialize(two_node, "csv"))
    argv = ["sample", "--input", str(graph), "--out", str(tmp_path / "out")]
    for key, value in batch.items():
        argv += [f"--{key}", str(value)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == error.__name__
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [1.5, True, "3", None])
def test_sample_seed_must_be_an_integer(two_node, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        sw.sample_trajectories(two_node, 0, 1, seed=seed, count=1)


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


class _IncompleteClosure(np.ndarray):
    """A stack of reachability closures that each read as incomplete as a
    whole, and are exact in every row and column."""

    def all(self, axis=None, **kwargs):
        if axis == (-2, -1):
            return np.zeros(self.shape[:-2], dtype=bool)
        return super().all(axis=axis, **kwargs)


def _svd_only(monkeypatch):
    """Route every limit through the SVD projector, the solver used for all
    chains before the strongly connected ones got an LU solve: the support
    graph's closure reads as incomplete to the solve decision, and the
    closed classes and periods are read off it as before."""
    monkeypatch.setattr(dynamics, "_reach", lambda edges: sw.graphs._reach(edges).view(_IncompleteClosure))


def _solve_cases():
    rng = rng_from_seed(89)
    cases = [("hub", sw.symmetric_hub())]
    for n in (3, 8, 32, 128):
        cases += [(f"random {n}", random_stochastic(n, rng)),
                  (f"random symmetric {n}", random_symmetric_stochastic(n, rng)),
                  (f"circulant {n}", random_circulant_symmetric(n, rng))]
    return [pytest.param(name, g, id=name) for name, g in cases]


@pytest.mark.parametrize("name, g", _solve_cases())
def test_solve_agrees_with_svd_projector(monkeypatch, name, g):
    # measured at most 2.8e-13 apart on these members, 5.2e-13 on others
    rng = rng_from_seed(97)
    for class_tag in (1, 2):
        fam = sw.build_family(g, class_tag, 6)
        for p0 in (sw.ProbabilityVector.uniform(g.n), sw.ProbabilityVector(rng.dirichlet(np.ones(g.n)))):
            lu = sw.rank_family(fam, p0=p0)
            with monkeypatch.context() as patch:
                _svd_only(patch)
                svd = sw.rank_family(fam, p0=p0)
            assert set(svd.methods) <= {"svd", "fixed"}
            assert "solve" in lu.methods or set(lu.methods) == {"fixed"}, name
            for a, b in zip(lu.limits, svd.limits):
                assert np.abs(a.p - b.p).max() <= 1e-12, name
            assert lu.modes == svd.modes, name
            assert max(lu.residuals) <= 1e-12, name
            if name.startswith("circulant"):
                # homogeneous members tie nodes exactly, and rounding orders
                # the ties: the order must still sort the SVD's averages
                ranked = svd.final_average.p[list(lu.ordering)]
                assert (np.diff(ranked) <= 1e-12).all(), name
            else:
                assert lu.ordering == svd.ordering, name


def test_two_closed_classes_take_svd_and_depend_on_p0():
    rng = rng_from_seed(101)
    blocks = [random_stochastic(3, rng).g, random_stochastic(4, rng).g]
    g = np.zeros((7, 7))
    g[:3, :3], g[3:, 3:] = blocks
    m = sw.TransitionMatrix(g)
    for start, block, nodes in ((0, blocks[0], slice(0, 3)), (5, blocks[1], slice(3, 7))):
        res = sw.limiting_distribution(m, sw.ProbabilityVector.point_mass(7, start))
        assert res.method == "svd" and res.mode == "converged"
        x = res.distribution.p
        assert x[nodes].sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(block @ x[nodes] - x[nodes]).sum() <= 1e-12
    # from the uniform start each class keeps the mass it started with
    split = sw.limiting_distribution(m).distribution.p
    assert split[:3].sum() == pytest.approx(3 / 7, abs=1e-12)


@pytest.mark.parametrize("back", [None, 0.3], ids=["one-way", "strong-way-back"])
def test_link_at_support_tol_takes_svd(monkeypatch, back):
    # the only link 0 -> 3 between the blocks is 1e-12 <= SUPPORT_TOL, so the
    # support graph is not strongly connected, even when 3 -> 0 is strong
    rng = rng_from_seed(7)
    g = np.zeros((6, 6))
    g[:3, :3] = random_stochastic(3, rng).g
    g[3:, 3:] = random_stochastic(3, rng).g
    g[3, 0], g[0, 0] = 1e-12, g[0, 0] - 1e-12
    if back is not None:
        g[0, 3], g[3, 3] = back * g[3, 3], (1 - back) * g[3, 3]
    m = sw.TransitionMatrix(g)
    for p0 in (sw.ProbabilityVector.uniform(6), sw.ProbabilityVector.point_mass(6, 4)):
        res = sw.limiting_distribution(m, p0)
        assert res.method == "svd"
        with monkeypatch.context() as patch:
            _svd_only(patch)
            old = sw.limiting_distribution(m, p0)
        assert np.array_equal(res.distribution.p, old.distribution.p)
        assert (res.mode, res.residual, res.iterations) == (old.mode, old.residual, old.iterations)


@pytest.mark.parametrize("n", [4, 6])
def test_periodic_cycle_solves_then_reads_cesaro(n):
    # pi from the LU solve on G; G^n is reducible, so its check takes the SVD
    res = sw.limiting_distribution(sw.cycle_graph(n), sw.ProbabilityVector.point_mass(n, 0))
    assert (res.method, res.mode) == ("solve", "cesaro")
    assert np.abs(res.distribution.p - 1 / n).max() <= 1e-12


def test_solve_decision_matches_transitive_closure():
    rng = rng_from_seed(103)
    seen = set()
    for k in range(300):
        n = 1 + k % 9
        edges = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        reach = np.eye(n, dtype=bool) | edges
        for _ in range(n):
            reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        expected = bool(reach.all())
        assert np.array_equal(sw.graphs._reach(edges), reach), edges
        # the same support, with a loop on each node that has no edge out:
        # a loop changes no reachability
        w = np.where(edges, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        lonely = np.flatnonzero(~edges.any(axis=0))
        w[lonely, lonely] = 1.0
        res = sw.limiting_distribution(sw.from_weights(w), sw.ProbabilityVector.point_mass(n, 0))
        if res.method != "fixed":
            assert (res.method == "solve") == expected, edges
            seen.add(expected)
    assert seen == {True, False}


def _period_cases():
    """Cycles 3..33, weighted even cycles and a complete bipartite graph with
    their members, and the hub with its members."""
    rng = rng_from_seed(137)
    cases = [(f"cycle {n}", sw.cycle_graph(n)) for n in range(3, 34)]
    inputs = []
    for n in (4, 6, 8):
        w = rng.uniform(0.1, 0.9, n)
        inputs.append((f"weighted cycle {n}",
                       sw.TransitionMatrix(np.roll(np.diag(w), 1, axis=0) + np.roll(np.diag(1 - w), -1, axis=0))))
    weights = rng.uniform(0.1, 1.0, (7, 7))
    weights[:3, :3] = weights[3:, 3:] = 0.0
    inputs += [("bipartite 3+4", sw.from_weights(weights)), ("hub", sw.symmetric_hub())]
    for name, g in inputs:
        cases.append((name, g))
        for class_tag in (1, 2):
            fam = sw.build_family(g, class_tag, 2 * g.n)
            cases += [(f"{name} class {class_tag} t_q={t}", m) for t, m in enumerate(fam.members, start=1)]
    return cases


def _period_by_powers(edges: np.ndarray) -> int:
    """Independent period oracle: over the closed classes, the lcm of the gcd
    of the return lengths k <= 2n, read off boolean matrix powers."""
    n = len(edges)
    reach = closure_by_squaring(edges)
    power = np.eye(n, dtype=bool)
    returns = []  # returns[k - 1][i]: a closed walk of length k through i
    for _ in range(2 * n):
        power = (edges.astype(np.int64) @ power.astype(np.int64)) > 0
        returns.append(np.diagonal(power).copy())
    d = 1
    for i in range(n):
        ahead, cls = reach[:, i], reach[:, i] & reach[i]
        if np.argmax(cls) == i and not (ahead & ~cls).any():  # lowest node of a closed class
            d = math.lcm(d, math.gcd(*(k for k, r in enumerate(returns, start=1) if r[cls].any())))
    return d


def test_period_matches_return_length_oracle():
    seen = set()
    for name, m in _period_cases():
        edges = m.g > sw.graphs.SUPPORT_TOL
        reach = sw.graphs._reach(edges)
        d = dynamics._period(edges, reach)
        assert d == _period_by_powers(edges), name
        seen.add((name.split()[0], d))
        seen.add(bool(reach.all()))
    assert {("cycle", 1), ("cycle", 2), ("weighted", 2), ("bipartite", 2), ("hub", 1)} <= seen, seen
    assert {True, False} <= seen  # strongly connected and reducible members


def test_period_searches_once_per_closed_class(monkeypatch):
    calls = []
    levels = dynamics._levels
    monkeypatch.setattr(dynamics, "_levels", lambda edges, root: calls.append(root) or levels(edges, root))
    for n in (6, 33):  # strongly connected, empty diagonal: one search, from node 0
        calls.clear()
        res = sw.limiting_distribution(sw.cycle_graph(n), sw.ProbabilityVector.point_mass(n, 0))
        assert res.method == "solve"
        assert calls == [0], n
    # node 0 feeds the closed 3-cycle 1 -> 2 -> 3 -> 1 and the closed
    # 2-cycle 4 <-> 5: one search from each class's lowest node
    g = np.zeros((6, 6))
    g[1, 0] = g[4, 0] = 0.5
    g[2, 1] = g[3, 2] = g[1, 3] = g[5, 4] = g[4, 5] = 1.0
    calls.clear()
    res = sw.limiting_distribution(sw.TransitionMatrix(g))
    assert (res.method, res.mode) == ("svd", "cesaro")
    assert calls == [1, 4]
    assert dynamics._period(g > 0, sw.graphs._reach(g > 0)) == 6
    calls.clear()
    res = sw.limiting_distribution(random_stochastic(8, rng_from_seed(139)))
    assert res.method == "solve" and calls == []  # every edge: no search at all
