import json

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.corpus import (
    random_circulant_symmetric,
    random_stochastic,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk.errors import InsufficientRangeError
from semiwalk.szegedy import SzegedyOperator

# two-node family members frozen from an independent dense-operator computation
TWO_NODE_MEMBER_2 = np.array([[0.388, 0.584], [0.612, 0.416]])
TWO_NODE_MEMBER_3 = np.array([[0.26272, 0.09216], [0.73728, 0.90784]])


def test_classical_limit_class_one(two_node):
    m = sw.semiclassical_matrix(two_node, 1, 1)
    assert np.abs(m.g - two_node.g).max() <= 1e-12


def test_classical_limit_class_two(two_node):
    m = sw.semiclassical_matrix(two_node, 2, 2)
    assert np.abs(m.g - two_node.g).max() <= 1e-12


def test_six_cycle_half_turn_is_opposite_pairing():
    m = sw.semiclassical_matrix(sw.cycle_graph(6), 3, 1)
    expected = np.zeros((6, 6))
    for i in range(6):
        expected[(i + 3) % 6, i] = 1.0
    assert np.abs(m.g - expected).max() <= 1e-12


def test_two_node_family_members(two_node):
    fam = sw.build_family(two_node, 1, 3)
    assert np.abs(fam.member(1).g - two_node.g).max() <= 1e-12
    assert np.abs(fam.member(2).g - TWO_NODE_MEMBER_2).max() <= 1e-12
    assert np.abs(fam.member(3).g - TWO_NODE_MEMBER_3).max() <= 1e-12


def test_single_member_family_is_classical(two_node):
    fam = sw.build_family(two_node, 1, 1)
    assert fam.t_q_max == 1
    assert np.abs(fam.member(1).g - two_node.g).max() <= 1e-12


def test_build_family_matches_single_shot():
    g = random_stochastic(5, rng_from_seed(41))
    fam = sw.build_family(g, 2, 6)
    for t in range(1, 7):
        direct = sw.semiclassical_matrix(g, t, 2)
        assert np.abs(fam.member(t).g - direct.g).max() <= 1e-12


def test_members_are_column_stochastic():
    g = random_stochastic(6, rng_from_seed(43))
    for m in sw.build_family(g, 1, 8).members:
        assert np.abs(m.g.sum(axis=0) - 1.0).max() <= 1e-9


def test_six_cycle_members_repeat_with_period_n():
    fam = sw.build_family(sw.cycle_graph(6), 1, 12)
    for t in range(1, 7):
        assert np.abs(fam.member(t).g - fam.member(t + 6).g).max() <= 1e-12


def test_family_period_cycles():
    assert sw.family_period(sw.build_family(sw.cycle_graph(6), 1, 12)) == 6
    assert sw.family_period(sw.build_family(sw.cycle_graph(7), 1, 14)) == 7


def test_family_period_none_for_random_asymmetric():
    g = random_stochastic(5, rng_from_seed(47))
    fam = sw.build_family(g, 1, 50)
    assert sw.family_period(fam) is None


def test_family_period_insufficient_range():
    fam = sw.build_family(sw.cycle_graph(6), 1, 8)  # candidate 6 seen only 1.33 times
    with pytest.raises(InsufficientRangeError):
        sw.family_period(fam)


def test_distinct_matrices_cycles():
    assert sw.distinct_matrices(sw.build_family(sw.cycle_graph(6), 1, 12)) == 4
    assert sw.distinct_matrices(sw.build_family(sw.cycle_graph(7), 1, 14)) == 4


def test_distinct_matrices_two_cycle():
    # two-node ping-pong graph: the family alternates between g and the identity
    g = sw.TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fam = sw.build_family(g, 1, 4)
    brute = {tuple(np.round(m.g, 9).reshape(-1)) for m in fam.members}
    assert len(brute) == 2
    assert sw.distinct_matrices(fam) == 2
    assert sw.family_period(fam) == 2


def test_unitary_period_cycles():
    assert sw.unitary_period(sw.cycle_graph(6), 12) == 6
    assert sw.unitary_period(sw.cycle_graph(7), 28) == 14


def test_unitary_period_two_node_none(two_node):
    assert sw.unitary_period(two_node, 100) is None


def _dense_unitary_period(g, t_max, tol=1e-9):
    """Reference: multiply the dense N^2 x N^2 operator up to t_max times."""
    u = SzegedyOperator(g).dense()
    power = np.eye(u.shape[0], dtype=complex)
    for p in range(1, t_max + 1):
        power = power @ u
        if np.abs(power - np.eye(u.shape[0])).max() <= tol:
            return p
    return None


def _oracle_graphs():
    rng = rng_from_seed(61)
    graphs = [sw.two_node_chain()] + [sw.cycle_graph(n) for n in range(3, 17)]
    for n in range(2, 9):
        graphs += [random_stochastic(n, rng), random_symmetric_stochastic(n, rng)]
        if n >= 3:
            graphs.append(random_circulant_symmetric(n, rng))
    return graphs


def test_unitary_period_matches_dense_oracle():
    for g in _oracle_graphs():
        t_max = 2 * g.n * g.n
        assert sw.unitary_period(g, t_max) == _dense_unitary_period(g, t_max)


def test_eigenphases_cover_dense_spectrum():
    for g in _oracle_graphs():
        op = SzegedyOperator(g)
        dense = np.abs(np.angle(np.linalg.eigvals(op.dense())))
        phases = op._eigenphases()
        # the antisymmetric phase 0 is left out of the helper's set
        assert all(np.abs(np.append(phases, 0.0) - d).min() <= 1e-9 for d in dense)
        assert all(np.abs(dense - p).min() <= 1e-9 for p in phases)


def test_unitary_period_near_unit_eigenvalues():
    # arccos of eigh's eigenvalues misreads the phases near lam = +-1 by ~1e-8
    # and finds no period here; the half-angle form keeps them exact
    assert sw.unitary_period(sw.cycle_graph(6), 12) == 6
    assert sw.unitary_period(sw.cycle_graph(48), 96) == 48


def test_unitary_period_beyond_old_dense_cap():
    assert sw.unitary_period(sw.cycle_graph(40), 80) == 40
    assert sw.unitary_period(sw.cycle_graph(41), 82) == 82


def _stepped_members(g, t_q_max):
    """Reference: step each proxy state with op.apply and measure both registers."""
    op = SzegedyOperator(g)
    states = [op.proxy_state(i) for i in range(g.n)]
    members = {1: [], 2: []}
    for _ in range(t_q_max):
        states = [op.apply(s) for s in states]
        probs = [np.abs(s.amp.reshape(g.n, g.n)) ** 2 for s in states]
        members[1].append(np.column_stack([p.sum(axis=1) for p in probs]))
        members[2].append(np.column_stack([p.sum(axis=0) for p in probs]))
    return members


def _sparse_stochastic(n, rng, density=0.3):
    w = rng.random((n, n)) * (rng.random((n, n)) < density)
    w[rng.integers(n, size=n), np.arange(n)] += rng.random(n)  # no dangling column
    return sw.from_weights(w)


def test_build_family_matches_stepping_oracle():
    rng = rng_from_seed(67)
    graphs = [random_stochastic(n, rng) for n in range(2, 33)] + [sw.symmetric_hub()]
    # uniform chains have exact zeros in members that rounding would push
    # below 0 (to -6e-14 at N = 3, t_q = 52) without the clip
    graphs += [sw.TransitionMatrix(np.full((n, n), 1.0 / n)) for n in (3, 5)]
    for n in (2, 3, 5, 8, 13, 21, 32):
        graphs += [random_symmetric_stochastic(n, rng), _sparse_stochastic(n, rng)]
        if n >= 3:
            graphs.append(random_circulant_symmetric(n, rng))
    for g in graphs:
        t_q_max = max(60, 2 * g.n)
        stepped = _stepped_members(g, t_q_max)
        for class_tag in (1, 2):
            fam = sw.build_family(g, class_tag, t_q_max)
            for t, (member, ref) in enumerate(zip(fam.members, stepped[class_tag]), start=1):
                dev = np.abs(member.g - ref).max()
                assert dev <= 1e-12, (g.n, class_tag, t, dev)


def test_class_equivalence_shifted_by_one():
    rng = rng_from_seed(53)
    for _ in range(10):
        g = random_stochastic(4, rng)
        fam1 = sw.build_family(g, 1, 5)
        fam2 = sw.build_family(g, 2, 6)
        for t in range(1, 6):
            assert np.abs(fam1.member(t).g - fam2.member(t + 1).g).max() <= 1e-12


def test_family_json_export_round_trips(two_node):
    fam = sw.build_family(two_node, 1, 3)
    doc = json.loads(fam.to_json())
    assert [entry["t_q"] for entry in doc] == [1, 2, 3]
    for entry in doc:
        back = sw.deserialize(entry["matrix_csv"], "csv")
        assert np.abs(back.g - fam.member(entry["t_q"]).g).max() <= 1e-12


def test_circulant_symmetric_members_stay_symmetric():
    rng = rng_from_seed(59)
    for k in range(10):
        g = random_circulant_symmetric(3 + k % 6, rng)
        for m in sw.build_family(g, 1, 12).members:
            assert np.abs(m.g - m.g.T).max() <= 1e-9


def test_family_argument_validation(two_node):
    with pytest.raises(ValueError):
        sw.build_family(two_node, 3, 2)
    with pytest.raises(ValueError):
        sw.build_family(two_node, 1, 0)
    with pytest.raises(ValueError):
        sw.semiclassical_matrix(two_node, 0, 1)
    fam = sw.build_family(two_node, 1, 2)
    with pytest.raises(IndexError):
        fam.member(3)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9])
def test_period_tolerances_must_be_positive(tol):
    g = sw.cycle_graph(6)
    fam = sw.build_family(g, 1, 12)
    with pytest.raises(ValueError, match="tol must be positive"):
        sw.family_period(fam, tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        sw.distinct_matrices(fam, tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        sw.unitary_period(g, 12, tol)
