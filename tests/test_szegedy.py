import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwalk as sw
from semiwalk import szegedy
from semiwalk.corpus import random_stochastic, random_symmetric_stochastic, rng_from_seed
from semiwalk.errors import DimensionMismatchError, IndexOutOfRangeError, TooLargeError


def _random_state(n, rng):
    amp = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    return sw.EdgeState(amp / np.linalg.norm(amp))


def test_proxy_state_cycle():
    op = sw.SzegedyOperator(sw.cycle_graph(6))
    s = op.proxy_state(2)
    assert s.amplitude(2, 1) == pytest.approx(1 / np.sqrt(2))
    assert s.amplitude(2, 3) == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(s.amp) == 2


def test_proxy_state_two_node(two_node):
    op = sw.SzegedyOperator(two_node)
    s = op.proxy_state(0)
    assert s.amplitude(0, 0) == pytest.approx(np.sqrt(0.1))
    assert s.amplitude(0, 1) == pytest.approx(np.sqrt(0.9))


def test_proxy_state_deterministic_column_is_basis_state():
    op = sw.SzegedyOperator(sw.TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    s = op.proxy_state(0)
    expected = sw.EdgeState.basis(2, 0, 1)
    assert np.abs(s.amp - expected.amp).max() == 0.0


def test_proxy_state_index_out_of_range(two_node):
    op = sw.SzegedyOperator(two_node)
    with pytest.raises(IndexOutOfRangeError):
        op.proxy_state(2)


def test_proxy_orthonormality():
    rng = rng_from_seed(3)
    for n in (2, 4, 7):
        op = sw.SzegedyOperator(random_stochastic(n, rng))
        proxies = np.stack([op.proxy_state(i).amp for i in range(n)])
        gram = proxies.conj() @ proxies.T
        assert np.abs(gram - np.eye(n)).max() <= 1e-12


def test_apply_once_swaps_proxy(two_node):
    # one application sends |psi_i> to sum_k sqrt(g[k,i]) |k>|i>
    op = sw.SzegedyOperator(two_node)
    for i in range(2):
        out = op.apply(op.proxy_state(i))
        expected = np.zeros(4, dtype=complex)
        for k in range(2):
            expected[k * 2 + i] = np.sqrt(two_node.g[k, i])
        assert np.abs(out.amp - expected).max() <= 1e-12


def test_apply_cycle_shifts_basis_edges():
    n = 6
    op = sw.SzegedyOperator(sw.cycle_graph(n))
    for i in range(n):
        out = op.apply(sw.EdgeState.basis(n, i, (i - 1) % n))
        expected = sw.EdgeState.basis(n, (i + 1) % n, i)
        assert np.abs(out.amp - expected.amp).max() <= 1e-12


def test_orthogonal_complement_has_period_two():
    g = sw.cycle_graph(5)
    op = sw.SzegedyOperator(g)
    n = g.n
    proxies = np.stack([op.proxy_state(i).amp for i in range(n)])
    swapped = np.stack(
        [op.proxy_state(i).amp.reshape(n, n).T.reshape(-1) for i in range(n)]
    )
    span = np.vstack([proxies, swapped])
    _, _, vh = np.linalg.svd(span)
    perp = vh[-1].conj()  # a null-space vector of the span
    assert np.abs(span @ perp.conj()).max() <= 1e-10
    state = sw.EdgeState(perp / np.linalg.norm(perp))
    back = op.apply(state, steps=2)
    assert np.abs(back.amp - state.amp).max() <= 1e-10


def test_apply_dimension_mismatch(two_node):
    op = sw.SzegedyOperator(two_node)
    with pytest.raises(DimensionMismatchError):
        op.apply(sw.EdgeState.basis(3, 0, 0))


def test_dense_unitary_on_random_inputs():
    rng = rng_from_seed(9)
    for n in (2, 3, 5, 8):
        u = sw.SzegedyOperator(random_stochastic(n, rng)).dense()
        assert np.abs(u.conj().T @ u - np.eye(n * n)).max() <= 1e-10


def _dense_one_block_at_a_time(g):
    """U built as it was before stacks: 2 Pi - 1 one node's block at a time,
    then the register swap of its rows."""
    n, d = g.n, g.n * g.n
    refl = -np.eye(d, dtype=complex)
    for i in range(n):
        col = np.sqrt(g.g)[:, i]
        refl[i * n:(i + 1) * n, i * n:(i + 1) * n] += 2.0 * np.outer(col, col)
    return refl[np.arange(d).reshape(n, n).T.reshape(-1), :]


def test_stacked_dense_is_each_operator_bitwise():
    # random, symmetric, identity and permutation inputs of each size, stacked
    # with two leading axes; zero entries leave signed zeros that tobytes sees
    rng = rng_from_seed(157)
    for n in range(1, 9):
        mats = [random_stochastic(n, rng), random_symmetric_stochastic(n, rng), random_stochastic(n, rng),
                sw.TransitionMatrix(np.eye(n)), sw.TransitionMatrix(np.roll(np.eye(n), 1, axis=0)),
                random_stochastic(n, rng)]
        stack = szegedy._dense(np.sqrt(np.stack([m.g for m in mats])).reshape(2, 3, n, n))
        assert stack.shape == (2, 3, n * n, n * n)
        for u, m in zip(stack.reshape(6, n * n, n * n), mats, strict=True):
            assert u.tobytes() == sw.SzegedyOperator(m).dense().tobytes() == _dense_one_block_at_a_time(m).tobytes()


def test_dense_respects_cap():
    with pytest.raises(TooLargeError):
        sw.SzegedyOperator(sw.cycle_graph(6)).dense(max_n=5)


def test_six_cycle_walk_operator_period():
    u = sw.SzegedyOperator(sw.cycle_graph(6)).dense()
    u6 = np.linalg.matrix_power(u, 6)
    assert np.abs(u6 - np.eye(36)).max() <= 1e-10


def test_seven_cycle_walk_operator_period():
    g = sw.cycle_graph(7)
    op = sw.SzegedyOperator(g)
    u = op.dense()
    u7 = np.linalg.matrix_power(u, 7)
    for i in range(7):
        psi = op.proxy_state(i).amp
        assert np.abs(u7 @ psi - psi).max() <= 1e-10
    assert np.abs(u7 - np.eye(49)).max() > 0.5
    assert np.abs(np.linalg.matrix_power(u, 14) - np.eye(49)).max() <= 1e-10


def test_register_distribution_basis_state():
    s = sw.EdgeState.basis(5, 3, 2)
    assert sw.register_distribution(s, 1).p.tolist() == [0, 0, 0, 1, 0]
    assert sw.register_distribution(s, 2).p.tolist() == [0, 0, 1, 0, 0]


def test_register_distribution_after_one_step(two_node):
    op = sw.SzegedyOperator(two_node)
    for i in range(2):
        out = op.apply(op.proxy_state(i))
        assert np.abs(sw.register_distribution(out, 1).p - two_node.g[:, i]).max() <= 1e-12
        expected = np.zeros(2)
        expected[i] = 1.0
        assert np.abs(sw.register_distribution(out, 2).p - expected).max() <= 1e-12


def test_register_distribution_bad_register(two_node):
    s = sw.SzegedyOperator(two_node).proxy_state(0)
    with pytest.raises(ValueError):
        sw.register_distribution(s, 3)


def test_uniform_superposition_fixed_for_symmetric_inputs():
    rng = rng_from_seed(17)
    for k in range(50):
        op = sw.SzegedyOperator(random_symmetric_stochastic(2 + k % 7, rng))
        psi = op.uniform_superposition()
        assert np.abs(op.apply(psi).amp - psi.amp).max() <= 1e-12


def test_uniform_superposition_two_node_uniform_graph():
    op = sw.SzegedyOperator(sw.TransitionMatrix(np.full((2, 2), 0.5)))
    assert np.abs(op.uniform_superposition().amp - 0.5).max() <= 1e-15


def test_uniform_superposition_moves_for_asymmetric_input(two_node):
    op = sw.SzegedyOperator(two_node)
    psi = op.uniform_superposition()
    assert np.abs(op.apply(psi).amp - psi.amp).max() > 1e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_apply_preserves_norm(seed, n):
    rng = rng_from_seed(seed)
    op = sw.SzegedyOperator(random_stochastic(n, rng))
    out = op.apply(_random_state(n, rng), steps=3)
    assert abs(np.linalg.norm(out.amp) - 1.0) <= 1e-10


def test_matrix_free_matches_dense():
    rng = rng_from_seed(23)
    for n in range(2, 9):
        op = sw.SzegedyOperator(random_stochastic(n, rng))
        u = op.dense()
        s = _random_state(n, rng)
        assert np.abs(op.apply(s).amp - u @ s.amp).max() <= 1e-10


def test_reflection_is_involution():
    rng = rng_from_seed(29)
    for n in (2, 4, 6):
        op = sw.SzegedyOperator(random_stochastic(n, rng))
        s = _random_state(n, rng)
        back = op.reflect(op.reflect(s))
        assert np.abs(back.amp - s.amp).max() <= 1e-10


def test_edge_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        sw.EdgeState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        sw.EdgeState(np.array([1.0, 0.0, 0.0]))


def test_proxy_states_of_any_accepted_matrix_are_states():
    # column sums 5e-10 off one pass validate (STOCHASTIC_TOL = 1e-9); the
    # proxy state's norm^2 is that column sum, which NORM_TOL = 1e-10 rejected
    g = random_stochastic(4, rng_from_seed(3)).g.copy()
    g[:, 0] *= 1 + 5e-10
    op = sw.SzegedyOperator(sw.TransitionMatrix(g))
    assert abs(np.vdot(op.proxy_state(0).amp, op.proxy_state(0).amp).real - g[:, 0].sum()) <= 1e-15
    assert op.uniform_superposition().n == 4
    assert sw.szegedy.NORM_TOL == sw.graphs.STOCHASTIC_TOL
    with pytest.raises(ValueError, match="not 1 within 1e-09"):
        sw.EdgeState(np.array([1 + 2e-9, 0.0, 0.0, 0.0]) ** 0.5)
