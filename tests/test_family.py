import json
import tracemalloc

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.corpus import (
    random_circulant_symmetric,
    random_stochastic,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk.errors import InsufficientRangeError, NotStochasticError, TooLargeError
from semiwalk.family import MAX_ENTRIES
from semiwalk.graphs import MAX_NODES, _stacked_members
from semiwalk import szegedy
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


def _unblocked_eigenphases(op):
    """Reference: the half-angle formula over all N eigenvector grids at once."""
    g = op.source.g
    _, x = np.linalg.eigh(np.sqrt(g * g.T))
    b = x.T[:, :, None] * np.sqrt(g).T[None, :, :]
    bt = b.transpose(0, 2, 1)
    theta = 2.0 * np.arctan2(np.linalg.norm(b - bt, axis=(1, 2)), np.linalg.norm(b + bt, axis=(1, 2)))
    return np.append(theta, np.pi) if g.shape[0] >= 2 else theta


def test_blocked_eigenphases_equal_unblocked_formula(theorem_corpus, monkeypatch):
    # every block size from one eigenvector per block to all N in one; a
    # block's (k, N, N) reduction may sum in another order when k = 1
    for g in theorem_corpus:
        op = SzegedyOperator(g)
        reference = _unblocked_eigenphases(op)
        for step in range(1, g.n + 1):
            monkeypatch.setattr(szegedy, "PHASE_BLOCK", step * g.n * g.n)
            assert np.abs(op._eigenphases() - reference).max() <= 1e-14


def test_eigenphases_peak_memory_is_blocked():
    # one (N, N, N) grid at n = 256 is 128 MiB, and the unblocked formula
    # peaked at 385 MiB; blocks of PHASE_BLOCK entries measured 25.0 MiB
    g = sw.cycle_graph(256)
    tracemalloc.start()
    try:
        assert sw.unitary_period(g, 1) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


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


def test_family_above_entry_cap_is_too_large(two_node):
    # N^2 * t_q_max entries are checked before any member is computed
    with pytest.raises(TooLargeError, match="MAX_ENTRIES"):
        sw.build_family(two_node, 1, MAX_ENTRIES // 4 + 1)
    with pytest.raises(TooLargeError, match="MAX_ENTRIES"):
        sw.semiclassical_matrix(sw.cycle_graph(MAX_NODES), 17, 2)


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


def _looped_members(g, class_tag, t_q_max):
    """Reference: the recurrence with one checked TransitionMatrix per member."""
    n = g.n
    d = np.sqrt(g.g * g.g.T)
    s = g.g.sum(axis=0)[:, None]
    alpha, beta, d_beta = np.eye(n), np.zeros((n, n)), np.zeros((n, n))
    members = []
    for _ in range(t_q_max):
        alpha, beta, d_alpha = -beta, (2.0 * s - 1.0) * alpha + 2.0 * d_beta, -d_beta
        d_beta = d @ beta
        if class_tag == 1:
            probs = s * alpha * alpha + 2.0 * alpha * d_beta + g.g @ (beta * beta)
        else:
            probs = g.g @ (alpha * alpha) + 2.0 * beta * d_alpha + s * beta * beta
        members.append(sw.TransitionMatrix(np.maximum(probs, 0.0)))
    return members


def test_stacked_members_equal_looped_members_bitwise():
    rng = rng_from_seed(71)
    graphs = [random_stochastic(n, rng) for n in range(2, 33)]
    graphs += [sw.symmetric_hub(), sw.two_node_chain()] + [sw.cycle_graph(n) for n in range(3, 17)]
    for g in graphs:
        t_q_max = max(20, 2 * g.n)
        for class_tag in (1, 2):
            fam = sw.build_family(g, class_tag, t_q_max)
            ref = _looped_members(g, class_tag, t_q_max)
            for t, (member, expected) in enumerate(zip(fam.members, ref, strict=True), start=1):
                assert np.array_equal(member.g, expected.g), (g.n, class_tag, t)


def test_members_and_single_matrices_are_read_only(hub):
    for m in sw.build_family(hub, 2, 6).members:
        assert not m.g.flags.writeable
        with pytest.raises(ValueError):
            m.g[0, 0] = 0.5
    m = sw.semiclassical_matrix(hub, 4, 1)
    assert not m.g.flags.writeable
    assert np.array_equal(m.g, sw.build_family(hub, 1, 4).member(4).g)


def _raised(fn, *args):
    with pytest.raises(sw.SemiwalkError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_long_two_node_family_fails_as_its_first_bad_member():
    chain = sw.two_node_chain()
    expected = _raised(_looped_members, chain, 1, 2000)
    assert expected == (NotStochasticError, "column 1 deviates from unit sum by 1.164e-09")
    assert _raised(sw.build_family, chain, 1, 2000) == expected


@pytest.mark.parametrize("bad", [np.nan, -1e-3, 1 + 2e-12])
def test_bad_stack_raises_its_first_bad_members_error(hub, bad):
    stack = np.array([m.g for m in sw.build_family(hub, 1, 5).members])
    stack[2, 1, 3] = bad
    stack[3, 0, 0] = np.inf  # a later member's different fault is not the one reported
    expected = _raised(sw.TransitionMatrix, stack[2])
    assert _raised(_stacked_members, stack) == expected


def _batch_inputs():
    """Interleaved sizes 2..8 (random, random symmetric, circulant) plus one N = 128."""
    rng = rng_from_seed(113)
    gens = (random_stochastic, random_symmetric_stochastic, random_circulant_symmetric)
    gs = [gens[k % 3](2 + k % 7, rng) for k in range(30)]
    gs.insert(11, random_stochastic(128, rng))
    return gs + [sw.symmetric_hub(), sw.two_node_chain(), sw.cycle_graph(6)]


@pytest.mark.parametrize("class_tag", [1, 2])
def test_build_families_equal_build_family_bitwise(class_tag):
    gs = _batch_inputs()
    fams = sw.build_families(gs, class_tag, 14)
    assert len(fams) == len(gs)
    for g, fam in zip(gs, fams, strict=True):
        alone = sw.build_family(g, class_tag, 14)
        assert fam.source is g and fam.class_tag == class_tag and fam.t_q_max == 14
        for t, (member, expected) in enumerate(zip(fam.members, alone.members, strict=True), start=1):
            assert np.array_equal(member.g, expected.g), (g.n, t)
            assert not member.g.flags.writeable
    assert sw.build_families([], class_tag, 14) == []


def _off_sum(n):
    # ROADMAP item 2's input: column 0 scaled by 1 + 5e-11 fails by t_q = 40
    g = random_stochastic(n, rng_from_seed(3)).g.copy()
    g[:, 0] *= 1 + 5e-11
    return sw.TransitionMatrix(g)


@pytest.mark.parametrize("class_tag", [1, 2])
def test_build_families_bad_input_raises_its_own_error(class_tag):
    rng = rng_from_seed(127)
    bad4, bad16 = _off_sum(4), _off_sum(16)
    expected = _raised(sw.build_family, bad4, class_tag, 40)
    assert expected[0] in (NotStochasticError, sw.NegativeWeightError)
    # size 16 is stacked first, and its bad input fails with another number;
    # the first bad input in input order is the one that raises
    gs = [random_stochastic(16, rng), random_stochastic(4, rng), bad4,
          random_stochastic(16, rng), bad16, random_stochastic(4, rng)]
    if class_tag == 1:
        assert _raised(sw.build_family, bad16, 1, 40) != expected
    assert _raised(sw.build_families, gs, class_tag, 40) == expected


def test_build_families_split_stacks_above_entry_cap(monkeypatch):
    from semiwalk import family
    monkeypatch.setattr(family, "MAX_ENTRIES", 8 * 8 * 16)
    shapes = []
    member_stack = family._member_stack
    monkeypatch.setattr(family, "_member_stack",
                        lambda g, *args: shapes.append(g.shape) or member_stack(g, *args))
    rng = rng_from_seed(131)
    gs = [random_stochastic(8 if k % 3 == 0 else 4, rng) for k in range(9)]  # 3 of N = 8, 6 of N = 4
    fams = sw.build_families(gs, 1, 16)  # 4608 entries in all, every family fits
    assert max(s[0] * s[1] ** 2 * 16 for s in shapes) <= family.MAX_ENTRIES
    assert sorted(shapes) == [(1, 8, 8)] * 3 + [(2, 4, 4), (4, 4, 4)]
    for g, fam in zip(gs, fams, strict=True):
        shapes.clear()
        alone = sw.build_family(g, 1, 16)
        assert all(np.array_equal(a.g, b.g) for a, b in zip(fam.members, alone.members, strict=True))
    big = random_stochastic(9, rng)
    expected = _raised(sw.build_family, big, 1, 16)
    assert expected[0] is TooLargeError
    shapes.clear()
    assert _raised(sw.build_families, gs[:3] + [big], 1, 16) == expected
    assert shapes == []  # nothing was computed
