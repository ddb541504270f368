import json
import time
import tracemalloc

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
from semiwalk.errors import DimensionMismatchError, InsufficientRangeError, NotStochasticError, TooLargeError
from semiwalk.family import MAX_ENTRIES
from semiwalk.graphs import MAX_NODES
from semiwalk import family, graphs, szegedy, verify
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
        phases = family._eigenphases(g.g)
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
            monkeypatch.setattr(graphs, "PHASE_BLOCK", step * g.n * g.n)
            assert np.abs(family._eigenphases(g.g) - reference).max() <= 1e-14


def _operator_eigenphases(op):
    """Reference: the eigenphases as a method of the N^2 operator computed
    them, on its cached sqrt(G), with the half-angle formula for every
    eigenvector in blocks of 1 << 20 entries."""
    g = op.source.g
    _, x = np.linalg.eigh(np.sqrt(g * g.T))
    theta = np.empty(op.n)
    step = max(1, (1 << 20) // op.n**2)
    for lo in range(0, op.n, step):
        b = x.T[lo:lo + step, :, None] * op._sqrt_g.T[None, :, :]
        bt = b.transpose(0, 2, 1)
        theta[lo:lo + step] = 2.0 * np.arctan2(np.linalg.norm(b - bt, axis=(1, 2)),
                                               np.linalg.norm(b + bt, axis=(1, 2)))
    return np.append(theta, np.pi) if op.n >= 2 else theta


def test_eigenphases_match_operator_formula():
    # arccos where |lam| <= 1/2 and the half-angle grids elsewhere: measured
    # 2.7e-15 off the half-angle formula everywhere
    for g in _oracle_graphs() + [sw.cycle_graph(256)]:
        assert np.abs(family._eigenphases(g.g) - _operator_eigenphases(SzegedyOperator(g))).max() <= 1e-14


def test_unitary_period_builds_no_operator(monkeypatch):
    graphs = _oracle_graphs()
    expected = [sw.unitary_period(g, 2 * g.n * g.n) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("unitary_period built the N^2 operator")

    monkeypatch.setattr(szegedy.SzegedyOperator, "__init__", refuse)
    assert [sw.unitary_period(g, 2 * g.n * g.n) for g in graphs] == expected


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


@pytest.mark.parametrize("make, bound", [
    # measured 4.8e-13, 4.0e-13 and 1.5e-12; the recurrence raised on the
    # chain and was 1.2e-11 off on the hub by t_q = 1000
    (sw.two_node_chain, 1e-12),
    (sw.symmetric_hub, 1e-12),
    (lambda: random_symmetric_stochastic(16, rng_from_seed(7)), 3e-12),
], ids=["two-node", "hub", "symmetric-16"])
def test_long_families_match_stepping_oracle(make, bound):
    g = make()
    stepped = _stepped_members(g, 2000)
    for class_tag in (1, 2):
        fam = sw.build_family(g, class_tag, 2000)
        dev = max(np.abs(m.g - ref).max() for m, ref in zip(fam.members, stepped[class_tag], strict=True))
        assert dev <= bound, (class_tag, dev)


def test_single_member_costs_the_same_at_every_t():
    # stepping to t_q = 200 000 took 1.1 s and then raised NotStochasticError
    start = time.perf_counter()
    member = sw.semiclassical_matrix(sw.two_node_chain(), 200000, 1)  # checked on construction
    assert time.perf_counter() - start < 0.25  # measured 0.6 ms
    assert member.n == 2


def test_class_equivalence_shifted_by_one():
    rng = rng_from_seed(53)
    gs = [random_stochastic(2 + k % 5, rng) for k in range(10)] + [sw.symmetric_hub(), sw.cycle_graph(7)]
    for fams1, fams2 in [([sw.build_family(g, 1, 5) for g in gs], [sw.build_family(g, 2, 6) for g in gs]),
                         (sw.build_families(gs, 1, 5), sw.build_families(gs, 2, 6))]:
        for fam1, fam2 in zip(fams1, fams2, strict=True):
            for t in range(1, 6):
                assert np.array_equal(fam1.member(t).g, fam2.member(t + 1).g), (fam1.source.n, t)


def test_class_two_member_one_is_the_identity(hub):
    rng = rng_from_seed(57)
    for g in [hub, sw.two_node_chain(), sw.cycle_graph(6), random_stochastic(9, rng)]:
        assert np.array_equal(sw.build_family(g, 2, 3).member(1).g, np.eye(g.n))
        assert np.array_equal(sw.build_families([g], 2, 1)[0].member(1).g, np.eye(g.n))
        assert np.array_equal(sw.semiclassical_matrix(g, 1, 2).g, np.eye(g.n))


def test_semiclassical_matrix_is_the_family_member_bitwise():
    rng = rng_from_seed(137)
    for g in [sw.two_node_chain(), sw.symmetric_hub(), random_stochastic(16, rng), random_stochastic(128, rng)]:
        for class_tag in (1, 2):
            # a whole family of 1000 members at N = 128 would be 128 MiB
            for t in (1, 2, 17, 200) + ((1000,) if g.n < 128 else ()):
                single = sw.semiclassical_matrix(g, t, class_tag).g
                assert single.tobytes() == sw.build_family(g, class_tag, t).member(t).g.tobytes(), (g.n, class_tag, t)


def test_semiclassical_matrix_forms_and_checks_one_member(monkeypatch):
    # through a whole family this peaked at 127.9 MiB, 1000 members of 128 KiB,
    # and checked the member twice: in the family's stack and on its own
    g = random_stochastic(128, rng_from_seed(3))
    checked = []
    check = graphs._check_transition
    for module in (graphs, family):
        monkeypatch.setattr(module, "_check_transition", lambda a: checked.append(a.shape) or check(a))
    tracemalloc.start()
    try:
        sw.semiclassical_matrix(g, 1000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == [(128, 128)]
    assert peak < 4 * 2**20  # measured 1.1 MiB


def _swap_index(n):
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def test_classical_limit_two_reads_the_dense_operator(monkeypatch, theorem_corpus):
    # classical-limit-II once read class 2's member 2 off the recurrence, where
    # it is class 1's member 1 bitwise, so it repeated classical-limit-I; the
    # suite builds its operators as stacks, through szegedy._dense
    mats = theorem_corpus[:14]
    dense = szegedy._dense

    def passed():
        return {c["name"]: c["passed"] for c in verify.unitarity_checks(mats, rng_from_seed(1))}

    def swap(sqrt_g):  # the permutation S of the N^2 basis states
        return _swap_index(sqrt_g.shape[-1])

    assert all(passed().values())
    # (2 Pi - 1) S, the factors of U in the wrong order: S U = 2 Pi - 1
    monkeypatch.setattr(szegedy, "_dense", lambda sqrt_g: dense(sqrt_g)[..., swap(sqrt_g), :][..., swap(sqrt_g)])
    assert not passed()["classical-limit-II"]
    # without the swap U is 2 Pi - 1, which fixes each |psi_i>, so register 2
    # of U^2 |psi_i> is still G[:, i]; class-equivalence is the check that fails
    monkeypatch.setattr(szegedy, "_dense", lambda sqrt_g: dense(sqrt_g)[..., swap(sqrt_g), :])
    checks = passed()
    assert checks["classical-limit-II"] and not checks["class-equivalence"]


def _unitarity_loop(mats, rng):
    """The four records of unitarity_checks from its former per-matrix loop."""
    dev_limit = dev_shift = dev_u = dev_mf = 0.0
    for g in mats:
        op = SzegedyOperator(g)
        u = op.dense()
        proxies = (np.eye(g.n)[:, None, :] * np.sqrt(g.g)).reshape(-1, g.n)
        reg2 = (np.abs(u @ (u @ proxies)) ** 2).reshape(g.n, g.n, g.n).sum(axis=0)
        dev_limit = max(dev_limit, float(np.abs(reg2 - g.g).max()))
        dev_u = max(dev_u, float(np.abs(u.conj().T @ u - np.eye(g.n * g.n)).max()))
        amp = rng.normal(size=g.n * g.n) + 1j * rng.normal(size=g.n * g.n)
        amp /= np.linalg.norm(amp)
        u_amp = u @ amp
        dev_mf = max(dev_mf, float(np.abs(op.apply(sw.EdgeState(amp)).amp - u_amp).max()))
        probs, u_probs = (np.abs(a.reshape(g.n, g.n)) ** 2 for a in (amp, u_amp))
        dev_shift = max(dev_shift, float(np.abs(u_probs.sum(axis=0) - probs.sum(axis=1)).max()))
    return [verify._below("classical-limit-II", dev_limit, "1e-12"),
            verify._below("class-equivalence", dev_shift, "1e-12"),
            verify._below("unitarity", dev_u, "1e-10", "max |U+U - 1|"),
            verify._below("matrix-free-vs-dense", dev_mf, "1e-10")]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unitarity_checks_equal_the_per_matrix_loop(seed, monkeypatch):
    # the stacks, whole or cut into chunks of a few operators, give the loop's
    # records string for string, from the same random states
    mats = random_stochastic_corpus(60, seed)
    expected = _unitarity_loop(mats, rng_from_seed(seed + 100))
    # (the dense chunks hold graphs.PHASE_BLOCK // 64 entries)
    for block in (graphs.PHASE_BLOCK, 64 * 3 * 8**4):
        monkeypatch.setattr(graphs, "PHASE_BLOCK", block)
        assert verify.unitarity_checks(mats, rng_from_seed(seed + 100)) == expected


def test_build_families_check_each_chunk_once(monkeypatch):
    # one check per (B, t_q_max, N, N) chunk, not one per family
    monkeypatch.setattr(family, "MAX_ENTRIES", 8 * 8 * 16)
    checked = []
    check = graphs._check_transition
    monkeypatch.setattr(graphs, "_check_transition", lambda a: checked.append(a.shape) or check(a))
    rng = rng_from_seed(131)
    gs = [random_stochastic(8 if k % 3 == 0 else 4, rng) for k in range(9)]  # 3 of N = 8, 6 of N = 4
    checked.clear()  # the inputs' own checks
    fams = sw.build_families(gs, 2, 16)
    assert sorted(checked) == [(1, 16, 8, 8)] * 3 + [(2, 16, 4, 4), (4, 16, 4, 4)]
    assert [f.source for f in fams] == gs


def test_period_searches_compare_members_past_their_column_zero():
    # members A, B, C, A, B, C share column 0 and differ elsewhere: the sketch
    # passes every pair, and only the full comparison tells them apart
    cols = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])
    abc = [np.column_stack([[0.2, 0.3, 0.5], cols[t], cols[(t + 1) % 3]]) for t in range(3)]
    fam = sw.SemiclassicalFamily(sw.TransitionMatrix(abc[0]), 1, np.stack(abc * 2))
    assert family.family_period(fam) == 3
    assert family.distinct_matrices(fam) == 3


def test_family_json_export_round_trips(two_node):
    fam = sw.build_family(two_node, 1, 3)
    chunks = list(fam.json_chunks())  # one member per chunk, then the bracket
    assert len(chunks) == 4 and chunks[-1] == b"]" and b"".join(chunks).decode() == fam.to_json()
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
    # a negative t_max used to return None
    with pytest.raises(ValueError, match=r"^t_max must be an integer >= 0, got -5$"):
        sw.unitary_period(two_node, -5)
    fam = sw.build_family(two_node, 1, 2)
    with pytest.raises(IndexError):
        fam.member(3)


def test_family_above_entry_cap_is_too_large(two_node):
    # N^2 * t_q_max entries are checked before any member is computed
    with pytest.raises(TooLargeError, match="MAX_ENTRIES"):
        sw.build_family(two_node, 1, MAX_ENTRIES // 4 + 1)
    with pytest.raises(TooLargeError, match="MAX_ENTRIES"):
        sw.semiclassical_matrix(sw.cycle_graph(MAX_NODES), 17, 2)


_P0 = sw.ProbabilityVector([0.8, 0.2])


def _apply(g, steps):
    op = SzegedyOperator(g)
    return op.apply(op.proxy_state(0), steps)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda g: sw.build_family(g, 1, 2.5), "t_q_max", id="build_family"),
    pytest.param(lambda g: sw.build_family(g, 1, True), "t_q_max", id="build_family-bool"),
    pytest.param(lambda g: sw.build_families([g], 1, 2.5), "t_q_max", id="build_families"),
    pytest.param(lambda g: sw.semiclassical_matrix(g, 2.5, 1), "t_q", id="semiclassical_matrix"),
    pytest.param(lambda g: sw.unitary_period(g, 2.5), "t_max", id="unitary_period"),
    pytest.param(lambda g: sw.unitary_period(g, True), "t_max", id="unitary_period-bool"),
    pytest.param(lambda g: sw.evolve(g, _P0, 2.5), "t", id="evolve"),
    # a bool used to run as one step
    pytest.param(lambda g: sw.evolve(g, _P0, True), "t", id="evolve-bool"),
    pytest.param(lambda g: sw.build_circuit(g, _P0, 1.5, 2), "t_q", id="build_circuit"),
    pytest.param(lambda g: sw.build_circuit(g, _P0, 1, True), "t_c", id="build_circuit-bool"),
    pytest.param(lambda g: sw.cycle_graph(6.0), "n", id="cycle_graph"),
    # a float t_q used to raise IndexError
    pytest.param(lambda g: sw.cycle_semiclassical(6, 1.5), "t_q", id="cycle_semiclassical"),
    pytest.param(lambda g: sw.cycle_semiclassical(6, False), "t_q", id="cycle_semiclassical-bool"),
    pytest.param(lambda g: sw.cycle_predictions(7.0), "n", id="cycle_predictions"),
    pytest.param(lambda g: _apply(g, 1.5), "steps", id="apply"),
    pytest.param(lambda g: _apply(g, True), "steps", id="apply-bool"),
    # both used to start at node 1
    pytest.param(lambda g: sw.sample_trajectories(g, 1.5, 3, seed=0, count=1), "x0", id="sample_trajectories"),
    pytest.param(lambda g: sw.sample_trajectories(g, True, 3, seed=0, count=1), "x0", id="sample_trajectories-bool"),
])
def test_float_or_bool_integer_arguments_are_value_errors(two_node, call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer\b"):
        call(two_node)


@pytest.mark.parametrize("tag", [True, 1.0, 2.0, np.float64(1.0)], ids=["bool", "float-1", "float-2", "numpy-float"])
def test_class_tag_is_the_integer_1_or_2(two_node, tag):
    # a bool or a float compares equal to 1 or 2 and used to be stored
    with pytest.raises(ValueError, match="^class_tag must be 1 or 2$"):
        sw.build_family(two_node, tag, 2)
    stack = sw.build_family(two_node, 1, 2).stack
    with pytest.raises(ValueError, match="^class_tag must be 1 or 2$"):
        sw.SemiclassicalFamily(two_node, tag, stack)


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
    """Reference: the recurrence with one checked TransitionMatrix per member.
    Class 2 sums over register 1 with its own formula, which the library
    replaced by the shifted class 1."""
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


def _looped_graphs():
    rng = rng_from_seed(71)
    graphs = [random_stochastic(n, rng) for n in range(2, 33)]
    return graphs + [sw.symmetric_hub(), sw.two_node_chain()] + [sw.cycle_graph(n) for n in range(3, 17)]


def test_members_match_looped_members():
    # the closed form against the recurrence it replaced: 4.7e-14 at most here
    for g in _looped_graphs():
        t_q_max = max(20, 2 * g.n)
        looped = [m.g for m in _looped_members(g, 1, t_q_max)]
        refs = {1: looped, 2: [np.eye(g.n)] + looped[:-1]}
        for class_tag, ref in refs.items():
            fam = sw.build_family(g, class_tag, t_q_max)
            for t, (member, expected) in enumerate(zip(fam.members, ref, strict=True), start=1):
                assert np.abs(member.g - expected).max() <= 1e-12, (g.n, class_tag, t)


def test_shifted_class_two_matches_its_own_formula():
    # the shift and the class-2 formula differ by rounding only: 2.8e-14 at
    # most here, 5.7e-14 measured on random inputs up to N = 128, t_q <= 30
    for g in _looped_graphs():
        t_q_max = max(20, 2 * g.n)
        fam = sw.build_family(g, 2, t_q_max)
        for t, (member, ref) in enumerate(zip(fam.members, _looped_members(g, 2, t_q_max), strict=True), start=1):
            assert np.abs(member.g - ref.g).max() <= 1e-13, (g.n, t)


def test_members_and_single_matrices_are_read_only(hub):
    for m in sw.build_family(hub, 2, 6).members:
        assert not m.g.flags.writeable
        with pytest.raises(ValueError):
            m.g[0, 0] = 0.5
    m = sw.semiclassical_matrix(hub, 4, 1)
    assert not m.g.flags.writeable
    assert np.array_equal(m.g, sw.build_family(hub, 1, 4).member(4).g)


def test_asymmetry_of_a_stack_is_its_members_largest(hub):
    rng = rng_from_seed(137)
    for g in [hub, sw.two_node_chain(), random_stochastic(6, rng), random_circulant_symmetric(8, rng)]:
        fam = sw.build_family(g, 1, 12)
        assert sw.asymmetry(fam.stack) == max(sw.asymmetry(m) for m in fam.members)


def _raised(fn, *args):
    with pytest.raises(sw.SemiwalkError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_long_two_node_family_is_valid():
    # the recurrence's rounding grows like t^2 eps on D's lam = 1 line, and
    # its member 1855 fails the unit-sum check; the closed form has no such line
    chain = sw.two_node_chain()
    assert _raised(_looped_members, chain, 1, 2000) == (
        NotStochasticError, "column 1 deviates from unit sum by 1.164e-09")
    fam = sw.build_family(chain, 1, 2000)  # checked as a whole
    stepped = _stepped_members(chain, 2000)[1]
    assert max(np.abs(m.g - ref).max() for m, ref in zip(fam.members, stepped, strict=True)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, -1e-3, 1 + 2e-12])
def test_bad_stack_raises_its_first_bad_members_error(hub, bad):
    stack = np.array([m.g for m in sw.build_family(hub, 1, 5).members])
    stack[2, 1, 3] = bad
    stack[3, 0, 0] = np.inf  # a later member's different fault is not the one reported
    expected = _raised(sw.TransitionMatrix, stack[2])
    assert _raised(sw.SemiclassicalFamily, hub, 1, stack) == expected


@pytest.mark.parametrize("shape", [(0, 7, 7), (7, 7), (3, 7, 6), (3, 6, 6), (1, 3, 7, 7)])
def test_wrong_shape_or_empty_stack_is_a_dimension_mismatch(hub, shape):
    stack = np.full(shape, 1.0 / shape[-2])  # every column of every matrix sums to 1
    with pytest.raises(DimensionMismatchError):
        sw.SemiclassicalFamily(hub, 1, stack)


def test_family_copies_a_callers_writable_stack(hub):
    stack = np.array([m.g for m in sw.build_family(hub, 1, 5).members])
    expected = stack.copy()
    fam = sw.SemiclassicalFamily(hub, 1, stack)
    view = stack[1:].view()
    view.setflags(write=False)  # read-only, but a view of writable memory
    fam_view = sw.SemiclassicalFamily(hub, 1, view)
    stack[...] = 0.0
    assert np.array_equal(fam.stack, expected)
    assert all(np.array_equal(m.g, e) for m, e in zip(fam.members, expected, strict=True))
    assert all(np.array_equal(m.g, e) for m, e in zip(fam_view.members, expected[1:], strict=True))
    assert not fam.stack.flags.writeable and not fam_view.stack.flags.writeable


def test_family_copies_a_read_only_stack(hub):
    frozen = sw.build_family(hub, 1, 5).stack
    fam = sw.SemiclassicalFamily(hub, 1, frozen)
    assert not np.shares_memory(fam.stack, frozen) and np.array_equal(fam.stack, frozen)
    assert not fam.stack.flags.writeable


def test_family_holds_only_its_stack():
    # a family is its stack, and its members are made on access: one object
    # per member kept 7.7 times the stack at this length
    tracemalloc.start()
    try:
        fam = sw.build_family(sw.two_node_chain(), 1, 2**20)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * fam.stack.nbytes


@pytest.mark.parametrize("class_tag", [1, 2])
def test_members_are_views_of_the_stack(hub, class_tag):
    fams = [sw.build_family(hub, class_tag, 9)] + sw.build_families(_batch_inputs(), class_tag, 9)
    for fam in fams:
        assert fam.stack.shape == (9, fam.source.n, fam.source.n)
        assert np.array_equal(fam.stack, np.stack([m.g for m in fam.members]))
        assert not fam.stack.flags.writeable
        for row, m in zip(fam.stack, fam.members, strict=True):  # same memory, same layout
            assert not m.g.flags.owndata and m.g.__array_interface__ == row.__array_interface__


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
    # column 0 scaled by 1 + 5e-11: the recurrence, which kept the column sums,
    # failed on it by t_q = 40
    g = random_stochastic(n, rng_from_seed(3)).g.copy()
    g[:, 0] *= 1 + 5e-11
    return sw.TransitionMatrix(g)


def test_off_sum_input_members_stay_valid():
    # its members are checked as a whole and drift from the normalised input's
    # with the phase error t * O(5e-11): 2.1e-9 at most by t_q = 400
    for n in (4, 16):
        g = _off_sum(n)
        fam = sw.build_family(g, 1, 400)
        ref = sw.build_family(sw.TransitionMatrix(g.g / g.g.sum(axis=0)), 1, 400)
        assert max(np.abs(a.g - b.g).max() for a, b in zip(fam.members, ref.members, strict=True)) <= 1e-8


@pytest.mark.parametrize("class_tag", [1, 2])
def test_build_families_bad_input_raises_its_own_error(class_tag, monkeypatch):
    rng = rng_from_seed(127)
    bad4, bad16 = random_stochastic(4, rng), random_stochastic(16, rng)
    member_stack = family._member_stack

    def faulty(g, class_tag, rows):
        # off-sum member 6 of bad4 and of bad16, whether alone or in a stack
        stack = member_stack(g, class_tag, rows).copy()
        for idx in np.ndindex(g.shape[:-2]):
            for bad, fault in ((bad4, 1e-6), (bad16, 2e-6)):
                if np.array_equal(g[idx], bad.g):
                    stack[idx + (5, 1, 0)] += fault
        return stack

    monkeypatch.setattr(family, "_member_stack", faulty)
    expected = _raised(sw.build_family, bad4, class_tag, 40)
    assert expected == (NotStochasticError, "column 0 deviates from unit sum by 1.000e-06")
    # size 16 is stacked first, and its bad input fails with another number;
    # the first bad input in input order is the one that raises
    gs = [random_stochastic(16, rng), random_stochastic(4, rng), bad4,
          random_stochastic(16, rng), bad16, random_stochastic(4, rng)]
    assert _raised(sw.build_family, bad16, class_tag, 40) != expected
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
