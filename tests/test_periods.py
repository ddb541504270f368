"""The period paths against brute-force loops.

``family_period``, ``distinct_matrices`` and ``unitary_period`` take blocks of
members or powers at once and find the pairs to compare by sorting column-0
keys. The loops here compare every member in full and every power alone, with
no sketch, key or block; the library must give their answers on cycles,
random sparse and dense families, the hub, the chain and hand-built pools
whose members sit 0.5, 1 and 1.5 tol apart, also with blocks small enough
that every block boundary is crossed.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import semiwalk as sw
from semiwalk import family, graphs
from semiwalk.corpus import random_stochastic, rng_from_seed
from semiwalk.errors import InsufficientRangeError
from semiwalk.graphs import _unchecked

TOL = family.MATRIX_TOL


def loop_family_period(stack, tol=TOL):
    length = len(stack)
    for p in range(1, length):
        if all(np.abs(stack[t] - stack[t + p]).max() <= tol for t in range(length - p)):
            if length >= 2 * p:
                return p
            raise InsufficientRangeError(f"candidate period {p} needs t_q_max >= {2 * p}, have {length}")
    return None


def loop_distinct(stack, tol=TOL):
    try:
        period = loop_family_period(stack, tol)
    except InsufficientRangeError:
        period = None
    pool = stack[:period] if period else stack
    reps = []
    for t in range(len(pool)):
        # every representative in full at once; the answer of comparing them one by one
        if not reps or not (np.abs(pool[reps] - pool[t]).max(axis=(1, 2)) <= tol).any():
            reps.append(t)
    return len(reps)


def loop_unitary_period(g, t_max, tol=TOL):
    theta = family._eigenphases(g.g)
    for p in range(1, t_max + 1):
        if np.abs(np.exp(1j * p * theta) - 1.0).max() <= tol:
            return p
    return None


def _period_or_error(f, stack, tol):
    try:
        return f(stack, tol)
    except InsufficientRangeError as e:
        return str(e)


def _sparse(n, rng):
    """A random column-stochastic matrix with about a third of its entries
    nonzero, some on the diagonal, one at least in every column."""
    w = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.6))
    w[rng.integers(0, n, n), np.arange(n)] += 1.0
    return sw.TransitionMatrix(w / w.sum(axis=0))


def _inputs():
    """(name, source, class, t_q_max): cycles 3..64, 300 seeded random sparse
    and dense families in both classes, the hub and the two-node chain."""
    cases = [(f"cycle {n}", sw.cycle_graph(n), 1, 2 * n) for n in range(3, 65)]
    # period n matches but is seen only once: InsufficientRangeError
    cases += [(f"cycle {n} short", sw.cycle_graph(n), 1, n + 1 + n // 2) for n in range(3, 13)]
    rng = rng_from_seed(29)
    for k in range(300):
        n, t_q_max = int(rng.integers(1, 10)), int(rng.integers(1, 41))
        g = _sparse(n, rng) if k % 2 else random_stochastic(n, rng)
        cases.append((f"random {k}", g, 1 + k % 4 // 2, t_q_max))
    return cases + [("hub", sw.symmetric_hub(), 1, 60), ("chain", sw.two_node_chain(), 1, 2000)]


@pytest.fixture(scope="module")
def library_inputs():
    """Each input's family and the loops' answers, computed once."""
    out = []
    for name, g, class_tag, t_q_max in _inputs():
        fam = sw.build_family(g, class_tag, t_q_max)
        want = (_period_or_error(loop_family_period, fam.stack, TOL), loop_distinct(fam.stack),
                loop_unitary_period(g, 2 * t_q_max))
        out.append((name, g, fam, want))
    return out


# (PHASE_BLOCK, STREAM_BLOCK): the defaults; one power and one member pair
# per block; a few of each per block
BLOCKS = [None, (64, 1), (1024, 200)]


def _set_blocks(monkeypatch, blocks):
    if blocks is not None:
        monkeypatch.setattr(graphs, "PHASE_BLOCK", blocks[0])
        monkeypatch.setattr(graphs, "STREAM_BLOCK", blocks[1])


@pytest.mark.parametrize("blocks", BLOCKS)
def test_periods_equal_the_loops(monkeypatch, library_inputs, blocks):
    _set_blocks(monkeypatch, blocks)
    for name, g, fam, want in library_inputs:
        got = (_period_or_error(lambda s, tol: sw.family_period(fam, tol), fam.stack, TOL),
               sw.distinct_matrices(fam), sw.unitary_period(g, 2 * fam.t_q_max))
        assert got == want, name


def test_inputs_cover_periodic_and_short_families(library_inputs):
    wants = [want for _, _, _, want in library_inputs]
    assert sum(isinstance(w[0], int) for w in wants) >= 100
    assert any(isinstance(w[0], str) for w in wants)  # a candidate the range cannot certify
    assert sum(w[0] is None for w in wants) >= 100
    assert sum(w[2] is not None for w in wants) >= 70


def _pool(n, t_q_max, tol, rng):
    """A hand-built (unchecked) family on dyadic entries, so that every
    difference below is exact: a few prototypes, each member one of them
    plus edits of 0, +-0.5, +-1 or +-1.5 tol. Every member shares column 0
    and the edits fall elsewhere; or column 0 moves as one by an edit, where
    two columns a tol apart have keys the farthest apart; or each entry has
    its own edit. Some pools repeat with a period."""
    protos = rng.integers(1 << 20, 1 << 30, size=(int(rng.integers(1, 4)), n, n)) * 2.0**-40
    steps = np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    picks = rng.integers(0, len(protos), t_q_max)
    edits = tol * steps[rng.integers(0, len(steps), (t_q_max, n, n))]
    mode = rng.integers(0, 3)
    if mode == 0:
        edits[:, :, 0] = 0.0  # one shared column 0
        protos[:, :, 0] = protos[0, :, 0]
    elif mode == 1:
        edits[:, :, 0] = edits[:, :1, 0]
        edits[:, :, 1:] *= rng.random() < 0.5
    stack = protos[picks] + edits
    if rng.random() < 0.25:
        stack = np.tile(stack[:max(1, t_q_max // 3)], (3, 1, 1))
    return _unchecked(family.SemiclassicalFamily,
                      {"source": sw.TransitionMatrix(np.full((n, n), 1.0 / n)), "class_tag": 1, "stack": stack})


@pytest.mark.parametrize("blocks", BLOCKS)
def test_pools_at_the_tolerance_equal_the_loops(monkeypatch, blocks):
    _set_blocks(monkeypatch, blocks)
    rng = rng_from_seed(30)
    tol = 2.0**-30
    for k in range(300):
        fam = _pool(int(rng.integers(1, 7)), int(rng.integers(1, 41)), tol, rng)
        want = (_period_or_error(loop_family_period, fam.stack, tol), loop_distinct(fam.stack, tol))
        got = (_period_or_error(lambda s, t: sw.family_period(fam, t), fam.stack, tol),
               sw.distinct_matrices(fam, tol))
        assert got == want, k


def test_key_windows_hold_only_equal_cycle_members():
    # on a cycle's period, members t and n - t are equal and every other pair
    # differs on column 0; the key keeps them apart, where weights linear in
    # i mod 1 give every member one key
    for n in range(3, 65):
        pool = sw.build_family(sw.cycle_graph(n), 1, n).stack
        order, lo, hi = family._key_windows(pool, TOL)
        for t in range(n):
            same = np.flatnonzero(np.abs(pool[:, :, 0] - pool[t, :, 0]).max(axis=1) <= TOL)
            assert sorted(order[lo[t]:hi[t]].tolist()) == same.tolist(), (n, t)


def test_huge_tol_makes_the_margin_inf_without_a_warning():
    # 1.7e307 times the key weights' sum overflows at N = 9
    g = random_stochastic(9, rng_from_seed(3))
    fam = sw.build_family(g, 1, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        order, lo, hi = family._key_windows(fam.stack, 1.7e307)
        assert (lo == 0).all() and (hi == 5).all()
        assert sw.family_period(fam, 1.7e307) == 1
        assert sw.distinct_matrices(fam, 1.7e307) == 1
        assert sw.unitary_period(g, 5, 1.7e307) == 1


def test_unitary_period_holds_a_few_blocks_of_powers(monkeypatch):
    # 20000 powers of N = 128 at once would be 41 MB of complex phases; the
    # blocks hold PHASE_BLOCK // 16 complex entries, 1 MiB, and one real
    # modulus of them; measured 1.5 MiB
    g = random_stochastic(128, rng_from_seed(5))
    theta = family._eigenphases(g.g)
    monkeypatch.setattr(family, "_eigenphases", lambda _: theta)
    tracemalloc.start()
    try:
        assert sw.unitary_period(g, 20000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (graphs.PHASE_BLOCK // 16) * 16


def test_distinct_matrices_holds_o_p_plus_n2_beyond_its_stack(monkeypatch):
    # 1024 members of N = 128, all with one column 0, so every key is the same
    # and every window is the whole pool; three matrices in an aperiodic order
    n, count = 128, 1024
    rng = rng_from_seed(8)
    protos = rng.random((3, n, n))
    protos[:, :, 0] = protos[0, :, 0]
    stack = protos[rng.integers(0, 3, count)]
    fam = _unchecked(family.SemiclassicalFamily,
                     {"source": sw.TransitionMatrix(np.full((n, n), 1.0 / n)), "class_tag": 1, "stack": stack})
    # the pool alone: family_period keeps a (P, N) copy of column 0 of its own
    monkeypatch.setattr(family, "family_period", lambda f, tol: None)
    tracemalloc.start()
    try:
        assert sw.distinct_matrices(fam) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured 0.79 MiB: the keys and windows, and the earlier representatives
    # gathered with t's member in full, a STREAM_BLOCK at most, twice; a
    # count that keeps two (P, N) column copies peaks at 2.3 MiB here
    assert peak <= 64 * count + 2 * max(graphs.STREAM_BLOCK, n * n) * 8
