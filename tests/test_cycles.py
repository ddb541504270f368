import math
import tracemalloc

import numpy as np
import pytest

import semiwalk as sw
from semiwalk import cycles, family, graphs, presets, verify
from semiwalk.errors import TooLargeError, TooSmallError
from semiwalk.corpus import random_circulant_symmetric, rng_from_seed
from semiwalk.graphs import MAX_NODES, SUPPORT_TOL, _circulant, _reach

from conftest import closure_by_squaring


def _components_by_search(g: np.ndarray, tol: float = 1e-9) -> list[list[int]]:
    """Independent SCC oracle: per-node forward/backward reachability searches."""
    n = g.shape[0]

    def reachable(start, forward):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in range(n):
                edge = g[w, v] > tol if forward else g[v, w] > tol
                if edge and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    assigned = set()
    out = []
    for i in range(n):
        if i in assigned:
            continue
        comp = sorted(reachable(i, True) & reachable(i, False))
        assigned.update(comp)
        out.append(comp)
    return out


def test_cycle_graph_entries():
    g = sw.cycle_graph(6)
    for i in range(6):
        assert g.g[(i + 1) % 6, i] == 0.5
        assert g.g[(i - 1) % 6, i] == 0.5
    assert np.count_nonzero(g.g) == 12


def test_cycle_graph_four_is_doubly_stochastic_bipartite():
    g = sw.cycle_graph(4)
    assert np.abs(g.g.sum(axis=0) - 1.0).max() <= 1e-15
    assert np.abs(g.g.sum(axis=1) - 1.0).max() <= 1e-15
    for i in range(4):
        assert g.g[i, i] == 0.0
        assert g.g[(i + 2) % 4, i] == 0.0


def test_cycle_graph_too_small():
    for n in (1, 2):
        with pytest.raises(TooSmallError):
            sw.cycle_graph(n)
    with pytest.raises(TooSmallError):
        sw.cycle_semiclassical(2, 1)
    with pytest.raises(TooSmallError):
        sw.cycle_predictions(2)


@pytest.mark.parametrize("n, error", [(2, TooSmallError), (-1, TooSmallError), (3.0, ValueError),
                                      (True, ValueError)])
def test_cycle_formulas_check_n_alike(n, error):
    raised = []
    for call in (lambda: sw.cycle_semiclassical(n, 1), lambda: sw.cycle_predictions(n)):
        with pytest.raises(error) as err:
            call()
        raised.append(str(err.value))
    assert raised[0] == raised[1]


def test_cycle_graph_is_the_first_closed_form_member():
    for n in range(3, 12):
        assert np.array_equal(sw.cycle_graph(n).g, sw.cycle_semiclassical(n, 1).g)


def test_cycle_above_node_cap_is_too_large():
    # rejected before the n x n matrix is allocated
    assert sw.cycle_graph(MAX_NODES).n == MAX_NODES
    for make in (sw.cycle_graph, lambda n: sw.cycle_semiclassical(n, 1)):
        with pytest.raises(TooLargeError, match="MAX_NODES"):
            make(MAX_NODES + 1)


def test_closed_form_six_cycle_members():
    triangles = sw.cycle_semiclassical(6, 2)
    for i in range(6):
        assert triangles.g[(i + 2) % 6, i] == 0.5
        assert triangles.g[(i - 2) % 6, i] == 0.5
    pairs = sw.cycle_semiclassical(6, 3)
    for i in range(6):
        assert pairs.g[(i + 3) % 6, i] == 1.0
    identity = sw.cycle_semiclassical(6, 6)
    assert np.array_equal(identity.g, np.eye(6))


def _looped_cycle_member(n, t_q):
    """The closed form as it was first written, one node at a time."""
    g = np.zeros((n, n))
    for i in range(n):
        up = (i + t_q) % n
        down = (i - t_q) % n
        if up == down:
            g[up, i] = 1.0
        else:
            g[up, i] = 0.5
            g[down, i] = 0.5
    return g


def _looped_circulant_symmetric(n, rng):
    """random_circulant_symmetric as it was first written, one offset at a time."""
    offsets = np.zeros(n)
    values = rng.uniform(0.1, 1.0, n // 2 + 1)
    offsets[0] = values[0]
    for k in range(1, n // 2 + 1):
        offsets[k] = values[k]
        offsets[n - k] = values[k]
    offsets /= offsets.sum()
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return offsets[idx]


def test_circulant_constructors_equal_the_looped_ones_bitwise():
    for n in [*range(3, 41), 64, 127, 199]:
        for t in range(1, 2 * n + 1):
            assert np.array_equal(sw.cycle_semiclassical(n, t).g, _looped_cycle_member(n, t)), (n, t)
    for seed in range(20):
        rng, ref_rng = rng_from_seed(seed), rng_from_seed(seed)
        for n in range(1, 40):
            expected = _looped_circulant_symmetric(n, ref_rng)
            assert np.array_equal(random_circulant_symmetric(n, rng).g, expected), (seed, n)
    ring = np.zeros((7, 7))
    for i in range(7):
        ring[(i + 1) % 7, i], ring[(i - 1) % 7, i], ring[(i + 3) % 7, i] = 0.5, 0.2, 0.3
    assert np.array_equal(sw.asymmetric_ring(7).g, ring)
    g = rng_from_seed(5).random((9, 9))
    idx = (np.arange(9)[:, None] - np.arange(9)[None, :]) % 9
    assert np.array_equal(_circulant(g[:, 0]), g[idx, 0])


def test_closed_form_matches_pipeline():
    for n in range(3, 49):
        fam = sw.build_family(sw.cycle_graph(n), 1, 2 * n)
        for t in range(1, 2 * n + 1):
            dev = np.abs(sw.cycle_semiclassical(n, t).g - fam.member(t).g).max()
            assert dev <= 1e-12, (n, t, dev)


def test_cycle_report_deviation_is_the_stacked_difference_bitwise():
    for n in (7, 32):
        report, fam = presets.cycle_report(n, 2 * n, sw.family.MATRIX_TOL)
        closed = np.stack([sw.cycle_semiclassical(n, t).g for t in range(1, 2 * n + 1)])
        assert report["closed_form_max_deviation"] == float(np.abs(closed - fam.stack).max())


def test_a_deviation_at_the_bound_fails_cycle_and_verify_alike(monkeypatch):
    # cycle's match and verify's cycle-closed-form read one bound and pass
    # only strictly below it (match used to allow a deviation equal to it)
    report, _ = presets.cycle_report(6, 12, sw.family.MATRIX_TOL)
    assert report["match"]
    monkeypatch.setattr(presets, "CLOSED_FORM_BOUND", repr(report["closed_form_max_deviation"]))
    assert presets.cycle_report(6, 12, sw.family.MATRIX_TOL)[0]["match"] is False
    record = verify.cycle_checks(range(6, 7))[0]
    assert record["name"] == "cycle-closed-form" and record["passed"] is False


def test_closed_form_bound_is_fixed_to_1000_then_grows_in_proportion(monkeypatch):
    for t in (1, 12, 999, 1000):
        assert presets.closed_form_bound(t) == presets.CLOSED_FORM_BOUND
    assert float(presets.closed_form_bound(16000)) == 16 * float(presets.CLOSED_FORM_BOUND)
    assert float(presets.closed_form_bound(1001)) > float(presets.CLOSED_FORM_BOUND)
    assert verify.cycle_checks(range(3, 5))[0]["detail"].endswith("(tol 1e-12)")
    monkeypatch.setattr(presets, "CLOSED_FORM_BOUND", "2e-12")  # read at call time
    assert presets.closed_form_bound(1000) == "2e-12"
    assert float(presets.closed_form_bound(3000)) == 6e-12


# n: (the first member with an entry more than 1e-12 above 1, one later such
# member drawn by default_rng(21) from those within MAX_ENTRIES); cycle 4's
# members never hold one
PAST_ONE = {3: (15645, 610614), 5: (13040, 576860), 6: (15705, 204072), 7: (6097, 245875),
            8: (27832, 139104), 9: (15651, 154530), 10: (17435, 78340), 11: (5775, 30701),
            12: (12516, 37926), 13: (8567, 76609), 14: (9191, 66374), 15: (3225, 72975),
            16: (10544, 35616)}


@pytest.mark.parametrize("n", sorted(PAST_ONE))
def test_long_members_past_one_are_accepted_within_the_bound(n):
    # such members were refused as negative weights; each is within the cycle
    # bound for its t_q of the closed form
    for t in PAST_ONE[n]:
        g = sw.semiclassical_matrix(sw.cycle_graph(n), t, 1).g
        assert g.max() - 1 > 1e-12, (n, t)
        assert np.abs(g - cycles._cycle_member(n, t)).max() < float(presets.closed_form_bound(t)), (n, t)


def test_cycle_report_peak_memory_is_one_stack():
    # the family's stack and unitary_period's three blocked eigenphase grids
    # (24 MiB at n = 128): the closed forms are compared one member at a time,
    # where a stack of them took the peak to two stacks, 64.4 MiB
    n = 128
    tracemalloc.start()
    try:
        _, fam = presets.cycle_report(n, 2 * n, sw.family.MATRIX_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: the input and one member's temporaries, measured 0.43 MiB
    assert peak <= fam.stack.nbytes + 3 * graphs.PHASE_BLOCK * 8 + 8 * n * n * 8


def test_cycle_report_finds_the_family_period_once(monkeypatch):
    # the distinct members are counted over the one period the report finds;
    # through distinct_matrices it was found twice per report
    calls = []
    find = family.family_period
    monkeypatch.setattr(family, "family_period", lambda *args: calls.append(args) or find(*args))
    for n in (3, 6, 7, 16):
        calls.clear()
        report, _ = presets.cycle_report(n, 2 * n, family.MATRIX_TOL)
        assert len(calls) == 1 and report["match"], n
    calls.clear()
    assert all(r["passed"] for r in verify.cycle_checks(range(3, 11)))
    assert len(calls) == 8


def test_predictions_values():
    assert sw.cycle_predictions(6) == sw.CyclePrediction(6, 4, 6, 6)
    assert sw.cycle_predictions(7) == sw.CyclePrediction(7, 4, 7, 14)
    assert sw.cycle_predictions(3) == sw.CyclePrediction(3, 2, 3, 6)


def test_predictions_match_measurements():
    for n in range(3, 9):
        g = sw.cycle_graph(n)
        fam = sw.build_family(g, 1, 2 * n)
        pred = sw.cycle_predictions(n)
        assert sw.distinct_matrices(fam) == pred.distinct_count
        assert sw.family_period(fam) == pred.family_period
        assert sw.unitary_period(g, 2 * n) == pred.unitary_period


def test_components_six_cycle_breaking():
    assert sw.components(sw.cycle_semiclassical(6, 2)) == [[0, 2, 4], [1, 3, 5]]
    assert sw.components(sw.cycle_semiclassical(6, 3)) == [[0, 3], [1, 4], [2, 5]]
    assert sw.components(sw.cycle_semiclassical(6, 6)) == [[i] for i in range(6)]


def test_components_seven_cycle_permuted_chain():
    m = sw.cycle_semiclassical(7, 2)
    assert sw.components(m) == [list(range(7))]
    # support of column i is exactly {i-2, i+2}: the 0-2-4-6-1-3-5 chain
    for i in range(7):
        support = sorted(np.flatnonzero(m.g[:, i] > 1e-9).tolist())
        assert support == sorted({(i + 2) % 7, (i - 2) % 7})


def test_component_partition_matches_search_oracle():
    for n in range(3, 11):
        for t in range(1, 2 * n + 1):
            m = sw.cycle_semiclassical(n, t)
            assert sw.components(m) == _components_by_search(m.g)


def test_reach_matches_closure_oracles():
    rng = rng_from_seed(149)
    seen = set()
    for k in range(240):
        n = 1 + k % 12
        edges = rng.random((n, n)) < rng.uniform(0.05, 0.6)
        reach = _reach(edges)
        assert reach.dtype == bool and np.array_equal(reach, closure_by_squaring(edges)), edges
        m = sw.from_weights(np.where(edges, rng.uniform(0.1, 1.0, (n, n)), 0.0), patch_dangling=True)
        assert np.array_equal(_reach(m.g > SUPPORT_TOL), closure_by_squaring(m.g > SUPPORT_TOL))
        assert sw.components(m) == _components_by_search(m.g)
        seen.add(bool(reach.all()))
    assert seen == {True, False}


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_stacked_reach_matches_each_member(n):
    # one stack mixes members complete from the start or after some squarings
    # with members whose closure stays incomplete
    rng = rng_from_seed(167 + n)
    edges = rng.random((30, n, n)) < rng.choice([0.0, 0.02, 0.1, 0.4, 1.0], size=(30, 1, 1))
    stack = _reach(edges)
    assert stack.dtype == bool and stack.shape == edges.shape
    for e, r in zip(edges, stack):
        assert np.array_equal(r, _reach(e)) and np.array_equal(r, closure_by_squaring(e)), e
    complete = stack.all(axis=(-2, -1))
    assert complete.any() and (n == 1 or not complete.all())
    # any leading shape, and a stack of none
    assert np.array_equal(_reach(edges.reshape(5, 6, n, n)), stack.reshape(5, 6, n, n))
    assert _reach(edges[:0]).shape == (0, n, n)


@pytest.mark.parametrize("n", [64, 128, 200])
def test_reach_on_large_cycle_members(n):
    for t in (1, 2, n // 4, n // 2, n):
        m = sw.cycle_semiclassical(n, t)
        assert np.array_equal(_reach(m.g > SUPPORT_TOL), closure_by_squaring(m.g > SUPPORT_TOL)), t
        assert sw.components(m) == _components_by_search(m.g), t


def test_component_count_follows_gcd():
    # checked conjecture: the member at t_q splits into gcd(n, t_q) pieces
    cases = [(n, t) for n in range(3, 11) for t in range(1, 2 * n + 1)]
    cases += [(128, t) for t in (1, 2, 32, 64, 128)]
    for n, t in cases:
        count = len(sw.components(sw.cycle_semiclassical(n, t)))
        assert count == math.gcd(n, t % n if t % n else n), (n, t)


def test_components_on_general_matrix(hub):
    assert sw.components(hub) == [list(range(7))]


def _components_one_matrix(g: np.ndarray) -> list[list[int]]:
    """components as one matrix's closure and one comprehension over its rows."""
    reach = _reach(g > SUPPORT_TOL)
    return [np.flatnonzero(row).tolist() for i, row in enumerate(reach & reach.T) if row.argmax() == i]


def _random_supports(rng, count, n):
    """count random weight patterns on n nodes, with self-loops and isolated
    nodes (no edge in or out but, sometimes, a self-loop)."""
    g = rng.random((count, n, n)) * (rng.random((count, n, n)) < rng.uniform(0.0, 0.6, (count, 1, 1)))
    for m in g:
        lone = rng.random(n) < 0.2
        m[lone, :] = m[:, lone] = 0.0
        np.fill_diagonal(m, np.where(rng.random(n) < 0.3, 1.0, 0.0))
    return g


@pytest.mark.parametrize("stream_block", [None, 1, 50])
def test_stacked_components_equal_one_matrix_at_a_time(monkeypatch, stream_block):
    # member_components reads every member from one stacked closure per block;
    # small blocks end inside the members
    if stream_block is not None:
        monkeypatch.setattr(graphs, "STREAM_BLOCK", stream_block)
    for n in range(3, 49):
        fam = sw.build_family(sw.cycle_graph(n), 1, 2 * n)
        want = {str(t): _components_one_matrix(fam.stack[t - 1]) for t in range(1, n + 1)}
        assert presets.member_components(fam, n) == want, n
        closed = cycles._cycle_member(n, np.arange(1, 2 * n + 1))
        assert cycles._components(closed) == [_components_one_matrix(m) for m in closed], n
    rng = rng_from_seed(29)
    for n in [1, 1, 2, 3, 5, 8, 13]:
        g = _random_supports(rng, 40, n)
        assert cycles._components(g) == [_components_one_matrix(m) for m in g], n
    assert cycles._components(np.zeros((0, 4, 4))) == []
