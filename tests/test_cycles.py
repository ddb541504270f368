import math

import numpy as np
import pytest

import semiwalk as sw
from semiwalk.errors import TooSmallError


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


def test_closed_form_matches_pipeline():
    for n in range(3, 49):
        fam = sw.build_family(sw.cycle_graph(n), 1, 2 * n)
        for t in range(1, 2 * n + 1):
            dev = np.abs(sw.cycle_semiclassical(n, t).g - fam.member(t).g).max()
            assert dev <= 1e-12, (n, t, dev)


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


def test_component_count_follows_gcd():
    # checked conjecture: the member at t_q splits into gcd(n, t_q) pieces
    for n in range(3, 11):
        for t in range(1, 2 * n + 1):
            count = len(sw.components(sw.cycle_semiclassical(n, t)))
            assert count == math.gcd(n, t % n if t % n else n)


def test_components_on_general_matrix(hub):
    assert sw.components(hub) == [list(range(7))]
