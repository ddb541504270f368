import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwalk as sw
from semiwalk.corpus import random_stochastic, random_symmetric_stochastic, rng_from_seed
from semiwalk.errors import (
    DanglingNodeError,
    NegativeWeightError,
    NotStochasticError,
    ParseError,
)


def test_from_weights_normalizes_cycle_adjacency():
    w = np.zeros((3, 3))
    for i in range(3):
        w[(i + 1) % 3, i] = 1.0
        w[(i - 1) % 3, i] = 1.0
    m = sw.from_weights(w)
    assert np.allclose(m.g[m.g > 0], 0.5)
    assert np.allclose(m.g.sum(axis=0), 1.0)


def test_from_weights_keeps_normalized_input(two_node):
    m = sw.from_weights(two_node.g)
    np.testing.assert_allclose(m.g, two_node.g, atol=1e-15)


def test_from_weights_dangling_column():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DanglingNodeError) as err:
        sw.from_weights(w)
    assert err.value.node == 0
    patched = sw.from_weights(w, patch_dangling=True)
    np.testing.assert_allclose(patched.g[:, 0], [0.5, 0.5])
    np.testing.assert_allclose(patched.g[:, 1], [1.0, 0.0])


def test_from_weights_rejects_negative():
    with pytest.raises(NegativeWeightError):
        sw.from_weights(np.array([[1.0, -0.1], [0.5, 0.5]]))


def test_from_weights_idempotent():
    rng = rng_from_seed(11)
    for _ in range(20):
        w = rng.random((5, 5))
        once = sw.from_weights(w)
        twice = sw.from_weights(once.g)
        assert np.abs(once.g - twice.g).max() <= 1e-12


def test_validate_accepts_identity_and_two_node(two_node):
    sw.validate(np.eye(4))
    sw.validate(two_node)


def test_validate_rejects_bad_column_sum():
    g = np.array([[0.5, 0.2], [0.47, 0.8]])
    with pytest.raises(NotStochasticError) as err:
        sw.validate(g)
    assert err.value.column == 0
    assert err.value.deviation == pytest.approx(0.03)


def test_transition_matrix_constructor_validates():
    with pytest.raises(NotStochasticError):
        sw.TransitionMatrix(np.array([[0.5, 0.2], [0.47, 0.8]]))
    # within the sum tolerance, but sqrt(G) of the negative entry would be NaN
    with pytest.raises(NegativeWeightError):
        sw.TransitionMatrix(np.array([[-1e-13, 0.5], [1 + 1e-13, 0.5]]))


def test_validate_rejects_non_finite_entries():
    with pytest.raises(NotStochasticError) as err:
        sw.TransitionMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]]))
    assert err.value.column == 0
    with pytest.raises(NotStochasticError) as err:
        sw.validate(np.array([[0.5, 0.5], [0.5, np.inf]]))
    assert err.value.column == 1


def test_classify_cycle_symmetric_homogeneous():
    for n in (3, 5, 6, 8):
        c = sw.classify(sw.cycle_graph(n))
        assert c.symmetric and c.homogeneous


def test_classify_ring_homogeneous_only():
    c = sw.classify(sw.asymmetric_ring(7))
    assert c.homogeneous and not c.symmetric


def test_classify_hub_symmetric_only(hub):
    c = sw.classify(hub)
    assert c.symmetric and not c.homogeneous


def test_symmetric_matrices_fix_uniform():
    # column-stochastic + symmetric forces row sums of one as well
    rng = rng_from_seed(5)
    for k in range(50):
        m = random_symmetric_stochastic(3 + k % 6, rng)
        assert sw.classify(m).symmetric
        uniform = np.full(m.n, 1.0 / m.n)
        assert np.abs(m.g @ uniform - uniform).max() <= 1e-12


def test_csv_round_trip(two_node):
    text = sw.serialize(two_node, "csv")
    assert text.splitlines()[0] == "n=2;orientation=column-stochastic"
    back = sw.deserialize(text, "csv")
    assert np.abs(back.g - two_node.g).max() <= 1e-12


def test_json_round_trip(hub):
    back = sw.deserialize(sw.serialize(hub, "json"), "json")
    assert np.abs(back.g - hub.g).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=9))
def test_round_trip_random_matrices(seed, n):
    m = random_stochastic(n, rng_from_seed(seed))
    for fmt in ("csv", "json"):
        back = sw.deserialize(sw.serialize(m, fmt), fmt)
        assert np.abs(back.g - m.g).max() <= 1e-12


def test_dot_six_cycle_has_twelve_half_edges():
    text = sw.serialize(sw.cycle_graph(6), "dot")
    assert text.count(" -> ") == 12
    assert text.count('label="0.500000"') == 12
    assert text.startswith("digraph {")


def test_dot_is_export_only():
    with pytest.raises(ValueError):
        sw.deserialize("digraph {}", "dot")


def test_csv_empty_input():
    with pytest.raises(ParseError) as err:
        sw.deserialize("", "csv")
    assert err.value.line == 1


def test_csv_bad_header():
    with pytest.raises(ParseError) as err:
        sw.deserialize("2\n1,0\n0,1\n", "csv")
    assert err.value.line == 1


def test_csv_wrong_orientation():
    text = "n=2;orientation=row-stochastic\n1.0,0.0\n0.0,1.0\n"
    with pytest.raises(ParseError) as err:
        sw.deserialize(text, "csv")
    assert err.value.field == "orientation"


def test_csv_bad_field_locus():
    text = "n=2;orientation=column-stochastic\n1.0,0.0\n0.0,oops\n"
    with pytest.raises(ParseError) as err:
        sw.deserialize(text, "csv")
    assert err.value.line == 3
    assert err.value.field == 1


def test_csv_rejects_off_stochastic():
    text = "n=2;orientation=column-stochastic\n0.5,0.2\n0.47,0.8\n"
    with pytest.raises(NotStochasticError):
        sw.deserialize(text, "csv")


def test_csv_renormalizes_tiny_drift(two_node):
    g = two_node.g.copy()
    g[0, 0] += 4e-10  # inside tolerance: parser renormalizes the column
    lines = ["n=2;orientation=column-stochastic"]
    lines += [",".join(repr(float(v)) for v in row) for row in g]
    back = sw.deserialize("\n".join(lines), "csv")
    assert np.abs(back.g.sum(axis=0) - 1.0).max() <= 1e-15


def test_json_empty_and_malformed():
    with pytest.raises(ParseError):
        sw.deserialize("", "json")
    with pytest.raises(ParseError):
        sw.deserialize("{not json", "json")
    with pytest.raises(ParseError) as err:
        sw.deserialize('{"edges": []}', "json")
    assert err.value.field == "n"


def test_json_edge_out_of_range():
    doc = '{"n": 2, "edges": [{"from": 0, "to": 5, "w": 1.0}]}'
    with pytest.raises(ParseError):
        sw.deserialize(doc, "json")


def test_json_normalizes_raw_weights():
    doc = '{"n": 2, "edges": [{"from": 0, "to": 1, "w": 3.0}, {"from": 1, "to": 0, "w": 2.0}]}'
    m = sw.deserialize(doc, "json")
    np.testing.assert_allclose(m.g, [[0.0, 1.0], [1.0, 0.0]])


def test_probability_vector_invariants():
    with pytest.raises(NotStochasticError):
        sw.ProbabilityVector(np.array([0.5, 0.4]))
    with pytest.raises(NegativeWeightError):
        sw.ProbabilityVector(np.array([1.5, -0.5]))
    with pytest.raises(NotStochasticError):
        sw.ProbabilityVector(np.array([np.nan, 1.0]))
    assert sw.ProbabilityVector.uniform(4).p.tolist() == [0.25] * 4
    assert sw.ProbabilityVector.point_mass(3, 1).p.tolist() == [0.0, 1.0, 0.0]


def test_types_are_immutable(two_node):
    with pytest.raises(ValueError):
        two_node.g[0, 0] = 0.5
