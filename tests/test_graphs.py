import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwalk as sw
from semiwalk.cli import main
from semiwalk.corpus import (
    random_stochastic,
    random_symmetric_corpus,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk.errors import (
    DanglingNodeError,
    NegativeWeightError,
    NotStochasticError,
    ParseError,
    SemiwalkError,
)
from semiwalk.graphs import MAX_NODES


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


def test_validate_numbers_a_stacks_columns_matrix_by_matrix():
    stack = np.array([np.eye(2), [[0.5, 0.2], [0.47, 0.8]], np.eye(2)])
    with pytest.raises(NotStochasticError) as err:
        sw.validate(stack)
    assert err.value.column == 2  # matrix 1, column 0
    sw.validate(stack[[0, 2]])


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



def test_symmetric_corpus_equals_one_call_per_size_bitwise():
    sizes = [3 + k % 8 for k in range(50)] + [1, 2, 128, 5]
    one_by_one, stacked = rng_from_seed(149), rng_from_seed(149)
    expected = [random_symmetric_stochastic(n, one_by_one) for n in sizes]
    got = random_symmetric_corpus(sizes, stacked)
    assert [m.n for m in got] == sizes
    for a, b in zip(got, expected, strict=True):
        assert np.array_equal(a.g, b.g)
    assert np.array_equal(stacked.random(4), one_by_one.random(4))  # the same stream consumed
    # the matrices of a stack take 42 to 63 rounds; a round limit or a looser
    # tol stops each one where it stops alone
    for kwargs in ({"max_rounds": 45}, {"tol": 1e-11}):
        one_by_one, stacked = rng_from_seed(151), rng_from_seed(151)
        expected = [random_symmetric_stochastic(n, one_by_one, **kwargs) for n in sizes[:12]]
        got = random_symmetric_corpus(sizes[:12], stacked, **kwargs)
        assert all(np.array_equal(a.g, b.g) for a, b in zip(got, expected, strict=True))
    assert random_symmetric_corpus([], rng_from_seed(1)) == []

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


def _reference_csv(m):
    lines = [f"n={m.n};orientation=column-stochastic"]
    for row in m.g:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _reference_dot(m):
    lines = ["digraph {"]
    for i in range(m.n):
        lines.append(f"  {i};")
    for i in range(m.n):
        for j in range(m.n):
            w = m.g[j, i]
            if w > 1e-9:  # the support tolerance: smaller entries are rounding noise
                lines.append(f'  {i} -> {j} [label="{w:.6f}", weight={w:.6f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_csv_and_dot_bytes_match_elementwise_reference(hub):
    # the serializers format whole rows from .tolist(); the references format
    # one numpy scalar at a time, as the files were first written
    rng = rng_from_seed(79)
    mats = [hub, sw.cycle_graph(7), sw.from_weights(np.eye(3))]
    for n in (1, 2, 5, 16, 33):
        mats.append(random_stochastic(n, rng))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n) * 1e-300
        mats.append(sw.from_weights(w))
    # members 4, 24, 28 and 40..60 hold zeros up to rounding (2e-16..3e-14)
    mats += sw.build_family(sw.TransitionMatrix(np.full((3, 3), 1 / 3)), 1, 60).members
    for m in mats:
        assert sw.serialize(m, "csv") == _reference_csv(m)
        assert sw.serialize(m, "dot") == _reference_dot(m)


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



@pytest.mark.parametrize("row, fields, field", [
    (2, ["x", "0.5", "0.5"], 0),
    (3, ["0.5", "1e-3", "nan0"], 2),
    (4, ["0.2", "", "--1"], 1),  # the first bad field of a row is reported
])
def test_csv_bad_field_message_line_and_field(row, fields, field):
    rows = [["0.5", "0.25", "0.25"], ["0.25", "0.5", "0.25"], ["0.25", "0.25", "0.5"]]
    rows[row - 2] = fields
    text = "n=3;orientation=column-stochastic\n" + "\n".join(map(",".join, rows)) + "\n"
    with pytest.raises(ParseError) as err:
        sw.deserialize(text, "csv")
    assert (err.value.line, err.value.field) == (row, field)
    assert str(err.value).startswith(f"bad number {fields[field].strip()!r}")


def test_csv_parse_is_bitwise_round_trip():
    g = random_stochastic(128, rng_from_seed(157))
    assert np.array_equal(sw.deserialize(sw.serialize(g, "csv"), "csv").g, g.g / g.g.sum(axis=0))

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


_BACK_EDGE = {"from": 1, "to": 0, "w": 1}


@pytest.mark.parametrize("doc", [
    pytest.param({"n": 2, "edges": [{"from": 0.0, "to": 1, "w": 1}, _BACK_EDGE]}, id="float-endpoint"),
    pytest.param({"n": 2, "edges": [{"from": True, "to": 1, "w": 1}, _BACK_EDGE]}, id="bool-endpoint"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": "1", "w": 1}, _BACK_EDGE]}, id="string-endpoint"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": True}, _BACK_EDGE]}, id="bool-weight"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": "1"}, _BACK_EDGE]}, id="string-weight"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": None}, _BACK_EDGE]}, id="null-weight"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": float("inf")}, _BACK_EDGE]}, id="inf-weight"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": 10**400}, _BACK_EDGE]}, id="huge-int-weight"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1, "w": 1e308}, {"from": 0, "to": 0, "w": 1e308},
                                    _BACK_EDGE]}, id="column-sum-overflow"),
    pytest.param({"n": 2, "edges": [{"from": 0, "to": 1}, _BACK_EDGE]}, id="missing-weight"),
    pytest.param({"n": True, "edges": []}, id="bool-count"),
    pytest.param({"n": 2.0, "edges": []}, id="float-count"),
    pytest.param({"n": 100_000, "edges": []}, id="count-above-cap"),
])
def test_json_rejects_loose_types_and_sizes(doc):
    # each used to be accepted, read as another value or end in a numpy traceback
    with pytest.raises(ParseError):
        sw.deserialize(json.dumps(doc), "json")


def test_node_count_cap_in_both_formats():
    ok = {"n": MAX_NODES, "edges": [{"from": i, "to": i, "w": 1} for i in range(MAX_NODES)]}
    assert sw.deserialize(json.dumps(ok), "json").n == MAX_NODES
    for n in (0, MAX_NODES + 1, 10**30):
        with pytest.raises(ParseError) as err:
            sw.deserialize(f"n={n};orientation=column-stochastic\n1.0\n", "csv")
        assert err.value.line == 1 and err.value.field == "n"
        with pytest.raises(ParseError):
            sw.deserialize(json.dumps({"n": n, "edges": []}), "json")


# Generated input files: mostly well-formed, with every field sometimes
# replaced by a value of the wrong type or range.
_ANY = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
_EDGE = st.one_of(
    st.fixed_dictionaries({"from": st.integers(0, 4) | _ANY, "to": st.integers(0, 4) | _ANY,
                           "w": st.floats(0, 10) | st.integers(0, 5) | _ANY}),
    st.dictionaries(st.sampled_from(["from", "to", "w"]), _ANY),
    _ANY,
)
_JSON_TEXT = st.fixed_dictionaries(
    {"n": st.integers(1, 5) | _ANY, "edges": st.lists(_EDGE, max_size=12) | _ANY}
).map(json.dumps) | st.text(max_size=20)
_CSV_TOKEN = st.one_of(st.floats(0, 1).map(repr), st.sampled_from(["0", "1", "nan", "-inf", "1e999", ""]),
                       st.text(max_size=4))


@st.composite
def _csv_text(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):  # a valid matrix, written as the package writes it
        w = np.array(draw(st.lists(st.floats(1e-3, 1), min_size=n * n, max_size=n * n))).reshape(n, n)
        return sw.serialize(sw.TransitionMatrix(w / w.sum(axis=0)), "csv")
    count = draw(st.sampled_from([str(n), "0", str(MAX_NODES + 1), "9" * 30, ""]))
    orientation = draw(st.sampled_from(["column-stochastic", "row-stochastic"]))
    rows = draw(st.lists(st.lists(_CSV_TOKEN, min_size=n, max_size=n).map(",".join), max_size=5))
    return "\n".join([f"n={count};orientation={orientation}", *rows]) + "\n"


def _parse_or_none(text: str, fmt: str):
    """The parsed matrix, checked stochastic, or None on a SemiwalkError."""
    try:
        m = sw.deserialize(text, fmt)
    except SemiwalkError:
        return None
    sw.graphs.validate(m)
    return m


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON_TEXT.map(lambda t: (t, "json")), _csv_text().map(lambda t: (t, "csv"))))
def test_deserialize_gives_matrix_or_semiwalk_error(case):
    _parse_or_none(*case)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_JSON_TEXT.map(lambda t: (t, "json")), _csv_text().map(lambda t: (t, "csv"))))
def test_family_cli_exits_0_or_2_on_generated_files(case):
    text, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"graph.{fmt}"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["family", "--input", str(path), "--format", fmt, "--tq-max", "2",
                         "--out", str(Path(tmp) / "out")])
    if _parse_or_none(text, fmt) is None:
        assert code == 2
        assert issubclass(getattr(sw.errors, json.loads(err.getvalue())["error"]), SemiwalkError)
    else:
        assert code == 0


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
