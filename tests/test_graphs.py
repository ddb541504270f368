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
    random_circulant_corpus,
    random_circulant_symmetric,
    random_stochastic,
    random_stochastic_corpus,
    random_symmetric_corpus,
    random_symmetric_stochastic,
    rng_from_seed,
)
from semiwalk import corpus, dynamics, graphs, presets
from semiwalk.errors import (
    DanglingNodeError,
    DimensionMismatchError,
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
    with pytest.raises(NegativeWeightError, match="^graph weights must be nonnegative$"):
        sw.from_weights(np.array([[1.0, -0.1], [0.5, 0.5]]))


@pytest.mark.parametrize("w, message", [
    pytest.param(np.ones((2, 3)), "weights must be square, got (2, 3)", id="non-square"),
    pytest.param(np.ones(3), "weights must be square, got (3,)", id="one-dimensional"),
    pytest.param(np.zeros((0, 0)), "graph needs at least one node", id="empty"),
])
def test_from_weights_rejects_non_square_or_empty(w, message):
    with pytest.raises(DimensionMismatchError) as err:
        sw.from_weights(w)
    assert str(err.value) == message


def test_views_share_rows_read_only_and_unchecked():
    stack = sw.build_family(sw.symmetric_hub(), 1, 4).stack
    views = graphs._views(sw.TransitionMatrix, stack)
    assert [type(v) for v in views] == [sw.TransitionMatrix] * 4
    for view, row in zip(views, stack):
        assert np.shares_memory(view.g, stack) and np.array_equal(view.g, row)
        assert not view.g.flags.writeable
    # rows that no check would pass are wrapped as they are
    bad = np.full((2, 3), 0.5)
    bad.setflags(write=False)
    vectors = graphs._views(sw.ProbabilityVector, bad)
    assert [v.p.sum() for v in vectors] == [1.5, 1.5]
    assert all(np.shares_memory(v.p, bad) for v in vectors)


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


def test_an_entry_above_one_within_the_sum_tolerance_is_accepted():
    # validate is the only entry check: a nonnegative column within
    # STOCHASTIC_TOL of unit sum may hold an entry up to 1 + STOCHASTIC_TOL
    # (a separate cap, 1e-12 above 1, refused long cycle families' members)
    g = sw.TransitionMatrix([[1 + 5e-10, 0], [0, 1]])
    assert g.g[0, 0] == 1 + 5e-10
    fam = sw.SemiclassicalFamily(sw.two_node_chain(), 1, g.g[None])
    assert fam.member(1).g[0, 0] == 1 + 5e-10


def test_an_entry_above_one_past_the_sum_tolerance_is_not_stochastic():
    # the error names the entry's column, and is no NegativeWeightError
    g = np.array([[0.5, 0.0, 0.0], [0.5, 1 + 2e-9, 0.0], [0.0, 0.0, 1.0]])
    for make in (sw.TransitionMatrix, lambda a: sw.SemiclassicalFamily(sw.cycle_graph(3), 1, a[None])):
        with pytest.raises(NotStochasticError) as err:
            make(g)
        assert err.value.column == 1 and not isinstance(err.value, NegativeWeightError)
        assert str(err.value).startswith("column 1 ")


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



def test_symmetric_corpus_equals_one_call_per_size_bitwise(monkeypatch):
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
    for name, value in (("SINKHORN_ROUNDS", 45), ("SINKHORN_TOL", 1e-11)):
        with monkeypatch.context() as m:
            m.setattr(corpus, name, value)
            one_by_one, stacked = rng_from_seed(151), rng_from_seed(151)
            expected = [random_symmetric_stochastic(n, one_by_one) for n in sizes[:12]]
            got = random_symmetric_corpus(sizes[:12], stacked)
            assert all(np.array_equal(a.g, b.g) for a, b in zip(got, expected, strict=True))
    assert random_symmetric_corpus([], rng_from_seed(1)) == []


def test_symmetric_corpus_pads_only_sizes_close_together(monkeypatch):
    # verify's sizes 3..10 are one Sinkhorn loop; padding the 3-by-3 matrices
    # to 128 would scale 54 matrices of 128^2 entries, 196 ms against 8 ms
    sizes = [3 + k % 8 for k in range(50)] + [1, 2, 128, 5]
    runs = corpus._padded_runs(sizes)
    assert [sorted({sizes[k] for k in run}) for run in runs] == [list(range(1, 11)), [128]]
    assert sorted(k for run in runs for k in run) == list(range(len(sizes)))
    monkeypatch.setattr(graphs, "PHASE_BLOCK", 20 * 100)  # 20 matrices padded to 10 x 10
    assert max(len(run) * max(sizes[k] for k in run) ** 2 for run in corpus._padded_runs(sizes[:50])) <= 2000


def test_circulant_corpus_equals_one_call_per_size_bitwise():
    sizes = [3 + k % 8 for k in range(30)] + [1, 2, 128]
    one_by_one, stacked = rng_from_seed(163), rng_from_seed(163)
    expected = [random_circulant_symmetric(n, one_by_one) for n in sizes]
    got = random_circulant_corpus(sizes, stacked)
    for a, b in zip(got, expected, strict=True):
        assert a.g.tobytes() == b.g.tobytes() and not a.g.flags.writeable
    assert np.array_equal(stacked.random(4), one_by_one.random(4))
    assert random_circulant_corpus([], rng_from_seed(1)) == []


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("generate", [random_stochastic, random_symmetric_stochastic, random_circulant_symmetric])
def test_generators_reject_sizes_below_one(generate, n):
    # n = 0 used to raise ZeroDivisionError or numpy's ValueError
    with pytest.raises(DimensionMismatchError, match=f"n >= 1, got n={n}$"):
        generate(n, rng_from_seed(0))


@pytest.mark.parametrize("generate, n", [(random_circulant_symmetric, True), (random_stochastic, True),
                                         (random_stochastic, 2.0), (random_symmetric_stochastic, 2.5),
                                         (random_circulant_symmetric, 2.0)])
def test_generators_reject_bool_and_float_sizes(generate, n):
    # a bool drew a 1 x 1 matrix, a float raised numpy's TypeError
    with pytest.raises(ValueError, match="n must be an integer"):
        generate(n, rng_from_seed(0))


def test_stochastic_corpus_equals_one_call_per_matrix_bitwise(monkeypatch):
    # drawn in input order, then normalised and checked one stack per size; a
    # small entry budget splits each size's stack into chunks
    for block in (graphs.PHASE_BLOCK, 3 * 64):
        streams = []
        monkeypatch.setattr(graphs, "PHASE_BLOCK", block)
        monkeypatch.setattr(corpus, "rng_from_seed", lambda seed: streams.append(rng_from_seed(seed)) or streams[-1])
        got = random_stochastic_corpus(40, 7)
        one_by_one = rng_from_seed(7)
        expected = [random_stochastic(2 + k % 7, one_by_one) for k in range(40)]
        for a, b in zip(got, expected, strict=True):
            assert a.g.tobytes() == b.g.tobytes() and not a.g.flags.writeable
        assert np.array_equal(streams[0].random(4), one_by_one.random(4))  # the same stream consumed


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


def _reference_family_json(fam):
    return "[" + ", ".join(json.dumps({"t_q": t, "matrix_csv": _reference_csv(m)})
                           for t, m in enumerate(fam.members, start=1)) + "]"


def test_csv_and_dot_bytes_match_elementwise_reference(hub):
    # the serializers format whole rows, through the vectorized kernel from
    # graphs._CSV_MIN entries on; the references format one numpy scalar at a
    # time, as the files were first written
    rng = rng_from_seed(79)
    mats = [hub, sw.cycle_graph(7), sw.from_weights(np.eye(3))]
    for n in (1, 2, 5, 16, 33):
        mats.append(random_stochastic(n, rng))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n) * 1e-300
        mats.append(sw.from_weights(w))
    # members 4, 24, 28 and 40..60 hold zeros up to rounding (2e-16..3e-14)
    uniform = sw.build_family(sw.TransitionMatrix(np.full((3, 3), 1 / 3)), 1, 60)
    mats += uniform.members
    # above the crossover: random N = 128 members of both classes (class 2's
    # member 1 is I), and a cycle-128 member, mostly 0.0
    g = random_stochastic(128, rng)
    fams = [sw.build_family(g, class_tag, 3) for class_tag in (1, 2)]
    mats += [fam.member(t) for fam in fams for t in (1, 3)]
    mats.append(sw.build_family(sw.cycle_graph(128), 1, 5).member(5))
    for m in mats:
        assert sw.serialize(m, "csv") == _reference_csv(m)
        assert sw.serialize(m, "dot") == _reference_dot(m)
    # family.json formats blocks of members: the 60 uniform 3 x 3 members are
    # one kernel call of 540 entries
    assert uniform.stack.size >= graphs._CSV_MIN
    for fam in (uniform, *fams):
        assert presets.family_json(fam).encode() == (_reference_family_json(fam) + "\n").encode()


@pytest.mark.parametrize("n", [2, 3, 33, 90, 91, 100, 128])
def test_float_csv_blocks_are_cut_at_member_ends(n):
    # the kernel formats the stack's rows about graphs.STREAM_BLOCK // 8
    # entries per call, and the row ends cut the calls into members: at
    # N = 33 a call holds 7 members, at N = 90, 91 and 100 calls end inside
    # one; the repr join is the oracle, for family.json, serialize and evolve_csv
    g = random_stochastic(n, rng_from_seed(300 + n))
    p0 = sw.ProbabilityVector.uniform(n)
    for class_tag in (1, 2):
        fam = sw.build_family(g, class_tag, 8)
        assert presets.family_json(fam).encode() == (_reference_family_json(fam) + "\n").encode()
        for m in (fam.member(1), fam.member(8)):
            assert sw.serialize(m, "csv") == _reference_csv(m)
        steps = max(30, 1000 // n)  # past the kernel's crossover at every n
        rows = [",".join(map(repr, row)) for row in dynamics._series(fam.member(3).g, p0.p, steps).tolist()]
        header = "t," + ",".join(f"node{i}" for i in range(n))
        want = "\n".join([header, *(f"{t},{row}" for t, row in enumerate(rows))]) + "\n"
        assert presets.evolve_csv(fam.member(3), p0, steps) == want


def test_float_csv_block_of_two_thousand_members():
    # the two-node chain's 3000 members: a kernel call of
    # graphs.STREAM_BLOCK // 8 entries holds 2048 of them
    fam = sw.build_family(sw.two_node_chain(), 1, 3000)
    assert presets.family_json(fam).encode() == (_reference_family_json(fam) + "\n").encode()


def _reference_rows(a):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in a)


def _kernel_matches_repr(a):
    # the kernel's bytes are the repr rows, each ended by the terminator
    # passed in, and its offsets are where they end
    for end in (b"\n", b"\\n"):
        rows = [",".join(repr(float(v)) for v in row).encode() + end for row in a]
        text, ends = graphs._csv_kernel(a, end)
        if text != b"".join(rows) or ends.tolist() != np.cumsum([len(row) for row in rows]).tolist():
            return False
    return True


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),  # negatives, -0.0, subnormals, max
                    st.floats(min_value=0.0, max_value=1.0), st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FLOATS, min_size=1, max_size=96), st.integers(min_value=1, max_value=9))
def test_csv_kernel_spells_every_finite_float_as_repr(values, width):
    # the kernel alone at any size, and _csv_rows on the values repeated past
    # the crossover; repr is the oracle
    a = np.resize(np.array(values), (-(-len(values) // width), width))
    assert _kernel_matches_repr(a)
    big = np.resize(a, (-(-graphs._CSV_MIN // width), width))
    assert "".join(row + "\n" for row in graphs._csv_rows(big)) == _reference_rows(big)


def _edge_values():
    values = [2.0**k for k in range(-1074, 1024)]  # the lower gap is half the upper one
    values += [1e-4, 1e-5, 9.999999999999999e-5, 0.00010000000000000002, 1e15, 1e16, 1e17,
               999999999999999.9, 9999999999999998.0, 1e16 + 2, 99999999999999980.0,
               5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
               1.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.5, 1e23, 1e22, 9007199254740993.0, 0.0, -0.0]
    values += [10.0**k for k in range(-323, 309)]
    # adjacent doubles in [2**56, 2**57), ulp 16, whose midpoint 1000 k (k odd)
    # is a 14-digit decimal: an interval ends exactly on a candidate
    for k in (72057594037929, 72057594037931, 99999999999999, 100000000000001, 123456789012345):
        values += [float(1000 * k - 8), float(1000 * k + 8)]
    # in [2**53, 1e16) every interval ends on a multiple of 10 of y's units
    values += [float(2**53 + 2 * k) for k in range(50)]
    values += [float(2**54 + 4 * k) for k in range(50)]
    return np.array(values)


def test_csv_kernel_edge_values_match_repr():
    values = _edge_values()
    assert all(float(repr(v)) == v for v in values.tolist())
    for a in (values[:, None], np.resize(values, (-(-values.size // 7), 7))):
        assert _kernel_matches_repr(a)
        assert "".join(row + "\n" for row in graphs._csv_rows(a)) == _reference_rows(a)
    for a in (-values, np.nextafter(values, 0), np.nextafter(values[values < 1e308], np.inf)):
        a = a[np.isfinite(a)][:, None]
        assert _kernel_matches_repr(a)


def test_csv_rows_match_repr_on_a_million_bit_patterns():
    bits = rng_from_seed(89).integers(0, 2**64 - 1, 10**6, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    a = values[:values.size // 1000 * 1000].reshape(-1, 1000)
    assert graphs._csv_rows(a) == [",".join(map(repr, row)) for row in a.tolist()]


def test_csv_kernel_certifies_every_entry_of_a_random_member(monkeypatch):
    # measured: every entry of a seeded random N = 128 member is certified, and
    # 0.0 is a group of its own, so neither member reaches the repr fallback;
    # a kernel that fell back everywhere would still write the right bytes
    reprs, original = [], graphs._reprs
    monkeypatch.setattr(graphs, "_reprs", lambda x: reprs.append(x.size) or original(x))
    member = sw.build_family(random_stochastic(128, rng_from_seed(101)), 1, 2).member(2)
    sparse = sw.build_family(sw.cycle_graph(128), 1, 5).member(5)
    assert (sparse.g == 0).sum() == 7496
    for m in (member, sparse):
        assert sw.serialize(m, "csv") == _reference_csv(m)
    assert reprs == []
    negative = -member.g
    assert graphs._csv_kernel(negative, b"\n")[0] == _reference_rows(negative).encode()
    assert reprs == [128 * 128]


def _reference_json(m):
    edges = []
    for i in range(m.n):
        for j in range(m.n):
            w = float(m.g[j, i])
            if w > 0.0:
                edges.append({"from": i, "to": j, "w": w})
    return json.dumps({"n": m.n, "edges": edges})


def test_graph_writers_visit_only_the_support_bytes_unchanged(hub):
    # DOT and JSON format only the entries of one support comparison; the
    # loops over every entry, as the files were first written, are the oracle
    column = np.full((3, 3), 1 / 3)
    column[:, 0] = [1e-10, 0.5, 0.5 - 1e-10]  # below the DOT tolerance, above JSON's 0
    fam = sw.build_family(sw.cycle_graph(128), 1, 128)
    mats = [hub, sw.asymmetric_ring(), random_stochastic(128, rng_from_seed(83)), sw.TransitionMatrix(column)]
    mats += [fam.member(t) for t in (1, 2, 64, 97, 127, 128)]
    for m in mats:
        assert sw.serialize(m, "dot") == _reference_dot(m)
        assert sw.serialize(m, "json") == _reference_json(m)


def _bad_inputs():
    """Sizes 3, 2, 3, 2: input 1 (N = 2) is off its unit column sum and
    input 2 (N = 3) has a negative entry, so the N = 3 chunk fails first."""
    good3, good2 = np.full((3, 3), 1 / 3), np.full((2, 2), 0.5)
    bad2, bad3 = good2.copy(), good3.copy()
    bad2[0, 1] = 0.6
    bad3[0, 0], bad3[1, 0] = -0.1, 0.1 + 2 / 3
    return [good3, bad2, bad3, good2]


@pytest.mark.parametrize("budget", [9, 2**20])
def test_checked_rows_raise_the_first_bad_input_in_input_order(budget):
    mats = _bad_inputs()
    with pytest.raises(NotStochasticError) as alone:
        sw.TransitionMatrix(mats[1])
    with pytest.raises(NotStochasticError) as err:
        graphs._checked_rows([len(m) for m in mats], budget, lambda n: n * n,
                             lambda ks: np.stack([mats[k] for k in ks]))
    assert str(err.value) == str(alone.value)
    with pytest.raises(NotStochasticError) as err:  # the corpus path
        corpus._checked(mats)
    assert str(err.value) == str(alone.value)
    del mats[1]
    with pytest.raises(NegativeWeightError):
        corpus._checked(mats)
    rows = graphs._checked_rows([3, 2], budget, lambda n: n * n, lambda ks: np.stack([mats[2 * k] for k in ks]))
    assert [row.tolist() for row in rows] == [mats[0].tolist(), mats[2].tolist()]
    assert not any(row.flags.writeable for row in rows)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: sw.EdgeState.basis(3, 1, 0).amplitude(0, 3), sw.IndexOutOfRangeError, id="amplitude-past-n"),
    pytest.param(lambda: sw.EdgeState.basis(3, 1, 0).amplitude(2, -3), sw.IndexOutOfRangeError,
                 id="amplitude-negative"),
    pytest.param(lambda: sw.EdgeState.basis(3, 1, 0).amplitude(1.0, 0), ValueError, id="amplitude-float"),
    pytest.param(lambda: sw.EdgeState.basis(3, True, 0), ValueError, id="basis-bool"),
    pytest.param(lambda: sw.EdgeState.basis(3.0, 1, 0), ValueError, id="basis-float-n"),
    pytest.param(lambda: sw.build_family(sw.two_node_chain(), 1, 3).member(True), ValueError, id="member-bool"),
    pytest.param(lambda: sw.build_family(sw.two_node_chain(), 1, 3).member(1.0), ValueError, id="member-float"),
    pytest.param(lambda: sw.build_family(sw.two_node_chain(), 1, 3).member(4), sw.IndexOutOfRangeError,
                 id="member-past-tq-max"),
    pytest.param(lambda: sw.SzegedyOperator(sw.two_node_chain()).proxy_state(True), ValueError, id="proxy-bool"),
    pytest.param(lambda: sw.SzegedyOperator(sw.two_node_chain()).proxy_state(1.0), ValueError, id="proxy-float"),
    pytest.param(lambda: sw.ProbabilityVector.uniform(0), ValueError, id="uniform-zero"),
    pytest.param(lambda: sw.ProbabilityVector.uniform(2.0), ValueError, id="uniform-float"),
])
def test_indices_and_sizes_are_in_range_integers(call, error):
    # a bool or a float is no index, and an index past N does not wrap around
    with pytest.raises(error, match="must be an integer" if error is ValueError else "outside"):
        call()


def test_integer_indices_of_numpy_type_are_accepted():
    i = np.int64(1)
    assert sw.EdgeState.basis(3, i, 0).amplitude(i, np.int64(0)) == 1
    fam = sw.build_family(sw.two_node_chain(), 1, 3)
    assert np.array_equal(fam.member(i).g, fam.stack[0])
    assert sw.ProbabilityVector.uniform(np.int64(4)).n == 4


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
    for i in (-1, 3):  # -1 used to give node 2
        with pytest.raises(sw.IndexOutOfRangeError, match=rf"^node {i} outside 0\.\.2$"):
            sw.ProbabilityVector.point_mass(3, i)


def test_types_are_immutable(two_node):
    with pytest.raises(ValueError):
        two_node.g[0, 0] = 0.5
