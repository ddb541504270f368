import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwalk as sw
from semiwalk.circuit import (
    GateOp,
    compose_gates,
    deviation_up_to_phase,
    gate_matrix,
    prep_block_gates,
)
from semiwalk.corpus import rng_from_seed
from semiwalk.errors import ParseError, UnsupportedSizeError
from semiwalk.szegedy import SzegedyOperator


def _random_two_node(rng):
    top = rng.random(2)
    return sw.TransitionMatrix(np.array([top, 1.0 - top]))


def test_prep_angles_experiment_values(two_node, p0_experiment):
    alpha, theta0, theta1 = sw.prep_angles(two_node, p0_experiment)
    assert alpha == pytest.approx(0.9272952180016123, abs=1e-12)
    assert theta0 == pytest.approx(2.498091544796509, abs=1e-12)
    assert theta1 == pytest.approx(2.214297435588181, abs=1e-12)
    # three significant figures, as usually quoted
    assert f"{alpha:.3g}" == "0.927"
    assert f"{theta0:.3g}" == "2.5"
    assert f"{theta1:.3g}" == "2.21"


def test_prep_angles_uniform_and_point_mass():
    uniform = sw.TransitionMatrix(np.full((2, 2), 0.5))
    alpha, theta0, theta1 = sw.prep_angles(uniform, sw.ProbabilityVector.point_mass(2, 0))
    assert theta0 == pytest.approx(math.pi / 2)
    assert theta1 == pytest.approx(math.pi / 2)
    assert alpha == 0.0


def test_prep_rotation_reproduces_proxies(two_node):
    _, theta0, theta1 = sw.prep_angles(two_node, sw.ProbabilityVector.uniform(2))
    prep = compose_gates(prep_block_gates(theta0, theta1))
    op = SzegedyOperator(two_node)
    for i in range(2):
        start = np.zeros(4, dtype=complex)
        start[i * 2] = 1.0
        assert np.abs(prep @ start - op.proxy_state(i).amp).max() <= 1e-12


def test_build_circuit_structure_matches_layout(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, t_q=1, t_c=2)
    kinds = [g.kind for g in c.gates]
    assert kinds.count("measure") == 3
    assert kinds.count("reset") == 2
    assert kinds.count("swap") == 2
    assert kinds.count("global-phase") == 2
    assert kinds.count("controlled-ry") == 4
    assert c.gates[0] == GateOp("ry", target=0, angle=c.alpha)
    assert c.gates[1] == GateOp("measure", register=1)
    assert c.gates[2] == GateOp("reset", register=2)


def test_build_circuit_unrolls_quantum_steps(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, t_q=3, t_c=1)
    kinds = [g.kind for g in c.gates]
    assert kinds.count("swap") == 3
    assert kinds.count("global-phase") == 3
    assert kinds.count("measure") == 2


def test_build_circuit_symmetric_uniform_equal_angles():
    uniform = sw.TransitionMatrix(np.full((2, 2), 0.5))
    c = sw.build_circuit(uniform, sw.ProbabilityVector.uniform(2), 1, 1)
    assert c.theta0 == c.theta1


def test_build_circuit_rejects_other_sizes():
    with pytest.raises(UnsupportedSizeError):
        sw.build_circuit(sw.cycle_graph(3), sw.ProbabilityVector.uniform(3), 1, 1)
    with pytest.raises(UnsupportedSizeError):
        sw.prep_angles(sw.cycle_graph(3), sw.ProbabilityVector.uniform(3))


def test_walk_block_carries_global_phase(two_node):
    _, theta0, theta1 = sw.prep_angles(two_node, sw.ProbabilityVector.uniform(2))
    block = compose_gates(sw.walk_block_gates(theta0, theta1))
    dense = SzegedyOperator(two_node).dense()
    # phase is tracked explicitly, so the block equals U outright
    assert np.abs(block - dense).max() <= 1e-12


def test_verify_block_small_deviation(two_node):
    for t in (1, 2, 3):
        assert sw.verify_block(two_node, t) < 1e-9


def test_verify_block_random_two_node_matrices():
    rng = rng_from_seed(83)
    # validation lets an entry exceed 1 by rounding; the angles clamp it
    above_one = sw.TransitionMatrix(np.array([[1 + 1e-13, 0.5], [0.0, 0.5]]))
    for g in [_random_two_node(rng) for _ in range(50)] + [above_one]:
        for t in (1, 2, 3):
            assert sw.verify_block(g, t) < 1e-9


def test_deviation_empty_gate_list_is_identity():
    assert np.array_equal(compose_gates([]), np.eye(4, dtype=complex))
    assert deviation_up_to_phase(np.eye(4), np.eye(4)) == 0.0
    assert sw.verify_block(sw.two_node_chain(), 0) == 0.0


def test_segment_channel_matches_members(two_node):
    rng = rng_from_seed(89)
    mats = [two_node] + [sw.TransitionMatrix(np.array(g, dtype=float)) for g in
                         ([[1, 0.5], [0, 0.5]], [[0, 1], [1, 0]], np.eye(2))]
    mats += [_random_two_node(rng) for _ in range(50)]
    for g in mats:
        for t in (1, 2, 3, 5):
            member = sw.semiclassical_matrix(g, t, 1)
            dev = np.abs(sw.segment_channel(g, t) - member.g).max()
            assert dev <= 1e-10


def test_simulated_circuit_matches_classical_evolution(two_node, p0_experiment):
    for t_q in (1, 2):
        c = sw.build_circuit(two_node, p0_experiment, t_q, t_c=3)
        dists = sw.simulate_circuit(c)
        member = sw.semiclassical_matrix(two_node, t_q, 1)
        assert len(dists) == 4
        for t, dist in enumerate(dists):
            expected = sw.evolve(member, p0_experiment, t)
            assert np.abs(dist.p - expected.p).max() <= 1e-10


def test_gate_matrices_are_unitary(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, 2, 1)
    for gate in c.gates:
        if gate.kind in ("measure", "reset"):
            with pytest.raises(ValueError):
                gate_matrix(gate)
            continue
        u = gate_matrix(gate)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


def test_export_counts_and_header(two_node, p0_experiment):
    text = sw.export_openqasm(sw.build_circuit(two_node, p0_experiment, 1, 2))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert "qreg q[2];" in lines
    assert "creg c[3];" in lines
    assert sum(1 for ln in lines if ln.startswith("measure ")) == 3
    assert sum(1 for ln in lines if ln.startswith("reset ")) == 2


def test_export_omits_zero_initial_rotation(two_node):
    c = sw.build_circuit(two_node, sw.ProbabilityVector.point_mass(2, 0), 1, 1)
    text = sw.export_openqasm(c)
    body = [ln for ln in text.splitlines() if not ln.startswith(("OPENQASM", "include", "qreg", "creg"))]
    assert body[0] == "measure q[0] -> c[0];"
    assert c.alpha == 0.0


def test_export_round_trip(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, 2, 2)
    parsed = sw.parse_openqasm(sw.export_openqasm(c))
    assert len(parsed) == len(c.gates)
    for got, expected in zip(parsed, c.gates):
        assert got.kind == expected.kind
        assert got.target == expected.target
        assert got.control == expected.control
        assert got.register == expected.register
        if expected.angle is None:
            assert got.angle is None
        else:
            assert got.angle == pytest.approx(expected.angle, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_export_parse_round_trip_random_two_node(a, b, p, t_q, t_c):
    g = sw.TransitionMatrix(np.array([[a, b], [1.0 - a, 1.0 - b]]))
    c = sw.build_circuit(g, sw.ProbabilityVector(np.array([p, 1.0 - p])), t_q, t_c)
    # angles come back as printed: 12 significant digits
    expected = tuple(gate if gate.angle is None
                     else dataclasses.replace(gate, angle=float(f"{gate.angle:.12g}"))
                     for gate in c.gates)
    assert sw.parse_openqasm(sw.export_openqasm(c)) == expected


def test_to_json_lists_set_fields_of_each_gate(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, 2, 2)
    doc = json.loads(c.to_json())
    assert tuple(GateOp(**entry) for entry in doc["gates"]) == c.gates
    assert all(None not in entry.values() for entry in doc["gates"])
    assert (doc["t_q"], doc["t_c"], doc["theta0"], doc["p0"]) == (2, 2, c.theta0, [0.8, 0.2])


def _asdict_json(c):
    """Reference: to_json with one dataclasses.asdict per gate."""
    doc = {name: getattr(c, name) for name in ("t_q", "t_c", "alpha", "theta0", "theta1")}
    doc["source_csv"] = sw.serialize(c.source, "csv")
    doc["p0"] = list(map(float, c.p0.p))
    doc["gates"] = [{k: v for k, v in dataclasses.asdict(gate).items() if v is not None}
                    for gate in c.gates]
    return json.dumps(doc, indent=2, sort_keys=True)


def test_to_json_bytes_match_asdict_reference(two_node, p0_experiment):
    for t_q in (1, 2, 3):
        c = sw.build_circuit(two_node, p0_experiment, t_q, 20)
        assert c.to_json() == _asdict_json(c)
    # g[0, 0] = 1 gives theta0 = 0 and ry(-0.0) gates, equal to ry(0.0) but
    # written with their sign
    corner = sw.TransitionMatrix(np.array([[1.0, 0.3], [0.0, 0.7]]))
    c = sw.build_circuit(corner, p0_experiment, 2, 3)
    assert any(g.angle == 0.0 and math.copysign(1.0, g.angle) < 0 for g in c.gates)
    text = c.to_json()
    assert text == _asdict_json(c)
    assert '"angle": -0.0' in text


def test_export_deterministic(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, 1, 2)
    assert sw.export_openqasm(c) == sw.export_openqasm(c)


def test_export_classical_control_variant(two_node, p0_experiment):
    text = sw.export_openqasm(
        sw.build_circuit(two_node, p0_experiment, 1, 2), classical_control=True
    )
    assert "creg c0[1];" in text
    assert "if(c0==0) ry(" in text
    assert "if(c0==1) ry(" in text
    assert "cry(" not in text


def test_parse_rejects_unknown_statement():
    # a bad angle or a controlled gate on one wire is no statement of the table
    for line in ("h q[0];", "ry(abc) q[0];", "ry(nan) q[0];", "cry(1e999) q[0],q[1];",
                 "cz q[1],q[1];"):
        with pytest.raises(ParseError) as err:
            sw.parse_openqasm("OPENQASM 2.0;\n" + line + "\n")
        assert err.value.line == 2


_ANGLE_TEXT = st.one_of(st.floats().map(repr), st.text(max_size=8),
                        st.sampled_from(["nan", "inf", "1e999", "abc", "", "1.5"]))
_QASM_LINE = st.one_of(
    st.text(max_size=30),
    st.builds("ry({}) q[{}];".format, _ANGLE_TEXT, st.integers(-1, 2)),
    st.builds("cry({}) q[{}],q[{}];".format, _ANGLE_TEXT, st.integers(0, 2), st.integers(0, 2)),
    st.builds("// global-phase({})".format, _ANGLE_TEXT),
    st.builds("{} q[{}],q[{}];".format, st.sampled_from(["cz", "swap"]),
              st.integers(0, 2), st.integers(0, 2)),
    st.builds("measure q[{}] -> c[{}];".format, st.integers(0, 2), st.integers(0, 30)),
    st.sampled_from(["x q[0];", "z q[1];", "reset q[1];", "OPENQASM 2.0;", "creg c[3];"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_QASM_LINE, max_size=6).map("\n".join))
def test_parse_gives_gates_or_parse_error(text):
    try:
        gates = sw.parse_openqasm(text)
    except ParseError as err:
        assert err.line is not None
    else:
        assert isinstance(gates, tuple)
        assert all(isinstance(gate, GateOp) for gate in gates)


def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("hadamard", target=0)
    with pytest.raises(ValueError):
        GateOp("ry", target=2, angle=1.0)
    with pytest.raises(ValueError):
        GateOp("ry", target=0, angle=float("nan"))
    with pytest.raises(ValueError):
        GateOp("measure", register=3)
    with pytest.raises(ValueError):
        GateOp("controlled-z", control=1, target=1)
