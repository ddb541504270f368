import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwalk as sw
from semiwalk.circuit import (
    MAX_WALK_BLOCKS,
    GateOp,
    _qasm_line,
    compose_gates,
    deviation_up_to_phase,
    gate_matrix,
    prep_block_gates,
)
from semiwalk import circuit, presets, verify
from semiwalk.cli import main
from semiwalk.corpus import rng_from_seed
from semiwalk.errors import ParseError, UnsupportedSizeError
from semiwalk.szegedy import SzegedyOperator


def _random_two_node(rng):
    top = rng.random(2)
    return sw.TransitionMatrix(np.array([top, 1.0 - top]))


def _one_round(g, t_q):
    return sw.build_circuit(g, sw.ProbabilityVector.point_mass(2, 0), t_q, 1)


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
        assert sw.verify_block(_one_round(two_node, t)) < 1e-9


def test_verify_block_random_two_node_matrices():
    rng = rng_from_seed(83)
    # validation lets an entry exceed 1 by rounding; the angles clamp it
    above_one = sw.TransitionMatrix(np.array([[1 + 1e-13, 0.5], [0.0, 0.5]]))
    for g in [_random_two_node(rng) for _ in range(50)] + [above_one]:
        for t in (1, 2, 3):
            assert sw.verify_block(_one_round(g, t)) < 1e-9


def test_deviation_empty_gate_list_is_identity():
    assert np.array_equal(compose_gates([]), np.eye(4, dtype=complex))
    assert deviation_up_to_phase(np.eye(4), np.eye(4)) == 0.0


def test_segment_channel_matches_members(two_node):
    rng = rng_from_seed(89)
    mats = [two_node] + [sw.TransitionMatrix(np.array(g, dtype=float)) for g in
                         ([[1, 0.5], [0, 0.5]], [[0, 1], [1, 0]], np.eye(2))]
    mats += [_random_two_node(rng) for _ in range(50)]
    for g in mats:
        for t in (1, 2, 3, 5):
            member = sw.semiclassical_matrix(g, t, 1)
            dev = np.abs(sw.segment_channel(_one_round(g, t)) - member.g).max()
            assert dev <= 1e-10


def test_circuit_command_builds_and_checks_one_circuit(tmp_path, monkeypatch):
    # the channel check used to build a second circuit, from a point mass
    built = []
    build = circuit.build_circuit
    monkeypatch.setattr(circuit, "build_circuit", lambda *args: built.append(build(*args)) or built[-1])
    for t_q, t_c in ((1, 1), (3, 20)):
        built.clear()
        out = tmp_path / f"circuit_{t_q}"
        assert main(["circuit", "--tq", str(t_q), "--tc", str(t_c), "--p0", "0.7,0.3", "--out", str(out)]) == 0
        assert len(built) == 1
        # the round channel depends on neither p0 nor t_c
        channel = sw.segment_channel(built[0])
        assert np.array_equal(channel, sw.segment_channel(_one_round(sw.two_node_chain(), t_q)))
        member = sw.semiclassical_matrix(sw.two_node_chain(), t_q, 1)
        report = json.loads((out / "verify.json").read_text())
        assert report["channel_deviation"] == float(np.abs(channel - member.g).max())


@pytest.mark.parametrize("bound, key, record", [
    ("BLOCK_BOUND", "block_deviation", "circuit-block"),
    ("CHANNEL_BOUND", "channel_deviation", "circuit-channel"),
])
def test_a_deviation_at_its_bound_fails_circuit_and_verify_alike(monkeypatch, bound, key, record):
    # both verdicts read one bound and pass only strictly below it
    reports = [presets.circuit_report(sw.build_circuit(sw.two_node_chain(), presets.EXPERIMENT_P0, t, 1))
               for t in (1, 2, 3)]
    worst = max(reports, key=lambda r: r[key])
    assert worst["ok"]
    monkeypatch.setattr(presets, bound, repr(worst[key]))
    c = sw.build_circuit(sw.two_node_chain(), presets.EXPERIMENT_P0, reports.index(worst) + 1, 1)
    assert presets.circuit_report(c)["ok"] is False
    (checked,) = [r for r in verify.circuit_checks() if r["name"] == record]
    assert checked["passed"] is False


@pytest.mark.parametrize("t_q", [1, 2, 3])
def test_circuit_report_checks_the_exported_block(two_node, p0_experiment, t_q):
    # a block with theta_0 and theta_1 swapped is not g's walk; the block
    # check used to recompose the block from c.source and never saw it
    c = sw.build_circuit(two_node, p0_experiment, t_q, 1)
    swapped = dataclasses.replace(c, block=sw.walk_block_gates(c.theta1, c.theta0))
    report = presets.circuit_report(swapped)
    assert report["block_deviation"] >= float(presets.BLOCK_BOUND)
    assert report["channel_deviation"] >= float(presets.CHANNEL_BOUND)
    assert report["ok"] is False
    assert presets.circuit_report(c)["ok"] is True


def test_fig9_is_the_circuit_command(tmp_path):
    fig9, run = tmp_path / "fig9", tmp_path / "circuit"
    assert main(["preset", "fig9", "--out", str(fig9)]) == 0
    assert main(["circuit", "--tq", "1", "--tc", "2", "--p0", "0.8,0.2", "--out", str(run)]) == 0
    for name in ("circuit.qasm", "gates.json", "verify.json"):
        assert (fig9 / name).read_bytes() == (run / name).read_bytes()
    report = json.loads((fig9 / "verify.json").read_text())
    assert {"t_q": 1, "t_c": 2, "ok": True}.items() <= report.items()
    assert report["channel_deviation"] < float(presets.CHANNEL_BOUND)


def test_simulated_circuit_matches_classical_evolution(two_node, p0_experiment):
    for t_q in (1, 2):
        c = sw.build_circuit(two_node, p0_experiment, t_q, t_c=3)
        dists = sw.simulate_circuit(c)
        member = sw.semiclassical_matrix(two_node, t_q, 1)
        assert len(dists) == 4
        for t, dist in enumerate(dists):
            expected = sw.evolve(member, p0_experiment, t)
            assert np.abs(dist.p - expected.p).max() <= 1e-10


def test_simulated_series_is_checked_once(two_node, p0_experiment, monkeypatch):
    c = sw.build_circuit(two_node, p0_experiment, 1, t_c=4)
    dists = sw.simulate_circuit(c)
    assert all(not d.p.flags.writeable and d.p.base is dists[0].p.base for d in dists)
    # a channel that gains mass: the series fails at its worst step, step 4
    monkeypatch.setattr(circuit, "segment_channel", lambda _: np.array([[1.0, 0.0], [0.01, 1.0]]))
    with pytest.raises(sw.NotStochasticError, match="column 4 "):
        sw.simulate_circuit(c)


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


def _expand(doc):
    """The flat gate sequence a gates.json document describes."""
    one_round = tuple(GateOp(**entry) for segment in doc["round"]
                      for entry in segment["gates"] * segment["repeat"])
    return tuple(GateOp(**entry) for entry in doc["head"]) + one_round * doc["t_c"]


def test_to_json_lists_set_fields_of_each_gate(two_node, p0_experiment):
    c = sw.build_circuit(two_node, p0_experiment, 2, 2)
    doc = json.loads(presets.gates_json(c))
    assert _expand(doc) == c.gates
    entries = doc["head"] + [entry for segment in doc["round"] for entry in segment["gates"]]
    assert all(None not in entry.values() for entry in entries)
    assert (doc["t_q"], doc["t_c"], doc["theta0"], doc["p0"]) == (2, 2, c.theta0, [0.8, 0.2])


def _signs(gates):
    return [math.copysign(1.0, gate.angle) for gate in gates if gate.angle is not None]


def test_to_json_round_expands_to_gates(two_node, p0_experiment):
    # each round is written once: the block's repeat count is t_q, and the
    # document expands back to the flat gate sequence
    for t_q in (1, 2, 3):
        for t_c in (1, 2, 20):
            c = sw.build_circuit(two_node, p0_experiment, t_q, t_c)
            doc = json.loads(presets.gates_json(c))
            assert [segment["repeat"] for segment in doc["round"]] == [1, t_q, 1]
            assert _expand(doc) == c.gates
    # g[0, 0] = 1 gives theta0 = 0 and ry(-0.0) gates, equal to ry(0.0) but
    # written with their sign
    corner = sw.TransitionMatrix(np.array([[1.0, 0.3], [0.0, 0.7]]))
    c = sw.build_circuit(corner, p0_experiment, 2, 3)
    assert any(g.angle == 0.0 and math.copysign(1.0, g.angle) < 0 for g in c.gates)
    text = presets.gates_json(c)
    assert '"angle": -0.0' in text
    expanded = _expand(json.loads(text))
    assert expanded == c.gates
    assert _signs(expanded) == _signs(c.gates)


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


def test_classical_control_export_reads_the_prep_gates(two_node, p0_experiment):
    # the conditioned rotations are prep's controlled-ry gates, the ones the
    # channel check runs, not the theta fields beside them
    c = sw.build_circuit(two_node, p0_experiment, 2, 3)
    text = sw.export_openqasm(c, classical_control=True)
    stale = dataclasses.replace(c, theta0=0.25, theta1=0.5)
    assert sw.export_openqasm(stale, classical_control=True) == text
    lines = [f"if(c0=={v}) ry({gate.angle:.12g}) q[1];" for v, gate in enumerate(c.prep[2::2])]
    assert all(line in text.splitlines() for line in lines)


def _flat_openqasm(c, classical_control=False):
    """Reference: the exporter that walks the flat gate list one gate at a time."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];"]
    n_meas = sum(1 for gate in c.gates if gate.kind == "measure")
    if classical_control:
        lines += [f"creg c{k}[1];" for k in range(n_meas)]
    else:
        lines.append(f"creg c[{n_meas}];")
    meas_index = 0
    idx = 0
    while idx < len(c.gates):
        gate = c.gates[idx]
        clbit = ""
        if gate.kind == "measure":
            clbit = f"c{meas_index}[0]" if classical_control else f"c[{meas_index}]"
            meas_index += 1
        lines.append(_qasm_line(gate, clbit))
        idx += 1
        if classical_control and gate.kind == "reset":
            # replace the 4-gate controlled preparation after each reset
            prep = c.gates[idx: idx + 4]
            assert [g.kind for g in prep] == ["x", "controlled-ry", "x", "controlled-ry"]
            for value, rot in ((0, prep[1]), (1, prep[3])):
                ry = GateOp("ry", target=rot.target, angle=rot.angle)
                lines.append(f"if(c{meas_index - 1}=={value}) " + _qasm_line(ry))
            idx += 4
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("classical_control", [False, True])
def test_export_bytes_match_flat_reference(two_node, p0_experiment, classical_control):
    # the corner input has theta0 = 0, so its ry(-0.0) lines print as "-0"
    corner = sw.TransitionMatrix(np.array([[1.0, 0.3], [0.0, 0.7]]))
    for g, p0 in ((two_node, p0_experiment), (two_node, sw.ProbabilityVector.point_mass(2, 0)),
                  (corner, p0_experiment)):
        for t_q in (1, 2, 3):
            for t_c in (1, 2, 20):
                c = sw.build_circuit(g, p0, t_q, t_c)
                text = sw.export_openqasm(c, classical_control=classical_control)
                assert text == _flat_openqasm(c, classical_control)
    assert "ry(-0) q[1];" in text


def test_circuit_at_walk_block_cap_stays_small():
    # t_q * t_c = MAX_WALK_BLOCKS: no step may hold the flat gate list; the
    # OpenQASM (about 11 MB) and the simulated series are the only outputs
    # that grow with t_c. Peaks measured: build 3 kB, gates_json 25 kB, export
    # 14 and 21 MB, simulate 12 MB
    g = sw.two_node_chain()
    p0 = sw.ProbabilityVector([0.8, 0.2])
    bounds = {"build": 64 << 10, "gates_json": 256 << 10, "export": 32 << 20,
              "export-classical": 32 << 20, "simulate": 24 << 20}
    out, peaks = {}, {}
    tracemalloc.start()
    try:
        for name, step in (("build", lambda: sw.build_circuit(g, p0, 1, MAX_WALK_BLOCKS)),
                           ("gates_json", lambda: presets.gates_json(out["build"])),
                           ("export", lambda: sw.export_openqasm(out["build"])),
                           ("export-classical",
                            lambda: sw.export_openqasm(out["build"], classical_control=True)),
                           ("simulate", lambda: sw.simulate_circuit(out["build"]))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out[name] = step()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(peaks[name] <= bound for name, bound in bounds.items()), peaks
    # at t_q = 1 the round channel is the chain itself, whose second
    # eigenvalue is -0.1: node 1 follows pi + (p0 - pi)(-0.1)^t every round
    dists = out["simulate"]
    assert len(dists) == MAX_WALK_BLOCKS + 1
    pi1 = 0.9 / 1.1
    t = np.arange(MAX_WALK_BLOCKS + 1)
    series = np.array([d.p[1] for d in dists])
    assert np.abs(series - (pi1 + (0.2 - pi1) * (-0.1) ** t)).max() <= 1e-12


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
