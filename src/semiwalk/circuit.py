"""Two-qubit circuit realizing the walk on a two-node graph.

Wire 0 carries register 1 (the node register), wire 1 carries register 2.
With theta_i = 2 arccos(sqrt(g[0, i])), a single RY(theta_i) on wire 1 turns
|i>|0> into the proxy state |psi_i>, and the walk step factorizes as

    U = - SWAP (1 - 2|psi_1><psi_1|) (1 - 2|psi_0><psi_0|),

where each proxy reflection is the sign flip on |i, 0> conjugated by
RY(+/-theta_i) and the sign flip itself is a controlled-Z wrapped in X
gates. The leading minus sign is tracked explicitly as a global-phase entry
so block verification can assert equality up to phase instead of ignoring
it.

One run alternates quantum evolution with measurement: an initial RY(alpha)
plus measurement samples the start node, then every classical step resets
wire 1, re-prepares the proxy conditioned on wire 0, applies t_q walk
blocks and measures wire 0 again. The proxy preparation uses quantum
controlled rotations; an export flag swaps these for classically controlled
gates (untested against hardware).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnsupportedSizeError
from .graphs import ProbabilityVector, TransitionMatrix
from .szegedy import SzegedyOperator

GATE_KINDS = (
    "ry",
    "x",
    "z",
    "controlled-ry",
    "controlled-z",
    "swap",
    "measure",
    "reset",
    "global-phase",
)

_WIRE_OF_REGISTER = {1: 0, 2: 1}


@dataclass(frozen=True)
class GateOp:
    """One gate: quantum kinds address wires 0/1, measure/reset address registers 1/2."""

    kind: str
    target: int | None = None
    control: int | None = None
    angle: float | None = None
    register: int | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        for wire in (self.target, self.control):
            if wire is not None and wire not in (0, 1):
                raise ValueError(f"wire index {wire} outside {{0, 1}}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")
        if self.register is not None and self.register not in (1, 2):
            raise ValueError("register must be 1 or 2")


@dataclass(frozen=True, eq=False)
class CircuitDescription:
    gates: tuple[GateOp, ...]
    t_q: int
    t_c: int
    source: TransitionMatrix
    p0: ProbabilityVector
    alpha: float
    theta0: float
    theta1: float


def prep_angles(g: TransitionMatrix, p0: ProbabilityVector) -> tuple[float, float, float]:
    """(alpha, theta_0, theta_1): the initial-sampling and proxy rotations.

    theta_i = 2 arccos(sqrt(g[0, i])) and alpha = 2 arccos(sqrt(p0[0]));
    stochasticity keeps every argument inside [0, 1], so the angles are
    always real.
    """
    if g.n != 2:
        raise UnsupportedSizeError(f"circuit construction needs n=2, got n={g.n}")
    if p0.n != 2:
        raise UnsupportedSizeError("p0 must have two entries")
    theta0, theta1 = _proxy_angles(g)
    alpha = 2.0 * math.acos(math.sqrt(min(float(p0.p[0]), 1.0)))
    return alpha, theta0, theta1


def _proxy_angles(g: TransitionMatrix) -> tuple[float, float]:
    # theta_i = 2 arccos(sqrt(g[0, i])); callers have checked n == 2
    return (2.0 * math.acos(math.sqrt(float(g.g[0, 0]))),
            2.0 * math.acos(math.sqrt(float(g.g[0, 1]))))


def _proxy_reflection(i: int, theta: float) -> list[GateOp]:
    # 1 - 2|psi_i><psi_i| = RY(theta) (1 - 2|i,0><i,0|) RY(-theta) on wire 1;
    # the sign flip on |i,0> is CZ conjugated by X on wire 1 (and wire 0 for i=0)
    gates = [GateOp("ry", target=1, angle=-theta)]
    if i == 0:
        gates.append(GateOp("x", target=0))
    gates.append(GateOp("x", target=1))
    gates.append(GateOp("controlled-z", control=0, target=1))
    gates.append(GateOp("x", target=1))
    if i == 0:
        gates.append(GateOp("x", target=0))
    gates.append(GateOp("ry", target=1, angle=theta))
    return gates


def walk_block_gates(theta0: float, theta1: float) -> tuple[GateOp, ...]:
    """Gate sequence of one walk application U."""
    gates = _proxy_reflection(0, theta0)
    gates += _proxy_reflection(1, theta1)
    gates.append(GateOp("swap", control=0, target=1))
    gates.append(GateOp("global-phase", angle=math.pi))
    return tuple(gates)


def prep_block_gates(theta0: float, theta1: float) -> list[GateOp]:
    # rotate wire 1 by theta_0 when wire 0 is |0>, by theta_1 when it is |1>
    return [
        GateOp("x", target=0),
        GateOp("controlled-ry", control=0, target=1, angle=theta0),
        GateOp("x", target=0),
        GateOp("controlled-ry", control=0, target=1, angle=theta1),
    ]


def build_circuit(
    g: TransitionMatrix,
    p0: ProbabilityVector,
    t_q: int,
    t_c: int,
) -> CircuitDescription:
    """Full walk circuit: initial sampling, then t_c measure-and-reset rounds.

    The initial rotation is omitted when alpha is exactly zero (p0 starts at
    node 0 with certainty).
    """
    if t_q < 1 or t_c < 1:
        raise ValueError("t_q and t_c must be >= 1")
    alpha, theta0, theta1 = prep_angles(g, p0)
    gates: list[GateOp] = []
    if alpha != 0.0:
        gates.append(GateOp("ry", target=0, angle=alpha))
    gates.append(GateOp("measure", register=1))
    block = walk_block_gates(theta0, theta1)
    for _ in range(t_c):
        gates.append(GateOp("reset", register=2))
        gates.extend(prep_block_gates(theta0, theta1))
        gates.extend(block * t_q)
        gates.append(GateOp("measure", register=1))
    return CircuitDescription(
        gates=tuple(gates),
        t_q=t_q,
        t_c=t_c,
        source=g,
        p0=p0,
        alpha=alpha,
        theta0=theta0,
        theta1=theta1,
    )


# --- gate matrices and verification ------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _on_wire(u: np.ndarray, wire: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    return np.kron(u, eye) if wire == 0 else np.kron(eye, u)


def _controlled(u: np.ndarray, control: int, target: int) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    for src in range(4):
        a, b = divmod(src, 2)
        ctrl_val = a if control == 0 else b
        if ctrl_val != 1:
            continue
        out[src, src] = 0.0
        tgt_val = b if target == 1 else a
        for t in range(2):
            dst = a * 2 + t if target == 1 else t * 2 + b
            out[dst, src] = u[t, tgt_val]
    return out


def gate_matrix(gate: GateOp) -> np.ndarray:
    """4x4 unitary of one gate; measure/reset have no matrix."""
    if gate.kind == "ry":
        return _on_wire(_ry(gate.angle), gate.target)
    if gate.kind == "x":
        return _on_wire(_X, gate.target)
    if gate.kind == "z":
        return _on_wire(_Z, gate.target)
    if gate.kind == "controlled-ry":
        return _controlled(_ry(gate.angle), gate.control, gate.target)
    if gate.kind == "controlled-z":
        return _controlled(_Z, gate.control, gate.target)
    if gate.kind == "swap":
        return _SWAP.copy()
    if gate.kind == "global-phase":
        return np.exp(1j * gate.angle) * np.eye(4, dtype=complex)
    raise ValueError(f"{gate.kind} has no unitary matrix")


def compose_gates(gates) -> np.ndarray:
    """Product of the gate matrices in circuit order (first gate acts first)."""
    out = np.eye(4, dtype=complex)
    for gate in gates:
        out = gate_matrix(gate) @ out
    return out


def deviation_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Largest entrywise gap between a and b after optimal phase alignment."""
    tr = complex(np.trace(b.conj().T @ a))
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.abs(a / phase - b).max())


def verify_block(g: TransitionMatrix, t_q: int) -> float:
    """Deviation of the composed walk block, to the power t_q, from dense U^t_q."""
    if g.n != 2:
        raise UnsupportedSizeError(f"circuit verification needs n=2, got n={g.n}")
    if t_q < 0:
        raise ValueError("t_q must be nonnegative")
    block = compose_gates(walk_block_gates(*_proxy_angles(g)))
    dense = SzegedyOperator(g).dense()
    return deviation_up_to_phase(
        np.linalg.matrix_power(block, t_q),
        np.linalg.matrix_power(dense, t_q),
    )


# --- statevector simulation with projective collapse --------------------------

def simulate_circuit(c: CircuitDescription) -> list[ProbabilityVector]:
    """Exact node distribution at every classical step (one per measurement).

    Branches on each mid-circuit measurement, collapses, and merges branches
    that coincide after the reset, so the cost stays linear in t_c.
    """
    branches: list[tuple[float, np.ndarray]] = [(1.0, _basis_vec(0, 0))]
    outcomes: list[ProbabilityVector] = []
    for gate in c.gates:
        if gate.kind == "measure":
            wire = _WIRE_OF_REGISTER[gate.register]
            dist = np.zeros(2)
            new_branches = []
            for outcome, weight, part in _collapse(branches, wire):
                new_branches.append((weight, _embed(part, wire, outcome)))
                dist[outcome] += weight
            branches = _merge(new_branches)
            outcomes.append(ProbabilityVector(dist))
        elif gate.kind == "reset":
            # collapse, then move the collapsed part to |0> on the reset wire
            wire = _WIRE_OF_REGISTER[gate.register]
            branches = _merge([(weight, _embed(part, wire, 0))
                               for _, weight, part in _collapse(branches, wire)])
        else:
            mat = gate_matrix(gate)
            branches = [(w, mat @ v) for w, v in branches]
    return outcomes


def _collapse(branches: list[tuple[float, np.ndarray]], wire: int):
    # per branch and outcome of ``wire``: (outcome, weight * prob, normalised
    # state of the other wire); outcomes with probability <= 1e-15 are dropped
    for weight, vec in branches:
        vv = vec.reshape(2, 2)
        for outcome in (0, 1):
            part = vv[outcome] if wire == 0 else vv[:, outcome]
            prob = float(np.vdot(part, part).real)
            if prob > 1e-15:
                yield outcome, weight * prob, part / math.sqrt(prob)


def _embed(part: np.ndarray, wire: int, value: int) -> np.ndarray:
    # the state with ``wire`` in basis state |value> and the other wire in ``part``
    vv = np.zeros((2, 2), dtype=complex)
    if wire == 0:
        vv[value] = part
    else:
        vv[:, value] = part
    return vv.reshape(4)


def _basis_vec(i: int, j: int) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[i * 2 + j] = 1.0
    return v


def _merge(branches: list[tuple[float, np.ndarray]]) -> list[tuple[float, np.ndarray]]:
    # classical mixture: branches equal up to a global phase can be pooled
    merged: list[tuple[float, np.ndarray]] = []
    for weight, vec in branches:
        for k, (w0, v0) in enumerate(merged):
            if abs(abs(np.vdot(v0, vec)) - 1.0) < 1e-12:
                merged[k] = (w0 + weight, v0)
                break
        else:
            merged.append((weight, vec))
    return merged


def segment_channel(g: TransitionMatrix, t_q: int) -> np.ndarray:
    """Outcome distribution of one circuit segment per start node, as columns.

    Runs the synthesized gate list through the collapse simulator from each
    basis start, so it checks the circuit rather than re-deriving it.
    """
    cols = []
    for x in (0, 1):
        c = build_circuit(g, ProbabilityVector.point_mass(2, x), t_q, 1)
        cols.append(simulate_circuit(c)[1].p)
    return np.column_stack(cols)


# --- OpenQASM export ----------------------------------------------------------

def export_openqasm(c: CircuitDescription, classical_control: bool = False) -> str:
    """OpenQASM 2.0 text with mid-circuit measure and reset.

    The default variant keeps the quantum controlled-rotation preparation and
    one classical register of t_c + 1 bits. With ``classical_control`` the
    preparation rotations are conditioned on the preceding measurement's own
    one-bit register instead (shallower, but untested against hardware).
    Angles are printed with 12 significant digits; output is byte-stable for
    identical inputs.
    """
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];"]
    n_meas = sum(1 for gate in c.gates if gate.kind == "measure")
    if classical_control:
        lines += [f"creg c{k}[1];" for k in range(n_meas)]
    else:
        lines.append(f"creg c[{n_meas}];")

    meas_index = 0
    gates = list(c.gates)
    idx = 0
    while idx < len(gates):
        gate = gates[idx]
        if classical_control and gate.kind == "reset":
            # replace the 4-gate controlled preparation after each reset
            lines.append(f"reset q[{_WIRE_OF_REGISTER[gate.register]}];")
            prep = gates[idx + 1: idx + 5]
            if [g.kind for g in prep] != ["x", "controlled-ry", "x", "controlled-ry"]:
                raise ValueError("unexpected circuit structure for classical control")
            bit = meas_index - 1
            lines.append(f"if(c{bit}==0) ry({_fmt(prep[1].angle)}) q[1];")
            lines.append(f"if(c{bit}==1) ry({_fmt(prep[3].angle)}) q[1];")
            idx += 5
            continue
        if gate.kind == "measure":
            wire = _WIRE_OF_REGISTER[gate.register]
            if classical_control:
                lines.append(f"measure q[{wire}] -> c{meas_index}[0];")
            else:
                lines.append(f"measure q[{wire}] -> c[{meas_index}];")
            meas_index += 1
        elif gate.kind == "reset":
            lines.append(f"reset q[{_WIRE_OF_REGISTER[gate.register]}];")
        elif gate.kind == "ry":
            lines.append(f"ry({_fmt(gate.angle)}) q[{gate.target}];")
        elif gate.kind == "x":
            lines.append(f"x q[{gate.target}];")
        elif gate.kind == "z":
            lines.append(f"z q[{gate.target}];")
        elif gate.kind == "controlled-ry":
            lines.append(f"cry({_fmt(gate.angle)}) q[{gate.control}],q[{gate.target}];")
        elif gate.kind == "controlled-z":
            lines.append(f"cz q[{gate.control}],q[{gate.target}];")
        elif gate.kind == "swap":
            lines.append("swap q[0],q[1];")
        elif gate.kind == "global-phase":
            # no global-phase statement in OpenQASM 2.0; keep it recoverable
            lines.append(f"// global-phase({_fmt(gate.angle)})")
        idx += 1
    return "\n".join(lines) + "\n"


def _fmt(angle: float) -> str:
    return f"{angle:.12g}"


_QASM_PATTERNS = [
    (re.compile(r"^ry\((?P<a>[^)]+)\) q\[(?P<t>[01])\];$"),
     lambda m: GateOp("ry", target=int(m["t"]), angle=float(m["a"]))),
    (re.compile(r"^x q\[(?P<t>[01])\];$"),
     lambda m: GateOp("x", target=int(m["t"]))),
    (re.compile(r"^z q\[(?P<t>[01])\];$"),
     lambda m: GateOp("z", target=int(m["t"]))),
    (re.compile(r"^cry\((?P<a>[^)]+)\) q\[(?P<c>[01])\],q\[(?P<t>[01])\];$"),
     lambda m: GateOp("controlled-ry", control=int(m["c"]), target=int(m["t"]), angle=float(m["a"]))),
    (re.compile(r"^cz q\[(?P<c>[01])\],q\[(?P<t>[01])\];$"),
     lambda m: GateOp("controlled-z", control=int(m["c"]), target=int(m["t"]))),
    (re.compile(r"^swap q\[0\],q\[1\];$"),
     lambda m: GateOp("swap", control=0, target=1)),
    (re.compile(r"^measure q\[(?P<w>[01])\] -> c\[\d+\];$"),
     lambda m: GateOp("measure", register=int(m["w"]) + 1)),
    (re.compile(r"^reset q\[(?P<w>[01])\];$"),
     lambda m: GateOp("reset", register=int(m["w"]) + 1)),
    (re.compile(r"^// global-phase\((?P<a>[^)]+)\)$"),
     lambda m: GateOp("global-phase", angle=float(m["a"]))),
]

_QASM_SKIP = re.compile(r"^(OPENQASM|include|qreg|creg)\b")


def parse_openqasm(text: str) -> tuple[GateOp, ...]:
    """Recover the gate list from text produced by the default exporter."""
    gates: list[GateOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _QASM_SKIP.match(line):
            continue
        for pattern, make in _QASM_PATTERNS:
            m = pattern.match(line)
            if m:
                gates.append(make(m))
                break
        else:
            raise ParseError(f"unrecognized statement {line!r}", line=lineno)
    return tuple(gates)
