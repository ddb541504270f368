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

One run alternates quantum evolution with measurement. The circuit's head,
an initial RY(alpha) plus measurement, samples the start node. Then t_c
identical rounds follow: each resets wire 1, re-prepares the proxy
conditioned on wire 0, applies t_q walk blocks and measures wire 0 again.
``CircuitDescription`` holds the head, the preparation and the block once;
the flat gate sequence is derived from them. The proxy preparation uses
quantum controlled rotations; an export flag swaps these for classically
controlled gates (untested against hardware).

Each gate kind is one entry of ``_GATES`` (OpenQASM 2.0 template, 4x4
unitary), read by the gate matrices, the exporter and the parser. The
simulator carries the 4x4 density matrix rho of both wires: a gate maps rho
to U rho U^dagger, a measurement reads its wire's marginal off rho's
diagonal and dephases the wire, a reset applies the Kraus pair |0><0|,
|0><1| on it. The head runs gate by gate. After a round's measurement of
wire 0 and the next reset of wire 1, rho is diag(p) (x) |0><0| for the node
distribution p, so every round maps p through one 2x2 column-stochastic
channel K. K comes from running one round's own gates, its t_q blocks
composed into one unitary, from each basis start; the t_c rounds are then
t_c products with K.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import string
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TooLargeError, UnsupportedSizeError
from .dynamics import _series
from .graphs import ProbabilityVector, TransitionMatrix, _check_int, _views, serialize
from .szegedy import SzegedyOperator

# cap on the walk blocks t_q * t_c of one circuit. The OpenQASM lists every
# gate: a block is 14 gates, at most about 330 bytes of OpenQASM together
# with its round's reset, preparation and measurement (t_q = 1), so at the
# cap it stays below about 11 MB. gates.json holds each round once.
MAX_WALK_BLOCKS = 2**15

_WIRE_OF_REGISTER = {1: 0, 2: 1}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]  # |a, b> -> |b, a>


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _on_wire(u: np.ndarray, wire: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    return np.kron(u, eye) if wire == 0 else np.kron(eye, u)


def _controlled(u: np.ndarray, control: int, target: int) -> np.ndarray:
    return _on_wire(_P0, control) + _on_wire(_P1, control) @ _on_wire(u, target)


# kind -> (OpenQASM template, 4x4 unitary of the gate or None). Template
# fields: {target}, {control}, {angle} (12 significant digits), {wire} (the
# register's wire) and {clbit} (the classical bit a measurement writes).
_GATES = {
    "ry": ("ry({angle}) q[{target}];", lambda g: _on_wire(_ry(g.angle), g.target)),
    "x": ("x q[{target}];", lambda g: _on_wire(_X, g.target)),
    "z": ("z q[{target}];", lambda g: _on_wire(_Z, g.target)),
    "controlled-ry": ("cry({angle}) q[{control}],q[{target}];",
                      lambda g: _controlled(_ry(g.angle), g.control, g.target)),
    "controlled-z": ("cz q[{control}],q[{target}];",
                     lambda g: _controlled(_Z, g.control, g.target)),
    "swap": ("swap q[{control}],q[{target}];", lambda g: _SWAP.copy()),
    "measure": ("measure q[{wire}] -> {clbit};", None),
    "reset": ("reset q[{wire}];", None),
    # no global-phase statement in OpenQASM 2.0; keep it recoverable
    "global-phase": ("// global-phase({angle})",
                     lambda g: np.exp(1j * g.angle) * np.eye(4, dtype=complex)),
}

GATE_KINDS = tuple(_GATES)


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
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must be different wires")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")
        if self.register is not None and self.register not in (1, 2):
            raise ValueError("register must be 1 or 2")


_GATE_FIELDS = tuple(f.name for f in dataclasses.fields(GateOp))

# the measurement of register 1 that closes the head and every round
_MEASURE = GateOp("measure", register=1)


def _gate_dicts(gates) -> list[dict]:
    return [{k: v for k in _GATE_FIELDS if (v := getattr(gate, k)) is not None} for gate in gates]


@dataclass(frozen=True, eq=False)
class CircuitDescription:
    """The walk circuit by its parts: ``head``, then t_c rounds, each ``prep``,
    t_q copies of ``block`` and a measurement of register 1.

    ``head`` is the optional RY(alpha) and the first measurement; ``prep`` is
    the reset of register 2 and the 4-gate proxy preparation; ``block`` is the
    14-gate walk block.
    """

    head: tuple[GateOp, ...]
    prep: tuple[GateOp, ...]
    block: tuple[GateOp, ...]
    t_q: int
    t_c: int
    source: TransitionMatrix
    p0: ProbabilityVector
    alpha: float
    theta0: float
    theta1: float

    @property
    def round(self) -> tuple[tuple[tuple[GateOp, ...], int], ...]:
        """One round as (gates, repeat count) segments, in circuit order."""
        return (self.prep, 1), (self.block, self.t_q), ((_MEASURE,), 1)

    @property
    def gates(self) -> tuple[GateOp, ...]:
        """The flat gate sequence: the head, then the round t_c times."""
        one_round = tuple(gate for gates, repeat in self.round for gate in gates * repeat)
        return self.head + one_round * self.t_c

    def to_json(self) -> str:
        """JSON object: sizes, angles, the source matrix as CSV, p0, the
        ``head`` gates and the ``round`` as segments ``{"gates", "repeat"}``.
        The circuit is the head followed by t_c rounds, and a round is each
        segment's gates ``repeat`` times; each gate lists only its set fields."""
        doc = {name: getattr(self, name) for name in ("t_q", "t_c", "alpha", "theta0", "theta1")}
        doc["source_csv"] = serialize(self.source, "csv")
        doc["p0"] = list(map(float, self.p0.p))
        doc["head"] = _gate_dicts(self.head)
        doc["round"] = [{"gates": _gate_dicts(gates), "repeat": repeat} for gates, repeat in self.round]
        return json.dumps(doc, indent=2, sort_keys=True)


def prep_angles(g: TransitionMatrix, p0: ProbabilityVector) -> tuple[float, float, float]:
    """(alpha, theta_0, theta_1): the initial-sampling and proxy rotations.

    theta_i = 2 arccos(sqrt(g[0, i])) and alpha = 2 arccos(sqrt(p0[0]));
    each argument is clamped at 1, since validation lets an entry exceed 1
    by rounding, so the angles are always real.
    """
    if g.n != 2:
        raise UnsupportedSizeError(f"circuit construction needs n=2, got n={g.n}")
    if p0.n != 2:
        raise UnsupportedSizeError("p0 must have two entries")
    theta0, theta1 = _proxy_angles(g)
    return _angle(p0.p[0]), theta0, theta1


def _angle(p: float) -> float:
    # 2 arccos(sqrt(p)); p may exceed 1 by rounding that validation allows
    return 2.0 * math.acos(math.sqrt(min(float(p), 1.0)))


def _proxy_angles(g: TransitionMatrix) -> tuple[float, float]:
    # theta_i = 2 arccos(sqrt(g[0, i])); callers have checked n == 2
    return _angle(g.g[0, 0]), _angle(g.g[0, 1])


def _proxy_reflection(i: int, theta: float) -> list[GateOp]:
    # 1 - 2|psi_i><psi_i| = RY(theta) (1 - 2|i,0><i,0|) RY(-theta) on wire 1;
    # the sign flip on |i,0> is CZ conjugated by X on wire 1 (and wire 0 for i=0)
    x1 = GateOp("x", target=1)
    flip = [x1, GateOp("controlled-z", control=0, target=1), x1]
    if i == 0:
        flip = [GateOp("x", target=0), *flip, GateOp("x", target=0)]
    return [GateOp("ry", target=1, angle=-theta), *flip, GateOp("ry", target=1, angle=theta)]


def walk_block_gates(theta0: float, theta1: float) -> tuple[GateOp, ...]:
    """Gate sequence of one walk application U."""
    return (*_proxy_reflection(0, theta0), *_proxy_reflection(1, theta1),
            GateOp("swap", control=0, target=1), GateOp("global-phase", angle=math.pi))


def prep_block_gates(theta0: float, theta1: float) -> list[GateOp]:
    # rotate wire 1 by theta_0 when wire 0 is |0>, by theta_1 when it is |1>
    x0 = GateOp("x", target=0)
    return [x0, GateOp("controlled-ry", control=0, target=1, angle=theta0),
            x0, GateOp("controlled-ry", control=0, target=1, angle=theta1)]


def build_circuit(g: TransitionMatrix, p0: ProbabilityVector, t_q: int,
                  t_c: int) -> CircuitDescription:
    """Full walk circuit: initial sampling, then t_c measure-and-reset rounds.

    The initial rotation is omitted when alpha is exactly zero (p0 starts at
    node 0 with certainty). More than ``MAX_WALK_BLOCKS`` walk blocks,
    t_q * t_c, is a TooLargeError, since the OpenQASM lists every gate.
    """
    _check_int("t_q", t_q)
    _check_int("t_c", t_c)
    if t_q < 1 or t_c < 1:
        raise ValueError("t_q and t_c must be >= 1")
    if t_q * t_c > MAX_WALK_BLOCKS:
        raise TooLargeError(f"t_q * t_c = {t_q * t_c} walk blocks exceeds MAX_WALK_BLOCKS = {MAX_WALK_BLOCKS}")
    alpha, theta0, theta1 = prep_angles(g, p0)
    rotation = () if alpha == 0.0 else (GateOp("ry", target=0, angle=alpha),)
    return CircuitDescription(head=(*rotation, _MEASURE),
                              prep=(GateOp("reset", register=2), *prep_block_gates(theta0, theta1)),
                              block=walk_block_gates(theta0, theta1), t_q=t_q, t_c=t_c,
                              source=g, p0=p0, alpha=alpha, theta0=theta0, theta1=theta1)


# --- gate matrices and verification ------------------------------------------

def gate_matrix(gate: GateOp) -> np.ndarray:
    """4x4 unitary of one gate, read-only and built once per distinct gate;
    measure/reset have no matrix."""
    if _GATES[gate.kind][1] is None:
        raise ValueError(f"{gate.kind} has no unitary matrix")
    return _unitary(gate)


@functools.lru_cache(maxsize=1024)
def _unitary(gate: GateOp) -> np.ndarray:
    u = _GATES[gate.kind][1](gate)
    u.setflags(write=False)
    return u


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
    _check_int("t_q", t_q, least=0)
    block = compose_gates(walk_block_gates(*_proxy_angles(g)))
    dense = SzegedyOperator(g).dense()
    return deviation_up_to_phase(np.linalg.matrix_power(block, t_q),
                                 np.linalg.matrix_power(dense, t_q))


# --- density-matrix simulation ------------------------------------------------

# Kraus operators on one wire: measure dephases it, reset moves it to |0>
_KRAUS = {"measure": (_P0, _P1), "reset": (_P0, np.array([[0, 1], [0, 0]], dtype=complex))}


@functools.lru_cache(maxsize=None)
def _kraus(kind: str, wire: int) -> tuple[np.ndarray, ...]:
    return tuple(_on_wire(k, wire) for k in _KRAUS[kind])


def _run(rho: np.ndarray, gates, outcomes: list) -> np.ndarray:
    """rho after the gates in order. Each measurement appends its wire's
    marginal (rho's diagonal summed over the other wire, rounding below zero
    clipped) to ``outcomes`` and dephases the wire."""
    for gate in gates:
        if gate.kind in _KRAUS:
            wire = _WIRE_OF_REGISTER[gate.register]
            if gate.kind == "measure":
                outcomes.append(np.maximum(rho.diagonal().real.reshape(2, 2).sum(axis=1 - wire), 0.0))
            rho = sum(k @ rho @ k.conj().T for k in _kraus(gate.kind, wire))
        else:
            u = gate_matrix(gate)
            rho = u @ rho @ u.conj().T
    return rho


def _round_channel(c: CircuitDescription) -> np.ndarray:
    # column x: the node distribution one round after diag(e_x) (x) |0><0|,
    # from the round's own gates with its t_q blocks composed into one unitary
    walk = np.linalg.matrix_power(compose_gates(c.block), c.t_q)
    cols: list[np.ndarray] = []
    for x in (0, 1):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2 * x, 2 * x] = 1.0  # |x>|0>
        rho = _run(rho, c.prep, cols)
        _run(walk @ rho @ walk.conj().T, (_MEASURE,), cols)
    return np.column_stack(cols)


def simulate_circuit(c: CircuitDescription) -> list[ProbabilityVector]:
    """Exact node distribution at every classical step (one per measurement).

    Runs the head gate by gate on the 4x4 density matrix of both wires from
    |0,0>; its measurement gives the first distribution. Each round then maps
    the distribution through the round channel K (``segment_channel``), so
    the classical mixture of all outcomes costs one round's gates plus t_c
    products with K, not t_q * t_c walk blocks. The (t_c + 1, 2) series is
    checked once; the distributions are unchecked views of its rows.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    head: list[np.ndarray] = []
    _run(rho, c.head, head)
    return _views(ProbabilityVector, _series(_round_channel(c), head[0], c.t_c))


def segment_channel(g: TransitionMatrix, t_q: int) -> np.ndarray:
    """Round channel K of g's circuit with t_q walk blocks: column x is the
    node distribution one round after node x, from one round's own gates."""
    return _round_channel(build_circuit(g, ProbabilityVector.point_mass(2, 0), t_q, 1))


# --- OpenQASM export and import -----------------------------------------------

def _qasm_line(gate: GateOp, clbit: str = "") -> str:
    angle = None if gate.angle is None else f"{gate.angle:.12g}"
    return _GATES[gate.kind][0].format(target=gate.target, control=gate.control, angle=angle,
                                       wire=_WIRE_OF_REGISTER.get(gate.register), clbit=clbit)


def export_openqasm(c: CircuitDescription, classical_control: bool = False) -> str:
    """OpenQASM 2.0 text with mid-circuit measure and reset.

    The default variant keeps the quantum controlled-rotation preparation and
    one classical register of t_c + 1 bits. With ``classical_control`` the
    preparation rotations are conditioned on the preceding measurement's own
    one-bit register instead (shallower, but untested against hardware).
    Angles are printed with 12 significant digits; output is byte-stable for
    identical inputs. Each distinct line is formatted once per call.
    """
    def clbit(k: int) -> str:
        return f"c{k}[0]" if classical_control else f"c[{k}]"

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[2];"]
    # one measurement closes the head and each round
    if classical_control:
        lines += [f"creg c{k}[1];" for k in range(c.t_c + 1)]
    else:
        lines.append(f"creg c[{c.t_c + 1}];")
    lines += [_qasm_line(gate, clbit(0)) for gate in c.head]
    if classical_control:
        # after the reset, two rotations conditioned on the preceding
        # measurement replace the 4-gate controlled preparation
        prep = [_qasm_line(c.prep[0])]
        rotations = [_qasm_line(GateOp("ry", target=1, angle=theta)) for theta in (c.theta0, c.theta1)]
    else:
        prep = ["\n".join(map(_qasm_line, c.prep))]
        rotations = []
    walk = "\n".join(["\n".join(map(_qasm_line, c.block))] * c.t_q)
    for k in range(1, c.t_c + 1):
        lines += prep
        lines += [f"if(c{k - 1}=={v}) {rot}" for v, rot in enumerate(rotations)]
        lines += [walk, _qasm_line(_MEASURE, clbit(k))]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


# what each template field matches when parsing; {clbit} matches only the
# default export's single register, c[k]
_FIELD_PATTERNS = {"target": "[01]", "control": "[01]", "wire": "[01]",
                   "angle": r"[^)]+", "clbit": r"c\[\d+\]"}


def _template_pattern(template: str) -> re.Pattern:
    parts = []
    for literal, field, _, _ in string.Formatter().parse(template):
        parts.append(re.escape(literal))
        if field:
            parts.append(f"(?P<{field}>{_FIELD_PATTERNS[field]})")
    return re.compile("".join(parts) + "$")


_QASM_PATTERNS = [(kind, _template_pattern(template)) for kind, (template, _) in _GATES.items()]

_QASM_SKIP = re.compile(r"^(OPENQASM|include|qreg|creg)\b")


def parse_openqasm(text: str) -> tuple[GateOp, ...]:
    """Recover the gate list from text produced by the default exporter.

    Raises ParseError, with the line number, for a statement outside the
    gate table and for an angle that is not a finite number.
    """
    gates: list[GateOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _QASM_SKIP.match(line):
            continue
        for kind, pattern in _QASM_PATTERNS:
            m = pattern.match(line)
            if m:
                break
        else:
            raise ParseError(f"unrecognized statement {line!r}", line=lineno)
        fields = m.groupdict()
        try:
            gates.append(GateOp(
                kind,
                target=int(fields["target"]) if "target" in fields else None,
                control=int(fields["control"]) if "control" in fields else None,
                angle=float(fields["angle"]) if "angle" in fields else None,
                register=int(fields["wire"]) + 1 if "wire" in fields else None,
            ))
        except ValueError as exc:
            raise ParseError(f"{exc} in {line!r}", line=lineno) from None
    return tuple(gates)
