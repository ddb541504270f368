"""Named reproductions of the paper's figures, and the report builders that
the CLI's subcommands share with them.

``PRESETS`` maps each name to a builder that returns the preset's artifacts,
``{file name: text}``; ``semiwalk preset NAME`` writes them with a manifest.
"""

from __future__ import annotations

import json

import numpy as np

from . import circuit as circuit_mod, cycles, dynamics, family as family_mod, graphs, instances
from .errors import DimensionMismatchError, TooLargeError
from .graphs import ProbabilityVector, TransitionMatrix

# the start vector of the paper's two-node experiment (fig9, fig10, verify)
EXPERIMENT_P0 = ProbabilityVector(np.array([0.8, 0.2]))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def member_dots(fam: family_mod.SemiclassicalFamily, count: int, width: int) -> dict[str, str]:
    """``member_<t>.dot`` for t_q = 1..count, t zero-padded to ``width`` digits."""
    return {f"member_{t:0{width}d}.dot": graphs.serialize(fam.member(t), "dot")
            for t in range(1, count + 1)}


def member_components(fam: family_mod.SemiclassicalFamily, count: int) -> dict[str, list]:
    return {str(t): cycles.components(fam.member(t)) for t in range(1, count + 1)}


def cycle_report(n: int, t_q_max: int, tol: float) -> tuple[dict, family_mod.SemiclassicalFamily]:
    """The n-cycle's measured counts and periods against the closed forms."""
    g = cycles.cycle_graph(n)
    fam = family_mod.build_family(g, 1, t_q_max)
    measured = {
        "distinct_count": family_mod.distinct_matrices(fam, tol),
        "family_period": family_mod.family_period(fam, tol),
        "unitary_period": family_mod.unitary_period(g, 2 * n, tol),
    }
    pred = cycles.cycle_predictions(n)
    predicted = {key: getattr(pred, key) for key in measured}
    dev = np.empty_like(fam.stack)  # the closed-form members, then |closed - measured| in place
    for t in range(1, t_q_max + 1):
        dev[t - 1] = cycles._cycle_member(n, t)
    dev -= fam.stack
    deviation = float(np.abs(dev, out=dev).max())
    report = {
        "n": n,
        "predicted": predicted,
        "measured": measured,
        "closed_form_max_deviation": deviation,
        "match": measured == predicted and deviation <= 1e-12,
    }
    return report, fam


def evolve_csv(member: TransitionMatrix, p0: ProbabilityVector, steps: int) -> str:
    """evolve.csv: the rows p(t) = G^t p0 for t = 0..steps, checked once as a table.

    The table holds at most ``dynamics.MAX_SAMPLES`` entries, (steps + 1) * N.
    """
    graphs._check_int("steps", steps, 0)
    if p0.n != member.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={member.n}")
    if (steps + 1) * member.n > dynamics.MAX_SAMPLES:
        raise TooLargeError(f"(steps + 1) * N = {(steps + 1) * member.n} entries "
                            f"exceeds MAX_SAMPLES = {dynamics.MAX_SAMPLES}")
    table = dynamics._series(member.g, p0.p, steps)
    header = "t," + ",".join(f"node{i}" for i in range(member.n))
    rows = [f"{t}," + ",".join(map(repr, row)) for t, row in enumerate(table.tolist())]
    return "\n".join([header, *rows]) + "\n"


def rank_report(g: TransitionMatrix, class_tag: int, t_q_max: int, tol: float) -> dict:
    fam = family_mod.build_family(g, class_tag, t_q_max)
    result = dynamics.rank_family(fam, tol=tol)
    return {
        "class": class_tag,
        "tq_max": t_q_max,
        "limits": [list(map(float, d.p)) for d in result.limits],
        "modes": list(result.modes),
        "methods": list(result.methods),
        "residuals": list(result.residuals),
        "running_averages": [list(map(float, row)) for row in result.running_averages],
        "final_average": list(map(float, result.final_average.p)),
        "ordering": list(result.ordering),
        "asymmetries": [dynamics.asymmetry(m) for m in fam.members],
    }


def circuit_artifacts(c: circuit_mod.CircuitDescription, classical_control: bool,
                      **checks) -> dict[str, str]:
    """circuit.qasm, gates.json, and verify.json: the angles of c plus ``checks``."""
    report = {"alpha": c.alpha, "theta0": c.theta0, "theta1": c.theta1, **checks}
    return {"circuit.qasm": circuit_mod.export_openqasm(c, classical_control=classical_control),
            "gates.json": c.to_json() + "\n", "verify.json": json_text(report)}


def circuit_deviations(g: TransitionMatrix, t_q: int) -> tuple[float, float]:
    """Max deviations of the composed gates from the dense operator's block and
    of the circuit's node channel from family member t_q."""
    block = circuit_mod.verify_block(g, t_q)
    member = family_mod.semiclassical_matrix(g, t_q, 1)
    return block, float(np.abs(circuit_mod.segment_channel(g, t_q) - member.g).max())


def periodicity(n: int, t_q_max: int) -> dict[str, str]:
    """periodicity.csv and .json: per t_q, the first earlier t_q with the same
    member matrix and with the same unitary power."""
    g = cycles.cycle_graph(n)
    fam = family_mod.build_family(g, 1, t_q_max)
    mats = np.concatenate([np.eye(n)[None], fam.stack])  # index = t_q; 0 is the identity convention
    # U^j = U^t for j < t exactly when U^(t-j) = 1, so the first equal power is t mod the period
    period = family_mod.unitary_period(g, t_q_max)
    rows = []
    for t in range(t_q_max + 1):
        # the first j <= t whose matrix is within tol of t's (j = t always is)
        close = np.abs(mats[:t + 1] - mats[t]).max(axis=(1, 2)) <= family_mod.MATRIX_TOL
        mat_first = int(np.argmax(close))
        uni_first = t % period if period else t
        rows.append({"t_q": t, "matrix_first_equal": mat_first, "unitary_first_equal": uni_first})
    csv = "t_q,matrix_first_equal,unitary_first_equal\n" + "".join(
        f"{r['t_q']},{r['matrix_first_equal']},{r['unitary_first_equal']}\n" for r in rows
    )
    return {"periodicity.csv": csv, "periodicity.json": json_text(rows)}


def _cycle_graphs(n: int) -> dict[str, str]:
    fam = family_mod.build_family(cycles.cycle_graph(n), 1, n)
    return {**member_dots(fam, n, 1), "family.json": fam.to_json() + "\n",
            "components.json": json_text(member_components(fam, n))}


def _fig5() -> dict[str, str]:
    ring = instances.asymmetric_ring()
    hub = instances.symmetric_hub()
    doc = {}
    for name, g in (("asymmetric_homogeneous_ring", ring), ("symmetric_inhomogeneous_hub", hub)):
        c = graphs.classify(g)
        doc[name] = {"symmetric": c.symmetric, "homogeneous": c.homogeneous}
    return {
        "ring.dot": graphs.serialize(ring, "dot"),
        "hub.dot": graphs.serialize(hub, "dot"),
        "ring.csv": graphs.serialize(ring, "csv"),
        "hub.csv": graphs.serialize(hub, "csv"),
        "classification.json": json_text(doc),
    }


def _fig9() -> dict[str, str]:
    g = instances.two_node_chain()
    c = circuit_mod.build_circuit(g, EXPERIMENT_P0, 1, 2)
    return circuit_artifacts(c, False, block_deviation=circuit_mod.verify_block(g, 1))


def _fig10() -> dict[str, str]:
    fam = family_mod.build_family(instances.two_node_chain(), 1, 3)
    artifacts = {"family.json": fam.to_json() + "\n", **member_dots(fam, 3, 1)}
    for t in range(1, 4):
        artifacts[f"evolve_tq{t}.csv"] = evolve_csv(fam.member(t), EXPERIMENT_P0, 30)
    return artifacts


PRESETS = {
    "fig3": lambda: _cycle_graphs(6),
    "fig4": lambda: periodicity(6, 12),
    "fig5": _fig5,
    "fig6": lambda: {**_cycle_graphs(7), **periodicity(7, 14)},
    "fig7": lambda: {"rank.json": json_text(
        rank_report(instances.symmetric_hub(), 1, 60, dynamics.DEFAULT_TOL))},
    "fig9": _fig9,
    "fig10": _fig10,
}
