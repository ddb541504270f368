"""Named reproductions of the paper's figures, and the report builders that
the CLI's subcommands share with them.

``PRESETS`` maps each name to a builder that returns the preset's artifacts,
``{file name: text}``; ``semiwalk preset NAME`` writes them with a manifest.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import circuit as circuit_mod, cycles, dynamics, family as family_mod, graphs, instances
from .errors import DimensionMismatchError, InsufficientRangeError, TooLargeError
from .graphs import ProbabilityVector, TransitionMatrix

# the start vector of the paper's two-node experiment (fig9, fig10, verify)
EXPERIMENT_P0 = ProbabilityVector(np.array([0.8, 0.2]))

# The bounds of the cycle and circuit verdicts and of verify's records for
# them, spelled as verify prints them; a deviation passes below its bound.
CLOSED_FORM_BOUND = "1e-12"
BLOCK_BOUND = "1e-9"
CHANNEL_BOUND = "1e-10"


def json_text(obj) -> str:
    """The text of each JSON report and of the manifest; a distribution or a
    numpy array is written as its (nested) lists."""
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=lambda v: (v.p if isinstance(v, ProbabilityVector) else v).tolist()) + "\n"


def closed_form_bound(t_q_max: int) -> str:
    """The cycle verdict's bound for a family of t_q_max members, spelled as verify prints it:
    ``CLOSED_FORM_BOUND`` to t_q_max = 1000, then in proportion, about 4.5 t_q_max eps. On
    cycles 3..16, 32, 64 and 128, to their ``MAX_ENTRIES`` caps, the deviation stayed at
    most 2.9e-13 to t_q_max = 1000 and 2.1 t_q_max eps beyond: it grows like t_q eps."""
    return CLOSED_FORM_BOUND if t_q_max <= 1000 else repr(float(CLOSED_FORM_BOUND) * t_q_max / 1000)


def member_dots(fam: family_mod.SemiclassicalFamily, count: int, width: int) -> dict[str, str]:
    """``member_<t>.dot`` for t_q = 1..count, t zero-padded to ``width`` digits."""
    return {f"member_{t:0{width}d}.dot": graphs.serialize(fam.member(t), "dot")
            for t in range(1, count + 1)}


def member_components(fam: family_mod.SemiclassicalFamily, count: int) -> dict[str, list]:
    """components.json: the components of members t_q = 1..count."""
    return {str(t): c for t, c in enumerate(cycles._components(fam.stack[:count]), start=1)}


def cycle_report(n: int, t_q_max: int, tol: float) -> tuple[dict, family_mod.SemiclassicalFamily]:
    """The n-cycle's measured counts and periods against the closed forms.

    The family period n is certified only over two periods, so a t_q_max
    below 2n is an InsufficientRangeError before anything is built. The
    family period is found once, and the distinct members are counted over
    that one period."""
    g = cycles.cycle_graph(n)
    family_mod._check_family([n], 1, t_q_max)
    if t_q_max < 2 * n:
        raise InsufficientRangeError(f"cycle n={n} needs t_q_max >= 2n = {2 * n}, have {t_q_max}")
    fam = family_mod.build_family(g, 1, t_q_max)
    period = family_mod.family_period(fam, tol)
    measured = {
        "distinct_count": family_mod._distinct(fam.stack[:period], tol),
        "family_period": period,
        "unitary_period": family_mod.unitary_period(g, 2 * n, tol),
    }
    pred = cycles.cycle_predictions(n)
    predicted = {key: getattr(pred, key) for key in measured}
    deviation = cycles._closed_form_deviation(fam.stack)
    report = {
        "n": n,
        "predicted": predicted,
        "measured": measured,
        "closed_form_max_deviation": deviation,
        "match": measured == predicted and deviation < float(closed_form_bound(t_q_max)),
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
    rows = [f"{t},{row}" for t, row in enumerate(graphs._csv_rows(table))]
    return "\n".join([header, *rows]) + "\n"


def rank_report(g: TransitionMatrix, class_tag: int, t_q_max: int, tol: float) -> dict:
    """rank.json: the class, t_q_max, every RankingResult field and each member's asymmetry."""
    fam = family_mod.build_family(g, class_tag, t_q_max)
    result = dynamics.rank_family(fam, tol=tol)
    return {
        "class": class_tag,
        "tq_max": t_q_max,
        **{f.name: getattr(result, f.name) for f in dataclasses.fields(result)},
        "asymmetries": graphs._asymmetries(fam.stack).tolist(),
    }


def circuit_artifacts(c: circuit_mod.CircuitDescription, classical_control: bool,
                      **checks) -> dict[str, str]:
    """circuit.qasm, gates.json, and verify.json: the angles of c plus ``checks``."""
    report = {"alpha": c.alpha, "theta0": c.theta0, "theta1": c.theta1, **checks}
    return {"circuit.qasm": circuit_mod.export_openqasm(c, classical_control=classical_control),
            "gates.json": c.to_json() + "\n", "verify.json": json_text(report)}


def circuit_report(c: circuit_mod.CircuitDescription) -> dict:
    """The checks of c: its t_q and t_c, the max deviations of its composed
    walk block from the dense operator's and of its round channel from family
    member t_q, and ``ok``, both below their bounds."""
    block = circuit_mod.verify_block(c)
    member = family_mod.semiclassical_matrix(c.source, c.t_q, 1)
    channel = float(np.abs(circuit_mod.segment_channel(c) - member.g).max())
    return {"t_q": c.t_q, "t_c": c.t_c, "block_deviation": block, "channel_deviation": channel,
            "ok": block < float(BLOCK_BOUND) and channel < float(CHANNEL_BOUND)}


def periodicity(n: int, t_q_max: int) -> dict[str, str]:
    """periodicity.csv and .json: per t_q, the first earlier t_q with the same
    member matrix and with the same unitary power."""
    g = cycles.cycle_graph(n)
    fam = family_mod.build_family(g, 1, t_q_max)
    mats = np.concatenate([np.eye(n)[None], fam.stack])  # index = t_q; 0 is the identity convention
    # U^j = U^t for j < t exactly when U^(t-j) = 1, so the first equal power is t mod the period
    period = family_mod.unitary_period(g, t_q_max)
    header = ("t_q", "matrix_first_equal", "unitary_first_equal")
    rows = []
    for t in range(t_q_max + 1):
        # the first j <= t whose matrix is within tol of t's (j = t always is)
        close = np.abs(mats[:t + 1] - mats[t]).max(axis=(1, 2)) <= family_mod.MATRIX_TOL
        rows.append(dict(zip(header, (t, int(np.argmax(close)), t % period if period else t))))
    csv = "".join(",".join(map(str, row)) + "\n" for row in [header, *(r.values() for r in rows)])
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
    # what `semiwalk circuit --tq 1 --tc 2 --p0 0.8,0.2` writes
    c = circuit_mod.build_circuit(instances.two_node_chain(), EXPERIMENT_P0, 1, 2)
    return circuit_artifacts(c, False, **circuit_report(c))


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
