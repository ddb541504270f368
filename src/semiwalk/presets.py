"""Named reproductions of the paper's figures, and the artifact builders that
the CLI's subcommands share with them.

Every artifact's name, content and spelling is decided here. A builder
returns ``{file name: text}``, each text a str or, for ``family.json``, a
re-iterable of bytes chunks (``family_json``); a subcommand with a verdict
gets ``(report, artifacts)``. ``PRESETS`` maps each name to the builder of
its artifacts; ``semiwalk preset NAME`` writes them with a manifest.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import __version__, circuit as circuit_mod, cycles, dynamics, family as family_mod, graphs, instances
from .errors import DimensionMismatchError, InsufficientRangeError
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


def manifest_json(subcommand: str, config: dict, checksums: dict[str, str]) -> str:
    """manifest.json: the subcommand, its options, each artifact's sha256 and the versions."""
    return json_text({"subcommand": subcommand, "config": config, "artifacts": checksums,
                      "versions": {"semiwalk": __version__, "numpy": np.__version__}})


@dataclasses.dataclass(frozen=True)
class _FamilyJSON:
    """Made chunk by chunk each time it is read, so a writer never holds the
    whole text; ``encode()`` gives it whole, as a str artifact's does."""

    fam: family_mod.SemiclassicalFamily

    def __iter__(self):
        # a CSV needs no JSON escape but its newlines, so its lines end with an escaped one
        for t, pieces in enumerate(graphs._csv_texts(self.fam.stack, b"\\n"), start=1):
            yield b"".join([b'%s{"t_q": %d, "matrix_csv": "' % (b"[" if t == 1 else b", ", t), *pieces, b'"}'])
        yield b"]\n"

    def encode(self) -> bytes:
        return b"".join(self)


def family_json(fam: family_mod.SemiclassicalFamily) -> _FamilyJSON:
    """family.json: a JSON array of ``{"t_q", "matrix_csv"}`` entries and a
    newline, in ASCII bytes, one member per chunk. Member t_q's entry is
    ``{"t_q": t_q, "matrix_csv": csv}`` with the json module's default
    separators, csv the member's ``serialize(..., "csv")``; the rows are
    formatted a block at a time."""
    return _FamilyJSON(fam)


def family_artifacts(g: TransitionMatrix, class_tag: int, t_q_max: int) -> dict:
    """family.json of the family of g."""
    return {"family.json": family_json(family_mod.build_family(g, class_tag, t_q_max))}


def closed_form_bound(t_q_max: int) -> str:
    """The cycle verdict's bound for a family of t_q_max members, spelled as verify prints it:
    ``CLOSED_FORM_BOUND`` to t_q_max = 1000, then in proportion, about 4.5 t_q_max eps. On
    cycles 3..16, 32, 64 and 128, to their ``MAX_ENTRIES`` caps, the deviation stayed at
    most 2.9e-13 to t_q_max = 1000 and 2.1 t_q_max eps beyond: it grows like t_q eps."""
    return CLOSED_FORM_BOUND if t_q_max <= 1000 else repr(float(CLOSED_FORM_BOUND) * t_q_max / 1000)


def member_dots(fam: family_mod.SemiclassicalFamily, count: int) -> dict[str, str]:
    """``member_<t>.dot`` for t_q = 1..count, t zero-padded to count's digits."""
    width = len(str(count))
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


def cycle_artifacts(n: int, t_q_max: int, tol: float) -> tuple[dict, dict[str, str]]:
    """The cycle report with each member's components, as cycle.json, and the
    members t_q = 1..n as DOT files."""
    report, fam = cycle_report(n, t_q_max, tol)
    report["components"] = member_components(fam, n)
    return report, {"cycle.json": json_text(report), **member_dots(fam, n)}


def evolve_csv(member: TransitionMatrix, p0: ProbabilityVector, steps: int) -> str:
    """evolve.csv: the rows p(t) = G^t p0 for t = 0..steps, checked once as a table.

    The table holds at most ``dynamics.MAX_SAMPLES`` entries, (steps + 1) * N.
    """
    graphs._check_int("steps", steps, 0)
    if p0.n != member.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={member.n}")
    table = dynamics._series(member.g, p0.p, steps)
    header = "t," + ",".join(f"node{i}" for i in range(member.n))
    rows = [f"{t},{row}" for t, row in enumerate(graphs._csv_rows(table))]
    return "\n".join([header, *rows]) + "\n"


def evolve_artifacts(g: TransitionMatrix, class_tag: int, t_q: int, p0: ProbabilityVector, steps: int) -> dict:
    """evolve.csv under family member t_q."""
    return {"evolve.csv": evolve_csv(family_mod.semiclassical_matrix(g, t_q, class_tag), p0, steps)}


def sample_artifacts(g: TransitionMatrix, class_tag: int, t_q: int, x0: int, steps: int, seed: int,
                     count: int) -> dict[str, str]:
    """trajectories.csv: ``count`` seeded trajectories of family member t_q from x0, one row each."""
    nodes = dynamics.sample_trajectories(family_mod.semiclassical_matrix(g, t_q, class_tag), x0, steps, seed, count)
    rows = ["trajectory," + ",".join(f"x{t}" for t in range(steps + 1))]
    rows += [f"{k}," + ",".join(map(str, row)) for k, row in enumerate(nodes.tolist())]
    return {"trajectories.csv": "\n".join(rows) + "\n"}


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


def rank_artifacts(g: TransitionMatrix, class_tag: int, t_q_max: int, tol: float) -> dict[str, str]:
    """rank.json: ``rank_report``."""
    return {"rank.json": json_text(rank_report(g, class_tag, t_q_max, tol))}


def gates_json(c: circuit_mod.CircuitDescription) -> str:
    """gates.json: sizes, angles, the source matrix as CSV, p0, the ``head``
    gates and the ``round`` as segments ``{"gates", "repeat"}``. The circuit
    is the head followed by t_c rounds, and a round is each segment's gates
    ``repeat`` times; each gate lists only its set fields."""
    def entries(gates):
        return [{k: v for k, v in dataclasses.asdict(gate).items() if v is not None} for gate in gates]

    doc = {name: getattr(c, name) for name in ("t_q", "t_c", "alpha", "theta0", "theta1")}
    return json_text({**doc, "source_csv": graphs.serialize(c.source, "csv"), "p0": c.p0, "head": entries(c.head),
                      "round": [{"gates": entries(gates), "repeat": repeat} for gates, repeat in c.round]})


def circuit_artifacts(g: TransitionMatrix, p0: ProbabilityVector, t_q: int, t_c: int,
                      classical_control: bool) -> tuple[dict, dict[str, str]]:
    """The circuit of g from p0, checked by ``circuit_report``: circuit.qasm,
    gates.json, and verify.json, the angles and the checks."""
    c = circuit_mod.build_circuit(g, p0, t_q, t_c)
    report = {"alpha": c.alpha, "theta0": c.theta0, "theta1": c.theta1, **circuit_report(c)}
    return report, {"circuit.qasm": circuit_mod.export_openqasm(c, classical_control=classical_control),
                    "gates.json": gates_json(c), "verify.json": json_text(report)}


def circuit_report(c: circuit_mod.CircuitDescription) -> dict:
    """The checks of c: its t_q and t_c, the max deviations of its composed
    walk block from the dense operator's and of its round channel from family
    member t_q, and ``ok``, both below their bounds."""
    block = circuit_mod.verify_block(c)
    member = family_mod.semiclassical_matrix(c.source, c.t_q, 1)
    channel = float(np.abs(circuit_mod.segment_channel(c) - member.g).max())
    return {"t_q": c.t_q, "t_c": c.t_c, "block_deviation": block, "channel_deviation": channel,
            "ok": block < float(BLOCK_BOUND) and channel < float(CHANNEL_BOUND)}


def periodicity(n: int) -> dict[str, str]:
    """periodicity.csv and .json of the n-cycle: per t_q = 0..2n, the first
    earlier t_q with the same member matrix and with the same unitary power."""
    g, t_q_max = cycles.cycle_graph(n), 2 * n
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
    return {**member_dots(fam, n), "family.json": family_json(fam),
            "components.json": json_text(member_components(fam, n))}


def _fig5() -> dict[str, str]:
    artifacts, doc = {}, {}
    for short, name, g in (("ring", "asymmetric_homogeneous_ring", instances.asymmetric_ring()),
                           ("hub", "symmetric_inhomogeneous_hub", instances.symmetric_hub())):
        c = graphs.classify(g)
        doc[name] = {"symmetric": c.symmetric, "homogeneous": c.homogeneous}
        artifacts |= {f"{short}.{fmt}": graphs.serialize(g, fmt) for fmt in ("dot", "csv")}
    return {**artifacts, "classification.json": json_text(doc)}


def _fig10() -> dict[str, str]:
    fam = family_mod.build_family(instances.two_node_chain(), 1, 3)
    return {"family.json": family_json(fam), **member_dots(fam, 3),
            **{f"evolve_tq{t}.csv": evolve_csv(fam.member(t), EXPERIMENT_P0, 30) for t in range(1, 4)}}


PRESETS = {
    "fig3": lambda: _cycle_graphs(6),
    "fig4": lambda: periodicity(6),
    "fig5": _fig5,
    "fig6": lambda: {**_cycle_graphs(7), **periodicity(7)},
    "fig7": lambda: rank_artifacts(instances.symmetric_hub(), 1, 60, dynamics.DEFAULT_TOL),
    # what `semiwalk circuit --tq 1 --tc 2 --p0 0.8,0.2` writes
    "fig9": lambda: circuit_artifacts(instances.two_node_chain(), EXPERIMENT_P0, 1, 2, False)[1],
    "fig10": _fig10,
}
