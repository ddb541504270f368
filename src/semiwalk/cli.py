"""Command-line surface: reproducible pipelines over the library modules.

Every subcommand writes its artifacts plus a manifest (config echo and
sha256 checksums) into the output directory, so a run can be reproduced and
compared byte for byte. Exit codes: 0 success, 1 a requested check failed,
2 usage or input errors (with a JSON error object on stderr).

Each option is declared once, in ``_COMMANDS``. Its flag, its config-file
key and its manifest key all come from that one entry, so the manifest's
``config`` object, passed back as ``--config``, replays the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import circuit as circuit_mod
from . import corpus, cycles, dynamics, family as family_mod, graphs, instances
from .errors import SemiwalkError
from .graphs import ProbabilityVector, TransitionMatrix
from .szegedy import EdgeState, SzegedyOperator

ENV_OUT = "SEMIWALK_OUT"

_TWO_NODE_LIMITS = {1: 9 / 11, 2: 153 / 299, 3: 8 / 9}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    handler, _, options = _COMMANDS[args.subcommand]
    try:
        opts = _resolve(options, vars(args))
        outdir = Path(opts.pop("out") or os.environ.get(ENV_OUT, "semiwalk-out"))
        code, artifacts = handler(opts)
        outdir.mkdir(parents=True, exist_ok=True)
        _emit(outdir, args.subcommand, opts, artifacts)
        return code
    except (SemiwalkError, OSError, ValueError) as exc:
        _error_json(exc)
        return 2


def _error_json(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# --- option plumbing ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiwalk",
        description="Szegedy walk families: build, analyze, rank, sample, synthesize.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, typ, _default, choices in [*options, _OUT]:
            if key == "name":  # the preset name is the one positional option
                p.add_argument(key, nargs="?", choices=choices)
            elif typ is bool:
                p.add_argument("--" + key.replace("_", "-"), action="store_true", default=None)
            else:
                p.add_argument("--" + key.replace("_", "-"), choices=choices,
                               type=typ if typ in (int, float) else None)
    return parser


def _resolve(options: list[tuple], args: dict) -> dict:
    """Each option's value: its flag, else the config file, else its default."""
    cfg = json.loads(Path(args["config"]).read_text()) if args["config"] else {}
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    options = [*options, _OUT]
    unknown = sorted(set(cfg) - {key for key, *_ in options})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    opts = {}
    for key, typ, default, choices in options:
        if args[key] is not None:
            value = [float(tok) for tok in args[key].split(",")] if typ is list else args[key]
        elif key in cfg:
            value = _config_value(key, typ, cfg[key], default)
        else:
            value = default
        if value is _REQUIRED:
            raise ValueError(f"{key} is required")
        if choices is not None and value not in choices:
            raise ValueError(f"{key} must be one of {list(choices)}, got {value!r}")
        opts[key] = value
    return opts


# What a config-file value of each option type must be. ``type(v) is int``
# keeps JSON true/false out of int options; ``list`` is a list of floats,
# spelled comma-separated on the command line.
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    list: ("a list of numbers", lambda v: type(v) is list and all(type(x) in (int, float) for x in v)),
}


def _config_value(key: str, typ: type, value, default):
    # null stands for a default the handler derives, and is accepted only there
    if value is None and default is None:
        return None
    what, ok = _JSON_TYPES[typ]
    try:
        if ok(value):
            return [float(x) for x in value] if typ is list else typ(value)
    except OverflowError:  # an int beyond float range for a float option
        pass
    raise ValueError(f"config key {key!r} must be {what}, got {json.dumps(value)}")


def _load_matrix(opts: dict) -> TransitionMatrix:
    return graphs.deserialize(Path(opts["input"]).read_text(), opts["format"])


def _start(opts: dict, n: int) -> ProbabilityVector:
    """The start distribution ``p0`` (uniform if unset), recorded back as a list."""
    if opts["p0"] is None:
        p0 = ProbabilityVector.uniform(n)
    else:
        p0 = ProbabilityVector(np.array(opts["p0"]))
    opts["p0"] = list(map(float, p0.p))
    return p0


def _emit(outdir: Path, subcommand: str, config: dict, artifacts: dict[str, str]) -> None:
    checksums = {}
    for name, text in artifacts.items():
        data = text.encode()
        (outdir / name).write_bytes(data)
        checksums[name] = hashlib.sha256(data).hexdigest()
    manifest = {"subcommand": subcommand, "config": config, "artifacts": checksums}
    (outdir / "manifest.json").write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    )


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- subcommand handlers ------------------------------------------------------
# A handler takes the resolved options, writes back any value it derives, and
# returns (exit code, artifacts); ``main`` records the options in the manifest.

def _cmd_family(opts: dict) -> tuple[int, dict[str, str]]:
    g = _load_matrix(opts)
    t_q_max = opts["tq_max"]
    fam = family_mod.build_family(g, opts["class"], t_q_max)
    artifacts = {"family.json": fam.to_json() + "\n"}
    width = len(str(t_q_max))
    for t in range(1, t_q_max + 1):
        artifacts[f"member_{t:0{width}d}.dot"] = graphs.serialize(fam.member(t), "dot")
    return 0, artifacts


def _cmd_cycle(opts: dict) -> tuple[int, dict[str, str]]:
    n, tol = opts["n"], opts["tol"]
    if opts["tq_max"] is None:
        opts["tq_max"] = 2 * n
    t_q_max = opts["tq_max"]
    g = cycles.cycle_graph(n)
    fam = family_mod.build_family(g, 1, t_q_max)
    predicted = cycles.cycle_predictions(n)
    measured = {
        "distinct_count": family_mod.distinct_matrices(fam, tol),
        "family_period": family_mod.family_period(fam, tol),
        "unitary_period": family_mod.unitary_period(g, 2 * n, tol),
    }
    deviation = max(
        float(np.abs(cycles.cycle_semiclassical(n, t).g - fam.member(t).g).max())
        for t in range(1, t_q_max + 1)
    )
    comps = {
        str(t): cycles.components(fam.member(t))
        for t in range(1, min(t_q_max, n) + 1)
    }
    ok = (
        measured["distinct_count"] == predicted.distinct_count
        and measured["family_period"] == predicted.family_period
        and measured["unitary_period"] == predicted.unitary_period
        and deviation <= 1e-12
    )
    report = {
        "n": n,
        "predicted": {
            "distinct_count": predicted.distinct_count,
            "family_period": predicted.family_period,
            "unitary_period": predicted.unitary_period,
        },
        "measured": measured,
        "closed_form_max_deviation": deviation,
        "components": comps,
        "match": ok,
    }
    artifacts = {"cycle.json": _json_text(report)}
    width = len(str(n))
    for t in range(1, min(t_q_max, n) + 1):
        artifacts[f"member_{t:0{width}d}.dot"] = graphs.serialize(fam.member(t), "dot")
    print(f"{'PASS' if ok else 'FAIL'} cycle n={n}: "
          f"distinct={measured['distinct_count']} family_period={measured['family_period']} "
          f"unitary_period={measured['unitary_period']} closed-form dev={deviation:.2e}")
    return (0 if ok else 1), artifacts


def _evolve_csv(member: TransitionMatrix, p0: ProbabilityVector, steps: int) -> str:
    header = "t," + ",".join(f"node{i}" for i in range(member.n))
    rows = [header]
    p = p0
    for t in range(steps + 1):
        rows.append(f"{t}," + ",".join(repr(float(v)) for v in p.p))
        p = dynamics.evolve(member, p, 1)
    return "\n".join(rows) + "\n"


def _cmd_evolve(opts: dict) -> tuple[int, dict[str, str]]:
    g = _load_matrix(opts)
    p0 = _start(opts, g.n)
    member = family_mod.semiclassical_matrix(g, opts["tq"], opts["class"])
    return 0, {"evolve.csv": _evolve_csv(member, p0, opts["steps"])}


def _rank_report(g: TransitionMatrix, class_tag: int, t_q_max: int, tol: float, max_iter: int) -> dict:
    fam = family_mod.build_family(g, class_tag, t_q_max)
    result = dynamics.rank_family(fam, tol=tol, max_iter=max_iter)
    return {
        "class": class_tag,
        "tq_max": t_q_max,
        "limits": [list(map(float, d.p)) for d in result.limits],
        "modes": list(result.modes),
        "running_averages": [list(map(float, row)) for row in result.running_averages],
        "final_average": list(map(float, result.final_average.p)),
        "ordering": list(result.ordering),
        "asymmetries": [dynamics.asymmetry(m) for m in fam.members],
    }


def _cmd_rank(opts: dict) -> tuple[int, dict[str, str]]:
    report = _rank_report(_load_matrix(opts), opts["class"], opts["tq_max"],
                          opts["tol"], opts["max_iter"])
    return 0, {"rank.json": _json_text(report)}


def _cmd_sample(opts: dict) -> tuple[int, dict[str, str]]:
    g = _load_matrix(opts)
    t_q, class_tag, steps = opts["tq"], opts["class"], opts["steps"]
    member = family_mod.semiclassical_matrix(g, t_q, class_tag)
    trajectories = dynamics.sample_trajectories(
        member, opts["x0"], steps, opts["seed"], opts["count"], t_q=t_q, class_tag=class_tag
    )
    header = "trajectory,seed," + ",".join(f"x{t}" for t in range(steps + 1))
    rows = [header]
    for k, traj in enumerate(trajectories):
        rows.append(f"{k},{traj.seed}," + ",".join(str(x) for x in traj.nodes))
    return 0, {"trajectories.csv": "\n".join(rows) + "\n"}


def _gates_json(c: circuit_mod.CircuitDescription) -> str:
    doc = {
        "t_q": c.t_q,
        "t_c": c.t_c,
        "alpha": c.alpha,
        "theta0": c.theta0,
        "theta1": c.theta1,
        "source_csv": graphs.serialize(c.source, "csv"),
        "p0": list(map(float, c.p0.p)),
        "gates": [
            {k: v for k, v in (("kind", gate.kind), ("target", gate.target),
                               ("control", gate.control), ("angle", gate.angle),
                               ("register", gate.register)) if v is not None}
            for gate in c.gates
        ],
    }
    return _json_text(doc)


def _cmd_circuit(opts: dict) -> tuple[int, dict[str, str]]:
    g = instances.two_node_chain() if opts["input"] is None else _load_matrix(opts)
    t_q, t_c = opts["tq"], opts["tc"]
    c = circuit_mod.build_circuit(g, _start(opts, 2), t_q, t_c)
    block_dev = circuit_mod.verify_block(g, t_q)
    member = family_mod.semiclassical_matrix(g, t_q, 1)
    channel_dev = float(np.abs(circuit_mod.segment_channel(g, t_q) - member.g).max())
    ok = block_dev < 1e-9 and channel_dev < 1e-10
    report = {
        "t_q": t_q,
        "t_c": t_c,
        "alpha": c.alpha,
        "theta0": c.theta0,
        "theta1": c.theta1,
        "block_deviation": block_dev,
        "channel_deviation": channel_dev,
        "ok": ok,
    }
    artifacts = {
        "circuit.qasm": circuit_mod.export_openqasm(c, classical_control=opts["classical_control"]),
        "gates.json": _gates_json(c),
        "verify.json": _json_text(report),
    }
    print(f"{'PASS' if ok else 'FAIL'} circuit t_q={t_q}: "
          f"block dev={block_dev:.2e} channel dev={channel_dev:.2e}")
    return (0 if ok else 1), artifacts


# --- verify -------------------------------------------------------------------

def _cmd_verify(opts: dict) -> tuple[int, dict[str, str]]:
    count, seed = opts["count"], opts["seed"]
    checks = run_verification(count=count, seed=seed)
    ok = all(c["passed"] for c in checks)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    report = {"count": count, "seed": seed, "checks": checks, "ok": ok}
    return (0 if ok else 1), {"verify_report.json": _json_text(report)}


def run_verification(count: int = 100, seed: int = 0) -> list[dict]:
    """The theorem/property suite behind ``semiwalk verify``."""
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: str):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    mats = corpus.random_stochastic_corpus(count, seed)

    dev1 = dev2 = dev3 = 0.0
    for g in mats:
        fam1 = family_mod.build_family(g, 1, 10)
        fam2 = family_mod.build_family(g, 2, 11)
        dev1 = max(dev1, float(np.abs(fam1.member(1).g - g.g).max()))
        dev2 = max(dev2, float(np.abs(fam2.member(2).g - g.g).max()))
        for t in range(1, 11):
            dev3 = max(dev3, float(np.abs(fam1.member(t).g - fam2.member(t + 1).g).max()))
    record("classical-limit-I", dev1 < 1e-12, f"max dev {dev1:.2e} (tol 1e-12)")
    record("classical-limit-II", dev2 < 1e-12, f"max dev {dev2:.2e} (tol 1e-12)")
    record("class-equivalence", dev3 < 1e-12, f"max dev {dev3:.2e} (tol 1e-12)")

    rng = corpus.rng_from_seed(seed + 1)
    dev_u = dev_mf = 0.0
    for g in mats:
        op = SzegedyOperator(g)
        u = op.dense()
        dev_u = max(dev_u, float(np.abs(u.conj().T @ u - np.eye(g.n * g.n)).max()))
        amp = rng.normal(size=g.n * g.n) + 1j * rng.normal(size=g.n * g.n)
        amp /= np.linalg.norm(amp)
        state = EdgeState(amp)
        dev_mf = max(dev_mf, float(np.abs(op.apply(state).amp - u @ amp).max()))
    record("unitarity", dev_u < 1e-10, f"max |U+U - 1| {dev_u:.2e} (tol 1e-10)")
    record("matrix-free-vs-dense", dev_mf < 1e-10, f"max dev {dev_mf:.2e} (tol 1e-10)")

    worst = 0.0
    predictions_ok = True
    for n in range(3, 11):
        g = cycles.cycle_graph(n)
        fam = family_mod.build_family(g, 1, 2 * n)
        for t in range(1, 2 * n + 1):
            worst = max(worst, float(np.abs(cycles.cycle_semiclassical(n, t).g - fam.member(t).g).max()))
        pred = cycles.cycle_predictions(n)
        predictions_ok &= (
            family_mod.distinct_matrices(fam) == pred.distinct_count
            and family_mod.family_period(fam) == pred.family_period
            and family_mod.unitary_period(g, 2 * n) == pred.unitary_period
        )
    record("cycle-closed-form", worst < 1e-12, f"max dev {worst:.2e} (tol 1e-12)")
    record("cycle-predictions", predictions_ok, "counts and periods match for n=3..10")

    fam6 = family_mod.build_family(cycles.cycle_graph(6), 1, 6)
    fam7 = family_mod.build_family(cycles.cycle_graph(7), 1, 2)
    breaking_ok = (
        cycles.components(fam6.member(2)) == [[0, 2, 4], [1, 3, 5]]
        and cycles.components(fam6.member(3)) == [[0, 3], [1, 4], [2, 5]]
        and cycles.components(fam6.member(6)) == [[i] for i in range(6)]
        and cycles.components(fam7.member(2)) == [list(range(7))]
    )
    record("graph-breaking", breaking_ok, "6-cycle triangles/pairs/singletons, 7-cycle chain")

    rng = corpus.rng_from_seed(seed + 2)
    dev4 = dev5 = 0.0
    for k in range(50):
        n = 3 + k % 8
        g = corpus.random_symmetric_stochastic(n, rng)
        uniform = np.full(n, 1.0 / n)
        dev4 = max(dev4, float(np.abs(g.g @ uniform - uniform).max()))
        op = SzegedyOperator(g)
        psi = op.uniform_superposition()
        dev5 = max(dev5, float(np.abs(op.apply(psi).amp - psi.amp).max()))
    record("uniform-fixed-point", dev4 < 1e-12, f"max dev {dev4:.2e} (tol 1e-12)")
    record("uniform-superposition-eigenvector", dev5 < 1e-12, f"max dev {dev5:.2e} (tol 1e-12)")

    rng = corpus.rng_from_seed(seed + 3)
    dev_sym = 0.0
    for k in range(50):
        n = 3 + k % 8
        g = corpus.random_circulant_symmetric(n, rng)
        fam = family_mod.build_family(g, 1, 12)
        for m in fam.members:
            dev_sym = max(dev_sym, dynamics.asymmetry(m))
    record("homogeneous-symmetry-preserved", dev_sym < 1e-9, f"max asymmetry {dev_sym:.2e} (tol 1e-9)")

    g2 = instances.two_node_chain()
    p0 = ProbabilityVector(np.array([0.8, 0.2]))
    series = [float(dynamics.evolve(g2, p0, t).p[1]) for t in range(3)]
    limits_ok = abs(series[0] - 0.2) < 1e-12 and abs(series[1] - 0.88) < 1e-12 and abs(series[2] - 0.812) < 1e-12
    worst_limit = 0.0
    for t_q, target in _TWO_NODE_LIMITS.items():
        member = family_mod.semiclassical_matrix(g2, t_q, 1)
        res = dynamics.limiting_distribution(member)
        worst_limit = max(worst_limit, abs(float(res.distribution.p[1]) - target))
    record("two-node-evolution", limits_ok, f"node-1 series {series}")
    record("two-node-limits", worst_limit < 1e-3, f"max gap to exact limits {worst_limit:.2e} (tol 1e-3)")

    alpha, th0, th1 = circuit_mod.prep_angles(g2, p0)
    angles_ok = (
        abs(alpha - 0.927) < 5e-4 and abs(th0 - 2.50) < 5e-3 and abs(th1 - 2.21) < 5e-3
    )
    block_dev = max(circuit_mod.verify_block(g2, t) for t in (1, 2, 3))
    channel_dev = max(
        float(np.abs(circuit_mod.segment_channel(g2, t) - family_mod.semiclassical_matrix(g2, t, 1).g).max())
        for t in (1, 2, 3)
    )
    record("circuit-angles", angles_ok, f"alpha={alpha:.4f} theta0={th0:.4f} theta1={th1:.4f}")
    record("circuit-block", block_dev < 1e-9, f"max dev {block_dev:.2e} (tol 1e-9)")
    record("circuit-channel", channel_dev < 1e-10, f"max dev {channel_dev:.2e} (tol 1e-10)")

    worst_l1 = 0.0
    for x0 in range(2):
        trajectories = dynamics.sample_trajectories(g2, x0, 1, seed, 20000)
        freq = np.zeros(2)
        for traj in trajectories:
            freq[traj.nodes[1]] += 1
        freq /= len(trajectories)
        worst_l1 = max(worst_l1, float(np.abs(freq - g2.g[:, x0]).sum()))
    record("sampler-frequencies", worst_l1 < 0.05, f"max L1 gap {worst_l1:.3f} (tol 0.05)")

    return checks


# --- presets ------------------------------------------------------------------

def _periodicity_rows(n: int, t_q_max: int) -> list[dict]:
    g = cycles.cycle_graph(n)
    fam = family_mod.build_family(g, 1, t_q_max)
    mats = [np.eye(n)] + [m.g for m in fam.members]  # index = t_q; 0 is the identity convention
    # U^j = U^t for j < t exactly when U^(t-j) = 1, so the first equal power is t mod the period
    period = family_mod.unitary_period(g, t_q_max)
    rows = []
    for t in range(t_q_max + 1):
        mat_first = next(j for j in range(t + 1) if np.abs(mats[j] - mats[t]).max() <= 1e-9)
        uni_first = t % period if period else t
        rows.append({"t_q": t, "matrix_first_equal": mat_first, "unitary_first_equal": uni_first})
    return rows


def _preset_cycle_graphs(n: int) -> dict[str, str]:
    fam = family_mod.build_family(cycles.cycle_graph(n), 1, n)
    artifacts = {}
    for t in range(1, n + 1):
        artifacts[f"member_{t}.dot"] = graphs.serialize(fam.member(t), "dot")
    artifacts["family.json"] = fam.to_json() + "\n"
    artifacts["components.json"] = _json_text(
        {str(t): cycles.components(fam.member(t)) for t in range(1, n + 1)}
    )
    return artifacts


def _preset_fig3() -> dict[str, str]:
    return _preset_cycle_graphs(6)


def _preset_fig4() -> dict[str, str]:
    rows = _periodicity_rows(6, 12)
    csv = "t_q,matrix_first_equal,unitary_first_equal\n" + "".join(
        f"{r['t_q']},{r['matrix_first_equal']},{r['unitary_first_equal']}\n" for r in rows
    )
    return {"periodicity.csv": csv, "periodicity.json": _json_text(rows)}


def _preset_fig5() -> dict[str, str]:
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
        "classification.json": _json_text(doc),
    }


def _preset_fig6() -> dict[str, str]:
    artifacts = _preset_cycle_graphs(7)
    rows = _periodicity_rows(7, 14)
    csv = "t_q,matrix_first_equal,unitary_first_equal\n" + "".join(
        f"{r['t_q']},{r['matrix_first_equal']},{r['unitary_first_equal']}\n" for r in rows
    )
    artifacts["periodicity.csv"] = csv
    artifacts["periodicity.json"] = _json_text(rows)
    return artifacts


def _preset_fig7() -> dict[str, str]:
    report = _rank_report(instances.symmetric_hub(), 1, 60,
                          dynamics.DEFAULT_TOL, dynamics.DEFAULT_MAX_ITER)
    return {"rank.json": _json_text(report)}


def _preset_fig9() -> dict[str, str]:
    g = instances.two_node_chain()
    p0 = ProbabilityVector(np.array([0.8, 0.2]))
    c = circuit_mod.build_circuit(g, p0, 1, 2)
    report = {
        "alpha": c.alpha,
        "theta0": c.theta0,
        "theta1": c.theta1,
        "block_deviation": circuit_mod.verify_block(g, 1),
    }
    return {
        "circuit.qasm": circuit_mod.export_openqasm(c),
        "gates.json": _gates_json(c),
        "verify.json": _json_text(report),
    }


def _preset_fig10() -> dict[str, str]:
    g = instances.two_node_chain()
    p0 = ProbabilityVector(np.array([0.8, 0.2]))
    fam = family_mod.build_family(g, 1, 3)
    artifacts = {"family.json": fam.to_json() + "\n"}
    for t in range(1, 4):
        artifacts[f"member_{t}.dot"] = graphs.serialize(fam.member(t), "dot")
        artifacts[f"evolve_tq{t}.csv"] = _evolve_csv(fam.member(t), p0, 30)
    return artifacts


_PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_fig5,
    "fig6": _preset_fig6,
    "fig7": _preset_fig7,
    "fig9": _preset_fig9,
    "fig10": _preset_fig10,
}


def _cmd_preset(opts: dict) -> tuple[int, dict[str, str]]:
    return 0, _PRESETS[opts["name"]]()


# --- option table -------------------------------------------------------------
# subcommand -> (handler, help, options); an option is (key, type, default,
# choices). The flag is "--" plus the key with "_" spelled "-"; the config-file
# and manifest key is the key itself. A None default is one the handler
# derives (and records) or, for the circuit's input, the built-in chain.

_REQUIRED = object()
_INPUT = ("input", str, _REQUIRED, None)
_FORMAT = ("format", str, "csv", ("csv", "json"))
_CLASS = ("class", int, 1, (1, 2))
_OUT = ("out", str, None, None)  # every subcommand's; not in the manifest

_COMMANDS = {
    "family": (_cmd_family, "walk family of an input graph",
               [_INPUT, _FORMAT, _CLASS, ("tq_max", int, 10, None)]),
    "cycle": (_cmd_cycle, "closed-form predictions vs the pipeline on the n-cycle",
              [("n", int, _REQUIRED, None), ("tq_max", int, None, None),
               ("tol", float, family_mod.MATRIX_TOL, None)]),
    "evolve": (_cmd_evolve, "classical time series under one family member",
               [_INPUT, _FORMAT, _CLASS, ("tq", int, 1, None), ("steps", int, 20, None),
                ("p0", list, None, None)]),
    "rank": (_cmd_rank, "averaged-limit node ranking over the family",
             [_INPUT, _FORMAT, _CLASS, ("tq_max", int, 20, None),
              ("tol", float, dynamics.DEFAULT_TOL, None),
              ("max_iter", int, dynamics.DEFAULT_MAX_ITER, None)]),
    "sample": (_cmd_sample, "seeded stochastic trajectories of one member",
               [_INPUT, _FORMAT, _CLASS, ("tq", int, 1, None), ("x0", int, 0, None),
                ("steps", int, 100, None), ("count", int, 1, None), ("seed", int, 0, None)]),
    "circuit": (_cmd_circuit, "two-node walk circuit: OpenQASM plus verification",
                [("input", str, None, None), _FORMAT, ("tq", int, 1, None), ("tc", int, 2, None),
                 ("p0", list, None, None), ("classical_control", bool, False, None)]),
    # ``corpus`` selects nothing (``random`` is its only value); it is accepted
    # only so that existing ``--corpus random`` command lines keep working
    "verify": (_cmd_verify, "full theorem/property suite with pass/fail summary",
               [("corpus", str, "random", ("random",)), ("count", int, 100, None),
                ("seed", int, 0, None)]),
    "preset": (_cmd_preset, "named data reproductions (fig3..fig10)",
               [("name", str, _REQUIRED, tuple(sorted(_PRESETS)))]),
}


if __name__ == "__main__":
    sys.exit(main())
