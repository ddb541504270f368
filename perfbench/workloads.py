"""The benchmark's four workloads: seeded inputs, fixed op lists and oracles.

Every op is a call into a public entry point: ``semiwalk.cli.main([...])``
in-process, or a library function looked up on the ``semiwalk`` package at
call time (so the tracer's wrappers see it). Each op carries an oracle that
judges its output; the oracles come from closed forms (cycles, two-state
chains) or from properties any correct output has (a limit is a fixed point
of its matrix). No oracle compares bytes: later changes may legitimately
move artifact values below 1e-8.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import semiwalk
from semiwalk import cli, corpus, cycles, instances

# Stated accuracy for a limit whose exact value is known (L1 distance).
LIMIT_L1 = 1e-6
# Closed-form members are exact rationals; the pipeline reproduces them to this.
MEMBER_TOL = 1e-12
# A stochastic vector or column sums to one within this.
SUM_TOL = 1e-9
TWO_STATE_RATES = (1e-2, 1e-3, 1e-4)
SLOW_CYCLES = (6, 7, 16, 33)
PERIOD_CYCLES = range(3, 25)
PERIOD_RANDOM_SIZES = (8, 16, 24)
SCALE_SIZES = (32, 64, 128)
SCALE_TQ_MAX = 20
PRESETS = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10")


@dataclass(frozen=True)
class Op:
    """One timed call; ``check`` returns None when the output meets its oracle."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmup: Op
    # Time goes mostly to numpy work on large arrays (N = 128 states, N^2 x N^2
    # products), which a slower host slows less than Python-level work.
    dense: bool = False


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the seeded inputs for one workload and return its op list."""
    return _BUILDERS[name](seed, workdir)


# --- helpers -----------------------------------------------------------------

def _cli_op(name: str, argv: list[str], out: Path, check: Callable[[Path], str | None]) -> Op:
    argv = [*argv, "--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    def verify(result):
        code, err = result
        if code != 0:
            return f"exit {code} {err.strip()[:160]}"
        return check(out)

    return Op(name, run, verify)


def _read_json(path: Path):
    return json.loads(path.read_text())


def _csv_matrix(text: str) -> np.ndarray:
    """Parse the package's CSV matrix format without calling the package."""
    rows = [ln for ln in text.splitlines()[1:] if ln.strip()]
    return np.array([[float(tok) for tok in ln.split(",")] for ln in rows])


def _is_distribution(p: np.ndarray) -> bool:
    return bool((p >= -SUM_TOL).all() and abs(float(p.sum()) - 1.0) <= SUM_TOL)


def _gap(measured, expected, what: str) -> str | None:
    return None if measured == expected else f"{what} {measured!r} != {expected!r}"


def _first_equal(mats: list[np.ndarray], t: int) -> int:
    return next(j for j in range(t + 1) if np.abs(mats[j] - mats[t]).max() <= MEMBER_TOL)


# --- paper-figures -------------------------------------------------------------

def _check_cycle_family(n: int):
    def check(out: Path):
        doc = _read_json(out / "family.json")
        dev = max(
            float(np.abs(_csv_matrix(e["matrix_csv"]) - cycles.cycle_semiclassical(n, e["t_q"]).g).max())
            for e in doc
        )
        if len(doc) != n or dev > MEMBER_TOL:
            return f"{len(doc)} members, closed-form dev {dev:.2e}"
        return None
    return check


def _check_periodicity(n: int):
    period = cycles.cycle_predictions(n).unitary_period

    def check(out: Path):
        rows = _read_json(out / "periodicity.json")
        mats = [np.eye(n)] + [cycles.cycle_semiclassical(n, t).g for t in range(1, len(rows))]
        for r in rows:
            t = r["t_q"]
            if r["unitary_first_equal"] != t % period or r["matrix_first_equal"] != _first_equal(mats, t):
                return f"periodicity row t_q={t} {r}"
        return None
    return check


def _check_fig5(out: Path):
    doc = _read_json(out / "classification.json")
    expected = {
        "asymmetric_homogeneous_ring": {"symmetric": False, "homogeneous": True},
        "symmetric_inhomogeneous_hub": {"symmetric": True, "homogeneous": False},
    }
    return _gap(doc, expected, "classification")


def _check_rank_report(doc: dict) -> str | None:
    final = np.array(doc["final_average"])
    if "failed" in doc["modes"] or not _is_distribution(final):
        return f"modes {set(doc['modes'])}, final sum {final.sum():.3e}"
    if list(doc["ordering"]) != sorted(range(final.size), key=lambda i: (-final[i], i)):
        return "ordering does not sort the final average"
    return None


def _check_fig7(out: Path):
    return _check_rank_report(_read_json(out / "rank.json"))


def _check_fig9(out: Path):
    doc = _read_json(out / "verify.json")
    if doc["block_deviation"] >= 1e-9 or abs(doc["alpha"] - 0.927) >= 5e-4:
        return f"block dev {doc['block_deviation']:.2e}, alpha {doc['alpha']:.4f}"
    return None


def _check_fig10(out: Path):
    # member(1) of class 1 is the input chain itself (classical limit I), whose
    # node-1 share evolves in closed form: pi + (p(0) - pi) * (-0.1)^t.
    pi1 = 9 / 11
    for t_q in (1, 2, 3):
        rows = (out / f"evolve_tq{t_q}.csv").read_text().splitlines()[1:]
        series = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        if not all(_is_distribution(p) for p in series):
            return f"evolve_tq{t_q}.csv has a row that is not a distribution"
        if t_q == 1:
            exact = pi1 + (0.2 - pi1) * (-0.1) ** np.arange(len(series))
            dev = float(np.abs(series[:, 1] - exact).max())
            if dev > MEMBER_TOL:
                return f"evolve_tq1 node-1 series off the closed form by {dev:.2e}"
    return None


_PRESET_CHECKS = {
    "fig3": _check_cycle_family(6),
    "fig4": _check_periodicity(6),
    "fig5": _check_fig5,
    "fig6": lambda out: _check_cycle_family(7)(out) or _check_periodicity(7)(out),
    "fig7": _check_fig7,
    "fig9": _check_fig9,
    "fig10": _check_fig10,
}


def _check_verify(out: Path):
    doc = _read_json(out / "verify_report.json")
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    return f"verify checks failed: {failed}" if failed or not doc["ok"] else None


def _check_cycle(n: int):
    pred = cycles.cycle_predictions(n)

    def check(out: Path):
        doc = _read_json(out / "cycle.json")
        expected = {
            "distinct_count": pred.distinct_count,
            "family_period": pred.family_period,
            "unitary_period": pred.unitary_period,
        }
        dev = doc["closed_form_max_deviation"]
        if dev > MEMBER_TOL:
            return f"closed-form dev {dev:.2e}"
        return _gap(doc["measured"], expected, "cycle counts")
    return check


def _check_circuit(out: Path):
    doc = _read_json(out / "verify.json")
    return None if doc["ok"] else f"circuit block dev {doc['block_deviation']:.2e}"


def _paper_figures(seed: int, workdir: Path) -> Workload:
    out = workdir / "out"
    ops = [_cli_op(f"preset {p}", ["preset", p], out / f"preset-{p}", _PRESET_CHECKS[p])
           for p in PRESETS]
    ops.append(_cli_op("verify", ["verify", "--count", "100", "--seed", str(seed)],
                       out / "verify", _check_verify))
    ops += [_cli_op(f"cycle n={k}", ["cycle", "--n", str(k)], out / f"cycle-{k}", _check_cycle(k))
            for k in range(3, 17)]
    ops += [_cli_op(f"circuit tq={t}", ["circuit", "--tq", str(t), "--tc", "20"],
                    out / f"circuit-{t}", _check_circuit)
            for t in (1, 2, 3)]
    warmup = _cli_op("warm-up preset fig5", ["preset", "fig5"], out / "warmup", _check_fig5)
    return Workload(tuple(ops), warmup)


# --- family-scale ----------------------------------------------------------------

def _check_family_json(g: np.ndarray):
    def check(out: Path):
        doc = _read_json(out / "family.json")
        first = _csv_matrix(doc[0]["matrix_csv"])
        dev = float(np.abs(first - g).max())
        if len(doc) != SCALE_TQ_MAX or doc[0]["t_q"] != 1 or dev > MEMBER_TOL:
            return f"{len(doc)} members, member(1) - G = {dev:.2e}"
        return None
    return check


def _check_rank(family_out: Path):
    # Each member's limit is a fixed point of that member (a Cesaro cycle
    # average is one too); the members come from the family op on the same input.
    def check(out: Path):
        doc = _read_json(out / "rank.json")
        bad = _check_rank_report(doc)
        if bad:
            return bad
        members = [_csv_matrix(e["matrix_csv"]) for e in _read_json(family_out / "family.json")]
        worst = max(
            float(np.abs(m @ np.array(p) - np.array(p)).sum())
            for m, p in zip(members, doc["limits"])
        )
        if len(doc["limits"]) != SCALE_TQ_MAX or worst > LIMIT_L1:
            return f"{len(doc['limits'])} limits, worst fixed-point residual {worst:.2e}"
        return None
    return check


def _family_scale(seed: int, workdir: Path) -> Workload:
    rng = corpus.rng_from_seed(seed)
    ops = []
    warmup = None
    for n in SCALE_SIZES:
        g = corpus.random_stochastic(n, rng)
        path = workdir / f"random-{n}.csv"
        path.write_text(semiwalk.serialize(g, "csv"))
        fam_out = workdir / "out" / f"family-{n}"
        base = ["--input", str(path), "--format", "csv", "--tq-max", str(SCALE_TQ_MAX)]
        ops.append(_cli_op(f"family N={n}", ["family", *base], fam_out, _check_family_json(g.g)))
        ops.append(_cli_op(f"rank N={n}", ["rank", *base], workdir / "out" / f"rank-{n}",
                           _check_rank(fam_out)))
        if warmup is None:
            warmup = _cli_op(f"warm-up family N={n}", ["family", *base], workdir / "out" / "warmup",
                             _check_family_json(g.g))
    return Workload(tuple(ops), warmup, dense=True)


# --- slow-mixing -------------------------------------------------------------------

def _limit_op(name: str, g, p0, exact: np.ndarray, **solver) -> Op:
    def run():
        return semiwalk.limiting_distribution(g, p0, **solver)

    def check(res):
        l1 = float(np.abs(res.distribution.p - exact).sum())
        if res.mode == "failed" or l1 > LIMIT_L1:
            return f"mode {res.mode} after {res.iterations} iterations, L1 {l1:.2e} > {LIMIT_L1:.0e}"
        return None

    return Op(name, run, check)


def _hub_rank_op(t_q_max: int) -> Op:
    hub = instances.symmetric_hub()
    members = [m.g for m in semiwalk.build_family(hub, 1, t_q_max).members]

    def run():
        return semiwalk.semiclassical_rank(hub, 1, t_q_max)

    def check(res):
        final = res.final_average.p
        if "failed" in res.modes or not _is_distribution(final):
            return f"modes {set(res.modes)}"
        worst = max(float(np.abs(m @ d.p - d.p).sum()) for m, d in zip(members, res.limits))
        if len(res.limits) != t_q_max or worst > LIMIT_L1:
            return f"worst fixed-point residual {worst:.2e}"
        return None

    return Op(f"semiclassical_rank hub tq_max={t_q_max}", run, check)


def _two_state_solver(a: float) -> dict:
    """Solver settings under which the answer must meet the stated accuracy.

    The solver stops when the step ||Gp - p||_1 drops below ``tol``, but its
    error is that step divided by the spectral gap, 4a here (ROADMAP item 3),
    so the default ``tol`` does not bound the error on a slow chain. Asking
    for half the accuracy times the gap does; ``max_iter`` is twice the steps
    the error (0.5 from node 0) needs to decay by (1 - 4a) per step to it.
    """
    gap = 4 * a
    return {"tol": LIMIT_L1 * gap / 2,
            "max_iter": math.ceil(2 * math.log(0.5 / LIMIT_L1) / gap)}


def _slow_mixing(seed: int, workdir: Path) -> Workload:
    rng = corpus.rng_from_seed(seed)
    ops = []
    for a in TWO_STATE_RATES:
        # The start stays node 0: the iteration count, and so the run time,
        # depends on it, and a seed must not change the work done.
        g = semiwalk.TransitionMatrix(np.array([[1 - a, 3 * a], [a, 1 - 3 * a]]))
        exact = np.array([3 * a, a]) / (4 * a)
        ops.append(_limit_op(f"limit two-state a={a:.0e}", g, semiwalk.ProbabilityVector.point_mass(2, 0),
                             exact, **_two_state_solver(a)))
    for n in SLOW_CYCLES:
        # Cycles are vertex-transitive: the seeded start changes no iteration count.
        x0 = int(rng.integers(n))
        ops.append(_limit_op(f"limit cycle n={n} x0={x0}", cycles.cycle_graph(n),
                             semiwalk.ProbabilityVector.point_mass(n, x0), np.full(n, 1.0 / n)))
    ops.append(_hub_rank_op(60))
    warmup = _limit_op("warm-up limit cycle n=6", cycles.cycle_graph(6),
                       semiwalk.ProbabilityVector.point_mass(6, 0), np.full(6, 1.0 / 6))
    return Workload(tuple(ops), warmup)


# --- periods ---------------------------------------------------------------------------

def _unitary_period_op(name: str, g, t_max: int, expected) -> Op:
    return Op(name, lambda: semiwalk.unitary_period(g, t_max),
              lambda p: _gap(p, expected, "unitary period"))


def _family_period_op(n: int) -> Op:
    g = cycles.cycle_graph(n)
    pred = cycles.cycle_predictions(n)

    def run():
        fam = semiwalk.build_family(g, 1, 2 * n)
        return semiwalk.family_period(fam), semiwalk.distinct_matrices(fam)

    return Op(f"family_period cycle n={n}", run,
              lambda res: _gap(res, (pred.family_period, pred.distinct_count), "(period, distinct)"))


def _periods(seed: int, workdir: Path) -> Workload:
    rng = corpus.rng_from_seed(seed)
    ops = []
    for n in PERIOD_CYCLES:
        ops.append(_unitary_period_op(f"unitary_period cycle n={n}", cycles.cycle_graph(n), 2 * n,
                                      cycles.cycle_predictions(n).unitary_period))
        ops.append(_family_period_op(n))
    for n in PERIOD_RANDOM_SIZES:
        # A dense random walk operator has no finite period within 2N steps.
        ops.append(_unitary_period_op(f"unitary_period random N={n}", corpus.random_stochastic(n, rng),
                                      2 * n, None))
    warmup = _unitary_period_op("warm-up unitary_period cycle n=3", cycles.cycle_graph(3), 6, 6)
    return Workload(tuple(ops), warmup, dense=True)


_BUILDERS = {
    "paper-figures": _paper_figures,
    "family-scale": _family_scale,
    "slow-mixing": _slow_mixing,
    "periods": _periods,
}
