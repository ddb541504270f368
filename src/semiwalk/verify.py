"""The theorem and property suite behind ``semiwalk verify``.

Each check group is a function of its inputs (a corpus, a random generator,
or nothing for the paper's fixed instances) that returns its checks as
records ``{"name", "passed", "detail"}``. ``run_verification`` feeds all of
them from one seed; ``verify_artifacts`` makes its ``verify_report.json``.
"""

from __future__ import annotations

import numpy as np

from . import (circuit as circuit_mod, corpus, cycles, dynamics, family as family_mod, graphs, instances, presets,
               szegedy)
from .errors import TooLargeError
from .graphs import TransitionMatrix, _check_int, _chunks
from .szegedy import EdgeState, SzegedyOperator

# The most matrices one corpus may hold. The suite checks them as stacks,
# one per size and chunk: 10 000 took 0.7 s (1.4 s one matrix at a time) and
# 59 MB peak RSS on a 2-core host, and the cost grows linearly, so an
# uncapped count could exhaust memory.
MAX_COUNT = 10_000

# exact node-1 limits of the two-node chain's members t_q = 1, 2, 3
TWO_NODE_LIMITS = {1: 9 / 11, 2: 153 / 299, 3: 8 / 9}


def _record(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _below(name: str, value: float, tol: str, what: str = "max dev", fmt: str = ".2e") -> dict:
    """The check ``value < tol``, detailed as "<what> <value> (tol <tol>)"."""
    return _record(name, value < float(tol), f"{what} {value:{fmt}} (tol {tol})")


def run_verification(count: int = 100, seed: int = 0) -> list[dict]:
    """The whole suite: 17 checks on a corpus of ``count`` random matrices.

    The corpus and the three later random checks draw from independent
    streams spawned from ``seed``; the sampler check uses ``seed`` itself.
    """
    _check_int("count", count, 1)
    _check_int("seed", seed, 0)
    if count > MAX_COUNT:
        raise TooLargeError(f"count = {count} exceeds MAX_COUNT = {MAX_COUNT}")
    corpus_seq, unitarity_seq, uniform_seq, circulant_seq = np.random.SeedSequence(seed).spawn(4)
    mats = corpus.random_stochastic_corpus(count, corpus_seq)
    sizes = [3 + k % 8 for k in range(50)]
    return [
        *classical_limit_checks(mats),
        *unitarity_checks(mats, corpus.rng_from_seed(unitarity_seq)),
        *cycle_checks(range(3, 11)),
        *graph_breaking_checks(),
        *fixed_point_checks(corpus.rng_from_seed(uniform_seq), sizes),
        *homogeneous_symmetry_checks(corpus.rng_from_seed(circulant_seq), sizes),
        *two_node_checks(),
        *circuit_checks(),
        *sampler_checks(seed),
    ]


def verify_artifacts(count: int, seed: int) -> tuple[dict, dict[str, str]]:
    """verify_report.json: the count, the seed, the suite's checks and ``ok``, every check passed."""
    checks = run_verification(count, seed)
    report = {"count": count, "seed": seed, "checks": checks, "ok": all(c["passed"] for c in checks)}
    return report, {"verify_report.json": presets.json_text(report)}


def classical_limit_checks(mats: list[TransitionMatrix]) -> list[dict]:
    """Member 1 of class 1 is G (``unitarity_checks`` reads class 2's member 2 off U)."""
    fams = family_mod.build_families(mats, 1, 1)
    dev = max((float(np.abs(f.stack[0] - g.g).max()) for f, g in zip(fams, mats)), default=0.0)
    return [_below("classical-limit-I", dev, "1e-12")]


def unitarity_checks(mats: list[TransitionMatrix], rng: np.random.Generator) -> list[dict]:
    """On each matrix's dense U: register 2 of U^2 |psi_i> is G's column i
    (class 2's member 2); for one random state phi, register 2 of U phi is
    register 1 of phi (class 2 is class 1 one step later); U is unitary; and
    apply matches U. The states phi are drawn in input order; the operators
    are built and checked as one stack per size, in chunks of
    ``graphs.PHASE_BLOCK // 64`` entries (whole stacks peaked 14 times
    higher), each product one stacked matmul; ``apply``, the code under test,
    runs once per matrix."""
    amps = []
    for g in mats:
        amp = rng.normal(size=g.n * g.n) + 1j * rng.normal(size=g.n * g.n)
        amp /= np.linalg.norm(amp)
        amps.append(amp)
    dev_limit = dev_shift = dev_u = dev_mf = 0.0
    for ks in _chunks([g.n for g in mats], graphs.PHASE_BLOCK // 64, lambda n: n**4):
        n = mats[ks[0]].n
        g = np.stack([mats[k].g for k in ks])
        sqrt_g = np.sqrt(g)
        u = szegedy._dense(sqrt_g)
        proxies = (np.eye(n)[:, None, :] * sqrt_g[:, None, :, :]).reshape(-1, n * n, n)  # column i: |psi_i>
        reg2 = (np.abs(u @ (u @ proxies)) ** 2).reshape(-1, n, n, n).sum(axis=1)
        dev_limit = max(dev_limit, float(np.abs(reg2 - g).max()))
        dev_u = max(dev_u, float(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n * n)).max()))
        amp = np.stack([amps[k] for k in ks])
        u_amp = (u @ amp[:, :, None])[:, :, 0]
        for k, row in zip(ks, u_amp):
            dev_mf = max(dev_mf, float(np.abs(SzegedyOperator(mats[k]).apply(EdgeState(amps[k])).amp - row).max()))
        probs, u_probs = (np.abs(a.reshape(-1, n, n)) ** 2 for a in (amp, u_amp))
        dev_shift = max(dev_shift, float(np.abs(u_probs.sum(axis=-2) - probs.sum(axis=-1)).max()))
    return [_below("classical-limit-II", dev_limit, "1e-12"), _below("class-equivalence", dev_shift, "1e-12"),
            _below("unitarity", dev_u, "1e-10", "max |U+U - 1|"), _below("matrix-free-vs-dense", dev_mf, "1e-10")]


def cycle_checks(ns: range) -> list[dict]:
    """Each n-cycle family (t_q <= 2n) against its closed form, within the longest's bound, counts and periods."""
    reports = [presets.cycle_report(n, 2 * n, family_mod.MATRIX_TOL)[0] for n in ns]
    worst = max(r["closed_form_max_deviation"] for r in reports)
    predictions_ok = all(r["measured"] == r["predicted"] for r in reports)
    return [_below("cycle-closed-form", worst, presets.closed_form_bound(2 * max(ns))),
            _record("cycle-predictions", predictions_ok, f"counts and periods match for n={ns[0]}..{ns[-1]}")]


def graph_breaking_checks() -> list[dict]:
    """Components of 6-cycle members 2, 3, 6 and of 7-cycle member 2."""
    fam6 = family_mod.build_family(cycles.cycle_graph(6), 1, 6)
    fam7 = family_mod.build_family(cycles.cycle_graph(7), 1, 2)
    breaking_ok = (
        cycles.components(fam6.member(2)) == [[0, 2, 4], [1, 3, 5]]
        and cycles.components(fam6.member(3)) == [[0, 3], [1, 4], [2, 5]]
        and cycles.components(fam6.member(6)) == [[i] for i in range(6)]
        and cycles.components(fam7.member(2)) == [list(range(7))]
    )
    return [_record("graph-breaking", breaking_ok, "6-cycle triangles/pairs/singletons, 7-cycle chain")]


def fixed_point_checks(rng: np.random.Generator, sizes: list[int]) -> list[dict]:
    """On random symmetric inputs, G fixes the uniform vector and U the uniform superposition."""
    dev4 = dev5 = 0.0
    for g in corpus.random_symmetric_corpus(sizes, rng):
        uniform = np.full(g.n, 1.0 / g.n)
        dev4 = max(dev4, float(np.abs(g.g @ uniform - uniform).max()))
        op = SzegedyOperator(g)
        psi = op.uniform_superposition()
        dev5 = max(dev5, float(np.abs(op.apply(psi).amp - psi.amp).max()))
    return [_below("uniform-fixed-point", dev4, "1e-12"),
            _below("uniform-superposition-eigenvector", dev5, "1e-12")]


def homogeneous_symmetry_checks(rng: np.random.Generator, sizes: list[int]) -> list[dict]:
    """On random circulant symmetric inputs, members t_q <= 12 stay symmetric."""
    mats = corpus.random_circulant_corpus(sizes, rng)
    fams = family_mod.build_families(mats, 1, 12)
    dev_sym = max((dynamics.asymmetry(f.stack) for f in fams), default=0.0)
    return [_below("homogeneous-symmetry-preserved", dev_sym, "1e-9", "max asymmetry")]


def two_node_checks() -> list[dict]:
    """The paper's two-node series from (0.8, 0.2) and its members' exact limits."""
    g2 = instances.two_node_chain()
    series = [float(dynamics.evolve(g2, presets.EXPERIMENT_P0, t).p[1]) for t in range(3)]
    limits_ok = abs(series[0] - 0.2) < 1e-12 and abs(series[1] - 0.88) < 1e-12 and abs(series[2] - 0.812) < 1e-12
    worst_limit = 0.0
    for t_q, target in TWO_NODE_LIMITS.items():
        member = family_mod.semiclassical_matrix(g2, t_q, 1)
        res = dynamics.limiting_distribution(member)
        worst_limit = max(worst_limit, abs(float(res.distribution.p[1]) - target))
    return [_record("two-node-evolution", limits_ok, f"node-1 series {series}"),
            _below("two-node-limits", worst_limit, "1e-12", "max gap to exact limits")]


def circuit_checks() -> list[dict]:
    """The two-node circuit for t_q = 1, 2, 3 and t_c = 1: its angles, read
    off the first, and ``presets.circuit_report`` of each."""
    circuits = [circuit_mod.build_circuit(instances.two_node_chain(), presets.EXPERIMENT_P0, t, 1)
                for t in (1, 2, 3)]
    alpha, th0, th1 = circuits[0].alpha, circuits[0].theta0, circuits[0].theta1
    angles_ok = abs(alpha - 0.927) < 5e-4 and abs(th0 - 2.50) < 5e-3 and abs(th1 - 2.21) < 5e-3
    reports = [presets.circuit_report(c) for c in circuits]
    return [_record("circuit-angles", angles_ok, f"alpha={alpha:.4f} theta0={th0:.4f} theta1={th1:.4f}"),
            _below("circuit-block", max(r["block_deviation"] for r in reports), presets.BLOCK_BOUND),
            _below("circuit-channel", max(r["channel_deviation"] for r in reports), presets.CHANNEL_BOUND)]


def sampler_checks(seed: int) -> list[dict]:
    """One-step frequencies of 20000 samples from each two-node start against G."""
    g2 = instances.two_node_chain()
    worst_l1 = 0.0
    for x0 in range(2):
        nodes = dynamics.sample_trajectories(g2, x0, 1, seed, 20000)
        freq = np.bincount(nodes[:, 1], minlength=2) / len(nodes)
        worst_l1 = max(worst_l1, float(np.abs(freq - g2.g[:, x0]).sum()))
    return [_below("sampler-frequencies", worst_l1, "0.05", "max L1 gap", ".3f")]
