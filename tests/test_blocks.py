"""The one block rule: every pass over a stack takes its blocks from the two
budgets in ``graphs``, and none of its results depends on them."""

import json
import tracemalloc

import numpy as np
import pytest

import semiwalk as sw
from semiwalk import cycles, dynamics, family, graphs, presets, verify
from semiwalk.corpus import (random_circulant_corpus, random_stochastic, random_stochastic_corpus,
                             random_symmetric_corpus, rng_from_seed)
from semiwalk.errors import InsufficientRangeError


def _period(fam):
    try:
        return sw.family_period(fam)
    except InsufficientRangeError as e:
        return str(e)


def _passes() -> dict:
    """The result of every pass over a stack on a few small inputs, as bytes
    or plain values: members, periods and distinct counts; limits and rank;
    components, closed-form deviation and asymmetries; sampler and corpus."""
    rng = rng_from_seed(30)
    w = np.array([0.3, 0.6, 0.5, 0.2, 0.7, 0.4])  # a weighted 6-cycle: its odd members are periodic
    weighted = np.roll(np.diag(w), 1, axis=0) + np.roll(np.diag(1 - w), -1, axis=0)
    a, b, z = random_stochastic(3, rng).g, random_stochastic(3, rng).g, np.zeros((3, 3))
    inputs = {"random 5": random_stochastic(5, rng), "random 13": random_stochastic(13, rng),
              "hub": sw.symmetric_hub(), "cycle 9": sw.cycle_graph(9), "two-node": sw.two_node_chain(),
              "weighted 6-cycle": sw.TransitionMatrix(weighted),
              "two closed 3-blocks": sw.TransitionMatrix(np.block([[a, z], [z, b]]))}
    out = {}
    for name, g in inputs.items():
        out[name, "unitary period"] = sw.unitary_period(g, 40)
        out[name, "one member"] = sw.semiclassical_matrix(g, 17, 1).g.tobytes()
        out[name, "classify"] = graphs.classify(g)
        for c in (1, 2):
            fam = sw.build_family(g, c, 20)
            out[name, c, "members"] = fam.stack.tobytes()
            out[name, c, "periods"] = (_period(fam), sw.distinct_matrices(fam))
            x, *rest = dynamics._limits(fam.stack, sw.ProbabilityVector.uniform(g.n), dynamics.DEFAULT_TOL)
            out[name, c, "limits"] = (x.tobytes(), rest)
            out[name, c, "rank"] = presets.json_text(presets.rank_report(g, c, 20, dynamics.DEFAULT_TOL))
            out[name, c, "components"] = presets.member_components(fam, 20)
            out[name, c, "asymmetries"] = (graphs._asymmetries(fam.stack).tobytes(), sw.asymmetry(fam.stack))
        out[name, "sampler"] = sw.sample_trajectories(g, 1, 12, seed=8, count=30).tobytes()
    closed = cycles._cycle_member(9, np.arange(1, 19))
    out["closed-form deviation"] = cycles._closed_form_deviation(sw.build_family(inputs["cycle 9"], 1, 18).stack)
    out["closed-form components"] = cycles._components(closed)
    out["cycle report"] = json.dumps(presets.cycle_report(9, 18, family.MATRIX_TOL)[0], sort_keys=True)
    sizes = [3 + k % 8 for k in range(30)] + [1, 2, 20]
    out["corpus"] = [m.g.tobytes() for m in random_stochastic_corpus(40, 7)
                     + random_symmetric_corpus(sizes, rng_from_seed(1))
                     + random_circulant_corpus(sizes, rng_from_seed(2))]
    out["verify"] = verify.run_verification(count=30, seed=3)
    return out


@pytest.fixture(scope="module")
def default_passes():
    return _passes()


# (PHASE_BLOCK, STREAM_BLOCK): one item per block everywhere; a few items per
# block, so that blocks end inside a family and inside the corpus's sizes
@pytest.mark.parametrize("phase, stream", [(1, 1), (300, 100)])
def test_every_pass_gives_its_default_budget_bits_at_tiny_budgets(monkeypatch, default_passes, phase, stream):
    monkeypatch.setattr(graphs, "PHASE_BLOCK", phase)
    monkeypatch.setattr(graphs, "STREAM_BLOCK", stream)
    got = _passes()
    assert got.keys() == default_passes.keys()
    for key, want in default_passes.items():
        assert got[key] == want, key


def test_blocked_asymmetries_equal_the_whole_stack_formula():
    # each member alone, and the whole-stack formula, bit for bit; at N = 64
    # and 128 the stacks span several blocks
    rng = rng_from_seed(35)
    stacks = [sw.build_family(sw.symmetric_hub(), 1, 60).stack]
    stacks += [sw.build_family(random_stochastic(n, rng), 1, 20).stack for n in (32, 64, 128)]
    for stack in stacks:
        got = graphs._asymmetries(stack)
        assert got.tobytes() == np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2)).tobytes()
        assert got.tolist() == [sw.asymmetry(m) for m in stack]
        assert sw.asymmetry(stack) == float(np.abs(stack - np.swapaxes(stack, 1, 2)).max())
    assert graphs._asymmetries(np.zeros((0, 3, 3))).shape == (0,)


def test_rank_report_holds_a_few_mib_beyond_its_stack(monkeypatch):
    # N = 128, T = 1000: a 125 MiB stack, built before the trace; the two
    # full-stack temporaries of the asymmetries took the peak to 252 MiB
    # beyond it, and blocks of STREAM_BLOCK entries measured 3.4 MiB
    g = random_stochastic(128, rng_from_seed(5))
    fam = sw.build_family(g, 1, 1000)
    monkeypatch.setattr(family, "build_family", lambda *args: fam)
    tracemalloc.start()
    try:
        doc = presets.rank_report(g, 1, 1000, dynamics.DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(doc["asymmetries"]) == 1000
    assert peak <= 6 * 2**20
