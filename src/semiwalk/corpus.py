"""Seeded random matrix generators for verification suites and tests."""

from __future__ import annotations

import numpy as np

from . import graphs
from .errors import DimensionMismatchError
from .graphs import TransitionMatrix, _check_int, _checked_rows, _circulant, _views


def rng_from_seed(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """PCG64 stream; the single RNG used everywhere in this package."""
    return np.random.Generator(np.random.PCG64(seed))


def random_stochastic(n: int, rng: np.random.Generator) -> TransitionMatrix:
    """Dense column-stochastic matrix with uniform entries: one matrix of :func:`random_stochastic_corpus`."""
    _check_sizes([n])
    return _checked([rng.random((n, n))], normalise=True)[0]


def random_symmetric_stochastic(
    n: int, rng: np.random.Generator, tol: float = 1e-14, max_rounds: int = 1000
) -> TransitionMatrix:
    """Exactly symmetric doubly stochastic matrix via symmetric scaling; one
    matrix of :func:`random_symmetric_corpus`."""
    return random_symmetric_corpus([n], rng, tol, max_rounds)[0]


def random_symmetric_corpus(
    sizes: list[int], rng: np.random.Generator, tol: float = 1e-14, max_rounds: int = 1000
) -> list[TransitionMatrix]:
    """Exactly symmetric doubly stochastic matrices of the given sizes.

    Each matrix's uniform entries are drawn in input order, so the corpus
    takes the stream of one ``random_symmetric_stochastic`` call per size.
    D A D scaling rounds (Sinkhorn and Knopp, 1967) converge fast on strictly
    positive matrices. The matrices are scaled in one loop, as one stack
    padded to the largest size with identity blocks: a padded column sums to
    1, so its scale is 1 and no real entry sees it. Sizes far apart, whose
    padding would more than quadruple the entries, and stacks above
    ``graphs.PHASE_BLOCK`` entries are split into runs of increasing size, one loop
    each. A matrix leaves the stack at the first round whose column sums lie
    within ``tol`` of 1, the round it would leave it alone, so each matrix is
    bitwise the one that call gives. A final (A + A^T)/2 makes the symmetry
    exact in floating point. The matrices are checked once per size, as
    ``random_stochastic_corpus``'s are.
    """
    _check_sizes(sizes)
    drawn = [rng.uniform(0.1, 1.0, (n, n)) for n in sizes]
    for ks in _padded_runs(sizes):
        top = sizes[ks[-1]]
        a = np.broadcast_to(np.eye(top), (len(ks), top, top)).copy()
        for row, k in zip(a, ks):
            row[:sizes[k], :sizes[k]] = drawn[k]
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        live, work = np.arange(len(ks)), a  # the matrices still being scaled
        for _ in range(max_rounds):
            sums = work.sum(axis=-2)
            done = np.abs(sums - 1.0).max(axis=-1) < tol
            if done.any():
                a[live[done]] = work[done]
                live, work, sums = live[~done], work[~done], sums[~done]
                if not live.size:
                    break
            d = 1.0 / np.sqrt(sums)
            work = work * d[:, :, None] * d[:, None, :]
        else:
            a[live] = work
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        for row, k in zip(a, ks):
            drawn[k] = row[:sizes[k], :sizes[k]]
    return _checked(drawn)


def _padded_runs(sizes: list[int]) -> list[list[int]]:
    """The indices of ``sizes`` in order of increasing size, cut into runs
    whose stack, padded to the run's largest size, holds at most
    ``graphs.PHASE_BLOCK`` entries and at most four times its matrices' own."""
    runs, run, own = [], [], 0
    for k in sorted(range(len(sizes)), key=sizes.__getitem__):
        entries = sizes[k] ** 2
        if run and (len(run) + 1) * entries > min(graphs.PHASE_BLOCK, 4 * (own + entries)):
            runs.append(run)
            run, own = [], 0
        run.append(k)
        own += entries
    return runs + [run] if run else runs


def random_circulant_symmetric(n: int, rng: np.random.Generator) -> TransitionMatrix:
    """Random circulant matrix with palindromic offsets: homogeneous and
    symmetric; one matrix of :func:`random_circulant_corpus`."""
    return random_circulant_corpus([n], rng)[0]


def random_circulant_corpus(sizes: list[int], rng: np.random.Generator) -> list[TransitionMatrix]:
    """Random circulant symmetric matrices of the given sizes, each drawn in
    input order as one ``random_circulant_symmetric`` call draws it, checked
    once per size as ``random_stochastic_corpus``'s are."""
    _check_sizes(sizes)
    mats = []
    for n in sizes:
        values = rng.uniform(0.1, 1.0, n // 2 + 1)
        k = np.arange(n)
        offsets = values[np.minimum(k, n - k)]
        offsets /= offsets.sum()
        mats.append(_circulant(offsets))
    return _checked(mats)


def random_stochastic_corpus(count: int, seed: int | np.random.SeedSequence) -> list[TransitionMatrix]:
    """Deterministic corpus cycling through sizes 2..8, bitwise one
    ``random_stochastic`` call per matrix: each is drawn in input order from
    one stream, then each size's matrices are normalised and checked as one
    stack."""
    rng = rng_from_seed(seed)
    return _checked([rng.random((2 + k % 7, 2 + k % 7)) for k in range(count)], normalise=True)


def _check_sizes(sizes: list[int]) -> None:
    # before drawing: numpy fails in its own ways on a float, an empty or a
    # negative shape, and takes a bool for 0 or 1
    for n in sizes:
        _check_int("n", n)
    if any(n < 1 for n in sizes):
        raise DimensionMismatchError(f"a transition matrix needs n >= 1, got n={min(sizes)}")


def _checked(mats: list[np.ndarray], normalise: bool = False) -> list[TransitionMatrix]:
    """The matrices as TransitionMatrix views of one read-only stack per size
    (in chunks of ``graphs.PHASE_BLOCK`` entries), each stack checked once. With
    ``normalise`` each column is first divided by its sum."""
    def stack(ks):
        a = np.stack([mats[k] for k in ks])
        return a / a.sum(axis=-2, keepdims=True) if normalise else a

    return _views(TransitionMatrix, _checked_rows([len(m) for m in mats], graphs.PHASE_BLOCK, lambda n: n * n, stack))
