"""Seeded random matrix generators for verification suites and tests."""

from __future__ import annotations

import numpy as np

from .graphs import TransitionMatrix, _circulant


def rng_from_seed(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """PCG64 stream; the single RNG used everywhere in this package."""
    return np.random.Generator(np.random.PCG64(seed))


def random_stochastic(n: int, rng: np.random.Generator) -> TransitionMatrix:
    """Dense column-stochastic matrix with uniform entries."""
    g = rng.random((n, n))
    return TransitionMatrix(g / g.sum(axis=0))


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
    positive matrices; the matrices of one size are scaled as one stack, and
    a matrix leaves it at the first round whose column sums lie within
    ``tol`` of 1. A final (A + A^T)/2 makes the symmetry exact in floating
    point.
    """
    drawn = [rng.uniform(0.1, 1.0, (n, n)) for n in sizes]
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    for ks in groups.values():
        a = np.stack([drawn[k] for k in ks])
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
        for k, m in zip(ks, a):
            drawn[k] = m
    return [TransitionMatrix(m) for m in drawn]


def random_circulant_symmetric(n: int, rng: np.random.Generator) -> TransitionMatrix:
    """Random circulant matrix with palindromic offsets: homogeneous and symmetric."""
    values = rng.uniform(0.1, 1.0, n // 2 + 1)
    k = np.arange(n)
    offsets = values[np.minimum(k, n - k)]
    offsets /= offsets.sum()
    return TransitionMatrix(_circulant(offsets))


def random_stochastic_corpus(count: int, seed: int | np.random.SeedSequence) -> list[TransitionMatrix]:
    """Deterministic corpus cycling through sizes 2..8."""
    rng = rng_from_seed(seed)
    return [random_stochastic(2 + k % 7, rng) for k in range(count)]
