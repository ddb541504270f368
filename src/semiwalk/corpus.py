"""Seeded random matrix generators for verification suites and tests."""

from __future__ import annotations

import numpy as np

from .graphs import TransitionMatrix


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
    """Exactly symmetric doubly stochastic matrix via symmetric scaling.

    D A D iterations converge fast on strictly positive matrices; a final
    (A + A^T)/2 makes the symmetry exact in floating point.
    """
    a = rng.uniform(0.1, 1.0, (n, n))
    a = 0.5 * (a + a.T)
    for _ in range(max_rounds):
        sums = a.sum(axis=0)
        if np.abs(sums - 1.0).max() < tol:
            break
        d = 1.0 / np.sqrt(sums)
        a = a * d[:, None] * d[None, :]
    a = 0.5 * (a + a.T)
    return TransitionMatrix(a)


def random_circulant_symmetric(n: int, rng: np.random.Generator) -> TransitionMatrix:
    """Random circulant matrix with palindromic offsets: homogeneous and symmetric."""
    offsets = np.zeros(n)
    values = rng.uniform(0.1, 1.0, n // 2 + 1)
    offsets[0] = values[0]
    for k in range(1, n // 2 + 1):
        offsets[k] = values[k]
        offsets[n - k] = values[k]
    offsets /= offsets.sum()
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return TransitionMatrix(offsets[idx])


def random_stochastic_corpus(
    count: int, seed: int | np.random.SeedSequence, n_min: int = 2, n_max: int = 8
) -> list[TransitionMatrix]:
    """Deterministic corpus cycling through sizes n_min..n_max."""
    rng = rng_from_seed(seed)
    sizes = list(range(n_min, n_max + 1))
    return [random_stochastic(sizes[k % len(sizes)], rng) for k in range(count)]
