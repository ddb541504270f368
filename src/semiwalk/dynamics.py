"""Classical-time dynamics: evolution, limits, sampling, and node ranking.

Limiting distributions are found by iterating p <- G p. Chains that never
settle pointwise (bipartite structures, permutation-like family members)
instead settle into an exact limit cycle; the time average over one cycle is
the Cesaro limit and is reported with mode "cesaro". The raw running average
only closes in on that value like 1/t, far too slowly for tight tolerances,
so the implementation detects the cycle and averages over exactly one period
instead.

Node ranking follows the family-averaging scheme: for every quantum time the
member's limiting distribution is computed from a uniform start, and the
average over quantum times orders the nodes. Symmetric inputs make every
single limit uniform, but inhomogeneity breaks the members' symmetry and the
averaged limit becomes informative.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, RankFailedError
from .graphs import ProbabilityVector, TransitionMatrix
from .family import SemiclassicalFamily, _check_tol, build_family

CONVERGED = "converged"
CESARO = "cesaro"
FAILED = "failed"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class Trajectory:
    """A sampled node sequence; identical seeds reproduce it exactly."""

    seed: int
    nodes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LimitResult:
    distribution: ProbabilityVector
    mode: str
    iterations: int


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Per-quantum-time limits, their running averages, and the node order."""

    limits: tuple[ProbabilityVector, ...]
    modes: tuple[str, ...]
    running_averages: np.ndarray
    final_average: ProbabilityVector
    ordering: tuple[int, ...]


def evolve(m: TransitionMatrix, p0: ProbabilityVector, t: int) -> ProbabilityVector:
    """Distribution after t steps, by repeated matrix-vector products."""
    if p0.n != m.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={m.n}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = p0.p
    for _ in range(t):
        p = m.g @ p
    return ProbabilityVector(p)


def limiting_distribution(
    m: TransitionMatrix,
    p0: ProbabilityVector | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LimitResult:
    """Long-time distribution of the walk started from p0 (uniform by default).

    Modes: "converged" when the iterates settle pointwise, "cesaro" when they
    settle into a limit cycle (the cycle average is returned), "failed" when
    neither is certified within max_iter. Cycles up to max(64, 2N + 2) steps
    long are detected.
    """
    _check_tol(tol)
    if p0 is None:
        p0 = ProbabilityVector.uniform(m.n)
    elif p0.n != m.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={m.n}")
    p = p0.p
    recent: deque[np.ndarray] = deque(maxlen=max(64, 2 * m.n + 2))
    recent.append(p)
    for it in range(1, max_iter + 1):
        q = m.g @ p
        if np.abs(q - p).sum() < tol:
            return LimitResult(ProbabilityVector(q), CONVERGED, it)
        stack = np.asarray(recent)
        hits = np.flatnonzero(np.abs(stack - q).sum(axis=1) < tol)
        if hits.size:
            j = int(hits.max())  # largest index = shortest cycle
            cycle = list(recent)[j + 1:] + [q]
            avg = np.mean(cycle, axis=0)
            return LimitResult(ProbabilityVector(avg), CESARO, it)
        recent.append(q)
        p = q
    return LimitResult(ProbabilityVector(p), FAILED, max_iter)


def asymmetry(m: TransitionMatrix) -> float:
    """Largest entrywise gap between m and its transpose; 0 iff symmetric."""
    return float(np.abs(m.g - m.g.T).max())


def rank_family(
    family: SemiclassicalFamily,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p0: ProbabilityVector | None = None,
) -> RankingResult:
    """Average the members' limiting distributions and order the nodes.

    Ties in the final average break toward the lower node index so rankings
    are reproducible. Raises RankFailedError if any member fails to settle.
    """
    n = family.source.n
    if p0 is None:
        p0 = ProbabilityVector.uniform(n)
    limits = []
    modes = []
    for t, member in enumerate(family.members, start=1):
        res = limiting_distribution(member, p0, tol=tol, max_iter=max_iter)
        if res.mode == FAILED:
            raise RankFailedError(f"member t_q={t} did not settle in {max_iter} iterations")
        limits.append(res.distribution)
        modes.append(res.mode)
    stacked = np.stack([d.p for d in limits])
    running = np.cumsum(stacked, axis=0) / np.arange(1, len(limits) + 1)[:, None]
    running.setflags(write=False)
    final = ProbabilityVector(running[-1])
    ordering = tuple(sorted(range(n), key=lambda i: (-final.p[i], i)))
    return RankingResult(
        limits=tuple(limits),
        modes=tuple(modes),
        running_averages=running,
        final_average=final,
        ordering=ordering,
    )


def semiclassical_rank(
    g: TransitionMatrix,
    class_tag: int,
    t_q_max: int,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    p0: ProbabilityVector | None = None,
) -> RankingResult:
    """Build the family of g and rank its nodes by the averaged limit."""
    return rank_family(build_family(g, class_tag, t_q_max), tol=tol, max_iter=max_iter, p0=p0)


def sample_trajectory(m: TransitionMatrix, x0: int, steps: int, seed: int) -> Trajectory:
    """Sample x_0..x_steps with inverse-CDF draws from a PCG64 stream.

    The stream is fully determined by ``seed``, so identical seeds give
    identical trajectories regardless of scheduling.
    """
    if not (0 <= x0 < m.n):
        raise IndexOutOfRangeError(f"start node {x0} outside 0..{m.n - 1}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    cum = np.cumsum(m.g, axis=0)
    nodes = [x0]
    for _ in range(steps):
        u = rng.random()
        x = int(np.searchsorted(cum[:, nodes[-1]], u, side="right"))
        nodes.append(min(x, m.n - 1))
    return Trajectory(seed=seed, nodes=tuple(nodes))


def sample_trajectories(
    m: TransitionMatrix,
    x0: int,
    steps: int,
    seed: int,
    count: int,
) -> list[Trajectory]:
    """A reproducible batch; trajectory k uses the derived seed ``seed ^ k``."""
    return [sample_trajectory(m, x0, steps, seed ^ k) for k in range(count)]
