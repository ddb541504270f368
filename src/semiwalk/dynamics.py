"""Classical-time dynamics: evolution, limits, sampling, and node ranking.

The long-time distribution of p <- G p is the Cesaro limit Pi p0, where Pi
is the spectral projector onto ker(I - G) along range(I - G) (Kemeny and
Snell, *Finite Markov Chains*, 1960; Meyer, *Matrix Analysis and Applied
Linear Algebra*, 2000, section 7.10). It is computed exactly instead of
being waited for, so a slow chain costs as much as a fast one, and the
answer carries a measured residual ||G x - x||_1. When G's support graph is
strongly connected, ker(I - G) is spanned by the stationary vector pi > 0,
so Pi p0 = pi for every p0 and one LU solve finds it. Otherwise one SVD of
I - G gives both null spaces and so Pi. The iterates converge to Pi p0
unless p0 has weight on a peripheral eigenvalue other than 1. Those
eigenvalues are roots of unity set by the periods of the closed classes, so
the class structure decides which of the two modes, "converged" or
"cesaro", applies. Both are read off the support graph's reachability
closure, ``graphs._reach``.

Node ranking follows the family-averaging scheme: for every quantum time the
member's limiting distribution is computed from a uniform start, and the
average over quantum times orders the nodes. Symmetric inputs make every
single limit uniform, but inhomogeneity breaks the members' symmetry and the
averaged limit becomes informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, RankFailedError, TooLargeError
from .graphs import (SUPPORT_TOL, ProbabilityVector, TransitionMatrix, _check_int, _check_tol, _levels,
                     _reach, validate)
from .family import SemiclassicalFamily, build_family

CONVERGED = "converged"
CESARO = "cesaro"
FAILED = "failed"
# how limiting_distribution found x: one LU solve, one SVD, or p0 itself
SOLVE = "solve"
SVD = "svd"
FIXED = "fixed"

DEFAULT_TOL = 1e-8
# A singular value of I - G counts as zero at or below
# NULL_C * N * eps * max(sigma_max, 1) + ||1^T (I - G)||_2. I - G is formed
# from entries of size one, so its rounding is about N * eps in norm even
# when every singular value is small (a slow chain); the second term is G's
# distance from an exactly stochastic matrix, whose null space is the one
# wanted (family members drift off unit column sums like t_q^2 * eps).
NULL_C = 8
# The most nodes one sample_trajectories batch may hold, count * (steps + 1):
# with its uniform draws that is about 16 bytes a node, 16 MB at the cap
# (and about 90 MB for the CSV that ``semiwalk sample`` formats from it).
MAX_SAMPLES = 1_000_000
# Entries in the (rows, N) comparison a sampler step makes at once (8 MB of
# gathered float64 cumulative sums).
SAMPLE_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class LimitResult:
    distribution: ProbabilityVector
    mode: str
    iterations: int  # products with G (or a power of G) the call took
    residual: float  # certified ||G x - x||_1 of the returned x
    method: str  # SOLVE, SVD or FIXED


@dataclass(frozen=True, eq=False)
class RankingResult:
    """Per-quantum-time limits, their running averages, and the node order."""

    limits: tuple[ProbabilityVector, ...]
    modes: tuple[str, ...]
    methods: tuple[str, ...]
    residuals: tuple[float, ...]
    running_averages: np.ndarray
    final_average: ProbabilityVector
    ordering: tuple[int, ...]


def evolve(m: TransitionMatrix, p0: ProbabilityVector, t: int) -> ProbabilityVector:
    """Distribution after t steps, by repeated matrix-vector products."""
    if p0.n != m.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={m.n}")
    _check_int("t", t, 0)
    p = p0.p
    for _ in range(t):
        p = m.g @ p
    return ProbabilityVector(p)


def _series(k: np.ndarray, p: np.ndarray, steps: int) -> np.ndarray:
    """The rows p, K p, ..., K^steps p as one read-only (steps + 1, N) array,
    checked once: each row, a column of its transpose, is a distribution."""
    series = np.empty((steps + 1, len(p)))
    series[0] = p
    for t in range(steps):
        series[t + 1] = k @ series[t]
    series.setflags(write=False)
    validate(series.T)
    return series


def limiting_distribution(
    m: TransitionMatrix,
    p0: ProbabilityVector | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> LimitResult:
    """Long-time distribution of the walk started from p0 (uniform by default).

    Returns x = Pi p0, the Cesaro limit (clipped at 0 and renormalised), with
    its residual ||G x - x||_1. When the support graph is strongly connected,
    Pi p0 = pi for every p0 and x comes from one LU solve ("solve");
    otherwise from one SVD of I - G ("svd"); a p0 that G already fixes is
    returned as it is ("fixed"). Modes: "failed" when the residual exceeds
    ``tol``; else "cesaro" when p0 has weight on a peripheral eigenvalue
    other than 1, so the iterates cycle and only their running average tends
    to x; else "converged". ``max_iter`` is accepted for callers of the
    earlier power iteration and ignored.
    """
    _check_tol(tol)
    if p0 is None:
        p0 = ProbabilityVector.uniform(m.n)
    elif p0.n != m.n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={m.n}")
    g = m.g
    residual = float(np.abs(g @ p0.p - p0.p).sum())
    if residual <= NULL_C * m.n * np.finfo(float).eps:
        # p0 is a fixed point to rounding, so it is its own limit; a solve
        # would return it only to that rounding, and break p0's exact ties
        return LimitResult(p0, CONVERGED, 1, residual, FIXED)
    edges = g > SUPPORT_TOL  # edges[j, i]: i -> j
    reach = _reach(edges)
    if reach.all():
        x, method = _stationary(g), SOLVE
    else:
        x, method = _cesaro_limit(g, p0.p), SVD
    x = np.maximum(x, 0.0)
    x /= x.sum()
    residual = float(np.abs(g @ x - x).sum())
    products = 2
    mode = CONVERGED
    d = _period(edges, reach)
    if d > 1:
        # G^d has 1 as its only peripheral eigenvalue, so its iterates from p0
        # converge; they tend to x exactly when p0 has no weight on the other
        # peripheral eigenvalues of G (G^d of a periodic chain is reducible)
        products += d.bit_length() + bin(d).count("1") - 2
        y = _cesaro_limit(np.linalg.matrix_power(g, d), p0.p)
        if np.abs(y - x).sum() > tol:
            mode = CESARO
    if not residual <= tol:
        mode = FAILED
    return LimitResult(ProbabilityVector(x), mode, products, residual, method)


def _stationary(g: np.ndarray) -> np.ndarray:
    """The stationary vector pi of a g with one closed class spanning all nodes.

    ker(I - g) is then span{pi}, and the rows of I - g sum to zero, so the
    last row is a combination of the others: replacing it by 1^T leaves a
    nonsingular system whose solution with right-hand side e_N is pi.
    """
    a = np.eye(len(g)) - g
    a[-1] = 1.0
    b = np.zeros(len(g))
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def _cesaro_limit(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pi p for the projector Pi onto ker(I - g) along range(I - g).

    With I - g = U S V^T and k the number of zero singular values (at least
    one: the columns of a stochastic g sum to one), K = V's and L = U's
    trailing k columns span the right and left null spaces, and
    Pi = K (L^T K)^-1 L^T. Returns Pi p.
    """
    n = len(g)
    a = np.eye(n) - g
    u, s, vt = np.linalg.svd(a)
    cut = NULL_C * n * np.finfo(float).eps * max(s[0], 1.0) + np.linalg.norm(a.sum(axis=0))
    k = max(1, int((s <= cut).sum()))
    right, left = vt[-k:].T, u[:, -k:]
    return right @ np.linalg.solve(left.T @ right, left.T @ p)


def _period(edges: np.ndarray, reach: np.ndarray) -> int:
    """The lcm of the periods of the closed classes of the support digraph
    ``edges`` (edges[j, i]: i -> j), whose closure is ``reach``.

    A strong component is a closed class when everything reachable from it
    lies inside it. Its period is the gcd of level(i) + 1 - level(j) over its
    edges i -> j, with the levels of one breadth-first search from its lowest
    node, so an edge i -> i makes it aperiodic; when every node has one
    (every dense member) there is nothing to search.
    """
    if np.diagonal(edges).all():
        return 1
    mutual = reach & reach.T  # column i: i's component
    # the lowest node of each component that reaches nothing outside itself
    roots = ~(reach > mutual).any(axis=0) & (mutual.argmax(axis=0) == np.arange(len(edges)))
    d = 1
    for root in np.flatnonzero(roots):
        cls = reach[:, root]
        to, fr = np.nonzero(edges[np.ix_(cls, cls)])
        lv = _levels(edges, root)[cls]
        d = math.lcm(d, int(np.gcd.reduce(lv[fr] + 1 - lv[to])))  # may pass int64
    return d


def asymmetry(m: TransitionMatrix | np.ndarray) -> float:
    """Largest entrywise gap between m and its transpose, over every matrix
    of a (..., N, N) array; 0 iff symmetric."""
    g = m.g if isinstance(m, TransitionMatrix) else np.asarray(m, dtype=float)
    return float(np.abs(g - np.swapaxes(g, -1, -2)).max())


def rank_family(
    family: SemiclassicalFamily,
    tol: float = DEFAULT_TOL,
    p0: ProbabilityVector | None = None,
) -> RankingResult:
    """Average the members' limiting distributions and order the nodes.

    Ties in the final average break toward the lower node index so rankings
    are reproducible. Raises RankFailedError if a member's limit has a
    residual ||G x - x||_1 above ``tol``.

    Class 2 adds nothing: its member 1 is I, whose limit is p0, and member
    t + 1 is class-1 member t, so its average over T members is (p0 + (T - 1)
    avg_1(T - 1)) / T, which from a uniform p0 orders the nodes as avg_1(T - 1).
    """
    n = family.source.n
    if p0 is None:
        p0 = ProbabilityVector.uniform(n)
    results = []
    for t, member in enumerate(family.members, start=1):
        res = limiting_distribution(member, p0, tol=tol)
        if res.mode == FAILED:
            raise RankFailedError(f"member t_q={t} limit has residual {res.residual:.3e} > tol {tol:g}")
        results.append(res)
    stacked = np.stack([r.distribution.p for r in results])
    running = np.cumsum(stacked, axis=0) / np.arange(1, len(results) + 1)[:, None]
    running.setflags(write=False)
    final = ProbabilityVector(running[-1])
    ordering = tuple(sorted(range(n), key=lambda i: (-final.p[i], i)))
    return RankingResult(
        limits=tuple(r.distribution for r in results),
        modes=tuple(r.mode for r in results),
        methods=tuple(r.method for r in results),
        residuals=tuple(r.residual for r in results),
        running_averages=running,
        final_average=final,
        ordering=ordering,
    )


def semiclassical_rank(
    g: TransitionMatrix,
    class_tag: int,
    t_q_max: int,
    tol: float = DEFAULT_TOL,
    p0: ProbabilityVector | None = None,
) -> RankingResult:
    """Build the family of g and rank its nodes by the averaged limit."""
    return rank_family(build_family(g, class_tag, t_q_max), tol=tol, p0=p0)


def sample_trajectories(m: TransitionMatrix, x0: int, steps: int, seed: int, count: int) -> np.ndarray:
    """``count`` trajectories x_0..x_steps from x0, as a read-only int64 array
    of shape (count, steps + 1).

    One PCG64 stream per batch: u = Generator(PCG64(seed)).random((count,
    steps)) is drawn in C order, so row k is the stream segment
    [k * steps, (k + 1) * steps) and depends only on (seed, steps, k). A
    larger ``count`` extends a smaller batch without changing its rows.

    Step t moves every row at once by inverse-CDF lookup in the current
    node's column: with c its cumulative sum, the next node is the first j
    with c[j] > u[k, t], reading c[N - 1] as +inf against rounding. That is
    searchsorted(c, u[k, t], side="right") capped at N - 1.
    """
    _check_int("x0", x0)
    if not (0 <= x0 < m.n):
        raise IndexOutOfRangeError(f"start node {x0} outside 0..{m.n - 1}")
    _check_int("count", count, 1)
    _check_int("steps", steps, 0)
    _check_int("seed", seed, 0)
    count, steps = int(count), int(steps)
    if count * (steps + 1) > MAX_SAMPLES:
        raise TooLargeError(f"count * (steps + 1) = {count * (steps + 1)} nodes "
                            f"exceeds MAX_SAMPLES = {MAX_SAMPLES}")
    u = np.random.Generator(np.random.PCG64(seed)).random((count, steps))
    cdf = np.cumsum(m.g, axis=0).T.copy()  # cdf[i]: cumulative sum of column i
    cdf[:, -1] = np.inf
    nodes = np.empty((count, steps + 1), dtype=np.int64)
    nodes[:, 0] = x0
    block = max(1, SAMPLE_BLOCK // m.n)  # rows stepped together, bounding the (rows, N) temporaries
    for lo in range(0, count, block):
        rows = slice(lo, lo + block)
        for t in range(steps):
            nodes[rows, t + 1] = (u[rows, t, None] >= cdf[nodes[rows, t]]).argmin(axis=1)
    nodes.setflags(write=False)
    return nodes
