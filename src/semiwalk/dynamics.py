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

Every limit comes from one stacked path, ``_limits``, which takes a
(T, N, N) stack of members ``graphs.STREAM_BLOCK`` entries at a time: one
batched residual of p0 picks out the members that already fix it, one
closure of the stack the strongly connected ones, which share one batched LU
solve, and only the members that need them get the SVD projector or a
period search.
``rank_family`` passes a family's stack and ``limiting_distribution`` a stack
of one, so a member's limit has the same bits either way.

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

from . import graphs
from .errors import DimensionMismatchError, IndexOutOfRangeError, RankFailedError, TooLargeError
from .graphs import (SUPPORT_TOL, ProbabilityVector, TransitionMatrix, _asymmetries, _blocks, _check_int,
                     _check_tol, _levels, _reach, _views, validate)
from .family import SemiclassicalFamily, build_family

CONVERGED = "converged"
CESARO = "cesaro"
FAILED = "failed"
# how limiting_distribution found x: one LU solve, one SVD, or p0 itself
SOLVE = "solve"
SVD = "svd"
FIXED = "fixed"
_METHODS = np.array([FIXED, SOLVE, SVD], dtype=object)
_PRODUCTS = np.array([1, 2, 2])  # products with G each method takes

DEFAULT_TOL = 1e-8
_EPS = np.finfo(float).eps
# A singular value of I - G counts as zero at or below
# NULL_C * N * eps * max(sigma_max, 1) + ||1^T (I - G)||_2. I - G is formed
# from entries of size one, so its rounding is about N * eps in norm even
# when every singular value is small (a slow chain); the second term is G's
# distance from an exactly stochastic matrix, whose null space is the one
# wanted (family members drift off unit column sums like t_q * eps, and
# faster next to D's lam = +-1 lines).
NULL_C = 8
# The most nodes one sample_trajectories batch may hold, count * (steps + 1):
# with its uniform draws that is about 16 bytes a node, 16 MB at the cap
# (and about 90 MB for the CSV that ``semiwalk sample`` formats from it).
MAX_SAMPLES = 1_000_000


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

    This is the one-member case of the stacked path ``rank_family`` takes
    (``_limits``): m is a stack of one, and x its one row.
    """
    if p0 is None:
        p0 = ProbabilityVector.uniform(m.n)
    x, modes, methods, residuals, iterations = _limits(m.g[None], p0, tol)
    return LimitResult(_views(ProbabilityVector, x)[0], modes[0], iterations[0], residuals[0], methods[0])


def _limits(stack: np.ndarray, p0: ProbabilityVector, tol: float):
    """The limit from p0 of each member of a (T, N, N) stack, each found as
    ``limiting_distribution`` finds it, with the same bits.

    Returns (x, modes, methods, residuals, iterations): x the read-only
    (T, N) array of the limits, checked once, and one list entry per member
    for the rest. The members are taken ``graphs.STREAM_BLOCK`` entries at a
    time. Per block: one batched residual of p0 finds the fixed members,
    whose row stays p0; one stacked closure ``_reach`` of the supports, a
    fixed member's read as complete; one batched LU solve for the strongly
    connected moving members; the SVD projector for the other moving ones;
    and ``_period`` only for the members with a node that has no edge to
    itself, as every other member is aperiodic.
    """
    _check_tol(tol)
    t, n = stack.shape[:2]
    if p0.n != n:
        raise DimensionMismatchError(f"p0 has n={p0.n}, matrix has n={n}")
    p = p0.p
    x = np.empty((t, n))
    x[:] = p  # every row starts as p0, the limit of a fixed member
    residual = np.empty(t)
    method = np.empty(t, dtype=np.intp)  # indexes _METHODS: 0 fixed, 1 solve, 2 svd
    periodic = {}  # member: (products beyond 2, whether its mode is Cesaro)
    for block in _blocks(t, n * n, graphs.STREAM_BLOCK):
        g, xb = stack[block], x[block]
        # p0 is a fixed point to rounding, so it is its own limit; a solve
        # would return it only to that rounding, and break p0's exact ties
        live = np.abs(g @ p - p).sum(axis=-1) > NULL_C * n * _EPS
        # edges[k, j, i]: i -> j; a fixed member reads as complete, so its
        # closure costs no product and it has no period to find
        edges = g > SUPPORT_TOL
        edges[~live] = True
        reach = _reach(edges)
        complete = reach.all(axis=(-2, -1))
        svd = live & ~complete
        np.add(live, svd, out=method[block], dtype=np.intp)
        solve = live & complete
        solve = slice(None) if solve.all() else solve.nonzero()[0]  # a slice copies nothing
        xb[solve] = _clipped(_stationary(g[solve]))
        for k in svd.nonzero()[0]:
            xb[k] = _clipped(_cesaro_limit(g[k], p))
        # a fixed member's row is p0, so this is its residual above
        residual[block] = np.abs((g @ xb[..., None])[..., 0] - xb).sum(axis=-1)
        for k in (~edges.diagonal(0, -2, -1).all(axis=-1)).nonzero()[0]:
            d = _period(edges[k], reach[k])
            if d > 1:
                # G^d has 1 as its only peripheral eigenvalue, so its iterates
                # from p0 converge; they tend to x exactly when p0 has no weight
                # on the other peripheral eigenvalues of G (G^d of a periodic
                # chain is reducible)
                y = _cesaro_limit(np.linalg.matrix_power(g[k], d), p)
                periodic[block.start + k] = (d.bit_length() + bin(d).count("1") - 2, np.abs(y - xb[k]).sum() > tol)
    x.setflags(write=False)
    validate(x.T)
    modes, products = [CONVERGED] * t, _PRODUCTS[method].tolist()
    for k, (extra, cesaro) in periodic.items():
        products[k] += extra
        if cesaro:
            modes[k] = CESARO
    for k in (residual > tol).nonzero()[0]:  # x is finite, and so is each residual
        if method[k]:  # a fixed p0 never fails
            modes[k] = FAILED
    return x, modes, _METHODS[method].tolist(), residual.tolist(), products


def _clipped(x: np.ndarray) -> np.ndarray:
    """x, or each row of x, clipped at 0 and renormalised, in place."""
    np.maximum(x, 0.0, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _stationary(g: np.ndarray) -> np.ndarray:
    """The stationary vector pi of each matrix of a (k, N, N) stack g with one
    closed class spanning all nodes, as a (k, N) array.

    ker(I - g) is then span{pi}, and the rows of I - g sum to zero, so the
    last row is a combination of the others: replacing it by 1^T leaves a
    nonsingular system whose solution with right-hand side e_N is pi. That
    right-hand side is one (1, N, 1) stack, broadcast over the k systems: a
    1-D or 2-D one would be read differently by numpy 1.x and 2.x.
    """
    eye = np.eye(g.shape[-1])[None]
    a = eye - g
    a[:, -1] = 1.0
    return np.linalg.solve(a, eye[..., -1:])[..., 0]


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
    cut = NULL_C * n * _EPS * max(s[0], 1.0) + np.linalg.norm(a.sum(axis=0))
    k = max(1, int((s <= cut).sum()))
    right, left = vt[-k:].T, u[:, -k:]
    return right @ np.linalg.solve(left.T @ right, left.T @ p)


def _period(edges: np.ndarray, reach: np.ndarray) -> int:
    """The lcm of the periods of the closed classes of the support digraph
    ``edges`` (edges[j, i]: i -> j), whose closure is ``reach``.

    A strong component is a closed class when everything reachable from it
    lies inside it. Its period is the gcd of level(i) + 1 - level(j) over its
    edges i -> j, with the levels of one breadth-first search from its lowest
    node, so an edge i -> i makes it aperiodic.
    """
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
    return float(_asymmetries(g.reshape((-1,) + g.shape[-2:])).max())


def rank_family(
    family: SemiclassicalFamily,
    tol: float = DEFAULT_TOL,
    p0: ProbabilityVector | None = None,
) -> RankingResult:
    """Average the members' limiting distributions and order the nodes.

    The limits are those of ``limiting_distribution``, bit for bit, taken
    over ``family.stack`` in one stacked pass (``_limits``) rather than one
    call per member. Ties in the final average break toward the lower node
    index so rankings are reproducible. Raises RankFailedError, naming the
    lowest such t_q, if a member's limit has a residual ||G x - x||_1 above
    ``tol``.

    Class 2 adds nothing: its member 1 is I, whose limit is p0, and member
    t + 1 is class-1 member t, so its average over T members is (p0 + (T - 1)
    avg_1(T - 1)) / T, which from a uniform p0 orders the nodes as avg_1(T - 1).
    """
    if p0 is None:
        p0 = ProbabilityVector.uniform(family.source.n)
    x, modes, methods, residuals, _ = _limits(family.stack, p0, tol)
    if FAILED in modes:
        t = modes.index(FAILED)
        raise RankFailedError(f"member t_q={t + 1} limit has residual {residuals[t]:.3e} > tol {tol:g}")
    running = np.cumsum(x, axis=0) / np.arange(1, len(x) + 1)[:, None]
    running.setflags(write=False)
    final = ProbabilityVector(running[-1])
    ordering = tuple(sorted(range(len(final.p)), key=lambda i: (-final.p[i], i)))
    return RankingResult(
        limits=tuple(_views(ProbabilityVector, x)),
        modes=tuple(modes),
        methods=tuple(methods),
        residuals=tuple(residuals),
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
    for rows in _blocks(count, m.n, graphs.PHASE_BLOCK):  # rows stepped together: (rows, N) temporaries
        for t in range(steps):
            nodes[rows, t + 1] = (u[rows, t, None] >= cdf[nodes[rows, t]]).argmin(axis=1)
    nodes.setflags(write=False)
    return nodes
