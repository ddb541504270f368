"""Walk families over quantum time and their periodicities.

For each number of walk applications between measurements, ``t_q``, measuring
one register of ``U^t_q |psi_i>`` yields a column-stochastic matrix; the
ordered collection over ``t_q = 1..t_q_max`` is the walk family of the input
matrix. Class 1 measures the first register, class 2 the second. ``t_q = 0``
(the identity, no evolution at all) is not a walk and is never a member.

Members are computed without stepping N^2 amplitudes. Let ``A x = sum_i x_i
|psi_i>`` (amplitude grid ``(A x)[i, k] = x_i sqrt(G[k, i])``), so that ``(S A
x)[i, k] = x_k sqrt(G[i, k])``, and let ``s`` be G's column sums (1 for a
column-stochastic G). Then ``A^T A = diag(s)``, ``A^T S A = D = sqrt(G o G^T)``
and ``U = S (2 A A^T - 1)``, which gives

    U A a     = S A (2 s o a - a)
    U S A b   = 2 S A D b - A b

so span{A, SA} is invariant (Szegedy's spectral lemma) and, writing
``U^t |psi_p> = A alpha_t[:, p] + S A beta_t[:, p]`` for all N proxies at
once,

    alpha_0 = I,  beta_0 = 0,
    (alpha, beta) <- (-beta, (2 s - 1) o alpha + 2 D beta),

one N x N product per step (``s o alpha`` scales row i by s_i). Summing
``|(A a + S A b)[i, k]|^2 = a_i^2 G[k, i] + 2 a_i b_k sqrt(G[k, i] G[i, k])
+ b_k^2 G[i, k]`` over k (class 1) or over i (class 2) gives the members:

    class 1:  s o alpha o alpha + 2 alpha o (D beta) + G (beta o beta)
    class 2:  G (alpha o alpha) + 2 beta o (D alpha) + s o beta o beta

Keeping s (rather than 1) makes these identities exact for the operator as
applied, so members agree with stepping ``SzegedyOperator.apply`` to rounding
even when G's columns sum to 1 only within rounding.

The recurrence runs on a ``(..., N, N)`` stack of inputs at once: s, D and
the coefficients carry the stack's leading axes, and every product is a
stacked ``matmul``, which numpy evaluates one N x N product at a time, so
each input's members are bitwise the ones it gets alone. ``build_family``
passes one matrix; ``build_families`` passes all inputs of one size N as one
stack. A family's members are read-only views of one ``(t_q_max, N, N)``
block, one row per step, and each stack is checked once rather than once
per member.

Two periods are computed. ``family_period`` compares the measured members;
``unitary_period`` asks when the walk operator itself returns to the
identity, read off U's eigenphases rather than dense powers of U.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientRangeError, NegativeWeightError, NotStochasticError, TooLargeError
from .graphs import TransitionMatrix, _stacked_members, serialize
from .szegedy import SzegedyOperator

MATRIX_TOL = 1e-9
# Cap on N^2 * t_q_max, the float64 entries a family holds (2**24 is 128 MiB).
MAX_ENTRIES = 2**24


def _check_tol(tol: float) -> None:
    # "not tol > 0" rather than "tol <= 0", which is false for NaN
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")


@dataclass(frozen=True, eq=False)
class SemiclassicalFamily:
    """Members indexed by quantum time, member(t_q) for t_q = 1..t_q_max."""

    source: TransitionMatrix
    class_tag: int
    members: tuple[TransitionMatrix, ...]

    def __post_init__(self):
        if self.class_tag not in (1, 2):
            raise ValueError("class_tag must be 1 or 2")
        if not self.members:
            raise ValueError("a family needs at least one member")

    @property
    def t_q_max(self) -> int:
        return len(self.members)

    def member(self, t_q: int) -> TransitionMatrix:
        if not (1 <= t_q <= len(self.members)):
            raise IndexError(f"t_q={t_q} outside 1..{len(self.members)}")
        return self.members[t_q - 1]

    def to_json(self) -> str:
        """JSON array of {"t_q", "matrix_csv"} entries."""
        doc = [
            {"t_q": t + 1, "matrix_csv": serialize(m, "csv")}
            for t, m in enumerate(self.members)
        ]
        return json.dumps(doc)


def semiclassical_matrix(g: TransitionMatrix, t_q: int, class_tag: int) -> TransitionMatrix:
    """Measurement statistics of t_q walk steps from every proxy state.

    Column i is the distribution of the measured register of U^t_q |psi_i>;
    this is member t_q of :func:`build_family`, copied so that the family's
    other t_q - 1 members are not kept alive with it.
    """
    return TransitionMatrix(build_family(g, class_tag, t_q).member(t_q).g)


def build_family(g: TransitionMatrix, class_tag: int, t_q_max: int) -> SemiclassicalFamily:
    """Members for t_q = 1..t_q_max from the 2N-dimensional walk subspace.

    The N proxy states are advanced together as the coefficient matrices
    (alpha, beta) of ``U^t |psi_p> = A alpha[:, p] + S A beta[:, p]`` (see the
    module docstring), so each member costs two N x N products and no N^2
    amplitudes are stored. The members are written into one (t_q_max, N, N)
    array and are read-only views of its rows. Each entry is a sum of squares;
    rounding can leave it a few ulps below zero, so the array is clipped at 0.
    It is then checked once for the whole family, with the checks each
    TransitionMatrix makes; if it fails, the first bad member raises the error
    it would raise on its own.

    In planes where D has an eigenvalue lam = +-1 the coefficients grow
    linearly in t (A x = +-S A x there) while the state does not, so the
    rounding error of a member grows like t^2 * eps there. Two-node chains,
    which always have lam = 1, show 6e-13 at t_q = 60 and 2e-10 at t_q = 1000;
    from t_q = 1855 their column sums drift past the 1e-9 that ``validate``
    allows and the member is rejected with NotStochasticError. A family of
    more than ``MAX_ENTRIES`` entries, N^2 * t_q_max, is a TooLargeError
    before anything is allocated.
    """
    _check_family([g.n], class_tag, t_q_max)
    return SemiclassicalFamily(g, class_tag, _stacked_members(_member_stack(g.g, class_tag, t_q_max)))


def build_families(
    gs: list[TransitionMatrix], class_tag: int, t_q_max: int
) -> list[SemiclassicalFamily]:
    """``[build_family(g, class_tag, t_q_max) for g in gs]``, one stack per size.

    The inputs of one size N run through the recurrence as one (B, N, N)
    stack, and the resulting (B, t_q_max, N, N) members are checked once, so
    a corpus of small matrices costs a few numpy calls per size rather than
    per matrix. Each family's members are bitwise the ones ``build_family``
    gives it, and they are views of one stack that the size's other families
    share. A stack above ``MAX_ENTRIES`` entries is split into chunks that
    fit, so any list whose members ``build_family`` accepts one by one is
    accepted; a single input above the cap is a TooLargeError. If a stack
    fails its check, the first bad input raises the error it raises alone.
    """
    gs = list(gs)
    _check_family([g.n for g in gs], class_tag, t_q_max)
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(gs):
        groups.setdefault(g.n, []).append(k)
    members: list = [None] * len(gs)
    try:
        for n, ks in groups.items():
            per_chunk = MAX_ENTRIES // (n * n * t_q_max)
            for lo in range(0, len(ks), per_chunk):
                chunk = ks[lo:lo + per_chunk]
                stack = _member_stack(np.stack([gs[k].g for k in chunk]), class_tag, t_q_max)
                for k, family_members in zip(chunk, _stacked_members(stack)):
                    members[k] = family_members
    except (NegativeWeightError, NotStochasticError):
        for g in gs:  # in input order, alone: the first bad input raises
            _stacked_members(_member_stack(g.g, class_tag, t_q_max))
        raise
    return [SemiclassicalFamily(g, class_tag, m) for g, m in zip(gs, members)]


def _check_family(sizes: list[int], class_tag: int, t_q_max: int) -> None:
    """The arguments of a family of each size N in ``sizes``, before anything
    is allocated."""
    if t_q_max < 1:
        raise ValueError("t_q_max must be >= 1")
    if class_tag not in (1, 2):
        raise ValueError("class_tag must be 1 or 2")
    for n in sizes:
        if n * n * t_q_max > MAX_ENTRIES:
            raise TooLargeError(f"N^2 * t_q_max = {n * n * t_q_max} entries exceeds MAX_ENTRIES = {MAX_ENTRIES}")


def _member_stack(g: np.ndarray, class_tag: int, t_q_max: int) -> np.ndarray:
    """Members t_q = 1..t_q_max of each matrix of a (..., N, N) stack, as one
    (..., t_q_max, N, N) array clipped at 0 (the recurrence of the module
    docstring)."""
    n = g.shape[-1]
    d = np.sqrt(g * np.swapaxes(g, -1, -2))
    s = g.sum(axis=-2)[..., :, None]
    scale = 2.0 * s - 1.0
    alpha, beta, d_beta = np.eye(n), np.zeros(g.shape), np.zeros(g.shape)
    stack = np.empty(g.shape[:-2] + (t_q_max, n, n))
    for t in range(t_q_max):
        row = stack[..., t, :, :]
        alpha, beta, d_alpha = -beta, scale * alpha + 2.0 * d_beta, -d_beta
        d_beta = d @ beta
        if class_tag == 1:
            np.add(s * alpha * alpha + 2.0 * alpha * d_beta, g @ (beta * beta), out=row)
        else:
            np.add(g @ (alpha * alpha) + 2.0 * beta * d_alpha, s * beta * beta, out=row)
    np.maximum(stack, 0.0, out=stack)
    return stack


def family_period(f: SemiclassicalFamily, tol: float = MATRIX_TOL) -> int | None:
    """Smallest period of the member sequence, certified over two full cycles.

    A candidate p must match member(t_q + p) == member(t_q) for every t_q the
    range can witness; it is only certified when t_q_max >= 2p. Returns None
    when nothing matches, and raises InsufficientRangeError when a candidate
    matches but the range is too short to see it twice.
    """
    _check_tol(tol)
    mats = [m.g for m in f.members]
    length = len(mats)
    for p in range(1, length):
        if all(np.abs(mats[t] - mats[t + p]).max() <= tol for t in range(length - p)):
            if length >= 2 * p:
                return p
            raise InsufficientRangeError(
                f"candidate period {p} needs t_q_max >= {2 * p}, have {length}"
            )
    return None


def distinct_matrices(f: SemiclassicalFamily, tol: float = MATRIX_TOL) -> int:
    """Number of distinct members, over one period when the family is periodic.

    No t_q = 0 identity member exists, so the identity only counts when it
    genuinely occurs at some t_q >= 1 (as it does on cycles).
    """
    try:
        period = family_period(f, tol)
    except InsufficientRangeError:
        period = None
    pool = f.members[:period] if period else f.members
    reps: list[np.ndarray] = []
    for m in pool:
        if not any(np.abs(m.g - r).max() <= tol for r in reps):
            reps.append(m.g)
    return len(reps)


def unitary_period(g: TransitionMatrix, t_max: int, tol: float = MATRIX_TOL) -> int | None:
    """Smallest p <= t_max with U^p equal to the identity, or None.

    Reads U's eigenphases theta off the N x N matrix sqrt(G o G^T), one O(N^3)
    eigendecomposition, and returns the first p with max |e^{i p theta} - 1|
    <= tol. For the unitary U that maximum is the spectral norm of U^p - 1,
    which bounds every entry, so the test implies max |U^p - 1| <= tol
    entrywise. No dense operator is built, so there is no size cap.
    """
    _check_tol(tol)
    theta = SzegedyOperator(g)._eigenphases()
    for p in range(1, t_max + 1):
        if np.abs(np.exp(1j * p * theta) - 1.0).max() <= tol:
            return p
    return None
