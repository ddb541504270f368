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
+ b_k^2 G[i, k]`` over k gives the class-1 members,

    s o alpha o alpha + 2 alpha o (D beta) + G (beta o beta),

which keep s (rather than 1) to agree with stepping ``SzegedyOperator.apply``
to rounding even when G's columns sum to 1 only within rounding. Class 2 is
class 1 one quantum step later: ``2 Pi - 1`` acts block by block on register
1, so it keeps register 1's distribution, and S moves that to register 2.
So class-2 member t + 1 is class-1 member t, and member 1 is I. For s off 1
(within ``STOCHASTIC_TOL``) this defines class 2, O(|s - 1|) from stepping U.

The recurrence runs on a ``(..., N, N)`` stack of inputs at once: s, D and
the coefficients carry the stack's leading axes, and every product is a
stacked ``matmul``, which numpy evaluates one N x N product at a time, so
each input's members are bitwise the ones it gets alone. ``build_family``
passes one matrix; ``build_families`` passes all inputs of one size N as one
stack. A family holds its members as one read-only ``(t_q_max, N, N)``
array, ``stack``, one row per step; each family checks its own stack once,
rather than once per member, and its members are views of the rows.
``semiclassical_matrix`` keeps one row: it steps to t_q and forms and checks
that member alone.

Two periods are computed. ``family_period`` compares the measured members;
``unitary_period`` asks when the walk operator itself returns to the
identity, read off U's eigenphases rather than dense powers of U. The same
lemma gives the phases: ``_eigenphases``, beside the member recurrence, reads
them off one eigendecomposition of D.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InsufficientRangeError, TooLargeError
from .graphs import TransitionMatrix, _check_int, _check_tol, _check_transition, _frozen_array, _views, serialize

MATRIX_TOL = 1e-9
# Cap on N^2 * t_q_max, the float64 entries a family holds (2**24 is 128 MiB);
# for a single member, on N^2 * t_q, which bounds the steps to it.
MAX_ENTRIES = 2**24
# Entries in each (k, N, N) amplitude grid _eigenphases forms at once (8 MB
# of float64): all N eigenvectors form one block up to N = 101, 16 at N = 256.
PHASE_BLOCK = 1 << 20


@dataclass(frozen=True, eq=False)
class SemiclassicalFamily:
    """Members indexed by quantum time, member(t_q) for t_q = 1..t_q_max.

    ``stack`` is one read-only (t_q_max, N, N) float64 array, member t_q in row
    t_q - 1, checked once as a TransitionMatrix checks itself; the first bad
    member raises its own error. ``members`` are unchecked views of the rows.
    A stack that is not read-only float64 memory already is copied first.
    """

    source: TransitionMatrix
    class_tag: int
    stack: np.ndarray
    members: tuple[TransitionMatrix, ...] = field(init=False)

    def __post_init__(self):
        _check_class(self.class_tag)
        stack = self.stack if _is_frozen(self.stack) else _frozen_array(self.stack, float)
        n = self.source.n
        if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1:] != (n, n):
            raise DimensionMismatchError(f"family stack must be (t_q_max >= 1, {n}, {n}), got {stack.shape}")
        _check_transition(stack)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "members", tuple(_views(TransitionMatrix, stack)))

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


def _is_frozen(a) -> bool:
    """Whether a is read-only float64 memory that no writable array shares:
    it and every array it views are read-only, down to one owning its data."""
    while isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


def semiclassical_matrix(g: TransitionMatrix, t_q: int, class_tag: int) -> TransitionMatrix:
    """Measurement statistics of t_q walk steps from every proxy state.

    Column i is the measured register's distribution of U^t_q |psi_i>,
    bitwise member t_q of :func:`build_family`. The recurrence steps to t_q
    (class 2 runs t_q - 1 steps; its member 1 is I) and forms that member
    only, so no other member is computed, kept or checked. ``MAX_ENTRIES``
    caps N^2 * t_q as it caps a family, which bounds the steps.
    """
    _check_family([g.n], class_tag, t_q)
    return TransitionMatrix(_member_stack(g.g, class_tag, range(t_q - 1, t_q))[0])


def build_family(g: TransitionMatrix, class_tag: int, t_q_max: int) -> SemiclassicalFamily:
    """Members for t_q = 1..t_q_max from the 2N-dimensional walk subspace.

    The N proxy states are advanced together as the coefficient matrices
    (alpha, beta) of ``U^t |psi_p> = A alpha[:, p] + S A beta[:, p]``, so each
    member costs two N x N products and no N^2 amplitudes are stored. Class 2
    runs t_q_max - 1 steps: its member 1 is I and its member t_q is class 1's
    member t_q - 1. Each entry is a sum of squares; rounding can leave it a
    few ulps below zero, so the family's ``stack`` is clipped at 0.

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
    return SemiclassicalFamily(g, class_tag, _member_stack(g.g, class_tag, range(t_q_max)))


def build_families(
    gs: list[TransitionMatrix], class_tag: int, t_q_max: int
) -> list[SemiclassicalFamily]:
    """``[build_family(g, class_tag, t_q_max) for g in gs]``, one stack per size.

    The inputs of one size N run through the recurrence as one (B, N, N)
    stack, so a corpus of small matrices costs a few numpy calls per size
    rather than per matrix. Each family's stack is its row of the resulting
    (B, t_q_max, N, N) array, bitwise the one ``build_family`` gives it; each
    family checks its own stack once, in input order, so the first bad input
    raises the error it raises alone. A stack above ``MAX_ENTRIES`` entries is
    split into chunks that fit, so any list whose members ``build_family``
    accepts one by one is accepted; a single input above the cap is a
    TooLargeError.
    """
    gs = list(gs)
    _check_family([g.n for g in gs], class_tag, t_q_max)
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(gs):
        groups.setdefault(g.n, []).append(k)
    stacks: dict[int, np.ndarray] = {}
    for n, ks in groups.items():
        per_chunk = MAX_ENTRIES // (n * n * t_q_max)
        for lo in range(0, len(ks), per_chunk):
            chunk = ks[lo:lo + per_chunk]
            stacks.update(zip(chunk, _member_stack(np.stack([gs[k].g for k in chunk]), class_tag, range(t_q_max))))
    return [SemiclassicalFamily(g, class_tag, stacks[k]) for k, g in enumerate(gs)]


def _check_class(class_tag) -> None:
    # a bool or a float equals 1 or 2 too, but is no class tag
    if isinstance(class_tag, bool) or not isinstance(class_tag, (int, np.integer)) or class_tag not in (1, 2):
        raise ValueError("class_tag must be 1 or 2")


def _check_family(sizes: list[int], class_tag: int, t_q_max: int) -> None:
    """The arguments of a family of each size N in ``sizes``, before anything
    is allocated."""
    _check_int("t_q_max", t_q_max)
    if t_q_max < 1:
        raise ValueError("t_q_max must be >= 1")
    _check_class(class_tag)
    for n in sizes:
        if n * n * t_q_max > MAX_ENTRIES:
            raise TooLargeError(f"N^2 * t_q_max = {n * n * t_q_max} entries exceeds MAX_ENTRIES = {MAX_ENTRIES}")


def _member_stack(g: np.ndarray, class_tag: int, rows: range) -> np.ndarray:
    """Members t_q = r + 1 for the rows r in ``rows``, a range of step 1, of
    each matrix of a (..., N, N) stack: one read-only (..., len(rows), N, N)
    array clipped at 0 (the recurrence of the module docstring). Class 2 is I,
    then class 1's members 1, 2, ... The recurrence steps to the last row and
    forms the kept rows' members only; a member's bits do not depend on which
    other rows are kept."""
    n = g.shape[-1]
    d = np.sqrt(g * np.swapaxes(g, -1, -2))
    s = g.sum(axis=-2)[..., :, None]
    scale = 2.0 * s - 1.0
    alpha, beta, d_beta = np.eye(n), np.zeros(g.shape), np.zeros(g.shape)
    stack = np.empty(g.shape[:-2] + (len(rows), n, n))
    if rows.start == 0:
        stack[..., 0, :, :] = alpha  # I, class 2's member 1; class 2's steps start a row later
    for t in range(class_tag - 1, rows.stop):
        alpha, beta = -beta, scale * alpha + 2.0 * d_beta
        d_beta = d @ beta
        if t >= rows.start:
            np.add(s * alpha * alpha + 2.0 * alpha * d_beta, g @ (beta * beta), out=stack[..., t - rows.start, :, :])
    np.maximum(stack, 0.0, out=stack)
    stack.setflags(write=False)
    return stack


def _eigenphases(g: np.ndarray) -> np.ndarray:
    """Eigenphases of U in [0, pi], each standing for the pair e^{+-i phase}.

    Szegedy's spectral lemma: with A x = sum_i x_i |psi_i>, each eigenpair
    (lam_k, x_k) of D = A^T S A = sqrt(G o G^T) spans a plane
    {A x_k, S A x_k} that U rotates by theta_k = arccos(lam_k), and the
    planes of orthonormal x_k are mutually orthogonal. theta_k is read as
    2 atan2(|b - b^T|, |b + b^T|) on the amplitude grid b = A x_k, which
    keeps full accuracy near lam = +-1 where arccos loses half the digits.
    Off the planes Pi = 0 and U = -S: phase pi on the swap-symmetric part,
    of dimension N(N-1)/2 + #{lam = -1}, so present for every N >= 2, and
    phase 0 on the antisymmetric part, which never affects a period and is
    left out.
    """
    n = g.shape[0]
    _, x = np.linalg.eigh(np.sqrt(g * g.T))
    sqrt_g = np.sqrt(g)
    theta = np.empty(n)
    step = max(1, PHASE_BLOCK // n**2)  # eigenvectors per block of grids
    for lo in range(0, n, step):
        b = x.T[lo:lo + step, :, None] * sqrt_g.T[None, :, :]  # b[k] = A x_k, N x N
        bt = b.transpose(0, 2, 1)
        theta[lo:lo + step] = 2.0 * np.arctan2(np.linalg.norm(b - bt, axis=(1, 2)),
                                               np.linalg.norm(b + bt, axis=(1, 2)))
    return np.append(theta, np.pi) if n >= 2 else theta


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
    _check_int("t_max", t_max)
    _check_tol(tol)
    theta = _eigenphases(g.g)
    for p in range(1, t_max + 1):
        if np.abs(np.exp(1j * p * theta) - 1.0).max() <= tol:
            return p
    return None
