"""Walk families over quantum time and their periodicities.

For each number of walk applications between measurements, ``t_q``, measuring
one register of ``U^t_q |psi_i>`` yields a column-stochastic matrix; the
ordered collection over ``t_q = 1..t_q_max`` is the walk family of the input
matrix. Class 1 measures the first register, class 2 the second. ``t_q = 0``
(the identity, no evolution at all) is not a walk and is never a member.

Members come in closed form from one eigendecomposition ``D = sqrt(G o G^T)
= X diag(cos theta) X^T``. Let ``A x = sum_i x_i |psi_i>`` (amplitude grid
``(A x)[i, k] = x_i sqrt(G[k, i])``). For a column-stochastic G, ``A^T A =
I``, ``A^T S A = D`` and ``U = S (2 A A^T - 1)``, so ``U A a = S A a`` and ``U
S A b = 2 S A D b - A b``: span{A, SA} is invariant (Szegedy's spectral
lemma), and ``U^t |psi_p> = A alpha_t[:, p] + S A beta_t[:, p]`` for all N
proxies at once, with Chebyshev's ``beta_t = X diag(sin(t theta) / sin
theta) X^T`` and ``alpha_t = -beta_{t-1}``. On D's lines lam = +-1 (theta =
0 or pi) ``A x = +-S A x``, so beta_t is 0 there and ``alpha_t = P_t -
beta_{t-1}``, with ``P_t = P_+ + (-1)^t P_-`` the projectors onto the lines.
Summing ``|(A a + S A b)[i, k]|^2 = a_i^2 G[k, i] + 2 a_i b_k sqrt(G[k, i]
G[i, k]) + b_k^2 G[i, k]`` over k, with ``alpha_t + 2 D beta_t = P_t +
beta_{t+1}``, gives the class-1 members

    (P_t - beta_{t-1}) o (P_t + beta_{t+1}) + G (beta_t o beta_t)

at the same cost for every t. On an input whose columns sum to 1 only within
``STOCHASTIC_TOL``, the members are those of D's spectrum, as if the sums
were 1. Class 2 is class 1 one quantum step later: ``2 Pi - 1`` keeps
register 1's distribution and S moves it to register 2, so class-2 member
t + 1 is class-1 member t, and member 1 is I.

The formula runs on a ``(..., N, N)`` stack of inputs at once, and every
product is a stacked ``matmul``, which numpy evaluates one N x N product at a
time, so each input's members are bitwise the ones it gets alone, whichever
other members are formed with them. ``build_families`` passes all inputs
of one size N and checks the resulting array once; ``build_family`` is its
one-input case. A family is one read-only ``(t_q_max, N, N)`` array,
``stack``, checked once; a member is a TransitionMatrix view of a row, made
when it is asked for. ``semiclassical_matrix`` forms and checks one member.

Two periods are computed. ``family_period`` compares the measured members,
on their column 0 first and in full only where that matches, a block of
member pairs at a time; ``distinct_matrices`` finds the earlier members it
must compare from one sort of a weighted sum of each column 0, with a margin
proven to miss no pair within tol; ``unitary_period`` asks when the walk
operator itself returns to the identity, read off U's eigenphases
(``_spectrum``, as the members are) rather than dense powers of U, a block of
powers at a time. They take a few numpy calls per block, not one per power
or member (``distinct_matrices`` compares only the pairs its key windows
hold), and give the answers of comparing one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import DimensionMismatchError, IndexOutOfRangeError, InsufficientRangeError, TooLargeError
from .graphs import (TransitionMatrix, _blocks, _check_int, _check_tol, _check_transition, _checked_rows,
                     _csv_texts, _frozen_array, _unchecked, _views)

MATRIX_TOL = 1e-9
# Cap on N^2 * t_q_max, the float64 entries a family holds (2**24 is 128 MiB at
# any N); for one member, on N^2 * t_q, which bounds the rounding of t_q theta.
MAX_ENTRIES = 2**24
# theta within this of 0 or pi is an eigenvalue lam = +-1 of D
LINE_TOL = 1e-12
# phi = (sqrt 5 - 1) / 2, for distinct_matrices' key weights
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True, eq=False)
class SemiclassicalFamily:
    """Members indexed by quantum time, member(t_q) for t_q = 1..t_q_max.

    The family is its ``stack``: one read-only (t_q_max, N, N) float64 array,
    member t_q in row t_q - 1, copied and checked once as a TransitionMatrix
    copies and checks itself; the first bad member raises its own error.
    ``member(t_q)`` and ``members`` wrap rows as unchecked views.
    """

    source: TransitionMatrix
    class_tag: int
    stack: np.ndarray

    def __post_init__(self):
        _check_class(self.class_tag)
        stack = _frozen_array(self.stack, float)
        n = self.source.n
        if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1:] != (n, n):
            raise DimensionMismatchError(f"family stack must be (t_q_max >= 1, {n}, {n}), got {stack.shape}")
        _check_transition(stack)
        object.__setattr__(self, "stack", stack)

    @property
    def t_q_max(self) -> int:
        return len(self.stack)

    @property
    def members(self) -> tuple[TransitionMatrix, ...]:
        """Every member, one view of a row each, made anew on each access: a
        tuple of t_q_max objects. For one member, use :meth:`member`."""
        return tuple(_views(TransitionMatrix, self.stack))

    def member(self, t_q: int) -> TransitionMatrix:
        _check_int("t_q", t_q)
        if not (1 <= t_q <= len(self.stack)):
            raise IndexOutOfRangeError(f"t_q={t_q} outside 1..{len(self.stack)}")
        return _unchecked(TransitionMatrix, {"g": self.stack[t_q - 1]})

    def to_json(self) -> str:
        """JSON array of {"t_q", "matrix_csv"} entries: the chunks of
        :meth:`json_chunks` joined and decoded."""
        return b"".join(self.json_chunks()).decode("ascii")

    def json_chunks(self):
        """The ASCII bytes of :meth:`to_json`, one member per chunk, then the
        closing bracket, so the whole text need never be held at once.
        Member t_q's chunk is ``json.dumps({"t_q": t_q, "matrix_csv": csv})``
        with csv the member's ``serialize(..., "csv")``: a CSV needs no JSON
        escape but its newlines, so its lines end with an escaped one.
        The rows are formatted a block at a time."""
        for t, pieces in enumerate(_csv_texts(self.stack, b"\\n"), start=1):
            head = b'%s{"t_q": %d, "matrix_csv": "' % (b"[" if t == 1 else b", ", t)
            yield b"".join([head, *pieces, b'"}'])
        yield b"]"


def semiclassical_matrix(g: TransitionMatrix, t_q: int, class_tag: int) -> TransitionMatrix:
    """Measurement statistics of t_q walk steps from every proxy state.

    Column i is the measured register's distribution of U^t_q |psi_i>,
    bitwise member t_q of :func:`build_family`. Only that member is formed and
    checked, at the same cost for every t_q. ``MAX_ENTRIES`` caps N^2 * t_q as
    it caps a family, which bounds the rounding of the phases t_q theta.
    """
    _check_family([g.n], class_tag, t_q, "t_q")
    return TransitionMatrix(_member_stack(g.g, class_tag, range(t_q - 1, t_q))[0])


def build_family(g: TransitionMatrix, class_tag: int, t_q_max: int) -> SemiclassicalFamily:
    """Members for t_q = 1..t_q_max from the 2N-dimensional walk subspace.

    Each member costs two N x N products after one eigendecomposition of D,
    and no N^2 amplitudes are stored. Each entry is a sum of squares; rounding
    can leave it a few ulps below zero, so the family's ``stack`` is clipped
    at 0. A family of more than ``MAX_ENTRIES`` entries, N^2 * t_q_max, is a
    TooLargeError before anything is allocated. The one-input case of
    :func:`build_families`."""
    return _families([g], class_tag, t_q_max)[0]


def build_families(gs: list[TransitionMatrix], class_tag: int, t_q_max: int) -> list[SemiclassicalFamily]:
    """``[build_family(g, class_tag, t_q_max) for g in gs]``, one stack per size.

    The inputs of one size N run as one (B, N, N) stack, a few numpy calls per
    size rather than per matrix. Each family's stack is its row of the
    resulting (B, t_q_max, N, N) array, bitwise the one ``build_family`` gives
    it. Each array is checked once, as a whole; if one fails, the first bad
    input in input order raises its own error. A stack above ``MAX_ENTRIES``
    entries is split into chunks that fit; one input above it is a
    TooLargeError.
    """
    return _families(list(gs), class_tag, t_q_max)


def _families(gs: list[TransitionMatrix], class_tag: int, t_q_max: int) -> list[SemiclassicalFamily]:
    """The body of both builders: each chunk's member stack is checked once; its rows' families are not."""
    sizes = [g.n for g in gs]
    _check_family(sizes, class_tag, t_q_max)
    stacks = _checked_rows(sizes, MAX_ENTRIES, lambda n: n * n * t_q_max, lambda ks: _member_stack(
        np.array([gs[k].g for k in ks]), class_tag, range(t_q_max)))
    return [_unchecked(SemiclassicalFamily, {"source": g, "class_tag": class_tag, "stack": stack})
            for g, stack in zip(gs, stacks)]


def _check_class(class_tag) -> None:
    # a bool or a float equals 1 or 2 too, but is no class tag
    if isinstance(class_tag, bool) or not isinstance(class_tag, (int, np.integer)) or class_tag not in (1, 2):
        raise ValueError("class_tag must be 1 or 2")


def _check_family(sizes: list[int], class_tag: int, t_q_max: int, name: str = "t_q_max") -> None:
    """The arguments of a family of each size N in ``sizes``, before anything
    is allocated; the errors call t_q_max ``name``, the caller's argument."""
    _check_int(name, t_q_max)
    if t_q_max < 1:
        raise ValueError(f"{name} must be >= 1")
    _check_class(class_tag)
    for n in sizes:
        if n * n * t_q_max > MAX_ENTRIES:
            raise TooLargeError(f"N^2 * {name} = {n * n * t_q_max} entries exceeds MAX_ENTRIES = {MAX_ENTRIES}")


def _member_stack(g: np.ndarray, class_tag: int, rows: range) -> np.ndarray:
    """Members t_q = r + 1 for the rows r in ``rows``, a range of step 1, of
    each matrix of a (..., N, N) stack: one read-only (..., len(rows), N, N)
    array clipped at 0 (the module docstring's formula; class 2 is I, then
    class 1's members), formed in blocks of about ``graphs.PHASE_BLOCK``
    entries with a fixed number of numpy calls each. A member's bits do not
    depend on which other rows are kept."""
    n = g.shape[-1]
    theta, x = _spectrum(g)
    plus, minus = theta < LINE_TOL, theta > np.pi - LINE_TOL
    line = plus | minus
    sin = np.where(line, 1.0, np.sin(theta))
    parity = np.stack([line, 1.0 * plus - minus], axis=-2)  # P_t = X diag(parity[t % 2]) X^T
    xt = np.swapaxes(x, -1, -2)[..., None, :, :]
    stack = np.empty(g.shape[:-2] + (len(rows), n, n))
    if class_tag == 2 and rows.start == 0:
        stack[..., 0, :, :] = np.eye(n)  # I, class 2's member 1
    mats = None  # one block's X diag(c) X^T, sized by the first, largest block
    for b in _blocks(len(rows), theta.size * n, graphs.PHASE_BLOCK, max(0, class_tag - 1 - rows.start)):
        t, k = rows.start + b.start + 2 - class_tag, b.stop - b.start  # t: class-1 time of the block's first row
        if mats is None:
            mats = np.empty(g.shape[:-2] + (k + 4, n, n))
        ts = np.arange(t - 1, t + k + 1)[:, None] * theta[..., None, :]  # (t - 1 .. t + k) theta
        d = np.where(line[..., None, :], 0.0, np.sin(ts) / sin[..., None, :])
        np.matmul(x[..., None, :, :] * np.concatenate([d, parity], axis=-2)[..., None, :], xt,
                  out=mats[..., :k + 4, :, :])
        beta = mats[..., :k + 2, :, :]  # beta_{t-1} .. beta_{t+k}
        out = stack[..., b, :, :]
        np.matmul(g[..., None, :, :], np.square(beta[..., 1:-1, :, :]), out=out)
        for j in range(min(2, k)):  # the members of one parity of t
            p = mats[..., k + 2 + (t + j) % 2, None, :, :]
            out[..., j::2, :, :] += (p - beta[..., j:k:2, :, :]) * (p + beta[..., j + 2::2, :, :])
    np.maximum(stack, 0.0, out=stack)
    stack.setflags(write=False)
    return stack


def _spectrum(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """theta and X of D = X diag(cos theta) X^T, one ``eigh`` per matrix of a
    (..., N, N) stack. Each eigenpair (lam_k, x_k) spans a plane {A x_k, S A
    x_k} that U rotates by theta_k = arccos(lam_k). Where |lam| > 1/2, the
    only range where arccos loses digits (half of them at lam = +-1), theta_k
    is 2 atan2(|b - b^T|, |b + b^T|) on the grid b = A x_k, in blocks of
    ``graphs.PHASE_BLOCK`` entries."""
    n = g.shape[-1]
    lam, x = np.linalg.eigh(np.sqrt(g * np.swapaxes(g, -1, -2)))
    theta = np.arccos(np.clip(lam, -1.0, 1.0))
    mats, ks = np.nonzero(np.abs(lam.reshape(-1, n)) > 0.5)
    sqrt_gt = np.sqrt(np.swapaxes(g, -1, -2)).reshape(-1, n, n)
    vecs = x.reshape(-1, n, n)
    for block in _blocks(len(ks), n * n, graphs.PHASE_BLOCK):  # eigenvectors per block of grids
        m, k = mats[block], ks[block]
        b = sqrt_gt[m]
        b *= vecs[m, :, k][:, :, None]  # b[j] = A x_k of matrix m, N x N
        bt = b.transpose(0, 2, 1)
        theta.reshape(-1, n)[m, k] = 2.0 * np.arctan2(np.linalg.norm(b - bt, axis=(1, 2)),
                                                      np.linalg.norm(b + bt, axis=(1, 2)))
    return theta, x


def _eigenphases(g: np.ndarray) -> np.ndarray:
    """Eigenphases of U in [0, pi], each standing for the pair e^{+-i phase}:
    the planes' theta, and pi. Off the planes U = -S: phase pi on the
    swap-symmetric part, present for every N >= 2, and phase 0 on the
    antisymmetric part, which never affects a period and is left out."""
    theta = _spectrum(g)[0]
    return np.append(theta, np.pi) if g.shape[-1] >= 2 else theta


def family_period(f: SemiclassicalFamily, tol: float = MATRIX_TOL) -> int | None:
    """Smallest period of the member sequence, certified over two full cycles.

    A candidate p must match member(t_q + p) == member(t_q) for every t_q the
    range can witness; it is only certified when t_q_max >= 2p. Returns None
    when nothing matches, and raises InsufficientRangeError when a candidate
    matches but the range is too short to see it twice. Members are first
    compared on their column 0, never farther apart than they are: one
    reduction finds the candidates p whose member 1 + p is near member 1 by
    it, and only those are compared, on the sketch and then in full, a block
    of ``graphs.STREAM_BLOCK`` entries of member pairs at a time: a block's
    max is at most tol exactly when every member's is.
    """
    _check_tol(tol)
    stack = f.stack
    cols, length = np.ascontiguousarray(stack[:, :, 0]), len(stack)
    near_first = np.abs(cols[1:] - cols[0]).max(axis=1) <= tol  # candidate p at index p - 1
    for p in (np.flatnonzero(near_first) + 1).tolist():
        if np.abs(cols[p:] - cols[:-p]).max() <= tol and all(
                np.abs(stack[b.start + p:b.stop + p] - stack[b]).max() <= tol
                for b in _blocks(length - p, stack[0].size, graphs.STREAM_BLOCK)):
            if length >= 2 * p:
                return p
            raise InsufficientRangeError(
                f"candidate period {p} needs t_q_max >= {2 * p}, have {length}"
            )
    return None


def distinct_matrices(f: SemiclassicalFamily, tol: float = MATRIX_TOL) -> int:
    """Number of distinct members, over one period when the family is periodic.

    No t_q = 0 identity member exists, so the identity only counts when it
    genuinely occurs at some t_q >= 1 (as it does on cycles). Members are
    taken in order; a member is a new representative unless it lies within
    ``tol`` of an earlier representative, compared on column 0 first and then
    in full, as ``family_period`` compares candidates.

    The earlier members to compare come from one sort of column-0 keys
    (``_key_windows``). Member t's column c_t >= 0 has the key k_t = c_t . w,
    with the fixed weights w_i = 1 + frac(i^2 phi) in [1, 2). Its window is
    every member whose computed key lies within ``margin = W tol + 8 (N + 1)
    eps (W tol + K)`` of its own, W = sum w and K the largest computed key.
    No pair within tol on column 0 is missed. With u = eps / 2 and g = N u /
    (1 - N u):

    - exactly, |k_t - k_s| <= sum w_i |c_t,i - c_s,i| <= W tol;
    - a dot product of N nonnegative terms, computed in floats in any order,
      lies within g k_t of k_t; k_t <= 2 s_t for the column sum s_t, as w_i <
      2, and s_t <= k_t <= K / (1 - g), as w_i >= 1, so K bounds every
      column-0 sum;
    - so the computed keys of the pair lie within W tol + 2 g K / (1 - g),
      about W tol + N eps K, of each other;
    - the margin's second term, 16 (N + 1) u (W tol + K), covers N eps K and
      the rounding of W, of W tol, of the margin and of the window ends
      k_t -+ margin, together below (N + 3) u (W tol + K).

    Members are decided a block at a time, the members whose windows hold
    ``STREAM_BLOCK // N`` entries in all, or one member. Each pair (s, t) of
    the block with s earlier in t's window, s a representative or in the
    block, is compared on column 0, then in full where that matches,
    ``STREAM_BLOCK`` entries at a time; a member with no earlier member in its
    window needs no comparison. Then "t is a representative unless a close s
    is" is applied to the whole block until nothing changes: the pairs point
    back, so each round settles one more link of their longest chain, and the
    representatives are the member-by-member loop's. A margin that overflows
    is inf, and every window is the whole pool. Beyond the stack this holds
    O(P) entries for a pool of P members, and blocks of max(STREAM_BLOCK,
    N^2) entries.
    """
    try:
        period = family_period(f, tol)
    except InsufficientRangeError:
        period = None
    return _distinct(f.stack[:period], tol)


def _distinct(pool: np.ndarray, tol: float) -> int:
    """``distinct_matrices`` of the members of a (P, N, N) pool, all of them."""
    count, n = pool.shape[:2]
    order, lo, hi = _key_windows(pool, tol)
    ends = np.cumsum(hi - lo)  # window entries of members 0..t
    rep = np.ones(count, dtype=bool)
    a = 0
    while a < count:
        # members a..b-1, whose windows hold STREAM_BLOCK // N entries, or member a alone
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - (hi[a] - lo[a]) + graphs.STREAM_BLOCK // n, "right")))
        s, t = _within(pool[:, :, 0], *_window_pairs(order, lo[a:b], hi[a:b], a, rep), tol)
        s, t = _within(pool, s, t, tol)  # in full where column 0 matches
        while True:  # settles within one round more than the pairs' longest chain
            new = np.ones(b - a, dtype=bool)
            new[t[rep[s]] - a] = False
            if (new == rep[a:b]).all():
                break
            rep[a:b] = new
        a = b
    return int(rep.sum())


def _window_pairs(order: np.ndarray, lo: np.ndarray, hi: np.ndarray, a: int, rep: np.ndarray):
    """The pairs (s, t) of members t = a, a + 1, ... with their windows
    ``order[lo:hi]``, for each earlier s in t's window that ``rep`` marks: a
    representative, or a member from a on, not yet decided."""
    sizes = hi - lo
    t = np.repeat(np.arange(a, a + len(lo)), sizes)
    s = order[np.arange(len(t)) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)]
    keep = (s < t) & rep[s]
    return s[keep], t[keep]


def _within(a: np.ndarray, s: np.ndarray, t: np.ndarray, tol: float):
    """The pairs (s, t) with max |a[s] - a[t]| <= tol, ``STREAM_BLOCK`` entries at a time."""
    keep = np.empty(len(s), dtype=bool)
    for b in _blocks(len(s), a[0].size, graphs.STREAM_BLOCK):
        d = a[s[b]]
        d -= a[t[b]]
        keep[b] = np.abs(d, out=d).reshape(len(d), -1).max(axis=1) <= tol
    return s[keep], t[keep]


def _key_windows(pool: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The members sorted by column-0 key, ``order``, and each member t's
    window ``order[lo[t]:hi[t]]``: every member whose key lies within the
    margin of t's, t included (``distinct_matrices`` gives the proof)."""
    n = pool.shape[-1]
    # weights linear in i mod 1 would make w_i + w_{N - i} constant, and on a
    # cycle every column 0 holds 1/2 at two such nodes: every key would collide
    i = np.arange(n, dtype=float)
    w = 1.0 + np.modf(i * i * _GOLDEN)[0]
    keys = pool[:, :, 0] @ w
    wtol = float(w.sum()) * tol  # Python floats: an overflow is inf, with no warning
    margin = wtol + 8 * (n + 1) * np.finfo(float).eps * (wtol + float(keys.max()))
    order = np.argsort(keys, kind="stable")
    return (order, np.searchsorted(keys[order], keys - margin, "left"),
            np.searchsorted(keys[order], keys + margin, "right"))


def unitary_period(g: TransitionMatrix, t_max: int, tol: float = MATRIX_TOL) -> int | None:
    """Smallest p <= t_max with U^p equal to the identity, or None.

    Reads U's eigenphases theta off one O(N^3) eigendecomposition of D and
    returns the first p with max |e^{i p theta} - 1| <= tol: for the unitary U
    that is the spectral norm of U^p - 1, which bounds every entry of U^p - 1.
    No dense operator is built, so there is no size cap. The powers are taken
    a block at a time, about ``graphs.PHASE_BLOCK // 16`` complex entries
    each: the block's phases ``(1j * ps)[:, None] * theta`` are bitwise each
    power's ``1j * p * theta``, so each deviation is the one p gets alone, and
    the first block with a hit returns its first.
    """
    _check_int("t_max", t_max, 0)
    _check_tol(tol)
    theta = _eigenphases(g.g)
    phases = None  # sized by the first, largest block
    for block in _blocks(t_max + 1, 16 * theta.size, graphs.PHASE_BLOCK, start=1):
        ps = np.arange(block.start, block.stop)
        if phases is None:
            phases = np.empty((len(ps), theta.size), dtype=complex)
        z = np.multiply((1j * ps)[:, None], theta, out=phases[:len(ps)])
        np.exp(z, out=z)
        z -= 1.0
        hits = np.flatnonzero(np.abs(z).max(axis=1) <= tol)
        if hits.size:
            return int(ps[hits[0]])
    return None
