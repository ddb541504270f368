"""Weighted graphs, column-stochastic transition matrices, and their file formats.

Conventions used throughout the package:

* Nodes are indexed ``0..N-1``.
* ``g[j, i]`` is the probability of jumping from node ``i`` to node ``j``,
  so column ``i`` is the outgoing distribution of node ``i`` and every
  column sums to one (column-stochastic orientation).
* All array-holding types are immutable after construction and safe to
  share across threads.

The CSV writers spell each float as ``repr`` does, by the shortest digits
that read back to it, and ``_csv_rows`` forms them for whole arrays: y = x
10^(16 - e10) as a double-double, within 2e-14 of its exact value, then the
multiple of the largest power of ten in x's round-trip interval, the one
nearest to y where there are two. An entry counts only when each of its
boundary and tie tests clears a margin of 1e-9, far above that error, so its
digits are those of the exact arithmetic; every other entry (a boundary, a
tie, a decade miss, a value outside [2**-900, 2**900), a negative or
non-finite one) is spelled by ``repr`` itself, and the bytes never rest on
libm or on the numpy version.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingNodeError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NegativeWeightError,
    NotStochasticError,
    ParseError,
)

STOCHASTIC_TOL = 1e-9
# The most nodes a CSV or JSON input may declare: a dense N x N matrix of
# float64 is 8 MB here, and every family member is one more.
MAX_NODES = 1024
# an entry at or below this is no edge: rounding noise, not a transition
SUPPORT_TOL = 1e-9

_CSV_HEADER = re.compile(r"^n=(\d+);orientation=([a-z-]+)$")


def _check_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an integer (a bool is not one) and,
    when ``least`` is given, at least ``least``."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _check_tol(tol: float) -> None:
    # "not tol > 0" rather than "tol <= 0", which is false for NaN
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def _frozen_array(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic matrix; ``g[j, i]`` is the probability of i -> j."""

    g: np.ndarray

    def __post_init__(self):
        g = _frozen_array(self.g, float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
            raise DimensionMismatchError(f"transition matrix must be square, got {g.shape}")
        _check_transition(g)
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[0]


def _unchecked(cls, fields: dict):
    """A ``cls``, a frozen dataclass, holding ``fields``, {name: value} for
    each of its fields, as they are, not copied and not checked: for values
    checked already. Its ``__dict__`` is set in one update."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _views(cls, rows) -> list:
    """One ``cls``, a frozen dataclass with one array field, per row of
    ``rows``, holding that row as it is: a view, not checked again."""
    (name,) = cls.__dataclass_fields__
    return [_unchecked(cls, {name: row}) for row in rows]


def _chunks(sizes: list[int], budget: int, entries) -> list[list[int]]:
    """The indices of ``sizes`` grouped by size, in order of first appearance,
    each group split into runs of at most ``max(1, budget // entries(n))``
    indices: the (B, ...) stacks of one size N that fit an entry budget."""
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    runs = []
    for n, ks in groups.items():
        step = max(1, budget // entries(n))
        runs += [ks[lo:lo + step] for lo in range(0, len(ks), step)]
    return runs


def _check_transition(g: np.ndarray) -> None:
    """The entry checks of a transition matrix, or of a (..., N, N) stack of
    them, checked as one array. If a stack fails, its matrices are checked one
    by one in C order, so the first bad one raises the error it raises on its
    own."""
    try:
        if np.fmax.reduce(g, axis=None) > 1 + 1e-12:  # fmax skips NaN, as a comparison does
            raise NegativeWeightError("transition probabilities must lie in [0, 1]")
        validate(g)
    except (NegativeWeightError, NotStochasticError):
        if g.ndim > 2:
            for m in g.reshape(-1, *g.shape[-2:]):
                _check_transition(m)
        raise


def _checked_rows(sizes: list[int], budget: int, entries, make) -> list[np.ndarray]:
    """The read-only rows, in input order, of the arrays ``make(ks)`` for the
    chunks ks of ``_chunks(sizes, budget, entries)``, each array checked once
    by ``_check_transition``. If one fails, the rows are checked one by one
    in input order, so the first bad input raises the error it raises alone."""
    rows: list[np.ndarray] = [None] * len(sizes)
    failed = False
    for ks in _chunks(sizes, budget, entries):
        a = make(ks)
        a.setflags(write=False)
        try:
            _check_transition(a)
        except (NegativeWeightError, NotStochasticError):
            failed = True
        for k, row in zip(ks, a):
            rows[k] = row
    if failed:
        for row in rows:
            _check_transition(row)
    return rows


def _reach(edges: np.ndarray) -> np.ndarray:
    """Reachability closure of a support digraph: r[j, i] is whether j is
    reachable from i in zero or more steps along edges[j, i]: i -> j.

    Squares edges | I until nothing changes, each step one float64 product:
    its entries count paths, at most N, so they are exact. A complete graph
    is its own closure, with no product.
    """
    r = edges | np.eye(len(edges), dtype=bool)
    while not r.all():
        nxt = r.astype(float) @ r.astype(float) > 0
        if (nxt == r).all():
            break
        r = nxt
    return r


def _levels(edges: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first depth of each node from ``root`` along edges[j, i]: i -> j,
    -1 where it is unreachable."""
    level = np.full(len(edges), -1)
    level[root] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = edges[:, frontier].any(axis=1) & (level < 0)
        level[frontier] = depth
    return level


def _circulant(offsets: np.ndarray) -> np.ndarray:
    """The N x N circulant matrix whose entry [j, i] is offsets[(j - i) mod N]."""
    n = len(offsets)
    return offsets[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Distribution over nodes: nonnegative entries summing to one."""

    p: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.p, float)
        if p.ndim != 1 or p.size < 1:
            raise DimensionMismatchError("probability vector must be 1-D and nonempty")
        validate(p)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.size

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityVector":
        _check_int("n", n, 1)
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, i: int) -> "ProbabilityVector":
        _check_int("i", i)
        if not (0 <= i < n):
            raise IndexOutOfRangeError(f"node {i} outside 0..{n - 1}")
        p = np.zeros(n)
        p[i] = 1.0
        return cls(p)


@dataclass(frozen=True)
class Classification:
    symmetric: bool
    homogeneous: bool


def from_weights(w: np.ndarray, patch_dangling: bool = False) -> TransitionMatrix:
    """Normalize the columns of a weighted graph into a transition matrix.

    ``w[j, i]`` is the nonnegative weight of edge i -> j. A zero column
    (dangling node) is an error unless ``patch_dangling`` is set, in which
    case it is replaced by the uniform column. Patching is opt-in because it
    silently changes the walk semantics.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionMismatchError(f"weights must be square, got {w.shape}")
    if w.shape[0] < 1:
        raise DimensionMismatchError("graph needs at least one node")
    if (w < 0).any():
        raise NegativeWeightError("graph weights must be nonnegative")
    sums = w.sum(axis=0)
    dangling = np.flatnonzero(sums == 0.0)
    if dangling.size and not patch_dangling:
        raise DanglingNodeError(int(dangling[0]))
    g = w / np.where(sums == 0.0, 1.0, sums)
    g[:, dangling] = 1.0 / len(w)
    return TransitionMatrix(g)


def validate(m: TransitionMatrix | np.ndarray) -> None:
    """Check column-stochasticity; raise otherwise.

    Every entry must be finite and nonnegative, and every column must sum to
    one within ``STOCHASTIC_TOL``. A NaN or infinite entry makes its column
    non-stochastic. It is tested for explicitly because every comparison with
    NaN is false. A 1-D array, such as a ``ProbabilityVector``, is checked as
    a single column. A (..., N, N) stack is checked matrix by matrix; column i
    of the k-th matrix in C order is then reported as column k * N + i.
    """
    g = m.g if isinstance(m, TransitionMatrix) else np.asarray(m, dtype=float)
    if g.ndim == 1:
        g = g[:, None]  # one column
    # A non-finite entry makes its column's sum non-finite, so the entries are
    # only scanned when a sum is; no array of g's size is allocated otherwise.
    with np.errstate(invalid="ignore", over="ignore"):
        sums = g.sum(axis=-2)
    if not np.isfinite(sums).all():
        finite = np.isfinite(g).all(axis=-2)
        if not finite.all():
            raise NotStochasticError(int(np.argmin(finite)), float("nan"))
    if g.min() < 0:
        raise NegativeWeightError("probabilities must be nonnegative")
    dev = np.abs(sums - 1.0).ravel()
    worst = int(np.argmax(dev))
    if dev[worst] > STOCHASTIC_TOL:
        raise NotStochasticError(worst, float(dev[worst]))


def classify(m: TransitionMatrix) -> Classification:
    """Detect symmetry (g == g^T) and homogeneity, each within ``STOCHASTIC_TOL``.

    Homogeneity is operationalized as the matrix being circulant under the
    given node labeling: every entry depends only on (j - i) mod N.
    """
    g = m.g
    symmetric = bool(np.abs(g - g.T).max() <= STOCHASTIC_TOL)
    homogeneous = bool(np.abs(g - _circulant(g[:, 0])).max() <= STOCHASTIC_TOL)
    return Classification(symmetric=symmetric, homogeneous=homogeneous)


# --- serialization -----------------------------------------------------------

def serialize(m: TransitionMatrix, fmt: str) -> str:
    """Render a transition matrix as ``csv``, ``json`` or ``dot`` text.

    csv and json round-trip through :func:`deserialize`; dot is export-only.
    """
    if fmt == "csv":
        return _to_csv(m)
    if fmt == "json":
        return _to_json(m)
    if fmt == "dot":
        return _to_dot(m)
    raise ValueError(f"unknown format {fmt!r}")


def deserialize(text: str, fmt: str) -> TransitionMatrix:
    """Parse ``csv`` or ``json`` text produced by :func:`serialize`."""
    if fmt == "csv":
        return _from_csv(text)
    if fmt == "json":
        return _from_json(text)
    if fmt == "dot":
        raise ValueError("dot is export-only")
    raise ValueError(f"unknown format {fmt!r}")


def _to_csv(m: TransitionMatrix) -> str:
    return next(_csv_texts(m.g[None]))


def _csv_texts(stack: np.ndarray, newline: str = "\n"):
    """The CSV text of each matrix of a (B, N, N) stack, as ``serialize``
    writes it, with ``newline`` ending each line; the rows of about
    ``_CSV_BLOCK`` entries are formatted at a time."""
    n = stack.shape[-1]
    head = f"n={n};orientation=column-stochastic"
    step = max(1, _CSV_BLOCK // (n * n))
    for lo in range(0, len(stack), step):
        rows = _csv_rows(stack[lo:lo + step])
        for k in range(0, len(rows), n):
            yield newline.join([head, *rows[k:k + n]]) + newline


# --- float CSV rows ------------------------------------------------------------

# Arrays with fewer entries take the repr join whole: below about 400 entries
# the kernel's hundred-odd numpy calls cost more than the join.
_CSV_MIN = 512
# Entries per kernel call; its temporaries stay within a few MiB.
_CSV_BLOCK = 1 << 13
# The binary exponent fields of the x in [2**-900, 2**900), whose decades
# e10 the powers-of-ten table covers.
_CSV_EXPO = (1023 - 900, 1023 + 899)
_CSV_E10 = (-272, 272)
# Every boundary and tie test of a certified entry clears this margin; the
# computed y and interval ends are within 2e-14 of the exact ones.
_CSV_MARGIN = 1e-9
# C // 10^8 and C % 10^8 scaled to the two-digit pairs of the 17 digits of C
_CSV_PAIRS = 10.0 ** -np.array([8, 6, 4, 2, 0, 6, 4, 2, 0])[:, None]
# The columns of a kernel row: a pad and the 17 digits of C, or a fallback's
# repr in 0..23; the constants '0', '.' and 'e'; the exponent's sign and three
# digits; the separator; and NULs, which the templates pad with. The width is
# even, for a uint16 view of the digit pairs.
_K0, _KDOT, _KE, _KSIGN, _KSEP, _KNUL = 24, 25, 26, 27, 31, 32
_KWIDTH, _KOUT = 34, 25
# Groups: 0.0, the fallback, then 2 + 17 * form + (digits - 1). Forms 0..19
# are fixed notation with the decimal point after digit e10 + 1 (0.000ddd to
# ddd.0), forms 20..23 d.ddde-XX, e-XXX, e+XX and e+XXX.
_CSV_ZERO, _CSV_FALLBACK = 0, 1


def _csv_rows(a: np.ndarray) -> list[str]:
    """The CSV rows ``",".join(map(repr, row))`` of a (..., R, C) float64
    array, in C order, bitwise: an array of ``_CSV_MIN`` entries or more
    goes through ``_csv_kernel``, about ``_CSV_BLOCK`` entries per call."""
    rows = np.asarray(a, dtype=float).reshape(-1, a.shape[-1])
    if rows.size < _CSV_MIN:
        return [",".join(map(repr, row)) for row in rows.tolist()]
    step = max(1, _CSV_BLOCK // rows.shape[1])
    out: list[str] = []
    for lo in range(0, len(rows), step):
        out += _csv_kernel(np.ascontiguousarray(rows[lo:lo + step])).split("\n")[:-1]
    return out


def _csv_kernel(a: np.ndarray) -> str:
    """The CSV rows of a C-contiguous (R, C) float64 array, each ended by a
    newline: the certified entries from ``_shortest``, 0.0 as itself, and
    every other entry from ``_reprs``. The entries are sorted by group, each
    group is one column gather of its template into a uint8 matrix, and the
    NULs the templates pad with are dropped in one pass."""
    *_, cols = _csv_tables()
    v = a.ravel()
    n = v.size
    bits = v.view(np.uint64)
    expo = (bits >> np.uint64(52)).astype(np.intp)  # the sign bit puts x < 0 at 2048 and above
    live = (expo >= _CSV_EXPO[0]) & (expo <= _CSV_EXPO[1])  # masked before any arithmetic
    group = np.where(bits == 0, _CSV_ZERO, _CSV_FALLBACK).astype(np.int16)
    ext = np.empty((n, _KWIDTH), dtype=np.uint8)
    ext[:, _K0:_KSIGN] = np.frombuffer(b"0.e", dtype=np.uint8)
    ext[:, _KSEP] = ord(",")
    ext[a.shape[1] - 1::a.shape[1], _KSEP] = ord("\n")
    ext[:, _KNUL] = 0
    every = bool(live.all())
    at = slice(None) if every else np.flatnonzero(live)  # a slice copies nothing
    if every or at.size:
        pairs, suffix, numeric, sure = _shortest(v[at], bits[at], expo[at])
        ext.view(np.uint16)[at, :9] = pairs
        ext[at, _KSIGN:_KSIGN + 4] = suffix
        group[at] = np.where(sure, numeric, _CSV_FALLBACK)
    fallback = np.flatnonzero(group == _CSV_FALLBACK)
    if fallback.size:
        ext[fallback, :24] = _reprs(v[fallback])
    order = np.argsort(group, kind="stable")
    groups = group[order]
    bounds = [0, *(np.flatnonzero(np.diff(groups)) + 1).tolist(), n]
    src = ext.take(order, axis=0)
    out = np.empty((n, _KOUT), dtype=np.uint8)
    for lo, hi in zip(bounds, bounds[1:]):
        np.take(src[lo:hi], cols[groups[lo]], axis=1, out=out[lo:hi])
    back = np.empty(n, dtype=np.intp)
    back[order] = np.arange(n)
    return out.take(back, axis=0).tobytes().translate(None, b"\0").decode("ascii")


def _shortest(x: np.ndarray, bits: np.ndarray, expo: np.ndarray):
    """The shortest round-trip digits of each positive float x of 2**-900 <=
    x < 2**900, with its float bits and their exponent field: C's digit
    pairs as (len(x), 9) uint16, the exponent suffixes as (len(x), 4) uint8,
    each entry's group, and whether it is certified."""
    pow10, first, starts, suffix, pairs, _ = _csv_tables()
    # the decade e10 of x, and y = x 10^(16 - e10) in [1e16, 1e17) as yh + yl
    # with yh an integer: Dekker's product of x, split by its bits, with the
    # double-double power of ten
    e10 = first.take(expo)
    e10 += x >= starts.take(e10 + (1 - _CSV_E10[0]))
    row = e10 - _CSV_E10[0]
    p_hi, p_lo, p_top, p_low = (t.take(row) for t in pow10)
    yh = x * p_hi
    top = (bits & np.uint64(2**64 - 2**27)).view(np.float64)
    low = x - top
    yl = ((top * p_top - yh) + top * p_low + low * p_top) + low * p_low + x * p_lo
    # the round-trip interval [y - half, y + half] in y's units, its lower
    # gap halved at a power of two, and the integers [lo, hi] in it
    half = ((expo - 53) << 52).view(np.float64) * p_hi  # half an ulp of x, times 10^(16 - e10)
    lower = yl - np.where(bits & np.uint64(2**52 - 1), half, 0.5 * half)
    upper = yl + half
    base = np.where((yh >= 1e16) & (yh < 1e17), yh, 0.0).astype(np.int64)
    lower_int, upper_int = np.ceil(lower), np.floor(upper)
    # certified only where neither end lies within the margin of an integer
    sure = (base > 0) & (np.abs(lower - lower_int + 0.5) < 0.5 - _CSV_MARGIN)
    sure &= np.abs(upper - upper_int - 0.5) < 0.5 - _CSV_MARGIN
    lo, hi = base + lower_int.astype(np.int64), base + upper_int.astype(np.int64)
    # C: the multiple of 10^j in [lo, hi] with the largest j, the one nearest
    # to y where there are several (j = 0 or 1; [lo, hi] spans at most 23)
    whole = np.floor(yl)
    frac = yl - whole
    y_int = base + whole.astype(np.int64)
    c = y_int + (frac >= 0.5)  # j = 0: the nearest integer is always in [lo, hi]
    tie = np.abs(frac - 0.5) <= _CSV_MARGIN
    top10 = hi // 10 * 10
    tens = top10 >= lo
    r10 = y_int - y_int // 10 * 10
    rem = r10 + frac
    near10 = y_int - r10 + 10 * (rem >= 5.0)
    np.copyto(c, np.minimum(np.maximum(near10, -(-lo // 10) * 10), top10), where=tens)
    np.copyto(tie, np.abs(rem - 5.0) <= _CSV_MARGIN, where=tens)
    digits = np.where(tens, 16, 17)
    k = np.flatnonzero(tens)
    for j in range(2, 17):
        cand = hi[k] // 10**j * 10**j
        hit = cand >= lo[k]
        k = k[hit]
        if not k.size:
            break
        c[k], digits[k], tie[k] = cand[hit], 17 - j, False
    sure &= ~tie & (c >= 10**16) & (c < 10**17)
    c[~sure] = 10**16
    # the digits of C, two at a time, exact: floor((m + 1/2) 10^-k) for m < 10^9
    head = c // 10**8
    q = np.empty((9, c.size))
    np.multiply(head + 0.5, _CSV_PAIRS[:5], out=q[:5])
    np.multiply(c - head * 10**8 + 0.5, _CSV_PAIRS[5:], out=q[5:])
    np.floor(q, out=q)
    q[1:5] -= 100 * q[:4]
    q[6:] -= 100 * q[5:8]
    form = np.where((e10 >= -4) & (e10 <= 15), e10 + 4, 20 + 2 * (e10 > 0) + (np.abs(e10) >= 100))
    numeric = (2 + 17 * form + digits - 1).astype(np.int16)
    return pairs.take(q.astype(np.intp)).T, suffix.take(row, axis=0), numeric, sure


def _reprs(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float of ``x`` as a NUL-padded (len(x), 24) uint8
    array: the kernel's fallback."""
    return np.array([repr(f) for f in x.tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)


@functools.cache
def _csv_tables():
    """The kernel's read-only tables, built on first use: for each decade e10
    the double-double 10^(16 - e10), with its high part split in two 26-bit
    halves; the first decade of each binary exponent field; the power of ten
    that starts each decade; each decade's exponent suffix; the digit pairs;
    and each group's column template."""
    decades = range(_CSV_E10[0], _CSV_E10[1] + 1)
    pow10 = np.empty((4, len(decades)))
    for k, e10 in enumerate(decades):
        p = 16 - e10
        if p >= 0:
            hi = float(10**p)  # an int converts to the nearest float
            lo = float(10**p - int(hi))
        else:
            hi = 1 / 10**-p  # an int quotient is rounded to nearest
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-p) / (den * 10**-p)
        c = 134217729.0 * hi  # Veltkamp's split by 2^27 + 1
        top = c - (c - hi)
        pow10[:, k] = hi, lo, top, hi - top
    first = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.intp)  # a miss falls back
    starts = np.array([10.0**k if k >= 0 else 1 / 10**-k for k in range(_CSV_E10[0], _CSV_E10[1] + 2)])
    suffix = np.array([f"{e:+04d}".encode() for e in decades], dtype="S4").view(np.uint8).reshape(-1, 4)
    pairs = np.array([f"{k:02d}".encode() for k in range(100)], dtype="S2").view(np.uint16)
    cols = np.full((2 + 24 * 17, _KOUT), _KNUL, dtype=np.intp)
    cols[_CSV_ZERO, :4] = _K0, _KDOT, _K0, _KSEP
    cols[_CSV_FALLBACK] = [*range(24), _KSEP]
    for form in range(24):
        for nd in range(1, 18):
            d = list(range(1, nd + 1))  # the digits of C sit in columns 1..17
            if form < 20:
                dp = form - 3
                if dp <= 0:
                    seq = [_K0, _KDOT] + [_K0] * -dp + d
                elif dp < nd:
                    seq = d[:dp] + [_KDOT] + d[dp:]
                else:
                    seq = list(range(1, dp + 1)) + [_KDOT, _K0]
            else:
                seq = [1] + ([_KDOT] + d[1:] if nd > 1 else []) + [_KE, _KSIGN]
                seq += [_KSIGN + 1, _KSIGN + 2, _KSIGN + 3] if form % 2 else [_KSIGN + 2, _KSIGN + 3]
            cols[2 + 17 * form + nd - 1, :len(seq) + 1] = seq + [_KSEP]
    tables = pow10, first, starts, suffix, pairs, cols
    for t in tables:
        t.setflags(write=False)
    return tables


def _from_csv(text: str) -> TransitionMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input", line=1)
    header = _CSV_HEADER.match(lines[0].strip())
    if header is None:
        raise ParseError("expected header 'n=<N>;orientation=column-stochastic'", line=1)
    digits = header.group(1)
    # more digits than MAX_NODES has are too many; int() would take any number of them
    n = _node_count(int(digits) if len(digits.lstrip("0")) <= len(str(MAX_NODES)) else digits, line=1)
    if header.group(2) != "column-stochastic":
        raise ParseError(f"unsupported orientation {header.group(2)!r}", line=1, field="orientation")
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", line=len(lines))
    g = np.zeros((n, n))
    for r, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, found {len(fields)}", line=r)
        try:
            g[r - 2] = [float(tok) for tok in fields]
        except ValueError:  # find the bad field only in a row that has one
            for c, tok in enumerate(fields):
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"bad number {tok.strip()!r}", line=r, field=c) from None
    validate(g)
    return TransitionMatrix(g / g.sum(axis=0))


def _to_json(m: TransitionMatrix) -> str:
    fr, to = np.nonzero(m.g.T > 0.0)  # the edges fr -> to, by fr, then to
    edges = [{"from": i, "to": j, "w": w} for i, j, w in zip(fr.tolist(), to.tolist(), m.g[to, fr].tolist())]
    return json.dumps({"n": m.n, "edges": edges})


def _node_count(n, line: int | None = None) -> int:
    """The declared node count, which must be an int in 1..MAX_NODES."""
    if type(n) is not int or not 1 <= n <= MAX_NODES:
        raise ParseError(f"node count must be an integer in 1..{MAX_NODES}, got {n!r:.20}",
                         line=line, field="n")
    return n


def _from_json(text: str) -> TransitionMatrix:
    if not text.strip():
        raise ParseError("empty input", line=1)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    except (ValueError, RecursionError) as e:  # an int too long to convert, deep nesting
        raise ParseError(str(e)) from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("missing 'n'", field="n")
    n = _node_count(doc["n"])
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ParseError("missing 'edges' array", field="edges")
    weights = np.zeros((n, n))
    for k, e in enumerate(edges):
        if not isinstance(e, dict) or not {"from", "to", "w"} <= e.keys():
            raise ParseError(f"edge {k} is not an object with 'from', 'to' and 'w'", field=k)
        i, j, w = e["from"], e["to"], e["w"]
        # type(...) is int keeps true/false out; JSON has no other int-like type
        if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"edge {k} endpoints must be integers in 0..{n - 1}", field=k)
        try:
            w = float(w) if type(w) in (int, float) else math.nan
        except OverflowError:  # an int beyond float range
            w = math.inf
        if not math.isfinite(w):
            raise ParseError(f"edge {k} weight must be a finite number", field=k)
        if w < 0:
            raise NegativeWeightError(f"edge {k} has negative weight {w!r}")
        weights[j, i] += w
    with np.errstate(over="ignore"):
        if not np.isfinite(weights.sum(axis=0)).all():
            raise ParseError("edge weights overflow a column sum", field="edges")
    return from_weights(weights)


def _to_dot(m: TransitionMatrix) -> str:
    lines = ["digraph {"]
    for i in range(m.n):
        lines.append(f"  {i};")
    fr, to = np.nonzero(m.g.T > SUPPORT_TOL)
    for i, j, w in zip(fr.tolist(), to.tolist(), m.g[to, fr].tolist()):
        s = f"{w:.6f}"
        lines.append(f'  {i} -> {j} [label="{s}", weight={s}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
