"""Weighted graphs, column-stochastic transition matrices, and their file formats.

Conventions used throughout the package:

* Nodes are indexed ``0..N-1``.
* ``g[j, i]`` is the probability of jumping from node ``i`` to node ``j``,
  so column ``i`` is the outgoing distribution of node ``i`` and every
  column sums to one (column-stochastic orientation).
* All array-holding types are immutable after construction and safe to
  share across threads.

The CSV writers spell each float as ``repr`` does, by the shortest digits
that read back to it, and ``_csv_kernel`` forms them for a block of rows at
once, as ASCII bytes with the offset where each row ends: y = x 10^(16 -
e10) as a double-double, within 2e-14 of its exact value, then C, the
multiple of the largest power of ten in x's round-trip interval, the one
nearest to y where there are two. An entry counts only when each of its
boundary and tie tests clears a margin of 1e-9, far above that error, so its
digits are those of the exact arithmetic; every other entry (a boundary, a
tie, a decade miss, a value outside [2**-900, 2**900), a negative or
non-finite one) is spelled by ``repr`` itself, and the bytes never rest on
libm or on the numpy version. Each entry's characters sit in a 32-byte row:
C's first digit behind its form's "0.000" prefix or before its exponent
form's '.', C's other 16 digits as four 4-digit quads from one table, the
exponent suffix and the constants; its text is one template of columns of
that row, most often a single run, written at its offset in the output.
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
# The entry budgets of every pass over a stack, read here at call time (each
# block holds at least one item). PHASE_BLOCK, 8 MB of float64, is for arrays a
# pass forms: member and grid blocks, sampler rows, corpus runs, check chunks,
# unitary phases (// 16 complex) and verify's dense operators (// 64).
# STREAM_BLOCK, 512 KiB, is for the passes that stream a stack (periods,
# distinct counts, closed forms, components, asymmetries, limits): at N = 128
# its blocks stay in cache, and ran up to twice as fast as PHASE_BLOCK's.
PHASE_BLOCK = 1 << 20
STREAM_BLOCK = 1 << 16

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


def _blocks(stop: int, entries: int, budget: int, start: int = 0):
    """The slices cutting start..stop into runs of ``budget // entries`` items,
    at least one, the last maybe shorter: blocks of items that fit a budget."""
    step = max(1, budget // entries)
    return (slice(lo, min(lo + step, stop)) for lo in range(start, stop, step))


def _chunks(sizes: list[int], budget: int, entries) -> list[list[int]]:
    """The indices of ``sizes`` grouped by size, in order of first appearance,
    each group cut into ``_blocks`` of ``entries(n)`` entries each: the
    (B, ...) stacks of one size N that fit an entry budget."""
    groups: dict[int, list[int]] = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    return [ks[s] for n, ks in groups.items() for s in _blocks(len(ks), entries(n), budget)]


def _asymmetries(stack: np.ndarray) -> np.ndarray:
    """max |A - A^T| for each matrix A of a (T, N, N) stack, ``STREAM_BLOCK`` entries at a time."""
    out = np.empty(len(stack))
    for s in _blocks(len(stack), stack.shape[-1] ** 2, STREAM_BLOCK):
        out[s] = np.abs(stack[s] - np.swapaxes(stack[s], -1, -2)).max(axis=(-2, -1))
    return out


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
    """Reachability closure of a support digraph, or of each digraph of a
    (..., N, N) stack: r[j, i] is whether j is reachable from i in zero or
    more steps along edges[j, i]: i -> j.

    Squares edges | I until nothing changes, each step one float64 product
    for each digraph whose closure is still incomplete and still changing:
    its entries count paths, at most N, so they are exact. A complete graph
    is its own closure, with no product.
    """
    n = edges.shape[-1]
    r = edges | np.eye(n, dtype=bool)
    flat = r.reshape(-1, n, n)  # a view: r is a new array
    todo = (~flat.all(axis=(-2, -1))).nonzero()[0]
    while todo.size:
        old = flat[todo]
        f = old.astype(float)
        nxt = f @ f > 0
        flat[todo] = nxt
        todo = todo[(nxt != old).any(axis=(-2, -1)) & ~nxt.all(axis=(-2, -1))]
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
    worst = int(dev.argmax())
    if dev[worst] > STOCHASTIC_TOL:
        raise NotStochasticError(worst, float(dev[worst]))


def classify(m: TransitionMatrix) -> Classification:
    """Detect symmetry (g == g^T) and homogeneity, each within ``STOCHASTIC_TOL``.

    Homogeneity is operationalized as the matrix being circulant under the
    given node labeling: every entry depends only on (j - i) mod N.
    """
    g = m.g
    symmetric = bool(_asymmetries(g[None])[0] <= STOCHASTIC_TOL)
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
    return b"".join(next(_csv_texts(m.g[None]))).decode("ascii")


def _csv_texts(stack: np.ndarray, end: bytes = b"\n"):
    """The CSV text of each matrix of a (B, N, N) stack, as ``serialize``
    writes it with ``end`` ending each line: a list of ASCII bytes-like
    pieces per matrix, to be joined. The stack's rows are formatted a block
    at a time (``_csv_blocks``), and the row-end offsets cut the blocks into
    matrices: a block may hold several of them, or end inside one."""
    n = stack.shape[-1]
    head = b"n=%d;orientation=column-stochastic%s" % (n, end)
    pieces, taken = [head], 0  # taken: the current matrix's rows in earlier blocks
    for text, ends in _csv_blocks(stack.reshape(-1, n), end):
        view, at = memoryview(text), 0
        for cut in ends[(n - 1 - taken) % n::n].tolist():
            pieces.append(view[at:cut])
            yield pieces
            pieces, at = [head], cut
        if at < len(text):
            pieces.append(view[at:])
        taken = (taken + len(ends)) % n


def _csv_rows(a: np.ndarray) -> list[str]:
    """The CSV rows ``",".join(map(repr, row))`` of a (..., R, C) float64
    array, in C order, decoded once."""
    rows = np.reshape(a, (-1, np.shape(a)[-1]))
    return b"".join(text for text, _ in _csv_blocks(rows, b"\n")).decode("ascii").split("\n")[:-1]


def _csv_blocks(rows: np.ndarray, end: bytes):
    """The CSV rows ``",".join(map(repr, row))`` of an (R, C) float64 array,
    each ended by ``end``, bitwise, in blocks: (ASCII bytes, the offset in
    them where each of their rows ends). An array of ``_CSV_MIN`` entries or
    more goes through ``_csv_kernel``, ``_CSV_BLOCK // C`` rows per call; a
    smaller one is one block of the repr join."""
    rows = np.asarray(rows, dtype=float)
    if rows.size < _CSV_MIN:
        lines = [",".join(map(repr, row)).encode() + end for row in rows.tolist()]
        yield b"".join(lines), np.cumsum([len(line) for line in lines], dtype=np.int64)
        return
    for s in _blocks(len(rows), rows.shape[1], _CSV_BLOCK):
        yield _csv_kernel(np.ascontiguousarray(rows[s]), end)


# --- float CSV rows ------------------------------------------------------------

# Arrays with fewer entries take the repr join whole: below about 400 entries
# the kernel's numpy calls cost more than the join.
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
# The 32 bytes of an entry's row in the kernel: the head, bytes 0..7, with
# C's first digit in byte 7 behind the "0.", "0.0", "0.00" or "0.000" of its
# fixed form, or in byte 6 before the '.' of its exponent form; C's other 16
# digits in bytes 8..23, as four quads; the exponent's sign and three digits
# in 24..27; and "0.0e" in 28..31. A fallback's repr fills bytes 0..23.
_KD, _KSIGN, _K0, _KDOT, _KE = 7, 24, 28, 29, 31
_KREPR = 24
# Groups: 0 is 0.0, 1..24 a fallback's repr of that length, then
# _CSV_NUMERIC + 17 * form + (digits - 1). Forms 0..19 are fixed notation
# with the decimal point after digit e10 + 1 (0.000ddd to ddd.0), forms
# 20..23 d.ddde-XX, e-XXX, e+XX and e+XXX.
_CSV_NUMERIC = 1 + _KREPR


def _csv_kernel(a: np.ndarray, end: bytes) -> tuple[bytes, np.ndarray]:
    """The CSV rows of a C-contiguous (R, C) float64 array as ASCII bytes,
    each ended by ``end``, and the offset in them where each row ends: the
    certified entries from ``_shortest``, 0.0 as itself, and every other
    entry from ``_reprs``.

    Each entry's text is its group's template of columns of its 32-byte
    row, and its offset the cumsum of the texts and separators before it.
    The entries are sorted by group; each group's texts are one slice of
    their rows (one column take where the template is no single run), put
    in place through the group's windows of the output, an array of
    overlapping items of the text's length."""
    *_, const, cols, runs, lens = _csv_tables()
    v = a.ravel()
    n, width = v.size, a.shape[1]
    bits = v.view(np.uint64)
    expo = (bits >> np.uint64(52)).astype(np.intp)  # the sign bit puts x < 0 at 2048 and above
    live = (expo >= _CSV_EXPO[0]) & (expo <= _CSV_EXPO[1])  # masked before any arithmetic
    group = (bits == 0).astype(np.int16) - 1  # 0.0 is group 0; -1 marks a fallback
    ext = np.empty((n, 8), dtype=np.uint32)
    ext[:, 7] = const
    every = bool(live.all())
    at = slice(None) if every else np.flatnonzero(live)  # a slice copies nothing
    if every or at.size:
        head, quads, suffix, numeric, sure = _shortest(v[at], bits[at], expo[at])
        ext.view(np.uint64)[at, 0] = head
        ext[at, 2:6] = quads
        ext[at, 6] = suffix
        group[at] = np.where(sure, numeric, -1)
    fallback = np.flatnonzero(group < 0)
    if fallback.size:
        text, group[fallback] = _reprs(v[fallback])
        ext.view(np.uint8)[fallback, :_KREPR] = text
    # each entry's text and separator: a comma, or end after a row's last entry
    size = lens.take(group) + 1
    size[width - 1::width] += len(end) - 1
    ends = np.cumsum(size)
    out = np.empty(ends[-1], dtype=np.uint8)
    out[ends - 1] = ord(",")
    rows = ends[width - 1::width]
    for k, byte in enumerate(end):
        out[rows - len(end) + k] = byte
    order = np.argsort(group, kind="stable")
    groups = group[order]
    bounds = [0, *(np.flatnonzero(np.diff(groups)) + 1).tolist(), n]
    src = ext.view(np.uint8).take(order, axis=0)
    starts = (ends - size).take(order)
    for lo, hi in zip(bounds, bounds[1:]):
        g, length, run = groups[lo], lens[groups[lo]], runs[groups[lo]]
        # a slice of the rows, or a column take, whose rows are C order
        text = src[lo:hi, run:run + length] if run >= 0 else src[lo:hi].take(cols[g, :length], axis=1)
        item = np.dtype((np.void, length))
        # out's text-long windows, one at each offset: the entries' are disjoint
        windows = np.ndarray((len(out) - length + 1,), dtype=item, buffer=out, strides=(1,))
        windows[starts[lo:hi]] = text.view(item)[:, 0]
    return out.tobytes(), rows


def _shortest(x: np.ndarray, bits: np.ndarray, expo: np.ndarray):
    """The shortest round-trip digits of each positive float x of 2**-900 <=
    x < 2**900, with its float bits and their exponent field: each entry's
    head, uint64; C's other 16 digits as four quads, (len(x), 4) uint32; the
    exponent suffixes, uint32; each entry's group; and whether it is
    certified."""
    pow10, first, ends, form_group, form_head, suffixes, heads, quads, *_ = _csv_tables()
    # the decade e10 of x, as its row of the tables, and y = x 10^(16 - e10)
    # in [1e16, 1e17) as yh + yl with yh an integer: Dekker's product of x,
    # split by its bits, with the double-double power of ten
    row = first.take(expo)
    row += x >= ends.take(row)
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
    lower_int, upper_int = np.ceil(lower), np.floor(upper)
    # certified only where neither end lies within the margin of an integer
    sure = (yh >= 1e16) & (yh < 1e17)
    sure &= np.abs(lower - lower_int + 0.5) < 0.5 - _CSV_MARGIN
    sure &= np.abs(upper - upper_int - 0.5) < 0.5 - _CSV_MARGIN
    # [lo, hi] and y's integer part yi as offsets from b, the multiple of
    # 1000 at or below yh: small integers, exact as floats
    base = yh.astype(np.int64)
    b = base // 1000 * 1000
    r = (base - b).astype(np.float64)
    lo, hi = r + lower_int, r + upper_int
    whole = np.floor(yl)
    frac = yl - whole
    yi = r + whole
    # C: the multiple of 10^j in [lo, hi] with the largest j, the one nearest
    # to y where there are several (j = 0 or 1: [lo, hi] spans at most 23).
    # A quotient of integers is no integer unless it is exact.
    c = yi + (frac >= 0.5)  # j = 0: the nearest integer is always in [lo, hi]
    tie = np.abs(frac - 0.5) <= _CSV_MARGIN
    top10 = np.floor(hi / 10) * 10
    tens = top10 >= lo
    near10 = np.floor(yi / 10) * 10
    rem = (yi - near10) + frac
    near10 += 10.0 * (rem >= 5.0)
    c += tens * (np.minimum(np.maximum(near10, np.ceil(lo / 10) * 10), top10) - c)
    tie = (tie & ~tens) | (tens & (np.abs(rem - 5.0) <= _CSV_MARGIN))
    top100 = np.floor(hi / 100) * 100  # j = 2: at most one multiple of 100
    hundreds = top100 >= lo
    c += hundreds * (top100 - c)
    tie &= ~hundreds
    digits = np.subtract(17, tens, dtype=np.int16) - hundreds
    k = np.flatnonzero(hundreds)  # j >= 3 among them
    c = b + c.astype(np.int64)
    lo, hi = b[k] + lo[k].astype(np.int64), b[k] + hi[k].astype(np.int64)
    for j in range(3, 17):
        cand = hi // 10**j * 10**j
        hit = cand >= lo
        k, lo, hi = k[hit], lo[hit], hi[hit]
        if not k.size:
            break
        c[k], digits[k] = cand[hit], 17 - j
    sure &= ~tie & (c >= 10**16) & (c < 10**17)
    # C's first digit, and its other 16 as four quads; an uncertified C may
    # have other lengths, and its head index is clipped
    lead = c // 10**16
    rest = c - lead * 10**16
    m = np.empty((2, c.size), dtype=np.int64)
    m[0] = rest // 10**8
    m[1] = rest - m[0] * 10**8
    q = np.empty((4, c.size), dtype=np.intp)
    q[0::2] = m // 10**4
    q[1::2] = m - q[0::2] * 10**4
    head = heads.take(form_head.take(row) + lead, mode="clip")
    return head, quads.take(q).T, suffixes.take(row), form_group.take(row) + digits, sure


def _reprs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of each float of ``x`` as a NUL-padded (len(x), 24) uint8
    array, and the length of each: the kernel's fallback."""
    texts = [repr(f) for f in x.tolist()]
    return (np.array(texts, dtype=f"S{_KREPR}").view(np.uint8).reshape(-1, _KREPR),
            np.fromiter(map(len, texts), dtype=np.int16, count=len(texts)))


@functools.cache
def _csv_tables():
    """The kernel's read-only tables, built on first use: for each decade e10
    the double-double 10^(16 - e10), with its high part split in two 26-bit
    halves; the row of the first decade of each binary exponent field; the
    power of ten that ends each decade; each decade's form group (its group
    less the digits), its form's first head, and its exponent suffix; the
    head of each form and first digit; the quads '0000' to '9999'; the
    constant word; and each group's template: its columns, the first of
    them where they are a single run, and their count."""
    decades = np.arange(_CSV_E10[0], _CSV_E10[1] + 1)
    pow10 = []
    for e10 in decades.tolist():
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
        pow10.append((hi, lo, top, hi - top))
    # a decade miss falls back
    first = (np.floor((np.arange(2048) - 1023) * math.log10(2)) - _CSV_E10[0]).astype(np.intp)
    ends = np.array([10.0**k if k >= 0 else 1 / 10**-k for k in range(_CSV_E10[0] + 1, _CSV_E10[1] + 2)])
    form = np.where((decades >= -4) & (decades <= 15), decades + 4,
                    20 + 2 * (decades > 0) + (np.abs(decades) >= 100))
    suffixes = np.empty((len(decades), 4), dtype=np.uint8)
    suffixes[:, 0] = np.where(decades < 0, ord("-"), ord("+"))
    suffixes[:, 1:] = np.abs(decades)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    heads = np.zeros((24, 10, 8), dtype=np.uint8)
    heads[:, :, _KD] = np.arange(10) + ord("0")
    for f in range(4):  # 0.000d to 0.d
        prefix = np.frombuffer(b"0.000"[:5 - f], dtype=np.uint8)
        heads[f, :, _KD - len(prefix):_KD] = prefix
    heads[20:, :, _KD - 1] = heads[20:, :, _KD]  # d.
    heads[20:, :, _KD] = ord(".")
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)  # 0000 to 9999
    templates = [list(range(_K0, _K0 + 3)), *(list(range(length)) for length in range(1, _KREPR + 1))]
    for f in range(24):
        for nd in range(1, 18):
            d = list(range(_KD, _KD + nd))
            dp = f - 3  # digits before the point, in a fixed form
            if f < 20 and dp <= 0:
                seq = list(range(_KD - 2 + dp, _KD)) + d  # the head's 0.000 to 0.
            elif f < 20:
                seq = d[:dp] + [_KDOT] + d[dp:] if dp < nd else list(range(_KD, _KD + dp)) + [_KDOT, _K0]
            else:
                seq = [_KD - 1] + (d if nd > 1 else [])  # the head's d. or d
                seq += [_KE, _KSIGN] + ([_KSIGN + 1] if f % 2 else []) + [_KSIGN + 2, _KSIGN + 3]
            templates.append(seq)
    lens = np.array([len(seq) for seq in templates])
    cols = np.array([seq + [0] * (_KREPR - len(seq)) for seq in templates], dtype=np.intp)
    # the first column of each template that is a single run, -1 for the rest
    run = (cols[:, 1:] - cols[:, :-1] == 1) | (np.arange(1, _KREPR) >= lens[:, None])
    runs = np.where(run.all(axis=1), cols[:, 0], -1)
    tables = (np.array(pow10).T.copy(), first, ends, (_CSV_NUMERIC - 1 + 17 * form).astype(np.int16),
              10 * form, suffixes.view(np.uint32).ravel(), heads.view(np.uint64).ravel(),
              quads.reshape(-1, 4).view(np.uint32).ravel(), np.frombuffer(b"0.0e", dtype=np.uint32)[0],
              cols, runs, lens)
    for t in (*tables[:8], *tables[9:]):
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
