"""Weighted graphs, column-stochastic transition matrices, and their file formats.

Conventions used throughout the package:

* Nodes are indexed ``0..N-1``.
* ``g[j, i]`` is the probability of jumping from node ``i`` to node ``j``,
  so column ``i`` is the outgoing distribution of node ``i`` and every
  column sums to one (column-stochastic orientation).
* All array-holding types are immutable after construction and safe to
  share across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingNodeError,
    DimensionMismatchError,
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
class WeightedGraph:
    """Nonnegative edge weights; ``weights[j, i]`` is the weight of edge i -> j."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"weights must be square, got {w.shape}")
        if w.shape[0] < 1:
            raise DimensionMismatchError("graph needs at least one node")
        if (w < 0).any():
            raise NegativeWeightError("graph weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


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
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, i: int) -> "ProbabilityVector":
        p = np.zeros(n)
        p[i] = 1.0
        return cls(p)


@dataclass(frozen=True)
class Classification:
    symmetric: bool
    homogeneous: bool


def from_weights(w: WeightedGraph | np.ndarray, patch_dangling: bool = False) -> TransitionMatrix:
    """Normalize the columns of a weighted graph into a transition matrix.

    A zero column (dangling node) is an error unless ``patch_dangling`` is
    set, in which case it is replaced by the uniform column. Patching is
    opt-in because it silently changes the walk semantics.
    """
    if not isinstance(w, WeightedGraph):
        w = WeightedGraph(np.asarray(w, dtype=float))
    sums = w.weights.sum(axis=0)
    dangling = np.flatnonzero(sums == 0.0)
    if dangling.size and not patch_dangling:
        raise DanglingNodeError(int(dangling[0]))
    safe = np.where(sums == 0.0, 1.0, sums)
    g = w.weights / safe
    if dangling.size:
        g = g.copy()
        g[:, dangling] = 1.0 / w.n
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


def classify(m: TransitionMatrix, tol: float = STOCHASTIC_TOL) -> Classification:
    """Detect symmetry (g == g^T) and homogeneity.

    Homogeneity is operationalized as the matrix being circulant under the
    given node labeling: every entry depends only on (j - i) mod N.
    """
    g = m.g
    symmetric = bool(np.abs(g - g.T).max() <= tol)
    homogeneous = bool(np.abs(g - _circulant(g[:, 0])).max() <= tol)
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


def deserialize(text: str, fmt: str, patch_dangling: bool = False) -> TransitionMatrix:
    """Parse ``csv`` or ``json`` text produced by :func:`serialize`."""
    if fmt == "csv":
        return _from_csv(text)
    if fmt == "json":
        return _from_json(text, patch_dangling)
    if fmt == "dot":
        raise ValueError("dot is export-only")
    raise ValueError(f"unknown format {fmt!r}")


def _to_csv(m: TransitionMatrix) -> str:
    lines = [f"n={m.n};orientation=column-stochastic"]
    for row in m.g.tolist():
        lines.append(",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


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
    edges = []
    for i in range(m.n):
        for j in range(m.n):
            w = float(m.g[j, i])
            if w > 0.0:
                edges.append({"from": i, "to": j, "w": w})
    return json.dumps({"n": m.n, "edges": edges})


def _node_count(n, line: int | None = None) -> int:
    """The declared node count, which must be an int in 1..MAX_NODES."""
    if type(n) is not int or not 1 <= n <= MAX_NODES:
        raise ParseError(f"node count must be an integer in 1..{MAX_NODES}, got {n!r:.20}",
                         line=line, field="n")
    return n


def _from_json(text: str, patch_dangling: bool) -> TransitionMatrix:
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
    return from_weights(weights, patch_dangling=patch_dangling)


def _to_dot(m: TransitionMatrix) -> str:
    lines = ["digraph {"]
    for i in range(m.n):
        lines.append(f"  {i};")
    for i, column in enumerate(m.g.T.tolist()):
        for j, w in enumerate(column):
            if w > SUPPORT_TOL:
                s = f"{w:.6f}"
                lines.append(f'  {i} -> {j} [label="{s}", weight={s}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
