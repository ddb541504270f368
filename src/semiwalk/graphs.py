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

_CSV_HEADER = re.compile(r"^n=(\d+);orientation=([a-z-]+)$")


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
        if (g > 1 + 1e-12).any():
            raise NegativeWeightError("transition probabilities must lie in [0, 1]")
        object.__setattr__(self, "g", g)
        validate(self)

    @property
    def n(self) -> int:
        return self.g.shape[0]


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
    a single column.
    """
    g = m.g if isinstance(m, TransitionMatrix) else np.asarray(m, dtype=float)
    g = g.reshape(len(g), -1)  # a 1-D vector is one column
    finite = np.isfinite(g).all(axis=0)
    if not finite.all():
        raise NotStochasticError(int(np.argmin(finite)), float("nan"))
    if (g < 0).any():
        raise NegativeWeightError("probabilities must be nonnegative")
    sums = g.sum(axis=0)
    dev = np.abs(sums - 1.0)
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
    n = m.n
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    circulant = g[idx, 0]
    homogeneous = bool(np.abs(g - circulant).max() <= tol)
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
    for row in m.g:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _from_csv(text: str) -> TransitionMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty input", line=1)
    header = _CSV_HEADER.match(lines[0].strip())
    if header is None:
        raise ParseError("expected header 'n=<N>;orientation=column-stochastic'", line=1)
    n = int(header.group(1))
    if header.group(2) != "column-stochastic":
        raise ParseError(f"unsupported orientation {header.group(2)!r}", line=1, field="orientation")
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} rows, found {len(lines) - 1}", line=len(lines))
    g = np.zeros((n, n))
    for r, ln in enumerate(lines[1:], start=2):
        fields = ln.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, found {len(fields)}", line=r)
        for c, tok in enumerate(fields):
            try:
                g[r - 2, c] = float(tok)
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


def _from_json(text: str, patch_dangling: bool) -> TransitionMatrix:
    if not text.strip():
        raise ParseError("empty input", line=1)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("missing 'n'", field="n")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"bad node count {n!r}", field="n")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ParseError("missing 'edges' array", field="edges")
    weights = np.zeros((n, n))
    for k, e in enumerate(edges):
        if not isinstance(e, dict):
            raise ParseError(f"edge {k} is not an object", field=k)
        try:
            i, j, w = e["from"], e["to"], float(e["w"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"edge {k}: {exc}", field=k) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"edge {k} endpoint out of range", field=k)
        weights[j, i] += w
    return from_weights(weights, patch_dangling=patch_dangling)


def _to_dot(m: TransitionMatrix) -> str:
    lines = ["digraph {"]
    for i in range(m.n):
        lines.append(f"  {i};")
    for i in range(m.n):
        for j in range(m.n):
            w = m.g[j, i]
            if w > 0.0:
                lines.append(f'  {i} -> {j} [label="{w:.6f}", weight={w:.6f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
