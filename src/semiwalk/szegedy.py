"""Szegedy walk operator on the doubled node space.

The walk lives on C^N (x) C^N with the basis state ``|i>_1 |j>_2`` stored at
flat index ``i*N + j``. For a column-stochastic matrix G the proxy state of
node ``i`` is

    |psi_i> = |i>_1 (x) sum_k sqrt(G[k, i]) |k>_2,

and one walk step is ``U = S (2 Pi - 1)`` where ``Pi`` projects onto the span
of the proxy states and ``S`` swaps the two registers. ``U`` is applied
matrix-free: the projector only needs one inner product per proxy, so a step
costs O(N^2) instead of the O(N^4) dense product.

Amplitudes are kept complex even though sqrt(G) is real, so unitarity checks
stay honest and phase-modified operators remain representable.

``U`` is the single-step operator; the historical two-reflection bipartite
operator is its square, reachable through ``apply(state, steps=2)`` rather
than a separate entry point.

This module is the reference operator: ``EdgeState``, ``SzegedyOperator``
(``apply``, ``reflect``, ``dense``, ``proxy_state``, ``uniform_superposition``)
and ``register_distribution`` step the N^2 amplitudes themselves. They are the
oracle that ``family``'s N x N shortcuts, its members and U's eigenphases from
Szegedy's spectral lemma (see that module's docstring), are tested against.
Only ``semiwalk verify``, ``circuit.verify_block`` and the tests use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, TooLargeError
from .graphs import STOCHASTIC_TOL, ProbabilityVector, TransitionMatrix, _check_int

# A proxy state's norm^2 is its node's column sum, which validate lets sit
# STOCHASTIC_TOL off one; a tighter bound would reject an accepted matrix.
NORM_TOL = STOCHASTIC_TOL

DENSE_CAP = 32


@dataclass(frozen=True, eq=False)
class EdgeState:
    """Unit-norm amplitude vector over the N^2 two-register basis."""

    amp: np.ndarray

    def __post_init__(self):
        a = np.array(self.amp, dtype=complex, copy=True)
        if a.ndim != 1:
            raise DimensionMismatchError("amplitudes must be 1-D")
        n = math.isqrt(a.size)
        if n * n != a.size or n < 1:
            raise DimensionMismatchError(f"length {a.size} is not a square")
        norm2 = float(np.vdot(a, a).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm2!r} is not 1 within {NORM_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "amp", a)

    @property
    def n(self) -> int:
        return math.isqrt(self.amp.size)

    @classmethod
    def basis(cls, n: int, i: int, j: int) -> "EdgeState":
        """The computational basis state |i>_1 |j>_2."""
        _check_int("n", n, 1)
        a = np.zeros(n * n, dtype=complex)
        a[_index(n, i, j)] = 1.0
        return cls(a)

    def amplitude(self, i: int, j: int) -> complex:
        return complex(self.amp[_index(self.n, i, j)])


def _index(n: int, i: int, j: int) -> int:
    """The position of |i>_1 |j>_2 among n^2 amplitudes, for integers i, j in 0..n-1."""
    _check_int("i", i)
    _check_int("j", j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"({i}, {j}) outside 0..{n - 1}")
    return i * n + j


def register_distribution(state: EdgeState, register: int) -> ProbabilityVector:
    """Measurement statistics of one register, the other traced out."""
    if register not in (1, 2):
        raise ValueError("register must be 1 or 2")
    probs = np.abs(state.amp.reshape(state.n, state.n)) ** 2
    p = probs.sum(axis=1) if register == 1 else probs.sum(axis=0)
    return ProbabilityVector(p)


class SzegedyOperator:
    """Walk operator for one transition matrix; immutable and shareable.

    Caches the proxy amplitudes sqrt(G[k, i]) so each application only takes
    inner products against them.
    """

    def __init__(self, source: TransitionMatrix):
        self.source = source
        sqrt_g = np.sqrt(source.g)
        sqrt_g.setflags(write=False)
        self._sqrt_g = sqrt_g  # _sqrt_g[k, i] = <i,k|psi_i>

    @property
    def n(self) -> int:
        return self.source.n

    def proxy_state(self, i: int) -> EdgeState:
        """|psi_i>: node i in register 1, its outgoing amplitudes in register 2."""
        _check_int("i", i)
        if not (0 <= i < self.n):
            raise IndexOutOfRangeError(f"node {i} outside 0..{self.n - 1}")
        a = np.zeros((self.n, self.n), dtype=complex)
        a[i, :] = self._sqrt_g[:, i]
        return EdgeState(a.reshape(-1))

    def reflect(self, state: EdgeState) -> EdgeState:
        """Apply the proxy-subspace reflection (2 Pi - 1) without the swap."""
        a = self._check(state)
        return EdgeState(self._reflect_raw(a).reshape(-1))

    def apply(self, state: EdgeState, steps: int = 1) -> EdgeState:
        """Apply U = S (2 Pi - 1) the given number of times, matrix-free."""
        _check_int("steps", steps, least=0)
        a = self._check(state)
        for _ in range(steps):
            a = self._reflect_raw(a).T.copy()  # transpose = register swap
        return EdgeState(a.reshape(-1))

    def _check(self, state: EdgeState) -> np.ndarray:
        if state.n != self.n:
            raise DimensionMismatchError(f"state has n={state.n}, operator has n={self.n}")
        return state.amp.reshape(self.n, self.n)

    def _reflect_raw(self, a: np.ndarray) -> np.ndarray:
        # <psi_i|state> reduces to one inner product per column of sqrt(G)
        overlap = np.einsum("ki,ik->i", self._sqrt_g, a)
        return 2.0 * overlap[:, None] * self._sqrt_g.T - a

    def dense(self, max_n: int = DENSE_CAP) -> np.ndarray:
        """Materialize U as an N^2 x N^2 complex matrix (debug/verification path)."""
        if self.n > max_n:
            raise TooLargeError(f"n={self.n} exceeds dense cap {max_n}")
        return _dense(self._sqrt_g)

    def uniform_superposition(self) -> EdgeState:
        """Equal-amplitude combination of all proxy states, (1/sqrt(N)) sum_i |psi_i>.

        The proxies are mutually orthogonal (distinct first-register values),
        so the combination is automatically unit norm.
        """
        a = (self._sqrt_g.T / math.sqrt(self.n)).astype(complex)
        return EdgeState(a.reshape(-1))


def _dense(sqrt_g: np.ndarray) -> np.ndarray:
    """U of each matrix of a (..., N, N) stack of proxy amplitudes sqrt(G), as
    one (..., N^2, N^2) complex array: the reflection 2 Pi - 1, one N x N
    block 2 |col_i><col_i| per node on the diagonal, with its rows swapped.
    Each operator is bitwise the one its matrix gets alone."""
    n = sqrt_g.shape[-1]
    d = n * n
    refl = np.broadcast_to(-np.eye(d, dtype=complex), sqrt_g.shape[:-2] + (d, d)).copy()
    blocks = refl.reshape(sqrt_g.shape[:-2] + (n, n, n, n))  # [i, k, j, l] is row i*N + k, column j*N + l
    for i in range(n):
        col = sqrt_g[..., :, i]
        blocks[..., i, :, i, :] += 2.0 * (col[..., :, None] * col[..., None, :])
    swap_index = np.arange(d).reshape(n, n).T.reshape(-1)
    return refl[..., swap_index, :]
