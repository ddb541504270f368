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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IndexOutOfRangeError, TooLargeError
from .graphs import ProbabilityVector, TransitionMatrix

NORM_TOL = 1e-10

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
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRangeError(f"({i}, {j}) outside 0..{n - 1}")
        a = np.zeros(n * n, dtype=complex)
        a[i * n + j] = 1.0
        return cls(a)

    def amplitude(self, i: int, j: int) -> complex:
        return complex(self.amp[i * self.n + j])


def register_distribution(state: EdgeState, register: int) -> ProbabilityVector:
    """Measurement statistics of one register, the other traced out."""
    return ProbabilityVector(_register_probs(state, register))


def _register_probs(state: EdgeState, register: int) -> np.ndarray:
    # unchecked; build_family validates the columns once, as its member matrix
    if register not in (1, 2):
        raise ValueError("register must be 1 or 2")
    probs = np.abs(state.amp.reshape(state.n, state.n)) ** 2
    return probs.sum(axis=1) if register == 1 else probs.sum(axis=0)


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
        if steps < 0:
            raise ValueError("steps must be nonnegative")
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
        n, d = self.n, self.n * self.n
        refl = -np.eye(d, dtype=complex)
        for i in range(n):
            col = self._sqrt_g[:, i]
            block = slice(i * n, (i + 1) * n)
            refl[block, block] += 2.0 * np.outer(col, col)
        swap_index = np.arange(d).reshape(n, n).T.reshape(-1)
        return refl[swap_index, :]

    def _eigenphases(self) -> np.ndarray:
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
        g = self.source.g
        _, x = np.linalg.eigh(np.sqrt(g * g.T))
        b = x.T[:, :, None] * self._sqrt_g.T[None, :, :]  # b[k] = A x_k as an N x N grid
        bt = b.transpose(0, 2, 1)
        theta = 2.0 * np.arctan2(np.linalg.norm(b - bt, axis=(1, 2)),
                                 np.linalg.norm(b + bt, axis=(1, 2)))
        return np.append(theta, np.pi) if self.n >= 2 else theta

    def uniform_superposition(self) -> EdgeState:
        """Equal-amplitude combination of all proxy states, (1/sqrt(N)) sum_i |psi_i>.

        The proxies are mutually orthogonal (distinct first-register values),
        so the combination is automatically unit norm.
        """
        a = (self._sqrt_g.T / math.sqrt(self.n)).astype(complex)
        return EdgeState(a.reshape(-1))
