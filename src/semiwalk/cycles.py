"""Closed forms for the walk family of 1D cycles, plus component decomposition.

On the N-cycle with equal hop weights, t_q walk steps send node i to i + t_q
or i - t_q (mod N) with probability 1/2 each, so every family member is known
in closed form. This module is the analytic oracle the general pipeline is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLargeError, TooSmallError
from .graphs import MAX_NODES, SUPPORT_TOL, TransitionMatrix, _check_int, _circulant, _reach


@dataclass(frozen=True)
class CyclePrediction:
    """Counts and periods the closed form predicts for the N-cycle."""

    n: int
    distinct_count: int
    family_period: int
    unitary_period: int


def cycle_graph(n: int) -> TransitionMatrix:
    """Transition matrix of the n-cycle: jump to either neighbor with 1/2.

    This is the closed-form member at t_q = 1, which is the input itself.
    """
    return cycle_semiclassical(n, 1)


def cycle_semiclassical(n: int, t_q: int) -> TransitionMatrix:
    """Closed-form family member: node i links to i +/- t_q (mod n).

    n = 2 is rejected: the two neighbors coincide there, which the cycle
    formulas do not model. n above ``graphs.MAX_NODES`` is rejected before
    the n x n matrix is allocated.
    """
    _check_int("n", n)
    if n < 3:
        raise TooSmallError(f"cycle formulas need n >= 3, got {n}")
    if n > MAX_NODES:
        raise TooLargeError(f"n = {n} exceeds MAX_NODES = {MAX_NODES}")
    _check_int("t_q", t_q, 1)
    return TransitionMatrix(_cycle_member(n, t_q))


def _cycle_member(n: int, t_q: int) -> np.ndarray:
    """The array of ``cycle_semiclassical(n, t_q)``, unchecked: 1/2 at offsets
    +t_q and -t_q. Where the two coincide (2 t_q divisible by n) the halves
    add to exactly 1."""
    offsets = np.zeros(n)
    offsets[t_q % n] = 0.5
    offsets[-t_q % n] += 0.5
    return _circulant(offsets)


def cycle_predictions(n: int) -> CyclePrediction:
    """Distinct-member count and both periods for the n-cycle.

    floor(n/2) + 1 distinct members, family period n, and the walk operator
    itself repeats after n steps for even n but only after 2n for odd n.
    """
    _check_int("n", n)
    if n < 3:
        raise TooSmallError(f"cycle formulas need n >= 3, got {n}")
    return CyclePrediction(
        n=n,
        distinct_count=n // 2 + 1,
        family_period=n,
        unitary_period=n if n % 2 == 0 else 2 * n,
    )


def components(m: TransitionMatrix, tol: float = SUPPORT_TOL) -> list[list[int]]:
    """Strongly connected components of the support digraph of m.

    Edge i -> j exists iff g[j, i] > tol; i and j share a component when
    each reaches the other. Components are returned in order of their lowest
    node, each sorted internally.
    """
    reach = _reach(m.g > tol)
    # row i of reach & reach.T is i's component; i is its lowest node iff i is the row's first
    return [np.flatnonzero(row).tolist() for i, row in enumerate(reach & reach.T) if row.argmax() == i]
