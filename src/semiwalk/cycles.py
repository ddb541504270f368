"""Closed forms for the walk family of 1D cycles, plus component decomposition.

On the N-cycle with equal hop weights, t_q walk steps send node i to i + t_q
or i - t_q (mod N) with probability 1/2 each, so every family member is known
in closed form. This module is the analytic oracle the general pipeline is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import TooLargeError, TooSmallError
from .graphs import MAX_NODES, SUPPORT_TOL, TransitionMatrix, _blocks, _check_int, _reach


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


def _cycle_member(n: int, t_q) -> np.ndarray:
    """The array of ``cycle_semiclassical(n, t_q)``, unchecked: 1/2 at offsets
    +t_q and -t_q. Where the two coincide (2 t_q divisible by n) the halves
    add to exactly 1. For a 1-D array of t_q, the (k, n, n) stack of them."""
    ts = np.reshape(t_q, (-1, 1))
    out = np.zeros((len(ts), n, n))
    k, i = np.arange(len(ts))[:, None], np.arange(n)
    out[k, (i + ts) % n, i] = 0.5
    out[k, (i - ts) % n, i] += 0.5
    return out.reshape(np.shape(t_q) + (n, n))


def _closed_form_deviation(stack: np.ndarray) -> float:
    """max |cycle_semiclassical(n, t) - stack[t - 1]| over the members t =
    1..T of a (T, n, n) stack, ``graphs.STREAM_BLOCK`` entries at a time."""
    n = stack.shape[-1]
    return max((float(np.abs(_cycle_member(n, np.arange(s.start + 1, s.stop + 1)) - stack[s]).max())
                for s in _blocks(len(stack), n * n, graphs.STREAM_BLOCK)), default=0.0)


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


def components(m: TransitionMatrix) -> list[list[int]]:
    """Strongly connected components of the support digraph of m.

    Edge i -> j exists iff g[j, i] > SUPPORT_TOL; i and j share a component when
    each reaches the other. Components are returned in order of their lowest
    node, each sorted internally. The one-matrix case of ``_components``.
    """
    return _components(m.g[None])[0]


def _components(g: np.ndarray) -> list[list[list[int]]]:
    """``components`` of each matrix of a (k, N, N) stack: per block of ``graphs.STREAM_BLOCK``
    entries, one stacked reachability closure and one ``argmax`` over the mutual reach."""
    n = g.shape[-1]
    out = []
    for s in _blocks(len(g), n * n, graphs.STREAM_BLOCK):
        reach = _reach(g[s] > SUPPORT_TOL)
        mutual = reach & np.swapaxes(reach, -1, -2)
        # row i of a matrix's mutual reach is i's component; i leads it iff i is its first node
        ks, leads = np.nonzero(mutual.argmax(axis=-1) == np.arange(n))
        comp, nodes = np.nonzero(mutual[ks, leads])
        nodes = nodes.tolist()
        ends = np.cumsum(np.bincount(comp, minlength=len(ks))).tolist()
        comps = [nodes[a:b] for a, b in zip([0, *ends], ends)]
        per = np.cumsum(np.bincount(ks, minlength=len(reach))).tolist()
        out += [comps[a:b] for a, b in zip([0, *per], per)]
    return out
