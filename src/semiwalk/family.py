"""Walk families over quantum time and their periodicities.

For each number of walk applications between measurements, ``t_q``, measuring
one register of ``U^t_q |psi_i>`` yields a column-stochastic matrix; the
ordered collection over ``t_q = 1..t_q_max`` is the walk family of the input
matrix. Class 1 measures the first register, class 2 the second. ``t_q = 0``
(the identity, no evolution at all) is not a walk and is never a member.

Two periods are computed. ``family_period`` compares the measured members;
``unitary_period`` asks when the walk operator itself returns to the
identity, read off U's eigenphases rather than dense powers of U.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientRangeError
from .graphs import TransitionMatrix, serialize
from .szegedy import EdgeState, SzegedyOperator, _register_probs

MATRIX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SemiclassicalFamily:
    """Members indexed by quantum time, member(t_q) for t_q = 1..t_q_max."""

    source: TransitionMatrix
    class_tag: int
    members: tuple[TransitionMatrix, ...]

    def __post_init__(self):
        if self.class_tag not in (1, 2):
            raise ValueError("class_tag must be 1 or 2")
        if not self.members:
            raise ValueError("a family needs at least one member")

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


def _measure_columns(states: list[EdgeState], class_tag: int) -> TransitionMatrix:
    cols = [_register_probs(s, class_tag) for s in states]
    return TransitionMatrix(np.column_stack(cols))


def semiclassical_matrix(g: TransitionMatrix, t_q: int, class_tag: int) -> TransitionMatrix:
    """Measurement statistics of t_q walk steps from every proxy state.

    Column i is the distribution of the measured register of U^t_q |psi_i>;
    this is member t_q of :func:`build_family`.
    """
    return build_family(g, class_tag, t_q).member(t_q)


def build_family(g: TransitionMatrix, class_tag: int, t_q_max: int) -> SemiclassicalFamily:
    """Members for t_q = 1..t_q_max, evolving the proxy states incrementally.

    The N proxy states are advanced one step per t_q rather than recomputed,
    so the whole family costs O(N^3) per member.
    """
    if t_q_max < 1:
        raise ValueError("t_q_max must be >= 1")
    if class_tag not in (1, 2):
        raise ValueError("class_tag must be 1 or 2")
    op = SzegedyOperator(g)
    states = [op.proxy_state(i) for i in range(g.n)]
    members = []
    for _ in range(t_q_max):
        states = [op.apply(s) for s in states]
        members.append(_measure_columns(states, class_tag))
    return SemiclassicalFamily(source=g, class_tag=class_tag, members=tuple(members))


def family_period(f: SemiclassicalFamily, tol: float = MATRIX_TOL) -> int | None:
    """Smallest period of the member sequence, certified over two full cycles.

    A candidate p must match member(t_q + p) == member(t_q) for every t_q the
    range can witness; it is only certified when t_q_max >= 2p. Returns None
    when nothing matches, and raises InsufficientRangeError when a candidate
    matches but the range is too short to see it twice.
    """
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
    theta = SzegedyOperator(g)._eigenphases()
    for p in range(1, t_max + 1):
        if np.abs(np.exp(1j * p * theta) - 1.0).max() <= tol:
            return p
    return None
