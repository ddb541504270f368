"""Reference graphs used by the examples, presets and tests."""

from __future__ import annotations

import numpy as np

from .graphs import TransitionMatrix, _circulant


def two_node_chain() -> TransitionMatrix:
    """Asymmetric two-node chain with a non-uniform equilibrium.

    Node 0 keeps the walker with probability 0.1 and sends it to node 1 with
    0.9; node 1 keeps it with 0.8. Small enough for the two-qubit circuit,
    asymmetric enough that the limit is far from uniform.
    """
    return TransitionMatrix(np.array([[0.1, 0.2], [0.9, 0.8]]))


def symmetric_hub() -> TransitionMatrix:
    """Symmetric but inhomogeneous 7-node graph built around a degree-4 hub.

    Nodes 0, 1, 2 are leaves with self-loops hanging off hub node 3 with
    three different weights (node 1 the strongest); node 3 also links to the
    secondary hub 4, which connects to the interlinked pair 5, 6. The
    transition matrix is exactly symmetric, so the classical limit is
    uniform, while the unequal connectivity patterns make it inhomogeneous.
    """
    g = np.array([
        [0.70, 0.00, 0.00, 0.30, 0.00, 0.00, 0.00],
        [0.00, 0.50, 0.00, 0.50, 0.00, 0.00, 0.00],
        [0.00, 0.00, 0.90, 0.10, 0.00, 0.00, 0.00],
        [0.30, 0.50, 0.10, 0.00, 0.10, 0.00, 0.00],
        [0.00, 0.00, 0.00, 0.10, 0.00, 0.40, 0.50],
        [0.00, 0.00, 0.00, 0.00, 0.40, 0.25, 0.35],
        [0.00, 0.00, 0.00, 0.00, 0.50, 0.35, 0.15],
    ])
    return TransitionMatrix(g)


def asymmetric_ring(n: int = 7) -> TransitionMatrix:
    """Homogeneous but asymmetric ring: every node links to i+1, i-1 and i+3.

    The forward weight (0.5) differs from the backward weight (0.2), so the
    matrix is circulant yet not symmetric.
    """
    if n < 5:
        raise ValueError("offsets 1, -1 and 3 need n >= 5")
    offsets = np.zeros(n)
    offsets[1] = 0.5
    offsets[n - 1] = 0.2
    offsets[3] = 0.3
    return TransitionMatrix(_circulant(offsets))
