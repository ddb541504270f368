import numpy as np
import pytest

from semiwalk.corpus import random_stochastic_corpus
from semiwalk.graphs import ProbabilityVector
from semiwalk.instances import symmetric_hub, two_node_chain


@pytest.fixture
def two_node():
    return two_node_chain()


@pytest.fixture
def hub():
    return symmetric_hub()


@pytest.fixture
def p0_experiment():
    return ProbabilityVector(np.array([0.8, 0.2]))


@pytest.fixture(scope="session")
def theorem_corpus():
    """100 seeded column-stochastic matrices cycling n = 2..8."""
    return random_stochastic_corpus(100, seed=0)


def stationary_2x2(g: np.ndarray) -> np.ndarray:
    """Independent closed-form stationary vector of a 2x2 column-stochastic matrix."""
    b, c = g[0, 1], g[1, 0]
    return np.array([b, c]) / (b + c)


def closure_by_squaring(edges: np.ndarray) -> np.ndarray:
    """Independent reachability oracle: r[j, i] is whether j is reachable from
    i along edges[j, i]: i -> j. Squares a uint8 matrix (no BLAS) until
    nothing changes; its path counts stay exact below n = 256."""
    n = len(edges)
    adj = edges.T.astype(np.uint8)  # adj[i, j]: edge i -> j
    reach = adj | np.eye(n, dtype=np.uint8)
    while True:
        nxt = ((reach @ reach) > 0).astype(np.uint8) | reach
        if (nxt == reach).all():
            break
        reach = nxt
    return reach.T.astype(bool)
