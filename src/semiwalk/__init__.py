"""Szegedy walk operators, their measured walk families, and node ranking."""

# set before the submodule imports, so a submodule may import it
__version__ = "0.1.0"

from .errors import (
    DanglingNodeError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InsufficientRangeError,
    NegativeWeightError,
    NotStochasticError,
    ParseError,
    RankFailedError,
    SemiwalkError,
    TooLargeError,
    TooSmallError,
    UnsupportedSizeError,
)
from .graphs import (
    Classification,
    ProbabilityVector,
    TransitionMatrix,
    WeightedGraph,
    classify,
    deserialize,
    from_weights,
    serialize,
    validate,
)
from .szegedy import EdgeState, SzegedyOperator, register_distribution
from .family import (
    SemiclassicalFamily,
    build_families,
    build_family,
    distinct_matrices,
    family_period,
    semiclassical_matrix,
    unitary_period,
)
from .cycles import (
    CyclePrediction,
    components,
    cycle_graph,
    cycle_predictions,
    cycle_semiclassical,
)
from .dynamics import (
    LimitResult,
    RankingResult,
    asymmetry,
    evolve,
    limiting_distribution,
    rank_family,
    sample_trajectories,
    semiclassical_rank,
)
from .circuit import (
    CircuitDescription,
    GateOp,
    build_circuit,
    export_openqasm,
    parse_openqasm,
    prep_angles,
    segment_channel,
    simulate_circuit,
    verify_block,
    walk_block_gates,
)
from .instances import asymmetric_ring, symmetric_hub, two_node_chain
