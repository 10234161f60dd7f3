"""Proximinal and path-proximinal graphs over finite semimetric spaces."""

from .graphs import (
    Bipartition,
    GraphError,
    SimpleGraph,
    build_graph,
    connected_components,
    find_path,
    graph_union,
    induced_bipartite_subgraph,
    induced_subgraph,
    is_connected,
    prune_isolated,
    validate_path,
)
from .spaces import (
    FiniteSemimetricSpace,
    ProximityReport,
    SpaceClass,
    SpaceError,
    best_approximations,
    build_space,
    check_theorem_2_1,
    classify,
    diameter,
    is_proximinal,
    proximity_report,
    set_distance,
)
from .proximinal import (
    build_proximinal_graph,
    is_bipartite_with_parts,
    verify_proximinal_graph,
    witness_proximinal_metric,
)
from .bepaths import (
    BePathWitness,
    QuotientGraph,
    be_path_witness,
    bpath_pairs,
    enumerate_be_paths,
    find_path_bipartite_partition,
    is_be_path,
    is_path_bipartite,
    is_path_complete,
    is_quotient_complete_bipartite,
    quotient_graph,
    union_of_be_paths,
)
from .path_proximinal import (
    PathProximinalCertificate,
    all_degrees_one,
    build_threshold_graph,
    check_corollary_3_12,
    check_prop_3_22,
    check_structural_conditions,
    check_within_part_separation,
    is_path_proximinal_graph,
    verify_path_proximinal,
    witness_metric_for_path_bipartite,
    witness_ultrametric,
)
from .instances import (
    TruncationParams,
    all_bipartitions,
    enumerate_labeled_graphs,
    example_3_1,
    example_3_2,
    example_3_7,
    example_3_12_truncation,
    example_3_16,
    hamming_graph,
    hypercube_space,
    random_graph,
    random_semimetric_space,
    random_ultrametric_space,
)
from .theorems import SWEEPS, SweepResult

__version__ = "0.1.0"
