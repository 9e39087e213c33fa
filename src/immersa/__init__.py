"""Crossing sums, rotation numbers, and linking invariants of graphs
drawn generically in the plane.

The package computes exact cycle censuses of multigraphs, validates
polyline immersions with rational arithmetic, counts and classifies their
crossings, evaluates rotation numbers and weighted linking invariants of
lifts, and constructs immersions with every cycle rotation zero for graphs
without a K4 minor.  The command line lives in immersa.cli (installed as
the "immersa" script).
"""

from .census import (
    CensusRow,
    alpha,
    beta,
    census_table,
    check_sum_divisibility,
    check_sum_invariance,
    girth,
    pair_orientation_convention,
    tb_ratio,
)
from .diagrams import (
    Diagram,
    L_invariant,
    crossing_change,
    ell,
    random_lift,
    tb,
    tb_by_length,
    tb_total,
    writhe_cycle,
)
from .epsilon import EpsilonTable, epsilon_table
from .formats import (
    ParseError,
    format_number,
    named_graph_label,
    parse_diagram,
    parse_graph,
    parse_immersion,
    parse_number,
    serialize_diagram,
    serialize_graph,
    serialize_immersion,
)
from .graphs import (
    Cycle,
    MultiGraph,
    block_decomposition,
    build_named,
    complete_bipartite_graph,
    complete_graph,
    disjoint_edge_pairs,
    edge_distance,
    edge_pairs_at_distance,
    enumerate_cycles,
    has_K4_minor,
    heawood_graph,
    multi_triangle,
    petersen_graph,
    sp_reduction_trace,
    theta_graph,
)
from .immersion import (
    CrossingRecord,
    GenericityReport,
    PlaneImmersion,
    crossings,
    cycle_crossing_number,
    kappa,
    random_immersion,
    rotation_number,
    rotation_sum,
    sum_crossing,
    validate,
)
from .sp import (
    HeightCertificate,
    K4MinorError,
    SPTree,
    construct_zero_rotation,
    random_sp_graph,
    sp_decompose,
    verify_zero,
    zero_rotation_certificates,
)
from .standard import MODEL_NAMES, standard_immersion
from .svg import SvgScene, build_scene, render_svg, svg_document
from .verify import CheckVerdict, detect_theorem, run_checks, theorem_ids

__version__ = "0.1.0"

__all__ = [
    "CensusRow", "alpha", "beta", "census_table", "check_sum_divisibility",
    "check_sum_invariance", "girth", "pair_orientation_convention",
    "tb_ratio",
    "Diagram", "L_invariant", "crossing_change", "ell", "random_lift",
    "tb", "tb_by_length", "tb_total", "writhe_cycle",
    "EpsilonTable", "epsilon_table",
    "ParseError", "format_number", "named_graph_label", "parse_diagram",
    "parse_graph", "parse_immersion", "parse_number", "serialize_diagram",
    "serialize_graph", "serialize_immersion",
    "Cycle", "MultiGraph", "block_decomposition",
    "build_named", "complete_bipartite_graph", "complete_graph",
    "disjoint_edge_pairs", "edge_distance", "edge_pairs_at_distance",
    "enumerate_cycles", "has_K4_minor", "heawood_graph", "multi_triangle",
    "petersen_graph", "sp_reduction_trace", "theta_graph",
    "CrossingRecord", "GenericityReport", "PlaneImmersion", "crossings",
    "cycle_crossing_number", "kappa", "random_immersion", "rotation_number",
    "rotation_sum", "sum_crossing", "validate",
    "HeightCertificate", "K4MinorError", "SPTree", "construct_zero_rotation",
    "random_sp_graph", "sp_decompose", "verify_zero",
    "zero_rotation_certificates",
    "MODEL_NAMES", "standard_immersion",
    "SvgScene", "build_scene", "render_svg", "svg_document",
    "CheckVerdict", "detect_theorem", "run_checks", "theorem_ids",
    "__version__",
]
