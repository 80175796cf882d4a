"""Finite-scale Assouad/star and lower dimension toolkit on b-adic
cube trees: exact counting estimators and constructive extraction of
subsets with prescribed dimension estimates."""

from .core import (CubeTree, DomainError, SetFormatError, Window,
                   WindowedSet, corners_tree, leaf_corners, read_bdt,
                   read_wdt, write_bdt, write_wdt)
from .estimators import (DimensionReport, ScaleRecord, ball_cover_count,
                         h_star, lower_dimension_report,
                         star_dimension_report, verify_cover_pack_sandwich)
from .extract_assouad import (ConstructionTrace, PruneParams,
                              check_gap_condition, construct_subset_assouad,
                              construct_subset_assouad_global,
                              find_dense_window, prune, sandwich_assemble)
from .extract_lower import (BallTree, LowerParams, construct_subset_lower,
                            select_packing_children, verify_lower_bounds)
from .generators import (GeneratorSpec, generate, oracle_exact_hstar,
                         random_branching_tree)

__version__ = "1.0.0"

__all__ = [
    "CubeTree", "DomainError", "SetFormatError", "Window", "WindowedSet",
    "corners_tree", "leaf_corners", "read_bdt", "read_wdt", "write_bdt",
    "write_wdt",
    "DimensionReport", "ScaleRecord", "ball_cover_count", "h_star",
    "lower_dimension_report", "star_dimension_report",
    "verify_cover_pack_sandwich",
    "ConstructionTrace", "PruneParams", "check_gap_condition",
    "construct_subset_assouad", "construct_subset_assouad_global",
    "find_dense_window", "prune", "sandwich_assemble",
    "BallTree", "LowerParams", "construct_subset_lower",
    "select_packing_children", "verify_lower_bounds",
    "GeneratorSpec", "generate", "oracle_exact_hstar",
    "random_branching_tree",
    "__version__",
]
