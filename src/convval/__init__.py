"""Exact piecewise-linear convexity: functions, bodies, valuations.

Everything is computed over exact rationals (gmpy2 when available, the
standard library otherwise): max-affine convex functions with Legendre
conjugation, polytopes with difference and projection bodies, a family of
measure-driven valuations on convex functions, and deterministic property
suites that exercise their defining identities.
"""

from .analysis import (
    HingePair,
    ScalarValuation,
    convergence_probe,
    falsify_contravariance,
    find_strict_majorant,
    hinge_pair,
    homogeneous_decompose,
    locality_check,
    polarize,
    valuation_identity_check,
)
from .errors import (
    CapabilityLimit,
    ConvvalError,
    DimensionMismatch,
    ParseError,
    PieceBudgetExceeded,
)
from .generators import (
    paraboloid_tangents,
    rand_gl_matrix,
    rand_hinge_pair,
    rand_maxaffine,
    rand_point,
    rand_polytope,
    rand_sl_matrix,
    rand_valid_measure,
    rng_for,
)
from .lifted import (
    POS_INF,
    LiftedPolytope,
    conjugate,
    conjugate_cd,
    floor_map,
    is_min_convex,
    min_convex_hull,
)
from .linalg import RationalMatrix
from .maxaffine import (
    MAX_HULL_DIM,
    MaxAffineFn,
    add,
    compose_linear,
    max_of,
    prune,
    scale,
)
from .polytopes import (
    Polytope,
    cut_pair,
    difference_body,
    difference_body_support,
    facet_area_vectors,
    minkowski_sum,
    projection_body_support,
    volume,
)
from .rational import BACKEND, Q, format_rational, parse_rational, rat
from .suites import (
    SUITES,
    SuiteReport,
    emit_report,
    replay_witness,
    report_doc,
    run_suite,
)
from .valuations import (
    DiscreteMeasure,
    ValuationSpec,
    lift_vector_map,
    psi_eval,
    psi_expand,
    validate_measure,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "CapabilityLimit",
    "ConvvalError",
    "DimensionMismatch",
    "DiscreteMeasure",
    "HingePair",
    "LiftedPolytope",
    "MAX_HULL_DIM",
    "MaxAffineFn",
    "POS_INF",
    "ParseError",
    "PieceBudgetExceeded",
    "Polytope",
    "Q",
    "RationalMatrix",
    "SUITES",
    "ScalarValuation",
    "SuiteReport",
    "ValuationSpec",
    "add",
    "compose_linear",
    "conjugate",
    "conjugate_cd",
    "convergence_probe",
    "cut_pair",
    "difference_body",
    "difference_body_support",
    "emit_report",
    "facet_area_vectors",
    "falsify_contravariance",
    "find_strict_majorant",
    "floor_map",
    "format_rational",
    "hinge_pair",
    "homogeneous_decompose",
    "is_min_convex",
    "lift_vector_map",
    "locality_check",
    "max_of",
    "min_convex_hull",
    "minkowski_sum",
    "paraboloid_tangents",
    "parse_rational",
    "polarize",
    "projection_body_support",
    "prune",
    "psi_eval",
    "psi_expand",
    "rand_gl_matrix",
    "rand_hinge_pair",
    "rand_maxaffine",
    "rand_point",
    "rand_polytope",
    "rand_sl_matrix",
    "rand_valid_measure",
    "rat",
    "replay_witness",
    "report_doc",
    "rng_for",
    "run_suite",
    "scale",
    "validate_measure",
    "valuation_identity_check",
    "volume",
]
