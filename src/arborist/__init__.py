"""Exact certification of surjective arboreal Galois representations for
quadratic maps x^2 + c over Q with strictly preperiodic base points."""

from .backorbit import RenderConfig, points_csv, render, sample_backward
from .critorbit import (
    AdjustedOrbit,
    LawCheck,
    SignPrediction,
    check_valuations,
    congruence_check,
    d_sequence,
    numerator_recursion,
    orbit_report,
    sign_predict,
)
from .dynamics import QuadMap, family1, family2
from .errors import DegenerateBasePoint, InvariantViolation, UsageError
from .exactnum import (
    factor_refine,
    is_perfect_square,
    jacobi,
    parse_rational,
    rational_is_square,
)
from .independence import (
    CoprimeBasis,
    IndependenceResult,
    brute_force_independent,
    square_classes,
    two_independent,
)
from .search import SearchConfig, SearchSummary
from .verdict import (
    DeltaE,
    Verdict,
    VerdictStatus,
    certify,
    compute_delta_e,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedOrbit",
    "CoprimeBasis",
    "DegenerateBasePoint",
    "DeltaE",
    "IndependenceResult",
    "InvariantViolation",
    "LawCheck",
    "QuadMap",
    "RenderConfig",
    "SearchConfig",
    "SearchSummary",
    "SignPrediction",
    "UsageError",
    "Verdict",
    "VerdictStatus",
    "brute_force_independent",
    "certify",
    "check_valuations",
    "compute_delta_e",
    "congruence_check",
    "d_sequence",
    "factor_refine",
    "family1",
    "family2",
    "is_perfect_square",
    "jacobi",
    "numerator_recursion",
    "orbit_report",
    "parse_rational",
    "points_csv",
    "rational_is_square",
    "render",
    "sample_backward",
    "sign_predict",
    "square_classes",
    "two_independent",
]
