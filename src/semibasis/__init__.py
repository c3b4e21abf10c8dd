"""Exact PBW-to-semicanonical transition matrices for linear A_n quivers.

The package computes, in exact integer arithmetic, the change of basis
between the PBW basis attached to the indecomposable representations of
the linearly oriented A_n quiver and the basis indexed by irreducible
components of the nilpotent variety, certifying unitriangularity with
respect to the degeneration order along the way.

    >>> from semibasis import Quiver, transition_matrix
    >>> result = transition_matrix(Quiver(2), (2, 2))
    >>> [list(row) for row in result.matrix]
    [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
"""

from .errors import (
    CertificationError,
    ConsensusError,
    DeltaCheckError,
    InternalCheckError,
    InterpolationError,
    ParseError,
    RouteDisagreementError,
    SemibasisError,
)
from .hall import (
    PBWVector,
    SerreReport,
    check_serre,
    flag_word_matrix,
    hall_counts_simple_top,
    left_mul_divided_power,
    pbw_to_words,
    realize,
    iso_class,
    word_to_pbw,
)
from .nilpotent import (
    LambdaPoint,
    RhoEvaluator,
    lift_generic,
)
from .quiver import (
    Multisegment,
    Quiver,
    deg_leq,
    enumerate_multisegments,
    euler_form,
    ext_dim,
    flag_vertex,
    format_word,
    generic_ext_simple,
    hom_dim,
    parse_word,
    peel_component,
    peel_top,
    refine_order,
    t_component,
    t_top,
    total_generic_flag,
    word_weight,
)
from .torus import graded_point
from .semican import (
    CertifiedTransition,
    SemicanBasis,
    transition_matrix,
    transition_via_inversion,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CertifiedTransition",
    "ConsensusError",
    "DeltaCheckError",
    "InternalCheckError",
    "InterpolationError",
    "LambdaPoint",
    "Multisegment",
    "PBWVector",
    "ParseError",
    "Quiver",
    "RhoEvaluator",
    "RouteDisagreementError",
    "SemibasisError",
    "SemicanBasis",
    "SerreReport",
    "check_serre",
    "deg_leq",
    "enumerate_multisegments",
    "euler_form",
    "ext_dim",
    "flag_vertex",
    "flag_word_matrix",
    "format_word",
    "generic_ext_simple",
    "graded_point",
    "hall_counts_simple_top",
    "hom_dim",
    "iso_class",
    "left_mul_divided_power",
    "lift_generic",
    "parse_word",
    "pbw_to_words",
    "peel_component",
    "peel_top",
    "realize",
    "refine_order",
    "t_component",
    "t_top",
    "total_generic_flag",
    "transition_matrix",
    "transition_via_inversion",
    "word_to_pbw",
    "word_weight",
    "__version__",
]
