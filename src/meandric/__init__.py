"""Exact and Monte Carlo statistics of loop shapes in random meandric
systems.

A meandric system of size n is a pair of non-crossing perfect matchings
of ``{1, ..., 2n}`` drawn in opposite half-planes, forming disjoint
closed loops that cross the horizontal axis at ``1..2n``.  This package
computes, exactly, the placement constants and central-limit-theorem
coefficients of the count of loops of any fixed shape, validates them
against complete enumeration at small sizes, and verifies the limit law
empirically with an exactly uniform sampler at large sizes.
"""

from .combinatorics import (
    NonCrossingMatching,
    catalan,
    choose,
    enumerate_matchings,
)
from .errors import (
    CapExceededError,
    FormulaMismatchError,
    InvalidMatchingError,
    InvalidShapeError,
    MeandricError,
    OracleInvariantError,
    ShapeInvariantError,
    WeakShapeError,
)
from .meanders import (
    Component,
    MeandricSystem,
    Shape,
    arcs_at,
    component_shape,
    components,
    count_shape,
    enumerate_shapes,
    format_shape,
    parse_shape,
    simple_loop,
)
from .analysis import (
    CltParameters,
    FaceDecomposition,
    HypothesisReport,
    OverlapInfo,
    ShapeConstants,
    TightnessProfile,
    clt_hypothesis_check,
    closed_form_pair_probability,
    clt_parameters,
    constants_report,
    disjoint_moment_term,
    face_decomposition,
    factorial_moment_strong,
    log_factorial_moment_asymptotic,
    shape_constants,
    tightness_profile,
)
from .oracle import (
    MomentReport,
    block_spectrum,
    distribution_csv,
    enumerate_systems,
    exact_distribution,
    exact_factorial_moment,
    exact_pair_probability,
    moment_report,
)
from .sampling import (
    ExperimentConfig,
    GateReport,
    SampleSummary,
    UniformityReport,
    anderson_darling_statistic,
    chi_square_uniformity,
    evaluate_gates,
    matching_uniformity,
    run_experiment,
    sample_matching,
    sample_system,
)

__version__ = "0.1.0"
