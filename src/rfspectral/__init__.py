"""Pseudospectral Riesz-Feller and Weyl-Marchaud fractional operators on the
real line, via a mapped Fourier basis and an operational matrix."""

from .basis import CoeffVector, SpectralGrid, analyze, make_grid, mode_numbers, synthesize
from .closedform import (
    CLOSED_FORMS,
    AuxDecomposition,
    ClosedFormFunction,
    OperatorKind,
    frac_lap_lambda,
    op_lambda,
    reference_operator,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DivergenceError,
    FormatError,
    NumericError,
    TrackingError,
)
from .evolve import (
    EvolutionConfig,
    FisherSystem,
    FrontTrace,
    RegressionResult,
    fit_exponential,
    front_position,
    initial_condition,
    rk4_evolve,
)
from .operators import ApplyReport, apply_reference, apply_with_aux, sweep_errors
from .opmatrix import (
    OperatorMatrix,
    apply,
    build_base_matrix,
    deserialize,
    scale_to_operator,
    serialize,
)
from .oracle import quad_operator
from .specfun import (
    RatioKind,
    c_alpha,
    hyp2f1_terminating,
    kummer_1f1,
    ratio_table,
    rf_coeffs,
)

__version__ = "0.1.0"
