"""Explicit half-line KdV solutions from matrix triplets.

Build (A, B, C) realizations from rational reflection data and bound
states, evaluate u(x, t) = -2 d^2/dx^2 log det Gamma(x, t) in closed
form, and verify the result independently: PDE residuals, the
integral-equation residual of the Marchenko kernel, a Fourier
quadrature cross-check, determinant positivity scans, and N-soliton
reduction.
"""
from .errors import (
    FormalModeError,
    KdvExactError,
    LyapunovSolveError,
    NumericalError,
    OverflowDetectedError,
    SchemaError,
    SingularMatrixError,
    SpecValidationError,
)
from .realization import (
    BoundState,
    ComplexPolePair,
    ImaginaryPole,
    ScatteringSpec,
    Triplet,
    TripletDiagnostics,
    build_reflection_triplet,
    build_triplet,
    eval_reflection,
    reflection_partial_fractions,
    validate_triplet,
)
from .solution import (
    FLAG_NEAR_SINGULAR,
    FLAG_OK,
    FLAG_OVERFLOW,
    GammaEvaluator,
    SolutionGrid,
    SolutionSample,
    make_evaluator,
    sample_grid,
)
from .verification import (
    OmegaQuadratureCheck,
    PositivityWindow,
    RefinementReport,
    ResidualScan,
    SolitonEquivalence,
    marchenko_residual,
    omega_quadrature_check,
    pde_residual,
    pde_residual_refinement,
    positivity_scan,
    soliton_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "ComplexPolePair",
    "FLAG_NEAR_SINGULAR",
    "FLAG_OK",
    "FLAG_OVERFLOW",
    "FormalModeError",
    "GammaEvaluator",
    "ImaginaryPole",
    "KdvExactError",
    "LyapunovSolveError",
    "NumericalError",
    "OmegaQuadratureCheck",
    "OverflowDetectedError",
    "PositivityWindow",
    "RefinementReport",
    "ResidualScan",
    "ScatteringSpec",
    "SchemaError",
    "SingularMatrixError",
    "SolitonEquivalence",
    "SolutionGrid",
    "SolutionSample",
    "SpecValidationError",
    "Triplet",
    "TripletDiagnostics",
    "build_reflection_triplet",
    "build_triplet",
    "eval_reflection",
    "make_evaluator",
    "marchenko_residual",
    "omega_quadrature_check",
    "pde_residual",
    "pde_residual_refinement",
    "positivity_scan",
    "reflection_partial_fractions",
    "sample_grid",
    "soliton_equivalence",
    "validate_triplet",
    "__version__",
]
