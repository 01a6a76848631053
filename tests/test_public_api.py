"""The exported names: adding or removing one has to edit this list."""
from __future__ import annotations

import kdvexact

EXPORTS = [
    "BoundState", "ComplexPolePair", "FLAG_NEAR_SINGULAR", "FLAG_OK", "FLAG_OVERFLOW",
    "FormalModeError", "GammaEvaluator", "ImaginaryPole", "KdvExactError", "LyapunovSolveError",
    "NumericalError", "OmegaQuadratureCheck", "OverflowDetectedError", "PositivityWindow",
    "RefinementReport", "ResidualScan", "ScatteringSpec", "SchemaError", "SingularMatrixError",
    "SolitonEquivalence", "SolutionGrid", "SolutionSample", "SpecValidationError", "Triplet",
    "TripletDiagnostics", "__version__", "build_reflection_triplet", "build_triplet",
    "eval_reflection", "make_evaluator", "marchenko_residual", "omega_quadrature_check",
    "pde_residual", "pde_residual_refinement", "positivity_scan",
    "reflection_partial_fractions", "sample_grid", "soliton_equivalence", "validate_triplet",
]


def test_exported_names_are_pinned():
    assert sorted(kdvexact.__all__) == EXPORTS
    assert all(hasattr(kdvexact, name) for name in kdvexact.__all__)
