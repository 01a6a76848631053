"""Exception types shared across the package.

The CLI maps these onto exit codes: SpecValidationError and its
subclasses mean bad input (exit 2), NumericalError means a numerical
failure such as overflow or a singular system (exit 3). Verification
failures are reported through return values, not exceptions.
"""
from __future__ import annotations


class KdvExactError(Exception):
    """Base class for all package errors."""


class SpecValidationError(KdvExactError, ValueError):
    """Invalid scattering data, triplet, grid, or document field."""


class SchemaError(SpecValidationError):
    """Malformed input document. Carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class FormalModeError(SpecValidationError):
    """Operation requires min Re(eigenvalue) > 0 but the triplet lacks it."""


class NumericalError(KdvExactError, RuntimeError):
    """Base class for numerical failures."""


class OverflowDetectedError(NumericalError):
    """A computed quantity left the finite float64 range."""


class SingularMatrixError(NumericalError):
    """A pivot fell below the singularity threshold."""


class LyapunovSolveError(NumericalError):
    """The Lyapunov system is singular (some eigenvalue sum vanishes)."""
