"""Dense linear algebra kernels for the triplet solution machinery.

Thin, contract-enforcing wrappers around LAPACK-backed numpy/scipy
routines: matrix exponentials, the Lyapunov solve A Q + Q A = RHS by
Bartels-Stewart (scipy's Schur-based Sylvester solver) with a residual
check, pivoted LU with determinant and solve helpers, eigenvalue
extraction, and the resolvent apply (k I - i A)^{-1} b as one complex
LU solve.

All single-matrix routines detect overflow instead of propagating NaN
and raise typed errors from `errors`; lu_factor and solve take real or
complex matrices, the rest work on real float64. The stacked forms
(expm_stack, lu_factor_stack, lu_solve_stack) work on many small
matrices at once and never raise on numerical trouble: they report it
as masks, or leave it to the caller to mask, so one bad member cannot
stop a whole grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    LyapunovSolveError,
    NumericalError,
    OverflowDetectedError,
    SingularMatrixError,
    SpecValidationError,
)

# Gate values, the same for every caller.
RESIDUAL_TOL = 1e-12   # relative residual bound for verified solves
PIVOT_TOL = 1e-14      # singularity threshold, times max |entry|

# Stacked LU: members up to this size are eliminated all at once, one
# column per numpy step; larger ones go to LAPACK one at a time, where
# the flops outweigh the per-call overhead. Both cost about 4 us per
# 6 x 6 member on a 2-vCPU Xeon.
ELIMINATION_MAX_N = 6


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite real 2-D float64 array.

    Raises SpecValidationError on wrong dimensionality or non-finite
    entries. The returned array is a fresh C-contiguous copy.
    """
    m = np.array(obj, dtype=float, order="C")
    if m.ndim != 2:
        raise SpecValidationError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise SpecValidationError(f"{name}: entries must be finite")
    return m


def _check_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        finite = m[np.isfinite(m)]
        mag = float(np.max(np.abs(finite))) if finite.size else float("inf")
        raise OverflowDetectedError(f"overflow in {what}", magnitude=mag)
    return m


def expm(m: np.ndarray, s: float = 1.0) -> np.ndarray:
    """Matrix exponential of s*m (scaling-and-squaring Pade).

    s = 0 returns the exact identity. Non-finite results raise
    OverflowDetectedError carrying the largest finite magnitude seen.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecValidationError(f"expm: square matrix required, got shape {m.shape}")
    if s == 0.0:
        return np.eye(m.shape[0])
    with np.errstate(over="ignore"):
        scaled = s * m
    if not np.all(np.isfinite(scaled)):
        raise OverflowDetectedError("overflow scaling the expm argument")
    with np.errstate(over="ignore", invalid="ignore"):
        result = sla.expm(scaled)
    return _check_finite(result, f"expm with ||sM||={np.max(np.abs(scaled)):.3g}")


def expm_stack(m: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """Matrix exponentials of s*m for every s in a 1-D array of scales.

    Returns the (len(scales), n, n) stack and a boolean mask of the
    members that overflowed, whose entries are meaningless. Each member
    is computed exactly as expm(m, s) computes it; a zero scale gives
    the exact identity.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(scales, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = s[:, None, None] * m
        overflow = ~np.all(np.isfinite(scaled), axis=(1, 2))
        scaled[overflow] = 0.0
        out = sla.expm(scaled)
    out[s == 0.0] = np.eye(m.shape[0])
    overflow |= ~np.all(np.isfinite(out), axis=(1, 2))
    return out, overflow


def lyapunov_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A Q + Q A = RHS by Bartels-Stewart (scipy.linalg.solve_sylvester).

    A residual above RESIDUAL_TOL * max(1, max |RHS|) raises
    LyapunovSolveError. That catches a spectrum with some
    lambda_i + lambda_j = 0 unless RHS lies in the range of the singular
    map, where a Q exists but is not unique; make_evaluator rejects
    such spectra before solving.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p) or rhs.shape != (p, p):
        raise SpecValidationError(
            f"lyapunov_solve: shapes {a.shape} and {rhs.shape} must both be ({p}, {p})")
    with np.errstate(over="ignore", invalid="ignore"):
        q = sla.solve_sylvester(a, a, rhs)
        resid = float(np.max(np.abs(a @ q + q @ a - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if not resid <= RESIDUAL_TOL * scale:
        raise LyapunovSolveError(
            f"Lyapunov residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} * {scale:.3e} "
            "(an eigenvalue pair summing to zero leaves no solution)")
    return q


@dataclass(frozen=True)
class LuFactors:
    """Pivoted LU factorization of a square matrix, or of a stack of them.

    lu and piv are the packed LAPACK-style factors (row i was swapped
    with row piv[i] at step i); max_abs is the largest absolute entry of
    the original matrix, used for the relative pivot gate. For a stack
    every field gains the leading stack axis, and min_pivot, singular
    and permutation_sign return one value per member.
    """

    lu: np.ndarray
    piv: np.ndarray
    max_abs: float | np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[-1]

    def pivots(self) -> np.ndarray:
        """The diagonal of U, shaped (..., n)."""
        return np.diagonal(self.lu, axis1=-2, axis2=-1)

    def min_pivot(self):
        if not self.n:
            return 0.0
        smallest = np.min(np.abs(self.pivots()), axis=-1)
        return float(smallest) if self.lu.ndim == 2 else smallest

    def singular(self):
        """The pivot gate: min |pivot| <= PIVOT_TOL * max |entry|."""
        return self.min_pivot() <= PIVOT_TOL * np.maximum(self.max_abs, 1e-300)

    def permutation_sign(self):
        swaps = np.count_nonzero(self.piv != np.arange(self.n), axis=-1)
        sign = 1.0 - 2.0 * (swaps % 2)
        return float(sign) if self.lu.ndim == 2 else sign


def lu_factor(m: np.ndarray) -> LuFactors:
    """Factor a real or complex square matrix with partial pivoting."""
    m = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecValidationError(f"lu_factor: square matrix required, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise OverflowDetectedError("overflow in lu_factor input")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact singularity; we diagnose via pivots
        lu, piv = sla.lu_factor(m, check_finite=False)
    return LuFactors(lu=lu, piv=piv, max_abs=float(np.max(np.abs(m))) if m.size else 0.0)


def determinant(factors: LuFactors) -> float:
    """Determinant from the LU diagonal; overflow raises, zero is fine."""
    diag = np.diag(factors.lu)
    det = factors.permutation_sign() * float(np.prod(diag))
    if not np.isfinite(det):
        # recompute in log space to report the magnitude before failing
        with np.errstate(divide="ignore"):
            log_mag = float(np.sum(np.log(np.abs(diag))))
        raise OverflowDetectedError(
            f"determinant overflow, log|det| = {log_mag:.6g}", magnitude=log_mag)
    return det


def solve(factors: LuFactors, rhs: np.ndarray) -> np.ndarray:
    """Back-substitute rhs through the factorization; the pivot gate raises."""
    if factors.singular():
        pivot = factors.min_pivot()
        raise SingularMatrixError(
            f"solve: matrix is singular to working precision (pivot {pivot:.3e})",
            pivot=pivot)
    out = sla.lu_solve((factors.lu, factors.piv), rhs, check_finite=False)
    return _check_finite(out, "solve")


def inverse(factors: LuFactors) -> np.ndarray:
    """Explicit inverse via solves against the identity."""
    return solve(factors, np.eye(factors.n))


def lu_factor_stack(m: np.ndarray) -> LuFactors:
    """Partial-pivoting LU of every matrix in a (k, n, n) stack.

    Up to ELIMINATION_MAX_N, Gaussian elimination runs one column per
    step, vectorized over the stack, with LAPACK's pivot choice (the
    first entry of largest magnitude); a column with a zero pivot is
    left uneliminated, as LAPACK leaves it. Larger members go to LAPACK
    one at a time. Members must be finite; no pivot gate is applied, so
    callers read singular() and mask.
    """
    m = np.asarray(m, dtype=float)
    k, n, _ = m.shape
    max_abs = np.max(np.abs(m), axis=(1, 2)) if n else np.zeros(k)
    piv = np.empty((k, n), dtype=np.intp)
    if n > ELIMINATION_MAX_N:
        lu = np.empty_like(m)
        for i in range(k):
            lu[i], piv[i], _ = sla.lapack.dgetrf(m[i])
        return LuFactors(lu=lu, piv=piv, max_abs=max_abs)
    lu = m.copy()
    members = np.arange(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            p = j + np.argmax(np.abs(lu[:, j:, j]), axis=1)
            piv[:, j] = p
            row = lu[members, j].copy()
            lu[members, j] = lu[members, p]
            lu[members, p] = row
            pivot = lu[:, j, j]
            lu[:, j + 1:, j] /= np.where(pivot == 0.0, 1.0, pivot)[:, None]
            lu[:, j + 1:, j + 1:] -= lu[:, j + 1:, j, None] * lu[:, j, None, j + 1:]
    return LuFactors(lu=lu, piv=piv, max_abs=max_abs)


def lu_solve_stack(factors: LuFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve every system of a factored (k, n, n) stack.

    rhs is (k, n, r) or broadcasts to it. Members with a zero pivot give
    non-finite solutions instead of raising; callers gate them first.
    """
    lu, piv = factors.lu, factors.piv
    k, n, _ = lu.shape
    x = np.array(np.broadcast_to(rhs, (k, n, np.shape(rhs)[-1])), dtype=float)
    if n > ELIMINATION_MAX_N:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(k):
                x[i], _ = sla.lapack.dgetrs(lu[i], piv[i], x[i])
        return x
    members = np.arange(k)
    for j in range(n):
        row = x[members, j].copy()
        x[members, j] = x[members, piv[:, j]]
        x[members, piv[:, j]] = row
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(n):
            x[:, j + 1:] -= lu[:, j + 1:, j, None] * x[:, j, None, :]
        for j in reversed(range(n)):
            x[:, j] /= lu[:, j, j, None]
            x[:, :j] -= lu[:, :j, j, None] * x[:, j, None, :]
    return x


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix and their smallest real part."""

    eigenvalues: np.ndarray  # complex, sorted by (real, imag)
    min_real_part: float


def eigenvalues(m: np.ndarray) -> Spectrum:
    """Full eigenvalue set as a Spectrum."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecValidationError(f"eigenvalues: square matrix required, got shape {m.shape}")
    if m.size == 0:
        return Spectrum(eigenvalues=np.zeros(0, complex), min_real_part=float("inf"))
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    return Spectrum(eigenvalues=vals, min_real_part=float(np.min(vals.real)))


def resolvent_apply(a: np.ndarray, k: complex, b: np.ndarray) -> np.ndarray:
    """Solve (k I - i A) z = b for complex k and real A, b.

    k equal to i times an eigenvalue of A makes the system singular and
    raises SingularMatrixError.
    """
    a = np.asarray(a, dtype=float)
    return solve(lu_factor(complex(k) * np.eye(a.shape[0]) - 1j * a), b)
