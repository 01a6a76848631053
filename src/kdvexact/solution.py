"""Explicit KdV solutions on the half line from a matrix triplet.

The solution is carried by the P x P matrix

    Gamma(x, t) = I + exp(-x A) Q exp(-x A) E(t),

where Q solves A Q + Q A = B C and E(t) = expm((8 A^3 + 2 eta A) t).
Then u(x, t) = -2 d^2/dx^2 log det Gamma(x, t) wherever det Gamma > 0.
Two independent closed forms for u are provided (a resolvent-kernel
form and a trace form of the log-determinant derivatives), plus the
integral-kernel quantities they both come from.

The resolvent-kernel form runs on one batched kernel,
GammaEvaluator.evaluate: a stack of exp(-x A) per x and of E(t) per t
(linalg.expm_stack, per diagonal block of A: closed form or Pade),
Gamma for the whole (t, x) grid by broadcasting, one stacked LU per
point for det Gamma, both gates and both solves, and the flags as
masks. A point that fails a gate is flagged, never raised for. Scalar
sample() is a batch of one, so grid and scalar values agree bit for
bit. Gamma, the log-det route and the kernel K stay per point and off
the batched kernel, as independent checks of its algebra: one builder
forms exp(-x A), E(t) and Gamma for all three through linalg.expm, the
checked front end of the kernel's exponential, and the log-det route
and K factor and solve Gamma per point through linalg.lu_factor and
linalg.solve, the checked front ends of the kernel's stacked LU.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg, realization
from .errors import (
    LyapunovSolveError,
    OverflowDetectedError,
    SingularMatrixError,
    SpecValidationError,
)

FLAG_OK = "ok"
FLAG_NEAR_SINGULAR = "near-singular"
FLAG_OVERFLOW = "overflow"

# Byte budget of one chunk of the batched kernel's Gamma (points x P x P):
# whole t rows, or part of one row when a row alone exceeds it. Above
# ELIMINATION_MAX_N each evaluate call allocates it once as the workspace
# every chunk is formed and factored in; the per-axis stacks, exp(-xA) and
# S(x) per x and E(t) per t, take O((n_x + n_t) P^2) on their own.
CHUNK_BYTES = 1 << 21

# Near-singular gate: |det Gamma| < NEAR_SINGULAR_TOL (1 + ||Gamma||_inf^P).
# The scale is the natural size of the determinant, so huge-entry
# matrices whose determinant only survives by cancellation are flagged.
NEAR_SINGULAR_TOL = 1e-8

# Per-point outcome codes of the batched kernel, indexing the flag names.
_OK, _NEAR_SINGULAR, _OVERFLOW = range(3)
_FLAG_NAMES = np.array([FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW], dtype="U16")


@dataclass(frozen=True)
class SolutionSample:
    """One evaluation point. u is NaN unless flag == FLAG_OK."""

    x: float
    t: float
    u: float
    det_gamma: float
    flag: str


@dataclass(frozen=True, eq=False)
class SolutionGrid:
    """Output of the batched kernel; arrays are shaped (len(t), len(x)).

    flags is the per-point outcome, one of three: ok, near-singular
    (the near-singular or the pivot gate fired) or overflow (in the
    exponentials, det Gamma, the solves or u). u is NaN unless the point
    is ok; det_gamma is NaN where Gamma or its determinant overflowed.
    Without u (with_u=False) both gates still run and u stays NaN; a
    point whose solves or u would overflow reads ok there.
    """

    x: np.ndarray
    t: np.ndarray
    u: np.ndarray
    det_gamma: np.ndarray
    flags: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.flags == FLAG_OK))

    @functools.cached_property
    def overflow(self) -> np.ndarray:
        mask = self.flags == FLAG_OVERFLOW
        mask.setflags(write=False)
        return mask


@dataclass(frozen=True, eq=False)
class GammaEvaluator:
    """Holds the x- and t-independent pieces of Gamma(x, t).

    Q is the verified Lyapunov solution and flow = 8 A^3 + 2 eta A.
    Every evaluation computes its own exponentials, so an evaluator
    holds no mutable state and can be shared between threads.
    """

    triplet: realization.Triplet
    Q: np.ndarray
    diagnostics: realization.TripletDiagnostics
    flow: np.ndarray

    @property
    def P(self) -> int:
        return self.triplet.P

    @property
    def eta(self) -> float:
        return self.triplet.eta

    @property
    def formal_mode(self) -> bool:
        return self.diagnostics.formal_mode

    def propagator(self, t: float) -> np.ndarray:
        """E(t) = expm((8 A^3 + 2 eta A) t); a non-finite t raises SpecValidationError."""
        t = float(t)
        if not np.isfinite(t):
            raise SpecValidationError(f"t must be finite, got {t!r}")
        return linalg.expm(self.flow, t)

    def _reference(self, x: float, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exp(-x A), E(t), Gamma(x, t)) through linalg.expm, x >= 0 only; overflow raises."""
        x = float(x)
        if not np.isfinite(x) or x < 0.0:
            raise SpecValidationError(f"x must be finite and >= 0, got {x!r}")
        e = self.propagator(t)
        exa = linalg.expm(self.triplet.A, -x)
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = np.eye(self.P) + exa @ self.Q @ exa @ e
        return exa, e, linalg._check_finite(gamma, "Gamma")

    def gamma(self, x: float, t: float) -> np.ndarray:
        """Gamma(x, t) = I + exp(-x A) Q exp(-x A) E(t), x >= 0 only."""
        return self._reference(x, t)[2]

    def det_gamma(self, x: float, t: float) -> float:
        """det Gamma(x, t) through the batched kernel; NaN where it overflowed, as in sample()."""
        return float(self.evaluate([float(x)], [float(t)], with_u=False).det_gamma[0, 0])

    def evaluate(self, xs, ts, with_u: bool = True) -> SolutionGrid:
        """The batched kernel over the grid ts x xs (t-major).

        Each point gets exactly the values and outcome of the per-point
        definition, whatever else is in the batch. Overflow anywhere in
        the exponentials or the determinant gives flag overflow; a
        determinant below the near-singular gate or a factorization
        that fails the pivot gate (linalg.LuFactors.singular) gives
        near-singular. Otherwise, with_u, both resolvent solves run and a
        non-finite solution or u is overflow again. No point raises; a
        negative or non-finite x or a non-finite t raises SpecValidationError,
        whatever the other axis holds (empty included). Each call works in
        its own chunks and workspace (CHUNK_BYTES), so threads may share
        an evaluator.
        """
        xs = np.array(xs, dtype=float, ndmin=1)
        ts = np.array(ts, dtype=float, ndmin=1)
        bad = ~np.isfinite(xs) | (xs < 0.0)
        if bad.any():
            raise SpecValidationError(f"x must be finite and >= 0, got {float(xs[bad][0])!r}")
        bad = ~np.isfinite(ts)
        if bad.any():
            raise SpecValidationError(f"t must be finite, got {float(ts[bad][0])!r}")
        shape = (ts.size, xs.size)
        u = np.full(shape, np.nan)
        det = np.full(shape, np.nan)
        code = np.full(shape, _OK, dtype=np.int8)
        if xs.size and ts.size:
            self._fill(xs, ts, with_u, u, det, code)
        flags = _FLAG_NAMES[code]
        for arr in (xs, ts, u, det, flags):
            arr.setflags(write=False)
        return SolutionGrid(x=xs, t=ts, u=u, det_gamma=det, flags=flags)

    def _fill(self, xs, ts, with_u, u, det, code) -> None:
        a, b, c, p = self.triplet.A, self.triplet.B, self.triplet.C, self.P
        exa, x_overflow = linalg.expm_stack(a, -xs)
        with np.errstate(over="ignore", invalid="ignore"):
            side = exa @ self.Q @ exa                   # exp(-xA) Q exp(-xA), per x
            rb = exa @ b
            # both solves' right sides, points-last: (P, 2, x)
            rhs = np.concatenate([rb, a @ rb], axis=-1).transpose(1, 2, 0).copy()
        props, t_overflow = linalg.expm_stack(self.flow, ts)   # E(t), per t
        cols = min(xs.size, max(1, CHUNK_BYTES // (8 * p * p)))   # rows = 1 if cols < xs.size,
        rows = max(1, CHUNK_BYTES // (8 * p * p * cols))          # so outputs stay flat views
        work = np.empty((min(rows, ts.size) * cols, p, p)) if p > linalg.ELIMINATION_MAX_N else None
        for lo, x_lo in itertools.product(range(0, ts.size, rows), range(0, xs.size, cols)):
            sl, xl = slice(lo, lo + rows), slice(x_lo, x_lo + cols)
            prop, part = props[sl], side[xl]
            overflow = x_overflow[xl] | t_overflow[sl, None]
            with np.errstate(over="ignore", invalid="ignore"):
                ce = c @ prop                            # C E(t), per t
                if p <= linalg.ELIMINATION_MAX_N:
                    gamma = np.eye(p) + part @ prop[:, None]
                    overflow |= ~np.all(np.isfinite(gamma), axis=(-2, -1))
                    gamma[overflow] = np.eye(p)
                    factors = linalg.lu_factor_stack(gamma.reshape(-1, p, p))
                else:   # Gamma^T = E(t)^T S(x)^T: each Gamma Fortran-ordered, factored in place
                    gt = work[:overflow.size]
                    np.matmul(prop.transpose(0, 2, 1)[:, None], part.transpose(0, 2, 1),
                              out=gt.reshape(overflow.shape + (p, p)))
                    gt.reshape(len(gt), -1)[:, ::p + 1] += 1.0
                    mag = np.abs(gt)   # max |entry|; Gamma's row sums are its column sums
                    max_abs = np.max(mag.reshape(len(gt), -1), axis=1)
                    norm_inf = np.max(np.ones(p) @ mag, axis=-1)
                    del mag   # before the next chunk's
                    factors = linalg._lu_factor_in_place(gt.transpose(0, 2, 1), max_abs, norm_inf)
                    overflow |= ~np.isfinite(max_abs).reshape(overflow.shape)
            self._fill_rows(factors, overflow.reshape(-1), with_u, exa[xl], ce, rhs[..., xl],
                            u[sl, xl].reshape(-1), det[sl, xl].reshape(-1),
                            code[sl, xl].reshape(-1))

    def _fill_rows(self, factors, overflow, with_u, exa, ce, rhs, u, det, code) -> None:
        """Gate and solve one factored chunk; the outputs are flat views."""
        n_x = exa.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            d = factors.permutation_sign() * np.prod(factors.pivots(), axis=-1)
            overflow |= ~np.isfinite(d)
            det[~overflow] = d[~overflow]
            code[overflow] = _OVERFLOW
            norm = np.maximum(1.0, factors.norm_inf)
            near = np.abs(d) < NEAR_SINGULAR_TOL * (1.0 + norm ** self.P)
            near = ~overflow & (near | factors.singular())
        code[near] = _NEAR_SINGULAR
        idx = np.flatnonzero(~overflow & ~near)
        if not (with_u and idx.size):
            return
        i, j = np.divmod(idx, n_x)
        sol = linalg._lu_solve_members(factors, idx, np.take(rhs, j, axis=-1).transpose(2, 0, 1))
        a, p = self.triplet.A, self.P
        with np.errstate(over="ignore", invalid="ignore"):
            # C E(t) exp(-xA); BLAS-sized rows for the whole chunk cost less than a gather per point
            row = ((ce[:, None] @ exa).reshape(-1, 1, p)[idx] if p > linalg.ELIMINATION_MAX_N
                   else ce[i] @ exa[j])
            v, w = sol[..., :1], sol[..., 1:]
            rv = row @ v
            val = (2.0 * (-(row @ (a @ v)) + rv * rv - row @ w))[:, 0, 0]
        finite = np.isfinite(val)   # a non-finite solution gives a non-finite u
        code[idx[~finite]] = _OVERFLOW
        u[idx[finite]] = val[finite]

    def sample(self, x: float, t: float) -> SolutionSample:
        """u via the resolvent-kernel closed form, with status flag.

        A batch of one through evaluate(): overflow anywhere in the
        exponentials, the solves or u gives flag "overflow"; failing the
        near-singular or the pivot gate gives flag "near-singular". In
        both cases u is NaN; the point never raises.
        """
        x = float(x)
        t = float(t)
        e = self.evaluate([x], [t])
        return SolutionSample(x, t, float(e.u[0, 0]), float(e.det_gamma[0, 0]),
                              str(e.flags[0, 0]))

    def u(self, x: float, t: float) -> float:
        """Closed-form u(x, t); NaN when the point is flagged."""
        return self.sample(x, t).u

    def u_log_det(self, x: float, t: float) -> float:
        """u via -2 [tr(G^-1 Gxx) - tr((G^-1 Gx)^2)], G = Gamma.

        Independent route from sample(): the x-derivatives of Gamma
        collapse through the Lyapunov identity to
        Gx = -exp(-xA) B C exp(-xA) E and Gxx = (A W + W A) E with
        W = exp(-xA) B C exp(-xA). Per point and off the batched kernel.
        Overflow, or a factorization that fails the pivot gate, gives
        NaN, as the flags of sample() do, instead of raising.
        """
        try:
            exa, e, gamma = self._reference(x, t)
            factors = linalg.lu_factor(gamma)
            a = self.triplet.A
            with np.errstate(over="ignore", invalid="ignore"):
                w = exa @ (self.triplet.B @ self.triplet.C) @ exa
                gxx = (a @ w + w @ a) @ e
                gi_gx, gi_gxx = np.hsplit(linalg.solve(factors, np.hstack([-(w @ e), gxx])), 2)
                u = float(-2.0 * (np.trace(gi_gxx) - np.trace(gi_gx @ gi_gx)))
        except (OverflowDetectedError, SingularMatrixError):
            return float("nan")
        return u if np.isfinite(u) else float("nan")

    def marchenko_kernel(self, x: float, y: float, t: float) -> float:
        """K(x, y; t) = -C E(t) exp(-xA) Gamma(x,t)^{-1} exp(-yA) B, y >= x >= 0.

        u(x, t) = -2 d/dx K(x, x; t).
        """
        x = float(x)
        y = float(y)
        if y < x:
            raise SpecValidationError(f"kernel needs y >= x, got x={x!r}, y={y!r}")
        exa, e, gamma = self._reference(x, t)
        factors = linalg.lu_factor(gamma)
        eya = linalg.expm(self.triplet.A, -y)
        row = self.triplet.C @ (e @ exa)
        return -(row @ linalg.solve(factors, eya @ self.triplet.B)).item()


def make_evaluator(triplet: realization.Triplet) -> GammaEvaluator:
    """Validate the triplet, solve the Lyapunov system, build an evaluator.

    Raises LyapunovSolveError when eigenvalue pairs of A are resonant
    (some lambda_i + lambda_j ~ 0), in which case no unique Q exists.
    The Lyapunov residual check alone does not catch this when B C
    happens to lie in the range of the singular system. A flow
    8 A^3 + 2 eta A that overflows raises SpecValidationError naming eta,
    and so do a B C that overflows and an empty (P = 0) triplet, which has no Gamma.
    """
    if not triplet.P:
        raise SpecValidationError("make_evaluator: the triplet is empty (P = 0); need P >= 1")
    diagnostics = realization.validate_triplet(triplet)
    if not diagnostics.lyapunov_solvable:
        i, j, mag = diagnostics.resonant_pairs[0]
        vals = diagnostics.spectrum.eigenvalues
        raise LyapunovSolveError(
            f"no unique Lyapunov solution: eigenvalues {vals[i]:.6g} and {vals[j]:.6g} "
            f"sum to {mag:.3e} in modulus")
    a = triplet.A
    with np.errstate(over="ignore", invalid="ignore"):
        flow = 8.0 * (a @ a @ a) + (2.0 * triplet.eta) * a
        bc = triplet.B @ triplet.C
    if not np.isfinite(flow).all():
        raise SpecValidationError(f"flow 8 A^3 + 2 eta A is not finite for eta={triplet.eta!r} "
                                  f"and max |A| = {np.max(np.abs(a)):.6g}")
    if not np.isfinite(bc).all():
        raise SpecValidationError(f"B C is not finite: max |B| = {np.max(np.abs(triplet.B)):.6g} "
                                  f"and max |C| = {np.max(np.abs(triplet.C)):.6g}")
    flow.setflags(write=False)
    q = linalg.lyapunov_solve(a, bc)
    q.setflags(write=False)
    return GammaEvaluator(triplet=triplet, Q=q, diagnostics=diagnostics, flow=flow)


def sample_grid(evaluator: GammaEvaluator, xs, ts) -> SolutionGrid:
    """Evaluate the closed-form u over a grid, keeping per-point flags.

    One batched kernel call, equal bit for bit to evaluator.sample at
    every point; a point that fails a gate is flagged, never raised for.
    """
    return evaluator.evaluate(xs, ts)

