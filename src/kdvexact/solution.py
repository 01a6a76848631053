"""Explicit KdV solutions on the half line from a matrix triplet.

The solution is carried by the P x P matrix

    Gamma(x, t) = I + exp(-x A) Q exp(-x A) E(t),

where Q solves A Q + Q A = B C and E(t) = expm((8 A^3 + 2 eta A) t).
Then u(x, t) = -2 d^2/dx^2 log det Gamma(x, t) wherever det Gamma > 0.
Two independent closed forms for u are provided (a resolvent-kernel
form and a trace form of the log-determinant derivatives), plus the
integral-kernel quantities they both come from.

The resolvent-kernel form runs on one batched kernel,
GammaEvaluator.evaluate: blocks of exp(-x A) per x and of E(t) per t
(linalg.expm_stack, per diagonal block of A: closed form or Pade),
then per chunk of the (t, x) grid S(x) = exp(-x A) Q exp(-x A) and
Gamma^T = E(t)^T S(x)^T + I written into a workspace and handed to
linalg's stacked LU as Fortran-ordered members. linalg.LuFactors.gates
gives det Gamma and the flags as masks; with u, the passing points are
solved, and only then are the solves' right sides and C E(t) formed. A
point that fails a gate is flagged, never raised for. A grid of one
chunk runs on the calling thread; a larger one is shared with a helper
thread when the process may run on more than one CPU, each with its own
workspace, one hand-off per block. Every member is formed, factored and
solved alone, so the bytes depend on neither the chunking nor the
schedule. Scalar sample() is a batch of one, so grid and scalar values
agree bit for bit. Gamma, the log-det route and the kernel K stay per
point and off the batched kernel, as independent checks of its algebra:
one builder forms exp(-x A), E(t) and Gamma for all three through
linalg.expm, the checked front end of the kernel's exponential, and the
log-det route and K factor and solve Gamma per point through
linalg.lu_factor and linalg.solve, the checked front ends of the
kernel's stacked LU.
"""
from __future__ import annotations

import contextlib
import functools
import os
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

# Byte budget of the batched kernel (points x P x P): each per-axis block
# (exp(-xA) per x block, E(t) per t block) and each chunk's Gamma, a t
# block's rows by as many x points as fit. Each worker of an evaluate call
# allocates one workspace, a chunk's Gamma and S(x), and forms and factors
# its chunks in it, so memory does not grow with the grid.
CHUNK_BYTES = 1 << 21
# Workers of one evaluate call, the calling thread included, sharing the
# chunks of each block of a grid of more than one chunk. The helper's
# workspace takes the place of the chunk-sized |Gamma| copy the LAPACK
# branch of the stacked LU no longer makes; a third would add a workspace
# (P = 64, 41 x 11 points: 8.7 against 6.4 MB, one worker 4.1 MB).
_MAX_WORKERS = 2


def _workers(chunks: int) -> int:
    """Threads for a grid of this many chunks: the CPUs this process may run on, at most
    one per chunk and _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return min(chunks, cpus, _MAX_WORKERS)


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
    Every evaluation computes its own exponentials and workspaces, and
    its helper thread, if any, ends with the call, so an evaluator holds
    no mutable state and can be shared between threads and used after
    os.fork.
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
        definition, whatever else is in the batch. Overflow in the
        exponentials or in Gamma or det Gamma gives flag overflow, and
        failing either gate of linalg.LuFactors.gates gives near-singular.
        Otherwise, with_u, both resolvent solves run and a non-finite
        solution or u is overflow again. No point raises; an
        axis of more than one dimension, a negative or non-finite x or a
        non-finite t raises SpecValidationError, whatever the other axis
        holds (empty included). Each call works in its own per-axis blocks
        and chunks (CHUNK_BYTES each) and workspaces, so threads may share
        an evaluator and memory does not grow with the grid. The chunks of a
        grid of more than one are shared between the calling thread and up
        to _MAX_WORKERS - 1 helpers, as many as the CPUs the process may run
        on (os.sched_getaffinity), started and joined within the call.
        """
        xs = np.array(xs, dtype=float, ndmin=1)
        ts = np.array(ts, dtype=float, ndmin=1)
        if xs.ndim > 1 or ts.ndim > 1:
            raise SpecValidationError(
                f"x and t must be scalars or 1-D, got shapes {xs.shape} and {ts.shape}")
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
        """Fill the outputs block by block, each chunk forming its own S(x) (_fill_chunks).

        Per x block the caller forms exp(-xA), per t block E(t), each of at most CHUNK_BYTES
        points, and with u the right sides and C E(t); a chunk is the t block's rows by at most
        width points of one x block. One chunk runs on the calling thread alone. Otherwise
        n = _workers threads share each (x block, t block) in one hand-off, the caller and
        n - 1 helpers of a pool made for this call, each with its own workspace: chunks of at
        most an n-th of a block, dealt round-robin. A grid wider than a block on both axes
        forms E(t) again per x block. Helpers call no public function: a tracer sees the caller.
        """
        a, b, p = self.triplet.A, self.triplet.B, self.P
        block = max(1, CHUNK_BYTES // (8 * p * p))   # members of one chunk or per-axis block
        rows = min(ts.size, block)                   # the t rows of a t block and its chunks
        n = _workers(len(range(0, ts.size, rows)) * len(range(0, xs.size, block // rows)))
        cols = min(block // rows, -(-min(xs.size, block) // n))   # the widest chunk
        works = [np.empty(((rows + 1) * cols, p, p)) for _ in range(n)]

        # every member and chunk is written by one worker alone, so no schedule moves a
        # bit; the pool lives for this call only, so no thread outlives it into a fork
        pool = contextlib.nullcontext()
        if n > 1:
            import concurrent.futures   # it loads logging: only a shared grid pays for that
            pool = concurrent.futures.ThreadPoolExecutor(n - 1)
        with pool, np.errstate(over="ignore", invalid="ignore"):   # the flags catch both
            for x_lo in range(0, xs.size, block):
                exa, x_overflow = linalg.expm_stack(a, -xs[x_lo:x_lo + block])
                exa[x_overflow] = np.nan   # an overflowed member makes a NaN Gamma: overflow
                if with_u:   # both solves' right sides, points-last: (P, 2, x)
                    rb = exa @ b
                    rhs = np.concatenate([rb, a @ rb], axis=-1).transpose(1, 2, 0).copy()
                width = min(cols, -(-len(exa) // n))   # a short last x block is shared too
                for t_lo in range(0, ts.size, rows):
                    if ts.size > rows or not x_lo:   # one t block serves every x block
                        props, t_overflow = linalg.expm_stack(self.flow, ts[t_lo:t_lo + rows])
                        props[t_overflow] = np.nan   # likewise
                        ce = self.triplet.C @ props if with_u else None   # C E(t), per t
                    # views cut from the x block's, so each ends where its chunk does
                    tl, xl = slice(t_lo, t_lo + len(props)), slice(x_lo, x_lo + len(exa))
                    chunks = [(exa[lo:lo + width], rhs[..., lo:lo + width] if with_u else None,
                               *(out[tl, xl][:, lo:lo + width] for out in (u, det, code)))
                              for lo in range(0, len(exa), width)]
                    helpers = [pool.submit(self._fill_chunks, works[k], props, ce, chunks[k::n],
                                           with_u) for k in range(1, n)]
                    self._fill_chunks(works[0], props, ce, chunks[::n], with_u)
                    for helper in helpers:
                        helper.result()
                    if ts.size > rows:
                        props = None   # so the next block's stacks replace these, not join them
                exa = rhs = chunks = None

    def _fill_chunks(self, work, props, ce, chunks, with_u) -> None:
        """Work each chunk of props' t rows (ce = C E(t)) in work: S(x) at its head, Gamma^T =
        E(t)^T S(x)^T + I after it, factored there and handed to _fill_rows."""
        p = self.P
        with np.errstate(over="ignore", invalid="ignore"):
            for exa, rhs, u, det, code in chunks:
                side, gt = work[:len(exa)], work[len(exa):len(exa) * (len(props) + 1)]
                np.matmul(np.matmul(exa, self.Q, out=gt[:len(exa)]), exa, out=side)
                # Gamma^T = E(t)^T S(x)^T, so each Gamma is a Fortran-ordered member
                np.matmul(props.transpose(0, 2, 1)[:, None], side.transpose(0, 2, 1),
                          out=gt.reshape(len(props), len(exa), p, p))
                gt.reshape(len(gt), -1)[:, ::p + 1] += 1.0
                factors = linalg._lu_factor_members(gt.transpose(0, 2, 1))
                self._fill_rows(factors, with_u, exa, ce, rhs, u, det, code)

    def _fill_rows(self, factors, with_u, exa, ce, rhs, u, det, code) -> None:
        """Gate (LuFactors.gates) and solve one factored chunk into its 2-D (t, x) outputs,
        under _fill_chunks' error state."""
        d, overflow, near = (g.reshape(u.shape) for g in factors.gates())
        det[~overflow] = d[~overflow]
        code[overflow] = _OVERFLOW
        code[near] = _NEAR_SINGULAR
        idx = np.flatnonzero(~overflow & ~near)
        if not (with_u and idx.size):
            return
        i, j = np.divmod(idx, u.shape[1])
        sol = linalg.lu_solve_stack(factors, idx, np.take(rhs, j, axis=-1).transpose(2, 0, 1))
        a, p = self.triplet.A, self.P
        # C E(t) exp(-xA); BLAS-sized rows for the whole chunk cost less than a gather per point
        row = ((ce[:, None] @ exa).reshape(-1, 1, p)[idx] if p > linalg.ELIMINATION_MAX_N
               else ce[i] @ exa[j])
        v, w = sol[..., :1], sol[..., 1:]
        rv = row @ v
        val = (2.0 * (-(row @ (a @ v)) + rv * rv - row @ w))[:, 0, 0]
        finite = np.isfinite(val)   # a non-finite solution gives a non-finite u
        if not finite.all():
            code[i[~finite], j[~finite]] = _OVERFLOW
            i, j, val = i[finite], j[finite], val[finite]
        u[i, j] = val

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
        """K(x, y; t) = -C E(t) exp(-xA) Gamma(x,t)^{-1} exp(-yA) B, finite y >= x >= 0.

        u(x, t) = -2 d/dx K(x, x; t).
        """
        x = float(x)
        y = float(y)
        if not np.isfinite(y):
            raise SpecValidationError(f"y must be finite, got {y!r}")
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

