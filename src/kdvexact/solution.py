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
then per chunk of the (t, x) grid Gamma^T = E(t)^T S(x)^T + I written
into a workspace and handed to linalg's stacked LU as Fortran-ordered
members. linalg.LuFactors.gates gives det Gamma and the flags as masks,
and the passing points are solved. A point that fails a gate is flagged,
never raised for. A grid of one chunk runs on the calling thread; a
larger one is shared with a helper thread when the process may run on
more than one CPU, each with its own workspace. Every member is formed,
factored and solved alone, so the bytes depend on neither the chunking
nor the schedule. Scalar sample() is a batch of one, so grid and scalar
values agree bit for bit. Gamma, the log-det route and the kernel K
stay per point and off the batched kernel, as independent checks of its
algebra: one builder
forms exp(-x A), E(t) and Gamma for all three through linalg.expm, the
checked front end of the kernel's exponential, and the log-det route
and K factor and solve Gamma per point through linalg.lu_factor and
linalg.solve, the checked front ends of the kernel's stacked LU.
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

# Byte budget of one chunk of the batched kernel's Gamma (points x P x P):
# whole t rows, or part of one row when a row alone exceeds it. Each
# worker of an evaluate call allocates it once as the workspace its chunks
# are formed and factored in, and caps each per-axis block (exp(-xA), S(x)
# per x block, E(t) per t block), so memory does not grow with the grid.
CHUNK_BYTES = 1 << 21
# Workers of one evaluate call, the calling thread included, sharing each
# block of a grid of more than one chunk. The helper's workspace takes the
# place of the chunk-sized |Gamma| copy the LAPACK branch of the stacked LU
# no longer makes, so the call stays within the working set of one worker;
# a third would add a workspace (P = 64, 41 x 11 points: 8.1 against 6.5 MB).
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
        holds (empty included). Each call works in its own chunks, per-axis
        blocks and workspaces (CHUNK_BYTES each), so threads may share an
        evaluator and memory does not grow with the grid. A grid of more
        than one chunk is shared between the calling thread and up to
        _MAX_WORKERS - 1 helpers, as many as the CPUs the process may run
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
        """Fill the outputs: per x block exp(-xA), S(x) and the right sides, per t block
        E(t), each of at most CHUNK_BYTES, then gate and solve chunk by chunk.

        A grid of one chunk runs on the calling thread alone. Otherwise n = _workers
        threads share each block, the caller and n - 1 helpers of a pool made for this
        call, each with its own workspace: worker k forms S(x) for the k-th n-th of the x
        block, and then works every n-th of the block's chunks from the k-th. A grid wider
        than a block on both axes forms E(t) again for each x block. The helpers call no
        public function, so nothing a tracer wraps runs off the calling thread.
        """
        a, b, c, p = self.triplet.A, self.triplet.B, self.triplet.C, self.P
        block = max(1, CHUNK_BYTES // (8 * p * p))   # members of one chunk or per-axis block
        cols = min(xs.size, block)                   # rows = 1 if cols < xs.size,
        rows = max(1, block // cols)                 # so outputs stay flat views
        n = _workers(len(range(0, ts.size, rows)) * len(range(0, xs.size, cols)))
        works = [np.empty((min(rows, ts.size) * cols, p, p)) for _ in range(n)]

        # the closures read the current blocks' names, rebound only once their shares joined
        def form_side(k, work):
            """S(x) = exp(-xA) Q exp(-xA) for the k-th n-th of the x block, through work."""
            with np.errstate(over="ignore", invalid="ignore"):
                stop = len(exa) * (k + 1) // n
                for lo in range(len(exa) * k // n, stop, len(work)):
                    part = exa[lo:min(lo + len(work), stop)]
                    np.matmul(np.matmul(part, self.Q, out=work[:len(part)]), part,
                              out=side[lo:lo + len(part)])

        def run(share, work):
            for lo, x_lo in share:
                xw = slice(x_lo, x_lo + width)
                prop, part = props[lo:lo + rows], side[xw]
                gt = work[:len(prop) * len(part)]
                with np.errstate(over="ignore", invalid="ignore"):
                    ce = c @ prop                            # C E(t), per t
                    # Gamma^T = E(t)^T S(x)^T, so each Gamma is a Fortran-ordered member
                    np.matmul(prop.transpose(0, 2, 1)[:, None], part.transpose(0, 2, 1),
                              out=gt.reshape(len(prop), len(part), p, p))
                    gt.reshape(len(gt), -1)[:, ::p + 1] += 1.0
                factors = linalg._lu_factor_members(gt.transpose(0, 2, 1))
                sl = slice(t_lo + lo, t_lo + lo + len(prop))
                ol = slice(xl.start + x_lo, xl.start + x_lo + len(part))
                self._fill_rows(factors, with_u, exa[xw], ce, rhs[..., xw], u[sl, ol].reshape(-1),
                                det[sl, ol].reshape(-1), code[sl, ol].reshape(-1))

        # every member and chunk is written by one worker alone, so no schedule moves a
        # bit; the pool lives for this call only, so no thread outlives it into a fork
        pool = contextlib.nullcontext()
        if n > 1:
            import concurrent.futures   # it loads logging: only a shared grid pays for that
            pool = concurrent.futures.ThreadPoolExecutor(n - 1)
        with pool:
            for xl in (slice(lo, lo + cols) for lo in range(0, xs.size, cols)):
                exa, x_overflow = linalg.expm_stack(a, -xs[xl])
                exa[x_overflow] = np.nan   # an overflowed member makes a NaN Gamma: overflow
                side = np.empty_like(exa)
                helpers = [pool.submit(form_side, k, works[k]) for k in range(1, n)]
                for t_lo in range(0, ts.size, block):
                    if ts.size > block or not xl.start:   # one t block serves every x block
                        props, t_overflow = linalg.expm_stack(self.flow, ts[t_lo:t_lo + block])
                        props[t_overflow] = np.nan   # likewise
                    if not t_lo:   # the caller's share of S(x), while the helpers form theirs
                        form_side(0, works[0])
                        with np.errstate(over="ignore", invalid="ignore"):
                            rb = exa @ b
                            # both solves' right sides, points-last: (P, 2, x)
                            rhs = np.concatenate([rb, a @ rb], axis=-1).transpose(1, 2, 0).copy()
                        for helper in helpers:
                            helper.result()
                    # one-row chunks of a block of fewer rows than workers split along x
                    width = -(-len(side) // n) if rows == 1 and len(props) < n else len(side)
                    chunks = [(lo, x_lo) for lo in range(0, len(props), rows)
                              for x_lo in range(0, len(side), width)]
                    helpers = [pool.submit(run, chunks[k::n], works[k]) for k in range(1, n)]
                    run(chunks[::n], works[0])
                    for helper in helpers:
                        helper.result()
                    if ts.size > block:
                        props = None   # so the next block's stacks replace these, not join them
                exa = side = None

    def _fill_rows(self, factors, with_u, exa, ce, rhs, u, det, code) -> None:
        """Gate (LuFactors.gates) and solve one factored chunk; the outputs are flat views."""
        n_x = exa.shape[0]
        d, overflow, near = factors.gates()
        det[~overflow] = d[~overflow]
        code[overflow] = _OVERFLOW
        code[near] = _NEAR_SINGULAR
        idx = np.flatnonzero(~overflow & ~near)
        if not (with_u and idx.size):
            return
        i, j = np.divmod(idx, n_x)
        sol = linalg.lu_solve_stack(factors, idx, np.take(rhs, j, axis=-1).transpose(2, 0, 1))
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

