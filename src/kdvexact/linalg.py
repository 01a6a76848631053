"""Dense linear algebra kernels for the triplet solution machinery.

Thin, contract-enforcing wrappers around LAPACK-backed numpy/scipy
routines: the matrix exponential (expm_stack plans each matrix's diagonal
blocks and max |m| once, takes 2 x 2 rotation and Jordan blocks in closed
form and other block sizes by a vectorized Pade, and reports overflow as
a mask; expm, for the per-point routes and checks, is its front end), the
Lyapunov solve A Q + Q A = RHS with a residual check (numpy's solve of
the Kronecker system up to ELIMINATION_MAX_N, Bartels-Stewart through
scipy's Sylvester solver above it), one stacked pivoted LU
(_lu_factor_members takes the factor layout and gate scales, and
LuFactors alone judges the members; lu_factor_stack copies a stack into
its layout, lu_solve_stack solves chosen members, and lu_factor, solve,
determinant and inverse are checked front ends for one matrix),
eigenvalue extraction, and the resolvent (k I - i A)^{-1} b, by one
numpy complex solve per call behind a gate on the distances from k to
i times A's eigenvalues.

scipy.linalg is imported only inside the branches that take members
wider than ELIMINATION_MAX_N, so no caller loads it up to that size.

All single-matrix routines detect overflow instead of propagating NaN,
work on real float64 (the resolvent returns complex values) and raise
typed errors from `errors`. The stacked forms (expm_stack,
lu_factor_stack, lu_solve_stack) work on many small matrices at once
and never raise on numerical trouble: they report it as masks, or leave
it to the caller to mask, so one bad member cannot stop a whole grid.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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
# near-singular bound on |det m|, times 1 + max(1, ||m||_inf)^n: the natural size of
# det m, so a huge-entry m whose det only survives by cancellation is flagged
NEAR_SINGULAR_TOL = 1e-8

# Numpy below, LAPACK through scipy above. Stacked LU: members up to this
# size are eliminated all at once on a points-last copy, one column per
# numpy step; larger ones go to LAPACK, one in-place call per Fortran-
# ordered member. Factor plus a two-column solve, per member, best of 60
# on one thread of a 2-vCPU Xeon, elimination against LAPACK as the P > 6
# kernel runs it: 0.36/1.5/2.2/5.0 against 6.8/4.2/4.5/5.1 us at n =
# 3/6/8/10 on 2,020-member stacks, 5.5/16/26 against 7.6/8.5/9.0 us at
# n = 3/6/8 on 41-member stacks (one many-poles chunk). Lyapunov solve:
# the P^2 x P^2 Kronecker system in numpy takes 12/15/34 us at P = 1/3/6
# against 54/49/51 us for scipy's solve_sylvester, level at P = 8.
ELIMINATION_MAX_N = 6
# Above ELIMINATION_MAX_N the stacked LU takes |m| for its gate scales in
# one reused slice of this many bytes, not in a copy of the whole stack:
# at P = 64, 8 members, as fast as one pass over a 41-member stack.
_SCALE_SLICE_BYTES = 1 << 18


def _check_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise OverflowDetectedError(f"overflow in {what}")
    return m


def expm(m: np.ndarray, s=1.0) -> np.ndarray:
    """Matrix exponential of s*m, checked: expm_stack with its mask raised.

    A scalar s gives the n x n exponential; a 1-D array of scales gives
    the (len(s), n, n) stack, each member equal bit for bit to the
    scalar call. A zero scale gives the exact identity. A non-finite
    member raises OverflowDetectedError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecValidationError(f"expm: square matrix required, got shape {m.shape}")
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise SpecValidationError(f"expm: scalar or 1-D scales required, got shape {s.shape}")
    result, overflow = expm_stack(m, s)
    if overflow.any():
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.max(np.abs(s), initial=0.0) * np.max(np.abs(m), initial=0.0)
        raise OverflowDetectedError(f"overflow in expm with ||sM||={norm:.3g}")
    return result if s.ndim else result[0]


# Degree-13 Pade coefficients and the 1-norm up to which degree 13 needs
# no squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def _pade13_stack(x: np.ndarray) -> np.ndarray:
    """exp of every finite member of a (k, n, n) stack, by scaling and squaring.

    Each member is scaled by its own 2^-s, with s the least power that
    brings its 1-norm to _THETA13 or below, so its bits do not depend
    on the rest of the stack.
    """
    b = _PADE13
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    frac, exp2 = np.frexp(norm / _THETA13)
    squarings = np.maximum(0, exp2 - (frac == 0.5))   # ceil(log2(norm / theta))
    x = np.ldexp(x, -squarings[:, None, None])
    eye = np.eye(x.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for i in range(int(squarings.max(initial=0))):
        sel = np.flatnonzero(squarings > i)
        r[sel] = r[sel] @ r[sel]
    return r


@functools.lru_cache(maxsize=32)
def _block_plan(shape: tuple, data: bytes) -> tuple:
    """expm_stack's plan for one matrix, keyed on its bytes; at most 32 kept, read-only.

    Returns (max |m|, groups). m splits into diagonal blocks by its
    exact-zero pattern: a block ends at j when no nonzero entry couples
    rows or columns 0..j with j+1..n-1. One (rows, blocks, closed) group
    per block size, smallest first (a set, not np.unique, which loads
    numpy.ma): rows gathers the blocks, its transpose their columns.
    2 x 2 blocks with delta = ((m00 - m11) / 2)^2 + m01 m10 <= 0 (a sign
    no scale changes, taken exactly on the block over a power of two)
    form their own group: blocks holds N and closed (mu, r),
    block = mu I + N, N^2 = -r^2 I.
    """
    m = np.frombuffer(data).reshape(shape)
    idx = np.arange(shape[0])
    reach = np.max(np.where((m != 0.0) | (m.T != 0.0), idx, idx[:, None]), axis=1, initial=0)
    ends = np.flatnonzero(np.maximum.accumulate(reach) == idx) + 1
    starts, sizes = np.concatenate([[0], ends])[:-1], np.diff(ends, prepend=0)
    plan = []
    for size in sorted(set(sizes.tolist())):
        rows = starts[sizes == size][:, None, None] + np.arange(size)[:, None]
        blocks = m[rows, rows.transpose(0, 2, 1)]
        route = np.zeros(len(rows), dtype=bool)   # the blocks that take the closed form
        if size == 2:
            exp2 = np.frexp(np.max(np.abs(blocks), axis=(1, 2)))[1]
            (a, b), (c, d) = np.ldexp(blocks, -exp2[:, None, None]).transpose(1, 2, 0)
            delta = ((a - d) / 2) ** 2 + b * c
            r = np.ldexp(np.sqrt(np.maximum(-delta, 0.0)), exp2)   # finite: -delta <= |b c| < 1
            route = delta <= 0.0
            mu = 0.5 * blocks[route, :1, :1] + 0.5 * blocks[route, 1:, 1:]   # (blocks, 1, 1)
            plan.append((rows[route], blocks[route] - mu * _EYE2, (mu, r[route, None, None])))
        plan.append((rows[~route], blocks[~route], ()))
    plan = tuple(group for group in plan if group[0].size)
    for rows, blocks, closed in plan:
        for v in (rows, blocks, *closed):
            v.setflags(write=False)
    return np.abs(m).max(initial=0.0), plan


def expm_stack(m: np.ndarray, scales) -> tuple[np.ndarray, np.ndarray]:
    """Matrix exponentials of s*m for every s in a 1-D array of scales.

    Returns the (len(scales), n, n) stack and a boolean mask of the
    members that overflowed, whose entries are meaningless. m's diagonal
    blocks are planned once per distinct matrix (_block_plan): 1 x 1
    blocks are scalar exponentials; 2 x 2 rotation-scaling and Jordan
    blocks take e^{s mu} (cos(s r) I + sin(s r) / r N), elementwise, with
    e^{s mu} as two factors e^{s mu / 2} so only an overflowing entry
    reads inf; every other block size takes one vectorized degree-13 Pade
    pass over its (scale, block) pairs. A member depends only on its own
    scale, so a batch of one equals the same member of any batch bit for
    bit; a zero scale gives the exact identity.
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(scales, dtype=float).reshape(-1)
    n = m.shape[0]
    out = np.zeros((s.size, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        max_abs, plan = _block_plan(m.shape, m.tobytes())
        overflow = ~np.isfinite(s * max_abs)
        s = np.where(overflow, 0.0, s)
        s4 = s[:, None, None, None]   # against each group's (blocks, size, size)
        for rows, blocks, closed in plan:
            if closed:   # mu and r shaped (blocks, 1, 1)
                mu, r = closed
                sr, half = s4 * r, np.exp(0.5 * (s4 * mu))
                res = (np.cos(sr) * _EYE2
                       + np.where(r > 0.0, np.sin(sr) / r, s4) * blocks) * half * half
            elif blocks.shape[-1] == 1:
                res = np.exp(s4 * blocks)
            else:
                x = s4 * blocks
                res = _pade13_stack(x.reshape((-1,) + blocks.shape[1:])).reshape(x.shape)
            overflow |= ~np.isfinite(res).all(axis=(1, 2, 3))
            out[:, rows, rows.transpose(0, 2, 1)] = res
    if not s.all():   # a zero scale, or an overflowed one, gives the exact identity
        out[s == 0.0] = np.eye(n)
    return out, overflow


def lyapunov_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A Q + Q A = RHS.

    Up to ELIMINATION_MAX_N this is one numpy solve of the P^2 x P^2
    Kronecker system (A (x) I + I (x) A^T) vec(Q) = vec(RHS), row-major
    vec; larger P takes Bartels-Stewart (scipy.linalg.solve_sylvester).
    A residual above RESIDUAL_TOL * max(1, max |RHS|), or an exactly
    singular Kronecker system, raises LyapunovSolveError. That catches a
    spectrum with some lambda_i + lambda_j = 0 unless RHS lies in the
    range of the singular map, where a Q exists but is not unique;
    make_evaluator rejects such spectra before solving.
    """
    a = np.asarray(a, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = a.shape[0]
    if a.shape != (p, p) or rhs.shape != (p, p):
        raise SpecValidationError(
            f"lyapunov_solve: shapes {a.shape} and {rhs.shape} must both be ({p}, {p})")
    with np.errstate(over="ignore", invalid="ignore"):
        if p > ELIMINATION_MAX_N:
            import scipy.linalg as sla
            q = sla.solve_sylvester(a, a, rhs)
        else:
            eye = np.eye(p)
            # A (x) I + I (x) A^T, equal to np.kron's bit for bit at a quarter of its cost
            kron = np.einsum("ik,jl->ijkl", a, eye) + np.einsum("ik,jl->ijkl", eye, a.T)
            try:
                q = np.linalg.solve(kron.reshape(p * p, p * p), rhs.ravel()).reshape(p, p)
            except np.linalg.LinAlgError:   # exactly singular: the residual check below reports it
                q = np.full((p, p), np.nan)
        resid = float(np.max(np.abs(a @ q + q @ a - rhs)))
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if not resid <= RESIDUAL_TOL * scale:
        lam = np.linalg.eigvals(a)
        raise LyapunovSolveError(
            f"Lyapunov residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e} * {scale:.3e} (smallest "
            f"eigenvalue pair sum {np.min(np.abs(lam[:, None] + lam)):.3e} in modulus)")
    return q


def _pivot_gate(min_pivot, max_abs):
    """True where a factorization is singular to working precision."""
    return min_pivot <= PIVOT_TOL * np.maximum(max_abs, 1e-300)


@dataclass(frozen=True)
class LuFactors:
    """Pivoted LU factorizations of a (k, n, n) stack of square matrices.

    Made by _lu_factor_members only, and judged by other modules only
    through gates() and check_solvable(). lu and piv are the packed
    LAPACK-style factors (row i of a member was swapped with row
    piv[..., i] at step i), laid out for lu_solve_stack; max_abs and
    norm_inf, the largest absolute entry and row sum of each original
    member, scale the pivot and the near-singular gate. The methods give
    one value per member; an empty member (n = 0, min pivot 0) is singular.
    """

    lu: np.ndarray
    piv: np.ndarray
    max_abs: np.ndarray
    norm_inf: np.ndarray

    @property
    def n(self) -> int:
        return self.lu.shape[-1]

    def singular(self) -> np.ndarray:
        """The pivot gate: min |pivot| <= PIVOT_TOL * max |entry|."""
        pivots = np.abs(np.diagonal(self.lu, axis1=-2, axis2=-1))
        return _pivot_gate(pivots.min(axis=-1) if self.n else 0.0, self.max_abs)

    def gates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(det, overflow: a non-finite entry or det, near_singular: either gate, not overflow)."""
        sign = 1.0 - 2.0 * ((self.piv != np.arange(self.n)).sum(axis=-1) % 2)
        with np.errstate(over="ignore", invalid="ignore"):
            det = sign * np.diagonal(self.lu, axis1=-2, axis2=-1).prod(axis=-1)
            near = np.abs(det) < NEAR_SINGULAR_TOL * (1 + np.maximum(1, self.norm_inf) ** self.n)
        overflow = ~np.isfinite(self.max_abs) | ~np.isfinite(det)
        return det, overflow, ~overflow & (near | self.singular())

    def check_solvable(self) -> None:
        """Raise for the first member that is non-finite ("overflow in member i of a factored
        stack") or fails the pivot gate ("solve: matrix is singular ...")."""
        for i in np.flatnonzero(~np.isfinite(self.max_abs) | self.singular())[:1]:
            if not np.isfinite(self.max_abs[i]):
                raise OverflowDetectedError(f"overflow in member {i} of a factored stack")
            raise SingularMatrixError("solve: matrix is singular to working precision (pivot "
                                      f"{min(np.abs(np.diagonal(self.lu[i])), default=0.0):.3e})")


def lu_factor(m: np.ndarray) -> LuFactors:
    """Factor a real square matrix: lu_factor_stack on a stack of one, checked."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecValidationError(f"lu_factor: square matrix required, got shape {m.shape}")
    return lu_factor_stack(_check_finite(m, "lu_factor input")[None])


def determinant(factors: LuFactors) -> float:
    """Determinant of member 0 from its LU diagonal; overflow raises, zero is fine."""
    det = float(factors.gates()[0][0])
    if not np.isfinite(det):
        # recompute in log space to report log|det| before failing
        with np.errstate(divide="ignore"):
            log_mag = float(np.sum(np.log(np.abs(np.diagonal(factors.lu[0])))))
        raise OverflowDetectedError(f"determinant overflow, log|det| = {log_mag:.6g}")
    return det


def solve(factors: LuFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve lu_factor's one member for a 1-D or 2-D rhs by lu_solve_stack, after check_solvable."""
    factors.check_solvable()
    rhs = np.asarray(rhs, dtype=float)
    out = lu_solve_stack(factors, [0], rhs.reshape(len(rhs), -1))[0].reshape(rhs.shape)
    return _check_finite(out, "solve")


def inverse(factors: LuFactors) -> np.ndarray:
    """Explicit inverse via solves against the identity."""
    return solve(factors, np.eye(factors.n))


def _swap_rows(a: np.ndarray, j: int, p: np.ndarray) -> None:
    """Swap row j with row p[i] of every member i of a points-last stack."""
    for r in range(j + 1, a.shape[0]):
        swap = p == r
        row = a[j].copy()
        a[j] = np.where(swap, a[r], row)
        a[r] = np.where(swap, row, a[r])


def lu_factor_stack(m: np.ndarray) -> LuFactors:
    """Partial-pivoting LU of every matrix in a (k, n, n) stack, m left intact.

    _lu_factor_members on a copy of m in Fortran-ordered members. No
    gate is applied, so callers read gates() or check_solvable(); a
    non-finite member gets a non-finite max_abs and meaningless factors.
    """
    m = np.asarray(m, dtype=float)
    return _lu_factor_members(m.transpose(0, 2, 1).copy().transpose(0, 2, 1))


def _lu_factor_members(lu: np.ndarray) -> LuFactors:
    """The package's one LU: factor a (k, n, n) stack of Fortran-ordered members.

    Both gate scales, max_abs and norm_inf, come from one |m| pass over
    what the factorization reads. Up to ELIMINATION_MAX_N that is one
    points-last (n, n, k) copy, whose row sums are accumulated in column
    order, and Gaussian elimination runs on it one column per step but the
    last (its pivot is forced), each step a vector operation over all k
    members, with LAPACK's pivot choice (the first entry of largest
    magnitude); a column with a zero pivot is left uneliminated, as LAPACK
    leaves it. The factors are a (k, n, n) view of that copy. Above it the
    pass reads the members as the C-ordered m^T, whose BLAS column sums are
    the row sums of m, one slice of at most _SCALE_SLICE_BYTES at a time,
    and dgetrf factors each member where it lies, overwriting it. A
    member's factors do not depend on the rest of the stack; a non-finite
    member's are meaningless.
    """
    k, n, _ = lu.shape
    piv = np.empty((k, n), dtype=np.intp)
    if n > ELIMINATION_MAX_N:
        import scipy.linalg as sla
        max_abs, norm_inf = np.empty(k), np.empty(k)
        step = max(1, _SCALE_SLICE_BYTES // (8 * n * n))
        buf = np.empty((min(k, step), n, n))   # one slice of |m^T|, reused
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, k, step):
                sl = slice(lo, lo + step)
                mag = np.abs(lu[sl].transpose(0, 2, 1), out=buf[:len(lu[sl])])
                max_abs[sl] = np.max(mag.reshape(len(mag), n * n), axis=1, initial=0.0)
                norm_inf[sl] = np.max(np.ones(n) @ mag, axis=-1, initial=0.0)
        getrf = sla.lapack.dgetrf
        for member, p in zip(lu, piv):   # in place (overwrite_a): only the pivots are copied out
            p[:] = getrf(member, 1)[1]
        return LuFactors(lu=lu, piv=piv, max_abs=max_abs, norm_inf=norm_inf)
    a = lu.transpose(1, 2, 0).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        mag = np.abs(a)
        max_abs = mag.max(axis=(0, 1), initial=0.0)
        norm_inf = mag.sum(axis=1).max(axis=0, initial=0.0)
        piv[:, n - 1:] = n - 1   # the last column's pivot is forced: nothing below it
        for j in range(n - 1):
            p = j + np.abs(a[j:, j]).argmax(axis=0)
            piv[:, j] = p
            _swap_rows(a, j, p)
            pivot = a[j, j]
            a[j + 1:, j] /= np.where(pivot == 0.0, 1.0, pivot)
            a[j + 1:, j + 1:] -= a[j + 1:, j, None] * a[j, None, j + 1:]
    return LuFactors(lu=a.transpose(2, 0, 1), piv=piv, max_abs=max_abs, norm_inf=norm_inf)


def lu_solve_stack(factors: LuFactors, idx, rhs: np.ndarray) -> np.ndarray:
    """Solve the systems of members idx of a factored (k, n, n) stack.

    rhs is (len(idx), n, r) or broadcasts to it, and so is the result.
    Up to ELIMINATION_MAX_N the substitutions run on a points-last
    gather of the members' factors and a points-last copy of rhs, of
    which the result is a view. Above it dgetrs solves each member on a
    Fortran-ordered copy of its right-hand sides, reading its factors
    where they lie, and the result is C-contiguous. Members with a zero
    pivot give non-finite solutions instead of raising; callers gate them.
    """
    n = factors.n
    shape = (len(idx), n, np.shape(rhs)[-1])
    if n > ELIMINATION_MAX_N:
        import scipy.linalg as sla
        x = np.array(np.broadcast_to(rhs, shape).transpose(0, 2, 1),
                     dtype=float, order="C").transpose(0, 2, 1)   # Fortran-ordered members
        getrs, piv = sla.lapack.dgetrs, factors.piv[idx].astype(np.int32)   # LAPACK's int
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i, p, b in zip(idx, piv, x):   # in place (overwrite_b, trans 0)
                getrs(factors.lu[i], p, b, 0, 1)
        return np.ascontiguousarray(x)
    lu = np.take(factors.lu.transpose(1, 2, 0), idx, axis=-1)
    piv = factors.piv[idx]
    x = np.array(np.broadcast_to(rhs, shape).transpose(1, 2, 0), dtype=float, order="C")
    for j in range(n - 1):   # the last column's swap and elimination are empty
        _swap_rows(x, j, piv[:, j])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(n - 1):
            x[j + 1:] -= lu[j + 1:, j, None] * x[j, None]
        for j in reversed(range(n)):
            x[j] /= lu[j, j]
            x[:j] -= lu[:j, j, None] * x[j, None]
    return x.transpose(2, 0, 1)


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
    """Solve (k I - i A) z = b for complex k, real P x P A and P x r b.

    A numpy complex solve and one step of iterative refinement (the
    residual's solve added to z), behind the pivot gate (_pivot_gate) on
    the distances |k - i lambda| to A's eigenvalues: the least against
    the largest or ||A||_F, whichever is larger.
    reflection_partial_fractions takes the same gate on the distances to
    the spec's poles. ||A||_F bounds every entry of A's Schur form T, so
    the gate fires wherever it would on the pivots k - i T_jj of a
    Schur-form solve. k equal to i times an eigenvalue of A, or an
    exactly singular system, raises SingularMatrixError; an empty A
    gives an empty z.
    """
    a = np.asarray(a, dtype=float)
    dist = np.abs(k - 1j * eigenvalues(a).eigenvalues)
    nearest = float(np.min(dist, initial=np.inf))
    try:
        if _pivot_gate(nearest, max(np.max(dist, initial=0.0), np.linalg.norm(a))):
            raise np.linalg.LinAlgError   # singular to working precision: reported below
        m = k * np.eye(len(a)) - 1j * a
        z = np.linalg.solve(m, b)
        z += np.linalg.solve(m, b - m @ z)   # one step of iterative refinement
    except np.linalg.LinAlgError:
        raise SingularMatrixError("resolvent: k I - i A is singular to working precision "
                                  f"(distance {nearest:.3e} to i times an eigenvalue)") from None
    return _check_finite(z, "resolvent")
