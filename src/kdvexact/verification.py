"""Independent checks of constructed solutions.

Four families of evidence, none of which reuses the closed-form
algebra it is checking:

* finite-difference residual of u_t + eta u_x - 6 u u_x + u_xxx,
* the integral-equation residual of the kernel K against its
  separable driver Omega,
* a Fourier quadrature cross-check of Omega(y; 0) = C exp(-yA) B
  against the spec's partial-fraction reflection function on the real
  line,
* determinant positivity scans, and det Gamma of bound states against
  Hirota's N-soliton tau-function, a finite sum of exponentials.

Everything here runs on numpy and the package's own kernels (the
stacked exponential and LU, and one adaptive G10/K21 rule shared by the
Marchenko and Fourier quadratures), so verify, like the grid path,
loads no scipy module up to linalg.ELIMINATION_MAX_N.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, realization, solution
from .errors import (FormalModeError, NumericalError, OverflowDetectedError,
                     SpecValidationError)

# fourth-order central first derivative: (f-2 - 8 f-1 + 8 f+1 - f+2) / (12 h)
_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_D1_SCALE = 12.0

# fourth-order central third derivative:
# (f-3 - 8 f-2 + 13 f-1 - 13 f+1 + 8 f+2 - f+3) / (8 h^3)
_D3_OFFSETS = (-3, -2, -1, 1, 2, 3)
_D3_WEIGHTS = (1.0, -8.0, 13.0, -13.0, 8.0, -1.0)
_D3_SCALE = 8.0

X_STENCIL_REACH = 3  # x stencil spans x +/- 3 h_x
REFINEMENT_LEVELS = (3.2e-2, 1.6e-2, 8e-3)   # h_x of pde_residual_refinement, coarsest first
REFINEMENT_RATIO_BAND = (8.0, 32.0)  # brackets ratio 16 = 2**4 for a 4th-order scheme

QUAD_LIMIT = 200             # adaptive subdivisions of the Marchenko and Fourier quadratures
MARCHENKO_TAIL_FLOOR = 1e-14  # decay envelope where each Marchenko tail is cut
OMEGA_EPSABS = 1e-10         # absolute tolerance of the Fourier half-line quadratures
OMEGA_CYCLES = 48            # Fourier half-periods past the poles' real parts, averaged
OMEGA_MAX_CYCLES = 512       # Fourier half-periods one check may integrate, over all y
OMEGA_AVERAGINGS = 24        # rounds of partial-sum averaging (Euler's transform)
POSITIVITY_SAMPLES_PER_UNIT = 8.0  # positivity scan grid points per unit of x and of t
POSITIVITY_MAX_POINTS = 10_000_000  # grid points one positivity scan may evaluate
POSITIVITY_BISECT_TOL = 1e-8  # width to which a positivity crossing time is bisected
SOLITON_MAX_STATES = 12       # bound states the soliton check takes (2^N tau terms per point)

# QUADPACK's qk21 (Piessens et al., 1983): the nonnegative 21-point
# Kronrod nodes on [-1, 1], their weights, and the 10-point Gauss weights
# of the nodes 1, 3, .., 9 among them. The rule is symmetric about 0.
_QK21_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
             0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
             0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
             0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
             0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
             0.0)
_QK21_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
             0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
             0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
             0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
             0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
             0.149445554002916905664936468389821)
_QK21_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
            0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
_KRONROD_X = np.concatenate([_QK21_XGK, np.negative(_QK21_XGK[-2::-1])])
_KRONROD_W = np.concatenate([_QK21_WGK, _QK21_WGK[-2::-1]])
_GAUSS_W = np.concatenate([_QK21_WG, _QK21_WG[::-1]])   # at _KRONROD_X[1::2]
_MAX_SPLITS = 128   # intervals bisected per round at most, as quad_vec
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class ResidualScan:
    """PDE residual sampled on a window; residual is (len(t), len(x))."""

    x: np.ndarray
    t: np.ndarray
    residual: np.ndarray
    h_x: float
    h_t: float
    eta: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residual)))


@dataclass(frozen=True)
class RefinementReport:
    """Residual maxima across h levels and the observed convergence."""

    levels: tuple[float, ...]
    max_residuals: tuple[float, ...]
    ratios: tuple[float, ...]
    orders: tuple[float, ...]

    @property
    def fourth_order(self) -> bool:
        lo, hi = REFINEMENT_RATIO_BAND
        return all(lo <= r <= hi for r in self.ratios)


def _auto_h_t(evaluator: solution.GammaEvaluator, h_x: float) -> float:
    # Time stencil error is O(h_t^2); tying h_t to h_x^2 keeps the whole
    # residual decaying at fourth order. The rate factor equalizes the
    # stencil arguments in units of the solution's own x and t scales.
    if not isinstance(evaluator, solution.GammaEvaluator):
        raise SpecValidationError(
            f"the PDE residual samples a GammaEvaluator, got {type(evaluator).__name__}")
    lam = evaluator.diagnostics.spectrum.eigenvalues
    rate_x = 2.0 * float(np.max(np.abs(lam)))
    rate_t = float(np.max(np.abs(8.0 * lam ** 3 + 2.0 * evaluator.eta * lam)))
    return (1.0 if rate_t <= 0.0 else rate_x * rate_x / rate_t) * h_x * h_x


def _stencil_values(evaluator: solution.GammaEvaluator, xs, ts, h_x, h_t) -> np.ndarray:
    """u at every stencil node in one batched kernel call, shaped (3, n_t, 7, n_x).

    Axis 0 is t + 0, t + h_t, t - h_t; axis 2 is x + o h_x for
    o = -3 .. 3. Each value equals evaluator.u exactly, NaN where flagged.
    """
    offsets = np.arange(-X_STENCIL_REACH, X_STENCIL_REACH + 1)
    node_x = xs + offsets[:, None] * h_x
    node_t = np.concatenate([ts, ts + h_t, ts - h_t])
    return evaluator.evaluate(node_x.reshape(-1), node_t).u.reshape(3, ts.size, -1, xs.size)


def _check_grid(x_window, t_window, **counts: int) -> None:
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise SpecValidationError(f"{name} must be an integer, got {n!r}")
        if not n >= 1:
            raise SpecValidationError(f"{name} must be at least 1, got {n!r}")
    for name, window in (("x_window", x_window), ("t_window", t_window)):
        for bound in window:
            if not math.isfinite(bound):
                raise SpecValidationError(f"{name} bounds must be finite, got {bound!r}")


def pde_residual(evaluator: solution.GammaEvaluator, x_window, t_window, n_x: int = 11,
                 n_t: int = 5, h_x: float = 1e-3) -> ResidualScan:
    """Finite-difference residual of u_t + eta u_x - 6 u u_x + u_xxx.

    u comes only from the evaluator, every stencil node in one kernel
    call; eta is evaluator.eta, and h_t = (rate_x^2 / rate_t) h_x^2 with
    rate_x = 2 max|lambda|, rate_t = max|8 lambda^3 + 2 eta lambda| over
    the spectrum of A. The window is clipped so every stencil node has
    x >= 0 and t >= 0. A flagged or non-finite stencil sample rejects the
    window with SpecValidationError, naming the point. A non-evaluator
    argument, a non-finite window bound, a count not an integer >= 1 (a
    bool is none), or an h_x not finite and > 0 raises it before any sampling.
    """
    _check_grid(x_window, t_window, n_x=n_x, n_t=n_t)
    if not (math.isfinite(h_x) and h_x > 0.0):
        raise SpecValidationError(f"h_x must be finite and > 0, got {h_x!r}")
    h_t = _auto_h_t(evaluator, h_x)
    x_lo = max(float(x_window[0]), X_STENCIL_REACH * h_x)
    x_hi = float(x_window[1])
    t_lo = max(float(t_window[0]), h_t)
    t_hi = float(t_window[1])
    if not (x_hi >= x_lo and t_hi >= t_lo):
        raise SpecValidationError(
            f"window [{x_window[0]}, {x_hi}] x [{t_window[0]}, {t_hi}] vanishes "
            f"after clipping for h_x={h_x}, h_t={h_t}")
    xs = np.linspace(x_lo, x_hi, n_x)
    ts = np.linspace(t_lo, t_hi, n_t)
    now, later, earlier = _stencil_values(evaluator, xs, ts, h_x, h_t)
    mid = X_STENCIL_REACH   # the offset-0 column
    u0 = now[:, mid]
    ux = sum(w * now[:, mid + o] for o, w in zip(_D1_OFFSETS, _D1_WEIGHTS)) / (_D1_SCALE * h_x)
    uxxx = sum(w * now[:, mid + o]
               for o, w in zip(_D3_OFFSETS, _D3_WEIGHTS)) / (_D3_SCALE * h_x ** 3)
    ut = (later[:, mid] - earlier[:, mid]) / (2.0 * h_t)
    with np.errstate(invalid="ignore"):
        res = ut + evaluator.eta * ux - 6.0 * u0 * ux + uxxx
    bad = ~np.isfinite(res)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise SpecValidationError(
            f"flagged or non-finite sample in the residual stencil at "
            f"x={float(xs[j])!r}, t={float(ts[i])!r}")
    for arr in (xs, ts, res):
        arr.setflags(write=False)
    return ResidualScan(x=xs, t=ts, residual=res, h_x=h_x, h_t=h_t, eta=evaluator.eta)


def pde_residual_refinement(evaluator: solution.GammaEvaluator, x_window,
                            t_window) -> RefinementReport:
    """Run the evaluator's pde_residual at each h_x of REFINEMENT_LEVELS and report convergence.

    The window is clipped once, for the coarsest level, so every level
    samples the same 9 x 4 points; h_t is derived per level. Ratios near 16
    between successive halvings confirm the fourth-order design. A
    non-evaluator argument or a non-finite window bound raises
    SpecValidationError first.
    """
    _check_grid(x_window, t_window)
    levels = REFINEMENT_LEVELS
    x_lo = max(float(x_window[0]), X_STENCIL_REACH * levels[0])
    t_lo = max(float(t_window[0]), _auto_h_t(evaluator, levels[0]))
    maxima = []
    for h in levels:
        scan = pde_residual(evaluator, (x_lo, x_window[1]), (t_lo, t_window[1]),
                            n_x=9, n_t=4, h_x=h)
        maxima.append(scan.max_abs)
    ratios = tuple(maxima[i] / maxima[i + 1] for i in range(len(maxima) - 1))
    orders = tuple(math.log(r) / math.log(levels[i] / levels[i + 1])
                   for i, r in enumerate(ratios))
    return RefinementReport(levels=levels, max_residuals=tuple(maxima),
                            ratios=ratios, orders=orders)


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's qk21 rule on every interval [lo_j, hi_j] at once.

    f maps a 1-D array of nodes to one row of values per node. Returns
    each interval's integral (len(lo), n) and its error and rounding
    estimates (len(lo),), as quad_vec's gk21 rule computes them under
    the max norm: QUADPACK's scaled Kronrod - Gauss difference, raised
    to the rounding estimate 50 eps h int |f|. A non-finite value of f
    raises NumericalError.
    """
    c = 0.5 * (lo + hi)
    h = (0.5 * (hi - lo))[:, None]
    nodes = c[:, None] + h * _KRONROD_X
    fv = f(nodes.reshape(-1)).reshape(nodes.shape + (-1,))   # (intervals, 21, n)
    if not np.isfinite(fv).all():
        raise NumericalError("non-finite integrand in the adaptive quadrature")
    # sums past the float range give a NaN error, which _adaptive_gk21 rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s_k = _KRONROD_W @ fv
        s_g = _GAUSS_W @ fv[:, 1::2]
        dabs = np.abs(h * (_KRONROD_W @ np.abs(fv - 0.5 * s_k[:, None]))).max(axis=-1)
        err = np.abs((s_k - s_g) * h).max(axis=-1)
        damped = dabs * np.minimum(1.0, (200.0 * err / dabs) ** 1.5)
        err = np.where((dabs != 0.0) & (err != 0.0), damped, err)
        rounding = np.abs(50.0 * _EPS * h * (_KRONROD_W @ np.abs(fv))).max(axis=-1)
    err = np.where(rounding > _TINY, np.maximum(err, rounding), err)
    return h * s_k, err, rounding


def _adaptive_gk21(f, b: float, epsabs: float, epsrel: float) -> tuple[np.ndarray, float]:
    """int_0^b f(s) ds for vector-valued f, and its error estimate, by quad_vec's scheme.

    Each round bisects the intervals of largest error estimate until
    their errors sum past global error - tol / 8 (at most 128), and
    evaluates every new node in one call of f. It stops once the global
    error falls below tol / 8, tol = max(epsabs, epsrel max|integral|),
    or below the accumulated rounding estimate. Reaching QUAD_LIMIT
    intervals first, or a non-finite estimate, raises NumericalError.
    """
    lo, hi = np.array([0.0]), np.array([float(b)])
    parts, errs, rounding = _gk21(f, lo, hi)
    total, error, rounding = parts[0], float(errs[0]), float(rounding[0])
    tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
    while lo.size < QUAD_LIMIT:
        order = np.lexsort((hi, lo, -errs))
        within = np.cumsum(errs[order])[:-1] <= error - tol / 8.0
        take, keep = np.split(order, [min(_MAX_SPLITS, 1 + np.count_nonzero(within))])
        mid = 0.5 * (lo[take] + hi[take])
        new_lo = np.concatenate([lo[take], mid])
        new_hi = np.concatenate([mid, hi[take]])
        new_parts, new_errs, new_rounding = _gk21(f, new_lo, new_hi)
        total = total + np.sum(new_parts, axis=0) - np.sum(parts[take], axis=0)
        error += float(np.sum(new_errs) - np.sum(errs[take]))
        rounding += float(np.sum(new_rounding))
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        parts = np.concatenate([parts[keep], new_parts])
        errs = np.concatenate([errs[keep], new_errs])
        tol = max(epsabs, epsrel * float(np.max(np.abs(total))))
        if not (math.isfinite(error) and math.isfinite(rounding)):
            raise NumericalError(f"quadrature error estimate {error:.3e} or its rounding "
                                 f"estimate {rounding:.3e} is not finite")
        if error < tol / 8.0 or error < rounding:
            return total, error
    raise NumericalError(
        f"quadrature did not converge in {QUAD_LIMIT} subintervals: error estimate "
        f"{error:.3e} above {tol / 8.0:.3e}")


def _require_decay(evaluator: solution.GammaEvaluator, check: str) -> None:
    if evaluator.formal_mode:
        raise FormalModeError(
            f"{check} needs every eigenvalue of A in the open right "
            f"half plane; min Re = {evaluator.diagnostics.spectrum.min_real_part:.6g}")


def marchenko_residual(evaluator: solution.GammaEvaluator, x, y, t):
    """Residual of K(x,y) + Omega(x+y) + int_x^inf K(x,z) Omega(y+z) dz.

    x, y and t are scalars (a float is returned) or equal-length 1-D
    arrays (an array of residuals is returned). Every sample is checked
    for finite 0 <= x <= y and finite t before any work is done. Valid
    only when all eigenvalues of A have positive real part (the
    integrand then decays like exp(-2 mu z)); otherwise the integral
    diverges and FormalModeError is raised. Each sample's infinite tail
    is cut where its decay envelope falls below MARCHENKO_TAIL_FLOOR.

    The set-up takes two stacked exponentials over the samples:
    exp(-xA), exp(-(x+y)A) and exp(-yA) in one, E(t) in the other.
    Gamma(x, t) is factored for all samples in one stacked LU
    (linalg.lu_factor_stack; the first sample with a non-finite Gamma or
    one failing the pivot gate raises OverflowDetectedError or
    SingularMatrixError), giving
    K(x,y) = -C E(t) exp(-xA) Gamma^{-1} exp(-yA) B and the rows
    R = C E(t) exp(-xA) Gamma^{-1} exp(-xA), W = C E(t) exp(-(x+y)A).
    With z = x + s, exp(-zA) = exp(-xA) exp(-sA), so every sample's
    integrand is -(R v)(W v) with v = exp(-sA) B. All samples share one
    adaptive G10/K21 quadrature over s (QUADPACK's qk21 with quad_vec's
    error estimate and bisection), so each refinement round costs one
    stacked exponential over its new nodes whatever the sample count.
    Each sample's error is bounded by epsabs + epsrel max_i |I_i| (both
    1e-12) under the max norm; reaching QUAD_LIMIT subintervals
    first raises NumericalError instead of returning an unconverged
    integral. A nonzero C whose C E(t) underflows to exactly 0 at every
    sample would compare 0 with 0, so it raises NumericalError too.
    """
    _require_decay(evaluator, "Marchenko residual")
    x, y, t = (np.asarray(v, dtype=float) for v in (x, y, t))
    scalar = x.ndim == y.ndim == t.ndim == 0
    x, y, t = np.atleast_1d(x, y, t)
    if not (x.ndim == 1 and x.size and x.shape == y.shape == t.shape):
        raise SpecValidationError(f"x, y and t must be scalars or nonempty 1-D arrays of "
                                  f"one length, got shapes {x.shape}, {y.shape}, {t.shape}")
    bad = np.flatnonzero(~((0.0 <= x) & (x <= y) & np.isfinite(y) & np.isfinite(t)))
    if bad.size:
        i = bad[0]
        where = "" if scalar else f"sample {i}: "
        raise SpecValidationError(f"need finite 0 <= x <= y and finite t, {where}got "
                                  f"x={float(x[i])!r}, y={float(y[i])!r}, t={float(t[i])!r}")
    trip = evaluator.triplet
    a, b, c = trip.A, trip.B.reshape(-1), trip.C.reshape(-1)
    exa, exya, eya = np.split(linalg.expm(a, -np.concatenate([x, x + y, y])), 3)
    prop = linalg.expm(evaluator.flow, t)                       # E(t), per sample
    with np.errstate(over="ignore", invalid="ignore"):
        ce = c @ prop                                           # C E(t)
        row = np.einsum("np,npq->nq", ce, exa)                  # C E(t) exp(-xA)
        gamma = np.eye(trip.P) + exa @ evaluator.Q @ exa @ prop
        rhs = np.concatenate([exa, (eya @ b)[..., None]], axis=-1)
    if np.any(c) and not np.any(ce):
        raise NumericalError("C E(t) underflows to 0 at every sample, so nothing was compared")
    factors = linalg.lu_factor_stack(gamma)
    factors.check_solvable()   # the first bad sample raises
    sol = linalg.lu_solve_stack(factors, range(len(x)), rhs)
    with np.errstate(over="ignore", invalid="ignore"):
        rg = np.einsum("np,npq->nq", row, sol)                  # C E exp(-xA) Gamma^{-1} [...]
        rows, kernel = rg[:, :-1], -rg[:, -1]
        weights = np.einsum("np,npq->nq", ce, exya)
        direct = kernel + weights @ b
        start = np.abs((rows @ b) * (weights @ b))
    if not all(np.all(np.isfinite(v)) for v in (rg, weights, direct, start)):
        raise OverflowDetectedError("overflow in the Marchenko kernel rows")
    mu = evaluator.diagnostics.spectrum.min_real_part
    # where start / MARCHENKO_TAIL_FLOOR overflows, its log is the difference of the logs
    with np.errstate(over="ignore", divide="ignore"):
        ratio = start / MARCHENKO_TAIL_FLOOR
        cut = np.where(np.isinf(ratio), np.log(start) - math.log(MARCHENKO_TAIL_FLOOR),
                       np.log(np.maximum(ratio, math.e))) / (2.0 * mu) + 2.0

    def integrand(s: np.ndarray) -> np.ndarray:
        v = linalg.expm(a, -s) @ b
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(s[:, None] <= cut, -(v @ rows.T) * (v @ weights.T), 0.0)

    integral, _ = _adaptive_gk21(integrand, float(cut.max()), epsabs=1e-12, epsrel=1e-12)
    residual = direct + integral
    return float(residual[0]) if scalar else residual


@dataclass(frozen=True)
class OmegaQuadratureCheck:
    """One y sample of the Fourier cross-check of Omega(y; 0)."""

    y: float
    quadrature: float
    reference: float

    @property
    def error(self) -> float:
        return abs(self.quadrature - self.reference)


def omega_quadrature_check(spec: realization.ScatteringSpec,
                           ys) -> tuple[OmegaQuadratureCheck, ...]:
    """Check Omega(y; 0) against the Fourier transform of the reflection.

    (1/2 pi) int_R r(k) exp(i k y) dk, folded onto (0, inf) by
    r(-k) = conj r(k), is (1/pi) Re int_0^inf r(k) exp(i k y) dk; it is
    compared with C exp(-yA) B over the non-bound-state blocks. The half
    line is cut into half-periods k = (n + s) pi / y, s in [0, 1], and
    every (y, n) cycle is one component of a single vector integrand,
    taken by one adaptive G10/K21 quadrature. The cycles below
    n0 = ceil(y max|Re z| / pi), which hold every pole's real part, are
    summed; the OMEGA_CYCLES past them form an alternating series whose
    partial sums are averaged OMEGA_AVERAGINGS times (Euler's
    transform). r(k) is summed from the spec's own partial fractions
    (those of realization.reflection_partial_fractions, in one array
    call per quadrature round), so an error in the realization shows
    as a mismatch. Bound states carry no continuous spectrum, so specs
    without reflection data compare 0 against 0; an empty ys gives ().
    Every y is checked before any quadrature runs. NumericalError is
    raised when the cycles of all ys exceed OMEGA_MAX_CYCLES, on reaching
    QUAD_LIMIT subintervals, or when the error estimate (a bound per
    cycle; a y's value sums n0 + OMEGA_CYCLES cycles) or a last averaging
    step exceeds OMEGA_EPSABS.
    """
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    for y in ys.tolist():
        if not (math.isfinite(y) and y > 0.0):
            raise SpecValidationError(
                f"omega quadrature check needs a finite y > 0 (contour closure), got {y!r}")
    terms = realization._partial_fraction_terms(spec)
    if not (terms and ys.size):
        return tuple(OmegaQuadratureCheck(y=y, quadrature=0.0, reference=0.0) for y in ys.tolist())
    reach = max(abs(z.real) for z, _ in terms)
    need = np.ceil(ys * reach / math.pi) + OMEGA_CYCLES
    if not need.sum() <= OMEGA_MAX_CYCLES:
        raise NumericalError(f"Fourier quadrature needs {need.sum():.6g} half-periods (poles "
                             f"out to |Re k| = {reach:.6g}), above {OMEGA_MAX_CYCLES}")
    counts = need.astype(int)
    n = np.concatenate([np.arange(count) for count in counts])
    width = np.repeat(math.pi / ys, counts)
    weight = np.where(n % 2, -width, width)   # dk/ds times exp(i n pi)

    def cycles(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):   # _gk21 refuses a non-finite value
            r = realization._partial_fraction_sum(terms, (n + s[:, None]) * width)
            return (r * np.exp(1j * math.pi * s)[:, None]).real * weight

    parts, error = _adaptive_gk21(cycles, 1.0, epsabs=OMEGA_EPSABS, epsrel=0.0)
    if not error <= OMEGA_EPSABS:   # stopped on the rounding estimate above tolerance
        raise NumericalError(f"Fourier quadrature error estimate {error:.3e} above "
                             f"{OMEGA_EPSABS:.1e}")
    refl = realization.build_reflection_triplet(spec)
    reference = (refl.C @ linalg.expm(refl.A, -ys) @ refl.B).reshape(-1).tolist()
    out = []
    for y, cyc, ref in zip(ys.tolist(), np.split(parts, np.cumsum(counts)[:-1]), reference):
        sums = np.sum(cyc[:-OMEGA_CYCLES]) + np.cumsum(cyc[-OMEGA_CYCLES:])
        for _ in range(OMEGA_AVERAGINGS):
            sums, last = 0.5 * (sums[:-1] + sums[1:]), sums[-1]
        if not abs(sums[-1] - last) <= OMEGA_EPSABS:
            raise NumericalError(f"Fourier tail at y={y!r} did not settle: last averaging "
                                 f"step {abs(sums[-1] - last):.3e} above {OMEGA_EPSABS:.1e}")
        out.append(OmegaQuadratureCheck(y=y, quadrature=float(sums[-1]) / math.pi, reference=ref))
    return tuple(out)


@dataclass(frozen=True)
class PositivityWindow:
    """Grid-scan positivity certificate for det Gamma.

    certified means every sampled det on [0, x_horizon] x [0, t_horizon]
    was positive; tau_lower is the largest scanned t below which all
    sampled dets stayed positive (refined by bisection when a crossing
    is found). This is evidence on a grid, not a proof between samples.
    """

    certified: bool
    x_horizon: float
    t_horizon: float
    tau_lower: float
    first_failure: tuple[float, float, float] | None  # (x, t, det)
    overflow_frontier: float | None
    n_x: int
    n_t: int


def positivity_scan(evaluator: solution.GammaEvaluator,
                    x_horizon: float, t_horizon: float) -> PositivityWindow:
    """Scan det Gamma > 0 over [0, x_horizon] x [0, t_horizon].

    The grid holds POSITIVITY_SAMPLES_PER_UNIT points per unit of x and
    of t (at least 2 each way); a grid of more than POSITIVITY_MAX_POINTS
    points raises SpecValidationError before anything is evaluated.
    Rows advance in t; the first row with a nonpositive sample stops the
    scan and the crossing time is bisected down to POSITIVITY_BISECT_TOL
    (earliest failing t, then smallest failing x, is reported). Overflow
    at large t truncates the scan and is reported as a frontier instead
    of a failure. Requires the decaying regime (no formal-mode spectra).
    """
    _require_decay(evaluator, "positivity scan")
    x_horizon = float(x_horizon)
    t_horizon = float(t_horizon)
    for name, value in (("x_horizon", x_horizon), ("t_horizon", t_horizon)):
        if not (math.isfinite(value) and value >= 0.0):
            raise SpecValidationError(f"{name} must be finite and nonnegative, got {value!r}")
    # each count capped first, so a horizon near the float limit never reaches round()
    n_x, n_t = (max(2, round(min(h * POSITIVITY_SAMPLES_PER_UNIT, POSITIVITY_MAX_POINTS)) + 1)
                for h in (x_horizon, t_horizon))
    if n_x * n_t > POSITIVITY_MAX_POINTS:
        raise SpecValidationError(f"positivity scan over x <= {x_horizon!r}, t <= {t_horizon!r} "
                                  f"needs more than {POSITIVITY_MAX_POINTS} grid points")
    xs = np.linspace(0.0, x_horizon, n_x)
    ts = np.linspace(0.0, t_horizon, n_t)
    window = functools.partial(PositivityWindow, certified=False, x_horizon=x_horizon,
                               t_horizon=t_horizon, first_failure=None,
                               overflow_frontier=None, n_x=n_x, n_t=n_t)
    scan = evaluator.evaluate(xs, ts, with_u=False)
    bad = scan.overflow | (scan.det_gamma <= 0.0)
    rows = np.flatnonzero(np.any(bad, axis=1))
    if not rows.size:
        return window(certified=True, tau_lower=t_horizon)
    i = int(rows[0])
    j = int(np.argmax(bad[i]))
    lo = float(ts[i - 1]) if i else 0.0   # t of the last row with every det > 0, or 0
    if scan.overflow[i, j]:
        return window(tau_lower=lo, overflow_frontier=float(ts[i]))
    hi, x_bad, det_bad = float(ts[i]), float(xs[j]), float(scan.det_gamma[i, j])
    while hi - lo > POSITIVITY_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        row = evaluator.evaluate(xs, [mid], with_u=False)
        row_bad = row.overflow[0] | (row.det_gamma[0] <= 0.0)
        j = int(np.argmax(row_bad))
        if not row_bad[j] or row.overflow[0, j]:
            lo = mid
        else:
            hi, x_bad, det_bad = mid, float(xs[j]), float(row.det_gamma[0, j])
    return window(tau_lower=lo, first_failure=(x_bad, hi, det_bad))


@dataclass(frozen=True)
class SolitonEquivalence:
    """Triplet-route det Gamma vs Hirota's N-soliton tau-function."""

    max_deviation: float
    worst_point: tuple[float, float]
    n_x: int
    n_t: int


def _soliton_spec(evaluator: solution.GammaEvaluator) -> realization.ScatteringSpec:
    """The spec the soliton check compares against; SpecValidationError if it cannot.

    The evaluator's triplet must come from build_triplet on a spec of at
    most SOLITON_MAX_STATES bound states and no reflection poles.
    """
    spec = evaluator.triplet.spec
    if spec is None:
        raise SpecValidationError("soliton needs a scattering-data document")
    if not spec.is_bound_state_only:
        raise SpecValidationError("soliton needs a bound-states-only spec (no reflection poles)")
    if len(spec.bound_states) > SOLITON_MAX_STATES:
        raise SpecValidationError(
            f"the soliton check takes at most {SOLITON_MAX_STATES} bound states "
            f"(2^N terms per point), got {len(spec.bound_states)}")
    return spec


def soliton_equivalence(evaluator: solution.GammaEvaluator,
                        x_window=(0.0, 5.0), t_window=(0.0, 1.0),
                        n_x: int = 26, n_t: int = 11) -> SolitonEquivalence:
    """Compare the evaluator's det Gamma against Hirota's tau for its spec.

    The deviation is |det_triplet / tau - 1|, maximized over the grid;
    worst_point is its first maximum in t-major order. The triplet side
    is one kernel call; tau is the N-soliton determinant in closed form
    (a sum of 2^N positive exponentials) of the bound states the
    evaluator's triplet was built from, so it shares no matrix,
    exponential or factorization with the kernel it checks. The first
    point, in t-major order, where the triplet side overflowed raises
    OverflowDetectedError naming it, before tau is formed. A non-finite
    window bound, a count not an integer >= 1 (a bool is none), or a
    triplet not built from a bound-states-only spec of at most
    SOLITON_MAX_STATES states raises SpecValidationError before any work.
    """
    _check_grid(x_window, t_window, n_x=n_x, n_t=n_t)
    spec = _soliton_spec(evaluator)
    xs = np.linspace(float(x_window[0]), float(x_window[1]), n_x)
    ts = np.linspace(float(t_window[0]), float(t_window[1]), n_t)
    triplet_side = evaluator.evaluate(xs, ts, with_u=False)
    failed = triplet_side.overflow
    if failed.any():
        i, j = np.unravel_index(np.argmax(failed), failed.shape)
        raise OverflowDetectedError(
            f"overflow in Gamma or det Gamma at x={float(xs[j])!r}, t={float(ts[i])!r}")
    tau_inv = np.exp(-realization._log_tau(spec, xs, ts[:, None]))   # tau >= 1: no overflow
    dev = np.abs(triplet_side.det_gamma * tau_inv - 1.0)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    return SolitonEquivalence(max_deviation=float(dev[i, j]),
                              worst_point=(float(xs[j]), float(ts[i])), n_x=n_x, n_t=n_t)
