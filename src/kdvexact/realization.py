"""Matrix realizations of rational reflection data.

A reflection coefficient with poles strictly inside the upper half
plane, given by partial-fraction data (complex pole pairs at
k = i*beta +/- alpha, purely imaginary poles at k = i*omega), plus
bound states (kappa, c), is realized as a matrix triplet (A, B, C)
with A of size P x P, B a column, C a row. The rational function
itself is recovered as -i C (k I - i A)^{-1} B over the non-bound-state
blocks (eval_reflection: one complex solve per k, in
linalg.resolvent_apply), and independently of the matrices as the
partial-fraction sum over the poles (reflection_partial_fractions);
both raise SingularMatrixError when k is a pole to working precision,
by one rule on the distances from k to the poles. The bound-state
blocks contribute the discrete part of the associated integral kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import SingularMatrixError, SpecValidationError


def _finite(value, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise SpecValidationError(f"{name} must be finite, got {value!r}")
    return v


def _positive(value, name: str, or_zero: bool = False) -> float:
    v = _finite(value, name)
    if v < 0.0 or (v == 0.0 and not or_zero):
        raise SpecValidationError(
            f"{name} must be {'nonnegative' if or_zero else 'positive'}, got {value!r}")
    return v


@dataclass(frozen=True)
class ComplexPolePair:
    """Pole pair at k = i*beta + alpha and k = i*beta - alpha.

    coefficients[s-1] = (eps_s, gamma_s) holds the order-s coefficient
    pair; the multiplicity is len(coefficients).
    """

    alpha: float
    beta: float
    coefficients: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _positive(self.beta, "beta"))
        coeffs = tuple((_finite(e, "eps"), _finite(g, "gamma")) for e, g in self.coefficients)
        if not coeffs:
            raise SpecValidationError("complex pole pair needs at least one coefficient pair")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def multiplicity(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class ImaginaryPole:
    """Pole at k = i*omega with real coefficients r_1 .. r_m."""

    omega: float
    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omega", _positive(self.omega, "omega"))
        coeffs = tuple(_finite(r, "r") for r in self.coefficients)
        if not coeffs:
            raise SpecValidationError("imaginary pole needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def multiplicity(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class BoundState:
    """Bound state with decay rate kappa and norming constant c."""

    kappa: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "kappa", _positive(self.kappa, "kappa"))
        object.__setattr__(self, "c", _positive(self.c, "c"))


@dataclass(frozen=True)
class ScatteringSpec:
    """Declarative scattering data: pole pairs, imaginary poles, bound states.

    Construction canonicalizes block order (complex pairs by (beta,
    alpha), imaginary poles by omega, bound states by kappa) and
    rejects duplicate pole locations. At least one block is required.
    """

    complex_poles: tuple[ComplexPolePair, ...] = ()
    imaginary_poles: tuple[ImaginaryPole, ...] = ()
    bound_states: tuple[BoundState, ...] = ()
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eta", _positive(self.eta, "eta", or_zero=True))
        for name, key, what in (
                ("complex_poles", lambda p: (p.beta, p.alpha),
                 "complex pole pair at alpha={0.alpha}, beta={0.beta}"),
                ("imaginary_poles", lambda p: p.omega, "imaginary pole at omega={0.omega}"),
                ("bound_states", lambda s: s.kappa, "bound state at kappa={0.kappa}")):
            items = tuple(sorted(getattr(self, name), key=key))
            for a, b in zip(items, items[1:]):
                if key(a) == key(b):
                    raise SpecValidationError("duplicate " + what.format(a))
            object.__setattr__(self, name, items)
        if not (self.complex_poles or self.imaginary_poles or self.bound_states):
            raise SpecValidationError(
                "empty scattering data: need at least one pole or bound state")

    @property
    def has_reflection(self) -> bool:
        return bool(self.complex_poles or self.imaginary_poles)

    @property
    def is_bound_state_only(self) -> bool:
        return not self.has_reflection

    @property
    def matrix_dimension(self) -> int:
        return (sum(2 * p.multiplicity for p in self.complex_poles)
                + sum(p.multiplicity for p in self.imaginary_poles)
                + len(self.bound_states))


@dataclass(frozen=True, eq=False)
class Triplet:
    """Realization matrices A (P x P), B (P x 1), C (1 x P) with drift eta.

    Raw triplets may carry any real matrices; use validate_triplet for
    the diagnostics that gate the non-formal solution features. spec is
    the ScatteringSpec that build_triplet assembled the triplet from, and
    None for every other triplet, dataclasses.replace copies included.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    eta: float = 0.0
    spec: ScatteringSpec | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.A, dtype=float, order="C")
        if a.ndim != 2:
            raise SpecValidationError(f"A: expected a 2-D array, got ndim={a.ndim}")
        if not np.all(np.isfinite(a)):
            raise SpecValidationError("A: entries must be finite")
        p = a.shape[0]
        if a.shape != (p, p):
            raise SpecValidationError(f"A must be square, got shape {a.shape}")
        matrices = {"A": a}
        for name, shape in (("B", (p, 1)), ("C", (1, p))):
            v = np.array(getattr(self, name), dtype=float)
            if v.size != p:
                raise SpecValidationError(f"{name} must have {p} entries, got {v.shape}")
            matrices[name] = v.reshape(shape)
        if not (np.isfinite(matrices["B"]).all() and np.isfinite(matrices["C"]).all()):
            raise SpecValidationError("B and C entries must be finite")
        eta = _positive(self.eta, "eta", or_zero=True)
        for name, m in matrices.items():
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        object.__setattr__(self, "eta", eta)

    @property
    def P(self) -> int:
        return self.A.shape[0]


def _complex_pair_block(pole: ComplexPolePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = pole.multiplicity
    lam = np.array([[pole.beta, pole.alpha], [-pole.alpha, pole.beta]])
    a = np.zeros((2 * m, 2 * m))
    for s in range(m):
        a[2 * s:2 * s + 2, 2 * s:2 * s + 2] = lam
        if s + 1 < m:
            a[2 * s:2 * s + 2, 2 * s + 2:2 * s + 4] = -np.eye(2)
    b = np.zeros(2 * m)
    b[-1] = 1.0
    # order-m coefficients first, order-1 coefficients last; doubled as Python floats,
    # which overflow to inf without a warning, for Triplet to reject
    c = np.array([(2.0 * gam, 2.0 * eps) for eps, gam in reversed(pole.coefficients)]).reshape(-1)
    return a, b, c


def _imaginary_pole_block(pole: ImaginaryPole) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = pole.multiplicity
    a = pole.omega * np.eye(m) - np.eye(m, k=1)
    b = np.zeros(m)
    b[-1] = 1.0
    c = np.array(pole.coefficients[::-1], dtype=float)
    return a, b, c


def _reflection_blocks(spec: ScatteringSpec) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    return ([_complex_pair_block(p) for p in spec.complex_poles]
            + [_imaginary_pole_block(p) for p in spec.imaginary_poles])


def _assemble(blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]], eta: float) -> Triplet:
    a, b, c = zip(*blocks)
    b, c = np.concatenate(b), np.concatenate(c)
    big_a = np.zeros((b.size, b.size))
    at = 0
    for blk in a:
        big_a[at:at + len(blk), at:at + len(blk)] = blk
        at += len(blk)
    return Triplet(A=big_a, B=b, C=c, eta=eta)


def build_triplet(spec: ScatteringSpec) -> Triplet:
    """Assemble the block-diagonal realization of a full scattering spec.

    Block order matches ScatteringSpec's canonical ordering: complex pole
    pairs, then imaginary poles, then bound states. Complex pairs
    produce 2m x 2m blocks with the rotation-scaling cell on the
    diagonal and -I2 on the superdiagonal; imaginary poles produce
    m x m bidiagonal blocks; bound states produce 1 x 1 blocks
    ([kappa], 1, c). The triplet keeps spec as its spec field.
    """
    blocks = _reflection_blocks(spec) + [
        (np.array([[s.kappa]]), np.array([1.0]), np.array([s.c])) for s in spec.bound_states]
    triplet = _assemble(blocks, spec.eta)
    assert triplet.P == spec.matrix_dimension
    object.__setattr__(triplet, "spec", spec)
    return triplet


def build_reflection_triplet(spec: ScatteringSpec) -> Triplet:
    """Realization restricted to the non-bound-state blocks.

    For a bound-state-only spec this is the empty 0 x 0 triplet, whose
    reflection function is identically zero.
    """
    blocks = _reflection_blocks(spec)
    if not blocks:
        return Triplet(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((1, 0)), eta=spec.eta)
    return _assemble(blocks, spec.eta)


def eval_reflection(triplet: Triplet, k: complex) -> complex:
    """Evaluate -i C (k I - i A)^{-1} B at a single complex k.

    The empty triplet gives the identically zero function.
    """
    return -1j * (triplet.C @ linalg.resolvent_apply(triplet.A, k, triplet.B)).item()


def _partial_fraction_terms(spec: ScatteringSpec) -> tuple:
    """(z, (c_m, .., c_1)) for every pole z of the reflection data.

    The reflection function is sum_z sum_s c_s / (k - z)^s, with the
    factor (-i)^s folded into c_s; coefficients are listed highest order
    first, in Horner order. A pair contributes its two poles
    i*beta + alpha (coefficients eps + i gamma) and i*beta - alpha
    (eps - i gamma).
    """
    terms = []
    for pole in spec.complex_poles:
        for sign in (1.0, -1.0):
            coeffs = [(-1j) ** s * complex(eps, sign * gam)
                      for s, (eps, gam) in enumerate(pole.coefficients, start=1)]
            terms.append((complex(sign * pole.alpha, pole.beta), tuple(coeffs[::-1])))
    for pole in spec.imaginary_poles:
        coeffs = [(-1j) ** s * r for s, r in enumerate(pole.coefficients, start=1)]
        terms.append((1j * pole.omega, tuple(coeffs[::-1])))
    return tuple(terms)


def _partial_fraction_sum(terms, k) -> complex:
    """sum_z inv (c_1 + inv (c_2 + .. + inv c_m)), inv = 1 / (k - z), over a term table."""
    total = 0j
    for z, coeffs in terms:
        inv = 1.0 / (k - z)
        acc = 0j
        for c in coeffs:
            acc = inv * (c + acc)
        total += acc
    return total


def reflection_partial_fractions(spec: ScatteringSpec, k: complex) -> complex:
    """Direct partial-fraction sum of the reflection data at k.

    Independent of the realization matrices; used as the oracle the
    resolvent route is checked against, and as the integrand of
    verification.omega_quadrature_check. A k that is a pole to working
    precision raises SingularMatrixError: the pivot gate
    (linalg._pivot_gate) on the distances |k - z| to the poles z, the
    least against the largest, which resolvent_apply takes on the
    distances to i times A's eigenvalues (the poles of its triplet),
    against ||A||_F where that is larger. On the README spec both routes
    raise up to 1e-14 from a pole and return from 1e-13.
    """
    terms, k = _partial_fraction_terms(spec), complex(k)
    dist = [abs(k - z) for z, _ in terms]
    if dist and linalg._pivot_gate(min(dist), max(dist)):
        raise SingularMatrixError(f"reflection_partial_fractions: k = {k} is a pole to working "
                                  f"precision (distance {min(dist):.3e})")
    return _partial_fraction_sum(terms, k)


def _log_tau(spec: ScatteringSpec, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """log of Hirota's N-soliton tau-function of spec's bound states at broadcast xs, ts.

    tau is the sum over the 2^N subsets S of the bound states of
    T_S = prod_{j in S} (c_j / 2 kappa_j) exp(theta_j)
          prod_{i<j in S} ((kappa_i - kappa_j) / (kappa_i + kappa_j))^2,
    theta_j = -2 kappa_j x + (8 kappa_j^3 + 2 eta kappa_j) t: the
    determinant of the N-soliton matrix in closed form, from the spec
    alone. Every T_S is positive and T_{} = 1, so the sum is taken as a
    log-sum-exp.
    """
    kap = np.array([s.kappa for s in spec.bound_states])
    c = np.array([s.c for s in spec.bound_states])
    member = (np.arange(2 ** kap.size)[:, None] >> np.arange(kap.size)) & 1   # (2^N, N)
    pair = np.triu(2.0 * np.log(np.abs(kap[:, None] - kap) / (kap[:, None] + kap)
                                + np.eye(kap.size)), 1)
    with np.errstate(over="ignore"):   # -2 kappa x past the float range: T_S = 0
        log_t = (member @ np.log(c / (2.0 * kap)) + np.einsum("si,ij,sj->s", member, pair, member)
                 + ts[..., None] * (member @ (8.0 * kap ** 3 + 2.0 * spec.eta * kap))
                 - xs[..., None] * (member @ (2.0 * kap)))           # (..., 2^N)
    top = np.max(log_t, axis=-1)
    log_t -= top[..., None]
    return top + np.log(np.sum(np.exp(log_t, out=log_t), axis=-1))


@dataclass(frozen=True)
class TripletDiagnostics:
    """validate_triplet report: spectrum, solvability, mode flags."""

    spectrum: linalg.Spectrum
    formal_mode: bool                 # min Re(lambda) <= 0: decay arguments unavailable
    resonant_pairs: tuple[tuple[int, int, float], ...]  # |lambda_i + lambda_j| near zero
    lyapunov_solvable: bool
    notes: tuple[str, ...] = field(default=())

    @property
    def valid(self) -> bool:
        # Full guarantees need both a solvable Lyapunov system and strict
        # eigenvalue decay; formal-mode triplets are usable but not valid.
        return self.lyapunov_solvable and not self.formal_mode


# Resonance gate: |lambda_i + lambda_j| below this times max(1, spectral radius).
RESONANCE_TOL = 1e-8


def validate_triplet(triplet: Triplet) -> TripletDiagnostics:
    """Diagnose a triplet: eigenvalues, resonances, usable modes.

    Any real (A, B, C) is accepted. formal_mode is set when some
    eigenvalue has nonpositive real part, in which case decay-based
    features (Marchenko residuals, positivity certificates) do not
    apply. A pair lambda_i + lambda_j near zero makes the Lyapunov
    system unsolvable and the triplet unusable.
    """
    spectrum = linalg.eigenvalues(triplet.A)
    vals = spectrum.eigenvalues
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    with np.errstate(over="ignore"):   # a sum past the float range is far from resonant
        mag = np.abs(vals[:, None] + vals)
    i, j = np.nonzero(np.triu(mag < RESONANCE_TOL * scale))  # pairs i <= j, row-major
    resonant = [(int(a), int(b), float(mag[a, b])) for a, b in zip(i, j)]
    formal = spectrum.min_real_part <= 0.0
    notes = []
    if formal:
        notes.append("formal-solution mode: min Re(eigenvalue) <= 0, "
                     "decay-based checks unavailable")
    if resonant:
        notes.append("resonant eigenvalue pairs: Lyapunov system is singular")
    return TripletDiagnostics(
        spectrum=spectrum,
        formal_mode=formal,
        resonant_pairs=tuple(resonant),
        lyapunov_solvable=not resonant,
        notes=tuple(notes),
    )
