"""Shared fixtures: reference triplets, closed forms, random spec families."""
from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

from kdvexact import (BoundState, ComplexPolePair, ImaginaryPole, ScatteringSpec, Triplet,
                      build_triplet, documents, realization)

S3 = np.sqrt(3.0)


def rotation_triplet(eps: float, gam: float, eta: float = 0.0) -> Triplet:
    """2x2 rotation-generator triplet with a single conjugate pole pair.

    Eigenvalues 1/2 +- i sqrt(3)/2; the coefficient pair (eps, gam)
    enters only through C.
    """
    a = np.array([[0.5, -S3 / 2], [S3 / 2, 0.5]])
    return Triplet(A=a, B=np.array([0.0, 1.0]), C=np.array([2 * gam, 2 * eps]), eta=eta)


def rotation_spec(eps: float, gam: float, eta: float = 0.0) -> ScatteringSpec:
    """Pole-data form of the same family: one simple pair at sqrt(3)/2 + i/2."""
    pair = ComplexPolePair(alpha=S3 / 2, beta=0.5, coefficients=((eps, gam),))
    return ScatteringSpec(complex_poles=(pair,), eta=eta)


def rotation_det_reference(x, t, eps: float, gam: float, eta: float):
    """Closed-form det Gamma for rotation_triplet, any eps/gam/eta."""
    phase = S3 * eta * t - S3 * x
    return (1.0 - 0.75 * (eps ** 2 + gam ** 2) * np.exp(2 * (eta - 8) * t - 2 * x)
            + 0.5 * np.exp((eta - 8) * t - x) * ((S3 * eps - gam) * np.sin(phase)
                                                 + (eps + S3 * gam) * np.cos(phase)))


def rotation_u_reference(x, t):
    """Closed-form u for rotation_triplet(1/2, 1/2, eta=1)."""
    g = np.exp(-(x + 7 * t))
    arg = S3 * (x - t)
    phi = (6 * g ** 2 - 4 * np.sqrt(2) * g * np.sin(arg - np.pi / 12)
           - (3 / np.sqrt(2)) * g ** 3 * np.sin(arg + np.pi / 4))
    den = 1 - (3 / 8) * g ** 2 + (1 / np.sqrt(2)) * g * np.cos(arg + np.pi / 12)
    return phi / den ** 2


def rotation_omega_reference(y, eps: float, gam: float):
    """Closed-form Omega(y; t=0) for rotation_triplet."""
    return 2.0 * np.exp(-y / 2) * (gam * np.sin(S3 * y / 2) + eps * np.cos(S3 * y / 2))


def three_block_triplet(eta: float = 1.0) -> Triplet:
    """Rotation pair (eps = gam = 1/2) augmented with a kappa = 2, c = 3 bound state."""
    a = np.array([[0.5, -S3 / 2, 0.0], [S3 / 2, 0.5, 0.0], [0.0, 0.0, 2.0]])
    return Triplet(A=a, B=np.array([0.0, 1.0, 1.0]), C=np.array([1.0, 1.0, 3.0]), eta=eta)


def three_block_spec(eta: float = 1.0) -> ScatteringSpec:
    pair = ComplexPolePair(alpha=S3 / 2, beta=0.5, coefficients=((0.5, 0.5),))
    return ScatteringSpec(complex_poles=(pair,),
                          bound_states=(BoundState(kappa=2.0, c=3.0),),
                          eta=eta)


def one_soliton_u(x, t, kappa: float, c: float, eta: float = 0.0):
    """Single bound state: u = -8 kappa^2 g / (1 + g)^2."""
    g = (c / (2 * kappa)) * np.exp(-2 * kappa * x + (8 * kappa ** 3 + 2 * eta * kappa) * t)
    return -8 * kappa ** 2 * g / (1 + g) ** 2


def random_calm_spec(rng: np.random.Generator) -> ScatteringSpec:
    """Random validated spec kept well away from blow-up and overflow.

    Small reflection coefficients, eigenvalue real parts in (0.4, 1.1),
    bound-state rates separated by at least 0.1 so the direct N-soliton
    determinant stays well conditioned.
    """
    n_pairs = int(rng.integers(0, 2))
    n_bound = int(rng.integers(1, 4 - n_pairs))
    cps = tuple(ComplexPolePair(alpha=float(rng.uniform(0.4, 1.1)),
                                beta=float(rng.uniform(0.4, 0.9)),
                                coefficients=((float(rng.uniform(0.05, 0.3)),
                                               float(rng.uniform(0.05, 0.3))),))
                for _ in range(n_pairs))
    kappas = np.sort(rng.uniform(0.45, 0.85, size=n_bound))
    while np.any(np.diff(kappas) < 0.1):
        kappas = np.sort(rng.uniform(0.45, 0.85, size=n_bound))
    bss = tuple(BoundState(kappa=float(k), c=float(rng.uniform(0.5, 2.0)))
                for k in kappas)
    return ScatteringSpec(complex_poles=cps, bound_states=bss,
                          eta=float(rng.choice([0.0, 4.0, 8.0])))


def random_rational_spec(rng: np.random.Generator) -> ScatteringSpec:
    """Random spec with up to two pairs, two imaginary poles and three bound states.

    Every pole has multiplicity 1 to 3 and coefficients in [-1, 1]; pole
    locations are spread so no two coincide. At least one pole is drawn.
    """
    n_cp = int(rng.integers(0, 3))
    n_ip = int(rng.integers(0, 3))
    n_bs = int(rng.integers(0, 4))
    if n_cp + n_ip == 0:
        n_cp = 1
    cps = tuple(ComplexPolePair(
        alpha=float(rng.uniform(0.3, 3.0) + 3.5 * i),
        beta=float(rng.uniform(0.3, 2.0)),
        coefficients=tuple((float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                           for _ in range(int(rng.integers(1, 4)))))
        for i in range(n_cp))
    ips = tuple(ImaginaryPole(
        omega=float(rng.uniform(0.3, 1.0) + 1.2 * i),
        coefficients=tuple(float(rng.uniform(-1, 1))
                           for _ in range(int(rng.integers(1, 4)))))
        for i in range(n_ip))
    bss = tuple(BoundState(kappa=0.4 + 0.5 * i, c=float(rng.uniform(0.3, 2.0)))
                for i in range(n_bs))
    return ScatteringSpec(complex_poles=cps, imaginary_poles=ips, bound_states=bss)


def frame_csv_per_cell(xs, us) -> str:
    """The per-cell frame writer documents.write_frame_csv must reproduce byte for byte."""
    return "x,u\n" + "".join(f"{float(x)!r},{float(u)!r}\n" for x, u in zip(xs, us))


def many_poles_triplet(seed: int) -> Triplet:
    """The triplet of the benchmark's seeded P = 64 many-poles document."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return build_triplet(documents.parse_input_document(workloads.many_poles_spec(seed)))


def simple_pole_lambda_rho(spec: ScatteringSpec) -> tuple[list, list]:
    """(lambda_j, rho_j) of a spec whose poles are all simple.

    Each reflection pole z with coefficient c (realization._partial_fraction_terms)
    gives lambda = -i z and rho = i c, each bound state lambda = kappa and rho = c,
    so that C e^{-yA} B = sum_j rho_j e^{-lambda_j y}.
    """
    terms = realization._partial_fraction_terms(spec)
    if any(len(coeffs) != 1 for _, coeffs in terms):
        raise ValueError("simple-pole oracles take simple poles only")
    lam = [-1j * z for z, _ in terms] + [complex(s.kappa) for s in spec.bound_states]
    rho = [1j * coeffs[0] for _, coeffs in terms] + [complex(s.c) for s in spec.bound_states]
    return lam, rho


def _subset_terms(spec: ScatteringSpec, xs, ts):
    """(Lambda_S, T_S) for each subset S of simple_pole_lambda_rho's terms, at broadcast xs, ts:
    Lambda_S = sum_{j in S} lambda_j and T_S = prod_{j in S} rho_j / (2 lambda_j)
    exp(-2 lambda_j x + (8 lambda_j^3 + 2 eta lambda_j) t)
    prod_{i<j in S} ((lambda_i - lambda_j) / (lambda_i + lambda_j))^2, complex."""
    lam, rho = simple_pole_lambda_rho(spec)
    xs, ts = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ts, dtype=float))
    for members in itertools.product((False, True), repeat=len(lam)):
        sel = [j for j, inside in enumerate(members) if inside]
        term = np.ones(xs.shape, dtype=complex)
        for j in sel:
            theta = -2.0 * lam[j] * xs + (8.0 * lam[j] ** 3 + 2.0 * spec.eta * lam[j]) * ts
            term *= rho[j] / (2.0 * lam[j]) * np.exp(theta)
        for i, j in itertools.combinations(sel, 2):
            term *= ((lam[i] - lam[j]) / (lam[i] + lam[j])) ** 2
        yield sum(lam[j] for j in sel), term


def simple_pole_tau(spec: ScatteringSpec, xs, ts) -> np.ndarray:
    """det Gamma of a spec whose poles are all simple, as a tau-function of the spec alone.

    tau = sum over subsets S of T_S (_subset_terms), complex, at broadcast xs, ts.
    It shares no matrix, exponential or factorization with the kernel.
    """
    return sum(term for _, term in _subset_terms(spec, xs, ts))


def simple_pole_u(spec: ScatteringSpec, xs, ts) -> np.ndarray:
    """u = -2 (log tau)_xx from simple_pole_tau's subset sum, complex.

    Each T_S depends on x through exp(-2 Lambda_S x), so tau_x = sum -2 Lambda_S T_S
    and tau_xx = sum 4 Lambda_S^2 T_S, and u = -2 (tau_xx / tau - (tau_x / tau)^2).
    """
    tau = tau_x = tau_xx = 0.0
    for lam_s, term in _subset_terms(spec, xs, ts):
        tau = tau + term
        tau_x = tau_x - 2.0 * lam_s * term
        tau_xx = tau_xx + 4.0 * lam_s ** 2 * term
    return -2.0 * (tau_xx / tau - (tau_x / tau) ** 2)


def reference_lu(m) -> tuple[list, list, float, float]:
    """(lu, piv, max |entry|, largest row sum of |entries|) of one square matrix, in floats.

    Pure-Python Gaussian elimination with partial pivoting: the pivot is the first
    largest |entry| at or below the diagonal, its whole row is swapped in, and the
    column below it is divided by it (by 1 where it is 0, so the zeros below it stay).
    Each step divides, then multiplies and subtracts as separate roundings; the row
    sums add |entries| in column order.
    """
    a = [[float(v) for v in row] for row in m]
    n = len(a)
    max_abs = max([abs(v) for row in a for v in row], default=0.0)
    norm_inf = 0.0
    for row in a:
        total = 0.0
        for v in row:
            total += abs(v)
        norm_inf = max(norm_inf, total)
    piv = []
    for j in range(n):
        column = [abs(a[i][j]) for i in range(j, n)]
        p = j + column.index(max(column))
        piv.append(p)
        a[j], a[p] = a[p], a[j]
        pivot = a[j][j] if a[j][j] != 0.0 else 1.0
        for i in range(j + 1, n):
            a[i][j] = a[i][j] / pivot
            for c in range(j + 1, n):
                a[i][c] = a[i][c] - a[i][j] * a[j][c]
    return a, piv, max_abs, norm_inf


def reference_det(lu, piv) -> float:
    """det from reference_lu's factors: the pivots' product, in order, times the swap sign."""
    det = 1.0
    for j in range(len(lu)):
        det *= lu[j][j]
    return -det if sum(p != j for j, p in enumerate(piv)) % 2 else det


def reference_lu_solve(lu, piv, b) -> list:
    """Solve with reference_lu's factors for one column b, every pivot nonzero: the row
    swaps in order, then forward and back substitution with separate roundings."""
    x = [float(v) for v in b]
    n = len(x)
    for j, p in enumerate(piv):
        x[j], x[p] = x[p], x[j]
    for j in range(n):
        for i in range(j + 1, n):
            x[i] = x[i] - lu[i][j] * x[j]
    for j in reversed(range(n)):
        x[j] = x[j] / lu[j][j]
        for i in range(j):
            x[i] = x[i] - lu[i][j] * x[j]
    return x
