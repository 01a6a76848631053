"""Dense linear algebra kernels: exponentials, Lyapunov, LU, resolvent."""
from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvexact import (
    BoundState,
    ComplexPolePair,
    ImaginaryPole,
    LyapunovSolveError,
    OverflowDetectedError,
    ScatteringSpec,
    SingularMatrixError,
    SpecValidationError,
    Triplet,
    build_reflection_triplet,
    build_triplet,
)
from kdvexact import linalg

import helpers


def test_as_matrix_rejects_bad_inputs():
    # the matrix check lives in Triplet, the one place a matrix enters
    for a, message in (([1.0, 2.0], "A: expected a 2-D array, got ndim=1"),
                       ([[np.nan]], "A: entries must be finite"),
                       ([[np.inf, 0.0]], "A: entries must be finite")):
        with pytest.raises(SpecValidationError, match=f"^{re.escape(message)}$"):
            Triplet(A=a, B=[1.0], C=[1.0])
    m = Triplet(A=[[1, 2], [3, 4]], B=[1, 0], C=[0, 1]).A
    assert m.dtype == np.float64 and m.shape == (2, 2)


def test_expm_rotation_closed_form():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    for theta in (0.1, 1.0, -2.5, np.pi):
        e = linalg.expm(gen, theta)
        want = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(e - want)) < 1e-14, theta


def test_expm_matches_taylor_series():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.uniform(-0.5, 0.5, size=(3, 3))
        s = float(rng.uniform(-1.5, 1.5))
        term = np.eye(3)
        total = np.eye(3)
        for k in range(1, 40):
            term = term @ (s * m) / k
            total = total + term
        e = linalg.expm(m, s)
        assert np.max(np.abs(e - total)) < 1e-13


def test_expm_semigroup_and_commutation():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m = rng.uniform(-1, 1, size=(4, 4))
        s, r = rng.uniform(-0.8, 0.8, size=2)
        left = linalg.expm(m, s + r)
        right = linalg.expm(m, s) @ linalg.expm(m, r)
        assert np.max(np.abs(left - right)) < 1e-12
        cube = m @ m @ m
        e = linalg.expm(m, s)
        comm = e @ cube - cube @ e
        assert np.max(np.abs(comm)) < 1e-12 * max(1.0, np.max(np.abs(cube)))


def test_expm_zero_scale_is_exact_identity():
    m = np.array([[1e6, 2e6], [3e6, 4e6]])
    assert np.array_equal(linalg.expm(m, 0.0), np.eye(2))


def test_expm_overflow_detected():
    with pytest.raises(OverflowDetectedError):
        linalg.expm(np.array([[1000.0]]), 1.0)


def _stacked_expm_cases():
    readme = build_triplet(ScatteringSpec(
        complex_poles=(ComplexPolePair(alpha=np.sqrt(3.0) / 2, beta=0.5,
                                       coefficients=((0.5, 0.5),)),),
        bound_states=(BoundState(kappa=2.0, c=3.0),), eta=1.0)).A
    double = build_triplet(ScatteringSpec(
        complex_poles=(ComplexPolePair(alpha=0.8, beta=0.6,
                                       coefficients=((0.2, 0.1), (0.05, 0.1))),),
        imaginary_poles=(ImaginaryPole(omega=0.9, coefficients=(0.1, 0.05)),))).A
    dense = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 4))
    return {
        "readme A": readme,
        "readme flow": 8.0 * readme @ readme @ readme + 2.0 * readme,
        "three bound states": np.diag([0.5, 0.7, 0.9]),
        "1 x 1": np.array([[1.0]]),
        "rotation": np.array([[0.5, -np.sqrt(3.0) / 2], [np.sqrt(3.0) / 2, 0.5]]),
        "double poles": double,
        "dense": dense,
    }


@pytest.mark.parametrize("name", list(_stacked_expm_cases()))
def test_expm_stacked_scales_equal_scalar_calls_bit_for_bit(name):
    m = _stacked_expm_cases()[name]
    scales = np.array([-3.0, -0.25, 0.0, 1e-3, 0.4, 2.5, -0.25, 0.0])
    stack = linalg.expm(m, scales)
    assert stack.shape == (scales.size,) + m.shape
    for s, member in zip(scales, stack):
        assert np.array_equal(member, linalg.expm(m, float(s))), s
    assert np.array_equal(stack[2], np.eye(m.shape[0]))
    assert linalg.expm(m, np.zeros(0)).shape == (0,) + m.shape


def test_stacked_expm_overflow_and_shape_errors():
    with pytest.raises(OverflowDetectedError):
        linalg.expm(np.array([[1000.0]]), np.array([0.0, 0.5, 1.0]))
    with pytest.raises(OverflowDetectedError):
        linalg.expm(np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([1.0, 1e308]))
    with pytest.raises(SpecValidationError):
        linalg.expm(np.eye(2), np.ones((2, 2)))


def test_lyapunov_scalar_and_diagonal():
    q = linalg.lyapunov_solve(np.array([[2.0]]), np.array([[3.0]]))
    assert abs(q[0, 0] - 0.75) < 1e-15
    lam = np.array([0.5, 1.5, 3.0])
    rhs = np.arange(1.0, 10.0).reshape(3, 3)
    q = linalg.lyapunov_solve(np.diag(lam), rhs)
    want = rhs / (lam[:, None] + lam[None, :])
    assert np.max(np.abs(q - want)) < 1e-14


def test_lyapunov_random_stable_residual():
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = int(rng.integers(1, 7))
        base = rng.uniform(-1, 1, size=(p, p))
        a = base @ base.T + 0.5 * np.eye(p)   # SPD: spectrum strictly positive
        rhs = rng.uniform(-2, 2, size=(p, p))
        q = linalg.lyapunov_solve(a, rhs)
        resid = np.max(np.abs(a @ q + q @ a - rhs))
        assert resid < 1e-12 * max(1.0, np.max(np.abs(rhs))), (p, resid)


def test_lyapunov_resonant_pair_raises():
    # exactly singular Kronecker systems: numpy's solve raises LinAlgError on them,
    # and lyapunov_solve reports that through its residual check
    for lam in ([1.0, -1.0], [0.0], [2.0, 0.5, -0.5]):
        with pytest.raises(LyapunovSolveError, match=r"^Lyapunov residual \S+ exceeds"):
            linalg.lyapunov_solve(np.diag(lam), np.ones((len(lam), len(lam))))


def test_lyapunov_failure_names_the_smallest_pair_sum():
    # A double pole 0.01 off the axis fails the residual gate though no
    # eigenvalue pair sums to zero: the message gives the smallest sum, 2 beta.
    pair = ComplexPolePair(alpha=1.0, beta=0.01, coefficients=((0.3, 0.2), (1.0, 0.5)))
    trip = build_triplet(ScatteringSpec(complex_poles=(pair,)))
    with pytest.raises(LyapunovSolveError, match=r"^Lyapunov residual \S+ exceeds .* \(smallest "
                                                 r"eigenvalue pair sum 2\.000e-02 in modulus\)$"):
        linalg.lyapunov_solve(trip.A, trip.B @ trip.C)
    with pytest.raises(LyapunovSolveError, match=r"pair sum 0\.000e\+00 in modulus\)$"):
        linalg.lyapunov_solve(np.diag([2.0, 0.5, -0.5]), np.ones((3, 3)))


def test_lyapunov_large_stable_residual():
    # No cap on P: Bartels-Stewart at P = 128 still meets the residual bound.
    rng = np.random.default_rng(41)
    p = 128
    base = rng.uniform(-1, 1, size=(p, p))
    a = base @ base.T / p + 0.5 * np.eye(p)
    rhs = rng.uniform(-2, 2, size=(p, p))
    q = linalg.lyapunov_solve(a, rhs)
    resid = np.max(np.abs(a @ q + q @ a - rhs))
    assert resid < 1e-12 * max(1.0, np.max(np.abs(rhs))), resid


def test_lyapunov_large_resonant_spectrum_raises():
    # One eigenvalue pair of a P = 96 matrix sums to zero: no Q exists.
    rng = np.random.default_rng(43)
    p = 96
    lam = np.linspace(0.5, 2.0, p)
    lam[-1] = -lam[0]
    s = rng.uniform(-1, 1, size=(p, p)) + 4.0 * np.eye(p)
    a = s @ np.diag(lam) @ np.linalg.inv(s)
    with pytest.raises(LyapunovSolveError):
        linalg.lyapunov_solve(a, rng.uniform(-1, 1, size=(p, p)))


def _raw_lyapunov_case(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A P <= 6 matrix with every eigenvalue real part in [0.4, 2], and a random RHS."""
    p = int(rng.integers(1, linalg.ELIMINATION_MAX_N + 1))
    lam = rng.uniform(0.4, 2.0, size=p)
    if kind == "jordan":       # one eigenvalue, a single Jordan chain
        a = lam[0] * np.eye(p) + np.eye(p, k=1)
    elif kind == "non-normal":  # triangular, off-diagonal entries as large as the spectrum
        a = np.diag(lam) + np.triu(rng.uniform(-2.0, 2.0, size=(p, p)), 1)
    else:                      # dense, similar to a diagonal
        s = rng.uniform(-1, 1, size=(p, p)) + 3.0 * np.eye(p)
        a = s @ np.diag(lam) @ np.linalg.inv(s)
    return a, rng.uniform(-2, 2, size=(p, p))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["calm-spec", "jordan", "non-normal", "dense"]))
def test_lyapunov_kronecker_solve_matches_scipy(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "calm-spec":
        trip = build_triplet(helpers.random_calm_spec(rng))
        a, rhs = trip.A, trip.B @ trip.C
    else:
        a, rhs = _raw_lyapunov_case(kind, rng)
    assert a.shape[0] <= linalg.ELIMINATION_MAX_N
    q = linalg.lyapunov_solve(a, rhs)
    want = sla.solve_sylvester(a, a, rhs)
    assert np.max(np.abs(q - want)) <= 1e-13 * np.max(np.abs(want))
    resid = np.max(np.abs(a @ q + q @ a - rhs))
    assert resid <= linalg.RESIDUAL_TOL * max(1.0, np.max(np.abs(rhs)))


def test_lyapunov_above_the_elimination_size_is_scipys_solve():
    rng = np.random.default_rng(47)
    p = linalg.ELIMINATION_MAX_N + 1
    a = np.diag(rng.uniform(0.4, 2.0, size=p)) + np.triu(rng.uniform(-1, 1, size=(p, p)), 1)
    rhs = rng.uniform(-2, 2, size=(p, p))
    assert np.array_equal(linalg.lyapunov_solve(a, rhs), sla.solve_sylvester(a, a, rhs))


def test_determinant_matches_cofactor_expansion():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = rng.uniform(-3, 3, size=(3, 3))
        a, b, c = m[0]
        d, e, f = m[1]
        g, h, i = m[2]
        want = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        got = linalg.determinant(linalg.lu_factor(m))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_singular_matrix_det_zero_but_solve_raises():
    m = np.array([[1.0, 2.0], [2.0, 4.0]])
    factors = linalg.lu_factor(m)
    assert linalg.determinant(factors) == 0.0
    with pytest.raises(SingularMatrixError):
        linalg.solve(factors, np.ones(2))
    with pytest.raises(SingularMatrixError):
        linalg.inverse(factors)


_SINGULAR_MESSAGE = r"^solve: matrix is singular to working precision \(pivot 0\.000e\+00\)$"


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("n", range(1, linalg.ELIMINATION_MAX_N + 3))
def test_single_matrix_front_ends_are_member_zero_of_the_stacked_lu(n):
    rng = np.random.default_rng(200 + n)
    mats = rng.standard_normal((6, n, n))
    mats[0] = 0.0                                # exactly singular members
    mats[1, :, n // 2] = 0.0
    rhs_1, rhs_2 = rng.standard_normal(n), rng.standard_normal((n, 3))
    for i, m in enumerate(mats):
        f, stack = linalg.lu_factor(m), linalg.lu_factor_stack(m[None])
        for name in ("lu", "piv", "max_abs", "norm_inf"):
            assert getattr(f, name).tobytes() == getattr(stack, name).tobytes(), name
        lu, piv = sla.lu_factor(m, check_finite=False)
        assert np.array_equal(f.piv[0], piv)
        assert np.max(np.abs(f.lu[0] - lu)) <= 1e-13 * max(1.0, np.max(np.abs(lu)))
        det = linalg.determinant(f)
        assert det == stack.permutation_sign()[0] * np.prod(stack.pivots()[0])
        want = (-1.0) ** np.count_nonzero(piv != np.arange(n)) * np.prod(np.diag(lu))
        assert abs(det - want) <= 1e-13 * max(1.0, abs(want)), (det, want)
        assert f.singular()[0] == (i < 2)
        if i < 2:
            for call in (lambda: linalg.solve(f, rhs_1), lambda: linalg.solve(f, rhs_2),
                         lambda: linalg.inverse(f)):
                with pytest.raises(SingularMatrixError, match=_SINGULAR_MESSAGE):
                    call()
            continue
        for rhs, got in ((rhs_1, linalg.solve(f, rhs_1)), (rhs_2, linalg.solve(f, rhs_2)),
                         (np.eye(n), linalg.inverse(f))):
            assert got.shape == rhs.shape
            one = linalg.lu_solve_stack(stack, [0], rhs.reshape(n, -1)[None])[0]
            assert got.tobytes() == one.reshape(rhs.shape).tobytes()
            ref = sla.lu_solve((lu, piv), rhs, check_finite=False)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_single_matrix_front_end_messages():
    with pytest.raises(SpecValidationError,
                       match=r"^lu_factor: square matrix required, got shape \(2, 3\)$"):
        linalg.lu_factor(np.ones((2, 3)))
    with pytest.raises(OverflowDetectedError, match=r"^overflow in lu_factor input$"):
        linalg.lu_factor(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(OverflowDetectedError,
                       match=r"^determinant overflow, log\|det\| = 921\.034$"):
        linalg.determinant(linalg.lu_factor(np.diag([1e200, 1e200])))
    tiny = linalg.lu_factor(np.array([[1e-200]]))
    with pytest.raises(OverflowDetectedError, match=r"^overflow in solve$"):
        linalg.solve(tiny, np.array([1e200]))
    # the empty factorization fails the pivot gate, and its determinant is the empty product
    empty = linalg.lu_factor(np.zeros((0, 0)))
    assert empty.singular().tolist() == [True] and linalg.determinant(empty) == 1.0
    with pytest.raises(SingularMatrixError, match=_SINGULAR_MESSAGE):
        linalg.solve(empty, np.zeros(0))


def test_gates_read_a_non_finite_entry_as_overflow_whatever_the_pivots():
    # finite pivots (det 1) and a non-finite max_abs: only the entry clause flags members 1, 2
    f = linalg.LuFactors(lu=np.array([np.eye(2)] * 3), piv=np.tile(np.arange(2), (3, 1)),
                         max_abs=np.array([1.0, np.inf, np.nan]),
                         norm_inf=np.array([1.0, np.inf, np.nan]))
    det, overflow, near = f.gates()
    assert det.tolist() == [1.0, 1.0, 1.0]
    assert overflow.tolist() == [False, True, True]
    assert near.tolist() == [False, False, False]
    with pytest.raises(OverflowDetectedError, match=r"^overflow in member 1 of a factored stack$"):
        f.check_solvable()


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("n", [2, linalg.ELIMINATION_MAX_N, linalg.ELIMINATION_MAX_N + 1,
                               linalg.ELIMINATION_MAX_N + 3])
def test_exactly_singular_members_read_near_singular_on_both_sides_of_the_split(n):
    rng = np.random.default_rng(300 + n)
    m = rng.standard_normal((3, n, n)) + n * np.eye(n)
    m[0, n // 2] = 0.0                 # a zero row
    m[1, -1] = m[1, 0]                 # two equal rows
    f = linalg.lu_factor_stack(m)
    det, overflow, near = f.gates()
    assert overflow.tolist() == [False, False, False]
    assert near.tolist() == f.singular().tolist() == [True, True, False]
    assert det[0] == 0.0 and det[1] == 0.0   # a zero pivot, either sign
    assert det[2] == pytest.approx(np.linalg.det(m[2]), rel=1e-12)


def test_eigenvalues_sorted_and_rotation_spectrum():
    m = np.diag([3.0, 1.0, 2.0])
    spec = linalg.eigenvalues(m)
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    assert spec.min_real_part == 1.0

    rot = np.array([[0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, 0.5]])
    spec = linalg.eigenvalues(rot)
    assert np.allclose(spec.eigenvalues.real, [0.5, 0.5])
    assert np.allclose(np.sort(spec.eigenvalues.imag), [-np.sqrt(3) / 2, np.sqrt(3) / 2])
    assert abs(spec.min_real_part - 0.5) < 1e-15

    empty = linalg.eigenvalues(np.zeros((0, 0)))
    assert empty.min_real_part == np.inf


def test_resolvent_scalar_value():
    z = linalg.resolvent_apply(np.array([[1.0]]), 1.0 + 0j, np.array([[1.0]]))
    assert abs(z[0, 0] - (0.5 + 0.5j)) < 1e-15


def test_resolvent_matches_complex_solve():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        a = rng.uniform(-2, 2, size=(p, p))
        b = rng.uniform(-2, 2, size=(p, 1))
        k = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        got = linalg.resolvent_apply(a, k, b)
        want = np.linalg.solve(k * np.eye(p) - 1j * a, b.astype(complex))
        assert np.max(np.abs(got - want)) < 1e-12, k


def test_resolvent_at_spectrum_point_raises():
    # k = i*lambda makes (kI - iA) exactly singular; the pivot gate
    # reports it, and no LinAlgWarning from scipy escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            linalg.resolvent_apply(np.array([[1.0]]), 1j, np.array([[1.0]]))


def test_resolvent_decays_like_one_over_k():
    rng = np.random.default_rng(29)
    a = rng.uniform(-1, 1, size=(3, 3))
    b = rng.uniform(-1, 1, size=(3, 1))
    n1 = np.max(np.abs(linalg.resolvent_apply(a, 100.0 + 0j, b)))
    n2 = np.max(np.abs(linalg.resolvent_apply(a, 1000.0 + 0j, b)))
    assert abs(n2 / n1 - 0.1) < 0.01


def _random_systems():
    rng = np.random.default_rng(31)
    for _ in range(12):
        p = int(rng.integers(1, 9))
        yield (rng.uniform(-2, 2, size=(p, p)), rng.uniform(-2, 2, size=(p, 1)),
               rng.uniform(-2, 2, size=(1, p)))


def _jordan_chain_systems():
    """Reflection triplets whose poles have multiplicity 1, 2 and 3."""
    for m in (1, 2, 3):
        pair = ComplexPolePair(alpha=0.8, beta=0.6,
                               coefficients=tuple((0.3 / s, 0.2 * s) for s in range(1, m + 1)))
        pole = ImaginaryPole(omega=0.7, coefficients=tuple(0.5 * s for s in range(1, m + 1)))
        for spec in (ScatteringSpec(complex_poles=(pair,)),
                     ScatteringSpec(complex_poles=(pair,), imaginary_poles=(pole,))):
            refl = build_reflection_triplet(spec)
            yield refl.A, refl.B, refl.C


_SYSTEMS = [*_random_systems(), *_jordan_chain_systems()]


@pytest.mark.parametrize("a, b, c", _SYSTEMS)
def test_reduced_resolvent_matches_dense_solve(a, b, c):
    p = a.shape[0]
    for k in (0.0, 0.37, -2.5, 40.0, 1.5 + 0.5j, -0.3 - 1.2j, 0.2 + 3.0j):
        want = np.linalg.solve(k * np.eye(p) - 1j * a, b.astype(complex))
        scale = np.max(np.abs(want))
        assert np.max(np.abs(linalg.resolvent_apply(a, k, b) - want)) <= 1e-12 * scale, k


@pytest.mark.parametrize("a, b, c", _SYSTEMS)
def test_reduced_resolvent_at_spectrum_point_raises(a, b, c):
    # the Schur diagonal makes the pivot at k = i*lambda exactly zero; an
    # LU of k I - i A can leave a pivot above PIVOT_TOL there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in linalg.eigenvalues(a).eigenvalues:
            with pytest.raises(SingularMatrixError):
                linalg.resolvent_apply(a, 1j * lam, b)


def test_expm_stack_keeps_every_coupling_of_a_sparse_pattern():
    # the block split reads the zero pattern; a coupling it dropped would
    # show as an O(1) error, a different algorithm only as rounding
    rng = np.random.default_rng(3)
    scales = [-2.0, 0.5, 3.0]
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        stack, overflow = linalg.expm_stack(m, scales)
        assert not overflow.any()
        for s, member in zip(scales, stack):
            want = sla.expm(s * m)
            assert np.max(np.abs(member - want)) <= 1e-11 * np.max(np.abs(want))


# expm_stack before 2 x 2 rotation-scaling and Jordan blocks took their closed
# form: every block of size >= 2 went through this degree-13 Pade. The blocks
# that still take the Pade must equal it bit for bit.
def _pade_era_diagonal_blocks(m):
    idx = np.arange(m.shape[0])
    coupled = (m != 0.0) | (m.T != 0.0)
    reach = np.max(np.where(coupled, idx, idx[:, None]), axis=1, initial=0)
    ends = np.flatnonzero(np.maximum.accumulate(reach) == idx) + 1
    starts = np.concatenate([[0], ends])[:-1]
    return starts, ends - starts


_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _pade_era_pade13_stack(x):
    b = _PADE13
    norm = np.max(np.sum(np.abs(x), axis=-2), axis=-1)
    frac, exp2 = np.frexp(norm / 5.371920351148152)
    squarings = np.maximum(0, exp2 - (frac == 0.5))
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


def _pade_era_expm_stack(m, scales):
    m = np.asarray(m, dtype=float)
    s = np.asarray(scales, dtype=float).reshape(-1)
    n = m.shape[0]
    out = np.zeros((s.size, n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = ~np.isfinite(s * np.max(np.abs(m), initial=0.0))
        s = np.where(overflow, 0.0, s)
        starts, sizes = _pade_era_diagonal_blocks(m)
        for size in np.unique(sizes):
            at = starts[sizes == size]
            rows = at[:, None, None] + np.arange(size)[:, None]
            cols = at[:, None, None] + np.arange(size)
            blocks = s[:, None, None, None] * m[rows, cols]
            if size == 1:
                res = np.exp(blocks)
            else:
                res = _pade_era_pade13_stack(blocks.reshape(-1, size, size)).reshape(blocks.shape)
            overflow |= ~np.all(np.isfinite(res), axis=(1, 2, 3))
            out[:, rows, cols] = res
    out[s == 0.0] = np.eye(n)
    return out, overflow


def _pade_era_blocks(m):
    """Slices of the diagonal blocks of m that keep their route: all but the
    2 x 2 blocks with ((m00 - m11) / 2)^2 + m01 m10 <= 0."""
    starts, sizes = _pade_era_diagonal_blocks(m)
    for at, size in zip(starts, sizes):
        block = m[at:at + size, at:at + size]
        if size != 2 or ((block[0, 0] - block[1, 1]) / 2) ** 2 + block[0, 1] * block[1, 0] > 0:
            yield slice(at, at + size)


def _hyperbolic_and_large_blocks():
    rng = np.random.default_rng(29)
    hyperbolic = [np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([[0.3, 0.0], [1.0, -0.2]]),
                  np.array([[-0.4, 1e-9], [1e-9, -0.4]])]
    for _ in range(5):
        b, c = rng.uniform(0.1, 2.0, 2) * rng.choice([-1.0, 1.0])
        hyperbolic.append(np.array([[rng.uniform(-1, 1), b], [c, rng.uniform(-1, 1)]]))
    return {
        "hyperbolic 2 x 2": sla.block_diag(*hyperbolic),
        "double pair and pole": _stacked_expm_cases()["double poles"],
        "many poles A": helpers.many_poles_triplet(1).A,
        "dense 4 x 4": _stacked_expm_cases()["dense"],
    }


@pytest.mark.parametrize("name", list(_hyperbolic_and_large_blocks()))
def test_hyperbolic_and_large_blocks_keep_the_pade_bit_for_bit(name):
    m = _hyperbolic_and_large_blocks()[name]
    blocks = list(_pade_era_blocks(m))
    assert any(sl.stop - sl.start >= 2 for sl in blocks)
    scales = np.array([-40.0, -3.0, -0.25, 0.0, 1e-3, 0.4, 2.5, 30.0, 500.0, 1e308])
    got, got_overflow = linalg.expm_stack(m, scales)
    want, want_overflow = _pade_era_expm_stack(m, scales)
    assert np.array_equal(got_overflow, want_overflow)
    for sl in blocks:
        assert np.array_equal(got[:, sl, sl], want[:, sl, sl], equal_nan=True), sl


def test_mutated_matrix_gets_the_new_matrix_exponential():
    m = np.array([[0.5, -1.0], [1.0, 0.5]])
    for change in ((0, 1, 2.0), (1, 0, 0.0), (0, 0, 3.0), (1, 0, 4.0), (0, 1, 0.0)):
        before = linalg.expm(m, 0.7)
        i, j, value = change
        m[i, j] = value   # in place: the same array, new bytes
        got = linalg.expm(m, 0.7)
        assert np.array_equal(got, linalg.expm(m.copy(), 0.7))
        assert np.max(np.abs(got - sla.expm(0.7 * m))) <= 1e-12 * np.max(np.abs(got))
        assert not np.array_equal(got, before), change


def test_block_plans_are_read_only_and_bounded():
    m = helpers.many_poles_triplet(1).A
    linalg.expm(m, 0.5)
    max_abs, plan = linalg._block_plan(m.shape, m.tobytes())
    assert max_abs == np.max(np.abs(m))
    assert [len(rows) for rows, _, _ in plan] == [12, 10, 8]
    for rows, blocks, closed in plan:
        for v in (rows, blocks, *closed):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[...] = 0
    assert linalg._block_plan.cache_info().maxsize == 32
    for k in range(40):
        linalg.expm(np.diag([1.0 + k, 2.0]), 0.5)
    assert linalg._block_plan.cache_info().currsize <= 32


@pytest.mark.parametrize("m, scales", [
    # rotation-scaling: e^{s mu} alone overflows from s = 1419.57, the entries
    # e^{s mu} cos(s r) and e^{s mu} sin(s r) past it near s r = pi / 4 mod pi / 2
    (np.array([[0.5, np.sqrt(3.0) / 2], [-np.sqrt(3.0) / 2, 0.5]]),
     np.linspace(1410.0, 1430.0, 10_000)),
    (np.array([[0.9, -1.0], [0.0, 0.9]]), np.linspace(770.0, 800.0, 10_000)),   # Jordan
], ids=["rotation", "jordan"])
def test_overflow_frontier_of_closed_form_blocks(m, scales):
    mp = pytest.importorskip("mpmath")
    got, overflow = linalg.expm_stack(m, scales)
    _, pade_overflow = _pade_era_expm_stack(m, scales)
    assert not np.any(overflow & ~pade_overflow)
    assert 1000 < np.count_nonzero(overflow) < 9000

    def finite(s):
        with mp.workdps(40):
            e = mp.expm(mp.mpf(s) * mp.matrix(m.tolist()))
        return max(abs(v) for v in e) <= np.finfo(float).max

    # the Pade's extra flags, and the members on either side of every edge of the mask
    edges = np.flatnonzero(np.diff(overflow)) + 1
    near = {i for e in edges for i in range(max(e - 4, 0), min(e + 4, scales.size))}
    for i in sorted(near | set(np.flatnonzero(pade_overflow & ~overflow))):
        assert overflow[i] == (not finite(scales[i])), scales[i]
    assert np.all(np.isfinite(got[~overflow]))
