"""The batched evaluation kernel: grid, scalar and check routes agree exactly."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvexact import (
    FLAG_NEAR_SINGULAR,
    FLAG_OK,
    FLAG_OVERFLOW,
    BoundState,
    ComplexPolePair,
    GammaEvaluator,
    ImaginaryPole,
    ScatteringSpec,
    Triplet,
    build_triplet,
    linalg,
    make_evaluator,
    sample_grid,
    solution,
)
from kdvexact.verification import pde_residual

import helpers

# the README library example: rotation pair plus a kappa = 2 bound state
README_EV = make_evaluator(build_triplet(helpers.three_block_spec()))


def _chunk_rows(ev, n_x: int, rows: int):
    """Patch the kernel's byte budget so each chunk holds `rows` t rows."""
    return mock.patch.object(solution, "CHUNK_BYTES", 8 * ev.P * ev.P * n_x * rows)


def _pointwise(ev, xs, ts):
    """Per-point sample() over the grid: u, det Gamma and flag arrays."""
    u = np.empty((len(ts), len(xs)))
    det = np.empty_like(u)
    flags = np.empty(u.shape, dtype="U16")
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            s = ev.sample(x, t)
            u[i, j], det[i, j], flags[i, j] = s.u, s.det_gamma, s.flag
    return u, det, flags


def _assert_grid_equals_pointwise(ev, xs, ts):
    u, det, flags = _pointwise(ev, xs, ts)
    grid = sample_grid(ev, xs, ts)
    assert grid.u.tobytes() == u.tobytes()
    assert grid.det_gamma.tobytes() == det.tobytes()
    assert np.array_equal(grid.flags, flags)
    return grid


_calm_specs = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: helpers.random_calm_spec(np.random.default_rng(seed)))
# t bands: calm, large enough for near-singular Gamma, and past overflow
_ts = st.lists(st.one_of(st.floats(0.0, 3.0), st.floats(3.0, 300.0),
                         st.floats(300.0, 3000.0)), min_size=1, max_size=6)
_xs = st.lists(st.floats(0.0, 30.0), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(_calm_specs, st.just(helpers.three_block_spec())),
       xs=_xs, ts=_ts, rows=st.integers(1, 3))
def test_grid_matches_pointwise_sample_bit_for_bit(spec, xs, ts, rows):
    ev = make_evaluator(build_triplet(spec))
    ts = ts + [3000.0]   # always at least one overflowing row
    with _chunk_rows(ev, len(xs), rows):
        grid = _assert_grid_equals_pointwise(ev, xs, ts)
    assert np.all(grid.flags[-1] == FLAG_OVERFLOW)


def test_readme_grid_with_every_flag_over_several_chunks():
    xs = np.linspace(0.0, 10.0, 11)
    ts = [0.0, 0.3, 1.0, 5.0, 11.0, 30.0]
    with _chunk_rows(README_EV, xs.size, 2):
        grid = _assert_grid_equals_pointwise(README_EV, xs, ts)
    assert {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW} <= set(grid.flags.ravel())
    assert np.all(np.isnan(grid.u[grid.flags != FLAG_OK]))
    assert np.all(np.isnan(grid.det_gamma[grid.flags == FLAG_OVERFLOW]))


@pytest.mark.parametrize("rows", [1, 2])
def test_lapack_branch_grid_matches_pointwise_sample_bit_for_bit(rows):
    ev = make_evaluator(helpers.many_poles_triplet(1))
    assert ev.P > linalg.ELIMINATION_MAX_N
    xs = [0.0, 2.0, 5.0, 10.0]
    ts = [0.0, 5.0, 0.1, 40.0, 0.05]   # two-row chunks mix ok and overflowing rows
    with _chunk_rows(ev, len(xs), rows):
        grid = _assert_grid_equals_pointwise(ev, xs, ts)
    assert set(grid.flags.ravel()) == {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW}


def test_evaluate_forms_every_propagator_in_one_call():
    ev = make_evaluator(helpers.many_poles_triplet(1))
    xs, ts = np.linspace(0.0, 10.0, 5), [0.0, 5.0, 0.1, 0.05]
    whole = ev.evaluate(xs, ts)   # one chunk
    calls = []
    expm_stack = linalg.expm_stack

    def counted(m, scales):
        calls.append(m is ev.flow)
        return expm_stack(m, scales)

    with _chunk_rows(ev, xs.size, 1), mock.patch.object(linalg, "expm_stack", counted):
        chunked = ev.evaluate(xs, ts)
    assert calls.count(True) == 1   # E(t) for all four one-row chunks
    assert chunked.u.tobytes() == whole.u.tobytes()
    assert chunked.det_gamma.tobytes() == whole.det_gamma.tobytes()
    assert np.array_equal(chunked.flags, whole.flags)
    assert {FLAG_OK, FLAG_OVERFLOW} <= set(whole.flags.ravel())


def test_det_gamma_is_a_batch_of_one():
    xs = np.linspace(0.0, 10.0, 6)
    ts = [0.0, 0.4, 1.0]
    e = README_EV.evaluate(xs, ts, with_u=False)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert README_EV.det_gamma(x, t) == e.det_gamma[i, j]
    # an overflowed point reads NaN, as sample() and every grid do, instead of raising
    assert README_EV.sample(0.0, 30.0).flag == FLAG_OVERFLOW
    assert np.isnan(README_EV.det_gamma(0.0, 30.0))


def test_grid_without_u_keeps_both_gates():
    # det Gamma(0, t) = 1 - exp(8 t) / 2 vanishes at t = ln 2 / 8
    flip = make_evaluator(Triplet(A=np.array([[1.0]]), B=np.array([1.0]), C=np.array([-1.0])))
    bare = flip.evaluate([0.0], [np.log(2.0) / 8.0], with_u=False)
    assert bare.flags.tolist() == [[FLAG_NEAR_SINGULAR]] and not bare.all_ok
    rng = np.random.default_rng(11)
    evaluators = [flip, README_EV, make_evaluator(helpers.rotation_triplet(3.0, 0.0)),
                  make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))]
    evaluators += [make_evaluator(build_triplet(helpers.random_calm_spec(rng)))
                   for _ in range(4)]
    xs = np.linspace(0.0, 10.0, 21)
    ts = [0.0, np.log(2.0) / 8.0, 0.3, 1.0, 5.0, 11.0, 30.0, 3000.0]
    seen = set()
    for ev in evaluators:
        full, bare = ev.evaluate(xs, ts), ev.evaluate(xs, ts, with_u=False)
        assert np.array_equal(bare.flags, full.flags)
        assert bare.det_gamma.tobytes() == full.det_gamma.tobytes()
        assert np.all(np.isnan(bare.u))
        seen |= set(bare.flags.ravel())
    assert seen == {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW}


def test_pde_residual_samples_one_kernel_call():
    for ev, x_window, t_window in [(README_EV, (0.0, 10.0), (0.0, 0.1)),
                                   (make_evaluator(helpers.rotation_triplet(0.5, 0.5, 1.0)),
                                    (0.5, 3.0), (0.1, 0.5))]:
        calls = []
        kernel = GammaEvaluator.evaluate

        def counted(self, *args, **kwargs):
            calls.append(args)
            return kernel(self, *args, **kwargs)

        with mock.patch.object(GammaEvaluator, "evaluate", counted):
            pde_residual(ev, x_window, t_window, n_x=7, n_t=3)
        assert len(calls) == 1   # all 13 stencil values of every point at once


def test_u_log_det_flags_instead_of_raising():
    flagged = [(5.0, 1.0), (9.0, 2.0)]
    for x, t in flagged:
        assert README_EV.sample(x, t).flag == FLAG_NEAR_SINGULAR

    def no_kernel(*args, **kwargs):
        raise AssertionError("u_log_det must stay off the batched kernel")

    with mock.patch.object(GammaEvaluator, "evaluate", no_kernel):
        for x, t in flagged:   # both fail the pivot gate of u_log_det's own LU
            assert np.isnan(README_EV.u_log_det(x, t))
        assert np.isnan(README_EV.u_log_det(0.0, 30.0))   # overflow
        assert np.isfinite(README_EV.u_log_det(1.0, 0.05))


def test_evaluator_holds_no_cache():
    fields = {f.name for f in solution.GammaEvaluator.__dataclass_fields__.values()}
    assert fields == {"triplet", "Q", "diagnostics", "flow"}


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("n", [1, 2, 3, linalg.ELIMINATION_MAX_N, linalg.ELIMINATION_MAX_N + 2])
def test_lu_factor_stack_matches_lapack(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((40, n, n))
    m[0] = 0.0                                   # exactly singular members
    m[1, :, n // 2] = 0.0
    m[2, :, 0] = 0.5                             # pivot tie: LAPACK takes the first
    m[2, -2:, 0] = [-2.0, 2.0][-n:]
    for r in range(n):                           # step 0 swaps member 3 + r with row r
        m[3 + r, r, 0] = 10.0
    f = linalg.lu_factor_stack(m)
    assert np.all(np.isfinite(f.lu))
    assert f.piv[3:3 + n, 0].tolist() == list(range(n))
    # both gate magnitudes equal their definitions bit for bit
    assert f.max_abs.tobytes() == np.max(np.abs(m), axis=(1, 2)).tobytes()
    assert f.norm_inf.tobytes() == np.max(np.sum(np.abs(m), axis=-1), axis=-1).tobytes()
    single = m[2 + n:3 + n].copy()               # a stack of one that swaps at step 0
    linalg.lu_factor_stack(single)
    assert np.array_equal(single, m[2 + n:3 + n])   # the input is left intact
    for k in range(m.shape[0]):
        lu, piv = sla.lu_factor(m[k], check_finite=False)
        assert np.array_equal(f.piv[k], piv), k
        assert np.max(np.abs(f.lu[k] - lu)) <= 1e-13 * max(1.0, np.max(np.abs(lu))), k
        assert f.permutation_sign()[k] == (-1.0) ** np.count_nonzero(piv != np.arange(n))
        assert f.min_pivot()[k] == pytest.approx(np.min(np.abs(np.diag(lu))), rel=1e-13,
                                                 abs=1e-300)
    assert f.min_pivot()[0] == 0.0 and f.min_pivot()[1] == 0.0
    rhs = rng.standard_normal((m.shape[0] - 2, n, 2))
    sub = f.take(np.arange(2, m.shape[0]))
    assert np.array_equal(sub.lu, f.lu[2:]) and np.array_equal(sub.norm_inf, f.norm_inf[2:])
    x = linalg.lu_solve_stack(sub, rhs)
    assert np.allclose(m[2:] @ x, rhs, rtol=0.0, atol=1e-10)
    empty = linalg.lu_factor_stack(np.zeros((0, n, n)))
    assert empty.lu.shape == (0, n, n) and empty.piv.shape == (0, n)
    assert linalg.lu_solve_stack(empty, np.zeros((0, n, 2))).shape == (0, n, 2)


def _lapack_per_member(m, rhs):
    """LAPACK on one C-ordered member at a time: lu, piv and the solutions."""
    lu, piv, x = np.empty_like(m), np.empty(m.shape[:2], dtype=np.intp), np.empty_like(rhs)
    for i in range(m.shape[0]):
        lu[i], piv[i], _ = sla.lapack.dgetrf(m[i])
        x[i], _ = sla.lapack.dgetrs(lu[i], piv[i], rhs[i])
    return lu, piv, x


@pytest.mark.parametrize("n", [linalg.ELIMINATION_MAX_N + 1, 12, 64])
def test_lapack_branch_equals_per_member_lapack_bit_for_bit(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((9, n, n))
    m[0] = 0.0                                   # exactly singular members
    m[1, :, n // 2] = 0.0
    rhs = rng.standard_normal((9, n, 2))
    before = (m.tobytes(), rhs.tobytes())
    lu, piv, x = _lapack_per_member(m, rhs)
    f = linalg.lu_factor_stack(m)
    assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
    assert all(member.flags.f_contiguous for member in f.lu)
    idx = np.array([8, 2, 0, 5, 1])
    sub = f.take(idx)
    assert sub.lu.tobytes() == lu[idx].tobytes() and sub.piv.tobytes() == piv[idx].tobytes()
    assert all(member.flags.f_contiguous for member in sub.lu)
    for got, want in [(linalg.lu_solve_stack(f, rhs), x),
                      (linalg.lu_solve_stack(sub, rhs[idx]), x[idx])]:
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert not np.all(np.isfinite(x[:2]))        # the singular members' solutions
    assert (m.tobytes(), rhs.tobytes()) == before   # both inputs are left intact


# small integers and signs give pivot ties and exactly singular members
_entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, linalg.ELIMINATION_MAX_N + 2), k=st.integers(1, 6))
def test_lu_stack_member_equals_batch_of_one(data, n, k):
    m = np.array(data.draw(st.lists(_entries, min_size=k * n * n, max_size=k * n * n)))
    m = m.reshape(k, n, n)
    rhs = np.array(data.draw(st.lists(_entries, min_size=k * n * 2, max_size=k * n * 2)))
    rhs = rhs.reshape(k, n, 2)
    before = m.copy()
    f = linalg.lu_factor_stack(m)
    x = linalg.lu_solve_stack(f, rhs)
    for i in range(k):
        one = linalg.lu_factor_stack(m[i:i + 1])
        assert f.lu[i].tobytes() == one.lu[0].tobytes()
        assert f.piv[i].tobytes() == one.piv[0].tobytes()
        assert f.max_abs[i] == one.max_abs[0]
        assert x[i].tobytes() == linalg.lu_solve_stack(one, rhs[i:i + 1])[0].tobytes()
    assert m.tobytes() == before.tobytes()


def test_expm_stack_matches_expm_member_by_member():
    a = helpers.three_block_triplet().A
    scales = np.array([0.0, -0.5, 2.0, -1e3, 1e3, 1e308])
    stack, overflow = linalg.expm_stack(a, scales)
    assert np.array_equal(stack[0], np.eye(3))
    assert overflow.tolist() == [False, False, False, False, True, True]
    for s, member in zip(scales[:4], stack[:4]):
        # batch invariance, which sample() relies on, is exact, and expm is its
        # checked front end. scipy's expm is an independent algorithm: against a
        # 40-digit mpmath exponential it is 5.2e-13 off at s = 2 and 9.1e-13 at
        # s = -1e3, the stack 7e-14 at most (test_oracle.py holds it to 1e-13)
        assert np.array_equal(member, linalg.expm_stack(a, [s])[0][0])
        assert np.array_equal(member, linalg.expm(a, s))
        assert np.max(np.abs(member - sla.expm(s * a))) <= 2e-12 * np.max(np.abs(member))
    for s in scales[4:]:
        with pytest.raises(linalg.OverflowDetectedError):
            linalg.expm(a, s)


# a double complex pair and a double imaginary pole: 4 x 4 and 2 x 2 Jordan chains
_JORDAN_SPEC = ScatteringSpec(
    complex_poles=(ComplexPolePair(alpha=0.7, beta=0.6, coefficients=((0.2, 0.1), (0.05, 0.1))),),
    imaginary_poles=(ImaginaryPole(omega=0.9, coefficients=(0.3, 0.1)),),
    bound_states=(BoundState(kappa=0.5, c=1.0),), eta=4.0)
_DENSE_TRIPLET = Triplet(A=np.array([[1.0, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.3, 0.2, 1.2]]),
                         B=np.array([1.0, 0.5, 0.2]), C=np.array([0.3, -0.4, 1.0]), eta=1.0)


@settings(max_examples=40, deadline=None)
@given(triplet=st.one_of(_calm_specs.map(build_triplet), st.just(build_triplet(_JORDAN_SPEC)),
                         st.just(_DENSE_TRIPLET)),
       scales=st.lists(st.one_of(st.floats(-30.0, 30.0), st.floats(-3000.0, 3000.0),
                                 st.just(0.0)), min_size=1, max_size=8))
def test_expm_stack_member_equals_batch_of_one(triplet, scales):
    for m in (triplet.A, make_evaluator(triplet).flow):
        stack, overflow = linalg.expm_stack(m, scales)
        for s, member, over in zip(scales, stack, overflow):
            one, one_over = linalg.expm_stack(m, [s])
            assert one_over[0] == over
            assert member.tobytes() == one[0].tobytes()
