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
    GammaEvaluator,
    KdvExactError,
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
    """Per-point sample() over the grid: arrays, or the first error raised."""
    u = np.empty((len(ts), len(xs)))
    det = np.empty_like(u)
    flags = np.empty(u.shape, dtype="U16")
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            try:
                s = ev.sample(x, t)
            except KdvExactError as exc:
                return exc
            u[i, j], det[i, j], flags[i, j] = s.u, s.det_gamma, s.flag
    return u, det, flags


def _assert_grid_equals_pointwise(ev, xs, ts):
    want = _pointwise(ev, xs, ts)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            sample_grid(ev, xs, ts)
        assert str(info.value) == str(want)
        return None
    grid = sample_grid(ev, xs, ts)
    u, det, flags = want
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
    assert grid is None or np.all(grid.flags[-1] == FLAG_OVERFLOW)


def test_readme_grid_with_every_flag_over_several_chunks():
    xs = np.linspace(0.0, 10.0, 11)
    ts = [0.0, 0.3, 1.0, 5.0, 11.0, 30.0]
    with _chunk_rows(README_EV, xs.size, 2):
        grid = _assert_grid_equals_pointwise(README_EV, xs, ts)
    assert {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW} <= set(grid.flags.ravel())
    assert np.all(np.isnan(grid.u[grid.flags != FLAG_OK]))
    assert np.all(np.isnan(grid.det_gamma[grid.flags == FLAG_OVERFLOW]))


def test_det_gamma_is_a_batch_of_one():
    xs = np.linspace(0.0, 10.0, 6)
    ts = [0.0, 0.4, 1.0]
    e = README_EV.evaluate(xs, ts, with_u=False)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert README_EV.det_gamma(x, t) == e.det_gamma[i, j]
    with pytest.raises(linalg.OverflowDetectedError):
        README_EV.det_gamma(0.0, 30.0)


def test_pde_residual_evaluator_equals_plain_callable():
    for ev, x_window, t_window in [(README_EV, (0.0, 10.0), (0.0, 0.1)),
                                   (make_evaluator(helpers.rotation_triplet(0.5, 0.5, 1.0)),
                                    (0.5, 3.0), (0.1, 0.5))]:
        h_t = 2e-6
        calls = []
        kernel = GammaEvaluator.evaluate

        def counted(self, *args, **kwargs):
            calls.append(args)
            return kernel(self, *args, **kwargs)

        with mock.patch.object(GammaEvaluator, "evaluate", counted):
            batched = pde_residual(ev, x_window, t_window, n_x=7, n_t=3,
                                   h_t=h_t, eta=ev.eta)
        assert len(calls) == 1   # all 13 stencil values of every point at once
        plain = pde_residual(lambda x, t: ev.u(x, t), x_window, t_window, n_x=7, n_t=3,
                             h_t=h_t, eta=ev.eta)
        assert batched.residual.tobytes() == plain.residual.tobytes()
        assert np.array_equal(batched.x, plain.x) and np.array_equal(batched.t, plain.t)


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
    f = linalg.lu_factor_stack(m)
    assert np.all(np.isfinite(f.lu))
    for k in range(m.shape[0]):
        lu, piv = sla.lu_factor(m[k], check_finite=False)
        assert np.array_equal(f.piv[k], piv), k
        assert np.max(np.abs(f.lu[k] - lu)) <= 1e-13 * max(1.0, np.max(np.abs(lu))), k
        single = linalg.LuFactors(lu=lu, piv=piv, max_abs=float(np.max(np.abs(m[k]))))
        assert f.permutation_sign()[k] == single.permutation_sign()
        assert f.min_pivot()[k] == pytest.approx(single.min_pivot(), rel=1e-13, abs=1e-300)
    assert f.min_pivot()[0] == 0.0 and f.min_pivot()[1] == 0.0
    rhs = rng.standard_normal((m.shape[0] - 2, n, 2))
    sub = linalg.LuFactors(lu=f.lu[2:], piv=f.piv[2:], max_abs=f.max_abs[2:])
    x = linalg.lu_solve_stack(sub, rhs)
    assert np.allclose(m[2:] @ x, rhs, rtol=0.0, atol=1e-10)


def test_expm_stack_matches_expm_member_by_member():
    a = helpers.three_block_triplet().A
    scales = np.array([0.0, -0.5, 2.0, -1e3, 1e3, 1e308])
    stack, overflow = linalg.expm_stack(a, scales)
    assert np.array_equal(stack[0], np.eye(3))
    assert overflow.tolist() == [False, False, False, False, True, True]
    for s, member in zip(scales[:4], stack[:4]):
        assert np.array_equal(member, linalg.expm(a, s))
    for s in scales[4:]:
        with pytest.raises(linalg.OverflowDetectedError):
            linalg.expm(a, s)
