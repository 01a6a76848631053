"""The batched evaluation kernel: grid, scalar and check routes agree exactly."""
from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import select
import signal
import sys
import threading
import tracemalloc
import warnings
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


def _chunk_rows(ev, n_x: int, rows: int, cols: int | None = None):
    """Patch the kernel's byte budget to `n_x` * `rows` members, or to `cols` members."""
    members = n_x * rows if cols is None else cols
    return mock.patch.object(solution, "CHUNK_BYTES", 8 * ev.P * ev.P * members)


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
       xs=_xs, ts=_ts, members=st.integers(1, 18), workers=st.integers(1, 2))
def test_grid_matches_pointwise_sample_bit_for_bit(spec, xs, ts, members, workers):
    ev = make_evaluator(build_triplet(spec))
    ts = ts + [3000.0]   # always at least one overflowing row
    # a budget below the grid gives part-width chunks, some of a helper's with two workers,
    # and below a row of x points it gives several x blocks, whose widths need not divide it
    with _chunk_rows(ev, len(xs), 1, members), _workers(workers):
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


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("ev", [README_EV, make_evaluator(helpers.many_poles_triplet(1))],
                         ids=["P3", "P64"])
def test_rows_split_along_x_match_pointwise_sample_bit_for_bit(ev, cols):
    xs = [0.0, 2.0, 5.0, 10.0, 0.5]
    ts = [0.0, 5.0, 0.1, 3000.0]   # the last row overflows everywhere
    with _chunk_rows(ev, len(xs), 1, cols):
        grid = _assert_grid_equals_pointwise(ev, xs, ts)
    assert np.all(grid.flags[-1] == FLAG_OVERFLOW)
    assert FLAG_OK in grid.flags


def _traced_peak(ev, xs, ts):
    """tracemalloc's peak over one evaluate call."""
    tracemalloc.start()
    try:
        ev.evaluate(xs, ts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _working_set(ev, xs, ts):
    """_traced_peak less the arrays evaluate fills (u, det Gamma, the outcome codes) and its
    axes; the flags are formed from the codes after the stacks and workspaces are freed."""
    n = len(xs) * len(ts)
    return _traced_peak(ev, xs, ts) - 17 * n - 8 * (len(xs) + len(ts))


def _assert_working_set_flat(ev, grids):
    """The working set of the first grid, within 10 % on the second, stays within five
    budgets: per x block exp(-xA), per t block E(t), and two workspaces, each holding a
    chunk's S(x) and Gamma. The first grid's bytes equal those of one block per axis, as a
    budget of the whole grid forms it."""
    small, large = (_working_set(ev, xs, ts) for xs, ts in grids)
    assert abs(large - small) <= 0.1 * small and max(small, large) <= 5 * solution.CHUNK_BYTES
    xs, ts = grids[0]
    with _chunk_rows(ev, len(xs), len(ts)):
        whole = ev.evaluate(xs, ts)
    assert _digest(ev.evaluate(xs, ts)) == _digest(whole)


def test_chunks_honour_the_byte_budget_along_x():
    # P = 64 rows of 201 and 2,001 x points: 4 and 32 x blocks, each within CHUNK_BYTES
    ev = make_evaluator(helpers.many_poles_triplet(1))
    _assert_working_set_flat(ev, [(np.linspace(0.0, 10.0, n), [0.0, 0.05]) for n in (201, 2001)])


def test_chunks_honour_the_byte_budget_along_t():
    # P = 64 columns of 201 and 2,001 t points: 4 and 32 t blocks, each within CHUNK_BYTES
    ev = make_evaluator(helpers.many_poles_triplet(1))
    _assert_working_set_flat(ev, [([0.0, 2.0], np.linspace(0.0, 1.0, n)) for n in (201, 2001)])


def test_lapack_kernel_working_set():
    # 41 x 11 at P = 64, as the many-poles benchmark workload evaluates it
    ev = make_evaluator(helpers.many_poles_triplet(1))
    xs, ts = np.linspace(0.0, 10.0, 41), np.linspace(0.0, 0.1, 11)
    ev.evaluate(xs, ts)
    assert _traced_peak(ev, xs, ts) <= 6.9e6


def _copying_kernel(ev, xs, ts):
    """u, det Gamma and flags as the kernel formed them before it factored Gamma in place:
    Gamma = I + S(x) E(t) in C order over the whole grid, overflowing members replaced by
    I, the copying lu_factor_stack, the solves on the passing indices, and C E(t) exp(-xA)
    gathered per point. Kept as the reference for the in-place kernel."""
    a, b, c, p = ev.triplet.A, ev.triplet.B, ev.triplet.C, ev.P
    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    exa, x_overflow = linalg.expm_stack(a, -xs)
    props, t_overflow = linalg.expm_stack(ev.flow, ts)
    with np.errstate(over="ignore", invalid="ignore"):
        side = exa @ ev.Q @ exa
        rb = exa @ b
        rhs = np.concatenate([rb, a @ rb], axis=-1)
        gamma = np.eye(p) + side @ props[:, None]
        ce = c @ props
    overflow = (x_overflow | t_overflow[:, None]
                | ~np.all(np.isfinite(gamma), axis=(-2, -1))).reshape(-1)
    gamma = gamma.reshape(-1, p, p)
    gamma[overflow] = np.eye(p)
    f = linalg.lu_factor_stack(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        sign = (-1.0) ** np.count_nonzero(f.piv != np.arange(p), axis=-1)
        d = sign * np.prod(np.diagonal(f.lu, axis1=-2, axis2=-1), axis=-1)
    overflow |= ~np.isfinite(d)
    with np.errstate(over="ignore"):
        near = np.abs(d) < linalg.NEAR_SINGULAR_TOL * (1.0 + np.maximum(1.0, f.norm_inf) ** p)
    near = ~overflow & (near | f.singular())
    idx = np.flatnonzero(~overflow & ~near)
    i, j = np.divmod(idx, xs.size)
    sol = linalg.lu_solve_stack(f, idx, rhs[j])
    with np.errstate(over="ignore", invalid="ignore"):
        row = ce[i] @ exa[j]
        v, w = sol[..., :1], sol[..., 1:]
        rv = row @ v
        val = (2.0 * (-(row @ (a @ v)) + rv * rv - row @ w))[:, 0, 0]
    overflow[idx[~np.isfinite(val)]] = True
    u = np.full(overflow.size, np.nan)
    det = np.where(overflow, np.nan, d)
    ok = idx[np.isfinite(val)]
    u[ok] = val[np.isfinite(val)]
    flags = np.where(overflow, FLAG_OVERFLOW, np.where(near, FLAG_NEAR_SINGULAR, FLAG_OK))
    shape = (ts.size, xs.size)
    return u.reshape(shape), det.reshape(shape), flags.reshape(shape)


def _dense_triplet(n):
    """A raw P = n triplet whose grid below reaches ok, near-singular and overflow."""
    rng = np.random.default_rng(0)
    a = np.diag(np.linspace(0.5, 1.5, n)) + 0.1 * rng.standard_normal((n, n))
    return Triplet(A=a, B=rng.standard_normal(n), C=rng.standard_normal(n))


_MANY_POLES_GRID = (np.linspace(0.0, 10.0, 41), np.linspace(0.0, 0.1, 11))
_DENSE_GRID = (np.linspace(0.0, 10.0, 11), [0.0, 0.2, 0.5, 1.0, 3.0, 40.0])


@pytest.mark.parametrize("triplet, grid", [
    (helpers.many_poles_triplet(1), _MANY_POLES_GRID),
    (helpers.many_poles_triplet(2), _MANY_POLES_GRID),
    (helpers.many_poles_triplet(3), _MANY_POLES_GRID),
    (_dense_triplet(3), _DENSE_GRID),
    (_dense_triplet(linalg.ELIMINATION_MAX_N), _DENSE_GRID),
    (_dense_triplet(8), _DENSE_GRID),
    (_dense_triplet(12), _DENSE_GRID),
], ids=["many-poles-1", "many-poles-2", "many-poles-3", "dense-3", "dense-6", "dense-8",
        "dense-12"])
def test_in_place_kernel_equals_the_copying_kernel_bit_for_bit(triplet, grid):
    ev = make_evaluator(triplet)
    u, det, flags = _copying_kernel(ev, *grid)
    got = ev.evaluate(*grid)
    assert got.u.tobytes() == u.tobytes()
    assert got.det_gamma.tobytes() == det.tobytes()
    assert np.array_equal(got.flags, flags)
    if ev.P < 64:   # the dense grids reach every outcome
        assert set(flags.ravel()) == {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW}


def test_threads_share_one_lapack_evaluator():
    ev = make_evaluator(helpers.many_poles_triplet(1))
    xs, ts = np.linspace(0.0, 10.0, 11), [0.0, 0.05, 0.1]
    want = ev.evaluate(xs, ts)
    results = [None] * 4   # more threads than this 2-core host has cores
    start = threading.Barrier(len(results))

    def work(k):
        start.wait(timeout=60)
        results[k] = [ev.evaluate(xs, ts) for _ in range(2)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in (g for r in results for g in r):
        assert got.u.tobytes() == want.u.tobytes()
        assert got.det_gamma.tobytes() == want.det_gamma.tobytes()
        assert np.array_equal(got.flags, want.flags)


@contextlib.contextmanager
def _workers(n: int):
    """Let evaluate run on n CPUs, and on n workers where n exceeds solution._MAX_WORKERS."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True), \
            mock.patch.object(solution, "_MAX_WORKERS", max(n, solution._MAX_WORKERS)):
        yield


@contextlib.contextmanager
def _factoring_threads():
    """Record the thread that factors each chunk of evaluate, in a list."""
    seen, factor = [], linalg._lu_factor_members

    def recorded(m):
        seen.append(threading.get_ident())
        return factor(m)

    with mock.patch.object(linalg, "_lu_factor_members", recorded):
        yield seen


def _digest(grid) -> bytes:
    return hashlib.sha256(grid.u.tobytes() + grid.det_gamma.tobytes()
                          + grid.flags.tobytes()).digest()


_WORKER_GRIDS = {   # (evaluator, xs, ts, members of a patched byte budget or None)
    # a budget of 11 members: one-column chunks of all six t rows
    "P3": (README_EV, np.linspace(0.0, 10.0, 11), [0.0, 0.3, 1.0, 5.0, 11.0, 30.0], 11),
    "P8": (make_evaluator(_dense_triplet(8)), *_DENSE_GRID, 11),
    # a budget of 12 members: chunks of six t rows by two of the 11 x points
    "P3-part-width": (README_EV, np.linspace(0.0, 10.0, 11), [0.0, 0.3, 1.0, 5.0, 11.0, 30.0],
                      12),
    # a budget of 7 members: chunks of three t rows by two x points, so each x block of
    # seven ends in a one-point chunk
    "P3-x-blocks": (README_EV, np.linspace(0.0, 10.0, 11), [0.0, 0.3, 30.0], 7),
    # P = 64 rows of 201 x points: x blocks of 64, in chunks of two rows by 32 x points
    "P64-x-split": (make_evaluator(helpers.many_poles_triplet(1)), np.linspace(0.0, 10.0, 201),
                    [0.0, 0.05], None),
    # one row: each x block is split between the workers, or one would idle
    "P64-one-row": (make_evaluator(helpers.many_poles_triplet(1)), np.linspace(0.0, 10.0, 201),
                    [0.05], None),
    # three rows: chunks of 21 x points, so each x block of 64 ends in a one-point chunk
    "P64-x-blocks": (make_evaluator(helpers.many_poles_triplet(1)), np.linspace(0.0, 10.0, 201),
                     [0.0, 0.05, 0.1], None),
    # two columns of 201 t points: t blocks of 64 rows, in one-column chunks
    "P64-tall": (make_evaluator(helpers.many_poles_triplet(1)), [0.0, 2.0],
                 np.linspace(0.0, 1.0, 201), None),
}


@pytest.mark.parametrize("grid", list(_WORKER_GRIDS))
def test_worker_count_moves_no_bit(grid):
    ev, xs, ts, members = _WORKER_GRIDS[grid]
    results, threads = {}, {}
    for n in (1, 2, 4):
        chunking = _chunk_rows(ev, len(xs), 1, members) if members else contextlib.nullcontext()
        with chunking, _workers(n), _factoring_threads() as seen:
            results[n] = ev.evaluate(xs, ts)
        threads[n] = len(set(seen))
    # the pool may hand a quick share to a helper that has finished its own
    assert len(seen) >= 5 and threads[1] == 1 and threads[2] == 2 and 2 <= threads[4] <= 4
    for n in (2, 4):
        assert results[n].u.tobytes() == results[1].u.tobytes()
        assert results[n].det_gamma.tobytes() == results[1].det_gamma.tobytes()
        assert np.array_equal(results[n].flags, results[1].flags)
    if not grid.startswith("P64"):
        assert set(results[1].flags.ravel()) == {FLAG_OK, FLAG_NEAR_SINGULAR, FLAG_OVERFLOW}


def test_affinity_beyond_max_workers_starts_no_more_threads():
    ev, xs, ts, _ = _WORKER_GRIDS["P64-x-split"]
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(8)), create=True), \
            _factoring_threads() as seen:
        ev.evaluate(xs, ts)
    assert len(seen) == 8 and len(set(seen)) == solution._MAX_WORKERS == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_multi_chunk_evaluate_finishes_in_a_fork_child():
    ev, xs, ts, _ = _WORKER_GRIDS["P64-x-split"]
    ready = []
    with _workers(2):
        want = _digest(ev.evaluate(xs, ts))   # the parent starts and joins a helper first
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:   # the child never returns into the test runner
            try:
                os.write(write, _digest(ev.evaluate(xs, ts)))
            finally:
                os._exit(0)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 120)
        got = os.read(read, len(want)) if ready else b""
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert ready, "the child's evaluate did not finish in 120 s"
    assert got == want


@pytest.mark.parametrize("ev, ts", [
    (README_EV, [0.0, 10.43, 0.3, 30.0]),
    (make_evaluator(_dense_triplet(8)), [0.0, 31.75, 0.5, 40.0]),
], ids=["P3", "P8"])
def test_a_helper_share_with_overflow_leaks_no_warning(ev, ts):
    # chunks of the four t rows by two x points: the helper of two workers takes every other
    # one. Its thread starts with numpy's default error state, and C E(t) overflows at
    # t = 10.43 (P = 3) and Gamma's matmul at 31.75 (P = 8), so only the kernel's own
    # errstate keeps it quiet
    xs = np.linspace(0.0, 10.0, 11)
    with _chunk_rows(ev, len(xs), 1), _workers(2), warnings.catch_warnings():
        warnings.simplefilter("error")
        flags = ev.evaluate(xs, ts).flags
    assert FLAG_OVERFLOW in flags[1::2]


def test_evaluate_forms_every_propagator_in_one_call():
    ev = make_evaluator(helpers.many_poles_triplet(1))
    xs, ts = np.linspace(0.0, 10.0, 5), [0.0, 5.0, 0.1, 0.05]
    whole = ev.evaluate(xs, ts)   # one chunk
    calls, threads = [], set()
    expm_stack = linalg.expm_stack

    def counted(m, scales):
        calls.append(m is ev.flow)
        threads.add(threading.get_ident())
        return expm_stack(m, scales)

    # two workers share the chunks; every exponential stays on the calling thread
    with _chunk_rows(ev, xs.size, 1), _workers(2), \
            mock.patch.object(linalg, "expm_stack", counted):
        chunked = ev.evaluate(xs, ts)
    assert calls.count(True) == 1   # E(t) for all five one-column chunks
    calls.clear()
    # blocks of four points: two x blocks (4 and 1 points) share the one t block's E(t)
    with _chunk_rows(ev, xs.size, 1, len(ts)), _workers(2), \
            mock.patch.object(linalg, "expm_stack", counted):
        split = ev.evaluate(xs, ts)
    assert calls == [False, True, False]
    assert threads == {threading.get_ident()}
    for got in (chunked, split):
        assert got.u.tobytes() == whole.u.tobytes()
        assert got.det_gamma.tobytes() == whole.det_gamma.tobytes()
        assert np.array_equal(got.flags, whole.flags)
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


@pytest.mark.parametrize("n", [1, 3, linalg.ELIMINATION_MAX_N + 2])
def test_an_exponential_whose_scale_leaves_the_float_range_reads_overflow(n):
    # expm_stack drops a scale s whose s max |m| is past the float range and reports it in
    # its mask alone, so the kernel flags the point from that mask, not from Gamma's entries
    growing = make_evaluator(Triplet(A=-2.0 * np.eye(n), B=np.ones(n), C=np.ones(n)))
    flags = growing.evaluate([0.0, 1e308], [0.0, 1e308, -1e308]).flags   # flow -64 I
    assert flags[0, 1] == FLAG_OVERFLOW and set(flags[1:].ravel()) == {FLAG_OVERFLOW}


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


def test_grid_without_u_solves_nothing():
    solves, solve = [], linalg.lu_solve_stack

    def recorded(factors, idx, rhs):
        solves.append(len(idx))
        return solve(factors, idx, rhs)

    xs, ts = np.linspace(0.0, 10.0, 11), [0.0, 0.3, 1.0, 5.0, 11.0, 30.0]
    with mock.patch.object(linalg, "lu_solve_stack", recorded):
        # one chunk on the calling thread, then chunks shared with a helper
        for chunking, n in ((contextlib.nullcontext(), 1), (_chunk_rows(README_EV, 11, 2), 2)):
            with chunking, _workers(n):
                assert np.all(np.isnan(README_EV.evaluate(xs, ts, with_u=False).u))
                assert not solves
                README_EV.evaluate(xs, ts)
            assert sum(solves) > 0
            solves.clear()


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
    # both gate magnitudes equal their definitions bit for bit: the row sums of |m| are
    # summed in column order up to ELIMINATION_MAX_N and taken as BLAS column sums of the
    # C-ordered |m^T| above it, as the kernel takes them of Gamma
    assert f.max_abs.tobytes() == np.max(np.abs(m), axis=(1, 2)).tobytes()
    mag = np.abs(m)
    row_sums = (functools.reduce(np.add, mag.transpose(2, 0, 1)) if n <= linalg.ELIMINATION_MAX_N
                else np.ones(n) @ mag.transpose(0, 2, 1).copy())
    assert f.norm_inf.tobytes() == np.max(row_sums, axis=-1).tobytes()
    single = m[2 + n:3 + n].copy()               # a stack of one that swaps at step 0
    linalg.lu_factor_stack(single)
    assert np.array_equal(single, m[2 + n:3 + n])   # the input is left intact
    det = f.gates()[0]
    for k in range(m.shape[0]):
        lu, piv = sla.lu_factor(m[k], check_finite=False)
        assert np.array_equal(f.piv[k], piv), k
        assert np.max(np.abs(f.lu[k] - lu)) <= 1e-13 * max(1.0, np.max(np.abs(lu))), k
        pivots = np.diagonal(f.lu[k])
        # gates() signs the pivots' product by LAPACK's row swaps
        assert det[k] == (-1.0) ** np.count_nonzero(piv != np.arange(n)) * np.prod(pivots)
        assert np.min(np.abs(pivots)) == pytest.approx(np.min(np.abs(np.diag(lu))), rel=1e-13,
                                                       abs=1e-300)
    assert np.min(np.abs(np.diagonal(f.lu[:2], axis1=1, axis2=2)), axis=-1).tolist() == [0.0, 0.0]
    rhs = rng.standard_normal((m.shape[0] - 2, n, 2))
    idx = np.arange(2, m.shape[0])
    x = linalg.lu_solve_stack(f, idx, rhs)
    assert np.allclose(m[2:] @ x, rhs, rtol=0.0, atol=1e-10)
    for r, i in enumerate(idx[::7]):   # a member solves alike alone and among the others
        assert linalg.lu_solve_stack(f, [i], rhs[7 * r])[0].tobytes() == x[7 * r].tobytes()
    empty = linalg.lu_factor_stack(np.zeros((0, n, n)))
    assert empty.lu.shape == (0, n, n) and empty.piv.shape == (0, n)
    assert linalg.lu_solve_stack(empty, [], np.zeros((0, n, 2))).shape == (0, n, 2)
    assert linalg.lu_solve_stack(f, [], rhs[:0]).shape == (0, n, 2)


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
    for got, want in [(linalg.lu_solve_stack(f, range(9), rhs), x),
                      (linalg.lu_solve_stack(f, idx, rhs[idx]), x[idx])]:
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    # the solves read the factors where they lie and leave them as they were
    assert f.lu.tobytes() == lu.tobytes() and f.piv.tobytes() == piv.tobytes()
    assert not np.all(np.isfinite(x[:2]))        # the singular members' solutions
    assert (m.tobytes(), rhs.tobytes()) == before   # both inputs are left intact


# small integers and signs give pivot ties and exactly singular members
_entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, linalg.ELIMINATION_MAX_N + 2), k=st.integers(1, 6))
def test_lu_stack_member_equals_batch_of_one(data, n, k):
    m = np.array(data.draw(st.lists(_entries, min_size=k * n * n, max_size=k * n * n)))
    m = m.reshape(k, n, n)
    # non-finite entries, as an overflowing Gamma holds, spoil only their own member
    for i, r, c, v in data.draw(st.lists(st.tuples(
            st.integers(0, k - 1), st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from([np.inf, -np.inf, np.nan])), max_size=k)):
        m[i, r, c] = v
    rhs = np.array(data.draw(st.lists(_entries, min_size=k * n * 2, max_size=k * n * 2)))
    rhs = rhs.reshape(k, n, 2)
    before = m.copy()
    f = linalg.lu_factor_stack(m)
    x = linalg.lu_solve_stack(f, range(k), rhs)
    gates = f.gates()
    for i in range(k):
        one = linalg.lu_factor_stack(m[i:i + 1])
        # a member's det and masks are those of its batch of one, non-finite members included
        for name, got, want in zip(("det", "overflow", "near_singular"), gates, one.gates()):
            assert got[i:i + 1].tobytes() == want.tobytes(), name
        if not np.all(np.isfinite(m[i])):
            assert not np.isfinite(f.max_abs[i]) and gates[1][i] and not gates[2][i]
            continue
        for name in ("lu", "piv", "max_abs", "norm_inf"):
            assert getattr(f, name)[i].tobytes() == getattr(one, name)[0].tobytes(), name
        assert x[i].tobytes() == linalg.lu_solve_stack(one, [0], rhs[i:i + 1])[0].tobytes()
    assert m.tobytes() == before.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, linalg.ELIMINATION_MAX_N), k=st.integers(1, 8))
def test_stacked_lu_equals_a_reference_elimination_bit_for_bit(data, n, k):
    m = np.array(data.draw(st.lists(_entries, min_size=k * n * n, max_size=k * n * n)))
    m = m.reshape(k, n, n)
    # a zeroed column gives a zero pivot; a copied row an exactly singular member
    for i, c, zero_column in data.draw(st.lists(st.tuples(
            st.integers(0, k - 1), st.integers(0, max(n - 1, 0)), st.booleans()),
            max_size=k if n else 0)):
        if zero_column:
            m[i, :, c] = 0.0
        else:
            m[i, c] = m[i, (c + 1) % n]
    rhs = np.array(data.draw(st.lists(_entries, min_size=k * n * 2, max_size=k * n * 2)))
    rhs = rhs.reshape(k, n, 2)
    f = linalg.lu_factor_stack(m)
    det = f.gates()[0]
    x = linalg.lu_solve_stack(f, range(k), rhs)
    for i in range(k):
        lu, piv, max_abs, norm_inf = helpers.reference_lu(m[i].tolist())
        assert f.lu[i].tobytes() == np.array(lu, dtype=float).reshape(n, n).tobytes()
        assert f.piv[i].tolist() == piv
        assert np.array([f.max_abs[i], f.norm_inf[i], det[i]]).tobytes() == np.array(
            [max_abs, norm_inf, helpers.reference_det(lu, piv)]).tobytes()
        if all(lu[j][j] != 0.0 for j in range(n)):
            want = [helpers.reference_lu_solve(lu, piv, b) for b in rhs[i].T.tolist()]
            assert x[i].tobytes() == np.array(want, dtype=float).reshape(2, n).T.tobytes()
        else:   # a zero pivot divides by zero: a non-finite solution, for the gates to catch
            assert not np.isfinite(x[i]).all()


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
