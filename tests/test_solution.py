"""Closed-form solution machinery: Gamma, determinants, u, Omega, K."""
from __future__ import annotations

import threading
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from kdvexact import (
    FLAG_NEAR_SINGULAR,
    FLAG_OK,
    FLAG_OVERFLOW,
    BoundState,
    LyapunovSolveError,
    OverflowDetectedError,
    ScatteringSpec,
    SpecValidationError,
    Triplet,
    build_triplet,
    linalg,
    make_evaluator,
    sample_grid,
)

import helpers
from helpers import S3


def one_soliton_evaluator(kappa=1.0, c=2.0, eta=0.0):
    spec = ScatteringSpec(bound_states=(BoundState(kappa, c),), eta=eta)
    return make_evaluator(build_triplet(spec))


def test_zero_c_gives_vacuum():
    trip = Triplet(A=np.diag([1.0, 2.0]), B=np.ones(2), C=np.zeros(2))
    ev = make_evaluator(trip)
    assert np.array_equal(ev.Q, np.zeros((2, 2)))
    for x, t in [(0.0, 0.0), (1.5, 0.7), (8.0, 3.0)]:
        assert np.array_equal(ev.gamma(x, t), np.eye(2))
        s = ev.sample(x, t)
        assert s.flag == FLAG_OK and s.det_gamma == 1.0 and s.u == 0.0
        assert ev.marchenko_kernel(x, x + 1.0, t) == 0.0


def test_resonant_spectrum_raises_even_when_b_c_is_consistent():
    # lambda = +-1 resonate, but B C = e1 e1^T lies in the range of the
    # singular Lyapunov map: a Q with zero residual exists, not a unique one
    trip = Triplet(A=np.diag([1.0, -1.0]), B=np.array([1.0, 0.0]), C=np.array([1.0, 0.0]))
    with pytest.raises(LyapunovSolveError):
        make_evaluator(trip)


def test_bound_state_q_entries():
    spec = ScatteringSpec(bound_states=(BoundState(0.5, 1.0), BoundState(1.25, 2.5)))
    ev = make_evaluator(build_triplet(spec))
    kap = np.array([0.5, 1.25])
    c = np.array([1.0, 2.5])
    want = c[None, :] / (kap[:, None] + kap[None, :])
    assert np.max(np.abs(ev.Q - want)) < 1e-14


def test_gamma_against_quadrature():
    # Lyapunov route vs adaptive quadrature of exp(-zA) B C exp(-zA)
    trip = helpers.rotation_triplet(0.5, 0.5, eta=1.0)
    ev = make_evaluator(trip)
    bc = trip.B @ trip.C

    def entry(z, i, j):
        e = linalg.expm(trip.A, -z)
        return (e @ bc @ e)[i, j]

    q_quad = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            q_quad[i, j], _ = quad(entry, 0.0, np.inf, args=(i, j), limit=200)
    assert np.max(np.abs(ev.Q - q_quad)) < 1e-9

    for x, t in [(0.0, 0.0), (0.8, 0.3), (2.0, 1.1)]:
        exa = linalg.expm(trip.A, -x)
        want = np.eye(2) + exa @ q_quad @ exa @ ev.propagator(t)
        assert np.max(np.abs(ev.gamma(x, t) - want)) < 1e-9, (x, t)


def test_gamma_far_field_is_identity():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    assert np.max(np.abs(ev.gamma(50.0, 0.0) - np.eye(2))) < 1e-20


def test_det_gamma_at_origin():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    want = 0.875 + S3 / 4
    assert abs(ev.sample(0.0, 0.0).det_gamma - want) < 1e-15


def test_det_gamma_closed_form_grid():
    xs = np.linspace(0.0, 10.0, 21)
    ts = np.linspace(0.0, 5.0, 11)
    for eps, gam, eta in [(0.5, 0.5, 1.0), (0.3, 0.2, 0.0), (0.1, 0.5, 8.0)]:
        ev = make_evaluator(helpers.rotation_triplet(eps, gam, eta))
        grid = sample_grid(ev, xs, ts)
        assert grid.all_ok
        want = helpers.rotation_det_reference(xs[None, :], ts[:, None], eps, gam, eta)
        rel = np.max(np.abs(grid.det_gamma - want) / np.maximum(1.0, np.abs(want)))
        assert rel < 1e-9, (eps, gam, eta, rel)


def test_one_soliton_values():
    ev = one_soliton_evaluator(kappa=1.0, c=2.0)
    s = ev.sample(0.0, 0.0)
    assert s.u == -2.0 and s.det_gamma == 2.0 and s.flag == FLAG_OK
    for x in np.linspace(0.0, 4.0, 9):
        for t in (0.0, 0.05, 0.12):
            want_det = 1.0 + np.exp(-2 * x + 8 * t)
            assert abs(ev.sample(x, t).det_gamma - want_det) < 1e-12 * want_det
            want_u = helpers.one_soliton_u(x, t, 1.0, 2.0)
            assert abs(ev.u(x, t) - want_u) < 1e-12 * max(1.0, abs(want_u))


def test_one_soliton_peak():
    kappa, c, eta, t = 1.3, 0.7, 1.0, 0.3
    ev = one_soliton_evaluator(kappa, c, eta)
    x_star = (4 * kappa ** 2 + eta) * t + np.log(c / (2 * kappa)) / (2 * kappa)
    assert abs(ev.u(x_star, t) + 2 * kappa ** 2) < 1e-10
    # off-peak values are strictly shallower
    assert ev.u(x_star + 0.4, t) > -2 * kappa ** 2
    assert ev.u(x_star - 0.4, t) > -2 * kappa ** 2


def test_u_routes_agree():
    rng = np.random.default_rng(43)
    for _ in range(4):
        spec = helpers.random_calm_spec(rng)
        ev = make_evaluator(build_triplet(spec))
        for _ in range(25):
            x = float(rng.uniform(0.0, 4.0))
            t = float(rng.uniform(0.0, 0.25))
            s = ev.sample(x, t)
            if s.flag != FLAG_OK or abs(s.u) < 1e-6:
                continue
            other = ev.u_log_det(x, t)
            assert abs(s.u - other) < 1e-8 * max(1.0, abs(s.u)), (spec, x, t)


def test_u_log_det_matches_fd_of_log_reference():
    # -2 (log det)_xx with the closed-form determinant as the log source
    eps, gam, eta = 0.5, 0.5, 1.0
    ev = make_evaluator(helpers.rotation_triplet(eps, gam, eta))
    h = 1e-3
    for x, t in [(0.5, 0.1), (1.2, 0.4), (2.5, 0.05)]:
        f = [np.log(helpers.rotation_det_reference(x + k * h, t, eps, gam, eta))
             for k in (-2, -1, 0, 1, 2)]
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        assert abs(ev.u_log_det(x, t) - (-2.0 * d2)) < 1e-7, (x, t)


def test_omega_closed_forms():
    eps, gam = 0.5, 0.25
    ev = make_evaluator(helpers.rotation_triplet(eps, gam))
    assert abs(ev.marchenko_omega(0.0, 0.0) - 2 * eps) < 1e-15
    for y in (0.3, 1.0, 2.4):
        want = helpers.rotation_omega_reference(y, eps, gam)
        assert abs(ev.marchenko_omega(y, 0.0) - want) < 1e-14, y

    kappa, c, eta = 0.8, 1.7, 4.0
    evb = one_soliton_evaluator(kappa, c, eta)
    for y, t in [(0.5, 0.0), (1.0, 0.2), (3.0, 0.1)]:
        want = c * np.exp((8 * kappa ** 3 + 2 * eta * kappa) * t - kappa * y)
        assert abs(evb.marchenko_omega(y, t) - want) < 1e-13 * want
    assert abs(evb.marchenko_omega(60.0, 0.0)) < 1e-20


def test_omega_reflectionless_sum():
    rng = np.random.default_rng(47)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        states = tuple(BoundState(kappa=float(0.4 + 0.5 * i + rng.uniform(0, 0.2)),
                                  c=float(rng.uniform(0.3, 3.0)))
                       for i in range(n))
        eta = float(rng.choice([0.0, 4.0]))
        ev = make_evaluator(build_triplet(ScatteringSpec(bound_states=states, eta=eta)))
        for _ in range(6):
            y = float(rng.uniform(0.0, 5.0))
            t = float(rng.uniform(0.0, 0.5))
            want = sum(s.c * np.exp((8 * s.kappa ** 3 + 2 * eta * s.kappa) * t
                                    - s.kappa * y) for s in states)
            got = ev.marchenko_omega(y, t)
            assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_kernel_one_soliton_closed_form():
    ev = one_soliton_evaluator(kappa=1.0, c=2.0)
    for x in (0.0, 0.5, 1.5):
        for y in (x, x + 0.5, x + 2.0):
            want = -2.0 * np.exp(-x - y) / (1.0 + np.exp(-2 * x))
            assert abs(ev.marchenko_kernel(x, y, 0.0) - want) < 1e-14, (x, y)
    with pytest.raises(SpecValidationError):
        ev.marchenko_kernel(1.0, 0.5, 0.0)


def test_kernel_diagonal_derivative_recovers_u():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    h = 1e-5
    for x, t in [(0.4, 0.1), (1.1, 0.3), (2.2, 0.0)]:
        dk = (ev.marchenko_kernel(x + h, x + h, t)
              - ev.marchenko_kernel(x - h, x - h, t)) / (2 * h)
        u = ev.u(x, t)
        assert abs(-2.0 * dk - u) < 1e-6 * max(1.0, abs(u)), (x, t)


def test_gamma_x_is_analytic_derivative():
    # The Lyapunov identity u_log_det relies on: Gamma_x = -exp(-xA) B C exp(-xA) E(t).
    ev = make_evaluator(helpers.rotation_triplet(0.4, 0.3, eta=2.0))
    x0, t0 = 1.0, 0.2
    trip = ev.triplet
    exa = sla.expm(-x0 * trip.A)
    gamma_x = -(exa @ trip.B @ trip.C @ exa) @ sla.expm(t0 * ev.flow)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (ev.gamma(x0 + h, t0) - ev.gamma(x0 - h, t0)) / (2 * h)
        errs.append(np.max(np.abs(fd - gamma_x)))
    # central differences converge at second order: halving h quarters the error
    assert 3.0 < errs[0] / errs[1] < 5.0, errs
    assert 3.0 < errs[1] / errs[2] < 5.0, errs


def test_far_field_decay_envelope():
    rng = np.random.default_rng(53)
    for _ in range(3):
        spec = helpers.random_calm_spec(rng)
        ev = make_evaluator(build_triplet(spec))
        mu = ev.diagnostics.spectrum.min_real_part

        def envelope(x0):
            return max(abs(ev.u(x, 0.0)) for x in np.linspace(x0, x0 + 2.0, 9))

        envs = [envelope(k / (2 * mu)) for k in (20.0, 30.0, 40.0)]
        assert envs[0] > envs[1] > envs[2], envs
        assert envs[2] < 1e-12


def test_sample_flags_and_edge_cases():
    grid = sample_grid(one_soliton_evaluator(), [], [])
    assert grid.u.shape == (0, 0) and grid.all_ok

    formal = make_evaluator(Triplet(A=np.array([[-1.0]]),
                                    B=np.array([1.0]), C=np.array([1.0])))
    assert formal.formal_mode
    s = formal.sample(0.0, 0.0)
    assert s.flag == FLAG_OK and np.isfinite(s.u)
    assert abs(s.det_gamma - 0.5) < 1e-15

    hot = one_soliton_evaluator(kappa=2.0, c=3.0)
    s = hot.sample(0.0, 30.0)
    assert s.flag == FLAG_OVERFLOW and np.isnan(s.u)

    sign_flip = make_evaluator(Triplet(A=np.array([[1.0]]),
                                       B=np.array([1.0]), C=np.array([-1.0])))
    s = sign_flip.sample(0.0, np.log(2.0) / 8.0)
    assert s.flag == FLAG_NEAR_SINGULAR and np.isnan(s.u)
    assert abs(s.det_gamma) < 1e-8


def test_negative_x_rejected():
    ev = one_soliton_evaluator()
    with pytest.raises(SpecValidationError):
        ev.gamma(-0.1, 0.0)
    with pytest.raises(SpecValidationError):
        ev.sample(-1.0, 0.0)
    with pytest.raises(SpecValidationError):
        ev.u_log_det(-0.5, 0.0)
    with pytest.raises(SpecValidationError):
        ev.marchenko_kernel(-0.5, 0.0, 0.0)


@pytest.mark.parametrize("route, args, named", [
    ("sample", (1.0, np.inf), "t must be finite, got inf"),
    ("evaluate", ([1.0], [0.0, np.nan]), "t must be finite, got nan"),
    ("det_gamma", (1.0, -np.inf), "t must be finite, got -inf"),
    ("gamma", (0.5, np.nan), "t must be finite, got nan"),
    ("u_log_det", (0.5, np.inf), "t must be finite, got inf"),
    ("marchenko_kernel", (0.5, 1.0, np.nan), "t must be finite, got nan"),
    ("propagator", (np.nan,), "t must be finite, got nan"),
])
def test_non_finite_t_rejected_before_any_work(monkeypatch, route, args, named):
    ev = one_soliton_evaluator()
    for name in ("expm", "expm_stack"):
        monkeypatch.setattr(linalg, name, lambda *a, name=name: pytest.fail(f"{name} called"))
    with pytest.raises(SpecValidationError, match=named):
        getattr(ev, route)(*args)


@pytest.mark.parametrize("y, named", [
    (np.inf, "y must be finite, got inf"),
    (np.nan, "y must be finite, got nan"),
    (-np.inf, "y must be finite, got -inf"),
])
def test_marchenko_omega_non_finite_y_rejected_before_any_work(monkeypatch, y, named):
    ev = one_soliton_evaluator()
    monkeypatch.setattr(linalg, "expm", lambda *a: pytest.fail("expm called"))
    with pytest.raises(SpecValidationError, match=named):
        ev.marchenko_omega(y, 0.0)


def test_negative_t_allowed():
    ev = one_soliton_evaluator()
    assert ev.sample(1.0, -0.5).flag == FLAG_OK
    assert np.isfinite(ev.u_log_det(1.0, -0.5))


def formal_overflow_evaluator():
    # exp(-x A) = e^x I stays finite where exp(-x A) Q exp(-x A) overflows.
    return make_evaluator(Triplet(A=-np.eye(2), B=np.array([1.0, 1.0]),
                                  C=np.array([-2.0, -2.0])))


def test_u_log_det_overflow_gives_nan_without_warning():
    assert np.isnan(formal_overflow_evaluator().u_log_det(354.6, 0.0))


@pytest.mark.parametrize("route, args, named", [
    ("gamma", (354.9, 0.0), "overflow in Gamma"),
    ("marchenko_kernel", (354.9, 355.4, 0.0), "overflow in Gamma"),
    ("marchenko_omega", (354.6, -50.0), "overflow in Omega"),  # E(t) = e^400 I, finite
])
def test_reference_routes_raise_on_overflow_without_warning(route, args, named):
    with pytest.raises(OverflowDetectedError, match=named):
        getattr(formal_overflow_evaluator(), route)(*args)


@pytest.mark.parametrize("route, args, calls", [
    ("u_log_det", (1.0, 0.05), 2),             # exp(-xA) and E(t)
    ("marchenko_kernel", (1.0, 1.5, 0.05), 3),  # plus exp(-yA)
])
def test_reference_routes_build_each_exponential_once(monkeypatch, route, args, calls):
    ev = make_evaluator(build_triplet(helpers.three_block_spec(eta=1.0)))
    want = getattr(ev, route)(*args)
    seen = []
    expm = linalg.expm

    def counted(*a, **kw):
        seen.append(a)
        return expm(*a, **kw)

    monkeypatch.setattr(linalg, "expm", counted)
    assert getattr(ev, route)(*args) == want
    assert len(seen) == calls


def test_concurrent_sampling_is_consistent():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    xs = np.linspace(0.0, 5.0, 11)
    ts = np.linspace(0.0, 1.0, 8)
    serial = sample_grid(ev, xs, ts)

    results = {}

    def worker(idx):
        results[idx] = [ev.sample(x, ts[idx]).u for x in xs]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(ts.size)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for i in range(ts.size):
        assert np.array_equal(np.array(results[i]), serial.u[i]), i


def test_solution_arrays_immutable():
    ev = one_soliton_evaluator()
    grid = sample_grid(ev, [0.0, 1.0], [0.0])
    for arr in (grid.u, grid.det_gamma, grid.flags, grid.x, grid.t, ev.Q, ev.flow):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


@pytest.mark.parametrize("triplet, named", [
    (Triplet(A=np.diag([0.5, 0.7]), B=np.ones(2), C=np.ones(2), eta=1e308),
     r"eta=1e\+308 and max \|A\| = 0\.7$"),                # inf * 0 off the diagonal
    (Triplet(A=np.array([[1e103]]), B=np.ones(1), C=np.ones(1)),
     r"eta=0\.0 and max \|A\| = 1e\+103$"),                # A^3 overflows
    (Triplet(A=np.array([[1.0]]), B=np.ones(1), C=np.ones(1), eta=1e308),
     r"eta=1e\+308 and max \|A\| = 1$"),                    # finite A, infinite flow
], ids=["nan-flow", "cubed-a", "inf-flow"])
def test_non_finite_flow_raises_without_warning(triplet, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecValidationError,
                           match=r"flow 8 A\^3 \+ 2 eta A is not finite for " + named):
            make_evaluator(triplet)
