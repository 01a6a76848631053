"""Verification layer: residual scans, Marchenko checks, positivity."""
from __future__ import annotations

import re

import numpy as np
import pytest

from kdvexact import (
    BoundState,
    FormalModeError,
    OverflowDetectedError,
    ScatteringSpec,
    SpecValidationError,
    Triplet,
    build_triplet,
    linalg,
    make_evaluator,
    realization,
    solution,
    verification,
)
from kdvexact.verification import (
    marchenko_residual,
    omega_quadrature_check,
    pde_residual,
    pde_residual_refinement,
    positivity_scan,
    soliton_equivalence,
)

import helpers


def one_soliton_evaluator(kappa=1.0, c=2.0, eta=0.0):
    return bound_states_evaluator((BoundState(kappa, c),), eta)


def bound_states_evaluator(states, eta=0.0):
    return make_evaluator(build_triplet(ScatteringSpec(bound_states=tuple(states), eta=eta)))


def test_vacuum_residual_is_exactly_zero():
    ev = make_evaluator(Triplet(A=np.diag([1.0, 2.0]), B=np.ones(2), C=np.zeros(2)))
    scan = pde_residual(ev, (0.0, 3.0), (0.0, 1.0))
    assert scan.max_abs == 0.0


def test_one_soliton_residual_off_core():
    # the soliton core itself sits above 1e-6 at h=1e-3 in float64: the
    # third-derivative stencil amplifies u roundoff by ~44 eps|u|/(8 h^3)
    ev = one_soliton_evaluator()
    scan = pde_residual(ev, (2.5, 5.0), (0.02, 0.25), h_x=1e-3)
    assert scan.max_abs <= 1e-6, scan.max_abs
    assert scan.h_t == pytest.approx(0.5e-6, rel=1e-12)  # (2k)^2/(8k^3) * h^2


def test_auto_time_step_from_spectrum():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    scan = pde_residual(ev, (0.5, 1.0), (0.1, 0.2), h_x=1e-3)
    # |lambda| = 1 so rate_x = 2; rate_t = |8 lambda^3 + 2 lambda| = sqrt(52)
    assert scan.h_t == pytest.approx((4.0 / np.sqrt(52.0)) * 1e-6, rel=1e-12)
    assert scan.eta == 1.0


def test_refinement_shows_fourth_order():
    ev = one_soliton_evaluator()
    rep = pde_residual_refinement(ev, (0.0, 5.0), (0.0, 1.0))
    assert rep.fourth_order, rep
    for r in rep.ratios:
        assert 8.0 < r < 32.0, rep.ratios
    for o in rep.orders:
        assert 3.0 < o < 5.0, rep.orders


def test_residual_locality_same_points_same_values(monkeypatch):
    # the u the scan sampled on its stencil nodes is the independent
    # closed form's, and that closed form on the scan's own stencils
    # gives the same residual grid
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    sampled = []
    kernel = solution.GammaEvaluator.evaluate

    def recorded(self, *args, **kwargs):
        sampled.append(kernel(self, *args, **kwargs))
        return sampled[-1]

    monkeypatch.setattr(solution.GammaEvaluator, "evaluate", recorded)
    scan = pde_residual(ev, (0.5, 3.0), (0.1, 0.5), n_x=5, n_t=3, h_x=3.2e-2)
    (grid,) = sampled
    reference = helpers.rotation_u_reference(grid.x[None, :], grid.t[:, None])
    assert np.max(np.abs(grid.u - reference) / (1.0 + np.abs(reference))) <= 1e-13

    def u(o=0, dt=0.0):
        return helpers.rotation_u_reference(scan.x + o * scan.h_x, scan.t[:, None] + dt)

    ux = (u(-2) - 8.0 * u(-1) + 8.0 * u(1) - u(2)) / (12.0 * scan.h_x)
    uxxx = (u(-3) - 8.0 * u(-2) + 13.0 * u(-1) - 13.0 * u(1) + 8.0 * u(2) - u(3)) / (
        8.0 * scan.h_x ** 3)
    ut = (u(dt=scan.h_t) - u(dt=-scan.h_t)) / (2.0 * scan.h_t)
    residual = ut + scan.eta * ux - 6.0 * u() * ux + uxxx
    assert np.max(np.abs(scan.residual - residual)) <= 1e-8


def test_flagged_window_rejected_with_location():
    ev = make_evaluator(helpers.three_block_triplet())
    with pytest.raises(SpecValidationError, match="flagged"):
        pde_residual(ev, (1.5, 4.0), (0.18, 0.2), h_x=1e-3)


def test_window_vanishing_after_clip_rejected():
    ev = one_soliton_evaluator()
    with pytest.raises(SpecValidationError, match="vanishes"):
        pde_residual(ev, (0.0, 0.001), (0.0, 0.5), h_x=1e-3)


def test_pde_residual_rejects_a_callable_before_any_work(monkeypatch):
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    for check in (pde_residual, pde_residual_refinement):
        with pytest.raises(SpecValidationError, match="samples a GammaEvaluator, got function"):
            check(lambda x, t: 0.0, (0.5, 1.0), (0.1, 0.2))


def test_marchenko_residual_one_soliton():
    ev = one_soliton_evaluator()
    for x, y, t in [(0.0, 0.0, 0.0), (0.5, 1.0, 0.1), (1.0, 2.5, 0.0), (0.2, 0.2, 0.3)]:
        assert abs(marchenko_residual(ev, x, y, t)) <= 1e-10, (x, y, t)


def test_marchenko_residual_oscillatory():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    rng = np.random.default_rng(61)
    for _ in range(5):
        x = float(rng.uniform(0.0, 2.5))
        y = float(x + rng.uniform(0.0, 1.5))
        t = float(rng.uniform(0.0, 2.0))
        assert abs(marchenko_residual(ev, x, y, t)) <= 1e-8, (x, y, t)


def test_marchenko_budget_controls_accuracy(monkeypatch):
    ev = make_evaluator(build_triplet(
        ScatteringSpec(bound_states=(BoundState(0.5, 1.0),))))

    def residual(tail_floor):
        monkeypatch.setattr(verification, "MARCHENKO_TAIL_FLOOR", tail_floor)
        return abs(marchenko_residual(ev, 0.5, 1.0, 0.0))

    loose, mid, tight = residual(1e-2), residual(1e-6), residual(1e-14)
    # truncation error tracks the tail cut until quadrature noise wins
    assert loose > 100.0 * mid > 0.0
    assert mid > 100.0 * tight
    assert tight < 1e-12


def test_marchenko_rejects_bad_arguments():
    ev = one_soliton_evaluator()
    with pytest.raises(SpecValidationError):
        marchenko_residual(ev, 1.0, 0.5, 0.0)
    with pytest.raises(SpecValidationError):
        marchenko_residual(ev, -0.5, 1.0, 0.0)
    formal = make_evaluator(Triplet(A=np.array([[-1.0]]),
                                    B=np.array([1.0]), C=np.array([1.0])))
    with pytest.raises(FormalModeError):
        marchenko_residual(formal, 0.0, 1.0, 0.0)


def test_marchenko_rejects_non_finite_t_before_any_work(monkeypatch):
    ev = one_soliton_evaluator()
    forbid(monkeypatch, linalg, "expm")
    with pytest.raises(SpecValidationError, match="got x=0.5, y=1.0, t=nan"):
        marchenko_residual(ev, 0.5, 1.0, np.nan)
    with pytest.raises(SpecValidationError, match="sample 1: got x=0.5, y=1.0, t=inf"):
        marchenko_residual(ev, [0.5, 0.5], [1.0, 1.0], [0.0, np.inf])


def test_omega_quadrature_rotation():
    spec = helpers.rotation_spec(0.5, 0.5, eta=1.0)
    for chk in omega_quadrature_check(spec, [0.5, 1.0, 2.0]):
        assert chk.error <= 1e-6, (chk.y, chk.error)


def test_omega_quadrature_imaginary_pole():
    from kdvexact import ImaginaryPole
    spec = ScatteringSpec(imaginary_poles=(ImaginaryPole(omega=1.2, coefficients=(0.8,)),))
    for chk in omega_quadrature_check(spec, [0.5, 1.5]):
        want = 0.8 * np.exp(-1.2 * chk.y)
        assert abs(chk.reference - want) < 1e-14
        assert chk.error <= 1e-10, (chk.y, chk.error)


def test_omega_quadrature_bound_state_only_is_vacuous():
    spec = ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))
    for chk in omega_quadrature_check(spec, [1.0]):
        assert chk.reference == 0.0
        assert chk.error <= 1e-10


def test_omega_quadrature_with_no_y_returns_an_empty_tuple():
    # the README spec has reflection poles; the bound-state-only spec has none
    for spec in (helpers.three_block_spec(), ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))):
        assert omega_quadrature_check(spec, []) == ()
        assert omega_quadrature_check(spec, np.zeros(0)) == ()


def test_omega_quadrature_rejects_nonpositive_y():
    spec = helpers.rotation_spec(0.5, 0.5)
    with pytest.raises(SpecValidationError):
        omega_quadrature_check(spec, [0.0])
    with pytest.raises(SpecValidationError):
        omega_quadrature_check(spec, [1.0, -2.0])


def test_positivity_certified_window():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    w = positivity_scan(ev, 20.0, 20.0)
    assert w.certified and w.tau_lower == 20.0
    assert w.first_failure is None and w.overflow_frontier is None
    assert w.n_x == 161 and w.n_t == 161


def test_positivity_immediate_blowup():
    ev = make_evaluator(helpers.rotation_triplet(3.0, 0.0, eta=0.0))
    w = positivity_scan(ev, 5.0, 2.0)
    assert not w.certified and w.tau_lower == 0.0
    x0, t0, det0 = w.first_failure
    assert x0 == 0.0 and t0 == 0.0
    assert abs(det0 - (-4.25)) < 1e-12   # 1 - 0.75*9 + 0.5*3


def test_positivity_crossing_bisected():
    trip = Triplet(A=np.array([[1.0]]), B=np.array([1.0]), C=np.array([-1.0]))
    ev = make_evaluator(trip)
    t_star = np.log(2.0) / 8.0   # det(0, t) = 1 - 0.5 exp(8t)
    w = positivity_scan(ev, 2.0, 0.2)
    assert not w.certified
    assert abs(w.tau_lower - t_star) <= 1e-7
    assert w.first_failure[0] == 0.0 and w.first_failure[2] <= 0.0

    wider = positivity_scan(ev, 2.0, 0.5)
    assert abs(wider.tau_lower - w.tau_lower) <= 2e-8


def test_positivity_monotone_when_certified():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    w5 = positivity_scan(ev, 5.0, 5.0)
    w10 = positivity_scan(ev, 5.0, 10.0)
    assert w5.certified and w5.tau_lower == 5.0
    assert w10.certified and w10.tau_lower == 10.0


def test_positivity_overflow_frontier():
    ev = one_soliton_evaluator(kappa=2.0, c=3.0)
    w = positivity_scan(ev, 1.0, 30.0)
    assert not w.certified
    assert w.first_failure is None
    assert w.overflow_frontier == 11.125 and w.tau_lower == 11.0


def test_positivity_rejects_formal_mode():
    formal = make_evaluator(Triplet(A=np.array([[-1.0]]),
                                    B=np.array([1.0]), C=np.array([1.0])))
    with pytest.raises(FormalModeError):
        positivity_scan(formal, 1.0, 1.0)


def forbid(monkeypatch, owner, name):
    """Make owner.name fail the test if anything calls it."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} called before the arguments were checked")
    monkeypatch.setattr(owner, name, called)


@pytest.mark.parametrize("args, named", [
    ((np.nan, 1.0), "x_horizon must be finite and nonnegative, got nan"),
    ((1.0, np.inf), "t_horizon must be finite and nonnegative, got inf"),
], ids=["nan-x-horizon", "inf-t-horizon"])
def test_positivity_rejects_degenerate_arguments_before_any_work(monkeypatch, args, named):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=named):
        positivity_scan(ev, *args)


def test_soliton_equivalence_rejects_empty_grid_before_any_work(monkeypatch):
    ev = one_soliton_evaluator()
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match="n_x must be at least 1, got 0"):
        soliton_equivalence(ev, n_x=0)


def test_pde_residual_rejects_empty_grid_before_any_work(monkeypatch):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match="n_x must be at least 1, got 0"):
        pde_residual(ev, (0.5, 1.0), (0.1, 0.2), n_x=0)


@pytest.mark.parametrize("check, counts, named", [
    (pde_residual, {"n_x": 2.5}, "n_x must be an integer, got 2.5"),
    (pde_residual, {"n_t": 3.0}, "n_t must be an integer, got 3.0"),
    (soliton_equivalence, {"n_x": 2.5}, "n_x must be an integer, got 2.5"),
    (soliton_equivalence, {"n_t": "11"}, "n_t must be an integer, got '11'"),
])
def test_grid_counts_must_be_integers_before_any_work(monkeypatch, check, counts, named):
    ev = bound_states_evaluator((BoundState(0.5, 1.0), BoundState(0.7, 1.5),
                                 BoundState(0.9, 0.8)), eta=1.0)   # three-bound
    windows = ((1.0, 2.0), (0.1, 0.2)) if check is pde_residual else ()
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=f"^{re.escape(named)}$"):
        check(ev, *windows, **counts)
    monkeypatch.undo()
    check(ev, *windows, **{name: np.int64(3) for name in counts})   # numpy integers are integers


@pytest.mark.parametrize("x_window, t_window, named", [
    ((0.5, np.inf), (0.1, 0.2), "x_window bounds must be finite, got inf"),
    ((np.nan, 1.0), (0.1, 0.2), "x_window bounds must be finite, got nan"),
    ((0.5, 1.0), (0.1, np.inf), "t_window bounds must be finite, got inf"),
], ids=["inf-x", "nan-x", "inf-t"])
def test_pde_residual_rejects_non_finite_windows_before_any_work(monkeypatch, x_window,
                                                                 t_window, named):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=named):
        pde_residual(ev, x_window, t_window)


def test_refinement_rejects_non_finite_windows_before_any_work(monkeypatch):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    forbid(monkeypatch, verification, "pde_residual")
    with pytest.raises(SpecValidationError, match="t_window bounds must be finite, got inf"):
        pde_residual_refinement(ev, (0.5, 1.0), (0.1, np.inf))


@pytest.mark.parametrize("windows, named", [
    (((0.0, np.inf), (0.0, 1.0)), "x_window bounds must be finite, got inf"),
    (((0.0, 5.0), (np.nan, 1.0)), "t_window bounds must be finite, got nan"),
], ids=["inf-x", "nan-t"])
def test_soliton_equivalence_rejects_non_finite_windows_before_any_work(monkeypatch, windows,
                                                                        named):
    ev = one_soliton_evaluator()
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=named):
        soliton_equivalence(ev, *windows)


@pytest.mark.parametrize("step", ["h_x"])
@pytest.mark.parametrize("value", [0.0, -1e-3, np.nan], ids=["zero", "negative", "nan"])
def test_pde_residual_rejects_bad_steps_before_any_work(monkeypatch, step, value):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=f"{step} must be finite and > 0, got {value!r}"):
        pde_residual(ev, (0.5, 1.0), (0.1, 0.2), **{step: value})


def test_soliton_equivalence_small_cases():
    one = soliton_equivalence(one_soliton_evaluator())
    assert one.max_deviation <= 1e-12, one

    rng = np.random.default_rng(67)
    kappas = np.sort(rng.uniform(0.2, 2.8, size=3))
    while np.any(np.diff(kappas) < 0.2):
        kappas = np.sort(rng.uniform(0.2, 2.8, size=3))
    states = tuple(BoundState(float(k), float(rng.uniform(0.2, 4.8)))
                   for k in kappas)
    three = soliton_equivalence(bound_states_evaluator(states, float(rng.uniform(0.0, 2.0))))
    assert three.max_deviation <= 1e-10, three


@pytest.mark.parametrize("states, x_window, t_window, match", [
    # Gamma = 1 + (c / 2 kappa) e^{64 t - 4 x} leaves the float range first at t = 11
    ((BoundState(2.0, 1e10),), (0.0, 1.0), (2.0, 12.0),
     "overflow in Gamma or det Gamma at x=0.0, t=11.0"),
    # E(t) = e^{64 t} of the triplet side overflows while det Gamma stays finite
    ((BoundState(2.0, 1e-10),), (1.0, 2.0), (11.0, 11.1),
     "overflow in Gamma or det Gamma at x=1.0, t=11.0925"),
    # det Gamma overflows first at x = 0
    ((BoundState(2.0, 1.0), BoundState(2.1, 1.0), BoundState(2.2, 1.0)), (0.0, 1.0),
     (2.0, 8.0), "overflow in Gamma or det Gamma at x=0.0, t=3.3499999999999996"),
])
def test_batched_soliton_equivalence_raises_at_first_overflow(monkeypatch, states, x_window,
                                                              t_window, match):
    ev = bound_states_evaluator(states)
    forbid(monkeypatch, realization, "_log_tau")
    with pytest.raises(OverflowDetectedError, match=f"^{re.escape(match)}$"):
        soliton_equivalence(ev, x_window, t_window, 5, 41)


def test_soliton_equivalence_caps_the_bound_states_before_any_work(monkeypatch):
    ev = bound_states_evaluator(BoundState(0.3 + 0.1 * i, 1.0) for i in range(13))
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match="at most 12 bound states .*, got 13$"):
        soliton_equivalence(ev)


@pytest.mark.parametrize("triplet, named", [
    (Triplet(A=[[1.0]], B=[1.0], C=[2.0]), "needs a scattering-data document"),
    (build_triplet(helpers.three_block_spec(eta=1.0)), r"bound-states-only spec \(no reflection"),
], ids=["raw-triplet", "reflection-poles"])
def test_soliton_equivalence_rejects_what_tau_cannot_check_before_any_work(monkeypatch, triplet,
                                                                           named):
    ev = make_evaluator(triplet)
    forbid(monkeypatch, solution.GammaEvaluator, "evaluate")
    with pytest.raises(SpecValidationError, match=named):
        soliton_equivalence(ev)


def test_soliton_equivalence_reads_the_spec_of_the_callers_evaluator(monkeypatch):
    ev = bound_states_evaluator((BoundState(0.5, 1.0), BoundState(0.9, 0.8)), eta=1.0)
    forbid(monkeypatch, solution, "make_evaluator")
    forbid(monkeypatch, realization, "build_triplet")
    assert soliton_equivalence(ev).max_deviation <= 1e-10
