"""Verification layer: residual scans, Marchenko checks, positivity."""
from __future__ import annotations

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
    n_soliton_gamma_direct,
)
from kdvexact.verification import (
    CheckResult,
    SolitonEquivalence,
    VerificationReport,
    marchenko_residual,
    omega_quadrature_check,
    pde_residual,
    pde_residual_refinement,
    positivity_scan,
    soliton_equivalence,
)

import helpers


def one_soliton_evaluator(kappa=1.0, c=2.0, eta=0.0):
    spec = ScatteringSpec(bound_states=(BoundState(kappa, c),), eta=eta)
    return make_evaluator(build_triplet(spec))


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


def test_residual_locality_same_points_same_values():
    # the evaluator route and an independent closed-form callable must
    # produce the same residual grid when forced onto identical stencils
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    h = 3.2e-2
    ht = (4.0 / np.sqrt(52.0)) * h * h
    a = pde_residual(ev, (0.5, 3.0), (0.1, 0.5), n_x=5, n_t=3, h_x=h, h_t=ht)
    b = pde_residual(helpers.rotation_u_reference, (0.5, 3.0), (0.1, 0.5),
                     n_x=5, n_t=3, h_x=h, h_t=ht, eta=1.0)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)
    assert np.max(np.abs(a.residual - b.residual)) <= 1e-8


def test_flagged_window_rejected_with_location():
    ev = make_evaluator(helpers.three_block_triplet())
    with pytest.raises(SpecValidationError, match="flagged"):
        pde_residual(ev, (1.5, 4.0), (0.18, 0.2), h_x=1e-3)


def test_window_vanishing_after_clip_rejected():
    ev = one_soliton_evaluator()
    with pytest.raises(SpecValidationError, match="vanishes"):
        pde_residual(ev, (0.0, 0.001), (0.0, 0.5), h_x=1e-3)


def test_bare_callable_requires_eta():
    with pytest.raises(SpecValidationError):
        pde_residual(lambda x, t: 0.0, (0.0, 1.0), (0.0, 1.0))


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


def test_marchenko_budget_controls_accuracy():
    ev = make_evaluator(build_triplet(
        ScatteringSpec(bound_states=(BoundState(0.5, 1.0),))))
    loose = abs(marchenko_residual(ev, 0.5, 1.0, 0.0, tail_floor=1e-2))
    mid = abs(marchenko_residual(ev, 0.5, 1.0, 0.0, tail_floor=1e-6))
    tight = abs(marchenko_residual(ev, 0.5, 1.0, 0.0, tail_floor=1e-14))
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


def test_omega_quadrature_rejects_nonpositive_y():
    spec = helpers.rotation_spec(0.5, 0.5)
    with pytest.raises(SpecValidationError):
        omega_quadrature_check(spec, [0.0])
    with pytest.raises(SpecValidationError):
        omega_quadrature_check(spec, [1.0, -2.0])


def test_positivity_certified_window():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    w = positivity_scan(ev, 20.0, 20.0, samples_per_unit=4.0)
    assert w.certified and w.tau_lower == 20.0
    assert w.first_failure is None and w.overflow_frontier is None
    assert w.n_x == 81 and w.n_t == 81


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
    w = positivity_scan(ev, 2.0, 0.2, samples_per_unit=8.0)
    assert not w.certified
    assert abs(w.tau_lower - t_star) <= 1e-7
    assert w.first_failure[0] == 0.0 and w.first_failure[2] <= 0.0

    wider = positivity_scan(ev, 2.0, 0.5, samples_per_unit=8.0)
    assert abs(wider.tau_lower - w.tau_lower) <= 2e-8


def test_positivity_monotone_when_certified():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    w5 = positivity_scan(ev, 5.0, 5.0)
    w10 = positivity_scan(ev, 5.0, 10.0)
    assert w5.certified and w5.tau_lower == 5.0
    assert w10.certified and w10.tau_lower == 10.0


def test_positivity_overflow_frontier():
    ev = one_soliton_evaluator(kappa=2.0, c=3.0)
    w = positivity_scan(ev, 1.0, 30.0, samples_per_unit=2.0)
    assert not w.certified
    assert w.first_failure is None
    assert w.overflow_frontier == 11.5 and w.tau_lower == 11.0


def test_positivity_rejects_formal_mode():
    formal = make_evaluator(Triplet(A=np.array([[-1.0]]),
                                    B=np.array([1.0]), C=np.array([1.0])))
    with pytest.raises(FormalModeError):
        positivity_scan(formal, 1.0, 1.0)


def test_soliton_equivalence_small_cases():
    one = soliton_equivalence((BoundState(1.0, 2.0),))
    assert one.max_deviation <= 1e-12, one

    with pytest.raises(SpecValidationError):
        soliton_equivalence((BoundState(1.0, 1.0), BoundState(1.0, 2.0)))

    rng = np.random.default_rng(67)
    kappas = np.sort(rng.uniform(0.2, 2.8, size=3))
    while np.any(np.diff(kappas) < 0.2):
        kappas = np.sort(rng.uniform(0.2, 2.8, size=3))
    states = tuple(BoundState(float(k), float(rng.uniform(0.2, 4.8)))
                   for k in kappas)
    three = soliton_equivalence(states, eta=float(rng.uniform(0.0, 2.0)))
    assert three.max_deviation <= 1e-10, three


def test_check_result_formatting():
    ok = CheckResult(name="pde-residual", passed=True, measured=3.2e-7,
                     threshold=1e-5, detail="11 x 5 grid")
    line = ok.line()
    assert line.startswith("PASS pde-residual:") and "11 x 5 grid" in line
    bad = CheckResult(name="positivity", passed=False, measured=-1.0, threshold=0.0)
    report = VerificationReport(checks=(ok, bad))
    assert not report.passed
    assert report.lines()[1].startswith("FAIL positivity:")


def soliton_equivalence_per_point(bound_states, eta, x_window, t_window, n_x, n_t):
    """soliton_equivalence as the per-point loop it was before batching.

    Each determinant is numpy's det of one member, so the values match
    the batched route bit for bit and only the looping differs.
    """
    spec = ScatteringSpec(bound_states=tuple(bound_states), eta=eta)
    ev = make_evaluator(build_triplet(spec))
    xs = np.linspace(float(x_window[0]), float(x_window[1]), n_x)
    ts = np.linspace(float(t_window[0]), float(t_window[1]), n_t)
    triplet_side = ev.evaluate(xs, ts, with_u=False)
    worst = 0.0
    worst_point = (float(xs[0]), float(ts[0]))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            direct = n_soliton_gamma_direct(spec.bound_states, eta, x, t)
            with np.errstate(over="ignore"):
                det_direct = float(np.linalg.det(direct))
            if not np.isfinite(det_direct):
                linalg.determinant(linalg.lu_factor(direct))
            if triplet_side.overflow[i, j]:
                raise triplet_side.overflow_error(i, j)
            det_triplet = float(triplet_side.det_gamma[i, j])
            dev = abs(det_triplet - det_direct) / (1.0 + abs(det_direct))
            if dev > worst:
                worst = dev
                worst_point = (float(x), float(t))
    return SolitonEquivalence(max_deviation=worst, worst_point=worst_point, n_x=n_x, n_t=n_t)


@pytest.mark.parametrize("seed", range(6))
def test_batched_soliton_equivalence_matches_per_point_loop(seed):
    rng = np.random.default_rng(seed)
    spec = helpers.random_calm_spec(rng)
    windows = ((0.0, 5.0), (0.0, 1.0)) if seed % 2 else ((0.5, 8.0), (0.2, 3.0))
    args = (spec.bound_states, spec.eta) + windows + (13, 7)
    assert soliton_equivalence(*args) == soliton_equivalence_per_point(*args)


@pytest.mark.parametrize("states, x_window, t_window, match", [
    # the direct matrix overflows first, at x = 0 of the first bad row
    ((BoundState(2.0, 1e10),), (0.0, 1.0), (2.0, 12.0),
     "n-soliton exponentials overflowed at x=0.0"),
    # from x = 1 on, E(t) of the triplet side overflows before the direct matrix
    ((BoundState(2.0, 1e-10),), (1.0, 2.0), (11.0, 11.2),
     "overflow in Gamma or det Gamma at x=1.0"),
    # three finite direct entries whose determinant overflows
    ((BoundState(2.0, 1.0), BoundState(2.1, 1.0), BoundState(2.2, 1.0)), (0.0, 1.0),
     (2.0, 12.0), "determinant overflow"),
])
def test_batched_soliton_equivalence_raises_at_first_overflow(states, x_window, t_window,
                                                              match):
    args = (states, 0.0, x_window, t_window, 5, 41)
    with pytest.raises(OverflowDetectedError, match=match) as batched:
        soliton_equivalence(*args)
    with pytest.raises(OverflowDetectedError) as per_point:
        soliton_equivalence_per_point(*args)
    assert str(batched.value) == str(per_point.value)


def test_n_soliton_gamma_direct_broadcasts_bit_for_bit():
    states = (BoundState(0.5, 1.0), BoundState(0.8, 2.0), BoundState(1.1, 0.3))
    xs = np.linspace(0.0, 4.0, 9)
    ts = np.linspace(0.0, 1.0, 5)
    stack = n_soliton_gamma_direct(states, 2.0, xs, ts[:, None])
    assert stack.shape == (5, 9, 3, 3)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert np.array_equal(stack[i, j], n_soliton_gamma_direct(states, 2.0, x, t))
    with pytest.raises(OverflowDetectedError, match="x=0.5, t=300.0"):
        n_soliton_gamma_direct(states, 0.0, [1.0, 0.5, 0.0], [0.0, 300.0, 300.0])
