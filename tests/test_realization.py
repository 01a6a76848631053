"""Realization of rational reflection data as matrix triplets."""
from __future__ import annotations

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdvexact import (
    BoundState,
    ComplexPolePair,
    ImaginaryPole,
    ScatteringSpec,
    SingularMatrixError,
    SpecValidationError,
    Triplet,
    build_reflection_triplet,
    build_triplet,
    eval_reflection,
    linalg,
    reflection_partial_fractions,
    omega_quadrature_check,
    realization,
    validate_triplet,
    verification,
)

from kdvexact.documents import parse_input_document
from kdvexact.realization import RESONANCE_TOL

import helpers
from helpers import S3


def test_simple_pair_block_layout():
    trip = build_triplet(helpers.rotation_spec(eps=0.25, gam=0.75))
    assert trip.P == 2
    want_a = np.array([[0.5, S3 / 2], [-S3 / 2, 0.5]])
    assert np.array_equal(trip.A, want_a)
    assert np.array_equal(trip.B, np.array([[0.0], [1.0]]))
    assert np.array_equal(trip.C, np.array([[2 * 0.75, 2 * 0.25]]))


def test_double_pair_block_layout():
    pair = ComplexPolePair(alpha=2.0, beta=3.0,
                           coefficients=((0.1, 0.2), (0.3, 0.4)))
    spec = ScatteringSpec(complex_poles=(pair,))
    trip = build_triplet(spec)
    assert trip.P == 4
    lam = np.array([[3.0, 2.0], [-2.0, 3.0]])
    want_a = np.zeros((4, 4))
    want_a[0:2, 0:2] = lam
    want_a[2:4, 2:4] = lam
    want_a[0:2, 2:4] = -np.eye(2)
    assert np.array_equal(trip.A, want_a)
    assert np.array_equal(trip.B.ravel(), [0.0, 0.0, 0.0, 1.0])
    # order-2 coefficient pair leads, order-1 trails
    assert np.array_equal(trip.C.ravel(), [2 * 0.4, 2 * 0.3, 2 * 0.2, 2 * 0.1])


def test_imaginary_pole_block_layout():
    pole = ImaginaryPole(omega=1.5, coefficients=(0.7, -0.2, 0.9))
    trip = build_triplet(ScatteringSpec(imaginary_poles=(pole,)))
    want_a = np.array([[1.5, -1.0, 0.0], [0.0, 1.5, -1.0], [0.0, 0.0, 1.5]])
    assert np.array_equal(trip.A, want_a)
    assert np.array_equal(trip.B.ravel(), [0.0, 0.0, 1.0])
    assert np.array_equal(trip.C.ravel(), [0.9, -0.2, 0.7])


def test_bound_state_blocks():
    spec = ScatteringSpec(bound_states=(BoundState(2.0, 3.0), BoundState(0.5, 1.0)))
    trip = build_triplet(spec)
    # canonical order sorts by kappa
    assert np.array_equal(trip.A, np.diag([0.5, 2.0]))
    assert np.array_equal(trip.B.ravel(), [1.0, 1.0])
    assert np.array_equal(trip.C.ravel(), [1.0, 3.0])


def test_three_block_assembly():
    trip = build_triplet(helpers.three_block_spec())
    ref = helpers.three_block_triplet()
    assert trip.P == 3
    assert trip.A[2, 2] == 2.0
    want_a = np.array([[0.5, S3 / 2, 0.0], [-S3 / 2, 0.5, 0.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(trip.A, want_a)
    # the rotation block is the transpose of ref.A; B and the [2*gam, 2*eps]
    # layout of C coincide, and det Gamma matches the reference family at
    # coefficients (eps, -gam)
    assert np.array_equal(trip.B, ref.B)
    assert np.array_equal(trip.C, ref.C)
    assert trip.eta == 1.0


def test_only_build_triplet_keeps_the_spec():
    spec = helpers.three_block_spec()
    trip = build_triplet(spec)
    assert trip.spec is spec
    raw = parse_input_document({"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [2.0]}})
    assert isinstance(raw, Triplet) and raw.spec is None
    assert build_reflection_triplet(spec).spec is None
    # an eta changed after the build must never reach the spec's tau
    assert dataclasses.replace(trip, eta=2.0).spec is None


def test_block_order_is_canonical():
    p1 = ComplexPolePair(alpha=1.0, beta=2.0, coefficients=((0.1, 0.1),))
    p2 = ComplexPolePair(alpha=1.0, beta=0.5, coefficients=((0.2, 0.2),))
    s_a = ScatteringSpec(complex_poles=(p1, p2))
    s_b = ScatteringSpec(complex_poles=(p2, p1))
    assert np.array_equal(build_triplet(s_a).A, build_triplet(s_b).A)
    assert np.array_equal(build_triplet(s_a).C, build_triplet(s_b).C)
    assert s_a.complex_poles[0].beta == 0.5


def test_duplicate_and_empty_specs_rejected():
    with pytest.raises(SpecValidationError, match=r"^duplicate bound state at kappa=1\.0$"):
        ScatteringSpec(bound_states=(BoundState(1.0, 1.0), BoundState(1.0, 2.0)))
    with pytest.raises(SpecValidationError, match=r"^empty scattering data: need at least one "
                                                  r"pole or bound state$"):
        ScatteringSpec()
    with pytest.raises(SpecValidationError, match=r"^duplicate imaginary pole at omega=1\.0$"):
        ScatteringSpec(imaginary_poles=(ImaginaryPole(1.0, (1.0,)),
                                        ImaginaryPole(1.0, (2.0,))))
    with pytest.raises(SpecValidationError,
                       match=r"^duplicate complex pole pair at alpha=2\.0, beta=1\.0$"):
        ScatteringSpec(complex_poles=(ComplexPolePair(2.0, 1.0, ((1.0, 0.0),)),
                                      ComplexPolePair(1.0, 1.0, ((1.0, 0.0),)),
                                      ComplexPolePair(2.0, 1.0, ((0.0, 1.0),))),
                       bound_states=(BoundState(1.0, 1.0), BoundState(1.0, 2.0)))


def test_parameter_positivity_enforced():
    with pytest.raises(SpecValidationError):
        ComplexPolePair(alpha=0.0, beta=1.0, coefficients=((1.0, 0.0),))
    with pytest.raises(SpecValidationError):
        ComplexPolePair(alpha=1.0, beta=-0.5, coefficients=((1.0, 0.0),))
    with pytest.raises(SpecValidationError):
        ImaginaryPole(omega=-1.0, coefficients=(1.0,))
    with pytest.raises(SpecValidationError):
        BoundState(kappa=0.0, c=1.0)
    with pytest.raises(SpecValidationError):
        BoundState(kappa=1.0, c=-2.0)
    with pytest.raises(SpecValidationError):
        ScatteringSpec(bound_states=(BoundState(1.0, 1.0),), eta=-4.0)


def test_matrix_dimension_bookkeeping():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n_cp = int(rng.integers(0, 3))
        n_ip = int(rng.integers(0, 3))
        n_bs = int(rng.integers(0, 4))
        if n_cp + n_ip + n_bs == 0:
            n_bs = 1
        cps = tuple(ComplexPolePair(alpha=float(rng.uniform(0.5, 2) + 2 * i),
                                    beta=float(rng.uniform(0.5, 2)),
                                    coefficients=tuple(
                                        (float(rng.normal()), float(rng.normal()))
                                        for _ in range(int(rng.integers(1, 4)))))
                    for i in range(n_cp))
        ips = tuple(ImaginaryPole(omega=float(rng.uniform(0.5, 1) + i),
                                  coefficients=tuple(float(rng.normal())
                                                     for _ in range(int(rng.integers(1, 4)))))
                    for i in range(n_ip))
        bss = tuple(BoundState(kappa=0.3 + 0.4 * i, c=float(rng.uniform(0.5, 2)))
                    for i in range(n_bs))
        spec = ScatteringSpec(complex_poles=cps, imaginary_poles=ips, bound_states=bss)
        want = (sum(2 * p.multiplicity for p in cps)
                + sum(p.multiplicity for p in ips) + n_bs)
        assert spec.matrix_dimension == want
        trip = build_triplet(spec)
        assert trip.P == want
        assert trip.B.shape == (want, 1) and trip.C.shape == (1, want)


def test_spectrum_matches_pole_data():
    pair = ComplexPolePair(alpha=1.25, beta=0.75, coefficients=((0.1, 0.2), (0.0, 0.1)))
    pole = ImaginaryPole(omega=1.9, coefficients=(0.5, 0.3))
    spec = ScatteringSpec(complex_poles=(pair,), imaginary_poles=(pole,),
                          bound_states=(BoundState(0.6, 1.0),))
    trip = build_triplet(spec)
    diag = validate_triplet(trip)
    got = np.sort_complex(diag.spectrum.eigenvalues)
    want = np.sort_complex(np.array(
        [0.75 + 1.25j, 0.75 - 1.25j, 0.75 + 1.25j, 0.75 - 1.25j,
         1.9, 1.9, 0.6], dtype=complex))
    # repeated eigenvalues of the defective blocks scatter by ~eps^(1/m)
    assert np.max(np.abs(got - want)) < 1e-4
    assert diag.valid and not diag.formal_mode


def test_reflection_round_trip_random_specs():
    rng = np.random.default_rng(37)
    for _ in range(6):
        spec = helpers.random_calm_spec(rng)
        refl = build_reflection_triplet(spec)
        for k in rng.uniform(-8, 8, size=12):
            got = eval_reflection(refl, complex(k))
            want = reflection_partial_fractions(spec, complex(k))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (spec, k)


_seeds = st.integers(0, 2 ** 32 - 1)
_reflection_specs = st.one_of(
    st.builds(helpers.rotation_spec, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.just(helpers.three_block_spec()),
    _seeds.map(lambda seed: helpers.random_calm_spec(np.random.default_rng(seed))),
    _seeds.map(lambda seed: helpers.random_rational_spec(np.random.default_rng(seed))).filter(
        lambda spec: max(p.multiplicity
                         for p in spec.complex_poles + spec.imaginary_poles) == 3))


def omega_nodes(spec):
    """(terms, k, r) for each partial-fraction sum omega_quadrature_check takes.

    Its quadrature is replaced by one evaluation of the integrand on 21
    points of [0, 1], so any spec takes one round.
    """
    calls = []
    real_sum = realization._partial_fraction_sum

    def recorded(terms, k):
        calls.append((terms, k, real_sum(terms, k)))
        return calls[-1][2]

    def one_round(f, b, **kwargs):
        return 0.0 * f(np.linspace(0.0, b, 21))[0], 0.0

    with mock.patch.object(realization, "_partial_fraction_sum", recorded), \
            mock.patch.object(verification, "_adaptive_gk21", one_round):
        omega_quadrature_check(spec, (1.0,))
    return calls


@settings(max_examples=60, deadline=None)
@given(spec=_reflection_specs, ks=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8))
# subnormal draws: the two routes differ by one ulp (5e-324), a 100 % relative error
@example(spec=helpers.rotation_spec(5e-324, 0.0), ks=[0.0])
@example(spec=helpers.rotation_spec(0.0, 2.2250738585e-313), ks=[48.0])
def test_partial_fractions_match_realization_and_omega_integrand(spec, ks):
    refl = build_reflection_triplet(spec)
    for k in ks:
        want = reflection_partial_fractions(spec, k)
        got = eval_reflection(refl, k)
        # floored at the smallest normal double: below it a relative bound asks for more
        # digits than a subnormal has
        bound = max(1e-12 * max(abs(got), abs(want)), np.finfo(float).tiny)
        assert abs(got - want) <= bound, (spec, k)
    # the Fourier check integrates the spec's own partial fractions, the pole table
    # reflection_partial_fractions sums, on its whole node array; its values match
    # scalar reflection_partial_fractions calls up to rounding (scalar complex
    # arithmetic differs from numpy's in the last bit)
    terms = realization._partial_fraction_terms(spec)
    calls = omega_nodes(spec)
    assert len(calls) == (1 if terms else 0)   # no reflection data: no quadrature
    for used, k, r in calls:
        assert used == terms and np.isrealobj(k) and np.min(k) == 0.0
        want = np.array([[reflection_partial_fractions(spec, kk) for kk in row] for row in k])
        assert r.shape == want.shape
        bound = max(1e-13 * float(np.max(np.abs(want))), np.finfo(float).tiny)
        assert float(np.max(np.abs(r - want))) <= bound, spec


_RATE = st.floats(0.05, 3.0)
_COEFF = st.floats(-2.0, 2.0)

# 0-3 simple pairs, 0-2 simple imaginary poles and 0-3 bound states (norming
# constants in [0.05, 2]), at least one block in all
_simple_pole_specs = st.tuples(
    st.lists(st.builds(ComplexPolePair, _RATE, _RATE, st.tuples(st.tuples(_COEFF, _COEFF))),
             max_size=3, unique_by=lambda p: (p.beta, p.alpha)),
    st.lists(st.builds(ImaginaryPole, _RATE, st.tuples(_COEFF)),
             max_size=2, unique_by=lambda p: p.omega),
    st.lists(st.builds(BoundState, _RATE, st.floats(0.05, 2.0)),
             max_size=3, unique_by=lambda s: s.kappa),
).filter(any).map(lambda blocks: ScatteringSpec(*blocks))


@settings(max_examples=60, deadline=None)
@given(spec=_simple_pole_specs)
def test_simple_pole_term_map_matches_the_realization(spec):
    """C e^{-yA} B of build_triplet is sum_j rho_j e^{-lambda_j y} with the (lambda, rho) of
    the simple-pole tau oracle (3.6e-16 at most over 300 specs when this was written)."""
    trip = build_triplet(spec)
    lam, rho = (np.array(v) for v in helpers.simple_pole_lambda_rho(spec))
    ys = np.linspace(0.0, 5.0, 11)
    for y, e in zip(ys, linalg.expm(trip.A, -ys)):
        terms = rho * np.exp(-lam * y)
        got = (trip.C @ e @ trip.B).item()
        assert abs(got - terms.sum()) <= 1e-12 * max(1.0, np.sum(np.abs(terms))), (spec, y)


def test_reflection_reality_symmetry():
    rng = np.random.default_rng(41)
    spec = ScatteringSpec(
        complex_poles=(ComplexPolePair(1.1, 0.6, ((0.3, 0.4), (0.1, -0.2))),),
        imaginary_poles=(ImaginaryPole(0.9, (0.8,)),))
    refl = build_reflection_triplet(spec)
    for _ in range(10):
        k = complex(rng.uniform(-4, 4), rng.uniform(-0.3, 0.3))
        left = eval_reflection(refl, -np.conj(k))
        right = np.conj(eval_reflection(refl, k))
        assert abs(left - right) < 1e-12 * max(1.0, abs(right))


def test_reflection_decay_at_large_k():
    refl = build_reflection_triplet(helpers.rotation_spec(0.5, 0.5))
    r1 = abs(eval_reflection(refl, 200.0 + 0j))
    r2 = abs(eval_reflection(refl, 2000.0 + 0j))
    assert abs(r2 / r1 - 0.1) < 0.01


def test_reflection_values_at_origin():
    eps, gam = 0.5, 0.5
    raw = helpers.rotation_triplet(eps, gam)
    assert abs(eval_reflection(raw, 0j) - (eps + S3 * gam)) < 1e-14

    spec = helpers.rotation_spec(eps, gam)
    built = build_reflection_triplet(spec)
    want = reflection_partial_fractions(spec, 0j)
    assert abs(eval_reflection(built, 0j) - want) < 1e-14
    assert abs(want - (eps - S3 * gam)) < 1e-14


def test_reflection_pole_proximity():
    spec = helpers.rotation_spec(0.5, 0.5)
    refl = build_reflection_triplet(spec)
    with pytest.raises(SingularMatrixError):
        eval_reflection(refl, S3 / 2 + 0.5j)
    near = eval_reflection(refl, S3 / 2 + 1e-3 + 0.5j)
    assert abs(near) > 100.0


def test_both_reflection_routes_raise_singular_at_a_pole():
    # the README spec's pair has poles at +-sqrt(3)/2 + i/2; the partial-fraction sum
    # divided by zero there, where the resolvent route's pivot gate fires
    spec = helpers.three_block_spec()
    refl = build_reflection_triplet(spec)
    for k in (complex(S3 / 2, 0.5), complex(-S3 / 2, 0.5)):
        with pytest.raises(SingularMatrixError,
                           match=f"^reflection_partial_fractions: k = {re.escape(str(k))} is a "
                                 r"pole to working precision \(distance 0\.000e\+00\)$"):
            reflection_partial_fractions(spec, k)
        with pytest.raises(SingularMatrixError):
            eval_reflection(refl, k)
        near = k + 1e-9
        assert reflection_partial_fractions(spec, near) == pytest.approx(
            eval_reflection(refl, near), rel=1e-6)


@pytest.mark.parametrize("delta", [0.0, 1e-15, 1e-14, 1e-13, 1e-12])
def test_reflection_routes_agree_on_raising_next_to_a_pole(delta):
    # both routes take the pivot gate relative to the largest distance: at the README
    # spec's poles they raise up to 1e-14 away and return from 1e-13, in every direction
    spec = helpers.three_block_spec()
    refl = build_reflection_triplet(spec)
    for pole in (complex(S3 / 2, 0.5), complex(-S3 / 2, 0.5)):
        for k in (pole + delta, pole - delta, pole + 1j * delta, pole - 1j * delta):
            outcomes = []
            for route, arg in ((reflection_partial_fractions, spec), (eval_reflection, refl)):
                try:
                    outcomes.append(route(arg, k))
                except SingularMatrixError:
                    outcomes.append(None)
            pf, resolvent = outcomes
            assert (pf is None) == (resolvent is None) == (delta <= 1e-14), (k, outcomes)
            if pf is not None:   # |r| ~ 1 / delta: the routes differ by the resolvent's rounding
                assert pf == pytest.approx(resolvent, rel=1e-2)


def test_bound_state_only_reflection_is_zero():
    spec = ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))
    assert spec.is_bound_state_only and not spec.has_reflection
    refl = build_reflection_triplet(spec)
    assert refl.P == 0
    assert eval_reflection(refl, 1.3 + 0.2j) == 0j


def test_validate_triplet_modes():
    ok = validate_triplet(helpers.rotation_triplet(0.5, 0.5))
    assert ok.valid and ok.lyapunov_solvable and not ok.formal_mode
    assert abs(ok.spectrum.min_real_part - 0.5) < 1e-15

    formal = validate_triplet(Triplet(A=np.array([[-1.0]]),
                                      B=np.array([1.0]), C=np.array([1.0])))
    assert formal.formal_mode and formal.lyapunov_solvable
    assert not formal.valid

    resonant = validate_triplet(Triplet(A=np.diag([1.0, -1.0]),
                                        B=np.ones(2), C=np.ones(2)))
    assert resonant.resonant_pairs and not resonant.lyapunov_solvable
    assert not resonant.valid


def test_resonant_pairs_match_pairwise_loop():
    # a rotation block (eigenvalues +-i), a zero eigenvalue and several
    # opposite pairs, one of them off by 1e-12
    a = np.zeros((8, 8))
    a[:6, :6] = np.diag([1.0, -1.0, 0.0, 2.0, -2.0, 1.0 + 1e-12])
    a[6:, 6:] = [[0.0, 1.0], [-1.0, 0.0]]
    diag = validate_triplet(Triplet(A=a, B=np.ones(8), C=np.ones(8)))
    vals = diag.spectrum.eigenvalues
    scale = max(1.0, float(np.max(np.abs(vals))))
    want = [(i, j, float(abs(vals[i] + vals[j])))
            for i in range(len(vals)) for j in range(i, len(vals))
            if abs(vals[i] + vals[j]) < RESONANCE_TOL * scale]
    assert len(want) == 5
    assert list(diag.resonant_pairs) == want
    assert all(type(i) is int and type(j) is int for i, j, _ in diag.resonant_pairs)


# (A, B, C, eta, message) of each Triplet check, in the order the checks run
TRIPLET_FAULTS = [
    ([1.0, 2.0], [1.0], [1.0], 0.0, "A: expected a 2-D array, got ndim=1"),
    ([[np.nan]], [1.0], [1.0], 0.0, "A: entries must be finite"),
    ([[np.inf, 0.0]], [1.0], [1.0], 0.0, "A: entries must be finite"),
    (np.ones((2, 3)), np.ones(2), np.ones(2), 0.0, "A must be square, got shape (2, 3)"),
    (np.eye(2), np.ones(3), np.ones(2), 0.0, "B must have 2 entries, got (3,)"),
    (np.eye(2), np.ones(2), np.ones(1), 0.0, "C must have 2 entries, got (1,)"),
    (np.eye(2), np.ones(3), np.ones(1), 0.0, "B must have 2 entries, got (3,)"),
    (np.eye(2), [1.0, np.nan], np.ones(3), 0.0, "C must have 2 entries, got (3,)"),
    (np.eye(2), np.ones(2), [[np.inf, 0.0]], 0.0, "B and C entries must be finite"),
    (np.eye(1), np.ones(1), np.ones(1), float("inf"), "eta must be finite, got inf"),
    (np.eye(1), [np.nan], np.ones(1), -1.0, "B and C entries must be finite"),
    (np.eye(1), np.ones(1), np.ones(1), -1.0, "eta must be nonnegative, got -1.0"),
]


def test_triplet_shape_and_finiteness_checks():
    for a, b, c, eta, message in TRIPLET_FAULTS:
        with pytest.raises(SpecValidationError, match=f"^{re.escape(message)}$"):
            Triplet(A=a, B=b, C=c, eta=eta)
    m = Triplet(A=[[1, 2], [3, 4]], B=[1, 0], C=[0, 1])
    assert m.A.dtype == np.float64 and m.A.shape == (2, 2) and m.A.flags.c_contiguous
    assert m.B.shape == (2, 1) and m.C.shape == (1, 2)
    trip = helpers.rotation_triplet(0.5, 0.5)
    with pytest.raises(ValueError):
        trip.A[0, 0] = 9.0
