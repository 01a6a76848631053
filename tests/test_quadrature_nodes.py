"""Shared quadrature nodes in the Marchenko and Fourier checks."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate

from kdvexact import (BoundState, ComplexPolePair, ImaginaryPole, NumericalError,
                      OverflowDetectedError, ScatteringSpec, SingularMatrixError,
                      SpecValidationError, Triplet, build_triplet, cli, linalg, make_evaluator,
                      realization, verification)
from kdvexact.verification import OMEGA_EPSABS, marchenko_residual, omega_quadrature_check

import helpers

README_TRIPLET = build_triplet(helpers.three_block_spec(eta=1.0))
THREE_BOUND_TRIPLET = build_triplet(ScatteringSpec(
    bound_states=(BoundState(0.5, 1.0), BoundState(0.7, 1.5), BoundState(0.9, 0.8)), eta=1.0))
RAW_TRIPLET = Triplet(A=np.array([[1.0]]), B=np.array([1.0]), C=np.array([2.0]))
DOUBLE_POLE_TRIPLET = build_triplet(ScatteringSpec(
    complex_poles=(ComplexPolePair(alpha=0.8, beta=0.6, coefficients=((0.2, 0.1), (0.05, 0.1))),),
    imaginary_poles=(ImaginaryPole(omega=0.9, coefficients=(0.1, 0.05)),),
    bound_states=(BoundState(1.2, 0.7),), eta=1.0))


def cli_marchenko_samples(box_x: float, box_t: float):
    """The (x, y, t) samples verify draws, in its order, as three arrays: one uniform draw
    at a time, and no t draw when box_t is 0."""
    rng = np.random.default_rng(cli.MARCHENKO_SEED)
    samples = []
    for _ in range(cli.MARCHENKO_SAMPLES):
        x, y = np.sort(rng.uniform(0.0, box_x, size=2))
        samples.append((x, y, rng.uniform(0.0, box_t) if box_t > 0.0 else 0.0))
    return np.array(samples).T


README_DOC = re.search(r"^```json\n(.*?)^```", (Path(__file__).resolve().parents[1] / "README.md")
                       .read_text(encoding="utf-8"), re.M | re.S).group(1)
# det Gamma of the rotation pair falls to 0 near t = 0.2 once eta = 10
SHRINKING_DOC = json.dumps({"eta": 10.0, "complexPoles": [
    {"alpha": 0.8660254037844386, "beta": 0.5, "coeffs": [{"eps": 0.5, "gamma": 0.5}]}]})


@pytest.mark.parametrize("doc, window, box_t_range", [
    (README_DOC, [], (2.0, 2.0)),                       # the default window
    (README_DOC, ["--t", "0:0:1"], (0.0, 0.0)),         # box_t = 0: no t draws
    # the positivity scan cuts t back from 2 to 0.9 times its last positive t
    (SHRINKING_DOC, ["--x", "0:5:6", "--t", "0:2:3"], (0.1, 0.3)),
], ids=["readme", "t-zero", "cut-back"])
def test_verify_draws_the_one_at_a_time_samples(tmp_path, monkeypatch, doc, window, box_t_range):
    seen = []
    residual = verification.marchenko_residual

    def recorded(evaluator, x, y, t):
        seen.append((x, y, t))
        return residual(evaluator, x, y, t)

    monkeypatch.setattr(verification, "marchenko_residual", recorded)
    (tmp_path / "doc.json").write_text(doc)
    argv = ["verify", "--input", str(tmp_path / "doc.json"), "--output", str(tmp_path / "r")]
    cli.main(argv + window)
    report = json.loads((tmp_path / "r").read_text())
    args = cli.build_parser().parse_args(argv + window)
    t_cap = args.t[1]
    if not report["positivityWindow"]["certified"]:
        t_cap = min(t_cap, 0.9 * report["positivityWindow"]["tauLower"])
    box_t = min(3.0, max(t_cap, 0.0))
    assert box_t_range[0] <= box_t <= box_t_range[1]
    (x, y, t), = seen
    for got, want in zip((x, y, t), cli_marchenko_samples(min(3.0, args.x[1]), box_t)):
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()


def counter(monkeypatch, owner, name):
    """Replace owner.name by a pass-through that records its first argument."""
    seen = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        seen.append(args[0] if args else None)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return seen


@pytest.mark.parametrize("triplet, box_t", [
    (build_triplet(helpers.three_block_spec(eta=1.0)), 0.1),  # the README spec
    (helpers.rotation_triplet(0.5, 0.5, eta=1.0), 3.0),
])
def test_marchenko_array_call_matches_scalar_calls(triplet, box_t):
    ev = make_evaluator(triplet)
    x, y, t = cli_marchenko_samples(3.0, box_t)
    scalars = [marchenko_residual(ev, xi, yi, ti) for xi, yi, ti in zip(x, y, t)]
    assert all(type(r) is float for r in scalars)
    batch = marchenko_residual(ev, x, y, t)
    assert isinstance(batch, np.ndarray) and batch.shape == (cli.MARCHENKO_SAMPLES,)
    assert np.max(np.abs(batch - np.array(scalars))) <= 1e-12
    assert np.max(np.abs(batch)) <= 1e-11


@pytest.mark.parametrize("spec", [helpers.three_block_spec(eta=1.0),
                                  helpers.rotation_spec(0.25, 0.75, eta=1.0)])
def test_omega_quadrature_matches_scipy_quad(spec):
    # QUADPACK's QAWF on the cos and sin halves, as an independent oracle
    def r(k):
        return realization.reflection_partial_fractions(spec, k)

    ys = (0.5, 1.0, 2.0)
    for chk, y in zip(omega_quadrature_check(spec, ys), ys):
        cos_half, _ = integrate.quad(lambda k: r(k).real,
                                     0.0, np.inf, weight="cos", wvar=y,
                                     epsabs=OMEGA_EPSABS, limlst=80, limit=200)
        sin_half, _ = integrate.quad(lambda k: r(k).imag,
                                     0.0, np.inf, weight="sin", wvar=y,
                                     epsabs=OMEGA_EPSABS, limlst=80, limit=200)
        assert abs(chk.quadrature - (cos_half - sin_half) / math.pi) <= 1e-12


def test_omega_quadrature_sums_partial_fractions_once_per_round(monkeypatch):
    rounds, sums = [], []
    real_rule, real_sum = verification._gk21, realization._partial_fraction_sum

    def rule(f, lo, hi):
        rounds.append(lo.size)
        return real_rule(f, lo, hi)

    def partial_fraction_sum(terms, k):
        sums.append(np.shape(k))
        return real_sum(terms, k)

    monkeypatch.setattr(verification, "_gk21", rule)
    monkeypatch.setattr(realization, "_partial_fraction_sum", partial_fraction_sum)
    ys = (0.5, 1.0, 2.0)
    omega_quadrature_check(helpers.three_block_spec(eta=1.0), ys)
    # every node of a round, for every (y, cycle) component: max|Re z| = sqrt(3)/2
    # puts one cycle before the averaged ones at each y
    components = len(ys) * (1 + verification.OMEGA_CYCLES)
    assert sums == [(21 * intervals, components) for intervals in rounds]


@pytest.mark.parametrize("ys", [(1.0,), (0.5, 1.0, 2.0, 4.0)])
def test_omega_quadrature_makes_no_reduction_or_solve(monkeypatch, ys):
    reductions = counter(monkeypatch, scipy.linalg, "schur")
    solves = counter(monkeypatch, linalg, "resolvent_apply")
    tables = counter(monkeypatch, realization, "_partial_fraction_terms")
    omega_quadrature_check(helpers.three_block_spec(eta=1.0), ys)
    assert reductions == [] and solves == []
    assert len(tables) == 1


def test_omega_rejects_bad_y_before_any_quadrature(monkeypatch):
    tables = counter(monkeypatch, realization, "_partial_fraction_terms")
    evaluated = counter(monkeypatch, realization, "_partial_fraction_sum")
    quads = counter(monkeypatch, verification, "_adaptive_gk21")
    for bad, named in ((-2.0, "-2.0"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(SpecValidationError, match=named):
            omega_quadrature_check(helpers.rotation_spec(0.5, 0.5), [1.0, bad])
    assert tables == [] and evaluated == [] and quads == []


def omega_reference(spec, y):
    refl = realization.build_reflection_triplet(spec)
    return (refl.C @ scipy.linalg.expm(-y * refl.A) @ refl.B).item()


@pytest.mark.parametrize("spec", [
    # poles far out: the cycles start past the poles' real parts (QUADPACK's QAWF is
    # 1.2e-5 off on alpha = 100 at y = 10 and only warns)
    ScatteringSpec(complex_poles=(ComplexPolePair(alpha=40.0, beta=0.7,
                                                  coefficients=((0.3, 0.2),)),)),
    # a double pair 0.01 off the real axis: a peak of height 1e4 inside one cycle
    ScatteringSpec(complex_poles=(ComplexPolePair(alpha=1.0, beta=0.01,
                                                  coefficients=((0.3, 0.2), (0.1, 0.05))),)),
    # triple poles, a pair and an imaginary one
    ScatteringSpec(complex_poles=(ComplexPolePair(alpha=0.8, beta=0.6, coefficients=(
        (0.2, 0.1), (0.05, 0.1), (0.02, -0.03))),),
        imaginary_poles=(ImaginaryPole(omega=0.9, coefficients=(0.1, 0.05, 0.02)),)),
], ids=["alpha40", "near-axis-double", "triple"])
def test_omega_quadrature_on_hard_poles(spec):
    ys = (0.5, 1.0, 2.0, 10.0)
    for chk, y in zip(omega_quadrature_check(spec, ys), ys):
        assert chk.error <= 1e-12, (y, chk)
        assert abs(chk.quadrature - omega_reference(spec, y)) <= 1e-12, (y, chk)


def test_omega_quadrature_work_is_set_by_real_parts_and_bounded(monkeypatch):
    shapes = []
    real_sum = realization._partial_fraction_sum

    def partial_fraction_sum(terms, k):
        shapes.append(np.shape(k))
        return real_sum(terms, k)

    monkeypatch.setattr(realization, "_partial_fraction_sum", partial_fraction_sum)
    ys = (0.5, 1.0, 2.0)
    # an imaginary pole far out has no real part: only the averaged cycles are taken
    spec = ScatteringSpec(imaginary_poles=(ImaginaryPole(omega=1e7, coefficients=(0.5,)),))
    for chk, y in zip(omega_quadrature_check(spec, ys), ys):
        assert chk.error <= 1e-12 and abs(chk.quadrature - omega_reference(spec, y)) <= 1e-12
    assert {components for _, components in shapes} == {len(ys) * verification.OMEGA_CYCLES}
    # a pair far out would need millions of cycles: refused before any quadrature
    shapes.clear()
    spec = ScatteringSpec(complex_poles=(ComplexPolePair(alpha=1e7, beta=1.0,
                                                         coefficients=((0.5, 0.5),)),))
    with pytest.raises(NumericalError, match="needs 1.1141e[+]07 half-periods .* above 512"):
        omega_quadrature_check(spec, ys)
    assert shapes == []


# the README spec and a pole pair at 100 + i
README_DOC = {"eta": 1.0, "complexPoles": [{"alpha": math.sqrt(3.0) / 2, "beta": 0.5,
                                            "coeffs": [{"eps": 0.5, "gamma": 0.5}]}],
              "boundStates": [{"kappa": 2.0, "c": 3.0}]}
FAR_POLE_DOC = {"eta": 1, "complexPoles": [{"alpha": 100, "beta": 1,
                                            "coeffs": [{"eps": 0.5, "gamma": 0.5}]}]}


def verify_check(tmp_path, doc, name):
    """verify's entry for check name on doc's default windows."""
    src, out = tmp_path / "doc.json", tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    cli.main(["verify", "--input", str(src), "--output", str(out)])
    return {c["name"]: c for c in json.loads(out.read_text())["perCheckStatus"]}[name]


def test_verify_passes_the_fourier_check_on_far_poles(tmp_path):
    check = verify_check(tmp_path, FAR_POLE_DOC, "omegaQuadratureCheck")
    assert check["passed"] and check["measured"] <= 1e-12
    # E(t) underflows at every seeded t, so the Marchenko check has nothing to compare
    check = verify_check(tmp_path, FAR_POLE_DOC, "marchenkoResidual")
    assert not check["passed"] and check["measured"] is None
    assert check["detail"] == ("unsupported: C E(t) underflows to 0 at every sample, "
                               "so nothing was compared")
    far = {"eta": 1, "imagPoles": [{"omega": 1e7, "r": [0.5]}]}
    check = verify_check(tmp_path, far, "omegaQuadratureCheck")
    assert check["passed"] and check["measured"] <= 1e-12
    far = {"eta": 1, "complexPoles": [{"alpha": 1e3, "beta": 1,
                                       "coeffs": [{"eps": 0.5, "gamma": 0.5}]}]}
    check = verify_check(tmp_path, far, "omegaQuadratureCheck")
    assert not check["passed"] and check["measured"] is None
    assert check["detail"] == ("unsupported: Fourier quadrature needs 1260 half-periods "
                               "(poles out to |Re k| = 1000), above 512")


@pytest.mark.parametrize("name, value, message", [
    ("QUAD_LIMIT", 2, "did not converge in 2 subintervals: error estimate"),
    ("OMEGA_AVERAGINGS", 1, "did not settle: last averaging step"),
])
def test_unconverged_fourier_quadrature_is_unsupported(monkeypatch, tmp_path, name, value,
                                                       message):
    monkeypatch.setattr(verification, name, value)
    with pytest.raises(NumericalError, match=message):
        omega_quadrature_check(helpers.three_block_spec(eta=1.0), (0.5, 1.0, 2.0))
    check = verify_check(tmp_path, README_DOC, "omegaQuadratureCheck")
    assert not check["passed"] and check["measured"] is None
    assert check["detail"].startswith("unsupported: ") and message in check["detail"]


def test_fourier_quadrature_stopped_on_rounding_above_tolerance_raises():
    # a double pair 1e-3 off the real axis: |r| reaches about 2e6, so the rule stops on
    # its rounding estimate with an error estimate above OMEGA_EPSABS
    spec = ScatteringSpec(complex_poles=(ComplexPolePair(alpha=1.0, beta=1e-3, coefficients=(
        (0.3, 0.2), (2.0, 1.0))),))
    with pytest.raises(NumericalError, match="error estimate 1.516e-10 above 1.0e-10"):
        omega_quadrature_check(spec, (0.5, 1.0, 2.0))


def test_non_finite_error_estimate_stops_the_quadrature(monkeypatch):
    # the Kronrod sums of r = 4.75e307 leave the float range: the error estimate is NaN
    # after the first round, which used to bisect on to QUAD_LIMIT (200 rounds)
    rounds = counter(monkeypatch, verification, "_gk21")
    spec = ScatteringSpec(imaginary_poles=(ImaginaryPole(omega=2.0, coefficients=(4.75e307,)),))
    with pytest.raises(NumericalError, match=r"^quadrature error estimate nan or its rounding "
                                             r"estimate inf is not finite$"):
        omega_quadrature_check(spec, (0.5, 1.0, 2.0))   # verify's ys
    assert 1 <= len(rounds) <= 2


@pytest.mark.parametrize("x, y, index", [
    ([0.1, 1.0, 0.2], [0.5, 0.5, 0.9], 1),   # x > y
    ([0.1, 0.2, -0.3], [0.5, 0.5, 0.9], 2),  # x < 0
])
def test_marchenko_rejects_bad_sample_before_any_work(monkeypatch, x, y, index):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    exponentials = counter(monkeypatch, linalg, "expm")
    factorizations = counter(monkeypatch, linalg, "lu_factor_stack")
    with pytest.raises(SpecValidationError,
                       match=rf"sample {index}: got x={x[index]!r}, y={y[index]!r}"):
        marchenko_residual(ev, x, y, [0.0, 0.0, 0.0])
    assert exponentials == [] and factorizations == []


@pytest.mark.parametrize("first, error, message", [
    (0, SingularMatrixError, r"singular to working precision \(pivot 9.848e-01\)"),
    (1, OverflowDetectedError, r"^overflow in member 0 of a factored stack$"),
])
def test_marchenko_raises_for_the_first_bad_sample(monkeypatch, first, error, message):
    # the README JSON document's Gamma fails the pivot gate at x = 0, t = 0.5; the
    # other sample is given an infinite E(t). Whichever comes first in sample order
    # raises, as the per-sample factor-and-solve loop did.
    ev = make_evaluator(build_triplet(ScatteringSpec(
        complex_poles=(ComplexPolePair(alpha=math.sqrt(3.0) / 2, beta=0.5,
                                       coefficients=((0.5, 0.5),)),),
        imaginary_poles=(ImaginaryPole(omega=1.2, coefficients=(0.8,)),),
        bound_states=(BoundState(2.0, 3.0),), eta=1.0)))
    order = [0, 1] if first == 0 else [1, 0]
    x, y, t = (np.array(v)[order] for v in ([0.0, 0.1], [0.5, 0.6], [0.5, 0.25]))
    real_expm = linalg.expm

    def expm(m, s=1.0):
        out = real_expm(m, s)
        if m is ev.flow:
            out[order.index(1)] = np.inf
        return out

    monkeypatch.setattr(linalg, "expm", expm)
    with pytest.raises(error, match=message):
        marchenko_residual(ev, x, y, t)


class RoundCounter:
    """A quad_vec workers map that counts its refinement rounds (one map call each)."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, func, iterable):
        self.rounds += 1
        return map(func, iterable)


def quad_vec_marchenko(ev, x, y, t, tail_floor=1e-14):
    """The Marchenko residual as taken before batching, as a reference.

    Per-sample set-up through the evaluator's scalar methods, then one
    scipy quad_vec over s with one exponential per node. Returns the
    residuals, quad_vec's info and its refinement rounds.
    """
    trip = ev.triplet
    b, c = trip.B.reshape(-1), trip.C.reshape(-1)
    rows, weights, direct = [], [], []
    for xi, yi, ti in zip(x, y, t):
        factors = linalg.lu_factor(ev.gamma(xi, ti))
        ce = c @ ev.propagator(ti)
        exa = linalg.expm(trip.A, -xi)
        rows.append(ce @ exa @ linalg.inverse(factors) @ exa)
        weights.append(ce @ linalg.expm(trip.A, -(xi + yi)))
        direct.append(ev.marchenko_kernel(xi, yi, ti) + weights[-1] @ b)
    rows, weights, direct = (np.array(v) for v in (rows, weights, direct))
    mu = ev.diagnostics.spectrum.min_real_part
    start = np.abs((rows @ b) * (weights @ b))
    cut = np.log(np.maximum(start / tail_floor, math.e)) / (2.0 * mu) + 2.0

    def integrand(s):
        v = linalg.expm(trip.A, -s) @ b
        return np.where(s <= cut, -(rows @ v) * (weights @ v), 0.0)

    counter_map = RoundCounter()
    integral, _, info = integrate.quad_vec(
        integrand, 0.0, float(cut.max()), epsabs=1e-12, epsrel=1e-12, norm="max",
        limit=verification.QUAD_LIMIT, full_output=True, workers=counter_map)
    return direct + integral, info, counter_map.rounds


def scale_counts(monkeypatch):
    """Replace linalg.expm by a pass-through recording each call's number of scales."""
    sizes = []
    orig = linalg.expm

    def recorded(m, s=1.0):
        sizes.append(np.size(s))
        return orig(m, s)

    monkeypatch.setattr(linalg, "expm", recorded)
    return sizes


@pytest.mark.parametrize("triplet, box_t", [
    (README_TRIPLET, 0.1),         # the three verify-mixed documents, as verify samples them
    (THREE_BOUND_TRIPLET, 0.1),
    (RAW_TRIPLET, 0.1),
    (helpers.rotation_triplet(0.5, 0.5, eta=1.0), 1.0),
    (DOUBLE_POLE_TRIPLET, 0.1),    # Jordan chains: a double pair and a double imaginary pole
])
def test_batched_quadrature_matches_quad_vec(monkeypatch, triplet, box_t):
    ev = make_evaluator(triplet)
    x, y, t = cli_marchenko_samples(3.0, box_t)
    want, info, rounds = quad_vec_marchenko(ev, x, y, t)
    assert info.success
    sizes = scale_counts(monkeypatch)
    got = marchenko_residual(ev, x, y, t)
    assert np.max(np.abs(got - want)) <= 1e-13
    # two set-up stacks (exp(-xA), exp(-(x+y)A) and exp(-yA) in one, E(t)
    # in the other), then one per round over quad_vec's nodes: the first
    # rule and each refinement round of the same bisection path
    assert sizes[:2] == [3 * x.size, x.size]
    assert len(sizes) == 3 + rounds and sum(sizes[2:]) == info.neval


def test_exponential_calls_do_not_depend_on_the_sample_count(monkeypatch):
    # twelve copies of one sample share its integrand's max norm, so they
    # take its bisection path, and cost its exponential calls
    ev = make_evaluator(README_TRIPLET)
    sizes = scale_counts(monkeypatch)
    for sample in zip(*cli_marchenko_samples(3.0, 0.1)):
        sizes.clear()
        marchenko_residual(ev, *sample)
        one = len(sizes)
        sizes.clear()
        marchenko_residual(ev, *(np.repeat(v, 12) for v in sample))
        assert len(sizes) == one


README_MARCHENKO_SAMPLES = ((0.1, 0.4, 0.0), (0.5, 2.0, 0.05))


def test_unconverged_quadrature_raises(monkeypatch):
    ev = make_evaluator(README_TRIPLET)
    x, y, t = np.array(README_MARCHENKO_SAMPLES).T
    assert np.max(np.abs(marchenko_residual(ev, x, y, t))) <= 1e-12
    monkeypatch.setattr(verification, "QUAD_LIMIT", 2)
    with pytest.raises(NumericalError, match="2 subintervals: error estimate"):
        marchenko_residual(ev, x, y, t)
    for sample in README_MARCHENKO_SAMPLES:
        with pytest.raises(NumericalError, match="error estimate"):
            marchenko_residual(ev, *sample)


def test_unconverged_quadrature_reported_unsupported_by_verify(monkeypatch, tmp_path):
    doc = tmp_path / "readme.json"
    doc.write_text(json.dumps(README_DOC))
    out = tmp_path / "report.json"
    argv = ["verify", "--input", str(doc), "--x", "1.5:4:6", "--t", "0:0.02:3",
            "--output", str(out)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(verification, "QUAD_LIMIT", 2)
    assert cli.main(argv) == 4
    report = json.loads(out.read_text())
    check = {c["name"]: c for c in report["perCheckStatus"]}["marchenkoResidual"]
    assert not check["passed"] and check["measured"] is None
    assert check["detail"].startswith("unsupported: ") and "error estimate" in check["detail"]
    assert report["marchenkoResidualMax"] is None


def test_marchenko_rejects_infinite_y_before_any_work(monkeypatch):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    exponentials = counter(monkeypatch, linalg, "expm")
    with pytest.raises(SpecValidationError, match="sample 1: got x=inf, y=inf"):
        marchenko_residual(ev, [0.1, np.inf], [0.5, np.inf], [0.0, 0.0])
    with pytest.raises(SpecValidationError, match="got x=0.5, y=inf"):
        marchenko_residual(ev, 0.5, np.inf, 0.0)
    assert exponentials == []


@pytest.mark.parametrize("b, status", [
    (2.0, 0),             # converged to tolerance
    (20.0 * math.pi, 2),  # ten periods of sin: stops on the rounding estimate
])
def test_adaptive_rule_takes_quad_vec_path(b, status):
    def f(s):
        return np.stack([np.sin(s), np.exp(-s) * np.cos(3.0 * s)], axis=-1)

    nodes = []

    def recorded(s):
        nodes.append(s.size)
        return f(s)

    got, _ = verification._adaptive_gk21(recorded, b, 1e-12, 1e-12)
    want, _, info = integrate.quad_vec(lambda s: f(np.array([s]))[0], 0.0, b, epsabs=1e-12,
                                       epsrel=1e-12, norm="max", limit=200, full_output=True)
    assert info.status == status
    assert sum(nodes) == info.neval
    assert np.max(np.abs(got - want)) <= 1e-13
