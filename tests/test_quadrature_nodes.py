"""Shared quadrature nodes in the Marchenko and Fourier checks."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy import integrate

from kdvexact import (BoundState, ComplexPolePair, ImaginaryPole, NumericalError, ScatteringSpec,
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
    """The (x, y, t) samples verify draws, in its order, as three arrays."""
    rng = np.random.default_rng(cli.MARCHENKO_SEED)
    samples = []
    for _ in range(cli.MARCHENKO_SAMPLES):
        x, y = np.sort(rng.uniform(0.0, box_x, size=2))
        samples.append((x, y, rng.uniform(0.0, box_t)))
    return np.array(samples).T


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
def test_omega_quadrature_bit_identical_to_uncached_quadrature(spec):
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
        assert chk.quadrature == (cos_half - sin_half) / math.pi


def test_omega_quadrature_evaluates_each_distinct_node_once(monkeypatch):
    nodes = []
    real_quad = integrate.quad

    def recording_quad(func, *args, **kwargs):
        def recorded(k):
            nodes.append(k)
            return func(k)
        return real_quad(recorded, *args, **kwargs)

    monkeypatch.setattr(integrate, "quad", recording_quad)
    evaluated = counter(monkeypatch, realization, "_partial_fraction_sum")
    omega_quadrature_check(helpers.three_block_spec(eta=1.0), (0.5, 1.0, 2.0))
    assert len(evaluated) == len(set(nodes))
    assert len(nodes) > len(evaluated)  # the cos and sin halves shared nodes


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
    quads = counter(monkeypatch, integrate, "quad")
    # a non-finite y must not reach scipy's QAWF, which crashes the interpreter on it
    for bad, named in ((-2.0, "-2.0"), (math.nan, "nan"), (math.inf, "inf")):
        with pytest.raises(SpecValidationError, match=named):
            omega_quadrature_check(helpers.rotation_spec(0.5, 0.5), [1.0, bad])
    assert tables == [] and evaluated == [] and quads == []


@pytest.mark.parametrize("x, y, index", [
    ([0.1, 1.0, 0.2], [0.5, 0.5, 0.9], 1),   # x > y
    ([0.1, 0.2, -0.3], [0.5, 0.5, 0.9], 2),  # x < 0
])
def test_marchenko_rejects_bad_sample_before_any_work(monkeypatch, x, y, index):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    exponentials = counter(monkeypatch, linalg, "expm")
    factorizations = counter(monkeypatch, linalg, "lu_factor")
    with pytest.raises(SpecValidationError,
                       match=rf"sample {index}: got x={x[index]!r}, y={y[index]!r}"):
        marchenko_residual(ev, x, y, [0.0, 0.0, 0.0])
    assert exponentials == [] and factorizations == []


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
        limit=verification.MARCHENKO_QUAD_LIMIT, full_output=True, workers=counter_map)
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
    monkeypatch.setattr(verification, "MARCHENKO_QUAD_LIMIT", 2)
    with pytest.raises(NumericalError, match="2 subintervals: error estimate"):
        marchenko_residual(ev, x, y, t)
    for sample in README_MARCHENKO_SAMPLES:
        with pytest.raises(NumericalError, match="error estimate"):
            marchenko_residual(ev, *sample)


def test_unconverged_quadrature_reported_unsupported_by_verify(monkeypatch, tmp_path):
    doc = tmp_path / "readme.json"
    doc.write_text(json.dumps({
        "eta": 1.0, "complexPoles": [{"alpha": math.sqrt(3.0) / 2, "beta": 0.5,
                                      "coeffs": [{"eps": 0.5, "gamma": 0.5}]}],
        "boundStates": [{"kappa": 2.0, "c": 3.0}]}))
    out = tmp_path / "report.json"
    argv = ["verify", "--input", str(doc), "--x", "1.5:4:6", "--t", "0:0.02:3",
            "--output", str(out)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(verification, "MARCHENKO_QUAD_LIMIT", 2)
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

    got = verification._adaptive_gk21(recorded, b, 1e-12, 1e-12, 200)
    want, _, info = integrate.quad_vec(lambda s: f(np.array([s]))[0], 0.0, b, epsabs=1e-12,
                                       epsrel=1e-12, norm="max", limit=200, full_output=True)
    assert info.status == status
    assert sum(nodes) == info.neval
    assert np.max(np.abs(got - want)) <= 1e-13
