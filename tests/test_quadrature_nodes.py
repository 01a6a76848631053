"""Shared quadrature nodes in the Marchenko and Fourier checks."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from kdvexact import (SpecValidationError, build_triplet, cli, linalg, make_evaluator, realization,
                      solution)
from kdvexact.verification import OMEGA_EPSABS, marchenko_residual, omega_quadrature_check

import helpers


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
    resolvent = realization.reflection_resolvent(realization.build_reflection_triplet(spec))
    ys = (0.5, 1.0, 2.0)
    for chk, y in zip(omega_quadrature_check(spec, ys), ys):
        cos_half, _ = integrate.quad(lambda k: resolvent.apply(k)[0, 0].real,
                                     0.0, np.inf, weight="cos", wvar=y,
                                     epsabs=OMEGA_EPSABS, limlst=80, limit=200)
        sin_half, _ = integrate.quad(lambda k: resolvent.apply(k)[0, 0].imag,
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
    evaluated = counter(monkeypatch, linalg.Resolvent, "apply")
    omega_quadrature_check(helpers.three_block_spec(eta=1.0), (0.5, 1.0, 2.0))
    assert len(evaluated) == len(set(nodes))
    assert len(nodes) > len(evaluated)  # the cos and sin halves shared nodes


@pytest.mark.parametrize("ys", [(1.0,), (0.5, 1.0, 2.0, 4.0)])
def test_omega_quadrature_reduces_a_once_per_call(monkeypatch, ys):
    reductions = counter(monkeypatch, linalg.sla, "schur")
    omega_quadrature_check(helpers.three_block_spec(eta=1.0), ys)
    assert len(reductions) == 1


def test_omega_rejects_bad_y_before_any_quadrature(monkeypatch):
    reductions = counter(monkeypatch, linalg.sla, "schur")
    evaluated = counter(monkeypatch, linalg.Resolvent, "apply")
    quads = counter(monkeypatch, integrate, "quad")
    with pytest.raises(SpecValidationError, match="-2.0"):
        omega_quadrature_check(helpers.rotation_spec(0.5, 0.5), [1.0, -2.0])
    assert reductions == [] and evaluated == [] and quads == []


@pytest.mark.parametrize("x, y, index", [
    ([0.1, 1.0, 0.2], [0.5, 0.5, 0.9], 1),   # x > y
    ([0.1, 0.2, -0.3], [0.5, 0.5, 0.9], 2),  # x < 0
])
def test_marchenko_rejects_bad_sample_before_any_work(monkeypatch, x, y, index):
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, eta=1.0))
    gammas = counter(monkeypatch, solution.GammaEvaluator, "gamma")
    quads = counter(monkeypatch, integrate, "quad_vec")
    with pytest.raises(SpecValidationError,
                       match=rf"sample {index}: got x={x[index]!r}, y={y[index]!r}"):
        marchenko_residual(ev, x, y, [0.0, 0.0, 0.0])
    assert gammas == [] and quads == []
