"""The batched kernel against high-precision mpmath oracles.

expm_stack is compared with a 40-digit matrix exponential and the
kernel's u with a 50-digit log-det route, on the README spec, the
benchmark's P = 64 many-poles spec and seeded dense matrices. The
soliton check's Hirota tau-function is compared with a 60-digit
determinant of the N-soliton matrix.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from kdvexact import (FLAG_OK, BoundState, ScatteringSpec, build_triplet, documents, linalg,
                      make_evaluator, realization)
from kdvexact.cli import DEFAULT_T, DEFAULT_X, main

import helpers

mp = pytest.importorskip("mpmath")

README_TRIPLET = build_triplet(helpers.three_block_spec())


def _mp_expm(m: np.ndarray, s: float, dps: int = 40) -> np.ndarray:
    """exp(s m) for the float64 matrix m and scale s, to dps digits."""
    with mp.workdps(dps):
        e = mp.expm(mp.mpf(s) * mp.matrix(m.tolist()))
        return np.array(e.tolist(), dtype=float)


def _assert_stack_matches_oracle(m: np.ndarray, scales, blocks=None):
    """Each member within 1e-13 max |exp| of the oracle; blocks are
    (offset, size) diagonal blocks of m to take the oracle on, all of m
    when None (entries outside them must then be exactly zero)."""
    stack, overflow = linalg.expm_stack(m, scales)
    assert not overflow.any()
    n = m.shape[0]
    blocks = blocks or [(0, n)]
    inside = np.zeros((n, n), dtype=bool)
    for s, member in zip(scales, stack):
        want = np.zeros((n, n))
        for at, size in blocks:
            sl = slice(at, at + size)
            want[sl, sl] = _mp_expm(m[sl, sl], s)
            inside[sl, sl] = True
        assert np.all(member[~inside] == 0.0), s
        err = np.max(np.abs(member - want))
        assert err <= 1e-13 * np.max(np.abs(want)), (s, err / np.max(np.abs(want)))


def test_expm_stack_readme_exponentials_match_oracle():
    _assert_stack_matches_oracle(README_TRIPLET.A, -np.linspace(0.0, 10.0, 21))
    flow = make_evaluator(README_TRIPLET).flow
    _assert_stack_matches_oracle(flow, np.linspace(0.0, 2.0, 11))


def test_expm_stack_many_poles_jordan_blocks_match_oracle():
    triplet = helpers.many_poles_triplet(1)
    a = triplet.A
    _, plan = linalg._block_plan(a.shape, a.tobytes())
    assert sorted(len(rows) for rows, _, _ in plan) == [8, 10, 12]
    blocks = [(int(r[0, 0]), r.shape[0]) for rows, _, _ in plan for r in rows]
    _assert_stack_matches_oracle(a, -np.linspace(0.0, 10.0, 6), blocks)
    flow = make_evaluator(triplet).flow
    _assert_stack_matches_oracle(flow, np.linspace(0.0, 1.0, 3), blocks)


def test_expm_stack_dense_matrices_match_oracle():
    for seed in range(6):
        m = np.random.default_rng(seed).standard_normal((5, 5))
        _assert_stack_matches_oracle(m, [-4.0, -2.0, -0.7, 0.3, 1.5, 3.0, 5.0])


def _closed_and_pade_errors(blocks, scales):
    """Largest error of expm_stack and of _pade13_stack on the members s m of
    each 2 x 2 block m, against the oracle and relative to its largest entry."""
    errors = np.zeros(2)
    for m in blocks:
        (_, _, closed), = linalg._block_plan(m.shape, m.tobytes())[1]
        assert closed, m   # the block takes the closed form
        s = np.asarray(scales, dtype=float)
        got, overflow = linalg.expm_stack(m, s)
        assert not overflow.any()
        pade = linalg._pade13_stack(s[:, None, None] * m)
        for si, members in zip(s, zip(got, pade)):
            want = _mp_expm(m, si)
            errors = np.maximum(errors, [np.max(np.abs(member - want)) / np.max(np.abs(want))
                                         for member in members])
    return errors


def _closed_form_cases():
    flow = make_evaluator(README_TRIPLET).flow
    many = helpers.many_poles_triplet(1)
    many_flow = make_evaluator(many).flow
    _, plan = linalg._block_plan(many.A.shape, many.A.tobytes())
    starts = [int(r[0, 0]) for rows, _, _ in plan for r in rows if r.shape[0] == 2]
    pairs = [many.A[at:at + 2, at:at + 2] for at in starts]
    rotations = [p for p in pairs if p[1, 0] != 0.0]
    jordans = [p for p in pairs if p[1, 0] == 0.0]
    assert len(rotations) == 6 and len(jordans) == 4
    return {
        "rotation": [
            ([README_TRIPLET.A[:2, :2]], -np.linspace(0.0, 10.0, 101)),
            ([flow[:2, :2]], np.linspace(0.0, 2.0, 101)),
            (rotations, -np.linspace(0.0, 10.0, 17)),
        ],
        "jordan": [
            ([np.array([[0.9, -1.0], [0.0, 0.9]]), *jordans], -np.linspace(0.0, 10.0, 21)),
            ([many_flow[at:at + 2, at:at + 2] for at in starts if many.A[at + 1, at] == 0.0],
             np.linspace(0.0, 1.0, 21)),
        ],
        # b c from 1e-4 a^2 down to 1e-20 a^2: nearly a Jordan block
        "near-parabolic": [([np.array([[0.7, 1.0], [-10.0 ** -k * 0.49, 0.7]])
                             for k in (4, 8, 12, 16, 20)], np.linspace(-8.0, 8.0, 21))],
        # |m01 / m10| = 2e7
        "non-normal": [([np.array([[0.3, 2e3], [-1e-4, -0.1]])], np.linspace(-6.0, 6.0, 101))],
    }


@pytest.mark.parametrize("kind", list(_closed_form_cases()))
def test_closed_form_blocks_no_farther_from_oracle_than_pade(kind):
    closed, pade = np.max([_closed_and_pade_errors(*case) for case in _closed_form_cases()[kind]],
                          axis=0)
    assert closed <= pade and closed <= 1e-14, (closed, pade)


def _mp_u_log_det(triplet, x: float, t: float, dps: int = 50):
    """u = -2 [tr(G^-1 Gxx) - tr((G^-1 Gx)^2)] in mpmath, with Q from the
    Kronecker form of A Q + Q A = B C."""
    with mp.workdps(dps):
        p = triplet.P
        a = mp.matrix(triplet.A.tolist())
        bc = mp.matrix(np.outer(triplet.B, triplet.C).tolist())
        eye = mp.eye(p)
        kron = mp.matrix(p * p, p * p)
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    kron[i * p + j, k * p + j] += a[i, k]   # (A Q)_ij
                    kron[i * p + j, i * p + k] += a[k, j]   # (Q A)_ij
        vec_q = mp.lu_solve(kron, mp.matrix([bc[i, j] for i in range(p) for j in range(p)]))
        q = mp.matrix(p, p)
        for i in range(p):
            for j in range(p):
                q[i, j] = vec_q[i * p + j]
        flow = 8 * a * a * a + 2 * mp.mpf(triplet.eta) * a
        exa = mp.expm(-mp.mpf(x) * a)
        e = mp.expm(mp.mpf(t) * flow)
        w = exa * bc * exa
        g_inv = mp.inverse(eye + exa * q * exa * e)
        gi_gx = g_inv * (-(w * e))
        gi_gxx = g_inv * ((a * w + w * a) * e)
        tr = lambda m: sum(m[i, i] for i in range(p))   # noqa: E731
        return float(-2 * (tr(gi_gxx) - tr(gi_gx * gi_gx)))


def test_kernel_u_matches_log_det_oracle_at_readme_points():
    ev = make_evaluator(README_TRIPLET)
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 10.0, 40)
    ts = rng.uniform(0.0, 0.3, 40)
    checked = 0
    for x, t in zip(xs, ts):
        s = ev.sample(x, t)
        if s.flag != FLAG_OK:
            continue
        want = _mp_u_log_det(README_TRIPLET, x, t)
        assert abs(s.u - want) <= 1e-13 * (1.0 + abs(want)), (x, t, s.u, want)
        checked += 1
    assert checked >= 30


def _mp_n_soliton_det(states, eta: float, x: float, t: float, dps: int = 60):
    """det of the N-soliton matrix delta_jl + c_j e^theta_j / (kappa_j + kappa_l),
    theta_j = -2 kappa_j x + (8 kappa_j^3 + 2 eta kappa_j) t, as an mpf."""
    with mp.workdps(dps):
        kap = [mp.mpf(s.kappa) for s in states]
        w = [mp.mpf(s.c) * mp.exp(-2 * k * mp.mpf(x) + (8 * k ** 3 + 2 * mp.mpf(eta) * k) * mp.mpf(t))
             for s, k in zip(states, kap)]
        n = len(states)
        return mp.det(mp.matrix([[int(j == m) + w[j] / (kap[j] + kap[m]) for m in range(n)]
                                 for j in range(n)]))


CLOSE_STATES = (BoundState(2.0, 1.0), BoundState(2.1, 1.0), BoundState(2.2, 1.0))


@pytest.mark.parametrize("states, eta, x_window, t_window", [
    ((BoundState(0.5, 1.0), BoundState(0.7, 1.5), BoundState(0.9, 0.8)), 1.0, (0, 10), (0, 2)),
    (CLOSE_STATES, 0.0, (0, 10), (0, 2)),
    (CLOSE_STATES, 1.0, (0, 10), (0, 2)),
    # one state, where the N-soliton matrix overflows float64 from t = 10.75:
    # log tau = log1p((c / 2 kappa) e^theta) and stays finite
    ((BoundState(2.0, 1e10),), 0.0, (0, 2), (10.5, 11)),
], ids=["three-bound", "close-kappa", "close-kappa-eta-1", "one-state-past-overflow"])
def test_log_tau_matches_n_soliton_determinant_oracle(states, eta, x_window, t_window):
    rng = np.random.default_rng(18)
    xs = np.sort(rng.uniform(*x_window, 20))
    ts = np.sort(rng.uniform(*t_window, 10))
    got = realization._log_tau(ScatteringSpec(bound_states=states, eta=eta), xs, ts[:, None])
    want = np.array([[float(mp.log(_mp_n_soliton_det(states, eta, x, t))) for x in xs]
                     for t in ts])
    assert np.all(np.isfinite(got))
    # 1e-13, or two ulps of log tau where one ulp is above it (log tau near 724 here)
    bound = np.maximum(1e-13, 2.0 * np.spacing(np.abs(want)))
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


def test_soliton_report_measures_the_kernel_error_alone(tmp_path, capsys):
    """The close-kappa 3-soliton still fails on the default grid, and its
    reported deviation is the kernel's own error against a 60-digit det."""
    doc = tmp_path / "close.json"
    doc.write_text('{"boundStates": [{"kappa": 2.0, "c": 1.0}, {"kappa": 2.1, "c": 1.0}, '
                   '{"kappa": 2.2, "c": 1.0}]}')
    assert main(["soliton", "--input", str(doc)]) == 4
    err = capsys.readouterr().err
    got = re.fullmatch(r"soliton determinant deviation (\S+) \(threshold 1\.0e-10\) "
                       r"at x=(\S+), t=(\S+)\n", err)
    deviation, x, t = (float(v) for v in got.groups())
    ev = make_evaluator(build_triplet(ScatteringSpec(bound_states=CLOSE_STATES)))
    det_kernel = ev.evaluate([x], [t], with_u=False).det_gamma[0, 0]
    with mp.workdps(60):
        want = float(abs(mp.mpf(det_kernel) / _mp_n_soliton_det(CLOSE_STATES, 0.0, x, t) - 1))
    assert deviation > 1e-10 and abs(deviation - want) <= 1e-13, (deviation, want)


def _readme_json_spec() -> ScatteringSpec:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    doc = re.search(r"^```json\n(.*?)^```", readme, re.M | re.S).group(1)
    return documents.parse_input_document(json.loads(doc))


@pytest.mark.parametrize("spec", [
    helpers.three_block_spec(),
    _readme_json_spec(),
    ScatteringSpec(bound_states=(BoundState(0.5, 1.0), BoundState(0.7, 1.5),
                                 BoundState(0.9, 0.8)), eta=1.0),
], ids=["readme-spec", "readme-json-document", "three-bound"])
def test_det_gamma_matches_the_simple_pole_tau_at_every_point(spec):
    """det Gamma on the default grid, flagged points included, against a tau built from
    the spec's poles and bound states alone; 1.2e-14, 2.1e-14 and 7.5e-14 at most when
    this was written, with 17,359, 17,641 and 1,550 of the 20,301 points flagged."""
    xs, ts = np.linspace(*DEFAULT_X), np.linspace(*DEFAULT_T)
    det = make_evaluator(build_triplet(spec)).evaluate(xs, ts, with_u=False).det_gamma
    assert np.all(np.isfinite(det))   # no overflow: every point is compared
    dev = np.abs(det / helpers.simple_pole_tau(spec, xs, ts[:, None]) - 1.0)
    assert np.max(dev) <= 1e-12, np.max(dev)


@pytest.mark.parametrize("spec", [
    helpers.three_block_spec(),
    _readme_json_spec(),
    ScatteringSpec(bound_states=(BoundState(0.5, 1.0), BoundState(0.7, 1.5),
                                 BoundState(0.9, 0.8)), eta=1.0),
    ScatteringSpec(bound_states=CLOSE_STATES),
], ids=["readme-spec", "readme-json-document", "three-bound", "close-kappa"])
def test_u_matches_the_simple_pole_tau_at_every_ok_point(spec):
    """u at every ok point of the default grid against -2 (log tau)_xx from the same
    subset sum; 3.8e-14, 3.2e-14, 3.2e-14 and 8.4e-14 at most when this was written,
    over 2,942, 2,660, 18,751 and 3,782 ok points. A relative error of 1e-9 in Q
    moves it to 1e-8 or more."""
    xs, ts = np.linspace(*DEFAULT_X), np.linspace(*DEFAULT_T)
    grid = make_evaluator(build_triplet(spec)).evaluate(xs, ts)
    ok = grid.flags == FLAG_OK
    u = grid.u[ok]
    dev = np.abs(u - helpers.simple_pole_u(spec, xs, ts[:, None])[ok]) / (1.0 + np.abs(u))
    assert u.size and np.max(dev) <= 1e-10, np.max(dev)
