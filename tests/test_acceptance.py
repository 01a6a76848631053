"""Acceptance gate: the contract-level checks, one line of output each.

Every test here pins a deliverable guarantee at its stated tolerance.
Run with -s to see the PASS lines; any FAIL also carries its line in
the assertion message.

The smallest relative mutation each verify check catches on the rows of
the mutation table (test_verify_mutation_matrix): Q x (1 + d) and
flow x (1 + d) through make_evaluator, for d = 1e-1, 1e-2, .., 1e-12.
Each check that catches some d also catches every larger decade; "-"
is not caught at d = 1e-1, "skip" is a check that does not run on the
row. This is a record, not a bound.

    row                      check                 Q         flow
    raw triplet,             positivityScan        -         -
      default window         pdeResidual           1e-6      1e-5
                             marchenkoResidual     <= 1e-12  -
                             omegaQuadratureCheck  skip      skip
                             solitonEquivalence    skip      skip
    three-bound,             positivityScan        -         -
      --x 1:5:9 --t 0:1:5    pdeResidual           1e-6      1e-5
                             marchenkoResidual     1e-10     -
                             omegaQuadratureCheck  -         -
                             solitonEquivalence    1e-10     1e-10
"""
from __future__ import annotations

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from kdvexact import (
    BoundState,
    ImaginaryPole,
    build_reflection_triplet,
    build_triplet,
    cli,
    eval_reflection,
    linalg,
    make_evaluator,
    realization,
    reflection_partial_fractions,
    sample_grid,
    solution,
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

XS = np.linspace(0.0, 10.0, 101)
TS = np.linspace(0.0, 5.0, 51)

PARAMETER_SETS = [(0.5, 0.5, 1.0), (0.3, 0.2, 0.0), (0.1, 0.5, 8.0)]


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_determinant_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for eps, gam, eta in PARAMETER_SETS:
        ev = make_evaluator(helpers.rotation_triplet(eps, gam, eta))
        grid = sample_grid(ev, XS, TS)
        want = helpers.rotation_det_reference(XS[None, :], TS[:, None], eps, gam, eta)
        rel = np.max(np.abs(grid.det_gamma - want) / np.maximum(1.0, np.abs(want)))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 5.0
    _report("det-closed-form", ok,
            f"max rel {worst:.3e} (tol 1e-9) on 101x51 x 3 sets in {elapsed:.2f}s (< 5s)")


def test_u_closed_form():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, 1.0))
    grid = sample_grid(ev, XS, TS)
    want = helpers.rotation_u_reference(XS[None, :], TS[:, None])
    mask = np.abs(want) > 1e-8
    rel = float(np.max(np.abs(grid.u - want)[mask] / np.abs(want)[mask]))
    ok = grid.all_ok and rel <= 1e-8
    _report("u-closed-form", ok,
            f"max rel {rel:.3e} (tol 1e-8) over {int(mask.sum())} gated points")


def test_positivity_random_family():
    rng = np.random.default_rng(7)
    certified = 0
    for _ in range(20):
        while True:
            e, g = rng.uniform(0.0, 2.0 / 3.0, size=2)
            if e * e + g * g < 4.0 / 9.0 and e > 1e-3 and g > 1e-3:
                break
        eta = float(rng.choice([0.0, 4.0, 8.0]))
        ev = make_evaluator(build_triplet(
            helpers.rotation_spec(float(e), float(g), eta)))
        window = positivity_scan(ev, 20.0, 20.0)
        certified += int(window.certified)
    ok = certified == 20
    _report("positivity-random-family", ok,
            f"{certified}/20 specs certified det Gamma > 0 on [0,20]x[0,20]")


def test_pde_residual():
    started = time.perf_counter()
    ev = make_evaluator(helpers.three_block_triplet())
    scan = pde_residual(ev, (1.5, 4.0), (0.0, 0.02), n_x=11, n_t=5, h_x=1e-3)
    rep = pde_residual_refinement(ev, (1.5, 4.0), (0.0, 0.1))
    ok = scan.max_abs <= 1e-5 and rep.fourth_order

    rng = np.random.default_rng(42)
    worst_random = 0.0
    for _ in range(10):
        spec = helpers.random_calm_spec(rng)
        evr = make_evaluator(build_triplet(spec))
        sc = pde_residual(evr, (0.5, 3.5), (0.0, 0.2), n_x=9, n_t=3, h_x=1e-3)
        worst_random = max(worst_random, sc.max_abs)
        ref = pde_residual_refinement(evr, (0.5, 3.5), (0.0, 0.2))
        ok = ok and ref.fourth_order
    elapsed = time.perf_counter() - started
    ok = ok and worst_random <= 1e-5 and elapsed < 30.0
    _report("pde-residual", ok,
            f"3-block {scan.max_abs:.3e}, 10 random triplets worst "
            f"{worst_random:.3e} (tol 1e-5), refinement ratios in (8,32), "
            f"{elapsed:.1f}s (< 30s)")


def test_n_soliton_reduction():
    rng = np.random.default_rng(83)
    worst = 0.0
    for n in (1, 2, 3):
        kappas = np.sort(rng.uniform(0.4, 1.6, size=n))
        while np.any(np.diff(kappas) < 0.25):
            kappas = np.sort(rng.uniform(0.4, 1.6, size=n))
        states = tuple(BoundState(float(k), float(rng.uniform(0.3, 3.0)))
                       for k in kappas)
        eta = float(rng.choice([0.0, 1.0, 4.0]))
        ev = make_evaluator(build_triplet(helpers.ScatteringSpec(bound_states=states, eta=eta)))
        eq = soliton_equivalence(ev, (0.0, 5.0), (0.0, 1.0),
                                 n_x=26, n_t=11)
        worst = max(worst, eq.max_deviation)

    ev = make_evaluator(build_triplet(
        helpers.ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))))
    peak_err = abs(ev.u(0.0, 0.0) + 2.0)

    kappa, c, eta, t = 1.3, 0.7, 1.0, 0.3
    ev2 = make_evaluator(build_triplet(helpers.ScatteringSpec(
        bound_states=(BoundState(kappa, c),), eta=eta)))
    x_star = (4 * kappa ** 2 + eta) * t + np.log(c / (2 * kappa)) / (2 * kappa)
    peak_err = max(peak_err, abs(ev2.u(x_star, t) + 2 * kappa ** 2))

    ok = worst <= 1e-10 and peak_err <= 1e-10
    _report("n-soliton-reduction", ok,
            f"det deviation {worst:.3e} (tol 1e-10) for N in 1..3, "
            f"peak depth error {peak_err:.3e} (tol 1e-10)")


def test_marchenko_residual():
    ev = make_evaluator(helpers.rotation_triplet(0.5, 0.5, 1.0))
    rng = np.random.default_rng(271)
    worst = 0.0
    for _ in range(50):
        x, y = np.sort(rng.uniform(0.0, 3.0, size=2))
        t = float(rng.uniform(0.0, 3.0))
        worst = max(worst, abs(marchenko_residual(ev, float(x), float(y), t)))
    checks = omega_quadrature_check(helpers.rotation_spec(0.5, 0.5, 1.0),
                                    (0.5, 1.0, 2.0))
    omega_worst = max(c.error for c in checks)
    ok = worst <= 1e-8 and omega_worst <= 1e-6
    _report("marchenko-residual", ok,
            f"integral-equation residual {worst:.3e} (tol 1e-8) at 50 points, "
            f"Fourier cross-check {omega_worst:.3e} (tol 1e-6)")


def test_u_route_equivalence():
    rng = np.random.default_rng(101)
    gated = 0
    worst = 0.0
    for _ in range(10):
        spec = helpers.random_calm_spec(rng)
        ev = make_evaluator(build_triplet(spec))
        for _ in range(200):
            x = float(rng.uniform(0.0, 4.0))
            t = float(rng.uniform(0.0, 0.3))
            s = ev.sample(x, t)
            if s.flag != "ok" or abs(s.u) <= 1e-6 or abs(s.det_gamma) <= 1e-6:
                continue
            gated += 1
            rel = abs(s.u - ev.u_log_det(x, t)) / max(1.0, abs(s.u))
            worst = max(worst, rel)
    ok = gated >= 1000 and worst <= 1e-8
    _report("u-route-equivalence", ok,
            f"max rel {worst:.3e} (tol 1e-8) over {gated} gated points, "
            f"10 random triplets")


def test_reflection_partial_fractions():
    rng = np.random.default_rng(733)
    worst = 0.0
    mults = set()
    for _ in range(8):
        spec = helpers.random_rational_spec(rng)
        mults.update(p.multiplicity for p in spec.complex_poles)
        mults.update(p.multiplicity for p in spec.imaginary_poles)
        refl = build_reflection_triplet(spec)
        for k in rng.uniform(-10.0, 10.0, size=100):
            pf = reflection_partial_fractions(spec, complex(k))
            res = eval_reflection(refl, complex(k))
            worst = max(worst, abs(pf - res) / max(abs(pf), abs(res), 1.0))
    ok = worst <= 1e-10 and mults == {1, 2, 3}
    _report("reflection-partial-fractions", ok,
            f"max rel {worst:.3e} (tol 1e-10) at 100 real k x 8 specs, "
            f"multiplicities {sorted(mults)}")


def _scaled_c(block):
    """A realization block builder whose C is off by 1 %."""
    def scaled(pole):
        a, b, c = block(pole)
        return a, b, 1.01 * c
    return scaled


def _verify_omega_check(tmp_path, doc) -> dict:
    """verify's omegaQuadratureCheck entry for a document, on the README ranges."""
    src, out = tmp_path / "doc.json", tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    cli.main(["verify", "--input", str(src), "--x", "1.5:4:6", "--t", "0:0.02:3",
              "--output", str(out)])
    checks = json.loads(out.read_text())["perCheckStatus"]
    return next(c for c in checks if c["name"] == "omegaQuadratureCheck")


# The README JSON document, and the same with an imaginary pole, per
# realization block builder whose C the Fourier check must catch.
_README_DOC = {"eta": 1.0,
               "complexPoles": [{"alpha": float(helpers.S3 / 2), "beta": 0.5,
                                 "coeffs": [{"eps": 0.5, "gamma": 0.5}]}],
               "boundStates": [{"kappa": 2.0, "c": 3.0}]}
_OMEGA_DOCS = {"_complex_pair_block": _README_DOC,
               "_imaginary_pole_block": dict(_README_DOC,
                                             imagPoles=[{"omega": 1.2, "r": [0.8]}])}


def test_omega_realization_independence(monkeypatch, tmp_path):
    # A 1 % error in C of one realization block leaves the triplet
    # self-consistent; only the Fourier check, which integrates the spec's
    # own partial fractions, can see it.
    pole = ImaginaryPole(omega=1.2, coefficients=(0.8,))
    specs = {"rotation": helpers.rotation_spec(0.5, 0.5, 1.0),
             "readme": helpers.three_block_spec(eta=1.0)}
    specs.update({f"{name}+imaginary": dataclasses.replace(spec, imaginary_poles=(pole,))
                  for name, spec in list(specs.items())})
    ys = (0.5, 1.0, 2.0)
    ok, parts = True, []
    for block, doc in _OMEGA_DOCS.items():
        exact = _verify_omega_check(tmp_path, doc)
        with monkeypatch.context() as m:
            m.setattr(realization, block, _scaled_c(getattr(realization, block)))
            errors = {name: max(c.error for c in omega_quadrature_check(spec, ys))
                      for name, spec in specs.items()
                      if block == "_complex_pair_block" or name.endswith("+imaginary")}
            scaled = _verify_omega_check(tmp_path, doc)
        ok &= min(errors.values()) > cli.OMEGA_TOL
        ok &= exact["passed"] and not scaled["passed"]
        parts.append(f"{block}: min error {min(errors.values()):.3e} over {len(errors)} specs, "
                     f"verify {'PASS' if exact['passed'] else 'FAIL'} -> "
                     f"{'PASS' if scaled['passed'] else 'FAIL'}")
    _report("omega-realization-independence", ok,
            f"C x 1.01 in {'; in '.join(parts)} (need > {cli.OMEGA_TOL:.0e}, PASS -> FAIL)")


def _verify_statuses(tmp_path, doc, window) -> tuple[int, dict]:
    """verify's exit code and {check name: passed} for a document and window."""
    src, out = tmp_path / "doc.json", tmp_path / "report.json"
    src.write_text(json.dumps(doc))
    rc = cli.main(["verify", "--input", str(src), "--output", str(out)] + window)
    return rc, {c["name"]: c["passed"] for c in json.loads(out.read_text())["perCheckStatus"]}


def _scaled_field(field: str, factor: float):
    """make_evaluator with one field of every evaluator it returns scaled by factor."""
    def wrap(make):
        def make_mutated(*args, **kwargs):
            ev = make(*args, **kwargs)
            return dataclasses.replace(ev, **{field: getattr(ev, field) * factor})
        return make_mutated
    return solution, "make_evaluator", wrap


def _x_for_y(expm):
    """linalg.expm giving exp(-xA) for exp(-yA) in the Marchenko set-up.

    Only the set-up's one call on the scales -[x, x + y, y] (0 <= x <= y)
    changes: its last third is replaced by its first.
    """
    def mutated(a, s=1.0):
        if np.ndim(s) == 1 and np.size(s) and np.size(s) % 3 == 0:
            x, xy, y = np.split(np.asarray(s, dtype=float), 3)
            if np.array_equal(x + y, xy) and np.all((y <= x) & (x <= 0.0)):
                s = np.concatenate([x, xy, x])
        return expm(a, s)
    return mutated


def _scaled_assembled_c(assemble):
    """realization._assemble with C off by 1 %: build_triplet's triplet no longer realizes its spec."""
    def mutated(blocks, eta):
        triplet = assemble(blocks, eta)
        return dataclasses.replace(triplet, C=1.01 * triplet.C)
    return mutated


# Each mutation is (owner, attribute, wrapper of the original). Each row:
# a document, a window and, per mutation, the checks it turns PASS -> FAIL;
# every other check keeps its outcome. C x 1.01 in a reflection block
# builder is test_omega_realization_independence, whose README document
# does not yet pass every check.
_MUTATIONS = {"Q x (1+1e-9)": _scaled_field("Q", 1.0 + 1e-9),
              "Q x (-3)": _scaled_field("Q", -3.0),
              "flow x (1+1e-5)": _scaled_field("flow", 1.0 + 1e-5),
              "flow x (-1)": _scaled_field("flow", -1.0),
              "exp(-xA) for exp(-yA) in K": (linalg, "expm", _x_for_y),
              "C x 1.01 from the builder": (realization, "_assemble", _scaled_assembled_c)}
_MUTATION_ROWS = {
    "raw triplet, default window": (
        {"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [2.0], "eta": 0.0}}, [],
        {"Q x (1+1e-9)": {"marchenkoResidual"},
         "Q x (-3)": {"positivityScan", "pdeResidual", "marchenkoResidual"},
         "flow x (1+1e-5)": {"pdeResidual"}, "flow x (-1)": {"pdeResidual"},
         "exp(-xA) for exp(-yA) in K": {"marchenkoResidual"}}),
    "three-bound, --x 1:5:9 --t 0:1:5": (
        {"eta": 1.0, "boundStates": [{"kappa": 0.5, "c": 1.0}, {"kappa": 0.7, "c": 1.5},
                                     {"kappa": 0.9, "c": 0.8}]},
        ["--x", "1:5:9", "--t", "0:1:5"],
        {"Q x (1+1e-9)": {"marchenkoResidual", "solitonEquivalence"},
         "Q x (-3)": {"positivityScan", "pdeResidual", "marchenkoResidual",
                      "solitonEquivalence"},
         "flow x (1+1e-5)": {"pdeResidual", "solitonEquivalence"},
         "flow x (-1)": {"pdeResidual", "solitonEquivalence"},
         "exp(-xA) for exp(-yA) in K": {"marchenkoResidual"},
         "C x 1.01 from the builder": {"solitonEquivalence"}}),
}


def _mutation_matrix(tmp_path):
    """Run the table lazily: (what ran, whether it held), unmutated run of each row first."""
    for row, (doc, window, caught) in _MUTATION_ROWS.items():
        rc, exact = _verify_statuses(tmp_path, doc, window)
        yield f"{row}: unmutated exit {rc}", rc == 0 and all(exact.values())
        for mutation, fails in caught.items():
            owner, attr, wrap = _MUTATIONS[mutation]
            with pytest.MonkeyPatch.context() as m:
                m.setattr(owner, attr, wrap(getattr(owner, attr)))
                _, got = _verify_statuses(tmp_path, doc, window)
            failed = {name for name, passed in got.items() if not passed}
            yield f"{row}: {mutation} fails {sorted(failed)}", failed == fails


def test_verify_mutation_matrix(tmp_path):
    runs = list(_mutation_matrix(tmp_path))
    _report("verify-mutation-matrix", all(held for _, held in runs),
            "; ".join(part for part, _ in runs))


def _always_passing(run):
    """A verify check runner whose comparison passes whatever it measured."""
    def passing(v, tol):
        outcome = run(v, tol)
        return None if outcome is None else (True,) + tuple(outcome[1:])
    return passing


def test_verify_check_deletion_probe(monkeypatch, tmp_path):
    # With any one check's comparison made to always pass, the mutation
    # table (or, for the Fourier check, its C x 1.01 case) must break:
    # no check is vacuous on the rows that hold today. Each probe stops
    # at the first row that breaks.
    parts = []
    for i, (name, threshold, run, skip_reason) in enumerate(cli.VERIFY_CHECKS):
        checks = list(cli.VERIFY_CHECKS)
        checks[i] = (name, threshold, _always_passing(run), skip_reason)
        with monkeypatch.context() as m:
            m.setattr(cli, "VERIFY_CHECKS", tuple(checks))
            if name == "omegaQuadratureCheck":
                block, doc = next(iter(_OMEGA_DOCS.items()))
                m.setattr(realization, block, _scaled_c(getattr(realization, block)))
                scaled = _verify_omega_check(tmp_path, doc)
                broken = f"C x 1.01 in {block} passes" if scaled["passed"] else None
            else:
                broken = next((part for part, held in _mutation_matrix(tmp_path) if not held),
                              None)
        parts.append(f"{name} always passing: {broken or 'nothing breaks'}")
        assert broken is not None, parts[-1]
    _report("verify-check-deletion-probe", True, "; ".join(parts))


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.M | re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    ev, grid = scope["ev"], scope["grid"]
    u, u_log_det = ev.u(1.0, 0.05), ev.u_log_det(1.0, 0.05)
    rel = abs(u - u_log_det) / abs(u_log_det)
    ok = grid.all_ok and rel <= 1e-12 and ev.sample(1.0, 0.05).u == u
    _report("readme-library", ok, f"all_ok {grid.all_ok}, u vs u_log_det rel {rel:.3e} "
            f"(tol 1e-12) at x=1, t=0.05")
