"""Numerical gates: fixed module constants, and a flag, never a raise, per point."""
from __future__ import annotations

import json
import warnings
from unittest import mock

import numpy as np

from kdvexact import (
    FLAG_NEAR_SINGULAR,
    FLAG_OK,
    Triplet,
    linalg,
    make_evaluator,
    sample_grid,
)
from kdvexact.cli import main

# det Gamma(x, 0) = 1 - exp(-2x): exactly zero at the origin.
ZERO_DET_DOC = {"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [-2.0]}}


def _zero_det_evaluator():
    raw = ZERO_DET_DOC["rawTriplet"]
    return make_evaluator(Triplet(A=np.array(raw["A"]), B=np.array(raw["B"]),
                                  C=np.array(raw["C"])))


def test_pivot_gate_flags_instead_of_raising():
    ev = _zero_det_evaluator()
    # with the near-singular gate off, the pivot gate alone decides
    with mock.patch.object(linalg, "NEAR_SINGULAR_TOL", 0.0):
        s = ev.sample(0.0, 0.0)
        grid = sample_grid(ev, [0.0, 1.0, 2.0], [0.0])
    assert s.flag == FLAG_NEAR_SINGULAR and s.det_gamma == 0.0 and np.isnan(s.u)
    assert list(grid.flags[0]) == [FLAG_NEAR_SINGULAR, FLAG_OK, FLAG_OK]
    assert grid.det_gamma[0, 0] == 0.0 and np.isnan(grid.u[0, 0])
    assert np.all(np.isfinite(grid.u[0, 1:]))
    assert np.isnan(ev.u_log_det(0.0, 0.0))


def test_cli_eval_flags_exact_zero_det_row(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_DET_DOC))
    rc = main(["eval", "--input", str(path), "--x", "0:2:3", "--t", "0:0:1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1] == "0.0,0.0,nan,0.0,near-singular"
    assert [line.rsplit(",", 1)[1] for line in out[2:]] == [FLAG_OK, FLAG_OK]


def test_huge_gamma_norm_warns_nothing(tmp_path, capsys):
    # exp(-xA) = e^x I, so the row sums of Gamma overflow at x = 354.6
    # while det Gamma (1 + 2 e^{2x} in exact arithmetic) is still finite
    ev = make_evaluator(Triplet(A=-np.eye(2), B=np.array([1.0, 1.0]),
                                C=np.array([-2.0, -2.0])))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rawTriplet": {"A": [[-1.0, 0.0], [0.0, -1.0]],
                                               "B": [1.0, 1.0], "C": [-2.0, -2.0]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = sample_grid(ev, [354.6], [0.0])
        rc = main(["eval", "--input", str(path), "--x", "0:354.6:3", "--t", "0:0:1"])
    assert grid.flags[0, 0] == FLAG_NEAR_SINGULAR
    assert rc == 0
    assert capsys.readouterr().err == ""
