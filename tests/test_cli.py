"""Command-line surface: subcommands, exit codes, byte determinism."""
from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kdvexact import (BoundState, ScatteringSpec, build_triplet, cli, linalg, make_evaluator,
                      solution)
from kdvexact.cli import main

import helpers
from helpers import S3

ALPHA = float(S3 / 2)

THREE_BLOCK_DOC = {
    "eta": 1.0,
    "complexPoles": [{"alpha": ALPHA, "beta": 0.5,
                      "coeffs": [{"eps": 0.5, "gamma": 0.5}]}],
    "boundStates": [{"kappa": 2.0, "c": 3.0}],
}

ONE_SOLITON_DOC = {"boundStates": [{"kappa": 1.0, "c": 2.0}]}

THREE_BOUND_DOC = {"eta": 1.0, "boundStates": [{"kappa": 0.5, "c": 1.0}, {"kappa": 0.7, "c": 1.5},
                                               {"kappa": 0.9, "c": 0.8}]}

THIRTEEN_STATES_DOC = {"boundStates": [{"kappa": 0.3 + 0.1 * i, "c": 1.0} for i in range(13)]}

VACUUM_DOC = {"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [0.0]}}


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_to_file(tmp_path, argv, name="out"):
    out = tmp_path / name
    rc = main(argv + ["--output", str(out)])
    return rc, out


def test_build_rotation_layout(tmp_path):
    doc = {"eta": 1.0,
           "complexPoles": [{"alpha": ALPHA, "beta": 0.5,
                             "coeffs": [{"eps": 0.25, "gamma": 0.75}]}]}
    rc, out = run_to_file(tmp_path, ["build", "--input", write_doc(tmp_path, doc)])
    assert rc == 0
    built = json.loads(out.read_text())
    raw = built["rawTriplet"]
    assert raw["A"] == [[0.5, ALPHA], [-ALPHA, 0.5]]
    assert raw["B"] == [0.0, 1.0]
    assert raw["C"] == [1.5, 0.5]
    assert raw["eta"] == 1.0
    assert built["P"] == 2 and built["valid"] is True and built["flags"] == []
    spectrum = np.array(built["spectrum"])
    assert np.allclose(spectrum, [[0.5, -ALPHA], [0.5, ALPHA]], atol=1e-12)


def test_build_three_block_and_determinism(tmp_path):
    src = write_doc(tmp_path, THREE_BLOCK_DOC)
    rc1, out1 = run_to_file(tmp_path, ["build", "--input", src], "a.json")
    rc2, out2 = run_to_file(tmp_path, ["build", "--input", src], "b.json")
    assert rc1 == rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    built = json.loads(out1.read_text())
    assert built["rawTriplet"]["A"][2][2] == 2.0
    assert built["P"] == 3


def test_build_rejects_raw_triplet_and_empty_specs(tmp_path, capsys):
    assert main(["build", "--input", write_doc(tmp_path, VACUUM_DOC)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["build", "--input", write_doc(tmp_path, {}, "e1.json")]) == 2
    assert main(["build", "--input",
                 write_doc(tmp_path, {"boundStates": []}, "e2.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_eval_build_round_trip_bytes(tmp_path):
    spec_path = write_doc(tmp_path, THREE_BLOCK_DOC)
    _, built_path = run_to_file(tmp_path, ["build", "--input", spec_path], "built.json")
    grid_args = ["--x", "0:4:9", "--t", "0:0.1:3"]
    rc1, csv1 = run_to_file(tmp_path, ["eval", "--input", spec_path] + grid_args, "a.csv")
    rc2, csv2 = run_to_file(tmp_path, ["eval", "--input", str(built_path)] + grid_args, "b.csv")
    assert rc1 == rc2 == 0
    assert csv1.read_bytes() == csv2.read_bytes()


def test_eval_vacuum_exact_csv(tmp_path, capsys):
    rc = main(["eval", "--input", write_doc(tmp_path, VACUUM_DOC),
               "--x", "0:1:2", "--t", "0:2:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == ("x,t,u,detGamma,flag\n"
                   "0.0,0.0,0.0,1.0,ok\n"
                   "1.0,0.0,0.0,1.0,ok\n"
                   "0.0,2.0,0.0,1.0,ok\n"
                   "1.0,2.0,0.0,1.0,ok\n")


def test_eval_soliton_origin_value(tmp_path, capsys):
    rc = main(["eval", "--input", write_doc(tmp_path, ONE_SOLITON_DOC),
               "--x", "0:1:2", "--t", "0:1:2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0.0,0.0,-2.0,2.0,ok"


def test_eval_eta_override_matches_document_eta(tmp_path):
    doc_plain = {"boundStates": [{"kappa": 0.8, "c": 1.5}]}
    doc_eta = {"boundStates": [{"kappa": 0.8, "c": 1.5}], "eta": 4.0}
    args = ["--x", "0:3:7", "--t", "0:0.5:4"]
    _, a = run_to_file(tmp_path, ["eval", "--input", write_doc(tmp_path, doc_plain),
                                  "--eta", "4.0"] + args, "a.csv")
    _, b = run_to_file(tmp_path, ["eval", "--input",
                                  write_doc(tmp_path, doc_eta, "i2.json")] + args, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_eval_structured_document_with_flagged_cells(tmp_path):
    doc = {"boundStates": [{"kappa": 2.0, "c": 3.0}]}
    rc, out = run_to_file(tmp_path, ["eval", "--input", write_doc(tmp_path, doc),
                                     "--format", "structured-document",
                                     "--x", "0:1:2", "--t", "0:30:3"], "grid.json")
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["flags"][0][0] == "ok" and data["flags"][2][0] == "overflow"
    assert data["u"][2][0] is None and data["detGamma"][2][0] is None
    assert data["u"][0][0] is not None


def test_eval_all_flagged_exits_3(tmp_path, capsys):
    src = write_doc(tmp_path, {"boundStates": [{"kappa": 2.0, "c": 3.0}]})
    outdir = tmp_path / "frames"
    for argv in (["eval"], ["soliton"], ["frames", "--output", str(outdir)]):
        assert main(argv + ["--input", src, "--t", "30:31:2"]) == 3, argv
        assert capsys.readouterr().err == (
            "numerical failure: every grid point is flagged (overflow: 402)\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command, extra", [
    ("build", []), ("eval", ["--x", "0:1:2", "--t", "0:1:2"]),
    ("verify", ["--x", "0:1:3", "--t", "0:0.5:3"]), ("frames", ["--x", "0:1:2", "--t", "0:1:2"]),
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, extra):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    # frames cannot make a directory over a file; the others cannot open a
    # file in a missing directory.
    target = src if command == "frames" else str(tmp_path / "missing" / "out")
    assert main([command, "--input", src, "--output", target] + extra) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_bad_range_arguments_exit_2(tmp_path):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    for bad in ("0:1:0", "1:0:5", "-1:1:5", "0:1", "a:b:c"):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--input", src, "--x", bad])
        assert exc.value.code == 2, bad


def test_verify_three_block_all_checks_pass(tmp_path):
    src = write_doc(tmp_path, THREE_BLOCK_DOC)
    args = ["verify", "--input", src, "--x", "1.5:4:6", "--t", "0:0.02:3"]
    rc, out = run_to_file(tmp_path, args, "report.json")
    report = json.loads(out.read_text())
    names = [c["name"] for c in report["perCheckStatus"]]
    assert names == ["positivityScan", "pdeResidual", "marchenkoResidual",
                     "omegaQuadratureCheck", "solitonEquivalence"]
    assert rc == 0 and report["passed"] is True
    assert all(c["passed"] for c in report["perCheckStatus"])
    assert report["pdeResidualMax"] <= 1e-5
    assert report["marchenkoResidualMax"] <= 1e-8
    assert report["omegaQuadratureError"] <= 1e-6
    assert report["positivityWindow"]["certified"] is True
    assert report["positivityWindow"]["tauIsInfiniteUpTo"] == 0.02
    # determinism: a second run writes identical bytes
    rc2, out2 = run_to_file(tmp_path, args, "report2.json")
    assert out.read_bytes() == out2.read_bytes()


def test_verify_blowup_spec_reports_failure(tmp_path):
    doc = {"eta": 0.0,
           "complexPoles": [{"alpha": ALPHA, "beta": 0.5,
                             "coeffs": [{"eps": 3.0, "gamma": 0.0}]}]}
    rc, out = run_to_file(tmp_path, ["verify", "--input", write_doc(tmp_path, doc),
                                     "--x", "0:5:6", "--t", "0:1:3"], "report.json")
    assert rc == 4
    report = json.loads(out.read_text())
    assert report["passed"] is False
    window = report["positivityWindow"]
    assert window["certified"] is False and window["tauLower"] == 0.0
    x0, t0, det0 = window["firstFailure"]
    assert x0 == 0.0 and t0 == 0.0 and abs(det0 - (-4.25)) < 1e-12
    by_name = {c["name"]: c for c in report["perCheckStatus"]}
    assert not by_name["positivityScan"]["passed"]
    assert by_name["pdeResidual"]["detail"].startswith("unsupported:")
    # the integral-equation identity only needs det != 0, so it still holds
    assert by_name["marchenkoResidual"]["passed"]


def test_verify_vacuum_raw_triplet_trivial_pass(tmp_path):
    rc, out = run_to_file(tmp_path, ["verify", "--input", write_doc(tmp_path, VACUUM_DOC),
                                     "--x", "0:2:3", "--t", "0:0.5:3"], "report.json")
    assert rc == 0
    report = json.loads(out.read_text())
    by_name = {c["name"]: c for c in report["perCheckStatus"]}
    assert report["pdeResidualMax"] == 0.0
    assert by_name["omegaQuadratureCheck"]["detail"].startswith("skipped:")
    assert by_name["solitonEquivalence"]["detail"].startswith("skipped:")


@pytest.mark.parametrize("argv", [
    ["verify", "--tol-pde", "1"], ["verify", "--tol-marchenko", "1"],
    ["verify", "--tol-omega", "1"], ["verify", "--tol-soliton", "1"],
    ["soliton", "--tol-soliton", "1"]])
def test_check_thresholds_are_not_options(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", write_doc(tmp_path, ONE_SOLITON_DOC)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_reports_the_fixed_thresholds(tmp_path):
    rc, out = run_to_file(tmp_path, ["verify", "--input", write_doc(tmp_path, ONE_SOLITON_DOC),
                                     "--x", "0:2:3", "--t", "0:0.5:3"], "report.json")
    tolerances = {c["name"]: c["tolerance"] for c in json.loads(out.read_text())["perCheckStatus"]}
    assert tolerances == {"positivityScan": 0.5, "pdeResidual": cli.PDE_TOL,
                          "marchenkoResidual": cli.MARCHENKO_TOL,
                          "omegaQuadratureCheck": cli.OMEGA_TOL,
                          "solitonEquivalence": cli.SOLITON_TOL}


def _readme_synopsis() -> dict[str, set[str]]:
    """The --options of each subcommand in the README's CLI synopsis block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("kdvexact "):
            command = line.split()[1]
        if line.strip():
            options.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    return options


@pytest.mark.parametrize("command, func", [
    ("build", cli.cmd_build), ("eval", cli.cmd_eval), ("verify", cli.cmd_verify),
    ("soliton", cli.cmd_soliton), ("frames", cli.cmd_frames),
])
def test_subcommand_defaults(command, func):
    args = vars(cli.build_parser().parse_args([command, "--input", "doc.json"]))
    assert args.pop("func") is func
    grid = {"x": (0.0, 10.0, 201), "t": (0.0, 2.0, 101)} if command != "build" else {}
    extra = {"eval": {"format": "csv"}, "soliton": {"format": "csv"},
             "verify": {"horizon": None}}.get(command, {})
    assert args == {"command": command, "input": "doc.json", "output": None, "eta": None,
                    **grid, **extra}


def test_readme_synopsis_lists_every_option():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: {s for a in sp._actions for s in a.option_strings
                     if s.startswith("--") and s != "--help"}
              for name, sp in commands.items()}
    assert _readme_synopsis() == parsed


def test_main_builds_the_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    helps = []
    real = argparse.ArgumentParser.add_subparsers   # called once per parser build
    with mock.patch.object(argparse.ArgumentParser, "add_subparsers", autospec=True,
                           side_effect=real) as made:
        for _ in range(2):
            assert main(["build", "--input", src, "--output", str(tmp_path / "out.json")]) == 0
            with pytest.raises(SystemExit):
                main(["eval", "--help"])
            helps.append(capsys.readouterr().out)
    assert made.call_count == 1
    assert helps[0] == helps[1] and helps[0].startswith("usage: kdvexact eval")


def test_soliton_subcommand(tmp_path, capsys):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    rc, out = run_to_file(tmp_path, ["soliton", "--input", src,
                                     "--x", "0:3:4", "--t", "0:0.2:3"], "grid.csv")
    err = capsys.readouterr().err
    assert rc == 0
    assert "soliton determinant deviation" in err
    lines = out.read_text().splitlines()
    assert lines[0] == "x,t,u,detGamma,flag"
    assert lines[1] == "0.0,0.0,-2.0,2.0,ok"

    bad = write_doc(tmp_path, THREE_BLOCK_DOC, "mixed.json")
    assert main(["soliton", "--input", bad]) == 2
    assert "bound-states-only" in capsys.readouterr().err


def test_soliton_check_above_the_bound_state_cap_is_bad_input(tmp_path, capsys):
    src = write_doc(tmp_path, THIRTEEN_STATES_DOC)
    small = ["--x", "4:8:3", "--t", "0:0.1:2"]   # every point ok, so the check is reached
    assert main(["soliton", "--input", src] + small) == 2
    assert capsys.readouterr().err == (
        "error: the soliton check takes at most 12 bound states (2^N terms per point), got 13\n")
    rc, out = run_to_file(tmp_path, ["verify", "--input", src] + small, "report.json")
    by_name = {c["name"]: c for c in json.loads(out.read_text())["perCheckStatus"]}
    assert rc == 4 and by_name["solitonEquivalence"]["passed"] is False
    assert by_name["solitonEquivalence"]["detail"] == (
        "unsupported: the soliton check takes at most 12 bound states (2^N terms per point), "
        "got 13")


def test_soliton_rejects_a_spec_above_the_cap_before_sampling(tmp_path, capsys, monkeypatch):
    def evaluate(*args, **kwargs):
        raise AssertionError("the grid was sampled before the spec was checked")

    monkeypatch.setattr(solution.GammaEvaluator, "evaluate", evaluate)
    assert main(["soliton", "--input", write_doc(tmp_path, THIRTEEN_STATES_DOC)]) == 2
    assert capsys.readouterr().err == (
        "error: the soliton check takes at most 12 bound states (2^N terms per point), got 13\n")


@pytest.mark.parametrize("command", ["verify", "soliton"])
def test_one_lyapunov_solve_per_run(tmp_path, capsys, monkeypatch, command):
    calls = []
    solve = linalg.lyapunov_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linalg, "lyapunov_solve", counted)
    src = write_doc(tmp_path, THREE_BOUND_DOC)
    rc, _ = run_to_file(tmp_path, [command, "--input", src, "--x", "0:3:7", "--t", "0:0.2:3"])
    assert rc == 0 and len(calls) == 1


@pytest.mark.parametrize("doc, eta, named", [
    (THREE_BOUND_DOC, ["--eta", "1e308"], "eta=1e+308 and max |A| = 0.9"),
    ({"rawTriplet": {"A": [[1e103]], "B": [1.0], "C": [2.0]}}, [], "eta=0.0 and max |A| = 1e+103"),
], ids=["three-bound-eta", "raw-triplet-cubed"])
@pytest.mark.parametrize("command", ["eval", "verify"])
def test_non_finite_flow_exits_2_without_warning(tmp_path, capsys, doc, eta, named, command):
    argv = [command, "--input", write_doc(tmp_path, doc), "--x", "0:1:3", "--t", "0:0.1:2"] + eta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: flow 8 A^3 + 2 eta A is not finite for {named}\n")


_FLOW_FAULT = "error: flow 8 A^3 + 2 eta A is not finite for eta=0.0 and max |A| = 1.7e+308\n"


@pytest.mark.parametrize("command, doc, rc, err", [
    ("build", {"boundStates": [{"kappa": 1.7e308, "c": 1.0}]}, 0, ""),
    ("build", {"imagPoles": [{"omega": 1.7e308, "r": [1.0]}]}, 0, ""),
    ("eval", {"rawTriplet": {"A": [[1.7e308]], "B": [1.0], "C": [1.0]}}, 2, _FLOW_FAULT),
    ("frames", {"complexPoles": [{"alpha": 1.0, "beta": 1.7e308,
                                  "coeffs": [{"eps": 1.0, "gamma": 0.0}]}]}, 2, _FLOW_FAULT),
    ("build", {"complexPoles": [{"alpha": 1.0, "beta": 1.0,
                                 "coeffs": [{"eps": 1e308, "gamma": 0.0}]}]},
     2, "error: B and C entries must be finite\n"),
    ("eval", {"complexPoles": [{"alpha": 1.0, "beta": 1.0,
                                "coeffs": [{"eps": 0.0, "gamma": -9.5e307}]}]},
     2, "error: B and C entries must be finite\n"),
    ("verify", {"rawTriplet": {"A": [[0.3]], "B": [1.7e308], "C": [2.0]}}, 2,
     "error: B C is not finite: max |B| = 1.7e+308 and max |C| = 2\n"),
], ids=["kappa", "omega", "raw-a", "beta", "eps", "gamma", "raw-bc"])
def test_extreme_finite_input_leaks_no_warning(tmp_path, capsys, command, doc, rc, err):
    argv = [command, "--input", write_doc(tmp_path, doc), "--output", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ([] if command == "build" else ["--x", "0:1:3", "--t", "0:0.1:2"])) == rc
    assert capsys.readouterr().err == err
    if command == "build" and rc == 0:
        out = json.loads((tmp_path / "out").read_text())
        assert out["valid"] and out["flags"] == []


@pytest.mark.parametrize("doc, omega_detail", [
    ({"boundStates": [{"kappa": 1.0, "c": 1e300}]}, None),
    ({"imagPoles": [{"omega": 2.0, "r": [4.75e307]}]},
     "unsupported: quadrature error estimate nan or its rounding estimate inf is not finite"),
    ({"complexPoles": [{"alpha": 1.0, "beta": 1.0, "coeffs": [{"eps": 4e307, "gamma": 0.0}]}]},
     "unsupported: non-finite integrand in the adaptive quadrature"),
], ids=["marchenko-tail", "fourier-sums", "fourier-integrand"])
def test_verify_on_extreme_finite_input_leaks_no_warning(tmp_path, capsys, doc, omega_detail):
    # start / MARCHENKO_TAIL_FLOOR overflows on each: the tail cut then comes
    # from log(start), and the Marchenko residual is a number, not a NaN-node failure
    src = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_to_file(tmp_path, ["verify", "--input", src, "--x", "0:3:4",
                                         "--t", "0:1:3"], "report.json")
    checks = {c["name"]: c for c in json.loads(out.read_text())["perCheckStatus"]}
    assert rc == 4 and capsys.readouterr().err == ""
    march = checks["marchenkoResidual"]
    assert march["detail"] == "12 seeded points" and 1e280 < march["measured"] < math.inf
    if omega_detail is None:
        assert all(c["passed"] for name, c in checks.items() if name != "marchenkoResidual")
    else:
        assert checks["omegaQuadratureCheck"]["detail"] == omega_detail


@pytest.mark.parametrize("window, horizon, scanned", [
    (["--x", "0:1e300:3"], 1.0, "x <= 1e+300, t <= 1.0"),
    (["--t", "0:1e300:3"], 1e300, "x <= 3.0, t <= 1e+300"),
    (["--horizon", "1e300"], 1e300, "x <= 3.0, t <= 1e+300"),
    (["--horizon", "1.7e308"], 1.7e308, "x <= 3.0, t <= 1.7e+308"),
], ids=["x", "t", "horizon", "horizon-near-float-max"])
def test_positivity_grid_above_budget_is_unsupported(tmp_path, capsys, window, horizon, scanned):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_to_file(tmp_path, ["verify", "--input", src, "--x", "0:3:4",
                                         "--t", "0:1:3"] + window, "report.json")
    report = json.loads(out.read_text())
    assert rc == 4 and capsys.readouterr().err == "" and report["positivityWindow"] is None
    assert report["perCheckStatus"][0] == {
        "name": "positivityScan", "passed": False, "measured": None,
        "tolerance": horizon,
        "detail": f"unsupported: positivity scan over {scanned} needs more than 10000000 "
                  "grid points"}


def test_frames_directory_layout(tmp_path):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    outdir = tmp_path / "frames"
    rc = main(["frames", "--input", src, "--x", "0:2:3", "--t", "0:0.2:3",
               "--output", str(outdir)])
    assert rc == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["frame_0000.csv", "frame_0001.csv", "frame_0002.csv"]

    ev = make_evaluator(build_triplet(
        ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))))
    lines = (outdir / "frame_0001.csv").read_text().splitlines()
    assert lines[0] == "x,u"
    x, u = lines[1].split(",")
    assert float(x) == 0.0 and float(u) == ev.u(0.0, 0.1)

    # every file equals the per-cell writer over sample_grid, flagged (nan) cells included
    outdir = tmp_path / "flagged"
    rc = main(["frames", "--input", write_doc(tmp_path, THREE_BLOCK_DOC, "three.json"),
               "--x", "0:4:9", "--t", "0:0.3:4", "--output", str(outdir)])
    assert rc == 0
    grid = solution.sample_grid(make_evaluator(build_triplet(helpers.three_block_spec())),
                                np.linspace(0.0, 4.0, 9), np.linspace(0.0, 0.3, 4))
    assert 0 < np.count_nonzero(grid.flags == "ok") < grid.flags.size
    assert sorted(p.name for p in outdir.iterdir()) == [f"frame_{i:04d}.csv" for i in range(4)]
    for i in range(grid.t.size):
        assert ((outdir / f"frame_{i:04d}.csv").read_bytes()
                == helpers.frame_csv_per_cell(grid.x, grid.u[i]).encode())


def test_frames_single_t_and_missing_output(tmp_path, capsys):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    outdir = tmp_path / "one"
    rc = main(["frames", "--input", src, "--t", "0.5:0.5:1", "--x", "0:1:2",
               "--output", str(outdir)])
    assert rc == 0
    assert [p.name for p in outdir.iterdir()] == ["frame_0000.csv"]

    assert main(["frames", "--input", src, "--t", "0:1:2"]) == 2
    assert "needs --output" in capsys.readouterr().err


def test_frames_into_a_reused_directory_holds_this_run_alone(tmp_path):
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    outdir = tmp_path / "missing" / "parents" / "frames"   # the first run makes all three
    assert main(["frames", "--input", src, "--x", "0:1:3", "--t", "0:0.1:5",
                 "--output", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [f"frame_{i:04d}.csv" for i in range(5)]
    for name in ("notes.txt", "frame_0003.txt", "frame_12345.csv"):   # the last is stale too
        (outdir / name).write_text("x,u\n")
    assert main(["frames", "--input", src, "--x", "0:1:3", "--t", "0:0.1:2",
                 "--output", str(outdir)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "frame_0000.csv", "frame_0001.csv", "frame_0003.txt", "notes.txt"]
    ev = make_evaluator(build_triplet(ScatteringSpec(bound_states=(BoundState(1.0, 2.0),))))
    grid = solution.sample_grid(ev, np.linspace(0.0, 1.0, 3), [0.0, 0.1])
    for i in range(2):
        assert ((outdir / f"frame_{i:04d}.csv").read_bytes()
                == helpers.frame_csv_per_cell(grid.x, grid.u[i]).encode())


@pytest.mark.parametrize("command, grid", [
    ("eval", ["--x", "0:1:100000000000", "--t", "0:0:1"]),
    ("soliton", ["--x", "0:1:100000000000", "--t", "0:0:1"]),
    ("frames", ["--t", "0:1:100000000000"]),
])
def test_grid_above_the_point_cap_is_refused_before_allocation(tmp_path, capsys, command, grid):
    # 10^11 points would need about 745 GiB for one axis alone
    nx, nt = (100000000000, 1) if command != "frames" else (201, 100000000000)
    assert main([command, "--input", write_doc(tmp_path, ONE_SOLITON_DOC),
                 "--output", str(tmp_path / "out")] + grid) == 2
    assert capsys.readouterr().err == (
        f"error: grid of {nx} x values by {nt} t values exceeds 10000000 points\n")
    assert not (tmp_path / "out").exists()


def test_malformed_documents_exit_2(tmp_path, capsys):
    bad_docs = [
        '{"boundStates": [{"kappa": 1}]}',
        '{"rawTriplet": {"A": [[1, 0]], "B": [1], "C": [1]}}',
        '[1, 2, 3]',
        'not json at all',
    ]
    for i, text in enumerate(bad_docs):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        rc = main(["eval", "--input", str(path)])
        err = capsys.readouterr().err
        assert rc == 2, text
        assert "error:" in err and "Traceback" not in err


_BEYOND_FLOAT = "1" + "0" * 400      # parses to an int that float() cannot hold
_BEYOND_INT_DIGITS = "1" + "0" * 5000  # beyond the interpreter's int parsing limit


@pytest.mark.parametrize("text, message", [
    ('{"eta": %s, "boundStates": [{"kappa": 1.0, "c": 2.0}]}' % _BEYOND_FLOAT,
     "$.eta: expected a finite number"),
    ('{"boundStates": [{"kappa": %s, "c": 2.0}]}' % _BEYOND_FLOAT,
     "$.boundStates[0].kappa: expected a finite number"),
    ('{"rawTriplet": {"A": [[%s]], "B": [1.0], "C": [2.0]}}' % _BEYOND_FLOAT,
     "$.rawTriplet.A[0][0]: expected a finite number"),
    ('{"eta": %s, "boundStates": [{"kappa": 1.0, "c": 2.0}]}' % _BEYOND_INT_DIGITS,
     "$: not valid JSON"),
], ids=["eta", "kappa", "raw-triplet", "int-digit-limit"])
@pytest.mark.parametrize("command", ["build", "eval"])
def test_huge_integer_literal_exits_2(tmp_path, capsys, command, text, message):
    src = tmp_path / "huge.json"
    src.write_text(text)
    rc = main([command, "--input", str(src), "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err[:200]
    assert "Traceback" not in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["eval", "--input", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "cannot read input" in capsys.readouterr().err


class FailingStream(io.StringIO):
    """A stdout whose write or flush raises OSError(errno)."""

    def __init__(self, method: str, errno_: int):
        super().__init__()
        self.method, self.errno = method, errno_

    def _check(self, method):
        if method == self.method:
            raise OSError(self.errno, os.strerror(self.errno))

    def write(self, text):
        self._check("write")
        return super().write(text)

    def flush(self):
        self._check("flush")
        super().flush()


_SMALL_GRID = ["--x", "0:1:2", "--t", "0:1:2"]


@pytest.mark.parametrize("argv", [
    ["build"], ["eval", *_SMALL_GRID], ["eval", "--format", "structured-document", *_SMALL_GRID],
    ["verify", "--x", "0:1:3", "--t", "0:0.5:3"], ["soliton", *_SMALL_GRID],
], ids=["build", "eval-csv", "eval-structured-document", "verify", "soliton"])
@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("errno_", [errno.EPIPE, errno.ENOSPC], ids=["EPIPE", "ENOSPC"])
def test_failed_stdout_write_exits_2(tmp_path, capsys, monkeypatch, argv, method, errno_):
    monkeypatch.setattr(sys, "stdout", FailingStream(method, errno_))
    assert main(argv + ["--input", write_doc(tmp_path, ONE_SOLITON_DOC)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write output: [Errno {errno_}] {os.strerror(errno_)}\n")


_PATH_WRITER_RUNS = {
    "eval-csv": ["eval", "--x", "0:4:9", "--t", "0:0.3:4"],
    "eval-structured-document": ["eval", "--format", "structured-document",
                                 "--x", "0:4:9", "--t", "0:0.3:4"],
    "build": ["build"],
    "verify": ["verify", "--x", "0:1:3", "--t", "0:0.5:3"],
    "frames": ["frames", "--x", "0:4:9", "--t", "0:0.3:4"],
}


def _output_bytes(path: Path) -> list:
    """Each output file's bytes: the one file, or a directory's files by name."""
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    return [(f.name if path.is_dir() else "", f.read_bytes()) for f in files]


@pytest.mark.parametrize("argv", _PATH_WRITER_RUNS.values(), ids=_PATH_WRITER_RUNS)
def test_path_writer_finishes_short_writes(tmp_path, monkeypatch, argv):
    src = write_doc(tmp_path, THREE_BLOCK_DOC)
    assert main(argv + ["--input", src, "--output", str(tmp_path / "whole")]) in (0, 4)
    calls = []

    class SevenBytes(io.FileIO):   # the raw file takes at most 7 bytes per write
        def write(self, data):
            calls.append(len(data))
            return super().write(data[:7])

    class ShortPathWriter(cli._PathWriter, SevenBytes):
        pass

    monkeypatch.setattr(cli, "_PathWriter", ShortPathWriter)
    assert main(argv + ["--input", src, "--output", str(tmp_path / "short")]) in (0, 4)
    assert _output_bytes(tmp_path / "short") == _output_bytes(tmp_path / "whole")
    assert max(calls) > 7 and len(calls) >= sum(len(data) for _, data in
                                                 _output_bytes(tmp_path / "whole")) / 7


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("argv", [_PATH_WRITER_RUNS[k] for k in (
    "eval-csv", "eval-structured-document", "build", "verify")],
    ids=["eval-csv", "eval-structured-document", "build", "verify"])
def test_full_output_path_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--input", write_doc(tmp_path, THREE_BLOCK_DOC),
                        "--output", "/dev/full"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_undecodable_input_exits_2(tmp_path, capsys, command):
    src = tmp_path / "bad.json"
    src.write_bytes(b"\xff\xfe{}")
    assert main([command, "--input", str(src), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read input: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_full_or_closed_stdout_exits_2_in_a_fresh_interpreter(tmp_path):
    # the only stderr line is the error: nothing at interpreter exit flushes the
    # failed stdout again. The ~1 MB CSV and structured document outgrow the pipe's
    # buffer, so a read end closed after one read makes a later write fail.
    for fmt, first in (("csv", "x"), ("structured-document", "{")):
        argv = [sys.executable, "-c", "import sys; from kdvexact.cli import main; sys.exit(main())",
                "eval", "--input", write_doc(tmp_path, ONE_SOLITON_DOC), "--format", fmt]
        with open("/dev/full", "w") as full:
            out = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                 env=fresh_env())
        assert (out.returncode, out.stderr) == (
            2, "error: cannot write output: [Errno 28] No space left on device\n"), fmt
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=fresh_env()) as proc:
            assert proc.stdout.read(1) == first
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (
            2, "error: cannot write output: [Errno 32] Broken pipe\n"), fmt


def test_console_script_smoke(tmp_path):
    script = shutil.which("kdvexact")
    cmd = [script] if script else [sys.executable, "-m", "kdvexact.cli"]
    src = write_doc(tmp_path, ONE_SOLITON_DOC)
    out = subprocess.run(
        cmd + ["eval", "--input", src, "--x", "0:1:2", "--t", "0:0:1"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines()[1] == "0.0,0.0,-2.0,2.0,ok"


_IMPORT_FOOTPRINT_SCRIPT = """
import json, sys
import numpy, scipy.linalg

def integrate_modules():
    return {m for m in sys.modules if m == "scipy.integrate" or m.startswith("scipy.integrate.")}

baseline = integrate_modules()
from kdvexact import cli
readme, soliton, out = sys.argv[1:4]
grid = ["--x", "0:1:3", "--t", "0:0.1:2"]
codes = [cli.main(["build", "--input", readme, "--output", out + "/triplet.json"]),
         cli.main(["eval", "--input", readme, "--output", out + "/grid.csv"] + grid),
         cli.main(["frames", "--input", readme, "--output", out + "/frames"] + grid),
         cli.main(["soliton", "--input", soliton, "--output", out + "/soliton.csv"] + grid),
         cli.main(["verify", "--input", readme, "--output", out + "/report.json"])]
report = json.load(open(out + "/report.json"))
print(json.dumps({"codes": codes, "added": sorted(integrate_modules() - baseline),
                  "omega": report["omegaQuadratureError"]}))
"""


def write_readme_doc(tmp_path) -> str:
    """The README's JSON document, written to tmp_path/readme.json."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    readme_doc = tmp_path / "readme.json"
    readme_doc.write_text(re.search(r"^```json\n(.*?)^```", readme, re.M | re.S).group(1))
    return str(readme_doc)


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports kdvexact from this checkout."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports kdvexact from this checkout."""
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=fresh_env())


def test_no_subcommand_loads_scipy_integrate(tmp_path):
    out = run_fresh(_IMPORT_FOOTPRINT_SCRIPT, write_readme_doc(tmp_path),
                    write_doc(tmp_path, ONE_SOLITON_DOC), str(tmp_path))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    # the README document fails two of verify's checks on its default windows (exit 4)
    assert got["codes"] == [0, 0, 0, 0, 4]
    assert got["added"] == []
    assert math.isfinite(got["omega"])


_SCIPY_SCRIPT = """
import json, sys
from kdvexact import cli

runs = []
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    runs.append([rc, sorted({".".join(m.split(".")[:2]) for m in sys.modules
                             if m.split(".")[0] == "scipy"})])
print(json.dumps(runs))
"""

SEVEN_POLE_DOC = {"rawTriplet": {"A": np.diag(np.linspace(0.5, 1.1, 7)).tolist(),
                                 "B": [1.0] * 7, "C": [0.1] * 7}}


def scipy_runs(argvs) -> list:
    """[exit code, scipy packages loaded yet] after each argv, in one fresh interpreter."""
    out = run_fresh(_SCIPY_SCRIPT, json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_grid_subcommands_up_to_six_poles_leave_scipy_linalg_unloaded(tmp_path):
    # verify included: up to six poles no subcommand loads any scipy module
    docs = {"readme": write_readme_doc(tmp_path),
            "library": write_doc(tmp_path, THREE_BLOCK_DOC, "library.json"),
            "three-bound": write_doc(tmp_path, THREE_BOUND_DOC, "three.json"),
            "raw": write_doc(tmp_path, {"rawTriplet": {"A": [[1.0]], "B": [1.0], "C": [2.0]}},
                             "raw.json")}
    grid = ["--x", "0:1:3", "--t", "0:0.1:2"]
    argvs = []
    for name, doc in docs.items():
        out = str(tmp_path / name)
        argvs += [["build", "--input", doc, "--output", out + ".triplet.json"],
                  ["eval", "--input", doc, "--output", out + ".csv"] + grid,
                  ["frames", "--input", doc, "--output", out + "-frames"] + grid,
                  ["soliton", "--input", doc, "--output", out + ".soliton.csv"] + grid,
                  ["verify", "--input", doc, "--output", out + ".report.json"]]
    runs = scipy_runs(argvs)
    # build rejects a raw triplet and soliton anything but bound states (exit 2); on
    # their default windows verify fails checks of the README documents and of
    # three-bound (exit 4)
    assert [rc for rc, _ in runs] == [0, 0, 0, 2, 4] * 2 + [0, 0, 0, 0, 4] + [2, 0, 0, 2, 0]
    assert all(loaded == [] for _, loaded in runs)
    seven = scipy_runs([["eval", "--input", write_doc(tmp_path, SEVEN_POLE_DOC),
                         "--output", str(tmp_path / "seven.csv")] + grid])
    assert seven[0][0] == 0 and "scipy.linalg" in seven[0][1]


_NUMPY_MA_SCRIPT = """
import json, sys
import numpy

def loaded():
    return {m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"] or m.startswith("scipy")}

baseline = loaded()   # numpy below 2 loads numpy.ma in its own import
from kdvexact import cli
readme, out = sys.argv[1:3]
codes = [cli.main([cmd, "--input", readme, "--output", f"{out}/{cmd}.out"])
         for cmd in ("eval", "frames", "verify")]
print(json.dumps({"codes": codes, "added": sorted(loaded() - baseline)}))
"""


def test_readme_document_runs_load_neither_numpy_ma_nor_scipy(tmp_path):
    # np.unique loads numpy.ma on numpy 2; nothing on the P <= 6 path may call it
    out = run_fresh(_NUMPY_MA_SCRIPT, write_readme_doc(tmp_path), str(tmp_path))
    assert out.returncode == 0, out.stderr
    # verify fails two checks of the README document on its default windows (exit 4)
    assert json.loads(out.stdout) == {"codes": [0, 0, 4], "added": []}


_PER_POINT_ROUTES_SCRIPT = """
import json, sys
import numpy as np
from kdvexact import Triplet, make_evaluator

runs = []
for p in json.loads(sys.argv[1]):
    ev = make_evaluator(Triplet(A=np.diag(np.linspace(0.5, 1.1, p)), B=np.ones(p),
                                C=np.full(p, 0.1)))
    values = [ev.u_log_det(0.5, 0.1), ev.marchenko_kernel(0.5, 1.0, 0.1)]
    runs.append([values, "scipy.linalg" in sys.modules])
print(json.dumps(runs))
"""


def test_per_point_routes_up_to_six_poles_leave_scipy_linalg_unloaded():
    # u_log_det and the Marchenko kernel factor Gamma through the stacked LU,
    # which reaches LAPACK only for members wider than ELIMINATION_MAX_N
    out = run_fresh(_PER_POINT_ROUTES_SCRIPT, json.dumps([1, 3, linalg.ELIMINATION_MAX_N,
                                                          linalg.ELIMINATION_MAX_N + 1]))
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    assert all(math.isfinite(v) for values, _ in runs for v in values)
    assert [loaded for _, loaded in runs] == [False, False, False, True]
