"""Command-line surface.

Subcommands: build (spec document -> triplet document), eval (grid of
u and det Gamma as CSV or a structured document), verify (independent
check suite -> report document), soliton (bound-states-only grid plus
the classical-matrix determinant comparison), frames (one x,u file per
t value). Exit codes: 0 success, 2 parse or validation failure, 3
numerical failure, 4 verification failure.

Outputs are deterministic: identical input documents and flags give
byte-identical bytes (sorted JSON keys, shortest round-trip floats,
LF newlines, no timestamps).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import documents, realization, solution, verification
from .errors import NumericalError, SpecValidationError

DEFAULT_X = (0.0, 10.0, 201)
DEFAULT_T = (0.0, 2.0, 101)
MARCHENKO_SAMPLES = 12
MARCHENKO_SEED = 1729
POSITIVITY_DENSITY = 8.0


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected START:STOP:COUNT, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {text!r}")
    if start < 0.0:
        raise argparse.ArgumentTypeError(f"range start must be >= 0, got {text!r}")
    if stop < start:
        raise argparse.ArgumentTypeError(f"range needs start <= stop, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"range needs count >= 1, got {text!r}")
    return start, stop, count


def _nonneg_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(v) or v < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number: {text!r}")
    return v


def _add_io(sp) -> None:
    sp.add_argument("--input", required=True, help="input document path")
    sp.add_argument("--output", help="output path (default: stdout)")


def _add_grid(sp) -> None:
    sp.add_argument("--x", type=_parse_range, default=DEFAULT_X,
                    metavar="START:STOP:COUNT", help="x range (default 0:10:201)")
    sp.add_argument("--t", type=_parse_range, default=DEFAULT_T,
                    metavar="START:STOP:COUNT", help="t range (default 0:2:101)")
    sp.add_argument("--eta", type=_nonneg_float, default=None,
                    help="override the document's transformation drift")


def _add_check_tols(sp) -> None:
    sp.add_argument("--tol-pde", type=float, default=1e-5,
                    help="PDE residual threshold")
    sp.add_argument("--tol-marchenko", type=float, default=1e-8,
                    help="integral-equation residual threshold")
    sp.add_argument("--tol-omega", type=float, default=1e-6,
                    help="Fourier cross-check threshold")
    sp.add_argument("--tol-soliton", type=float, default=1e-10,
                    help="N-soliton determinant deviation threshold")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kdvexact",
        description="Half-line KdV solutions from matrix triplets: build, "
                    "evaluate, and verify.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="assemble a triplet document from scattering data")
    _add_io(b)
    b.add_argument("--eta", type=_nonneg_float, default=None)
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="evaluate u and det Gamma on a grid")
    _add_io(e)
    _add_grid(e)
    e.add_argument("--format", choices=("csv", "structured-document"), default="csv")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run the independent check suite")
    _add_io(v)
    _add_grid(v)
    v.add_argument("--horizon", type=_nonneg_float, default=None,
                   help="positivity-scan time horizon (default: t range stop)")
    _add_check_tols(v)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("soliton", help="bound-states-only grid plus determinant comparison")
    _add_io(s)
    _add_grid(s)
    s.add_argument("--format", choices=("csv", "structured-document"), default="csv")
    s.add_argument("--tol-soliton", type=float, default=1e-10)
    s.set_defaults(func=cmd_soliton)

    f = sub.add_parser("frames", help="write one x,u file per t value")
    _add_io(f)
    _add_grid(f)
    f.set_defaults(func=cmd_frames)
    return p


def _read_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecValidationError(f"cannot read input: {exc}") from None
    return documents.loads_document(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _apply_eta(parsed, eta):
    if eta is None:
        return parsed
    if isinstance(parsed, realization.Triplet):
        return realization.Triplet(A=parsed.A, B=parsed.B, C=parsed.C, eta=eta)
    return dataclasses.replace(parsed, eta=eta)


def _evaluator_from_args(args):
    """Parse the input document and build (spec or None, evaluator)."""
    parsed = documents.parse_input_document(_read_document(args.input))
    parsed = _apply_eta(parsed, args.eta)
    if isinstance(parsed, realization.ScatteringSpec):
        spec = parsed
        triplet = realization.build_triplet(spec)
    else:
        spec = None
        triplet = parsed
    return spec, solution.make_evaluator(triplet)


def _sample(args, evaluator) -> solution.SolutionGrid | None:
    """Sample the --x/--t grid; None, after a note on stderr, if every point is flagged."""
    x0, x1, nx = args.x
    t0, t1, nt = args.t
    grid = solution.sample_grid(evaluator, np.linspace(x0, x1, nx), np.linspace(t0, t1, nt))
    if np.any(grid.flags == solution.FLAG_OK):
        return grid
    labels, counts = np.unique(grid.flags, return_counts=True)
    summary = ", ".join(f"{label}: {count}" for label, count in zip(labels, counts))
    print(f"every grid point is flagged ({summary})", file=sys.stderr)
    return None


def _write_grid(args, grid: solution.SolutionGrid) -> None:
    if getattr(args, "format", "csv") == "structured-document":
        _write_text(args.output, documents.dumps_document(documents.grid_document(grid)))
        return
    if args.output is None:
        documents.write_grid_csv(sys.stdout, grid)
        return
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        documents.write_grid_csv(fh, grid)


def cmd_build(args) -> int:
    parsed = documents.parse_input_document(_read_document(args.input))
    if isinstance(parsed, realization.Triplet):
        raise SpecValidationError("build needs scattering data, not a raw triplet")
    spec = _apply_eta(parsed, args.eta)
    triplet = realization.build_triplet(spec)
    diagnostics = realization.validate_triplet(triplet)
    _write_text(args.output, documents.dumps_document(
        documents.triplet_document(triplet, diagnostics)))
    return 0


def cmd_eval(args) -> int:
    _, evaluator = _evaluator_from_args(args)
    grid = _sample(args, evaluator)
    if grid is None:
        return 3
    _write_grid(args, grid)
    return 0


@dataclasses.dataclass
class _Verify:
    """What the verify checks share; each fills in its part of the report.

    t_cap is the end of the t range the PDE and Marchenko checks may
    sample: the --t stop, cut back by the positivity scan when it finds
    det Gamma <= 0.
    """

    args: argparse.Namespace
    spec: realization.ScatteringSpec | None
    evaluator: solution.GammaEvaluator
    t_cap: float
    report: dict


def _check_positivity(v: _Verify, horizon: float):
    window = verification.positivity_scan(v.evaluator, v.args.x[1], horizon,
                                          samples_per_unit=POSITIVITY_DENSITY)
    if window.certified:
        detail = "det Gamma > 0 certified on the scan grid"
    elif window.overflow_frontier is not None:
        detail = f"scan truncated by overflow at t={window.overflow_frontier!r}"
    else:
        fx, ft, fdet = window.first_failure
        detail = f"det Gamma = {fdet!r} at x={fx!r}, t={ft!r}"
    v.report["positivityWindow"] = {
        "tauLower": window.tau_lower,
        "tauIsInfiniteUpTo": horizon if window.certified else None,
        "certified": window.certified,
        "firstFailure": (list(window.first_failure)
                         if window.first_failure is not None else None),
        "overflowFrontier": window.overflow_frontier,
    }
    if not window.certified:
        v.t_cap = min(v.t_cap, 0.9 * window.tau_lower)
    return window.certified, window.tau_lower, detail


def _check_pde(v: _Verify, tol: float):
    x0, x1, _ = v.args.x
    t0 = v.args.t[0]
    if v.t_cap < t0:
        raise SpecValidationError(
            f"positivity window t < {v.t_cap!r} excludes the configured t range")
    scan = verification.pde_residual(v.evaluator, (x0, x1), (t0, v.t_cap), n_x=7, n_t=3)
    v.report["pdeResidualMax"] = scan.max_abs
    v.report["pdeResidualGrid"] = {
        "xWindow": [float(scan.x[0]), float(scan.x[-1])],
        "tWindow": [float(scan.t[0]), float(scan.t[-1])],
        "nX": int(scan.x.size), "nT": int(scan.t.size),
        "hX": scan.h_x, "hT": scan.h_t,
    }
    return scan.max_abs <= tol, scan.max_abs, ""


def _check_marchenko(v: _Verify, tol: float):
    rng = np.random.default_rng(MARCHENKO_SEED)
    box_x = min(3.0, v.args.x[1])
    box_t = min(3.0, max(v.t_cap, 0.0))
    samples = []
    for _ in range(MARCHENKO_SAMPLES):
        x, y = np.sort(rng.uniform(0.0, box_x, size=2))
        t = rng.uniform(0.0, box_t) if box_t > 0.0 else 0.0
        samples.append((x, y, t))
    x, y, t = np.array(samples).T
    worst = float(np.max(np.abs(verification.marchenko_residual(v.evaluator, x, y, t))))
    v.report["marchenkoResidualMax"] = worst
    return worst <= tol, worst, f"{MARCHENKO_SAMPLES} seeded points"


def _check_omega(v: _Verify, tol: float):
    if v.spec is None:
        return None
    error = max(r.error for r in verification.omega_quadrature_check(v.spec, (0.5, 1.0, 2.0)))
    v.report["omegaQuadratureError"] = error
    return error <= tol, error, ""


def _check_soliton(v: _Verify, tol: float):
    if v.spec is None or not v.spec.is_bound_state_only:
        return None
    x0, x1, _ = v.args.x
    t0, t1, _ = v.args.t
    eq = verification.soliton_equivalence(
        v.spec.bound_states, v.spec.eta, (x0, x1), (t0, t1), n_x=13, n_t=7)
    return eq.max_deviation <= tol, eq.max_deviation, ""


# verify's checks in report order: (name, option holding the threshold,
# runner, reason reported when the runner returns None). A runner
# returns (passed, measured, detail); a SpecValidationError or
# NumericalError from it fails the check as unsupported.
VERIFY_CHECKS = (
    ("positivityScan", "horizon", _check_positivity, None),
    ("pdeResidual", "tol_pde", _check_pde, None),
    ("marchenkoResidual", "tol_marchenko", _check_marchenko, None),
    ("omegaQuadratureCheck", "tol_omega", _check_omega,
     "raw triplet input, pole data unknown"),
    ("solitonEquivalence", "tol_soliton", _check_soliton,
     "not a bound-states-only spec"),
)


def cmd_verify(args) -> int:
    spec, evaluator = _evaluator_from_args(args)
    if args.horizon is None:  # the positivity check's threshold
        args.horizon = args.t[1]
    v = _Verify(args, spec, evaluator, t_cap=args.t[1], report=dict.fromkeys(
        ("pdeResidualMax", "pdeResidualGrid", "marchenkoResidualMax",
         "omegaQuadratureError", "positivityWindow")))
    checks = []
    for name, option, run, skip_reason in VERIFY_CHECKS:
        threshold = getattr(args, option)
        try:
            outcome = run(v, threshold)
        except (SpecValidationError, NumericalError) as exc:
            outcome = (False, float("nan"), f"unsupported: {exc}")
        if outcome is None:
            outcome = (True, 0.0, f"skipped: {skip_reason}")
        passed, measured, detail = outcome
        checks.append(verification.CheckResult(name, passed, measured, threshold, detail))
    report = verification.VerificationReport(tuple(checks))
    doc = dict(v.report, passed=report.passed, perCheckStatus=[_check_doc(c) for c in checks])
    _write_text(args.output, documents.dumps_document(doc))
    return 0 if report.passed else 4


def _check_doc(check: verification.CheckResult) -> dict:
    measured = float(check.measured)
    return {
        "name": check.name,
        "passed": check.passed,
        "measured": measured if math.isfinite(measured) else None,
        "tolerance": check.threshold,
        "detail": check.detail,
    }


def cmd_soliton(args) -> int:
    spec, evaluator = _evaluator_from_args(args)
    if spec is None:
        raise SpecValidationError("soliton needs a scattering-data document")
    if not spec.is_bound_state_only:
        raise SpecValidationError(
            "soliton needs a bound-states-only spec (no reflection poles)")
    grid = _sample(args, evaluator)
    if grid is None:
        return 3
    x0, x1, nx = args.x
    t0, t1, nt = args.t
    eq = verification.soliton_equivalence(
        spec.bound_states, spec.eta, (x0, x1), (t0, t1),
        n_x=min(nx, 26), n_t=min(nt, 11))
    _write_grid(args, grid)
    print(f"soliton determinant deviation {eq.max_deviation:.6e} "
          f"(threshold {args.tol_soliton:.1e}) at x={eq.worst_point[0]!r}, "
          f"t={eq.worst_point[1]!r}", file=sys.stderr)
    return 0 if eq.max_deviation <= args.tol_soliton else 4


def cmd_frames(args) -> int:
    if args.output is None:
        raise SpecValidationError("frames needs --output as a directory")
    _, evaluator = _evaluator_from_args(args)
    grid = _sample(args, evaluator)
    if grid is None:
        return 3
    os.makedirs(args.output, exist_ok=True)
    for i in range(grid.t.size):
        path = os.path.join(args.output, f"frame_{i:04d}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            documents.write_frame_csv(fh, grid.x, grid.u[i])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
