"""Command-line surface.

Subcommands, one row each of the COMMANDS table: build (spec document
-> triplet document), eval (grid of u and det Gamma as CSV or a
structured document), verify (independent check suite -> report
document), soliton (bound-states-only grid plus det Gamma against
Hirota's tau-function), frames (one x,u file per t value). Exit codes:
0 success, 2 bad input (unreadable or undecodable too) or a failed write
to stdout or --output, 3 numerical failure (every grid point flagged
too), 4 verification failure.
Each subcommand but build works on one evaluator; the Fourier and soliton
checks read the spec from its triplet (None for a raw triplet).

Outputs are deterministic: identical input documents and flags give
byte-identical bytes (sorted JSON keys, shortest round-trip floats,
LF newlines, no timestamps).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import math
import os
import re
import sys

import numpy as np

from . import documents, realization, solution, verification
from .errors import NumericalError, SpecValidationError

DEFAULT_X = (0.0, 10.0, 201)
DEFAULT_T = (0.0, 2.0, 101)
MARCHENKO_SAMPLES = 12
MARCHENKO_SEED = 1729

# verify's fixed pass thresholds (positivityScan's is --horizon).
PDE_TOL = 1e-5          # max |PDE residual| on the stencil grid
MARCHENKO_TOL = 1e-8    # max |Marchenko residual| over the seeded samples
OMEGA_TOL = 1e-6        # max Fourier cross-check error
SOLITON_TOL = 1e-10     # N-soliton determinant deviation (verify and soliton)


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


# add_argument keywords shared by the COMMANDS table.
_NONNEG = dict(type=_nonneg_float, default=None)
_RANGE = dict(type=_parse_range, metavar="START:STOP:COUNT")
_GRID = {"--x": dict(_RANGE, default=DEFAULT_X, help="x range (default 0:10:201)"),
         "--t": dict(_RANGE, default=DEFAULT_T, help="t range (default 0:2:101)"),
         "--eta": dict(_NONNEG, help="override the document's transformation drift")}
_FORMAT = dict(choices=("csv", "structured-document"), default="csv")


def _read_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecValidationError(f"cannot read input: {exc}") from None
    return documents.loads_document(text)


@contextlib.contextmanager
def _output_errors():
    """Report an OSError from creating, writing or flushing output as "cannot write output"."""
    try:
        yield
    except OSError as exc:
        raise SpecValidationError(f"cannot write output: {exc}") from None


@contextlib.contextmanager
def _output(path: str | None):
    """The one writer: stdout (never closed) or path, flushed inside _output_errors."""
    with _output_errors(), (contextlib.nullcontext(sys.stdout) if path is None
                            else open(path, "w", encoding="utf-8", newline="")) as fh:
        yield fh
        fh.flush()


def _write_document(fh, doc: dict) -> None:
    """documents.dumps_document(doc) in pieces of io.DEFAULT_BUFFER_SIZE characters, as
    write_grid_csv writes a row at a time: one write larger than a pipe can hold may end
    short without an error when the reader goes, and the next piece's write raises it."""
    text = documents.dumps_document(doc)
    for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        fh.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


def _apply_eta(parsed, eta):
    return parsed if eta is None else dataclasses.replace(parsed, eta=eta)


def _evaluator_from_args(args) -> solution.GammaEvaluator:
    """Parse the input document and build its evaluator (a spec's triplet keeps the spec)."""
    parsed = documents.parse_input_document(_read_document(args.input))
    parsed = _apply_eta(parsed, args.eta)
    if isinstance(parsed, realization.ScatteringSpec):
        parsed = realization.build_triplet(parsed)
    return solution.make_evaluator(parsed)


def _sample(args, evaluator) -> solution.SolutionGrid:
    """Sample the --x/--t grid; NumericalError if every point is flagged."""
    x0, x1, nx = args.x
    t0, t1, nt = args.t
    grid = solution.sample_grid(evaluator, np.linspace(x0, x1, nx), np.linspace(t0, t1, nt))
    if np.any(grid.flags == solution.FLAG_OK):
        return grid
    labels = sorted(set(grid.flags.ravel().tolist()))   # not np.unique, which loads numpy.ma
    summary = ", ".join(f"{label}: {np.count_nonzero(grid.flags == label)}" for label in labels)
    raise NumericalError(f"every grid point is flagged ({summary})")


def _write_grid(args, grid: solution.SolutionGrid) -> None:
    with _output(args.output) as fh:
        if args.format == "structured-document":
            _write_document(fh, documents.grid_document(grid))
        else:
            documents.write_grid_csv(fh, grid)


def cmd_build(args) -> int:
    parsed = documents.parse_input_document(_read_document(args.input))
    if isinstance(parsed, realization.Triplet):
        raise SpecValidationError("build needs scattering data, not a raw triplet")
    spec = _apply_eta(parsed, args.eta)
    triplet = realization.build_triplet(spec)
    diagnostics = realization.validate_triplet(triplet)
    with _output(args.output) as fh:
        _write_document(fh, documents.triplet_document(triplet, diagnostics))
    return 0


def cmd_eval(args) -> int:
    _write_grid(args, _sample(args, _evaluator_from_args(args)))
    return 0


@dataclasses.dataclass
class _Verify:
    """What the verify checks share; each fills in its part of the report.

    t_cap is the end of the t range the PDE and Marchenko checks may
    sample: the --t stop, cut back by the positivity scan when it finds
    det Gamma <= 0.
    """

    args: argparse.Namespace
    evaluator: solution.GammaEvaluator
    t_cap: float
    report: dict


def _check_positivity(v: _Verify, horizon: float):
    window = verification.positivity_scan(v.evaluator, v.args.x[1], horizon)
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
    box_x = min(3.0, v.args.x[1])
    box_t = min(3.0, max(v.t_cap, 0.0))
    boxes = [box_x, box_x] + [box_t] * (box_t > 0.0)   # t = 0 takes no draw
    # in one call, each sample's x, y, t as uniform(0, box) draws them: 0 + box * random()
    rng = np.random.default_rng(MARCHENKO_SEED)
    draws = 0.0 + rng.random((MARCHENKO_SAMPLES, len(boxes))) * boxes
    x, y = np.sort(draws[:, :2], axis=1).T
    t = draws[:, 2] if box_t > 0.0 else np.zeros(MARCHENKO_SAMPLES)
    worst = float(np.max(np.abs(verification.marchenko_residual(v.evaluator, x, y, t))))
    v.report["marchenkoResidualMax"] = worst
    return worst <= tol, worst, f"{MARCHENKO_SAMPLES} seeded points"


def _check_omega(v: _Verify, tol: float):
    spec = v.evaluator.triplet.spec
    if spec is None:
        return None
    error = max(r.error for r in verification.omega_quadrature_check(spec, (0.5, 1.0, 2.0)))
    v.report["omegaQuadratureError"] = error
    return error <= tol, error, ""


def _check_soliton(v: _Verify, tol: float):
    spec = v.evaluator.triplet.spec
    if spec is None or not spec.is_bound_state_only:
        return None
    x0, x1, _ = v.args.x
    t0, t1, _ = v.args.t
    eq = verification.soliton_equivalence(v.evaluator, (x0, x1), (t0, t1), n_x=13, n_t=7)
    return eq.max_deviation <= tol, eq.max_deviation, ""


# verify's checks in report order: (name, threshold, runner, reason
# reported when the runner returns None); a threshold of None stands for
# --horizon. A runner returns (passed, measured, detail); a
# SpecValidationError or NumericalError from it fails the check as
# unsupported.
VERIFY_CHECKS = (
    ("positivityScan", None, _check_positivity, None),
    ("pdeResidual", PDE_TOL, _check_pde, None),
    ("marchenkoResidual", MARCHENKO_TOL, _check_marchenko, None),
    ("omegaQuadratureCheck", OMEGA_TOL, _check_omega,
     "raw triplet input, pole data unknown"),
    ("solitonEquivalence", SOLITON_TOL, _check_soliton,
     "not a bound-states-only spec"),
)


def cmd_verify(args) -> int:
    horizon = args.t[1] if args.horizon is None else args.horizon
    v = _Verify(args, _evaluator_from_args(args), t_cap=args.t[1], report=dict.fromkeys(
        ("pdeResidualMax", "pdeResidualGrid", "marchenkoResidualMax",
         "omegaQuadratureError", "positivityWindow")))
    checks = []
    for name, threshold, run, skip_reason in VERIFY_CHECKS:
        threshold = horizon if threshold is None else threshold
        try:
            outcome = run(v, threshold)
        except (SpecValidationError, NumericalError) as exc:
            outcome = (False, float("nan"), f"unsupported: {exc}")
        if outcome is None:
            outcome = (True, 0.0, f"skipped: {skip_reason}")
        passed, measured, detail = outcome
        measured = float(measured)
        checks.append({"name": name, "passed": passed,
                       "measured": measured if math.isfinite(measured) else None,
                       "tolerance": threshold, "detail": detail})
    passed = all(c["passed"] for c in checks)
    with _output(args.output) as fh:
        _write_document(fh, dict(v.report, passed=passed, perCheckStatus=checks))
    return 0 if passed else 4


def cmd_soliton(args) -> int:
    evaluator = _evaluator_from_args(args)
    verification._soliton_spec(evaluator)   # reject what the check cannot take before sampling
    grid = _sample(args, evaluator)
    x0, x1, nx = args.x
    t0, t1, nt = args.t
    eq = verification.soliton_equivalence(evaluator, (x0, x1), (t0, t1),
                                          n_x=min(nx, 26), n_t=min(nt, 11))
    _write_grid(args, grid)
    print(f"soliton determinant deviation {eq.max_deviation:.6e} "
          f"(threshold {SOLITON_TOL:.1e}) at x={eq.worst_point[0]!r}, "
          f"t={eq.worst_point[1]!r}", file=sys.stderr)
    return 0 if eq.max_deviation <= SOLITON_TOL else 4


def cmd_frames(args) -> int:
    if args.output is None:
        raise SpecValidationError("frames needs --output as a directory")
    grid = _sample(args, _evaluator_from_args(args))
    with _output_errors():
        os.makedirs(args.output, exist_ok=True)
    x_cells = [documents.format_float(x) for x in grid.x.tolist()]
    for i, us in enumerate(grid.u.tolist()):
        with _output(os.path.join(args.output, f"frame_{i:04d}.csv")) as fh:
            documents.write_frame_csv(fh, x_cells, us)
    with _output_errors():   # drop what a longer earlier run left: the directory holds this run
        for name in os.listdir(args.output):
            if re.fullmatch(r"frame_\d{4,}\.csv", name) and int(name[6:-4]) >= grid.t.size:
                os.remove(os.path.join(args.output, name))
    return 0


# Each subcommand: (help, handler, add_argument keywords of each option
# besides --input/--output, in --help order).
COMMANDS = {
    "build": ("assemble a triplet document from scattering data", cmd_build, {"--eta": _NONNEG}),
    "eval": ("evaluate u and det Gamma on a grid", cmd_eval, {**_GRID, "--format": _FORMAT}),
    "verify": ("run the independent check suite", cmd_verify, {**_GRID, "--horizon": dict(
        _NONNEG, help="positivity-scan time horizon (default: t range stop)")}),
    "soliton": ("bound-states-only grid plus determinant comparison", cmd_soliton,
                {**_GRID, "--format": _FORMAT}),
    "frames": ("write one x,u file per t value", cmd_frames, _GRID),
}


@functools.cache   # built once per process: main reuses it on every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kdvexact",
        description="Half-line KdV solutions from matrix triplets: build, "
                    "evaluate, and verify.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--input", required=True, help="input document path")
        sp.add_argument("--output", help="output path (default: stdout)")
        for flag, kwargs in options.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return p


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
