"""Correctness gate: checks every op's outputs outside the timed region.

An op fails in a pass when its exit code is not 0, when its output does
not parse or has the wrong shape, when a flag is unknown or a flagged
point carries a u value, when u on a seeded subset of ok points differs
from the independent log-det route GammaEvaluator.u_log_det by more than
U_TOL * (1 + |u|), when its output bytes differ from the first pass's,
or when a verify report lacks one of the five checks. Everything but
the exit code is an output problem and makes the run incorrect; a
verify op whose report records a failed check exits with 4 and counts
as failed while its output stays correct.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kdvexact.errors import KdvExactError

FLAGS = ("ok", "near-singular", "overflow")
CHECK_NAMES = ("positivityScan", "pdeResidual", "marchenkoResidual",
               "omegaQuadratureCheck", "solitonEquivalence")
U_TOL = 1e-8
SUBSET = 200


class OutputError(Exception):
    """An output file that does not parse or has the wrong shape."""


@dataclass
class OpCheck:
    """What the gate found in one op's final output."""

    problems: list = field(default_factory=list)
    points: int = 0           # grid points written
    ok_points: int = 0
    checks_run: int = 0       # verify checks not skipped
    checks_passed: int = 0
    compared: int = 0         # ok points compared against u_log_det
    max_rel_du: float = 0.0


def axis(r) -> np.ndarray:
    """The CLI's grid axis for a START:STOP:COUNT range."""
    return np.linspace(r[0], r[1], r[2])


def read_grid_csv(path: Path, xs: np.ndarray, ts: np.ndarray):
    """Parse eval CSV into u and flag arrays shaped (len(ts), len(xs))."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "x,t,u,detGamma,flag" or lines[-1] != "":
        raise OutputError(f"{path.name}: bad header or missing final newline")
    rows = lines[1:-1]
    if len(rows) != xs.size * ts.size:
        raise OutputError(f"{path.name}: {len(rows)} rows, expected {xs.size * ts.size}")
    u = np.empty((ts.size, xs.size))
    flags = np.empty((ts.size, xs.size), dtype=object)
    for r, row in enumerate(rows):
        i, j = divmod(r, xs.size)
        cells = row.split(",")
        if len(cells) != 5:
            raise OutputError(f"{path.name}: row {r + 1} has {len(cells)} cells")
        try:
            x, t, u[i, j] = float(cells[0]), float(cells[1]), float(cells[2])
            float(cells[3])
        except ValueError:
            raise OutputError(f"{path.name}: row {r + 1} has a non-numeric cell") from None
        if x != xs[j] or t != ts[i]:
            raise OutputError(f"{path.name}: row {r + 1} is at ({x}, {t}), "
                              f"expected ({xs[j]}, {ts[i]})")
        flags[i, j] = cells[4]
    return u, flags


def read_frames(path: Path, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Parse a frames directory into u shaped (len(ts), len(xs))."""
    expected = [f"frame_{i:04d}.csv" for i in range(ts.size)]
    names = sorted(p.name for p in path.iterdir()) if path.is_dir() else []
    if names != expected:
        raise OutputError(f"{path.name}: {len(names)} frame files, expected {ts.size}")
    u = np.empty((ts.size, xs.size))
    for i, name in enumerate(expected):
        lines = (path / name).read_text(encoding="utf-8").split("\n")
        if lines[0] != "x,u" or lines[-1] != "" or len(lines) != xs.size + 2:
            raise OutputError(f"{name}: bad header, row count or final newline")
        for j, row in enumerate(lines[1:-1]):
            cells = row.split(",")
            try:
                x, u[i, j] = float(cells[0]), float(cells[1])
            except (ValueError, IndexError):
                raise OutputError(f"{name}: row {j + 1} does not parse") from None
            if len(cells) != 2 or x != xs[j]:
                raise OutputError(f"{name}: row {j + 1} is not the point x = {xs[j]}")
    return u


def subset(ok_index: np.ndarray, seed: int, op_index: int) -> np.ndarray:
    """Seeded choice of at most SUBSET ok points (flat indices), sorted."""
    rng = np.random.default_rng([seed, op_index])
    k = min(SUBSET, ok_index.size)
    return np.sort(rng.choice(ok_index, size=k, replace=False))


def _compare_log_det(check: OpCheck, evaluator, xs, ts, u, ok, seed, op_index) -> None:
    for flat in subset(np.flatnonzero(ok), seed, op_index):
        i, j = divmod(int(flat), xs.size)
        try:
            ref = evaluator.u_log_det(xs[j], ts[i])
        except KdvExactError as exc:
            check.problems.append(f"u_log_det raised at x={xs[j]!r}, t={ts[i]!r}: {exc}")
            return
        rel = abs(u[i, j] - ref) / (1.0 + abs(u[i, j]))
        check.compared += 1
        check.max_rel_du = max(check.max_rel_du, float(rel))
        if not rel <= U_TOL:
            check.problems.append(f"u = {u[i, j]!r} but u_log_det = {ref!r} "
                                  f"at x={xs[j]!r}, t={ts[i]!r}")
            return


def _check_report(check: OpCheck, path: Path, exit_code) -> None:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        passed = bool(doc["passed"])
        statuses = [(c["name"], bool(c["passed"]), str(c["detail"])) for c in doc["perCheckStatus"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check.problems.append(f"verify report does not parse: {exc!r}")
        return
    names = sorted(name for name, _, _ in statuses)
    if names != sorted(CHECK_NAMES):
        check.problems.append(f"verify report has checks {names}, expected {sorted(CHECK_NAMES)}")
        return
    for _, ok, detail in statuses:
        if not detail.startswith("skipped"):
            check.checks_run += 1
            check.checks_passed += ok
    if exit_code != (0 if passed else 4):
        check.problems.append(f"exit code {exit_code} contradicts report passed={passed}")


def check_op(op, op_index: int, output: Path, evaluator, seed: int, exit_code) -> OpCheck:
    """Check one op's final output; evaluator is a fresh one for op.doc."""
    check = OpCheck()
    if op.command == "verify":
        _check_report(check, output, exit_code)
        return check
    xs, ts = axis(op.x), axis(op.t)
    try:
        if op.command == "eval":
            u, flags = read_grid_csv(output, xs, ts)
            unknown = sorted(set(flags.ravel()) - set(FLAGS))
            if unknown:
                check.problems.append(f"unknown flags {unknown}")
            ok = flags == "ok"
        else:  # frames carry no flag column: a flagged point is a NaN u
            u = read_frames(output, xs, ts)
            ok = ~np.isnan(u)
    except (OSError, OutputError) as exc:
        check.problems.append(str(exc))
        return check
    if np.any(~np.isnan(u[~ok])):
        check.problems.append("a flagged point carries a non-NaN u")
    if not np.all(np.isfinite(u[ok])):
        check.problems.append("an ok point carries a non-finite u")
    check.points = int(u.size)
    check.ok_points = int(ok.sum())
    if not check.problems:
        _compare_log_det(check, evaluator, xs, ts, u, ok, seed, op_index)
    return check


def count_failures(checks: list, passes: list, traced: dict | None):
    """Failed ops over all timed passes, and the reasons per op index.

    Adds a problem to an op's check when its output bytes or exit code
    change between passes (the traced pass included).
    """
    reasons = {}
    failed = 0
    for k, check in enumerate(checks):
        first = passes[0]["digests"][k]
        for p in passes:
            code = p["exit_codes"][k]
            failed += bool(check.problems) or code != 0 or p["digests"][k] != first
            if code != 0:
                reasons.setdefault(k, set()).add(f"exit code {code}")
        runs = passes + ([traced] if traced else [])
        changed = sum(p["digests"][k] != first for p in runs)
        if changed:
            check.problems.append(f"output differs from the first pass in {changed} pass(es)")
        if any(p["exit_codes"][k] != passes[0]["exit_codes"][k] for p in runs):
            check.problems.append("exit code differs between passes")
        if check.problems:
            reasons.setdefault(k, set()).update(check.problems)
    return failed, {k: sorted(v) for k, v in reasons.items()}
