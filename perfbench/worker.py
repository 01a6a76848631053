"""Measure one workload in a process of its own.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the documents, the CLI argument lists
and the run length. The worker runs passes of the CLI operations through
kdvexact.cli.main, each op after a batch of timed set-up calls, until
the run length is spent (at least MIN_PASSES). Between every two of
these steps it times reference_loop(), a fixed piece of work, so that
run.py can divide out how fast the host ran at that moment. It records
each output's digest outside the timed region, reads its own peak RSS,
and optionally runs one traced pass. Results go to the file the plan
names. The thread variables are inherited from run.py, which pinned
them before starting this process.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

MIN_PASSES = 3
# Set-up time spent before each op (at least one set-up): dozens of
# set-ups on the P <= 3 workloads, so set-up is sampled in many short
# batches across the whole run, each between two reference timings.
SETUP_BATCH_S = 0.01


def _clear(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((3, 3)) + 3.0 * np.eye(3)
_REF_B = _REF_RNG.standard_normal(3)


def _interpreter_loop() -> float:
    """1,500 tiny numpy solves and determinants with Python arithmetic."""
    acc = 0.0
    for i in range(1500):
        m = _REF_A * (1.0 + 1e-3 * i)
        x = np.linalg.solve(m, _REF_B)
        acc += float(np.linalg.det(m)) + float(x @ x) + sum(v * v for v in x.tolist())
    return acc


@functools.cache
def _dense_system() -> tuple:
    # Built on first use, so the other workloads' peak RSS does not count it.
    rng = np.random.default_rng(1)
    return rng.standard_normal((1000, 1000)) + 40.0 * np.eye(1000), rng.standard_normal((1000, 8))


def _dense_solve() -> float:
    """One LU solve of a fixed 1000 x 1000 system with 8 right-hand sides."""
    return float(np.linalg.solve(*_dense_system()).sum())


# Reference loops and their nominal times (REF_S in the README), close to
# their times on the 2-vCPU Xeon host the benchmark was written on.
# "interpreter" is the kind of work of the P <= 3 workloads, interpreter
# overhead around tiny LAPACK calls; "dense" that of the many-poles
# set-up, one large LU solve.
REFERENCES = {"interpreter": (_interpreter_loop, 0.020), "dense": (_dense_solve, 0.035)}


def reference_loop(kind: str = "interpreter") -> float:
    """Time one fixed reference loop of the given kind.

    The loops run no kdvexact code, so a change to the program does not
    change them, while a slow spell of the host slows them as it slows the
    ops of the same kind of work next to them.
    """
    start = time.perf_counter()
    if not np.isfinite(REFERENCES[kind][0]()):
        raise RuntimeError(f"reference loop {kind!r} produced a non-finite sum")
    return time.perf_counter() - start


def _digest(path: Path) -> tuple[str, int]:
    """sha256 over a file, or over a directory's sorted names and contents."""
    h = hashlib.sha256()
    size = 0
    files = sorted(path.iterdir()) if path.is_dir() else [path] if path.exists() else []
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def _setup_batch(setup_once) -> list:
    start = time.perf_counter()
    times = [setup_once()]
    while time.perf_counter() - start < SETUP_BATCH_S:
        times.append(setup_once())
    return times


def _run_pass(cli, ops, setup_once=None, reference: str = "interpreter") -> dict:
    """Run each op once.

    With setup_once (a timed set-up), a batch of set-ups goes before each
    op, and reference_loop() is timed first and after every batch and op:
    set-up batch k lies between ref_s[2k] and ref_s[2k + 1], op k between
    ref_s[2k + 1] and ref_s[2k + 2].
    """
    walls, codes, digests, sizes, setup = [], [], [], [], []
    calibrate = setup_once is not None
    refs = [reference_loop(reference)] if calibrate else []
    for op in ops:
        if calibrate:
            setup.append(_setup_batch(setup_once))
            refs.append(reference_loop(reference))
        out = Path(op["output"])
        _clear(out)
        start = time.perf_counter()
        try:
            code = cli.main(op["argv"])
        except Exception:  # an op that raises is a failed op, not a failed run
            code = None
        walls.append(time.perf_counter() - start)
        if code is None:
            traceback.print_exc()
        if calibrate:
            refs.append(reference_loop(reference))
        digest, size = _digest(out)
        codes.append(code)
        digests.append(digest)
        sizes.append(size)
    return {"wall_s": sum(walls), "op_wall_s": walls, "setup_s": setup, "ref_s": refs,
            "exit_codes": codes, "digests": digests, "bytes": sizes}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import env
    import kdvexact
    import workloads
    from kdvexact import cli

    env.check_imported_from_checkout(kdvexact)
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in plan["documents"]]
    seconds = float(plan["seconds"])

    def setup_once() -> float:
        """One set-up: parse + build + make_evaluator on every document."""
        start = time.perf_counter()
        for doc in docs:
            workloads.evaluator_for(doc)
        return time.perf_counter() - start

    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(_run_pass(cli, plan["ops"], setup_once, plan["reference"]))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"passes": passes, "peak_rss_kb": peak_rss_kb}
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = []
            for i, op in enumerate(plan["ops"]):
                tracer.op = i
                traced.append(_run_pass(cli, [op]))
        finally:
            tracer.uninstall()
        tracer.write_spans(plan["spans"])
        result["traced_pass"] = {
            "wall_s": sum(p["wall_s"] for p in traced),
            "exit_codes": [p["exit_codes"][0] for p in traced],
            "digests": [p["digests"][0] for p in traced],
        }
        result["trace"] = tracer.summary()
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    os.chdir(Path(sys.argv[1]).resolve().parent)
    sys.exit(main(sys.argv[1]))
