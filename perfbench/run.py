"""kdvexact benchmark: CLI workloads, end-to-end metrics, a traced layer split.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all ...     every workload in turn
  python3 perfbench/run.py --smoke                self-test on tiny grids
  python3 perfbench/run.py --write-benchmark-json regenerate BENCHMARK.json

Each workload runs in a worker process of its own (worker.py), with the
BLAS/OpenMP thread count pinned first. Timed passes are untraced; with
--trace 1 one extra traced pass gives the per-layer split. Every output
goes through the correctness gate (gate.py) outside the timed region.
The last stdout line is one JSON object: correct, attempted, failed and
the end-to-end (--trace 0) or per-layer (--trace 1) metrics. The run's
documents, environment, per-pass data and spans are kept under
perfbench/out/<workload>-seed<N>/.
"""
from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

RUN_SECONDS = 20
# The worker measures for --seconds, then finishes the set-up batch and
# pass under way and, with --trace 1, one traced pass: on the slowest
# workload (frames-readme) well under a minute on a 2-vCPU host.
WORKER_MARGIN_S = 90
OUT_DIR = env.BENCH_DIR / "out"

# End-to-end metrics bounded in BENCHMARK.json: defined and nonzero on every
# workload. bound is the share of the parent's median by which a metric may
# worsen before a change counts as a regression.
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)
# Printed and recorded with every run, but left out of BENCHMARK.json: each
# is undefined or exactly 0 on some workload.
REPORTED = (
    ("points_per_s", "1/s", "grid workloads"),
    ("ok_frac", "fraction", "grid workloads"),
    ("checks_pass_frac", "fraction", "verify-mixed"),
    ("fail_frac", "fraction", "all workloads"),
)


def per_layer_specs() -> list[dict]:
    import tracing

    specs = []
    for name in tracing.NAMES:
        specs.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    specs += [
        {"name": "solution.propagator.miss_ratio", "unit": "ratio", "better": "lower"},
        {"name": "linalg.expm.calls_per_point", "unit": "calls/point", "better": "lower"},
        {"name": "linalg.solve.calls_per_point", "unit": "calls/point", "better": "lower"},
        {"name": "solution.flag.ok", "unit": "count", "better": "higher"},
        {"name": "solution.flag.near_singular", "unit": "count", "better": "lower"},
        {"name": "solution.flag.overflow", "unit": "count", "better": "lower"},
        {"name": "cli.bytes_out", "unit": "bytes", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.coverage", "unit": "ratio", "better": "higher"},
    ]
    return specs


def benchmark_json() -> dict:
    import workloads

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WHY[n]} for n in workloads.WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": per_layer_specs(),
    }


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_metrics(passes: list, n_ops: int, ref_s: float) -> dict:
    """wall_s and setup_s, scaled to a host on which the reference loop takes ref_s.

    The host this benchmark was written on (2 vCPUs of a shared Xeon) ran
    identical work up to 2x slower for tens of seconds at a time, in CPU
    time as much as in wall time. So each measured time is multiplied by
    ref_s over the mean of the reference timings just before and after it.
    In a pass, set-up batch k lies between reference timings 2k and 2k + 1,
    op k between 2k + 1 and 2k + 2 (worker._run_pass). The pass time is
    the sum over ops of each op's median scaled time.
    """
    def scaled(seconds: float, refs) -> float:
        return seconds * ref_s / statistics.fmean(refs)

    wall = sum(statistics.median(scaled(p["op_wall_s"][k], p["ref_s"][2 * k + 1:2 * k + 3])
                                 for p in passes)
               for k in range(n_ops))
    setup = statistics.median(scaled(t, p["ref_s"][2 * k:2 * k + 2])
                              for p in passes for k, batch in enumerate(p["setup_s"])
                              for t in batch)
    return {"wall_s": wall, "setup_s": setup}


def _start_worker(plan_path: Path, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(env.BENCH_DIR / "worker.py"), str(plan_path)],
                          capture_output=True, text=True, timeout=seconds + WORKER_MARGIN_S)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads((plan_path.parent / "result.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in a worker process, gate its outputs, compute metrics."""
    import gate
    import worker
    import workloads
    from kdvexact import documents

    wl = workloads.make_workload(name, seed, smoke=smoke)
    work = OUT_DIR / f"{name}-seed{seed}{'-smoke' if smoke else ''}"
    if work.exists():
        shutil.rmtree(work)
    (work / "docs").mkdir(parents=True)
    doc_paths = {}
    for key, doc in wl.docs.items():
        doc_paths[key] = work / "docs" / f"{key}.json"
        doc_paths[key].write_text(documents.dumps_document(doc), encoding="utf-8")
    outputs = [work / f"op{k}-{op.doc}-{op.output_name}" for k, op in enumerate(wl.ops)]
    plan = {
        "src": str(env.SRC),
        "documents": [str(p) for p in doc_paths.values()],
        "ops": [{"argv": op.argv(str(doc_paths[op.doc]), str(out)), "output": str(out)}
                for op, out in zip(wl.ops, outputs)],
        "seconds": seconds,
        "reference": wl.reference,
        "trace": trace,
        "result": str(work / "result.json"),
        "spans": str(work / "spans.csv.gz"),
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    res = _start_worker(work / "plan.json", seconds)
    passes = res["passes"]

    checks = []
    for k, (op, out) in enumerate(zip(wl.ops, outputs)):
        evaluator = None if op.command == "verify" else workloads.evaluator_for(wl.docs[op.doc])
        checks.append(gate.check_op(op, k, out, evaluator, seed, passes[-1]["exit_codes"][k]))
    failed, reasons = gate.count_failures(checks, passes, res.get("traced_pass"))
    attempted = len(passes) * len(wl.ops)
    correct = not any(c.problems for c in checks)

    ref_s = worker.REFERENCES[wl.reference][1]
    timed = timed_metrics(passes, len(wl.ops), ref_s)
    wall = timed["wall_s"]
    setup_raw = [t for p in passes for batch in p["setup_s"] for t in batch]
    points = wl.grid_points
    ok_points = sum(c.ok_points for c in checks)
    checks_run = sum(c.checks_run for c in checks)
    e2e = {
        "wall_s": wall,
        "setup_s": timed["setup_s"],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    reported = {
        "points_per_s": points / wall if points else None,
        "ok_frac": _ratio(ok_points, points) if points else None,
        "checks_pass_frac": (_ratio(sum(c.checks_passed for c in checks), checks_run)
                             if checks_run else None),
        "fail_frac": failed / attempted,
    }
    unscaled_wall = statistics.median(p["wall_s"] for p in passes)
    layer = (_layer_metrics(res, unscaled_wall, sum(passes[0]["bytes"]), points)
             if trace else None)
    out = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "smoke": smoke,
        "environment": env.describe(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": {f"op{k}": v for k, v in reasons.items()},
        "passes": len(passes), "setup_reps": len(setup_raw),
        "unscaled": {"wall_s": unscaled_wall,
                     "setup_s": statistics.median(setup_raw),
                     "reference": wl.reference, "reference_nominal_s": ref_s,
                     "reference_loop_s": statistics.median(
                         r for p in passes for r in p["ref_s"])},
        "end_to_end": e2e, "reported": reported, "per_layer": layer,
        "counts": {"points_per_pass": points, "ok_points_per_pass": ok_points,
                   "checks_run_per_pass": checks_run,
                   "log_det_compared": sum(c.compared for c in checks),
                   "log_det_max_rel_du": max((c.max_rel_du for c in checks), default=0.0)},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_wall_s": [p["op_wall_s"] for p in passes],
        "ref_s": [p["ref_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "documents": wl.docs,
        "ops": [op.argv(str(doc_paths[op.doc].relative_to(env.ROOT)),
                        str(o.relative_to(env.ROOT))) for op, o in zip(wl.ops, outputs)],
    }
    (work / "summary.json").write_text(json.dumps(out, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return out


def _layer_metrics(res: dict, wall: float, bytes_out: int, points: int) -> dict:
    import tracing

    tr = res["trace"]
    fns = tr["functions"]
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = fns[name]["calls"]
        metrics[f"{name}.self_s"] = fns[name]["self_s"]
    # Per point: grid points written, or for verify (no grid) the points
    # it sampled through GammaEvaluator.sample.
    per = points or fns["solution.GammaEvaluator.sample"]["calls"]
    traced_wall = res["traced_pass"]["wall_s"]
    metrics.update({
        "solution.propagator.miss_ratio": _ratio(
            tr["flow_expm_calls"], fns["solution.GammaEvaluator.propagator"]["calls"]),
        "linalg.expm.calls_per_point": _ratio(fns["linalg.expm"]["calls"], per),
        "linalg.solve.calls_per_point": _ratio(fns["linalg.solve"]["calls"], per),
        "solution.flag.ok": tr["flags"].get("ok", 0),
        "solution.flag.near_singular": tr["flags"].get("near-singular", 0),
        "solution.flag.overflow": tr["flags"].get("overflow", 0),
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": traced_wall - wall,
        # Share of the traced wall spent in the named functions below
        # cli.main; what no named function covers stays in cli.main's self time.
        "trace.coverage": _ratio(tr["self_total_s"] - fns["cli.main"]["self_s"], traced_wall),
    })
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(r: dict) -> None:
    e = r["environment"]
    print(f"workload {r['workload']}  seed {r['seed']}  {r['passes']} passes  "
          f"{r['setup_reps']} set-ups  {r['seconds']} s  "
          f"BLAS threads {e['threads']['OPENBLAS_NUM_THREADS']}  nproc {e['nproc']}")
    print(f"  {e['cpu']}; Python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
          f"{e['blas']}")
    c = r["counts"]
    u = r["unscaled"]
    print(f"  reference loop {u['reference']}: median {u['reference_loop_s'] * 1e3:.4g} ms, "
          f"times below scaled to {u['reference_nominal_s'] * 1e3:g} ms")
    notes = {
        "wall_s": f"scaled, {r['passes']} passes; unscaled median {u['wall_s']:.4g} s",
        "setup_s": f"scaled, {r['setup_reps']} set-ups; unscaled median {u['setup_s']:.4g} s",
        "points_per_s": f"{c['points_per_pass']} points per pass",
        "ok_frac": f"{c['ok_points_per_pass']} of {c['points_per_pass']} points ok",
        "checks_pass_frac": f"of {c['checks_run_per_pass']} checks run",
        "fail_frac": f"{r['failed']} of {r['attempted']} ops",
    }
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({n: u for n, u, _ in REPORTED})
    applies = {n: a for n, _, a in REPORTED}
    for name, value in list(r["end_to_end"].items()) + list(r["reported"].items()):
        note = notes.get(name, "") if value is not None else f"applies to {applies[name]} only"
        print(f"  {name:<18}{_fmt(value):>14} {units[name]:<9} {note}")
    if r["per_layer"]:
        print("  per layer (one traced pass):")
        for spec in per_layer_specs():
            print(f"    {spec['name']:<48}{_fmt(r['per_layer'][spec['name']]):>14} {spec['unit']}")
    print(f"  correct {r['correct']}  failures {r['failures'] or 'none'}  "
          f"u_log_det compared at {c['log_det_compared']} points, "
          f"max |du|/(1+|u|) {c['log_det_max_rel_du']:.3g}")


def result_line(r: dict, trace: bool) -> dict:
    if trace:
        specs = per_layer_specs()
        values = r["per_layer"]
    else:
        specs = END_TO_END
        values = r["end_to_end"]
    return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                        for s in specs}}


def smoke() -> int:
    """Every workload on tiny grids, traced, plus two gate rejections."""
    import numpy as np

    import gate
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        r = run_workload(name, seed=1, seconds=0.2, trace=True, smoke=True)
        print_report(r)
        for trace in (False, True):
            metrics = result_line(r, trace)["metrics"]
            for spec in (per_layer_specs() if trace else END_TO_END):
                if not isinstance(metrics.get(spec["name"], {}).get("value"), (int, float)):
                    problems.append(f"{name}: metric {spec['name']} missing")
        if set(r["reported"]) != {n for n, _, _ in REPORTED}:
            problems.append(f"{name}: reported metrics incomplete")
        if not r["correct"]:
            problems.append(f"{name}: gate rejected an untampered run: {r['failures']}")

    # A CSV with one compared u perturbed must be rejected.
    wl = workloads.make_workload("eval-readme", 1, smoke=True)
    op = wl.ops[0]
    csv = OUT_DIR / "eval-readme-seed1-smoke" / f"op0-{op.doc}-{op.output_name}"
    lines = csv.read_text(encoding="utf-8").split("\n")
    ok_rows = [r for r, row in enumerate(lines[1:-1]) if row.endswith(",ok")]
    target = int(gate.subset(np.array(ok_rows), 1, 0)[0]) + 1
    cells = lines[target].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6) + 1e-6)
    lines[target] = ",".join(cells)
    csv.write_text("\n".join(lines), encoding="utf-8")
    ev = workloads.evaluator_for(wl.docs[op.doc])
    if not gate.check_op(op, 0, csv, ev, 1, 0).problems:
        problems.append("gate accepted a CSV with a perturbed u")
    # A second pass whose digest differs from the first must be rejected.
    good = {"digests": ["a"], "exit_codes": [0]}
    failed, _ = gate.count_failures([gate.OpCheck()], [good, dict(good, digests=["b"])], None)
    if failed != 1:
        problems.append(f"gate counted {failed} failed ops for a mismatched digest, expected 1")

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "passed" if not problems else "failed",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="self-test on tiny grids")
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    if not (args.smoke or args.write_benchmark_json or args.workload):
        p.error("give --workload, --smoke or --write-benchmark-json")

    # On SIGTERM, unwind through subprocess.run, which kills the worker and
    # waits for it, instead of dying with the worker still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = env.pin_threads()
    env.require_sources()
    import kdvexact
    import workloads

    env.check_imported_from_checkout(kdvexact)
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (env.ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.smoke:
        return smoke()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)} or all")
    start = time.perf_counter()
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_report(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# {len(results)} workload(s) in {time.perf_counter() - start:.1f} s, "
          f"{threads} BLAS thread(s)")
    if len(results) == 1:
        line = result_line(results[0], bool(args.trace))
    else:
        line = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {f"{r['workload']}.{k}": v for r in results
                            for k, v in result_line(r, bool(args.trace))["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
