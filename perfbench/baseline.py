"""Reproduce the ROADMAP re-anchor baseline from this checkout.

Usage: python3 perfbench/baseline.py

With the benchmark's thread pinning, times
  * sample_grid for the README spec (P = 3) over the CLI default grid
    0:10:201 x 0:2:101, per point (re-anchor figure: about 231 us/point);
  * make_evaluator for the many-poles spec (P = 64, generated from SEED;
    re-anchor figure: 1.72 s);
and prints both next to the README's claim that grids of a few thousand
points evaluate in milliseconds. Each figure is the median of REPEATS
runs; the record is also written to perfbench/out/baseline.json.
"""
from __future__ import annotations

import json
import statistics
import sys
import time

import env

README_CLAIM = "grids of a few thousand points evaluate in milliseconds"
CLAIM_POINTS = 3000
REANCHOR_US_PER_POINT = 231.0
REANCHOR_MAKE_EVALUATOR_S = 1.72
REPEATS = 3
SEED = 1


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    env.pin_threads()
    env.require_sources()
    import numpy as np

    import kdvexact
    import workloads
    from kdvexact import build_triplet, documents, make_evaluator, sample_grid

    env.check_imported_from_checkout(kdvexact)
    readme = make_evaluator(build_triplet(
        documents.parse_input_document(workloads.README_SPEC)))
    xs, ts = np.linspace(0.0, 10.0, 201), np.linspace(0.0, 2.0, 101)
    # sample_grid on a fresh evaluator each time, so the per-t propagator
    # cache starts empty as it does for one CLI call.
    grid_s = _median_time(lambda: sample_grid(
        make_evaluator(readme.triplet), xs, ts), REPEATS)
    us_per_point = 1e6 * grid_s / (xs.size * ts.size)

    many = build_triplet(documents.parse_input_document(workloads.many_poles_spec(SEED)))
    make_s = _median_time(lambda: make_evaluator(many), REPEATS)

    record = {
        "environment": env.describe(),
        "repeats": REPEATS,
        "readme_sample_grid": {"points": int(xs.size * ts.size), "seconds": grid_s,
                               "us_per_point": us_per_point,
                               "reanchor_us_per_point": REANCHOR_US_PER_POINT},
        "many_poles_make_evaluator": {"P": many.P, "seed": SEED, "seconds": make_s,
                                      "reanchor_seconds": REANCHOR_MAKE_EVALUATOR_S},
        "readme_claim": {"text": README_CLAIM, "points": CLAIM_POINTS,
                         "measured_ms": CLAIM_POINTS * us_per_point / 1e3},
    }
    print(f"sample_grid, README spec P = 3, 201x101: {grid_s:.3f} s, "
          f"{us_per_point:.1f} us/point (re-anchor: {REANCHOR_US_PER_POINT:g} us/point)")
    print(f"make_evaluator, many-poles P = {many.P}, seed {SEED}: {make_s:.3f} s "
          f"(re-anchor: {REANCHOR_MAKE_EVALUATOR_S:g} s)")
    print(f"README: \"{README_CLAIM}\"; measured: {CLAIM_POINTS} points take "
          f"{record['readme_claim']['measured_ms']:.0f} ms")
    out = env.BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
