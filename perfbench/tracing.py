"""Span tracing of kdvexact's public functions, installed from outside.

Tracer.install() replaces each traced function, wherever a kdvexact
module holds a reference to it, with a wrapper that records a span
(function, start, end, parent span, op id) in memory; uninstall()
puts the originals back. Nothing under src/ changes. A span's self
time is its duration minus the durations of its direct children, so
nested calls (linalg inside GammaEvaluator.sample, say) are counted
once.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

import numpy as np

# (module or Module.Class, attribute names), in report order.
TRACED = (
    ("cli", ("main",)),
    ("documents", ("parse_input_document", "write_grid_csv", "write_frame_csv",
                   "dumps_document")),
    ("realization", ("build_triplet", "validate_triplet", "eval_reflection")),
    ("linalg", ("expm", "lyapunov_solve", "lu_factor", "determinant", "solve", "inverse",
                "eigenvalues", "resolvent_apply")),
    ("solution", ("make_evaluator", "sample_grid")),
    ("solution.GammaEvaluator", ("sample", "propagator", "det_gamma", "u")),
    ("verification", ("positivity_scan", "pde_residual", "marchenko_residual",
                      "omega_quadrature_check", "soliton_equivalence")),
)
NAMES = tuple(f"{owner}.{attr}" for owner, attrs in TRACED for attr in attrs)


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.flag_counts: Counter = Counter()
        self.flow_expm_calls = 0
        self._stack: list[int] = []
        self._flows: list = []        # keeps every evaluator's flow alive for `is` tests
        self._restore: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "kdvexact" or name.startswith("kdvexact.")]
        for owner, attrs in TRACED:
            mod_name, _, cls_name = owner.partition(".")
            target = sys.modules[f"kdvexact.{mod_name}"]
            if cls_name:
                cls = getattr(target, cls_name)
                for attr in attrs:
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, orig, self._wrap(f"{owner}.{attr}", orig))
                continue
            for attr in attrs:
                orig = getattr(target, attr)
                wrapped = self._wrap(f"{owner}.{attr}", orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def _patch(self, obj, key, orig, wrapped) -> None:
        self._restore.append((obj, key, orig))
        setattr(obj, key, wrapped)

    def _wrap(self, name: str, fn):
        index = NAMES.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = {"solution.make_evaluator": self._saw_evaluator,
                "linalg.expm": self._saw_expm,
                "solution.GammaEvaluator.sample": self._saw_sample}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters ------------------------------------------------------------

    def _saw_evaluator(self, args, evaluator) -> None:
        self._flows.append(evaluator.flow)

    def _saw_expm(self, args, result) -> None:
        if args and any(args[0] is flow for flow in self._flows):
            self.flow_expm_calls += 1

    def _saw_sample(self, args, sample) -> None:
        self.flag_counts[sample.flag] += 1

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, plus the counters."""
        if self.spans:
            idx, start, end, parent = (np.array(col) for col in zip(*(s[:4] for s in self.spans)))
        else:
            idx = parent = np.zeros(0, int)
            start = end = np.zeros(0)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(idx, minlength=len(NAMES))
        self_s = np.bincount(idx, weights=self_time, minlength=len(NAMES))
        return {
            "functions": {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                          for i, name in enumerate(NAMES)},
            "self_total_s": float(self_time.sum()),
            "spans": len(self.spans),
            "flow_expm_calls": self.flow_expm_calls,
            "flags": dict(self.flag_counts),
        }

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: function, start, end, parent span, op id."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("span,function,start_s,end_s,parent,op\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (index, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{NAMES[index]},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
