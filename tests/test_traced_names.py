"""The benchmark's tracer wraps package functions by name; each must exist."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = []
    for owner, attrs in traced:
        mod_name, _, cls_name = owner.partition(".")
        target = importlib.import_module(f"kdvexact.{mod_name}")
        scope = vars(getattr(target, cls_name)) if cls_name else vars(target)
        missing += [f"{owner}.{attr}" for attr in attrs if not callable(scope.get(attr))]
    assert missing == []


def test_no_traced_function_runs_on_a_kernel_helper_thread():
    # the tracer's span stack is not thread-safe: a multi-chunk grid shares its chunks with
    # a helper thread, which must call nothing the tracer wraps
    import threading
    from unittest import mock

    import numpy as np

    import helpers
    import kdvexact

    tracing = load_tracing()
    callers = []

    class ThreadTracer(tracing.Tracer):
        def _wrap(self, name, fn):
            traced = super()._wrap(name, fn)

            def wrapped(*args, **kwargs):
                callers.append((name, threading.get_ident()))
                return traced(*args, **kwargs)

            return wrapped

    ev = kdvexact.make_evaluator(helpers.many_poles_triplet(1))
    tracer = ThreadTracer()
    tracer.install()
    try:
        with mock.patch("os.sched_getaffinity", lambda pid: {0, 1}, create=True):
            # eight chunks: each t row is split in four by the byte budget
            grid = kdvexact.sample_grid(ev, np.linspace(0.0, 10.0, 201), [0.0, 0.05])
    finally:
        tracer.uninstall()
    assert grid.u.shape == (2, 201)
    assert {name for name, _ in callers} >= {"solution.sample_grid"}
    assert {ident for _, ident in callers} == {threading.get_ident()}
