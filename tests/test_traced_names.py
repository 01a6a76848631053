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
