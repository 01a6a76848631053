"""Thread pinning and the environment record shared by the benchmark scripts.

pin_threads() must run before numpy is first imported anywhere in the
process: OpenBLAS and OpenMP read their thread counts once, when the
library loads. Child processes inherit the pinned variables.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

# One BLAS thread: every workload but the P = 64 Lyapunov system is made
# of tiny matrices, and a single thread keeps a run's timings independent
# of what else is scheduled on the other cores.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Set the BLAS/OpenMP thread variables; returns the pinned count."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    n = max(1, min(THREADS, nproc()))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def require_sources() -> None:
    """Exit with code 2 unless the kdvexact sources are in this checkout."""
    if not (SRC / "kdvexact" / "cli.py").is_file():
        print(f"error: kdvexact sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout(module) -> None:
    """Refuse to measure a kdvexact that was not imported from SRC."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        raise RuntimeError(f"kdvexact imported from {origin}, not from {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    """Versions, core count and thread settings recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
