"""Where the benchmark finds the package, and the run environment it records.

The benchmark runs from the root of a source checkout and imports
``spinphoton`` from ``src/`` there, never from an installed copy, so that the
code measured is the code in the checkout.
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Thread-count variables of the BLAS builds numpy may load.  Each must be
#: set before numpy is imported: with OpenBLAS's default of one thread per
#: core next to the main thread, a 2-core machine is oversubscribed and
#: kernel timings both slow down and spread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Limit BLAS to the calling thread; call before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Make ``import spinphoton`` load the checkout's ``src/spinphoton``.

    Raises SystemExit when the checkout has no package source, so the
    benchmark fails without printing a result.
    """
    if not (SRC / "spinphoton" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'spinphoton'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def machine_info(seed: int) -> dict:
    """Everything a result file records about where and how it was measured."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "process_threads": _thread_count(),
        "seed": seed,
    }
