"""The machine block of a run, and control of the BLAS thread count.

numpy and scipy each load their own OpenBLAS build; both are found among
the process's mapped libraries and driven through their exported
get/set-num-threads entry points.
"""

from __future__ import annotations

import ctypes
import os
import platform
from contextlib import contextmanager

import numpy as np
import scipy

_THREAD_FUNCS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads")


def _blas_libraries() -> dict:
    """Loaded OpenBLAS libraries: file name -> (get, set) thread functions."""
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        pass
    libs = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for pattern in _THREAD_FUNCS:
            if hasattr(lib, pattern.format("get")):
                get = getattr(lib, pattern.format("get"))
                get.restype, get.argtypes = ctypes.c_int, []
                put = getattr(lib, pattern.format("set"))
                put.restype, put.argtypes = None, [ctypes.c_int]
                libs[os.path.basename(path)] = (get, put)
                break
    return libs


def blas_threads() -> dict:
    return {name: get() for name, (get, _) in _blas_libraries().items()}


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS at one thread.

    Yields whether the thread count could be controlled at all."""
    libs = _blas_libraries()
    before = {name: get() for name, (get, _) in libs.items()}
    try:
        for _, put in libs.values():
            put(1)
        yield bool(libs)
    finally:
        for name, (_, put) in libs.items():
            put(before[name])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(config: dict) -> dict:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def machine_block() -> dict:
    """Host, versions, BLAS builds and effective threads of this process."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(np.show_config(mode="dicts")),
        "scipy_blas": _blas_build(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
    }
