"""Machine description recorded with every run."""

from __future__ import annotations

import ctypes
import importlib.metadata
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS vendor from numpy's build record, thread count asked of the library."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out = {"name": cfg.get("name"), "version": cfg.get("version")}
    except Exception:  # older numpy: no dict form of the build record
        out = {"name": "unknown", "version": "unknown"}
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    out["threads"] = threads
    out["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return out


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def info() -> dict:
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": _version("scipy"), "blas": _blas()}
