"""Machine record attached to every result, and the BLAS thread cap.

The benchmark runs with the threading users get by default, except that
OpenBLAS never gets more threads than the cores this process may use.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, with its symbol prefix, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None


def blas_threads(cap: int | None = None) -> int | None:
    """OpenBLAS's thread count, first lowered to cap if it is above it."""
    found = _openblas()
    if found is None:
        return None
    lib, prefix, suffix = found
    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
    get.restype = ctypes.c_int
    if cap is not None and get() > cap:
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        setter.argtypes = [ctypes.c_int]
        setter(cap)
    return get()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f), encoding="utf-8").read().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        out[f"L{fields[0]} {fields[1]}"] = fields[2]
    return out


def record() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }
