"""What a sweep divides its work over: the cores this process may run on,
forked worker processes, and the thread count of the OpenBLAS library
numpy loaded.

multiprocessing is imported only when a worker is about to start, so a run
that starts none does not load it.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["usable_cores", "fork_context", "blas_threads", "set_blas_threads"]


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_context():
    """multiprocessing's fork context, or None where fork is not available.

    Forked workers start with this process's memory, so they read its inputs
    without a copy; spawned ones would have to be sent them.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


@functools.cache
def _openblas():
    """OpenBLAS's (get, set) thread count functions from the library numpy
    loaded, or None where there is none to be found."""
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count, or None where its setter cannot be found."""
    found = _openblas()
    return None if found is None else found[0]()


def set_blas_threads(n: int) -> None:
    """Set OpenBLAS's thread count; blas_threads() must not be None."""
    _openblas()[1](n)
