"""One OpenBLAS thread for every library BLAS and LAPACK call.

numpy and scipy each load their own OpenBLAS, and both default to one thread
per CPU.  After a call on two threads the second thread spins through the
Python work that follows, and no later change of the count parks it.  On 2
CPUs a ``nested_trace`` pass, whose matrix assembly is single-threaded numpy,
took 238-257 ms wall for 471-502 ms CPU with its n = 1024 calls on two
threads, and 270-286 ms wall, CPU equal to it, with every call on one.
One thread also gives a factor, solve or product the same bits at any
caller count.  The count is process-global, so while a scope is open every
thread of the process sees it; the first scope to open saves each copy's
count and the last to close, in whatever thread and order, restores it.
"""

from __future__ import annotations

import ctypes
import importlib
import threading
from contextlib import contextmanager


def _find_setters() -> tuple:
    """``(get, set)`` thread-count functions of each OpenBLAS copy that exports them."""
    found = []
    for module, suffix in (("scipy.linalg._fblas", ""), ("numpy._core._multiarray_umath", "64_")):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_count = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        found.append((get, set_count))
    return tuple(found)


_SETTERS = _find_setters()
_LOCK = threading.Lock()
# scopes open in any thread, and the counts the first of them found
_open = {"scopes": 0, "counts": []}


@contextmanager
def blas_scope():
    """Run the block on one thread in every OpenBLAS copy found, and restore
    each copy's count once no scope is open; with no copy found, do nothing."""
    if not _SETTERS:
        yield
        return
    with _LOCK:
        if not _open["scopes"]:
            _open["counts"] = [get() for get, _ in _SETTERS]
            for _, set_count in _SETTERS:
                set_count(1)
        _open["scopes"] += 1
    try:
        yield
    finally:
        with _LOCK:
            _open["scopes"] -= 1
            if not _open["scopes"]:
                for (_, set_count), count in zip(_SETTERS, _open["counts"]):
                    set_count(count)
