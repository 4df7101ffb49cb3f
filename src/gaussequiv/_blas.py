"""One OpenBLAS thread for small BLAS and LAPACK calls, and for seeded draws.

numpy and scipy each load their own OpenBLAS, and both default to one thread
per CPU.  On a call whose work, the product of its three dimensions, is at
most ``512**3``, a second thread spins while it waits and now and then stalls
the call.  Near the bound, though, two threads are faster for three routines
(n = 512, 2 CPUs, two threads against one: ``dtrsm`` 3.8 vs 7.4 ms,
``dtrtri`` 1.7 vs 4.7 ms, ``dsygst`` 4.8 vs 7.3 ms); ``dpotrf`` and products
break even.  The one bound gives that up.  Above it the caller's count
stands, except in a seeded draw: ``blas_scope(0)`` pins one thread for a
whole block, and the sampler opens it around a draw's factor and product at
every size.  There a second thread saves little or loses (two against one:
``dpotrf`` at n = 1024 12.8 vs 14.0 ms, a 50-row product at n = 2048 8.6 vs
8.0 ms), and one thread makes the samples of a seed the same at any count.
The count is process-global, so while a scope is open every thread of the
process sees it; the first scope to open saves each copy's count and the
last to close, in whatever thread and order, restores it.
"""

from __future__ import annotations

import ctypes
import importlib
import threading
from contextlib import contextmanager

ONE_THREAD_WORK = 512**3


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
def blas_scope(work: int):
    """Run the block on one thread in every OpenBLAS copy found when ``work <= 512**3``,
    and restore each copy's count once no scope is open; otherwise, or with no copy found, do nothing."""
    if work > ONE_THREAD_WORK or not _SETTERS:
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
