"""OpenBLAS held to one thread for a command-line run.

The rule is one: ``cli.main`` holds OpenBLAS to one thread for its whole
body, and a library call runs at OpenBLAS's own count.  A BLAS sum, such
as a dot product over the samples of a regression, or a Cholesky factor
can change in its last bits with the thread count, so a pinned run
gives the same bytes at any core count or ``OPENBLAS_NUM_THREADS``.
oupac starts no thread of its own.  The count is process-wide: while a
run holds it, BLAS calls on other threads of the process run on one
thread too, so runs on several threads share one save and one restore.
Nothing is looked up at import.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Callable


@functools.cache
def _openblas_threads() -> tuple[Callable, Callable] | None:
    """``(get, set)`` for the thread count of the OpenBLAS that numpy
    loaded, or None when none is found; looked up on first use."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                return getter, setter
    return None


class _Pin:
    """How many sections hold OpenBLAS to one thread, and the count to
    restore when the last one ends: the count is process-wide, so sections
    on several threads share one save and one restore."""

    lock = threading.Lock()
    depth = 0
    saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread in the body and restore its count after,
    also on an exception; a no-op when no OpenBLAS is found."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_count = threads
    with _Pin.lock:
        if _Pin.depth == 0:
            _Pin.saved = get()
            set_count(1)
        _Pin.depth += 1
    try:
        yield
    finally:
        with _Pin.lock:
            _Pin.depth -= 1
            if _Pin.depth == 0:
                set_count(_Pin.saved)
