"""One worker thread, and OpenBLAS held to one thread while it runs.

The chain commands run at most one thread besides the caller's: it draws
the next chunk of normals or renders half of a table.  After a threaded
product, OpenBLAS keeps a thread of its own spinning on a core for about
0.1 s, so a section that runs a worker holds OpenBLAS to one thread.
Only sections whose bits do not depend on OpenBLAS's thread count are
held: a matrix product (GEMM) splits its output among threads, never an
inner sum, and the normal draws and the table text use no BLAS.  The
count is process-wide: while a section holds it, BLAS calls on other
threads of the process run on one thread too.  Nothing is looked up and
no thread is started at import.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from typing import Callable


def _background(fn: Callable, *args) -> Callable:
    """Start ``fn(*args)`` on a daemon thread; return a join that waits for
    it and gives back its result, or raises its exception in the caller."""
    outcome = []

    def run():
        try:
            outcome.append((fn(*args), None))
        except BaseException as exc:  # handed to the caller by join
            outcome.append((None, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def join():
        thread.join()
        result, error = outcome.pop()
        if error is not None:
            raise error
        return result

    return join


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
