"""The machine-speed references.

The shared machine's speed drifts by up to 1.7x between runs a minute
apart, and within a run from one second to the next.  A fixed kernel
that never touches oupac is timed beside the measurements, and each time
is scaled by the kernel's NOMINAL_S over its time measured next to it,
i.e. to a machine on which the kernel takes NOMINAL_S.

There are three kernels, one per kind of work an op is made of, and
each op names the one that matches it (``workloads.Op.reference``):

- ``python``: small numpy calls and interpreter arithmetic, for the CLI
  ops.  It holds no BLAS call, so the thread state an op leaves behind
  (OpenBLAS threads spin for a while after a product) does not reach
  it.  A pause before it lowered its correlation with op times.
- ``blas64`` and ``blas128``: chains of 64x64 or 128x128 matrix
  products, for the solver ops up to d = 64 and above it.  Their time
  is in multi-threaded BLAS, which the interpreter kernel does not
  follow, and each follows the chain of its own size best.  The chains
  run in process: timed in a second interpreter, a chain read 1.6x
  slower right after BLAS work in this one, whose threads were still
  spinning, while in process it reads the same after BLAS work, after an
  idle pause and after both.  They run at the thread count OpenBLAS had
  when this module was imported, before oupac was, so a program that
  changes that count does not move its own scale.
"""

from __future__ import annotations

import ctypes
import time

import numpy as np

BURST = 2
#: Time of each kernel on the machine the benchmark was built on.
NOMINAL_S = {"python": 6e-3, "blas64": 3e-3, "blas128": 3e-3}

_rng = np.random.default_rng(0)
#: Product chains: dimension -> (block, products per sample).
_CHAINS = {dim: (_rng.standard_normal((dim, dim)) / np.sqrt(dim), count)
           for dim, count in ((64, 150), (128, 25))}


def kernel_time() -> float:
    """Time a fixed mix of small numpy calls and interpreter arithmetic,
    the kinds of work oupac's CLI ops are made of."""
    step, state, total = np.eye(10) * 0.9, np.ones(10), 0
    start = time.perf_counter()
    for _ in range(1500):
        state = step @ state + 0.1
    for i in range(30_000):
        total += i * i
    return time.perf_counter() - start


def openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy loaded,
    or None when numpy uses another BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                setter.argtypes = [ctypes.c_int]
                return getter, setter
    return None


_THREADS = openblas_threads()
_OWN_THREADS = _THREADS[0]() if _THREADS else None


def product_chain_time(dim: int) -> float:
    """Time a fixed chain of ``dim`` x ``dim`` matrix products, the kind
    of work oupac's solvers are made of, at OpenBLAS's own thread count."""
    block, count = _CHAINS[dim]
    current = _THREADS[0]() if _THREADS else None
    if current != _OWN_THREADS:
        _THREADS[1](_OWN_THREADS)
    try:
        start = time.perf_counter()
        state = np.eye(dim)
        for _ in range(count):
            state = block @ state
            state *= 0.5
        return time.perf_counter() - start
    finally:
        if current != _OWN_THREADS:
            _THREADS[1](current)


def kernel(kind: str):
    """The kernel named ``kind``, a key of NOMINAL_S."""
    return {"python": kernel_time,
            "blas64": lambda: product_chain_time(64),
            "blas128": lambda: product_chain_time(128)}[kind]


def sample(samples: list[float], kind: str = "python") -> list[float]:
    """Append BURST times of the ``kind`` kernel to ``samples`` and
    return them."""
    burst = [kernel(kind)() for _ in range(BURST)]
    samples.extend(burst)
    return burst


def scale(samples: list[float], kind: str = "python") -> float:
    """Factor that turns a time measured beside ``samples`` of the
    ``kind`` kernel into a time on the nominal machine."""
    return NOMINAL_S[kind] / float(np.median(samples))
