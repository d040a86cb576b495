import pytest

from oupac import SymmetricMatrix, _threads
from oupac.rng import make_rng


def random_symmetric(dim: int, seed: int, scale: float = 1.0) -> SymmetricMatrix:
    """Random symmetric (not necessarily definite) matrix."""
    g = make_rng(seed).standard_normal((dim, dim)) * scale
    return SymmetricMatrix(g)


@pytest.fixture
def openblas_threads():
    """``(get, set)`` for OpenBLAS's thread count, set to 2 for the test so
    that a pin to one thread shows, and restored after; None when numpy's
    BLAS is not an OpenBLAS that ``oupac._threads`` finds."""
    threads = _threads._openblas_threads()
    if threads is None:
        yield None
        return
    get, set_count = threads
    own = get()
    set_count(2)
    try:
        yield threads
    finally:
        set_count(own)
