"""The OpenBLAS pin of ``oupac._threads``."""

import sys
import threading

import pytest

from oupac import _threads
from oupac._threads import _one_blas_thread


def test_pin_holds_one_thread_and_restores_the_count(openblas_threads):
    if openblas_threads is None:
        pytest.skip("no OpenBLAS found")
    get, _ = openblas_threads
    assert get() == 2
    with _one_blas_thread():
        assert get() == 1
    assert get() == 2


def test_pin_restores_the_count_when_its_body_raises(openblas_threads):
    if openblas_threads is None:
        pytest.skip("no OpenBLAS found")
    get, _ = openblas_threads
    with pytest.raises(ZeroDivisionError):
        with _one_blas_thread():
            assert get() == 1
            1 / 0
    assert get() == 2


def _refuse(*args):
    raise OSError("refused")


def test_no_openblas_is_found_when_the_maps_cannot_be_read(monkeypatch):
    monkeypatch.setattr(_threads, "open", _refuse, raising=False)
    assert _threads._openblas_threads.__wrapped__() is None


def test_no_openblas_is_found_when_no_library_loads(monkeypatch):
    # each library named in the maps is skipped, and none is left
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", _refuse)
    assert _threads._openblas_threads.__wrapped__() is None


def test_pin_is_a_no_op_without_openblas(monkeypatch, openblas_threads):
    monkeypatch.setattr(_threads, "_openblas_threads", lambda: None)
    count = None if openblas_threads is None else openblas_threads[0]()
    with _one_blas_thread():
        assert count is None or openblas_threads[0]() == count
    assert count is None or openblas_threads[0]() == count


def test_pins_on_many_threads_share_one_save_and_restore(openblas_threads):
    # four threads on two cores, switching every microsecond: a save and
    # restore per section would let one section restore 2 inside another,
    # or restore the 1 it saved there after both
    if openblas_threads is None:
        pytest.skip("no OpenBLAS found")
    get, _ = openblas_threads
    seen = []

    def hold():
        for _ in range(200):
            with _one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hold) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1] * 800
    assert get() == 2
