"""One BLAS thread per training call.

A multi-threaded OpenBLAS splits some products differently from a
single-threaded one (float64 ``x @ W`` with 355 output columns, Dionis's
class count, is one), so with the library's default thread count a seeded
campaign's trainings would depend on the host.  :func:`one_blas_thread`
pins the thread count to one for the duration of a training call and then
restores it, as ``threadpoolctl`` does, through the ``ctypes`` entry points
of the OpenBLAS that numpy's wheels bundle (``scipy_openblas``).  On a BLAS
without those symbols it pins nothing and fails nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator

__all__ = ["blas_info", "one_blas_thread"]


def _openblas() -> tuple[str, object, object] | None:
    """``(name, set_num_threads, get_num_threads)`` of numpy's bundled
    OpenBLAS, or None when numpy links another BLAS."""
    try:
        import numpy._core._multiarray_umath as umath
    except ImportError:  # numpy < 2
        import numpy.core._multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
        config = lib.scipy_openblas_get_config64_
    except (AttributeError, OSError):
        return None
    config.restype = ctypes.c_char_p
    set_threads.argtypes = [ctypes.c_int]
    name = " ".join(config().decode(errors="replace").split()[:2])
    return name, set_threads, get_threads


_OPENBLAS = _openblas()
_lock = threading.Lock()
_depth = 0  # training calls inside the pin (threads of one process)
_saved = 1  # the thread count to restore when the last one leaves


def _reset_after_fork() -> None:
    global _lock, _depth
    _lock, _depth = threading.Lock(), 0


os.register_at_fork(after_in_child=_reset_after_fork)


def blas_info() -> tuple[str | None, int | None]:
    """``(library, threads)``: the pinnable BLAS and the thread count a
    training call runs at; ``(None, None)`` when nothing is pinned."""
    return (_OPENBLAS[0], 1) if _OPENBLAS is not None else (None, None)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body with BLAS at one thread, then restore the thread count.

    Nested and concurrent uses share one pin: the first to enter sets one
    thread and the last to leave restores the count, so a thread-pool
    backend's trainings never run at the default count.
    """
    global _depth, _saved
    if _OPENBLAS is None:
        yield
        return
    _, set_threads, get_threads = _OPENBLAS
    with _lock:
        if _depth == 0:
            _saved = get_threads()
            if _saved != 1:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                set_threads(_saved)
