"""Run a block of numpy work on one BLAS thread.

OpenBLAS splits a GEMM over all its threads once m*n*k passes a fixed size
(262144); conv2d's band products, such as small_fcnn's (2944x66)@(66x22),
pass it. Such a call can wait on the second thread, or on the virtual CPU
it runs on, most likely after it has been idle: on a two-vCPU VM, single
conv2d calls of a scoring run took 205-425 ms against a median of 3-9 ms,
and one float small_fcnn `evaluate` of 8 items read 4.8 items/s against a
median of 12.4. Scoring multiplies one item at a time, so its products
are small; ``engine.per_item`` scores as many items at once as the BLAS
had threads instead.

``one_thread`` finds the OpenBLAS that numpy loaded among the process's
mapped files, sets its thread count to 1 for the block, then back, and
yields the count it found. At start-up OpenBLAS caps that count at the
CPUs the process may run on. Where there is no OpenBLAS to find (another
BLAS, or no /proc), it changes nothing and yields 1.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

import numpy as np  # noqa: F401  (loads the BLAS before _find looks for it)

# (set, get) symbol names: a plain OpenBLAS, and the 64-bit-index ones that
# numpy's wheels and other builds ship
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)

_threads = None  # (set, get) once looked up; () when there is none


def _find():
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except (OSError, IndexError):
        return ()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
                set_.argtypes, set_.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int
                return set_, get
    return ()


@contextmanager
def one_thread():
    global _threads
    if _threads is None:
        _threads = _find()
    if not _threads:
        yield 1
        return
    set_, get = _threads
    before = get()
    set_(1)
    try:
        yield before
    finally:
        set_(before)
