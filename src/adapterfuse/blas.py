"""Hold numpy's OpenBLAS to one thread over a block of small calls.

cp_als (on a compressed Σr_k × Σr_k × N core or a dense stack) and the
per-task SVDs of sti run inside single_threaded().  At those sizes
OpenBLAS's thread hand-offs cost more than they save, its idle threads
spin between calls, and each call waits for its slowest thread, so the
speed follows other load on the machine.  On a 2-core Xeon VM, SVDs
run back to back took 6.1 ms on two threads and 4.0 ms on one at
96×256, and 4.2 and 2.0 ms at 64×384; `interfere` on a library of
96×64 deltas ran 18-19 ops/s on two threads and 25 on one.  Large
factorizations do gain from the second thread: a 1024×1024 SVD took
590-610 ms on two and 810-910 ms on one, so truncated_approx (TSV)
keeps the caller's thread count.  single_threaded() does nothing
without an OpenBLAS in numpy's wheel.
"""

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (getter, setter) symbols in numpy 2 wheels, numpy 1 wheels, plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The thread count is one per process, so is the tally of blocks holding it.
_lock = threading.Lock()
_inside = 0
_saved = 1


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def single_threaded():
    """BLAS calls inside the block run on one thread; see the module docstring."""
    global _inside, _saved
    api = _openblas()
    if api is None:
        yield
        return
    get, set_ = api
    with _lock:
        if _inside == 0:
            _saved = get()
            set_(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if _inside == 0:
                set_(_saved)
