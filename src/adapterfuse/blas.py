"""The thread policy: numpy's OpenBLAS held to one thread, and one worker pool.

cp_als (on a compressed Σr_k × Σr_k × N core or a dense stack: two
slice products and three R×R solves, _ls_solve, per iteration) and the
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

task_map spreads independent jobs (the dense merges' per-task fill,
DARE and TIES trim, and their column-block reductions) over one
process-wide pool of worker threads, one per core this process may run
on (os.sched_getaffinity), made on first use.  A call uses
min(n, cores, most) workers; each makes its scratch once and then takes
the lowest index not yet taken.  The caller picks `most` so that the
scratch of all its workers stays within what the serial code used
(merge_ops: `_workers_within`).  numpy's loops release the GIL, so on a
2-core VM the per-task stage (fill, DARE and trim) of a dare-ties
layer of 8 dense-stored 512² deltas took 28 ms on two workers against
41 ms on one, and its election 10 ms against 17.  No job calls BLAS, so the workers leave
OpenBLAS's thread count alone.  They run under the caller's
np.geterr(), since np.errstate is per thread.  A job writes only its
own slices and a reduction keeps its order within each column, so the
bytes do not depend on the number of workers.  With one worker
(most=1 runs small jobs inline) the jobs run in the calling thread,
without a hand-off.
"""

import ctypes
import functools
import os
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


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


_workers = _cores()
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool
    _pool = None  # a forked child has none of its parent's threads


os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_workers, thread_name_prefix="adapterfuse")
        return _pool


def task_map(fn, n: int, scratch=tuple, most: int | None = None) -> None:
    """Call fn(i, *scratch()) for every i in range(n); see the module docstring.

    Each of the min(n, cores, most) workers calls scratch() once.  When
    calls raise, workers take no new index, so every index below a
    failing one still runs, and the exception of the lowest failing
    index is raised, as a loop in index order would raise it.  `fn` must
    not call task_map itself.
    """
    workers = min(n, _workers, n if most is None else most)
    if workers <= 1:
        args = scratch()
        for i in range(n):
            fn(i, *args)
        return
    indices = iter(range(n))
    taken = threading.Lock()
    errors = {}
    errstate = np.geterr()

    def work():
        with np.errstate(**errstate):
            args = scratch()
            while not errors:
                with taken:
                    i = next(indices, n)
                if i == n:
                    return
                try:
                    fn(i, *args)
                except Exception as exc:
                    errors[i] = exc

    jobs = [_executor().submit(work) for _ in range(workers)]
    for job in jobs:
        job.exception()  # wait for every worker before raising anything
    for job in jobs:
        job.result()
    if errors:
        raise errors[min(errors)]
