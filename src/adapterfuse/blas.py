"""The thread policy: numpy's OpenBLAS held to one thread, and one worker pool.

OpenBLAS runs on one thread wherever the package calls it through the
CLI, and all parallelism comes from task_map.  The last bits of a
product, QR or SVD depend on OpenBLAS's thread count, which it takes
from the cores it sees, so a second thread would make the output bytes
follow the machine.  single_threaded() is held around each CLI
subcommand, merge_layer, CP fit (QRs and lift included), sti,
AdapterDelta.materialize and truncated_approx, so a caller's own
product has the bits a merge uses.  A library caller of another entry
(kmeans_fit, svd, cp_merge, recovery_error) runs on its own thread
count unless it holds single_threaded() itself.  At the sizes of the
fits and of sti one thread is also faster: OpenBLAS's hand-offs cost
more than they save, and its idle threads spin between calls.  On a
2-core Xeon VM, SVDs took 6.1 ms on two threads and 4.0 ms on one at
96×256; a 1024×1024 one took 590-610 ms on two and 810-910 ms on one.
single_threaded() does nothing without an OpenBLAS in numpy's wheel.

task_map spreads independent jobs (the dense merges' first pass, one
task per job, and their second, one row panel per job) over one
process-wide pool of worker threads, one per core this process may run
on (os.sched_getaffinity), made on first use.  A call uses
worker_count(n, most) = min(n, cores, most) workers; each makes its
scratch once and then takes the lowest index not yet taken.  The caller
picks `most` so that its workers' scratch stays within the memory it
means to hold (merge_ops: at most two workers on a layer).  numpy's
loops, BLAS and LAPACK release the GIL, and a job's BLAS call runs on
its worker under the caller's process-wide one-thread limit.  On a
2-core VM the dare-ties merge of a layer of 8 dense-stored 512² deltas
took 24-33 ms on two workers against 29-34 ms on one (medians of
interleaved runs): the VM's two threads share most of one core.
Workers run under the caller's np.geterr(), since np.errstate is per
thread.  A job writes only its own task's or panel's entries, and a
panel adds its tasks in task order, so the bytes do not depend on the
number of workers.  With one worker the jobs run in the calling thread,
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


def worker_count(n: int, most: int | None = None) -> int:
    """The number of workers task_map runs n jobs on: min(n, cores, most)."""
    return min(n, _workers, n if most is None else most)


def task_map(fn, n: int, scratch=tuple, most: int | None = None) -> None:
    """Call fn(i, *scratch()) for every i in range(n); see the module docstring.

    Each of the worker_count(n, most) workers calls scratch() once.  When
    calls raise, workers take no new index, so every index below a
    failing one still runs, and the exception of the lowest failing
    index is raised, as a loop in index order would raise it.  `fn` must
    not call task_map itself.
    """
    workers = worker_count(n, most)
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
