"""single_threaded, the scoped OpenBLAS thread limit around cp_als and sti,
and task_map, the worker pool of the dense merges."""

import dataclasses
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import pytest

from adapterfuse import AlsOptions, PlantedSpec, cp_als_factored, gen_planted_library, sti
from adapterfuse import blas, cp_decomposition, interference
from adapterfuse.blas import _openblas, single_threaded, task_map

needs_openblas = pytest.mark.skipif(_openblas() is None, reason="numpy has no bundled OpenBLAS")


@needs_openblas
def test_sets_one_thread_and_restores_the_count():
    get, _ = _openblas()
    before = get()
    with single_threaded():
        assert get() == 1
        with single_threaded():
            assert get() == 1
        assert get() == 1  # the inner block leaves the outer's limit in place
    assert get() == before


@needs_openblas
def test_restores_the_count_after_an_exception():
    get, _ = _openblas()
    before = get()
    with pytest.raises(RuntimeError):
        with single_threaded():
            raise RuntimeError("boom")
    assert get() == before


@needs_openblas
def test_overlapping_blocks_on_two_threads_restore_once_both_leave():
    get, _ = _openblas()
    before = get()
    entered, release = threading.Barrier(2, timeout=10), threading.Event()
    seen = []

    def worker():
        with single_threaded():
            entered.wait()
            release.wait(timeout=10)
        seen.append(get())

    thread = threading.Thread(target=worker)
    thread.start()
    with single_threaded():
        entered.wait()
    seen.append(get())  # the worker still holds its block
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == [1, before]
    assert get() == before


@needs_openblas
def test_cp_als_and_sti_run_on_one_thread(monkeypatch):
    get, _ = _openblas()
    before = get()
    seen = defaultdict(list)

    def record(module, name):
        fn = getattr(module, name)

        def recording(*args, **kwargs):
            seen[name].append(get())
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    record(cp_decomposition, "_ls_solve")
    record(cp_decomposition, "normalize_factors")
    record(interference, "svd")
    spec = PlantedSpec(n_tasks=4, d_in=40, d_out=40, rank_shared=1, rank_specific=2, seed=1)
    lib, _ = gen_planted_library(spec)
    layer = [lib.deltas[(task, lib.layers[0])] for task in lib.tasks]
    noisy, _ = gen_planted_library(dataclasses.replace(spec, noise_sigma=0.05))
    dense_stored = [noisy.deltas[(task, noisy.layers[0])] for task in noisy.tasks]

    cp_als_factored(layer, spec.total_rank, AlsOptions(seed=1))  # Σr_k = 12 < 40: core fit
    assert set(seen["_ls_solve"]) == {1}
    assert seen["normalize_factors"] == [1, before]  # the lift keeps the caller's count
    seen.clear()
    cp_als_factored(dense_stored, 13, AlsOptions(seed=1))  # B = I: the dense stack
    assert set(seen["_ls_solve"]) == {1}
    assert seen["normalize_factors"] == [1]
    sti([d.materialize() for d in layer], k=2)
    assert seen["svd"] == [1] * spec.n_tasks
    assert get() == before


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(blas, "_workers", 2)


def test_task_map_runs_every_index_once_with_scratch_per_worker(two_workers):
    seen, made = [], []

    def scratch():
        made.append(threading.current_thread())
        return (threading.current_thread(),)

    def record(i, owner):
        assert owner is threading.current_thread()  # the worker's own scratch
        seen.append(i)

    task_map(record, 50, scratch)
    assert sorted(seen) == list(range(50))
    assert 1 <= len(made) <= 2 and threading.main_thread() not in made


def test_task_map_raises_the_lowest_failing_index(two_workers):
    # index 1 fails late, index 3 early: a loop in index order raises 1's error
    started, ran = threading.Event(), set()

    def fn(i):
        ran.add(i)
        if i == 1:
            started.wait(timeout=10)
            time.sleep(0.05)
            raise ValueError("task 1")
        if i == 3:
            started.set()
            raise ValueError("task 3")

    with pytest.raises(ValueError, match="task 1"):
        task_map(fn, 8)
    assert {0, 1, 2, 3} <= ran


def test_task_map_workers_take_the_callers_errstate(two_workers):
    seen = []

    def fn(i):
        seen.append((threading.current_thread(), np.geterr()["over"]))

    with np.errstate(over="ignore"):
        task_map(fn, 4)
    assert {over for _, over in seen} == {"ignore"}
    assert threading.main_thread() not in {thread for thread, _ in seen}


@pytest.mark.parametrize("most, workers", [(1, 2), (None, 1)])
def test_task_map_runs_in_the_calling_thread_with_one_worker(monkeypatch, most, workers):
    monkeypatch.setattr(blas, "_workers", workers)
    seen = []
    task_map(lambda i: seen.append((i, threading.current_thread())), 3, most=most)
    assert seen == [(i, threading.main_thread()) for i in range(3)]


def test_task_map_makes_scratch_for_at_most_most_workers(eight_workers):
    made = []

    def scratch():
        made.append(threading.current_thread())
        time.sleep(0.01)  # every worker of the pool gets to start
        return ()

    task_map(lambda i: None, 40, scratch, most=3)
    assert 1 <= len(made) <= 3


def test_pool_loads_on_first_use_only():
    # the cp and interference paths never start the pool
    code = """
import sys
import numpy as np
from adapterfuse import AlsOptions, MergeConfig, PlantedSpec, cp_als_factored
from adapterfuse import gen_planted_library, merge_library
from adapterfuse.interference import layer_profile
lib, _ = gen_planted_library(PlantedSpec(n_tasks=3, d_in=12, d_out=10, rank_shared=1,
                                         rank_specific=1, seed=1, noise_sigma=0.05))
layer_profile(lib, k=1, R=2)
merge_library(lib, MergeConfig(method="cp", cp_rank=2))
merge_library(lib, MergeConfig(method="ties"))  # a stack below one block runs inline
print("concurrent.futures" in sys.modules)
big, _ = gen_planted_library(PlantedSpec(n_tasks=2, d_in=256, d_out=256, rank_shared=1,
                                         rank_specific=1, seed=1))
merge_library(big, MergeConfig(method="ties"))
print("concurrent.futures" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out == ["False", "True" if blas._workers > 1 else "False"]


def test_task_map_stress_more_workers_than_cores(eight_workers):
    # a short switch interval: an index taken twice or skipped would show
    # in the counts
    interval = sys.getswitchinterval()
    counts = np.zeros(3000, dtype=np.int64)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            task_map(lambda i: counts.__setitem__(i, counts[i] + 1), len(counts))
    finally:
        sys.setswitchinterval(interval)
    assert np.all(counts == 5)
