"""single_threaded: the scoped OpenBLAS thread limit around cp_als and sti."""

import dataclasses
import threading
from collections import defaultdict

import pytest

from adapterfuse import AlsOptions, PlantedSpec, cp_als_factored, gen_planted_library, sti
from adapterfuse import cp_decomposition, interference
from adapterfuse.blas import _openblas, single_threaded

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
