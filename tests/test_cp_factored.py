"""The compressed CP fit (cp_als_factored) against the dense cp_als oracle."""

import time
import tracemalloc

import numpy as np
import pytest

from adapterfuse import (
    AdapterDelta,
    AlsOptions,
    MergeConfig,
    PlantedSpec,
    cp_als,
    cp_als_factored,
    cp_merge,
    cp_merge_layer,
    gen_planted_library,
    merge_library,
    recovery_error,
    stack_slices,
)

from conftest import cp_reconstruct


def layer_deltas(lib, layer_id):
    return [lib.deltas[(task, layer_id)] for task in lib.tasks]


def dense_fit(deltas, R, opts=AlsOptions()):
    return cp_als(stack_slices([d.materialize() for d in deltas]), R, opts)


def rel_diff(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def assert_same_factors(f, g):
    assert f.rank_R == g.rank_R
    for name in ("lam", "a_task", "b_row", "c_col"):
        np.testing.assert_array_equal(getattr(f, name), getattr(g, name))
    assert f.fit == g.fit
    assert f.error_trace == g.error_trace


@pytest.mark.parametrize("d,n_tasks,seed", [(256, 4, 0), (256, 4, 1), (256, 4, 2), (1024, 8, 0)],
                         ids=["S-0", "S-1", "S-2", "M-0"])
def test_planted_merge_matches_dense_oracle(d, n_tasks, seed):
    # rank_shared > 0 makes the stacked factors rank-deficient
    spec = PlantedSpec(n_tasks=n_tasks, d_in=d, d_out=d, rank_shared=2,
                       rank_specific=4, seed=seed)
    lib, gt = gen_planted_library(spec)
    cfg = MergeConfig(method="cp", cp_rank=spec.total_rank, seed=seed)
    layer_id = lib.layers[0]
    oracle = cp_merge_layer([d.materialize() for d in layer_deltas(lib, layer_id)], cfg)
    merged = merge_library(lib, cfg)[layer_id]
    assert rel_diff(merged, oracle) <= 1e-10
    assert recovery_error(merged, gt.layer_sums[layer_id]) < 1e-7


def test_rank_above_stacked_rank_runs_the_dense_path():
    # criterion 9's library: 2 tasks of rank 2 stack to 4 columns, R = 10 > 4
    spec = PlantedSpec(n_tasks=2, d_in=12, d_out=10, rank_shared=1,
                       rank_specific=1, seed=6)
    lib, _ = gen_planted_library(spec)
    deltas = layer_deltas(lib, lib.layers[0])
    opts = AlsOptions(seed=0)
    assert_same_factors(cp_als_factored(deltas, 10, opts), dense_fit(deltas, 10, opts))
    # the range error names the dense shape, as cp_als on the stack does
    with pytest.raises(ValueError, match=r"R=21 out of range \[1, 20\] for shape \(12, 10, 2\)"):
        cp_als_factored(deltas, 21, opts)


def test_range_error_names_dense_shape_when_a_mode_shrinks(rng):
    # d_in = 40 shrinks to 8 stacked columns, d_out = 2 does not: the core
    # (8, 2, 2) and the dense stack (40, 2, 2) have different R ranges
    deltas = [AdapterDelta("00", rng.standard_normal((40, 4)), rng.standard_normal((2, 4)))
              for _ in range(2)]
    with pytest.raises(ValueError, match=r"R=5 out of range \[1, 4\] for shape \(40, 2, 2\)"):
        cp_als_factored(deltas, 5)


def test_only_one_mode_shrinks():
    # Σr = 16 stacked columns: below d_in = 200, not below d_out = 16
    spec = PlantedSpec(n_tasks=4, d_in=200, d_out=16, rank_shared=1,
                       rank_specific=3, seed=3)
    lib, gt = gen_planted_library(spec)
    deltas = layer_deltas(lib, lib.layers[0])
    R = spec.total_rank
    f = cp_als_factored(deltas, R)
    g = dense_fit(deltas, R)
    assert f.b_row.shape == (200, R) and f.c_col.shape == (16, R)
    assert rel_diff(cp_merge(f), cp_merge(g)) <= 1e-10
    assert rel_diff(cp_reconstruct(f), cp_reconstruct(g)) <= 1e-10
    assert f.fit == pytest.approx(g.fit, abs=1e-12)


def test_rank_deficient_stack_matches_dense():
    # three shared components repeat in every task's A and B
    spec = PlantedSpec(n_tasks=4, d_in=64, d_out=48, rank_shared=3,
                       rank_specific=1, seed=5)
    lib, _ = gen_planted_library(spec)
    deltas = layer_deltas(lib, lib.layers[0])
    f = cp_als_factored(deltas, spec.total_rank)
    g = dense_fit(deltas, spec.total_rank)
    assert rel_diff(cp_reconstruct(f), cp_reconstruct(g)) <= 1e-10
    np.testing.assert_allclose(f.lam, g.lam, rtol=1e-10)
    assert f.fit == pytest.approx(g.fit, abs=1e-12)


def test_scaling_rides_in_the_row_basis(rng):
    deltas = [AdapterDelta("00", rng.standard_normal((30, 2)), rng.standard_normal((20, 2)),
                           scaling_s=s) for s in (1.0, 2.0, 4.0)]
    t = stack_slices([d.materialize() for d in deltas])
    f = cp_als_factored(deltas, 6)
    assert rel_diff(cp_reconstruct(f), t) < 1e-7
    assert f.fit == pytest.approx(1 - rel_diff(cp_reconstruct(f), t), abs=1e-12)


def test_all_zero_layer_matches_dense():
    deltas = [AdapterDelta("00", np.zeros((30, 2)), np.ones((20, 2))) for _ in range(3)]
    assert_same_factors(cp_als_factored(deltas, 4), dense_fit(deltas, 4))


def test_dense_stored_deltas_take_the_dense_path_bit_for_bit(rng):
    # A = Δ, B = I: 3 tasks stack to 3·d_out columns, never below a dimension
    deltas = [AdapterDelta("00", rng.standard_normal((9, 7)), np.eye(7)) for _ in range(3)]
    opts = AlsOptions(seed=2)
    assert_same_factors(cp_als_factored(deltas, 5, opts), dense_fit(deltas, 5, opts))


def test_rejects_empty_and_ragged(rng):
    with pytest.raises(ValueError):
        cp_als_factored([], 1)
    ragged = [AdapterDelta("00", rng.standard_normal((20, 1)), rng.standard_normal((4, 1))),
              AdapterDelta("00", rng.standard_normal((20, 1)), rng.standard_normal((3, 1)))]
    for R in (1, 3):  # compressed path, then R above Σr_k: the dense path
        with pytest.raises(ValueError):
            cp_als_factored(ragged, R)


def test_ladder_l_north_star_layer():
    # d_in = d_out = 4096, r = 16, N = 16: the dense stack alone would be 2 GiB
    spec = PlantedSpec(n_tasks=16, d_in=4096, d_out=4096, rank_shared=4,
                       rank_specific=12, seed=0)
    lib, gt = gen_planted_library(spec)
    layer_id = lib.layers[0]
    deltas = layer_deltas(lib, layer_id)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        f = cp_als_factored(deltas, spec.total_rank, AlsOptions(seed=0))
        err = recovery_error(cp_merge(f), gt.layer_sums[layer_id])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.fit >= 1 - 1e-6
    assert err < 1e-5
    assert seconds < 60.0
    assert peak < 2**30, peak / 2**20
