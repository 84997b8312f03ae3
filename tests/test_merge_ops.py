"""Merge operators against hand-written scalar references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    MergeConfig,
    ShapeMismatchError,
    cp_merge_layer,
    dare_transform,
    merge_deltas,
    merge_library,
    task_arithmetic,
    ties_merge,
    tsv_merge,
    uniform_merge,
)
from adapterfuse.merge_ops import METHODS, layer_salt
from adapterfuse.svd_kernel import truncated_approx

from conftest import make_library


def ties_reference(mats, k_density, alpha):
    """Scalar re-derivation of trim/elect/mean, no numpy in the hot path."""
    n = mats[0].size
    k = math.ceil(k_density * n)
    trimmed = []
    for m in mats:
        flat = [float(x) for x in np.ravel(m)]
        order = sorted(range(n), key=lambda i: (-abs(flat[i]), i))
        keep = set(order[:k])
        trimmed.append([flat[i] if i in keep else 0.0 for i in range(n)])
    out = []
    for i in range(n):
        vals = [t[i] for t in trimmed]
        elected = 1.0 if sum(vals) >= 0 else -1.0
        agree = [v for v in vals if v != 0.0 and (1.0 if v > 0 else -1.0) == elected]
        out.append(alpha * sum(agree) / len(agree) if agree else 0.0)
    return np.array(out).reshape(np.shape(mats[0]))


class TestLinearMethods:
    def test_uniform_is_scaled_mean(self, rng):
        mats = [rng.standard_normal((4, 5)) for _ in range(3)]
        cfg = MergeConfig(method="uniform", alpha=0.7)
        np.testing.assert_allclose(
            uniform_merge(mats, cfg), 0.7 * sum(mats) / 3, atol=1e-15)

    def test_task_arithmetic_is_scaled_sum(self, rng):
        mats = [rng.standard_normal((4, 5)) for _ in range(3)]
        cfg = MergeConfig(method="task-arithmetic", alpha=0.3)
        np.testing.assert_allclose(
            task_arithmetic(mats, cfg), 0.3 * sum(mats), atol=1e-15)

    def test_linearity(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        cfg = MergeConfig(method="uniform")
        np.testing.assert_allclose(
            uniform_merge([2.5 * m for m in mats], cfg),
            2.5 * uniform_merge(mats, cfg), atol=1e-12)
        cfg = MergeConfig(method="task-arithmetic")
        np.testing.assert_allclose(
            task_arithmetic([m + mats[0] for m in mats], cfg),
            task_arithmetic(mats, cfg) + 4 * mats[0], atol=1e-12)


class TestTies:
    def test_matches_scalar_reference_random(self, rng):
        for trial in range(20):
            mats = [rng.standard_normal((3, 4)) for _ in range(3)]
            kd = rng.uniform(0.1, 1.0)
            cfg = MergeConfig(method="ties", k_density=kd, alpha=1.3)
            np.testing.assert_allclose(
                ties_merge(mats, cfg), ties_reference(mats, kd, 1.3), atol=1e-12)

    def test_integer_grid_with_ties_in_magnitude(self):
        # repeated magnitudes exercise the lowest-index tie rule; on the
        # 16×16 grids the cut splits a run of equal magnitudes in every task
        rng = np.random.default_rng(5)
        cases = [((2, 3), 2, 0.5, 50)] + [((16, 16), 3, kd, 5) for kd in (0.1, 0.3, 0.5)]
        for shape, top, kd, trials in cases:
            k = math.ceil(kd * math.prod(shape))
            for _ in range(trials):
                mats = [rng.choice(np.arange(-top, top + 1), size=shape).astype(float)
                        for _ in range(3)]
                if shape == (16, 16):
                    for m in mats:
                        mags = np.sort(np.abs(m), axis=None)[::-1]
                        assert mags[k - 1] == mags[k]
                cfg = MergeConfig(method="ties", k_density=kd)
                np.testing.assert_array_equal(
                    ties_merge(mats, cfg), ties_reference(mats, kd, 1.0))

    def test_sign_tie_elects_positive(self):
        mats = [np.array([[1.0]]), np.array([[-1.0]])]
        cfg = MergeConfig(method="ties", k_density=1.0)
        # elected sign is + on an exact tie, so only the +1 entry is averaged
        assert ties_merge(mats, cfg)[0, 0] == 1.0

    def test_full_density_entry_values(self, rng):
        # with no trimming each output entry is 0 or the mean of the
        # same-signed inputs, times alpha
        mats = [rng.standard_normal((5, 5)) for _ in range(4)]
        cfg = MergeConfig(method="ties", k_density=1.0, alpha=2.0)
        out = ties_merge(mats, cfg)
        stack = np.stack(mats)
        for idx in np.ndindex(5, 5):
            vals = stack[(slice(None),) + idx]
            elected = 1.0 if vals.sum() >= 0 else -1.0
            agree = vals[(np.sign(vals) == elected) & (vals != 0)]
            want = 2.0 * agree.mean() if agree.size else 0.0
            assert out[idx] == pytest.approx(want, abs=1e-12)

    def test_all_zero_inputs(self):
        cfg = MergeConfig(method="ties", k_density=0.5)
        # empty deltas select nothing and keep their shape
        for shape in ((2, 2), (0, 4), (3, 0)):
            out = ties_merge([np.zeros(shape)] * 3, cfg)
            assert out.shape == shape
            np.testing.assert_array_equal(out, np.zeros(shape))


class TestDare:
    def test_p_zero_is_identity(self, rng):
        d = rng.standard_normal((4, 4))
        cfg = MergeConfig(method="dare-ta", dare_p=0.0)
        np.testing.assert_array_equal(dare_transform(d, cfg), d)

    def test_survivors_rescaled(self, rng):
        d = rng.standard_normal((6, 6))
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=1)
        out = dare_transform(d, cfg)
        kept = out != 0
        np.testing.assert_allclose(out[kept], d[kept] * 2.0, atol=1e-12)
        assert 0 < kept.sum() < d.size

    def test_deterministic_per_stream(self, rng):
        d = rng.standard_normal((5, 5))
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=9)
        np.testing.assert_array_equal(
            dare_transform(d, cfg, stream=(1, 2)), dare_transform(d, cfg, stream=(1, 2)))
        a = dare_transform(d, cfg, stream=(0,))
        b = dare_transform(d, cfg, stream=(1,))
        assert np.any(a != b)

    def test_unbiased_in_expectation(self):
        # pooled mean over seeded draws approaches the raw delta; per-draw
        # std at p=0.9 is |d|·sqrt(p/(1-p)) = 9, so 3 SE of the pooled mean
        # over 12000 entries is about 0.25
        d = np.full((2, 2), 3.0)
        acc = np.zeros_like(d)
        n = 3000
        for trial in range(n):
            cfg = MergeConfig(method="dare-ta", dare_p=0.9, seed=trial)
            acc += dare_transform(d, cfg)
        assert abs((acc / n).mean() - 3.0) < 0.25


class TestTsv:
    def test_full_density_equals_task_arithmetic(self, rng):
        mats = [rng.standard_normal((6, 4)) for _ in range(3)]
        cfg = MergeConfig(method="tsv", k_density=1.0, alpha=0.8)
        ta = task_arithmetic(mats, MergeConfig(method="task-arithmetic", alpha=0.8))
        np.testing.assert_allclose(tsv_merge(mats, cfg), ta, atol=1e-9)

    def test_partial_density_truncates_each_task(self, rng):
        mats = [rng.standard_normal((8, 6)) for _ in range(3)]
        cfg = MergeConfig(method="tsv", k_density=0.34, alpha=1.5)
        # k = ceil(0.34 * 6) = 3 leading directions per task, then summed
        want = 1.5 * sum(truncated_approx(m, 3) for m in mats)
        np.testing.assert_allclose(tsv_merge(mats, cfg), want, atol=1e-9)


class TestCpMergeLayer:
    def test_sum_of_rank_one_tasks_recovered(self, rng):
        # three rank-1 deltas with distinct energy: rank-3 joint model is exact
        mats = [s * np.outer(rng.standard_normal(6), rng.standard_normal(5))
                for s in (3.0, 2.0, 1.0)]
        cfg = MergeConfig(method="cp", cp_rank=3)
        np.testing.assert_allclose(cp_merge_layer(mats, cfg), sum(mats), atol=1e-5)

    def test_average_flag(self, rng):
        mats = [s * np.outer(rng.standard_normal(6), rng.standard_normal(5))
                for s in (3.0, 2.0, 1.0)]
        out_sum = cp_merge_layer(mats, MergeConfig(method="cp", cp_rank=3))
        out_avg = cp_merge_layer(mats, MergeConfig(method="cp", cp_rank=3, average=True))
        np.testing.assert_allclose(out_avg, out_sum / 3, atol=1e-9)


class TestDispatcher:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_run(self, method, rng):
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        cfg = MergeConfig(method=method, cp_rank=2, seed=3)
        out = merge_deltas(mats, cfg)
        assert out.shape == (4, 4) and np.all(np.isfinite(out))

    @pytest.mark.parametrize("method", ["uniform", "task-arithmetic", "ties", "tsv", "cp"])
    def test_permutation_invariance(self, method, rng):
        mats = [rng.standard_normal((5, 4)) for _ in range(4)]
        cfg = MergeConfig(method=method, k_density=0.5, cp_rank=2)
        a = merge_deltas(mats, cfg)
        b = merge_deltas([mats[2], mats[0], mats[3], mats[1]], cfg)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_dare_ta_equals_manual_composition(self, rng):
        mats = [rng.standard_normal((4, 3)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ta", dare_p=0.4, seed=7, alpha=1.1)
        salt = layer_salt("00")
        dropped = [dare_transform(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        want = task_arithmetic(dropped, MergeConfig(method="task-arithmetic", alpha=1.1))
        np.testing.assert_allclose(merge_deltas(mats, cfg, salt=salt), want, atol=1e-12)

    def test_dare_ties_equals_manual_composition(self, rng):
        mats = [rng.standard_normal((4, 3)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ties", dare_p=0.4, seed=7, k_density=0.6)
        salt = layer_salt("01")
        dropped = [dare_transform(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        want = ties_merge(dropped, MergeConfig(method="ties", k_density=0.6))
        np.testing.assert_allclose(merge_deltas(mats, cfg, salt=salt), want, atol=1e-12)
        # k_density > 1 - dare_p keeps more entries than DARE left nonzero,
        # so the k-th largest magnitude is 0
        mats = [rng.standard_normal((6, 5)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ties", dare_p=0.6, seed=2, k_density=0.7)
        dropped = [dare_transform(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        assert all(np.count_nonzero(d) < math.ceil(0.7 * d.size) for d in dropped)
        np.testing.assert_array_equal(
            merge_deltas(mats, cfg, salt=salt), ties_reference(dropped, 0.7, 1.0))

    def test_shape_mismatch_names_index(self, rng):
        mats = [rng.standard_normal((3, 3)), rng.standard_normal((3, 4))]
        with pytest.raises(ShapeMismatchError, match="1"):
            merge_deltas(mats, MergeConfig(method="uniform"))

    def test_empty_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            merge_deltas([], MergeConfig(method="uniform"))
        with pytest.raises(ValueError):
            merge_deltas([np.array([[np.nan]])], MergeConfig(method="uniform"))


class TestMergeLibrary:
    def test_layers_merged_independently(self):
        lib = make_library(n_tasks=3, n_layers=2, seed=4)
        cfg = MergeConfig(method="task-arithmetic")
        out = merge_library(lib, cfg)
        assert set(out) == set(lib.layers)
        for layer in lib.layers:
            want = sum(lib.deltas[(t, layer)].materialize() for t in lib.tasks)
            np.testing.assert_allclose(out[layer], want, atol=1e-12)

    def test_dare_streams_differ_across_layers(self):
        lib = make_library(n_tasks=2, n_layers=2, seed=8)
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=0)
        out = merge_library(lib, cfg)
        assert np.any(out["00"] != out["01"])
        # and rerunning reproduces the same bytes
        again = merge_library(lib, cfg)
        for layer in lib.layers:
            np.testing.assert_array_equal(out[layer], again[layer])


class TestMergeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MergeConfig(method="blend")
        with pytest.raises(ValueError):
            MergeConfig(method="ties", k_density=0.0)
        with pytest.raises(ValueError):
            MergeConfig(method="ties", k_density=1.5)
        with pytest.raises(ValueError):
            MergeConfig(method="dare-ta", dare_p=1.0)
        with pytest.raises(ValueError):
            MergeConfig(method="dare-ties", dare_p=-0.1)
        with pytest.raises(ValueError):
            MergeConfig(method="cp", cp_rank=0)
        with pytest.raises(ValueError):
            MergeConfig(method="uniform", alpha=float("inf"))

    def test_kv_round_trip(self):
        cfg = MergeConfig(method="dare-ties", dare_p=0.25, k_density=0.4,
                          alpha=1.5, seed=42)
        again = MergeConfig.from_kv(cfg.to_kv())
        assert again == cfg

    def test_from_kv_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            MergeConfig.from_kv("method = uniform\nwat = 1\n")
        with pytest.raises(ValueError):
            MergeConfig.from_kv("alpha = 1.0\n")


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_ties_reference_agreement_property(seed, n_mats, kd):
    rng = np.random.default_rng(seed)
    mats = [np.round(rng.standard_normal((3, 3)), 1) for _ in range(n_mats)]
    cfg = MergeConfig(method="ties", k_density=kd)
    np.testing.assert_allclose(
        ties_merge(mats, cfg), ties_reference(mats, kd, 1.0), atol=1e-12)
