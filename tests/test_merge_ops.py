"""Merge operators against hand-written scalar references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    AdapterDelta,
    AdapterLibrary,
    MergeConfig,
    ShapeMismatchError,
    load_library,
    merge_deltas,
    merge_library,
    save_library,
)
from adapterfuse import blas, merge_ops
from adapterfuse.cli import main
from adapterfuse.merge_ops import METHODS, layer_salt, merge_layer
from adapterfuse.svd_kernel import truncated_approx

import conftest
from conftest import (
    assert_same_bytes,
    panel_products,
    dare_transform_oracle,
    dense_merge_oracle,
    make_library,
    ties_merge_oracle,
)

DENSE_METHODS = tuple(m for m in METHODS if m != "cp")


def one_layer_library(deltas, order=None):
    """Task i holds deltas[i] as layer "00"; `order` lists the tasks' order."""
    order = range(len(deltas)) if order is None else order
    return AdapterLibrary(tasks=tuple(str(i) for i in order), layers=("00",),
                          deltas={(str(i), "00"): d for i, d in enumerate(deltas)})


def dense_library(mats, order=None):
    """One-layer library of dense-stored deltas (A = Δ, B = I)."""
    return one_layer_library([AdapterDelta("00", m, np.eye(m.shape[1])) for m in mats], order)


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
            merge_deltas(mats, cfg), 0.7 * sum(mats) / 3, atol=1e-15)

    def test_task_arithmetic_is_scaled_sum(self, rng):
        mats = [rng.standard_normal((4, 5)) for _ in range(3)]
        cfg = MergeConfig(method="task-arithmetic", alpha=0.3)
        np.testing.assert_allclose(
            merge_deltas(mats, cfg), 0.3 * sum(mats), atol=1e-15)

    def test_linearity(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        cfg = MergeConfig(method="uniform")
        np.testing.assert_allclose(
            merge_deltas([2.5 * m for m in mats], cfg),
            2.5 * merge_deltas(mats, cfg), atol=1e-12)
        cfg = MergeConfig(method="task-arithmetic")
        np.testing.assert_allclose(
            merge_deltas([m + mats[0] for m in mats], cfg),
            merge_deltas(mats, cfg) + 4 * mats[0], atol=1e-12)


class TestTies:
    def test_matches_scalar_reference_random(self, rng):
        for trial in range(20):
            mats = [rng.standard_normal((3, 4)) for _ in range(3)]
            kd = rng.uniform(0.1, 1.0)
            cfg = MergeConfig(method="ties", k_density=kd, alpha=1.3)
            np.testing.assert_allclose(
                merge_deltas(mats, cfg), ties_reference(mats, kd, 1.3), atol=1e-12)

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
                    merge_deltas(mats, cfg), ties_reference(mats, kd, 1.0))

    def test_sign_tie_elects_positive(self):
        mats = [np.array([[1.0]]), np.array([[-1.0]])]
        cfg = MergeConfig(method="ties", k_density=1.0)
        # elected sign is + on an exact tie, so only the +1 entry is averaged
        assert merge_deltas(mats, cfg)[0, 0] == 1.0

    def test_full_density_entry_values(self, rng):
        # with no trimming each output entry is 0 or the mean of the
        # same-signed inputs, times alpha
        mats = [rng.standard_normal((5, 5)) for _ in range(4)]
        cfg = MergeConfig(method="ties", k_density=1.0, alpha=2.0)
        out = merge_deltas(mats, cfg)
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
            out = merge_deltas([np.zeros(shape)] * 3, cfg)
            assert out.shape == shape
            np.testing.assert_array_equal(out, np.zeros(shape))


def dare_drop(d, cfg, salt=0):
    """DARE's drop of one matrix alone: a one-task dare-ta merge, stream (0, salt)."""
    return merge_deltas([d], cfg, salt=salt)


class TestDare:
    def test_p_zero_is_identity(self, rng):
        d = rng.standard_normal((4, 4))
        cfg = MergeConfig(method="dare-ta", dare_p=0.0)
        np.testing.assert_array_equal(dare_drop(d, cfg), d)

    def test_survivors_rescaled(self, rng):
        d = rng.standard_normal((6, 6))
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=1)
        out = dare_drop(d, cfg)
        kept = out != 0
        np.testing.assert_allclose(out[kept], d[kept] * 2.0, atol=1e-12)
        assert 0 < kept.sum() < d.size

    def test_deterministic_per_stream(self, rng):
        d = rng.standard_normal((5, 5))
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=9)
        np.testing.assert_array_equal(dare_drop(d, cfg, salt=2), dare_drop(d, cfg, salt=2))
        assert np.any(dare_drop(d, cfg, salt=0) != dare_drop(d, cfg, salt=1))

    def test_negative_salt_rejected_by_name(self, rng):
        d = rng.standard_normal((3, 3))
        for method in DENSE_METHODS:
            with pytest.raises(ValueError, match="salt must be ≥ 0, got -1"):
                merge_deltas([d, d], MergeConfig(method=method), salt=-1)

    def test_large_stream_words_are_not_folded(self, rng):
        # a salt ≥ 2^64 is its own stream word, not its value mod 2^64
        d = rng.standard_normal((6, 6))
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=2)
        big = dare_drop(d, cfg, salt=(1 << 64) + 3)
        assert np.any(big != dare_drop(d, cfg, salt=3))
        np.testing.assert_array_equal(big, dare_transform_oracle(d, cfg, stream=(0, (1 << 64) + 3)))

    def test_one_task_is_the_drop_of_the_seed_stream(self, rng):
        # numpy's SeedSequence reads (seed, 0, 0) as (seed,): a one-task
        # dare-ta merge at salt 0 drops with the mask drawn from the seed alone
        cfg = MergeConfig(method="dare-ta", dare_p=0.5, seed=4)
        for _ in range(20):
            d = rng.standard_normal((7, 9))
            assert_same_bytes(dare_drop(d, cfg), dare_transform_oracle(d, cfg))

    def test_unbiased_in_expectation(self):
        # pooled mean over seeded draws approaches the raw delta; per-draw
        # std at p=0.9 is |d|·sqrt(p/(1-p)) = 9, so 3 SE of the pooled mean
        # over 12000 entries is about 0.25
        d = np.full((2, 2), 3.0)
        acc = np.zeros_like(d)
        n = 3000
        for trial in range(n):
            cfg = MergeConfig(method="dare-ta", dare_p=0.9, seed=trial)
            acc += dare_drop(d, cfg)
        assert abs((acc / n).mean() - 3.0) < 0.25


class TestTsv:
    def test_full_density_equals_task_arithmetic(self, rng):
        mats = [rng.standard_normal((6, 4)) for _ in range(3)]
        cfg = MergeConfig(method="tsv", k_density=1.0, alpha=0.8)
        ta = merge_deltas(mats, MergeConfig(method="task-arithmetic", alpha=0.8))
        np.testing.assert_allclose(merge_deltas(mats, cfg), ta, atol=1e-9)

    def test_partial_density_truncates_each_task(self, rng):
        mats = [rng.standard_normal((8, 6)) for _ in range(3)]
        cfg = MergeConfig(method="tsv", k_density=0.34, alpha=1.5)
        # k = ceil(0.34 * 6) = 3 leading directions per task, then summed
        want = 1.5 * sum(truncated_approx(m, 3) for m in mats)
        np.testing.assert_allclose(merge_deltas(mats, cfg), want, atol=1e-9)


class TestCpMergeLayer:
    """The cp merge of one layer, which runs through merge_library."""

    @staticmethod
    def rank_one_deltas(rng):
        # three rank-1 deltas with distinct energy: rank-3 joint model is exact
        return [AdapterDelta("00", s * rng.standard_normal((6, 1)), rng.standard_normal((5, 1)))
                for s in (3.0, 2.0, 1.0)]

    def test_sum_of_rank_one_tasks_recovered(self, rng):
        deltas = self.rank_one_deltas(rng)
        out = merge_library(one_layer_library(deltas), MergeConfig(method="cp", cp_rank=3))
        np.testing.assert_allclose(out["00"], sum(d.materialize() for d in deltas), atol=1e-5)

    def test_task_order_invariance(self, rng):
        deltas = self.rank_one_deltas(rng)
        cfg = MergeConfig(method="cp", cp_rank=3)
        a = merge_library(one_layer_library(deltas), cfg)["00"]
        b = merge_library(one_layer_library(deltas, order=(2, 0, 1)), cfg)["00"]
        # the order changes the stacked QRs, so each fit stops (tol on the
        # fit change) at its own point near the exact sum: the tolerance above
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestDispatcher:
    # merge_library dispatches every method: cp to the factored fit, the
    # dense methods to merge_deltas
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_run(self, method, rng):
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        cfg = MergeConfig(method=method, cp_rank=2, seed=3)
        out = merge_library(dense_library(mats), cfg)["00"]
        assert out.shape == (4, 4) and np.all(np.isfinite(out))

    @pytest.mark.parametrize("method", ["uniform", "task-arithmetic", "ties", "tsv", "cp"])
    def test_permutation_invariance(self, method, rng):
        mats = [rng.standard_normal((5, 4)) for _ in range(4)]
        cfg = MergeConfig(method=method, k_density=0.5, cp_rank=2)
        a = merge_library(dense_library(mats), cfg)["00"]
        b = merge_library(dense_library(mats, order=(2, 0, 3, 1)), cfg)["00"]
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_merge_layer_rejects_an_unknown_layer(self, rng):
        lib = dense_library([rng.standard_normal((4, 4)) for _ in range(2)])
        with pytest.raises(ValueError, match="library has no layer 'zz'"):
            merge_layer(lib, "zz", MergeConfig(method="uniform"))

    def test_merge_deltas_points_cp_to_merge_library(self, rng):
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        with pytest.raises(ValueError, match="merge_library"):
            merge_deltas(mats, MergeConfig(method="cp", cp_rank=2))

    def test_dare_ta_equals_manual_composition(self, rng):
        mats = [rng.standard_normal((4, 3)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ta", dare_p=0.4, seed=7, alpha=1.1)
        salt = layer_salt("00")
        dropped = [dare_transform_oracle(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        want = merge_deltas(dropped, MergeConfig(method="task-arithmetic", alpha=1.1))
        np.testing.assert_allclose(merge_deltas(mats, cfg, salt=salt), want, atol=1e-12)

    def test_dare_ties_equals_manual_composition(self, rng):
        mats = [rng.standard_normal((4, 3)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ties", dare_p=0.4, seed=7, k_density=0.6)
        salt = layer_salt("01")
        dropped = [dare_transform_oracle(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        want = merge_deltas(dropped, MergeConfig(method="ties", k_density=0.6))
        np.testing.assert_allclose(merge_deltas(mats, cfg, salt=salt), want, atol=1e-12)
        # k_density > 1 - dare_p keeps more entries than DARE left nonzero,
        # so the k-th largest magnitude is 0
        mats = [rng.standard_normal((6, 5)) for _ in range(3)]
        cfg = MergeConfig(method="dare-ties", dare_p=0.6, seed=2, k_density=0.7)
        dropped = [dare_transform_oracle(m, cfg, stream=(i, salt)) for i, m in enumerate(mats)]
        assert all(np.count_nonzero(d) < math.ceil(0.7 * d.size) for d in dropped)
        np.testing.assert_array_equal(
            merge_deltas(mats, cfg, salt=salt), ties_reference(dropped, 0.7, 1.0))

    def test_shape_mismatch_names_index(self, rng):
        mats = [rng.standard_normal((3, 3)), rng.standard_normal((3, 4))]
        with pytest.raises(ShapeMismatchError, match="1"):
            merge_deltas(mats, MergeConfig(method="uniform"))
        mats = [rng.standard_normal((3, 3)), rng.standard_normal((3, 3, 2))]
        with pytest.raises(ShapeMismatchError, match=r"delta 1 is not a matrix \(ndim=3\)"):
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


def with_nonzeros(rng, shape, counts):
    """One matrix per count, each with exactly that many nonzero entries."""
    mats = []
    for count in counts:
        m = np.zeros(math.prod(shape))
        m[rng.choice(m.size, size=count, replace=False)] = rng.standard_normal(count)
        mats.append(m.reshape(shape))
    return mats


def signed_zero_grid(rng, n_tasks, shape):
    """Small integers with magnitude ties everywhere; half the zeros are −0.0."""
    mats = []
    for _ in range(n_tasks):
        m = rng.choice(np.arange(-3, 4), size=shape).astype(float)
        m[(m == 0) & (rng.random(shape) < 0.5)] = -0.0
        mats.append(m)
    return mats


def wide_range(rng, n_tasks, shape):
    """Magnitudes over twelve decades, so any change in summation order shows."""
    return [rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
            for _ in range(n_tasks)]


def oracle_cases():
    """(id, matrices, MergeConfig fields) covering the byte-equality corners."""
    rng = np.random.default_rng(77)
    normal = [rng.standard_normal((12, 10)) for _ in range(4)]
    return [
        ("signed-zeros", signed_zero_grid(rng, 3, (16, 16)), dict(k_density=0.3, dare_p=0.5)),
        ("dare-p0.5", normal, dict(k_density=0.2, dare_p=0.5, seed=3)),
        ("dare-p0.9", normal, dict(k_density=0.2, dare_p=0.9, seed=4)),
        # n = 20 entries, k = 5
        ("below-k-nonzeros", with_nonzeros(rng, (4, 5), (3, 0, 4)), dict(k_density=0.25)),
        ("exactly-k-nonzeros", with_nonzeros(rng, (4, 5), (5, 5, 5)), dict(k_density=0.25)),
        ("full-density", normal, dict(k_density=1.0, alpha=-0.7, seed=5)),
        ("p-zero", normal, dict(dare_p=0.0, alpha=1.3)),
        ("one-task", normal[:1], dict(k_density=0.4, seed=6)),
        # one and two entries over 16 tasks: a stack's sum would add the
        # tasks pairwise at one entry, in task order at two; same-signed
        # entries all agree, so every one is summed
        ("tall-1x1", [np.abs(m) for m in wide_range(rng, 16, (1, 1))], dict(k_density=1.0)),
        ("tall-1x2", [np.abs(m) for m in wide_range(rng, 16, (1, 2))], dict(k_density=1.0)),
        # one panel, but 16 tasks' rows do not fit in one: a task at a time
        ("blocks", wide_range(rng, 16, (64, 65)), dict(k_density=0.6, dare_p=0.3)),
        ("column-blocks", wide_range(rng, 16, (96, 97)), dict(k_density=0.6, dare_p=0.3)),
        # rows with no zeros (the trim skips compress), ~85 entries of
        # magnitude 3 per row against k = 77: ties at the threshold
        ("zero-free-ties", [m + np.sign(m + 0.5) * (m == 0) for m in
                            signed_zero_grid(rng, 4, (16, 16))], dict(k_density=0.3)),
        # two panels, a seventh of the entries zeros, ~11600 entries of
        # magnitude 3 against k = 8192: the ties at the threshold span panels
        ("ties-across-blocks", [rng.integers(-3, 4, (256, 160)).astype(float)
                                for _ in range(3)], dict(k_density=0.2, dare_p=0.2)),
    ]


def numpy_summed(monkeypatch):
    """The oracles with numpy's sums over the stack in place of task order."""
    monkeypatch.setattr(conftest, "task_order_sum", lambda rows: rows.sum(axis=0))


class TestByteOracles:
    """Every dense method against the list-based oracles, bit for bit."""

    @pytest.mark.parametrize("method", DENSE_METHODS)
    @pytest.mark.parametrize("case", oracle_cases(), ids=lambda c: c[0])
    def test_merge_deltas(self, case, method):
        _, mats, fields = case
        cfg = MergeConfig(method=method, **fields)
        salt = layer_salt("07")
        assert_same_bytes(merge_deltas(mats, cfg, salt=salt), dense_merge_oracle(mats, cfg, salt))

    @pytest.mark.parametrize("method", ["ties", "dare-ties"])
    @pytest.mark.parametrize("case", [c for c in oracle_cases() if c[1][0].size > 1],
                             ids=lambda c: c[0])
    def test_task_order_oracle_is_numpys_sum_past_one_entry(self, case, method, monkeypatch):
        # pinning the oracle's sums to task order changed only one-entry layers
        _, mats, fields = case
        cfg = MergeConfig(method=method, **fields)
        salt = layer_salt("07")
        pinned = dense_merge_oracle(mats, cfg, salt)
        numpy_summed(monkeypatch)
        assert_same_bytes(pinned, dense_merge_oracle(mats, cfg, salt))

    @pytest.mark.parametrize("method", DENSE_METHODS)
    @pytest.mark.parametrize("case", oracle_cases()[:8], ids=lambda c: c[0])
    @pytest.mark.parametrize("stored", ["dense", "factored"])
    def test_merge_library(self, stored, case, method):
        _, mats, fields = case
        if stored == "dense":
            lib = dense_library(mats)
        else:
            # B = 2I takes the matmul path and keeps the zeros and ties
            lib = one_layer_library([AdapterDelta("00", m, 2.0 * np.eye(m.shape[1]), 1.5)
                                     for m in mats])
        cfg = MergeConfig(method=method, **fields)
        want = dense_merge_oracle(
            [lib.deltas[(t, "00")].materialize() for t in lib.tasks], cfg, layer_salt("00"))
        assert_same_bytes(merge_library(lib, cfg)["00"], want)

    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_low_rank_library(self, method):
        lib = make_library(n_tasks=4, n_layers=2, d_in=9, d_out=7, seed=11, scaling=2.0)
        cfg = MergeConfig(method=method, k_density=0.3, dare_p=0.6, seed=8)
        out = merge_library(lib, cfg)
        for layer in lib.layers:
            want = dense_merge_oracle(
                [lib.deltas[(t, layer)].materialize() for t in lib.tasks], cfg, layer_salt(layer))
            assert_same_bytes(out[layer], want)

    @pytest.mark.parametrize("method", DENSE_METHODS)
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_shapes(self, shape, method):
        cfg = MergeConfig(method=method, dare_p=0.5)
        mats = [np.zeros(shape)] * 3
        lib = one_layer_library([AdapterDelta("00", np.zeros((shape[0], 1)),
                                              np.zeros((shape[1], 1)))] * 3)
        if method == "tsv":  # no singular value to keep
            for merge in (lambda: merge_deltas(mats, cfg), lambda: merge_library(lib, cfg)):
                with pytest.raises(ValueError):
                    merge()
            return
        want = dense_merge_oracle(mats, cfg)
        assert_same_bytes(merge_deltas(mats, cfg), want)
        assert_same_bytes(merge_library(lib, cfg)["00"], want)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9])
    def test_dare_transform(self, p):
        rng = np.random.default_rng(3)
        mats = signed_zero_grid(rng, 1, (9, 11)) + [np.asfortranarray(rng.standard_normal((6, 5)))]
        cfg = MergeConfig(method="dare-ta", dare_p=p, seed=12)
        for m in mats:
            assert_same_bytes(dare_drop(m, cfg, salt=40), dense_merge_oracle([m], cfg, salt=40))

    def test_ties_merge(self):
        rng = np.random.default_rng(4)
        for kd in (0.1, 0.3, 0.5):
            mats = signed_zero_grid(rng, 5, (16, 16))
            cfg = MergeConfig(method="ties", k_density=kd, alpha=0.9)
            assert_same_bytes(merge_deltas(mats, cfg), ties_merge_oracle(mats, cfg))

    def test_public_operators_leave_inputs_unchanged(self):
        rng = np.random.default_rng(5)
        mats = signed_zero_grid(rng, 3, (6, 7))
        before = [m.copy() for m in mats]
        for method in DENSE_METHODS:
            cfg = MergeConfig(method=method, dare_p=0.5, k_density=0.3)
            merge_deltas(mats, cfg)
        for m, b in zip(mats, before):
            assert_same_bytes(m, b)
        lib = dense_library(mats)
        factors = [(d.a.copy(), d.b.copy()) for d in lib.deltas.values()]
        for method in DENSE_METHODS:
            merge_library(lib, MergeConfig(method=method))
        for d, (a, b) in zip(lib.deltas.values(), factors):
            assert_same_bytes(d.a, a)
            assert_same_bytes(d.b, b)


class TestDenseMergeMemory:
    @pytest.mark.parametrize("method", ["ties", "dare-ties"])
    def test_peak_is_one_layer_stack_plus_scratch(self, method):
        # two layers of 8 dense-stored 512×512 deltas: each layer's stack
        # is 16 MiB, and the first must be freed before the second is filled
        rng = np.random.default_rng(0)
        eye = np.eye(512)
        layers = ("00", "01")
        lib = AdapterLibrary(
            tasks=tuple(str(i) for i in range(8)), layers=layers,
            deltas={(str(i), l): AdapterDelta(l, rng.standard_normal((512, 512)), eye)
                    for i in range(8) for l in layers})
        stack_bytes = 8 * 512 * 512 * 8
        tracemalloc.start()
        try:
            merge_library(lib, MergeConfig(method=method))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * stack_bytes

    def test_tsv_peak_is_the_stack_plus_one_truncation(self):
        # a truncation's SVD factors, their sign-flipped copies and the
        # product come to about six slices; TSV holds one on any core count
        rng = np.random.default_rng(0)
        eye = np.eye(512)
        lib = one_layer_library([AdapterDelta("00", rng.standard_normal((512, 512)), eye)
                                 for _ in range(8)])
        slice_bytes = 512 * 512 * 8
        tracemalloc.start()
        try:
            merge_library(lib, MergeConfig(method="tsv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * slice_bytes + 6 * slice_bytes

    def test_load_and_merge_peak_is_payload_plus_two_stacks(self, tmp_path):
        # the loaded factors are views of the 32 MiB payload: no float64
        # copy of the library is alive beside the layer stack
        rng = np.random.default_rng(1)
        eye = np.eye(512)
        layers = ("00", "01")
        path = tmp_path / "dense.alib"
        save_library(AdapterLibrary(
            tasks=tuple(str(i) for i in range(8)), layers=layers,
            deltas={(str(i), l): AdapterDelta(l, rng.standard_normal((512, 512)), eye)
                    for i in range(8) for l in layers}), path)
        payload_bytes = 2 * 8 * 2 * 512 * 512 * 4
        stack_bytes = 8 * 512 * 512 * 8
        tracemalloc.start()
        try:
            merge_library(load_library(path), MergeConfig(method="dare-ties"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload_bytes + 2 * stack_bytes

    def test_load_and_merge_peak_is_a_tensors_one_identity_two_stacks(self, tmp_path):
        # the file holds one 512×512 identity, and every loaded B is one view of it
        rng = np.random.default_rng(1)
        eye = np.eye(512)
        layers = ("00", "01")
        path = tmp_path / "dense.alib"
        save_library(AdapterLibrary(
            tasks=tuple(str(i) for i in range(8)), layers=layers,
            deltas={(str(i), l): AdapterDelta(l, rng.standard_normal((512, 512)), eye.copy())
                    for i in range(8) for l in layers}), path)
        a_bytes = 2 * 8 * 512 * 512 * 4
        identity_bytes = 512 * 512 * 4
        stack_bytes = 8 * 512 * 512 * 8
        tracemalloc.start()
        try:
            merge_library(load_library(path), MergeConfig(method="dare-ties"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a_bytes + identity_bytes + 2 * stack_bytes

    def test_load_and_merge_peak_is_payload_sums_and_two_tasks(self, tmp_path):
        # beside the mapped payload: both layers' outputs, two tasks in
        # flight in the first pass, each with its nonzero magnitudes (a
        # slice for TIES), and panel scratch; under 6 slices, where the
        # running sums of the layer took 8.6 and the stack 16 on its own
        rng = np.random.default_rng(1)
        eye = np.eye(512)
        layers = ("00", "01")
        path = tmp_path / "dense.alib"
        save_library(AdapterLibrary(
            tasks=tuple(str(i) for i in range(8)), layers=layers,
            deltas={(str(i), l): AdapterDelta(l, rng.standard_normal((512, 512)), eye)
                    for i in range(8) for l in layers}), path)
        payload_bytes = (2 * 8 + 1) * 512 * 512 * 4
        slice_bytes = 512 * 512 * 8
        for method in ("ties", "dare-ties"):
            tracemalloc.start()
            try:
                merge_library(load_library(path), MergeConfig(method=method))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < payload_bytes + 6 * slice_bytes


@pytest.mark.usefixtures("eight_workers")
class TestDenseMergeMemoryOnEightWorkers(TestDenseMergeMemory):
    """The same bounds on eight workers: a stage uses as many as the serial
    code's scratch holds, so more cores do not raise the peak, TSV's
    truncations included."""


@pytest.mark.usefixtures("eight_workers")
class TestStreamedMemory:
    """A layer's merge holds its output, DARE's keep-bits and at most two
    workers' scratch: a few panels each, and for TIES one task's
    magnitudes in the first pass; so its peak does not grow with N, nor
    with the core count."""

    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_peak_does_not_depend_on_n_or_cores(self, method, monkeypatch):
        rng = np.random.default_rng(0)
        eye = np.eye(512, dtype=np.float32)
        mats = [rng.standard_normal((512, 512)).astype(np.float32) for _ in range(16)]
        libs = {n: one_layer_library([AdapterDelta("00", m, eye) for m in mats[:n]])
                for n in (4, 16)}
        cfg = MergeConfig(method=method)
        slice_bytes = 512 * 512 * 8
        peaks = {}
        for workers in (1, 2, 8):
            monkeypatch.setattr(blas, "_workers", workers)
            for n_tasks, lib in libs.items():
                # two workers' trims hold their magnitudes at once in some runs
                # and not in others, so the peak of TIES is the largest of ten
                runs = 10 if workers > 1 and method in ("ties", "dare-ties") else 1
                tracemalloc.start()
                try:
                    for _ in range(runs):
                        merge_library(lib, cfg)
                    peaks[workers, n_tasks] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for workers in (1, 2, 8):
            assert abs(peaks[workers, 16] - peaks[workers, 4]) <= slice_bytes
        for n_tasks in (4, 16):
            assert abs(peaks[8, n_tasks] - peaks[2, n_tasks]) <= slice_bytes


@pytest.fixture
def uncapped(monkeypatch):
    """Both passes on as many workers as the pool has: the in-flight cap
    holds a layer's merge to two workers."""
    monkeypatch.setattr(merge_ops, "_IN_FLIGHT", None)


@pytest.fixture
def two_workers(monkeypatch, uncapped):
    monkeypatch.setattr(blas, "_workers", 2)


@pytest.mark.usefixtures("two_workers")
@pytest.mark.filterwarnings("error")  # the caller's errstate must reach the workers
class TestOverflow:
    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_overflowing_product_rejected(self, method):
        fine = AdapterDelta("00", np.ones((4, 2)), np.ones((3, 2)))
        huge = AdapterDelta("00", np.full((4, 2), 1e200), np.full((3, 2), 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                merge_library(one_layer_library([fine, huge]), MergeConfig(method=method))

    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_overflowing_product_is_exit_2(self, method, tmp_path, capsys):
        # float32 storage caps the factors, so the scaling overflows the product
        path = tmp_path / "huge.alib"
        save_library(one_layer_library([
            AdapterDelta("00", np.full((4, 2), 1e30), np.full((3, 2), 1e30), 1e300)]), path)
        with np.errstate(over="ignore"):
            rc = main(["merge", "--library", str(path), "--method", method,
                       "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "m.alib").exists()

    def test_overflowing_dare_rescale_rejected(self):
        mats = [np.ones((2, 2)), np.full((2, 2), 1e308)]
        for method in ("dare-ties", "dare-ta"):
            with np.errstate(over="ignore"):
                with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                    merge_deltas(mats, MergeConfig(method=method, dare_p=0.9))

    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_overflow_on_the_workers_rejected(self, method, tmp_path, capsys):
        # two tasks of 128²: the stack runs on the workers, which scale a
        # dense-stored delta by s and make a factored delta's product
        eye = np.eye(128)
        dense = [AdapterDelta("00", np.ones((128, 128)), eye),
                 AdapterDelta("00", np.full((128, 128), 1e300), eye, 1e300)]
        factored = [AdapterDelta("00", np.ones((128, 2)), np.ones((128, 2))),
                    AdapterDelta("00", np.full((128, 2), 1e30), np.full((128, 2), 1e30), 1e300)]
        path = tmp_path / "huge.alib"
        save_library(one_layer_library(factored), path)
        mats = [np.ones((128, 128)), np.full((128, 128), 1e308)]
        with np.errstate(over="ignore"):
            for layer in (dense, factored):
                with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                    merge_library(one_layer_library(layer), MergeConfig(method=method))
            if method.startswith("dare-"):
                with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                    merge_deltas(mats, MergeConfig(method=method, dare_p=0.9))
            rc = main(["merge", "--library", str(path), "--method", method,
                       "--out", str(tmp_path / "m.alib")])
        assert rc == 2
        assert "delta 1 has non-finite entries" in capsys.readouterr().err
        assert not (tmp_path / "m.alib").exists()

    @pytest.mark.parametrize("method", DENSE_METHODS)
    def test_the_lowest_failing_task_is_named(self, method):
        # deltas 1 and 3 overflow; the workers may reach 3 first
        eye = np.eye(128)
        deltas = [AdapterDelta("00", np.full((128, 128), 1e300 if i in (1, 3) else 1.0), eye,
                               1e300 if i in (1, 3) else 1.0) for i in range(6)]
        mats = [np.full((128, 128), np.inf if i in (1, 3) else 1.0) for i in range(6)]
        with np.errstate(over="ignore"):
            for _ in range(5):
                with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                    merge_library(one_layer_library(deltas), MergeConfig(method=method))
                with pytest.raises(ValueError, match="delta 1 has non-finite entries"):
                    merge_deltas(mats, MergeConfig(method=method))


def pooled_cases():
    """(id, library) for the worker-count tests, each over several row panels
    once _PANEL is 2^12."""
    rng = np.random.default_rng(21)
    mats = signed_zero_grid(rng, 8, (256, 160))
    # d_out = 130: OpenBLAS's product differs in the last bits between one
    # thread and two at this shape; the workers make it on one
    factored = one_layer_library([
        AdapterDelta("00", rng.standard_normal((128, 64)), rng.standard_normal((130, 64)), s)
        for s in (1.0, 2.5, 1.0, 4.0) * 4])
    return [("dense-stored-ties", dense_library(mats)), ("factored", factored)]


def panel_inputs(lib, method):
    """The task matrices a panel-wise merge of lib's one layer sees: TSV
    truncates whole matrices, the other methods fill row panels."""
    if method == "tsv":
        return [lib.deltas[(t, "00")].materialize() for t in lib.tasks]
    first = lib.deltas[(lib.tasks[0], "00")]
    rows = merge_ops._panel_rows(first.d_in, first.d_out)
    return [panel_products(lib.deltas[(t, "00")], rows) for t in lib.tasks]


@pytest.fixture
def small_panels(monkeypatch):
    """Panels of 2^12 entries, so small layers span several."""
    monkeypatch.setattr(merge_ops, "_PANEL", 1 << 12)


class TestWorkerCount:
    """The bytes do not depend on how many workers merge them."""

    @pytest.mark.parametrize("method", DENSE_METHODS)
    @pytest.mark.parametrize("case", pooled_cases(), ids=lambda c: c[0])
    @pytest.mark.usefixtures("eight_workers", "uncapped", "small_panels")
    def test_one_two_and_eight_workers_give_the_oracle_bytes(self, case, method, monkeypatch):
        _, lib = case
        mats = panel_inputs(lib, method)
        assert mats[0].size > 4 * merge_ops._PANEL
        cfg = MergeConfig(method=method, k_density=0.3, dare_p=0.5, seed=4, alpha=0.9)
        salt = layer_salt("00")
        want = dense_merge_oracle(mats, cfg, salt)
        for workers in (1, 2, 8):
            monkeypatch.setattr(blas, "_workers", workers)
            assert_same_bytes(merge_library(lib, cfg)["00"], want)
            assert_same_bytes(merge_deltas(mats, cfg, salt=salt), want)


class TestPanels:
    """Panels that do not divide the layer, counts past 255."""

    @pytest.mark.parametrize("method", DENSE_METHODS)
    @pytest.mark.parametrize("n_tasks", [5, 9])
    @pytest.mark.parametrize("stored", ["dense", "factored"])
    @pytest.mark.usefixtures("eight_workers", "uncapped", "small_panels")
    def test_uneven_panels_give_the_oracle_bytes(self, stored, n_tasks, method, monkeypatch):
        # panels of 25, 25, 25, 25 and 20 rows on 1, 2 and 8 workers
        rng = np.random.default_rng(n_tasks)
        shape = (120, 160)
        if stored == "dense":
            lib = dense_library(wide_range(rng, n_tasks, shape))
        else:  # B ≠ I: each row is a product
            lib = one_layer_library([
                AdapterDelta("00", rng.standard_normal((shape[0], 6)),
                             rng.standard_normal((shape[1], 6)), 1.0 + i) for i in range(n_tasks)])
        assert merge_ops._panel_rows(*shape) == 25
        mats = panel_inputs(lib, method)
        cfg = MergeConfig(method=method, k_density=0.3, dare_p=0.5, seed=2, alpha=0.8)
        salt = layer_salt("00")
        want = dense_merge_oracle(mats, cfg, salt)
        for workers in (1, 2, 8):
            monkeypatch.setattr(blas, "_workers", workers)
            assert_same_bytes(merge_library(lib, cfg)["00"], want)
            assert_same_bytes(merge_deltas(mats, cfg, salt=salt), want)

    @pytest.mark.parametrize("method", ["ties", "dare-ties"])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 5), (12, 10)], ids=str)
    def test_counts_past_255_tasks(self, shape, method):
        # 300 tasks, nearly all positive: a count in one byte would wrap and
        # divide the sums by 44; (1, 1) is a one-entry layer, whose sums
        # over the stack numpy would add pairwise
        rng = np.random.default_rng(3)
        mats = [np.abs(m) + 0.5 for m in wide_range(rng, 300, shape)]
        mats[7][0, 0] = -1.0
        cfg = MergeConfig(method=method, k_density=1.0, dare_p=0.1, seed=1)
        salt = layer_salt("00")
        want = dense_merge_oracle(mats, cfg, salt)
        assert_same_bytes(merge_deltas(mats, cfg, salt=salt), want)
        assert_same_bytes(merge_library(dense_library(mats), cfg)["00"], want)


class TestOneEntryLayers:
    """A one-entry layer adds its tasks in task order, as every layer does,
    where the stack operators' sums added them pairwise."""

    @pytest.mark.parametrize("method", ["ties", "dare-ties"])
    @pytest.mark.parametrize("n_tasks", [16, 300])
    @pytest.mark.usefixtures("eight_workers", "uncapped")
    def test_task_order_bytes_on_one_two_and_eight_workers(self, n_tasks, method, monkeypatch):
        # draws whose task-order sums differ from the pairwise ones, for
        # both methods at both task counts
        mats = [np.abs(m) for m in wide_range(np.random.default_rng(0), n_tasks, (1, 1))]
        lib = dense_library(mats)
        cfg = MergeConfig(method=method, k_density=1.0, dare_p=0.1, seed=2)
        salt = layer_salt("00")
        want = dense_merge_oracle(mats, cfg, salt)
        for workers in (1, 2, 8):
            monkeypatch.setattr(blas, "_workers", workers)
            assert_same_bytes(merge_library(lib, cfg)["00"], want)
            assert_same_bytes(merge_deltas(mats, cfg, salt=salt), want)
        numpy_summed(monkeypatch)
        assert want.tobytes() != dense_merge_oracle(mats, cfg, salt).tobytes()


class TestRowPanels:
    """Layers of several row panels at the default panel size."""

    def test_dense_stored_peak_is_output_magnitudes_and_panels(self, monkeypatch):
        # a 2048² dense-stored layer: beside its float64 output a merge
        # holds, on each of two workers, one task's nonzero magnitudes and
        # scratch of a few panels, plus DARE's keep-bits; the parent's
        # running sums of the whole layer (26 bytes per entry) are gone
        monkeypatch.setattr(blas, "_workers", 2)
        rng = np.random.default_rng(5)
        d = 2048
        eye = np.eye(d, dtype=np.float32)
        lib = one_layer_library([AdapterDelta("00", rng.standard_normal((d, d)).astype(np.float32),
                                              eye) for _ in range(3)])
        n, panel = d * d, merge_ops._panel_rows(d, d) * d
        assert n >= 64 * panel
        for method in ("ties", "dare-ties"):
            tracemalloc.start()
            try:
                merge_library(lib, MergeConfig(method=method))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n + 2 * (8 * n + 64 * panel) + 3 * n // 8

    def test_factored_layer_keeps_k_per_task_and_has_the_panel_products_bits(self):
        # 128-row panels of 128, 128 and 44 rows; each task's rows are the
        # products of its panels, which may differ in their last bits from
        # rows of the whole product
        rng = np.random.default_rng(6)
        d_in, d_out = 300, 256
        deltas = [AdapterDelta("00", rng.standard_normal((d_in, 5)),
                               rng.standard_normal((d_out, 5)), 1.0 + i) for i in range(4)]
        rows = merge_ops._panel_rows(d_in, d_out)
        assert rows == 128
        products = [panel_products(delta, rows) for delta in deltas]
        k = math.ceil(0.3 * d_in * d_out)
        for method in ("ties", "dare-ties"):
            cfg = MergeConfig(method=method, k_density=0.3, dare_p=0.4, seed=7)
            want = dense_merge_oracle(products, cfg, layer_salt("00"))
            assert_same_bytes(merge_library(one_layer_library(deltas), cfg)["00"], want)
            for delta in deltas:  # one task merged alone is its own trim
                alone = merge_library(one_layer_library([delta]), cfg)["00"]
                assert np.count_nonzero(alone) == k

    def test_surplus_threshold_ties_across_panels_keep_the_lowest_indices(self):
        # all entries ±1 but 100 of ±2: k = 46080 keeps the 100 and the
        # 45980 lowest-indexed ties, which run into the second panel
        rng = np.random.default_rng(7)
        m = np.where(rng.random((300, 256)) < 0.5, 1.0, -1.0)
        big = np.sort(rng.choice(m.size, 100, replace=False))
        m.flat[big] *= 2.0
        cfg = MergeConfig(method="ties", k_density=0.6)
        out = merge_deltas([m], cfg)
        ties = np.setdiff1d(np.arange(m.size), big)
        assert ties[46080 - 100] > merge_ops._panel_rows(*m.shape) * m.shape[1]
        np.testing.assert_array_equal(np.flatnonzero(out),
                                      np.union1d(big, ties[: 46080 - 100]))
        for method in ("ties", "dare-ties"):
            cfg = MergeConfig(method=method, k_density=0.6 if method == "ties" else 0.3, seed=3)
            want = dense_merge_oracle([m, -m[::-1]], cfg, layer_salt("00"))
            assert_same_bytes(merge_deltas([m, -m[::-1]], cfg, salt=layer_salt("00")), want)
            assert_same_bytes(merge_library(dense_library([m, -m[::-1]]), cfg)["00"], want)

    @pytest.mark.parametrize("p", [0.3, 0.9])
    def test_dare_over_several_panels_is_one_draw(self, p):
        m = np.random.default_rng(8).standard_normal((300, 256))
        cfg = MergeConfig(method="dare-ta", dare_p=p, seed=11)
        assert_same_bytes(merge_deltas([m], cfg, salt=5),
                          dare_transform_oracle(m, cfg, stream=(0, 5)))
        assert_same_bytes(merge_library(dense_library([m]), cfg)["00"],
                          dare_transform_oracle(m, cfg, stream=(0, layer_salt("00"))))


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

    @pytest.mark.parametrize("field,value", [
        ("k_density", 0.0), ("k_density", float("nan")), ("dare_p", 1.0), ("cp_rank", 0),
        ("seed", -1),
    ])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_field_validated_whatever_the_method(self, method, field, value):
        with pytest.raises(ValueError, match=field):
            MergeConfig(method=method, **{field: value})

    def test_kv_round_trip(self):
        cfg = MergeConfig(method="dare-ties", dare_p=0.25, k_density=0.4,
                          alpha=1.5, seed=42)
        again = MergeConfig.from_kv(cfg.to_kv())
        assert again == cfg

    def test_kv_text_is_pinned(self):
        # these bytes land in every merged file's meta (config, config_sha256)
        cfg = MergeConfig(method="dare-ties", alpha=0.5, k_density=0.25, dare_p=0.1,
                          cp_rank=3, seed=7)
        assert cfg.to_kv() == ("method = dare-ties\nalpha = 0.5\nk_density = 0.25\n"
                               "dare_p = 0.1\ncp_rank = 3\nseed = 7\n")

    @given(st.builds(
        MergeConfig,
        method=st.sampled_from(METHODS),
        alpha=st.floats(allow_nan=False, allow_infinity=False),
        k_density=st.floats(0.0, 1.0, exclude_min=True),
        dare_p=st.floats(0.0, 1.0, exclude_max=True),
        cp_rank=st.integers(1, 2**40),
        seed=st.integers(0, 2**64),
    ))
    @settings(max_examples=100, deadline=None)
    def test_kv_round_trip_property(self, cfg):
        assert MergeConfig.from_kv(cfg.to_kv()) == cfg

    def test_from_kv_rejects_unknown_and_missing(self):
        with pytest.raises(ValueError):
            MergeConfig.from_kv("method = uniform\nwat = 1\n")
        with pytest.raises(ValueError, match="missing 'method'"):
            MergeConfig.from_kv("alpha = 1.0\n")
        # the config text of files merged while MergeConfig had an average field
        with pytest.raises(ValueError, match=r"unknown merge config keys: \['average'\]"):
            MergeConfig.from_kv("method = cp\nalpha = 1.0\naverage = false\n")

    @pytest.mark.parametrize("key,value", [
        ("alpha", "big"), ("dare_p", "half"), ("cp_rank", "2.5"), ("seed", "x"),
    ])
    def test_from_kv_bad_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            MergeConfig.from_kv(f"method = cp\n{key} = {value}\n")


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_ties_reference_agreement_property(seed, n_mats, kd):
    rng = np.random.default_rng(seed)
    mats = [np.round(rng.standard_normal((3, 3)), 1) for _ in range(n_mats)]
    cfg = MergeConfig(method="ties", k_density=kd)
    np.testing.assert_allclose(
        merge_deltas(mats, cfg), ties_reference(mats, kd, 1.0), atol=1e-12)
