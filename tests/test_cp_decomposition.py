"""ALS solver: exact recovery, monotonicity, normalization, container I/O."""

import tracemalloc

import numpy as np
import pytest

from adapterfuse import (
    AlsOptions,
    ContainerFormatError,
    CPFactors,
    PlantedSpec,
    cp_als,
    cp_als_factored,
    cp_merge,
    cp_reconstruct_slice,
    gen_planted_library,
    load_factors,
    normalize_factors,
    save_factors,
    storage_bytes,
)
from adapterfuse import cp_decomposition
from adapterfuse.cp_decomposition import _init_factors, _normalize_columns

from conftest import (
    assert_same_bytes,
    cp_reconstruct,
    drop_header_key,
    edit_header,
    fold,
    khatri_rao,
    max_principal_sine,
    outer3,
    unfold,
)


def planted_tensor(rng, n_tasks=4, d_in=9, d_out=7, lam=(3.0, 2.0, 1.0)):
    """Exact-rank tensor with orthonormal row/col factors and unit task rows."""
    R = len(lam)
    b, _ = np.linalg.qr(rng.standard_normal((d_in, R)))
    c, _ = np.linalg.qr(rng.standard_normal((d_out, R)))
    a = rng.standard_normal((n_tasks, R))
    a /= np.linalg.norm(a, axis=0)
    t = np.zeros((d_in, d_out, n_tasks))
    for r in range(R):
        t += lam[r] * outer3(b[:, r], c[:, r], a[:, r])
    return t, np.asarray(lam, dtype=float), a, b, c


def align_columns(ref, est):
    """Greedy permutation+sign matching of est columns onto ref columns."""
    R = ref.shape[1]
    corr = ref.T @ est
    work = np.abs(corr)
    perm = np.empty(R, dtype=int)
    sign = np.empty(R)
    for _ in range(R):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i], sign[i] = j, np.sign(corr[i, j])
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return est[:, perm] * sign


class TestAlsRecovery:
    def test_exact_rank_fit_and_recovery(self, rng):
        t, lam, a, b, c = planted_tensor(rng)
        f = cp_als(t, 3, AlsOptions())
        assert f.fit >= 1 - 1e-6
        np.testing.assert_allclose(f.lam, lam, atol=1e-4)
        np.testing.assert_allclose(align_columns(b, f.b_row), b, atol=1e-4)
        np.testing.assert_allclose(align_columns(c, f.c_col), c, atol=1e-4)
        np.testing.assert_allclose(cp_reconstruct(f), t, atol=1e-5)

    def test_random_init_also_recovers(self, rng):
        t, lam, *_ = planted_tensor(rng)
        f = cp_als(t, 3, AlsOptions(init="random", seed=3, max_iters=500))
        assert f.fit >= 1 - 1e-6
        np.testing.assert_allclose(f.lam, lam, atol=1e-4)

    def test_error_trace_monotone_on_random_tensors(self):
        for seed in range(30):
            t = np.random.default_rng(seed).standard_normal((6, 5, 4))
            f = cp_als(t, 3, AlsOptions(max_iters=40))
            trace = np.asarray(f.error_trace)
            assert np.all(np.diff(trace) <= 1e-12), f"seed {seed}"

    def test_error_rise_near_exact_fit_does_not_abort(self):
        # rank-2 5×3×3 tensor at R=4: once the fit is near exact, round-off
        # in the ill-conditioned solves can lift the error (1e-10 to 2e-9
        # on one OpenBLAS build); that is no fault and must not abort the fit
        r = np.random.default_rng(8)
        d1, d2, n = r.integers(2, 7, size=3)
        true = int(r.integers(1, 3))
        t = np.einsum("ir,jr,kr->ijk", r.standard_normal((d1, true)),
                      r.standard_normal((d2, true)), r.standard_normal((n, true)))
        f = cp_als(t, 4, AlsOptions(seed=8))
        assert f.fit >= 1 - 1e-6
        np.testing.assert_allclose(cp_reconstruct(f), t, atol=1e-6)

    def test_rank_one_tensor(self, rng):
        t = 2.5 * outer3(*(rng.standard_normal(d) for d in (5, 4, 3)))
        f = cp_als(t, 1)
        assert f.fit >= 1 - 1e-8
        np.testing.assert_allclose(cp_reconstruct(f), t, atol=1e-8)

    def test_surplus_rank_keeps_components(self, rng):
        t, *_ = planted_tensor(rng, lam=(2.0, 1.0))
        f = cp_als(t, 4)
        assert f.rank_R == 4 and f.lam.shape == (4,)
        assert f.fit >= 1 - 1e-6

    def test_zero_tensor(self):
        f = cp_als(np.zeros((4, 3, 2)), 2)
        assert f.fit == 1.0
        assert np.all(f.lam == 0.0)
        np.testing.assert_allclose(cp_reconstruct(f), 0.0, atol=0)

    def test_determinism_bit_for_bit(self, rng):
        t = rng.standard_normal((7, 6, 3))
        f1 = cp_als(t, 2, AlsOptions(seed=11))
        f2 = cp_als(t.copy(), 2, AlsOptions(seed=11))
        for x, y in ((f1.lam, f2.lam), (f1.a_task, f2.a_task),
                     (f1.b_row, f2.b_row), (f1.c_col, f2.c_col)):
            np.testing.assert_array_equal(x, y)
        assert f1.fit == f2.fit and f1.error_trace == f2.error_trace

    def test_rank_exceeding_unfolding_rejected(self):
        t = np.zeros((2, 3, 2))
        with pytest.raises(ValueError):
            cp_als(t, 0)
        with pytest.raises(ValueError):
            cp_als(t, 5)  # > min(2*3, 2*2, 3*2)
        with pytest.raises(ValueError):
            cp_als(np.zeros((2, 2)), 1)
        with pytest.raises(ValueError, match="non-finite"):
            cp_als(np.full((2, 2, 2), np.nan), 1)

    def test_ill_conditioned_input_survives(self, rng):
        # two nearly parallel components force the ridge branch
        b = rng.standard_normal((8, 1))
        t = np.stack([
            b @ rng.standard_normal((1, 8)),
            (b + 1e-9 * rng.standard_normal((8, 1))) @ rng.standard_normal((1, 8)),
        ], axis=2)
        f = cp_als(t, 2, AlsOptions(max_iters=50))
        assert np.all(np.isfinite(f.lam))
        assert np.all(np.diff(f.error_trace) <= 1e-12)


def _as_factors(lam, a, b, c):
    return CPFactors(rank_R=lam.size, lam=lam, a_task=a, b_row=b, c_col=c)


class TestNormalization:
    def test_canonical_form(self, rng):
        f = cp_als(rng.standard_normal((6, 5, 4)), 3, AlsOptions(max_iters=20))
        lam, a, b, c = normalize_factors(2 * f.lam, f.a_task, -0.5 * f.b_row, f.c_col)
        np.testing.assert_allclose(np.linalg.norm(a, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(c, axis=0), 1.0, atol=1e-12)
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 0)

    def test_lossless(self, rng):
        f = cp_als(rng.standard_normal((5, 4, 3)), 2, AlsOptions(max_iters=15))
        g = _as_factors(*normalize_factors(f.lam, f.a_task, 3.0 * f.b_row, f.c_col))
        np.testing.assert_allclose(cp_reconstruct(g), 3.0 * cp_reconstruct(f), atol=1e-12)

    def test_als_output_is_already_canonical(self, rng):
        f = cp_als(rng.standard_normal((5, 4, 3)), 2)
        lam, a, b, c = normalize_factors(f.lam, f.a_task, f.b_row, f.c_col)
        np.testing.assert_allclose(lam, f.lam, atol=1e-14)
        np.testing.assert_allclose(b, f.b_row, atol=1e-14)
        np.testing.assert_allclose(a, f.a_task, atol=1e-14)

    def test_dead_component_zeroed(self):
        lam, a, b, c = normalize_factors(
            np.array([2.0, 0.0]),
            np.array([[1.0, 1.0], [0.5, -1.0]]),
            np.eye(3, 2),
            np.eye(4, 2),
        )
        assert lam[1] == 0.0
        np.testing.assert_array_equal(a[:, 1], 0.0)
        # basis columns for dead slots stay unit length
        assert np.linalg.norm(b[:, 1]) == pytest.approx(1.0)

    def test_negative_lam_absorbed_into_a(self):
        lam, a, b, c = normalize_factors(
            np.array([-2.0]), np.array([[1.0], [1.0]]), np.eye(3, 1), np.eye(4, 1))
        assert lam[0] > 0
        assert np.all(a < 0)


class TestReconstruction:
    def test_slice_consistency(self, rng):
        f = cp_als(rng.standard_normal((6, 5, 4)), 3, AlsOptions(max_iters=25))
        t = cp_reconstruct(f)
        for i in range(4):
            np.testing.assert_allclose(cp_reconstruct_slice(f, i), t[:, :, i], atol=1e-12)
        with pytest.raises(ValueError):
            cp_reconstruct_slice(f, 4)
        with pytest.raises(ValueError):
            cp_reconstruct_slice(f, -1)

    def test_merge_is_sum_of_slices(self, rng):
        f = cp_als(rng.standard_normal((5, 6, 3)), 2, AlsOptions(max_iters=25))
        expected = sum(cp_reconstruct_slice(f, i) for i in range(3))
        np.testing.assert_allclose(cp_merge(f), expected, atol=1e-10)


class TestGramInit:
    """The "svd" init takes its subspaces from eigh of the unfolding Grams."""

    CLEAR_GAP = 1e-4  # (σ_R − σ_R+1)/σ_1 below this leaves the R-subspace ill-defined

    @pytest.mark.parametrize("spec,ranks", [
        *((PlantedSpec(n_tasks=4, d_in=256, d_out=256, rank_shared=2, rank_specific=4,
                       seed=seed), (18,)) for seed in (0, 1, 2)),
        (PlantedSpec(n_tasks=5, d_in=48, d_out=48, rank_shared=0, rank_specific=4,
                     noise_sigma=0.05, seed=0, n_layers=2), (4, 8, 12, 16, 20, 25, 30)),
    ], ids=["S-0", "S-1", "S-2", "criterion-6"])
    def test_subspaces_match_the_unfolding_svd(self, spec, ranks):
        lib, _ = gen_planted_library(spec)
        checked = 0
        for layer_id in lib.layers:
            t = np.moveaxis(np.stack([lib.deltas[(task, layer_id)].materialize()
                                      for task in lib.tasks]), 0, 2)  # slice-major
            x1, x2 = unfold(t, 1), unfold(t, 2)
            svds = [np.linalg.svd(x, full_matrices=False) for x in (x1, x2)]
            for R in ranks:
                b, c = _init_factors(np.moveaxis(t, 2, 0), R, AlsOptions(),
                                     np.random.default_rng(0))
                for (u, s, _), f in zip(svds, (b, c)):
                    if (s[R - 1] - s[R]) / s[0] < self.CLEAR_GAP:
                        continue
                    assert max_principal_sine(u[:, :R], f) <= 1e-8
                    checked += 1
        assert checked >= len(lib.layers) * len(ranks)  # most gaps are clear


def khatri_rao_als(t, R, opts):
    """Error trace of the ALS loop as it ran before its slice-product form.

    Khatri-Rao MTTKRPs on the three unfoldings, a cond check and an LU
    solve per update, and the error from the dense residual, from the
    same init and with the same stop rule: the reference for cp_als.
    """
    def solve(gram, mttkrp):
        if not np.linalg.cond(gram) < 1e12:
            tr = float(np.trace(gram))
            gram = gram + (1e-10 * tr / R if tr > 0 else 1e-10) * np.eye(R)
        return np.linalg.solve(gram, mttkrp.T).T

    x1, x2, x3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    norm_t = np.linalg.norm(t)
    b, c = _init_factors(np.moveaxis(t, 2, 0), R, opts, np.random.default_rng(opts.seed))
    trace, prev_fit = [], None
    for _ in range(opts.max_iters):
        a, _ = _normalize_columns(solve((c.T @ c) * (b.T @ b), x3 @ khatri_rao(c, b)))
        b, _ = _normalize_columns(solve((a.T @ a) * (c.T @ c), x1 @ khatri_rao(a, c)))
        c, lam = _normalize_columns(solve((a.T @ a) * (b.T @ b), x2 @ khatri_rao(a, b)))
        model = fold((b * lam) @ khatri_rao(a, c).T, 1, t.shape)
        trace.append(np.linalg.norm(t - model) / norm_t)
        fit = 1.0 - trace[-1]
        if prev_fit is not None and abs(fit - prev_fit) < opts.tol:
            break
        prev_fit = fit
    return trace


def noisy_planted_layer():
    """Criterion 6's library shape: 5 dense-stored 48×48 tasks, noise 0.05."""
    spec = PlantedSpec(n_tasks=5, d_in=48, d_out=48, rank_shared=0, rank_specific=4,
                       noise_sigma=0.05, seed=0, n_layers=1)
    lib, _ = gen_planted_library(spec)
    return np.moveaxis(np.stack([lib.deltas[(task, lib.layers[0])].materialize()
                                for task in lib.tasks]), 0, 2)  # slice-major, as cp_als fits it


def near_exact_layer():
    """A noiseless planted 30×26×4 layer of rank 12: a fit at R = 12 ends exact to round-off."""
    spec = PlantedSpec(n_tasks=4, d_in=30, d_out=26, rank_shared=0, rank_specific=3,
                       seed=2, n_layers=1)
    lib, _ = gen_planted_library(spec)
    return np.moveaxis(np.stack([lib.deltas[(task, lib.layers[0])].materialize()
                                for task in lib.tasks]), 0, 2)  # slice-major, as cp_als fits it


ITERATION_CASES = {
    "random-svd": (lambda: np.random.default_rng(1).standard_normal((9, 7, 5)), 3,
                   AlsOptions(max_iters=60, tol=1e-12)),
    "random-init": (lambda: np.random.default_rng(2).standard_normal((12, 5, 3)), 4,
                    AlsOptions(max_iters=60, tol=1e-12, init="random", seed=2)),
    "noisy-R4": (noisy_planted_layer, 4, AlsOptions()),
    "noisy-R20": (noisy_planted_layer, 20, AlsOptions()),
    "noisy-R30": (noisy_planted_layer, 30, AlsOptions(max_iters=80)),
    "near-exact": (near_exact_layer, 12, AlsOptions()),
    # from a random start: 0.098, 0.0014, 4e-10, 3e-16, through the cancellation limit
    "converging": (near_exact_layer, 12, AlsOptions(init="random", seed=2)),
}


class TestAlsIteration:
    """The slice-product loop with Gram errors runs the Khatri-Rao loop's iterations."""

    @pytest.mark.parametrize("case", ITERATION_CASES)
    def test_trace_and_iterations_match_the_khatri_rao_loop(self, case):
        make, R, opts = ITERATION_CASES[case]
        t = make()
        got = cp_als(t, R, opts).error_trace
        want = khatri_rao_als(t, R, opts)
        assert len(got) == len(want)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    @pytest.mark.parametrize("case", ["random-svd", "noisy-R20", "near-exact", "converging"])
    def test_residual_is_formed_only_below_the_cancellation_limit(self, case, monkeypatch):
        make, R, opts = ITERATION_CASES[case]
        calls = []

        def counting(*args):
            calls.append(args)
            return residual(*args)

        residual = cp_decomposition._residual
        monkeypatch.setattr(cp_decomposition, "_residual", counting)
        trace = cp_als(make(), R, opts).error_trace
        assert len(calls) == sum(err * err < 1e-4 for err in trace)
        assert (len(calls) > 0) == (case in ("near-exact", "converging"))

    @pytest.mark.parametrize("case", ["random-svd", "noisy-R20", "near-exact", "converging"])
    def test_every_error_is_the_direct_residual(self, case):
        make, R, opts = ITERATION_CASES[case]
        t = make()
        trace = cp_als(t, R, opts).error_trace
        for i in range(0, len(trace), max(1, len(trace) // 8)):
            f = cp_als(t, R, AlsOptions(max_iters=i + 1, tol=opts.tol, init=opts.init,
                                        seed=opts.seed))
            assert f.error_trace == trace[: i + 1]
            direct = np.linalg.norm(t - cp_reconstruct(f)) / np.linalg.norm(t)
            assert abs(trace[i] - direct) <= 1e-12, (i, trace[i], direct)

    @pytest.mark.parametrize("case", ["random-svd", "noisy-R4", "near-exact"])
    def test_scaled_tensor_gives_the_same_trace(self, case):
        make, R, opts = ITERATION_CASES[case]
        t = make()
        f, g = cp_als(t, R, opts), cp_als(1e150 * t, R, opts)
        assert len(f.error_trace) == len(g.error_trace)
        assert np.max(np.abs(np.subtract(f.error_trace, g.error_trace))) <= 1e-12
        np.testing.assert_allclose(g.lam, 1e150 * f.lam, rtol=1e-9)

    @staticmethod
    def dense_layer(d_in, d_out):
        spec = PlantedSpec(n_tasks=8, d_in=d_in, d_out=d_out, rank_shared=2, rank_specific=2,
                           noise_sigma=0.05, seed=0, n_layers=1)
        lib, _ = gen_planted_library(spec)
        layer = [lib.deltas[(task, lib.layers[0])] for task in lib.tasks]
        assert all(d.dense_stored for d in layer)
        return layer

    @pytest.mark.parametrize("d_in,d_out", [(256, 256), (256, 128), (128, 256)])
    def test_dense_layer_peak_is_the_stack_and_a_few_matrices(self, d_in, d_out):
        # 8 dense-stored deltas at R = 16.  Besides the stack, the fit holds
        # at most a Gram, its eigenvectors and the (N, d, R) slice products:
        # measured 1.10-1.14 MiB over a 2-4 MiB stack here, which the bound
        # below allows with 0.4-1.4 MiB to spare; a second stack does not fit
        layer = self.dense_layer(d_in, d_out)
        tracemalloc.start()
        try:
            cp_als_factored(layer, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 8 * d_in * d_out * 8
        assert peak < stack + 8 * (2 * d_in**2 + 2 * d_out**2 + d_in * d_out), peak / 2**20

    def test_dense_path_stacks_without_a_second_stack(self, monkeypatch):
        # each delta is materialized straight into its slice: when cp_als is
        # reached the peak is the stack and a few small arrays
        layer = self.dense_layer(256, 256)
        peaks = []
        monkeypatch.setattr(cp_decomposition, "cp_als",
                            lambda t, R, opts: peaks.append(tracemalloc.get_traced_memory()[1]))
        tracemalloc.start()
        try:
            cp_als_factored(layer, 16)
        finally:
            tracemalloc.stop()
        stack = 8 * 256 * 256 * 8
        assert len(peaks) == 1 and peaks[0] < stack + 256 * 256 * 8 // 4, peaks[0] / stack


def test_storage_bytes_formula():
    f = cp_als(np.random.default_rng(0).standard_normal((8, 7, 5)), 3)
    assert storage_bytes(f) == 3 * (1 + 5 + 8 + 7) * 4
    assert storage_bytes({"a": f, "b": f}) == 2 * storage_bytes(f)
    assert storage_bytes([f, f, f]) == 3 * storage_bytes(f)


class TestFactorContainer:
    def test_round_trip(self, rng, tmp_path):
        f = cp_als(rng.standard_normal((6, 5, 4)), 3, AlsOptions(max_iters=30))
        p = tmp_path / "f.cpf"
        save_factors(f, p)
        g = load_factors(p)
        assert g.rank_R == 3 and g.n_tasks == 4 and g.d_in == 6 and g.d_out == 5
        assert g.fit == f.fit
        # payload is float32 on disk
        np.testing.assert_allclose(g.lam, f.lam, rtol=1e-6)
        np.testing.assert_allclose(g.b_row, f.b_row, atol=1e-6)
        assert g.lam.dtype == np.float64

    def test_reload_is_stable(self, rng, tmp_path):
        # once quantized, a second save/load changes nothing
        f = cp_als(rng.standard_normal((5, 4, 3)), 2)
        p1, p2 = tmp_path / "a.cpf", tmp_path / "b.cpf"
        save_factors(f, p1)
        g = load_factors(p1)
        save_factors(g, p2)
        assert p1.read_bytes()[p1.read_bytes().index(b"\n"):] == \
            p2.read_bytes()[p2.read_bytes().index(b"\n"):]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.cpf"
        p.write_bytes(b"not json\n\x00\x00")
        with pytest.raises(ContainerFormatError):
            load_factors(p)

    def test_wrong_format_tag_rejected(self, tmp_path):
        p = tmp_path / "x.cpf"
        p.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(ContainerFormatError):
            load_factors(p)

    @pytest.mark.parametrize("key", ["rank", "n_tasks", "d_in", "d_out", "dtype", "offsets"])
    def test_missing_header_key_named(self, key, rng, tmp_path):
        p = tmp_path / "x.cpf"
        save_factors(cp_als(rng.standard_normal((4, 3, 2)), 1), p)
        drop_header_key(p, key)
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_factors(p)

    @pytest.mark.parametrize("key", ["lam", "a_task", "b_row", "c_col"])
    def test_missing_offset_named(self, key, rng, tmp_path):
        p = tmp_path / "x.cpf"
        save_factors(cp_als(rng.standard_normal((4, 3, 2)), 1), p)
        edit_header(p, lambda h: h["offsets"].pop(key))
        with pytest.raises(ContainerFormatError, match=f"missing '{key}'"):
            load_factors(p)

    @pytest.mark.parametrize("offset", [-4, 10**6, "0"])
    def test_bad_offset_names_tensor(self, offset, rng, tmp_path):
        p = tmp_path / "x.cpf"
        save_factors(cp_als(rng.standard_normal((4, 3, 2)), 1), p)
        edit_header(p, lambda h: h["offsets"].update(c_col=offset))
        with pytest.raises(ContainerFormatError, match="c_col"):
            load_factors(p)

    def test_offsets_not_a_mapping_rejected(self, rng, tmp_path):
        p = tmp_path / "x.cpf"
        save_factors(cp_als(rng.standard_normal((4, 3, 2)), 1), p)
        edit_header(p, lambda h: h.update(offsets=5))
        with pytest.raises(ContainerFormatError, match="JSON object"):
            load_factors(p)

    @pytest.mark.parametrize("edit", [
        {"d_in": 4.0}, {"dtype": "nonsense"}, {"dtype": "<i4"}, {"rank": "1"}, {"fit": [1]},
    ], ids=["d_in-float", "dtype-nonsense", "dtype-i4", "rank-str", "fit-list"])
    def test_bad_header_value_rejected(self, edit, rng, tmp_path):
        p = tmp_path / "x.cpf"
        save_factors(cp_als(rng.standard_normal((4, 3, 2)), 1), p)
        edit_header(p, lambda h: h.update(edit))
        with pytest.raises(ContainerFormatError):
            load_factors(p)

    def test_truncated_payload_rejected(self, rng, tmp_path):
        f = cp_als(rng.standard_normal((4, 4, 2)), 1)
        p = tmp_path / "x.cpf"
        save_factors(f, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-5])
        with pytest.raises(ContainerFormatError):
            load_factors(p)


class TestMagnitude:
    """A tensor beyond _PEAK_RANGE is fitted scaled by a power of two."""

    @pytest.mark.parametrize("scale", [1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300])
    def test_fit_at_any_finite_magnitude(self, scale, rng):
        t = rng.standard_normal((6, 5, 3))
        want = cp_als(t, 2)
        got = cp_als(scale * t, 2)
        assert got.fit == pytest.approx(want.fit, abs=1e-12)
        np.testing.assert_allclose(got.lam / scale, want.lam, rtol=1e-12)
        for name in ("a_task", "b_row", "c_col"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), atol=1e-12)

    @pytest.mark.parametrize("exponent", [-1000, -500, 500, 1000])
    def test_power_of_two_scale_is_exact(self, exponent, rng):
        t = rng.standard_normal((6, 5, 3))
        t /= 2 * np.abs(t).max()  # peak 1/2, as the rescaled fit sees it
        want = cp_als(t, 2)
        got = cp_als(np.ldexp(t, exponent), 2)
        assert_same_bytes(got.lam, np.ldexp(want.lam, exponent))
        for name in ("a_task", "b_row", "c_col"):
            assert_same_bytes(getattr(got, name), getattr(want, name))
        assert got.error_trace == want.error_trace

    def test_in_range_fits_run_once(self, rng, monkeypatch):
        calls = []
        fit = cp_decomposition.cp_als
        monkeypatch.setattr(cp_decomposition, "cp_als", lambda *a: calls.append(a) or fit(*a))
        t = rng.standard_normal((6, 5, 3))
        t /= np.abs(t).max()  # peak 1
        for scale in (2.0**-400, 2.0**400):  # the ends of the range
            cp_decomposition.cp_als(scale * t, 2)
        assert len(calls) == 2
        cp_decomposition.cp_als(2.0**401 * t, 2)
        assert len(calls) == 4  # the call and its rescaled fit


class TestValidation:
    def test_als_options(self):
        with pytest.raises(ValueError):
            AlsOptions(max_iters=0)
        with pytest.raises(ValueError):
            AlsOptions(tol=0.0)
        with pytest.raises(ValueError):
            AlsOptions(init="qr")
        with pytest.raises(ValueError, match="seed"):
            AlsOptions(seed=-1)

    def test_cp_factors_shape_checks(self):
        ok = dict(rank_R=2, lam=np.ones(2), a_task=np.ones((3, 2)),
                  b_row=np.ones((4, 2)), c_col=np.ones((5, 2)))
        CPFactors(**ok)
        with pytest.raises(ValueError):
            CPFactors(**{**ok, "lam": np.ones(3)})
        with pytest.raises(ValueError):
            CPFactors(**{**ok, "b_row": np.ones((4, 3))})
        with pytest.raises(ValueError):
            CPFactors(**{**ok, "fit": 1.5})
        with pytest.raises(ValueError):
            CPFactors(**{**ok, "lam": np.array([1.0, np.nan])})
        with pytest.raises(ValueError, match="rank_R must be ≥ 1, got 0"):
            CPFactors(**{**ok, "rank_R": 0})
