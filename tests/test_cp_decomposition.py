"""ALS solver: exact recovery, monotonicity, normalization, container I/O."""

import numpy as np
import pytest

from adapterfuse import (
    AlsOptions,
    ContainerFormatError,
    CPFactors,
    PlantedSpec,
    cp_als,
    cp_merge,
    cp_reconstruct_slice,
    gen_planted_library,
    load_factors,
    normalize_factors,
    save_factors,
    stack_slices,
    storage_bytes,
    unfold,
)
from adapterfuse.cp_decomposition import _init_factors

from conftest import cp_reconstruct, drop_header_key, edit_header, max_principal_sine, outer3


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
        t = stack_slices([
            b @ rng.standard_normal((1, 8)),
            (b + 1e-9 * rng.standard_normal((8, 1))) @ rng.standard_normal((1, 8)),
        ])
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
            t = stack_slices([lib.deltas[(task, layer_id)].materialize() for task in lib.tasks])
            x1, x2 = unfold(t, 1), unfold(t, 2)
            svds = [np.linalg.svd(x, full_matrices=False) for x in (x1, x2)]
            for R in ranks:
                b, c = _init_factors(t, x1, x2, R, AlsOptions(), np.random.default_rng(0))
                for (u, s, _), f in zip(svds, (b, c)):
                    if (s[R - 1] - s[R]) / s[0] < self.CLEAR_GAP:
                        continue
                    assert max_principal_sine(u[:, :R], f) <= 1e-8
                    checked += 1
        assert checked >= len(lib.layers) * len(ranks)  # most gaps are clear


def test_storage_bytes_formula():
    f = cp_als(np.random.default_rng(0).standard_normal((8, 7, 5)), 3)
    assert storage_bytes(f) == 3 * (1 + 5 + 8 + 7) * 4
    assert storage_bytes(f, element_bytes=8) == 3 * (1 + 5 + 8 + 7) * 8
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


class TestValidation:
    def test_als_options(self):
        with pytest.raises(ValueError):
            AlsOptions(max_iters=0)
        with pytest.raises(ValueError):
            AlsOptions(tol=0.0)
        with pytest.raises(ValueError):
            AlsOptions(init="qr")

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
