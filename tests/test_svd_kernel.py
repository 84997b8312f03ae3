"""The canonicalized LAPACK SVD: clamp, sign convention, shapes, validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import svd, truncated_approx
from adapterfuse.svd_kernel import _largest_entry_signs


def _check_factorization(m, res, atol=1e-9):
    u, s, v = res.u, res.sigma, res.v
    np.testing.assert_allclose((u * s) @ v.T, m, atol=atol)
    k = min(m.shape)
    np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-10)
    assert np.all(np.diff(s) <= 1e-15)  # descending
    assert np.all(s >= 0)


@pytest.mark.parametrize("shape", [(5, 5), (8, 3), (3, 8), (1, 6), (6, 1), (1, 1)])
def test_factorization_random(shape, rng):
    m = rng.standard_normal(shape)
    res = svd(m)
    _check_factorization(m, res)
    np.testing.assert_allclose(res.sigma, np.linalg.svd(m, compute_uv=False), atol=1e-10)


def test_rank_deficient_matrix(rng):
    # rank 2 embedded in 7x5
    a = rng.standard_normal((7, 2))
    b = rng.standard_normal((5, 2))
    m = a @ b.T
    res = svd(m)
    assert res.rank == 2
    assert np.all(res.sigma[2:] == 0.0)
    _check_factorization(m, res, atol=1e-8)


def test_zero_matrix():
    res = svd(np.zeros((4, 3)))
    assert res.rank == 0
    assert np.all(res.sigma == 0.0)
    # basis columns still orthonormal
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(res.v.T @ res.v, np.eye(3), atol=1e-12)


def test_tiny_singular_values_clamped(rng):
    # spread of 16 orders of magnitude: trailing value sits below the
    # relative cutoff and must come back exactly zero, not denormal junk
    q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([1e3, 1.0, 1e-2, 1e-5, 1e-7, 1e-16])
    m = (q1 * s) @ q2.T
    res = svd(m)
    assert res.sigma[-1] == 0.0
    assert res.rank == 5


def test_sign_convention_is_deterministic(rng):
    m = rng.standard_normal((5, 4))
    r1, r2 = svd(m), svd(m.copy())
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.v, r2.v)
    # largest-magnitude entry of each left vector is positive
    for j in range(r1.u.shape[1]):
        col = r1.u[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_input_not_mutated(rng):
    m = rng.standard_normal((6, 9))
    keep = m.copy()
    svd(m)
    np.testing.assert_array_equal(m, keep)


def test_largest_entry_signs_pick_the_first_of_a_tie():
    # per column, the sign of the first entry of largest magnitude, as
    # f[argmax(|f|)] would give; an all-zero column counts as positive
    f = np.array([[0.0, 2.0, -2.0, -0.0],
                  [-3.0, -2.0, 2.0, 0.0],
                  [3.0, 1.0, 1.0, -0.0]])
    np.testing.assert_array_equal(_largest_entry_signs(f), [-1.0, 1.0, -1.0, 1.0])
    rng = np.random.default_rng(8)
    for _ in range(300):
        f = rng.integers(-2, 3, rng.integers(1, 6, 2)).astype(float)
        f[(f == 0) & (rng.random(f.shape) < 0.5)] = -0.0
        first = f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])]
        np.testing.assert_array_equal(_largest_entry_signs(f), np.where(first < 0, -1.0, 1.0))


@pytest.mark.parametrize("shape", [(128, 96), (96, 128)])
def test_flips_keep_lapacks_layouts(shape, rng):
    # u and vᵀ are flipped in place, so v is the transposed view of LAPACK's
    # vᵀ: column-major, as the flipped copy of vᵀ.T was, and products that
    # read it keep their bits
    m = rng.standard_normal(shape)
    res = svd(m)
    _, _, vt = np.linalg.svd(m, full_matrices=False)
    p = min(shape)
    assert res.u.flags.c_contiguous and res.u.strides == (8 * p, 8)
    assert res.v.flags.f_contiguous and res.v.strides == (8, 8 * shape[1])
    flipped_copy = vt.T * _largest_entry_signs(res.u)
    assert res.v.strides == flipped_copy.strides
    np.testing.assert_array_equal(np.abs(res.v), np.abs(vt.T))


def test_peak_is_lapacks_and_less_than_one_matrix_more():
    # in-place flips and a sign search without a copy of u: the peak was
    # 4.2 matrices of 128×96 against LAPACK's own 1.77
    m = np.random.default_rng(0).standard_normal((128, 96))

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    lapack = peak(lambda: np.linalg.svd(m, full_matrices=False))
    assert peak(lambda: svd(m)) < lapack + m.nbytes


def test_wide_equals_transposed_tall(rng):
    # sign canonicalization targets u, which swaps sides under transposition,
    # so the subspaces agree only up to a shared per-column sign
    m = rng.standard_normal((3, 7))
    rw, rt = svd(m), svd(m.T)
    np.testing.assert_allclose(rw.sigma, rt.sigma, atol=1e-12)
    signs = np.sign(np.einsum("ij,ij->j", rw.u, rt.v))
    np.testing.assert_allclose(rw.u, rt.v * signs, atol=1e-12)
    np.testing.assert_allclose(rw.v, rt.u * signs, atol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        svd(np.zeros(3))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_singular_values_match_lapack(seed, n, m):
    mat = np.random.default_rng(seed).standard_normal((n, m))
    res = svd(mat)
    ref = np.linalg.svd(mat, compute_uv=False)
    scale = max(ref[0], 1.0)
    np.testing.assert_allclose(res.sigma, ref, atol=1e-10 * scale)
    np.testing.assert_allclose((res.u * res.sigma) @ res.v.T, mat, atol=1e-9 * scale)


def test_moderate_size_against_lapack(rng):
    m = rng.standard_normal((96, 64))
    res = svd(m)
    np.testing.assert_allclose(res.sigma, np.linalg.svd(m, compute_uv=False), atol=1e-9)
    _check_factorization(m, res, atol=1e-8)


def test_truncated_approx_is_best_rank_k(rng):
    m = rng.standard_normal((10, 8))
    ref_u, ref_s, ref_vt = np.linalg.svd(m, full_matrices=False)
    for k in (1, 3, 8):
        approx = truncated_approx(m, k)
        best = (ref_u[:, :k] * ref_s[:k]) @ ref_vt[:k]
        np.testing.assert_allclose(approx, best, atol=1e-9)


def test_truncated_approx_full_rank_is_identity_map(rng):
    m = rng.standard_normal((5, 7))
    np.testing.assert_allclose(truncated_approx(m, 5), m, atol=1e-10)


def test_truncated_approx_k_range(rng):
    m = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        truncated_approx(m, 0)
    with pytest.raises(ValueError):
        truncated_approx(m, 5)

