"""The canonicalized LAPACK SVD: clamp, sign convention, shapes, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import svd, truncated_approx


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


def test_reconstruct_method(rng):
    m = rng.standard_normal((4, 6))
    res = svd(m)
    np.testing.assert_allclose(res.reconstruct(), m, atol=1e-10)


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
    np.testing.assert_allclose(res.reconstruct(), mat, atol=1e-9 * scale)


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

