"""Tensor kernels, and the unfolding and Khatri-Rao test oracles, against index arithmetic."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import AdapterDelta, frobenius_norm
from adapterfuse.tensor_core import _difference_norm, all_finite

from conftest import fold, khatri_rao, outer3, unfold


def test_outer3_matches_triple_loop(rng):
    u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
    t = outer3(u, v, w)
    assert t.shape == (3, 4, 2)
    for i in range(3):
        for j in range(4):
            for k in range(2):
                assert t[i, j, k] == u[i] * v[j] * w[k]


@given(st.integers(0, 2**32 - 1), st.floats(-100, 100))
@settings(max_examples=25, deadline=None)
def test_outer3_is_multilinear(seed, c):
    rng = np.random.default_rng(seed)
    u, v, w = (rng.standard_normal(3) for _ in range(3))
    np.testing.assert_allclose(outer3(c * u, v, w), c * outer3(u, v, w), atol=1e-9)
    np.testing.assert_allclose(outer3(u, c * v, w), c * outer3(u, v, w), atol=1e-9)


def test_unfold_index_arithmetic(rng):
    # X1[i, j + J*k] = X2[j, i + I*k] = X3[k, i + I*j] = t[i,j,k]
    I, J, K = 3, 4, 2
    t = rng.standard_normal((I, J, K))
    x1, x2, x3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    assert x1.shape == (I, J * K) and x2.shape == (J, I * K) and x3.shape == (K, I * J)
    for i in range(I):
        for j in range(J):
            for k in range(K):
                assert x1[i, j + J * k] == t[i, j, k]
                assert x2[j, i + I * k] == t[i, j, k]
                assert x3[k, i + I * j] == t[i, j, k]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_fold_inverts_unfold(seed, i, j, k, mode):
    t = np.random.default_rng(seed).standard_normal((i, j, k))
    np.testing.assert_array_equal(fold(unfold(t, mode), mode, t.shape), t)


def test_khatri_rao_columns_are_krons(rng):
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((5, 4))
    kr = khatri_rao(x, y)
    assert kr.shape == (15, 4)
    for r in range(4):
        np.testing.assert_array_equal(kr[:, r], np.kron(x[:, r], y[:, r]))


def test_unfolding_of_factor_model(rng):
    # the CP identity the ALS solver leans on: unfold(Σ_r b_r ∘ c_r ∘ a_r, 1)
    # equals B · KR(A, C)ᵀ, and cyclically for the other modes
    R = 3
    a = rng.standard_normal((2, R))
    b = rng.standard_normal((4, R))
    c = rng.standard_normal((5, R))
    t = sum(outer3(b[:, r], c[:, r], a[:, r]) for r in range(R))
    np.testing.assert_allclose(unfold(t, 1), b @ khatri_rao(a, c).T, atol=1e-12)
    np.testing.assert_allclose(unfold(t, 2), c @ khatri_rao(a, b).T, atol=1e-12)
    np.testing.assert_allclose(unfold(t, 3), a @ khatri_rao(c, b).T, atol=1e-12)


def test_frobenius_norm_matches_numpy(rng):
    m = rng.standard_normal((6, 7))
    assert frobenius_norm(m) == pytest.approx(np.linalg.norm(m), rel=1e-15)
    t = rng.standard_normal((3, 4, 5))
    assert frobenius_norm(t) == pytest.approx(np.linalg.norm(t.ravel()), rel=1e-15)
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def summed_squares_norm(a):
    """np.sum's norm, with the overflow rescale (test oracle)."""
    with np.errstate(over="ignore"):
        total = np.sum(a * a)
    if math.isfinite(total):
        return float(np.sqrt(total))
    peak = float(np.max(np.abs(a)))
    return peak * math.sqrt(np.sum((a / peak) * (a / peak)))


# sizes around the chunk (2^13) and its halvings, rows, tensors, a large layer
NORM_SHAPES = [(0,), (1,), (7,), (9,), (8191,), (8192,), (8193,), (16385,), (24577,),
               (12, 10), (300, 131), (3, 5, 7), (512, 512), (4096, 1024)]


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["plain", "overflow-scaled"])
def test_frobenius_norm_has_the_bits_of_numpys_sum(scale):
    # the squares are summed in chunks through scratch, in np.sum's own
    # pairwise order; at 1e200 every square overflows and the entries are
    # rescaled by their peak first
    rng = np.random.default_rng(8)
    for shape in NORM_SHAPES:
        a = scale * rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        b = scale * rng.standard_normal(shape)
        for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b))):
            assert frobenius_norm(x) == summed_squares_norm(x), shape
            assert _difference_norm(x, y) == summed_squares_norm(x - y), shape


def test_norms_make_no_copy_of_their_input():
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 1024, 1024))
    for norm, args in ((frobenius_norm, (a,)), (_difference_norm, (a, b))):
        tracemalloc.start()
        try:
            norm(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 16


@pytest.mark.filterwarnings("error")
def test_frobenius_norm_is_finite_for_finite_input(rng):
    for big in (1e155, 1e200, 1e300):
        assert frobenius_norm(np.full((2, 2), big)) == pytest.approx(2 * big, rel=1e-15)
    m = rng.standard_normal((5, 4))
    assert frobenius_norm(1e250 * m) == pytest.approx(1e250 * np.linalg.norm(m), rel=1e-14)
    assert frobenius_norm(np.array([1.0, np.inf])) == math.inf
    assert math.isnan(frobenius_norm(np.array([1e300, 1e300, np.nan])))


@pytest.mark.filterwarnings("error")
def test_all_finite_is_warning_free():
    big = np.array([[3e38], [3e38]], np.float32)  # the float32 sum overflows
    assert all_finite(big)
    AdapterDelta("x", big, np.ones((2, 1), np.float32))
    for bad in (np.nan, np.inf, -np.inf):
        assert not all_finite(np.array([[3e38], [bad]], np.float32))
        with pytest.raises(ValueError, match="non-finite"):
            AdapterDelta("x", np.array([[1.0], [bad]]), np.ones((2, 1)))
    assert not all_finite(np.array([np.inf, -np.inf]))  # the sum is nan
