"""Unfolding/folding and Khatri-Rao against index-arithmetic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterfuse import (
    ShapeMismatchError,
    fold,
    frobenius_norm,
    khatri_rao,
    stack_slices,
    unfold,
)

from conftest import outer3


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


def test_stack_and_slice_round_trip(rng):
    mats = [rng.standard_normal((5, 3)) for _ in range(4)]
    t = stack_slices(mats)
    assert t.shape == (5, 3, 4)
    for i, m in enumerate(mats):
        np.testing.assert_array_equal(t[:, :, i], m)


def test_stack_slices_names_offending_slice(rng):
    mats = [rng.standard_normal((5, 3)), rng.standard_normal((5, 4))]
    with pytest.raises(ShapeMismatchError, match="slice 1"):
        stack_slices(mats)
    with pytest.raises(ValueError):
        stack_slices([])


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


def test_fold_and_unfold_validation():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError, match="mode"):
        unfold(t, 0)
    with pytest.raises(ValueError, match="mode"):
        fold(np.zeros((2, 4)), 4, (2, 2, 2))
    with pytest.raises(ValueError):
        fold(np.zeros((2, 4)), 1, (2, 2))
    with pytest.raises(ValueError):
        unfold(np.zeros((2, 2)), 1)


def test_khatri_rao_columns_are_krons(rng):
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((5, 4))
    kr = khatri_rao(x, y)
    assert kr.shape == (15, 4)
    for r in range(4):
        np.testing.assert_array_equal(kr[:, r], np.kron(x[:, r], y[:, r]))


def test_khatri_rao_validation():
    with pytest.raises(ShapeMismatchError):
        khatri_rao(np.zeros((3, 2)), np.zeros((4, 3)))
    with pytest.raises(ShapeMismatchError):
        khatri_rao(np.zeros(3), np.zeros((4, 3)))


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
