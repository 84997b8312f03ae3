"""Thin singular value decomposition on top of LAPACK, canonicalized.

``np.linalg.svd(full_matrices=False)`` does the factorization; this
module adds the conventions the rest of the package relies on.  Singular
values below CLAMP_REL times the largest come back as exact zeros, so
SvdResult.rank counts numerically nonzero directions.  Each left
singular vector is flipped so its largest-magnitude entry is positive
(the right vector flipped along), which pins down the sign LAPACK leaves
free.  Reruns on one BLAS/LAPACK build give byte-identical results;
different builds may differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP_REL = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: u (m×p), sigma (p, descending ≥ 0), v (n×p), p = min(m,n)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.sigma))


def _largest_entry_signs(f):
    """Per column: −1.0 where its largest-magnitude entry is negative, else 1.0."""
    return np.where(f[np.argmax(np.abs(f), axis=0), np.arange(f.shape[1])] < 0, -1.0, 1.0)


def svd(m) -> SvdResult:
    """Thin SVD with descending singular values; see SvdResult.

    Deterministic across runs: each left singular vector is flipped so its
    largest-magnitude entry is positive (right vector flipped along).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"svd expects a non-empty matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd: input has non-finite entries")

    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    sigma = np.where(sigma > CLAMP_REL * sigma[0], sigma, 0.0)
    flip = _largest_entry_signs(u)
    return SvdResult(u=u * flip, sigma=sigma, v=vt.T * flip)


def truncated_approx(m, k: int) -> np.ndarray:
    """Best rank-k approximation: keep the top-k singular triples."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"truncated_approx expects a matrix, got shape {m.shape}")
    k = int(k)
    p = min(m.shape)
    if not 1 <= k <= p:
        raise ValueError(f"k={k} out of range [1, {p}]")
    res = svd(m)
    return (res.u[:, :k] * res.sigma[:k]) @ res.v[:, :k].T
