"""Dense third-order tensor kernels.

Conventions used throughout the package:

* a matrix is a 2-D float64 ndarray,
* a third-order tensor is a 3-D float64 ndarray with axes
  (d_in, d_out, n_tasks); frontal slice ``i`` is ``t[:, :, i]``,
* mode numbering is 1-based: mode 1 = rows (d_in), mode 2 = columns
  (d_out), mode 3 = tasks.

Unfoldings follow the classical ordering: the row index of the mode-n
unfolding is the mode-n index, and the remaining modes cycle through the
columns with the earlier mode varying fastest.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeMismatchError

_MODE_AXES = {1: 0, 2: 1, 3: 2}


def stack_slices(slices) -> np.ndarray:
    """Stack matrices along the task mode; slice i of the result is input i."""
    slices = list(slices)
    if not slices:
        raise ValueError("stack_slices requires at least one slice")
    mats = [np.asarray(s, dtype=np.float64) for s in slices]
    shape = mats[0].shape
    if len(shape) != 2:
        raise ShapeMismatchError("stack_slices: slice 0 is not a matrix")
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeMismatchError(
                f"stack_slices: slice {i} has shape {m.shape}, expected {shape}"
            )
    return np.stack(mats, axis=2)


def unfold(t, mode: int) -> np.ndarray:
    """Mode-n matricization; see the module docstring for column order."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    if mode not in _MODE_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    axis = _MODE_AXES[mode]
    return np.reshape(np.moveaxis(t, axis, 0), (t.shape[axis], -1), order="F")


def fold(m, mode: int, dims) -> np.ndarray:
    """Inverse of unfold: fold(unfold(t, mode), mode, t.shape) == t."""
    m = np.asarray(m, dtype=np.float64)
    if mode not in _MODE_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError("dims must have three entries")
    axis = _MODE_AXES[mode]
    rest = [d for a, d in enumerate(dims) if a != axis]
    moved = np.reshape(m, (dims[axis], *rest), order="F")
    return np.moveaxis(moved, 0, axis)


def khatri_rao(x, y) -> np.ndarray:
    """Column-wise Kronecker product: column r is kron(x[:, r], y[:, r])."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeMismatchError("khatri_rao expects two matrices")
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatchError(
            f"khatri_rao: column counts differ ({x.shape[1]} vs {y.shape[1]})"
        )
    p, r = x.shape
    q = y.shape[0]
    return np.einsum("ir,jr->ijr", x, y).reshape(p * q, r)


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries of a matrix or tensor."""
    a = np.asarray(t, dtype=np.float64)
    return float(np.sqrt(np.sum(a * a)))


def all_finite(x) -> bool:
    """True when every entry of the array x is finite.

    A finite sum proves it without an array of flags; only a sum that
    overflows, or meets a nan or inf, needs the entrywise test.
    """
    return math.isfinite(x.sum()) or bool(np.all(np.isfinite(x)))
