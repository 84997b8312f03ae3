"""Dense tensor kernels: norms, finiteness.

Conventions used throughout the package:

* a matrix is a 2-D float64 ndarray,
* a third-order tensor is a 3-D float64 ndarray with axes
  (d_in, d_out, n_tasks); frontal slice ``i`` is ``t[:, :, i]``,
* mode numbering is 1-based: mode 1 = rows (d_in), mode 2 = columns
  (d_out), mode 3 = tasks.
"""

from __future__ import annotations

import math

import numpy as np


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries of a matrix or tensor.

    Finite for finite input: only when the plain sum of squares overflows
    are the entries scaled by their largest magnitude and summed again.
    """
    a = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(a * a)
    if math.isfinite(total):
        return float(np.sqrt(total))
    peak = float(np.max(np.abs(a)))
    if not math.isfinite(peak):  # an inf or nan entry
        return float(np.sqrt(total))
    scaled = a / peak
    return peak * math.sqrt(np.sum(scaled * scaled))


def all_finite(x) -> bool:
    """True when every entry of the array x is finite.

    A finite sum proves it without an array of flags; only a sum that
    overflows, or meets a nan or inf, needs the entrywise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum()
    return math.isfinite(total) or bool(np.all(np.isfinite(x)))
