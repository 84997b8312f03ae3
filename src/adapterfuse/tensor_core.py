"""Dense tensor kernels: norms, finiteness."""

from __future__ import annotations

import math

import numpy as np

# Entries per chunk of a sum of squares: np.sum reduces a contiguous
# array pairwise, and the halves below this size are summed by one call.
_CHUNK = 1 << 13


def _sum_squares(x, y, scale, out):
    """Σ ((x − y) / scale)² over the flat arrays x and y (y None: Σ (x /
    scale)²; scale None: no division), in the order np.sum adds the
    squares of one contiguous array: split in two at half the length,
    rounded down to a multiple of 8, down to parts of at most _CHUNK
    entries, each reduced pairwise by np.add.reduce.  out is float64
    scratch of min(len(x), _CHUNK) entries."""
    n = len(x)
    if n > _CHUNK:
        half = n // 2 - n // 2 % 8
        return (_sum_squares(x[:half], None if y is None else y[:half], scale, out)
                + _sum_squares(x[half:], None if y is None else y[half:], scale, out))
    d = x if y is None else np.subtract(x, y, out=out[:n])
    if scale is not None:
        d = np.divide(d, scale, out=out[:n])
    return np.add.reduce(np.multiply(d, d, out=out[:n]))


def _peak(x, y, out):
    """max |x − y| (|x| when y is None) over flat arrays, nan if any is nan."""
    peak = 0.0
    for j in range(0, len(x), _CHUNK):
        d = x[j : j + _CHUNK]
        if y is not None:
            d = np.subtract(d, y[j : j + _CHUNK], out=out[: len(d)])
        peak = np.maximum(peak, np.max(np.abs(d, out=out[: len(d)]), initial=0.0))
    return float(peak)


def _norm(x, y) -> float:
    """‖x − y‖ (‖x‖ when y is None) over flat arrays; see frobenius_norm."""
    out = np.empty(min(len(x), _CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        total = _sum_squares(x, y, None, out)
        if math.isfinite(total):
            return float(np.sqrt(total))
        peak = _peak(x, y, out)
        if not math.isfinite(peak):  # an inf or nan entry
            return float(np.sqrt(total))
        return peak * math.sqrt(_sum_squares(x, y, peak, out))


def frobenius_norm(t) -> float:
    """sqrt of the sum of squared entries of a matrix or tensor.

    The squares are summed chunk by chunk through one scratch buffer of
    _CHUNK entries, so no array of t's size is made for a C- or
    F-contiguous t, and in the order np.sum(t * t) adds them, whose bits
    the result has.  Finite for finite input: only when the plain sum of
    squares overflows are the entries scaled by their largest magnitude
    and summed again.
    """
    return _norm(np.ravel(np.asarray(t, dtype=np.float64), order="K"), None)


def _difference_norm(a, b) -> float:
    """frobenius_norm(a − b) for float64 arrays of one shape, without the
    difference: of the bits of np.sum(d * d), d = a − b, and copying
    neither where both are C- or both F-contiguous (an array of another
    layout is flattened in C order, a copy)."""
    order = "F" if a.flags.f_contiguous and b.flags.f_contiguous else "C"
    return _norm(np.ravel(a, order=order), np.ravel(b, order=order))


def all_finite(x) -> bool:
    """True when every entry of the array x is finite.

    A finite sum proves it without an array of flags; only a sum that
    overflows, or meets a nan or inf, needs the entrywise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum()
    return math.isfinite(total) or bool(np.all(np.isfinite(x)))
