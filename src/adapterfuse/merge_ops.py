"""Layer-wise merge operators over task delta matrices.

Every operator takes the full list of per-task deltas for one layer plus
a MergeConfig and returns a single merged delta.  Stochastic operators
(the DARE family) draw from a stream derived from (seed, task index,
layer salt), so a layer's merge does not depend on which layers were
merged before it.

The dense methods run on one float64 stack of shape (N, d_in, d_out)
per layer.  merge_library materializes each task's s·A·Bᵀ straight into
its slice (merge_deltas and the list operators copy their inputs into a
new stack, so callers' arrays are never written), checks each slice is
finite, and frees the stack before the next layer's is filled.  DARE
drops and rescales each slice in place, reusing one noise buffer per
layer.  The TIES trim zeroes each task's row in place; its threshold is
the k-th largest nonzero magnitude, and a row with at most k nonzeros
is left as it is.  Sign election and the agreeing mean run over column
blocks small enough for a core's cache instead of whole-stack
temporaries.  Every method returns the same bytes as the list-based
operators it replaced (tests/conftest.py keeps those as oracles).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import kvconfig
from .cp_decomposition import AlsOptions, cp_als_factored, cp_merge
from .errors import ShapeMismatchError
from .svd_kernel import truncated_approx
from .tensor_core import all_finite

METHODS = ("uniform", "task-arithmetic", "ties", "dare-ties", "dare-ta", "tsv", "cp")

_SEED_MASK = (1 << 64) - 1  # SeedSequence wants non-negative entropy words


@dataclass(frozen=True)
class MergeConfig:
    """Merge method plus its parameters.

    Every parameter is validated whatever the method, so the operators
    trust the config they are given; `average` is consumed by the cp
    method alone (uniform always divides by N, task arithmetic never does).
    """

    method: str
    alpha: float = 1.0
    average: bool = False
    k_density: float = 0.2
    dare_p: float = 0.5
    cp_rank: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; valid: {', '.join(METHODS)}"
            )
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 < self.k_density <= 1.0:
            raise ValueError(f"k_density must be in (0,1], got {self.k_density}")
        if not 0.0 <= self.dare_p < 1.0:
            raise ValueError(f"dare_p must be in [0,1), got {self.dare_p}")
        if self.cp_rank < 1:
            raise ValueError(f"cp_rank must be ≥ 1, got {self.cp_rank}")

    def to_kv(self) -> str:
        return kvconfig.dumps(
            {
                "method": self.method,
                "alpha": repr(float(self.alpha)),
                "average": "true" if self.average else "false",
                "k_density": repr(float(self.k_density)),
                "dare_p": repr(float(self.dare_p)),
                "cp_rank": str(self.cp_rank),
                "seed": str(self.seed),
            }
        )

    @classmethod
    def from_kv(cls, text: str) -> "MergeConfig":
        raw = kvconfig.loads(text)
        known = {
            "method": str,
            "alpha": float,
            "average": kvconfig.as_bool,
            "k_density": float,
            "dare_p": float,
            "cp_rank": int,
            "seed": int,
        }
        unknown = set(raw) - set(known)
        if unknown:
            raise ValueError(f"unknown merge config keys: {sorted(unknown)}")
        if "method" not in raw:
            raise ValueError("merge config is missing 'method'")
        return cls(**{k: known[k](v) for k, v in raw.items()})


def _require_finite(delta, i) -> None:
    if not all_finite(delta):
        raise ValueError(f"delta {i} has non-finite entries")


def _stack_deltas(deltas) -> np.ndarray:
    """Validate a list of same-shape finite matrices and copy them into one stack."""
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    if not deltas:
        raise ValueError("need at least one delta")
    shape = deltas[0].shape
    for i, d in enumerate(deltas):
        if d.ndim != 2:
            raise ShapeMismatchError(f"delta {i} is not a matrix (ndim={d.ndim})")
        if d.shape != shape:
            raise ShapeMismatchError(
                f"delta {i} has shape {d.shape}, expected {shape}"
            )
        _require_finite(d, i)
    return np.stack(deltas)


def _fill_stack(layer) -> np.ndarray:
    """One layer's factored deltas materialized straight into a new stack."""
    stack = np.empty((len(layer), layer[0].d_in, layer[0].d_out))
    for i, d in enumerate(layer):
        _require_finite(d.materialize(out=stack[i]), i)  # s·A·Bᵀ can overflow
    return stack


def _task_sum(stack) -> np.ndarray:
    """Σ over tasks, added in task order into a new array."""
    total = stack[0] + 0.0  # as sum() starts from 0: −0.0 becomes +0.0
    for delta in stack[1:]:
        total += delta
    return total


def _task_arithmetic(stack, cfg):
    total = _task_sum(stack)
    total *= cfg.alpha
    return total


def _uniform(stack, cfg):
    total = _task_arithmetic(stack, cfg)
    total /= len(stack)
    return total


def _tsv(stack, cfg):
    k = math.ceil(cfg.k_density * min(stack.shape[1:]))
    for delta in stack:
        delta[...] = truncated_approx(delta, k)
    return _task_arithmetic(stack, cfg)


def _dare(delta, cfg, stream, noise) -> None:
    """DARE on one matrix in place; `noise` is float64 scratch of its shape."""
    p = cfg.dare_p
    if p == 0.0:
        return
    rng = np.random.default_rng([cfg.seed & _SEED_MASK, *(s & _SEED_MASK for s in stream)])
    rng.random(out=noise)
    np.divide(delta, 1.0 - p, out=delta)
    # AND with all-ones keeps a survivor's bits (−0.0 included) and AND
    # with zero leaves +0.0, as np.where(keep, delta, 0.0) would, with no
    # branch per entry; the noise is dead once compared, so it holds the mask
    keep = noise >= p
    mask = noise.view(np.int64)
    np.negative(keep.view(np.int8), out=mask)
    bits = delta.view(np.int64)
    np.bitwise_and(bits, mask, out=bits)


def _dare_stack(stack, cfg, salt) -> None:
    noise = np.empty(stack.shape[1:])
    for i, delta in enumerate(stack):
        _dare(delta, cfg, (i, salt), noise)
        _require_finite(delta, i)  # dividing by 1 − p can overflow


def _trim(row, k, mag, nonzero_mag, flags) -> None:
    """TIES trim of one flattened delta in place: keep its k largest magnitudes.

    A row with at most k nonzeros keeps them all and its zeros are
    zeros already, so it is left alone.  Otherwise the threshold is the
    k-th largest magnitude, selected among the nonzero ones: selection
    over a row that DARE left half zeros degenerates on the run of equal
    zeros.  Magnitude ties at the threshold keep the lowest indices.
    `mag`, `nonzero_mag` (float64) and `flags` (bool) are scratch of the
    row's length.
    """
    np.abs(row, out=mag)
    nonzero = np.not_equal(mag, 0.0, out=flags)
    nnz = np.count_nonzero(nonzero)
    if nnz <= k:
        return
    top = nonzero_mag[:nnz]
    if nnz == len(mag):  # compress over an all-true mask is a slow copy
        np.copyto(top, mag)
    else:
        np.compress(nonzero, mag, out=top)
    top.partition(nnz - k)
    thr = top[nnz - k]
    keep = np.greater_equal(mag, thr, out=flags)
    surplus = np.count_nonzero(keep) - k
    if surplus:
        keep[np.flatnonzero(mag == thr)[-surplus:]] = False
    # a dropped negative entry becomes −0.0: the sign of a zero never
    # reaches the output (the election tests ≥ 0, agreement needs nonzero)
    np.multiply(row, keep, out=row)


# Elements of the stack elected per block: a block and its few same-size
# temporaries stay in a core's L2 cache.
_ELECT_BLOCK = 1 << 15


def _elect_mean(flat, alpha) -> np.ndarray:
    """alpha × the mean of each column's survivors that agree with its elected sign.

    Runs over column blocks of the (tasks, entries) stack.  No block is a
    single column unless the stack is: numpy then reduces over tasks in
    a different order, and the sums would round differently.
    """
    n_tasks, n = flat.shape
    n_blocks = max(1, n // max(2, _ELECT_BLOCK // n_tasks))
    edges = [n * b // n_blocks for b in range(n_blocks + 1)]
    out = np.empty(n)
    for j0, j1 in zip(edges, edges[1:]):
        block = flat[:, j0:j1]
        elected = np.where(block.sum(axis=0) >= 0.0, 1.0, -1.0)
        agrees = block * elected > 0.0
        counts = np.add.reduce(agrees, axis=0, dtype=np.float64)
        # a disagreeing entry adds a zero, which leaves a nonzero sum as it is
        total = (block * agrees).sum(axis=0)
        out[j0:j1] = alpha * np.where(counts > 0, total / np.maximum(counts, 1.0), 0.0)
    return out


def _ties(stack, cfg):
    flat = stack.reshape(len(stack), -1)
    n = flat.shape[1]
    k = math.ceil(cfg.k_density * n)
    mag, nonzero_mag, flags = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for row in flat:
        _trim(row, k, mag, nonzero_mag, flags)
    return _elect_mean(flat, cfg.alpha).reshape(stack.shape[1:])


def uniform_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · (Σ Δ_i) / N."""
    return _uniform(_stack_deltas(deltas), cfg)


def task_arithmetic(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · Σ Δ_i, no averaging."""
    return _task_arithmetic(_stack_deltas(deltas), cfg)


def ties_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """Trim, elect signs, average the agreeing survivors.

    Per task the top ceil(k_density · n_entries) entries by |magnitude|
    survive (magnitude ties keep the lower linear index).  Each entry's
    sign is elected from the sign of the summed survivors (an exact zero
    elects +); the output is alpha times the mean over tasks whose
    surviving entry is nonzero and matches the elected sign.
    """
    return _ties(_stack_deltas(deltas), cfg)


def dare_transform(delta, cfg: MergeConfig, stream=()) -> np.ndarray:
    """Zero each entry with probability dare_p, rescale survivors by 1/(1-p).

    The mask is drawn from (cfg.seed, *stream); `stream` lets library-level
    merges give every (task, layer) its own reproducible mask.
    """
    delta = np.array(delta, dtype=np.float64)
    if delta.ndim != 2:
        raise ShapeMismatchError(f"delta is not a matrix (ndim={delta.ndim})")
    _dare(delta, cfg, stream, np.empty(delta.shape))
    return delta


def tsv_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · Σ_i rank-k truncation of Δ_i, k = ceil(k_density · min dim)."""
    return _tsv(_stack_deltas(deltas), cfg)


def layer_salt(layer_id: str) -> int:
    return zlib.crc32(str(layer_id).encode("utf-8"))


# The dense methods; the DARE pair drops entries first (_merge_stack).
_DENSE_OPS = {
    "uniform": _uniform,
    "task-arithmetic": _task_arithmetic,
    "ties": _ties,
    "tsv": _tsv,
    "dare-ties": _ties,
    "dare-ta": _task_arithmetic,
}


def _merge_stack(stack, cfg, salt) -> np.ndarray:
    """Merge one layer's (tasks, d_in, d_out) stack, which it overwrites."""
    if cfg.method.startswith("dare-"):
        _dare_stack(stack, cfg, salt)
    return _DENSE_OPS[cfg.method](stack, cfg)


def merge_deltas(deltas, cfg: MergeConfig, salt: int = 0) -> np.ndarray:
    """Merge one layer's dense deltas with the configured operator.

    `salt` (derived from the layer id by merge_library) keys the DARE
    masks so no two layers reuse a stream.  The cp method fits the
    factored deltas of a library, so it runs through merge_library only.
    """
    if cfg.method not in _DENSE_OPS:
        raise ValueError(f"method {cfg.method!r} merges factored deltas: use merge_library")
    return _merge_stack(_stack_deltas(deltas), cfg, salt)


def merge_library(lib, cfg: MergeConfig) -> dict:
    """Merge every layer of an adapter library independently.

    Returns {layer_id: merged delta} in schema order.  The cp method fits
    on the factored deltas (cp_als_factored); the others materialize them.
    """
    lib.validate()
    merged = {}
    for layer_id in lib.layers:
        layer = [lib.deltas[(task, layer_id)] for task in lib.tasks]
        if cfg.method == "cp":
            f = cp_als_factored(layer, cfg.cp_rank, AlsOptions(seed=cfg.seed))
            merged[layer_id] = cfg.alpha * (cp_merge(f) / f.n_tasks if cfg.average else cp_merge(f))
        else:
            # the stack is freed when _merge_stack returns, before the next layer's
            merged[layer_id] = _merge_stack(_fill_stack(layer), cfg, layer_salt(layer_id))
    return merged
