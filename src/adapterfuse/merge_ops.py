"""Layer-wise merge operators over task delta matrices.

Every merge takes the full list of per-task deltas for one layer plus
a MergeConfig and returns a single merged delta.  Stochastic operators
(the DARE family) draw from a stream derived from (seed, task index,
layer salt), so a layer's merge does not depend on which layers were
merged before it.

The dense methods stream each layer's tasks into running sums of its
entries: no (N, d_in, d_out) stack is made, and a layer's merge holds
the sums and at most _IN_FLIGHT task rows, whatever N and the core
count (a one-entry layer holds its N entries).  The tasks run in
groups of up to _IN_FLIGHT, in task order, on the worker pool
(blas.task_map), with OpenBLAS held to one thread for the whole layer
(blas).  One job per task fills its float64 row
(merge_layer materializes its delta there; merge_deltas copies its
inputs, so callers' arrays are never written), checks it is finite,
then drops (DARE), trims (TIES) or truncates (TSV) it in place; no job
writes another task's row.  DARE draws its noise in blocks of _BLOCK
entries from the (seed, task, layer) stream, which reproduces one draw
over the row.  The TIES trim's threshold is the k-th largest nonzero
magnitude, and a row with at most k nonzeros is left as it is.  Then
one job per column block adds the group's rows into the sums, in task
order within each column: the total for every method, and for TIES
also the sums and counts of the positive and of the negative
survivors.  The last group's jobs turn their block into the output:
alpha × the total (÷ N for uniform), or for TIES alpha × the mean of
the survivors whose sign agrees with the total's.  Every method
returns the same bytes whatever the number of workers or cores, and
the same as the list-based operators it replaced (tests/conftest.py
keeps those as oracles).  merge_deltas (a list of matrices) and
merge_layer (one layer of an AdapterLibrary) are the two entries; each
runs the method that cfg.method names.  merge_library merges every
layer through merge_layer, and a caller that handles each merged layer
before it merges the next (as `adapterfuse merge` does) holds one
layer's result at a time.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import kvconfig
from .blas import single_threaded, task_map, worker_count
from .cp_decomposition import AlsOptions, cp_als_factored, cp_merge
from .errors import ShapeMismatchError
from .svd_kernel import truncated_approx
from .tensor_core import all_finite

METHODS = ("uniform", "task-arithmetic", "ties", "dare-ties", "dare-ta", "tsv", "cp")


@dataclass(frozen=True)
class MergeConfig:
    """Merge method plus its parameters.

    Every parameter is validated whatever the method, so the operators
    trust the config they are given.  The fields are the one statement
    of the parameters: the `key = value` text that merged files record
    (to_kv, through kvconfig) and the `merge` flags (cli) follow from them.
    """

    method: str
    alpha: float = 1.0
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
        if self.seed < 0:
            raise ValueError(f"seed must be ≥ 0, got {self.seed}")

    def to_kv(self) -> str:
        return kvconfig.dump(self)

    @classmethod
    def from_kv(cls, text: str) -> "MergeConfig":
        return kvconfig.build(cls, text, "merge config")


def _require_finite(delta, i) -> None:
    if not all_finite(delta):
        raise ValueError(f"delta {i} has non-finite entries")


def _as_matrices(deltas) -> list:
    """A list of same-shape matrices as float64 arrays, shapes checked."""
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
    return deltas


# Elements per block of DARE's noise and of the trim's passes: a block
# and its temporaries stay in a core's L2 cache.  A layer whose tasks
# hold fewer entries than one block, all together, is merged inline.
_BLOCK = 1 << 15
# Entries of the group's rows per column block of the running sums.
# Wider blocks take fewer numpy calls (up to seven per row and block),
# between which two workers wait on each other for the GIL; narrower ones
# keep a block's sums in a core's L2 cache while the rows are added.
# From 2^15 to 2^17 the sums of a dare-ties layer of 8 dense-stored 512²
# deltas took 10-15 ms either way on a 2-core VM.
_COLUMN_BLOCK = 1 << 16
# Tasks in flight in one layer's merge, one per worker.  Each holds its
# row and scratch, so every further one adds a row to the peak: two take
# the per-task stage of that layer from 24 to 21 ms on the 2-core VM,
# and the peak stops there whatever the core count.
_IN_FLIGHT = 2


def _dare(row, cfg, stream, noise) -> None:
    """DARE on one flattened matrix in place; `noise` is float64 scratch.

    The noise is drawn block by block into `noise`, which reproduces one
    draw over the whole row.
    """
    p = cfg.dare_p
    if p == 0.0:
        return
    rng = np.random.default_rng([cfg.seed, *stream])
    for j0 in range(0, len(row), len(noise)):
        part = row[j0 : j0 + len(noise)]
        block = noise[: len(part)]
        rng.random(out=block)
        np.divide(part, 1.0 - p, out=part)
        # AND with all-ones keeps a survivor's bits (−0.0 included) and AND
        # with zero leaves +0.0, as np.where(keep, delta, 0.0) would, with no
        # branch per entry; the noise is dead once compared, so it holds the mask
        keep = block >= p
        mask = block.view(np.int64)
        np.negative(keep.view(np.int8), out=mask)
        bits = part.view(np.int64)
        np.bitwise_and(bits, mask, out=bits)


def _trim(row, k, mags, flags) -> None:
    """TIES trim of one flattened delta in place: keep its k largest magnitudes.

    A row with at most k nonzeros keeps them all and its zeros are
    zeros already, so it is left alone.  Otherwise the threshold is the
    k-th largest magnitude, selected among the nonzero ones, in an array
    of their count: selection over a row that DARE left half zeros
    degenerates on the run of equal zeros.  Magnitude ties at the
    threshold keep the lowest indices.  `mags` (float64) and `flags`
    (bool) are scratch of at least min(length, _BLOCK); the row is read
    block by block, because np.compress over the whole row allocates its
    index array, 8 bytes per nonzero.
    """
    n = len(row)
    # (part, its flags, scratch for its magnitudes); a row of one block is
    # not cut, since slices cost as much as its numpy calls
    blocks = ([(row, flags[:n], mags[:n])] if n <= _BLOCK else
              [(row[j0 : j0 + _BLOCK], flags[: min(_BLOCK, n - j0)], mags[: min(_BLOCK, n - j0)])
               for j0 in range(0, n, _BLOCK)])
    nnz = 0
    for part, part_flags, _ in blocks:
        nnz += np.count_nonzero(np.not_equal(part, 0.0, out=part_flags))
    if nnz <= k:
        return
    if nnz == n:  # compress over an all-true mask is a slow copy
        top = np.abs(row)
    else:
        top = np.empty(nnz)
        at = 0
        for part, part_flags, _ in blocks:
            if len(blocks) > 1:  # else the flags still hold the one block's mask
                np.not_equal(part, 0.0, out=part_flags)
            nonzeros = part.compress(part_flags)
            np.abs(nonzeros, out=top[at : at + len(nonzeros)])
            at += len(nonzeros)
    top.partition(nnz - k)
    thr = top[nnz - k]
    kept = 0
    for part, part_flags, part_mag in blocks:
        keep = np.greater_equal(np.abs(part, out=part_mag), thr, out=part_flags)
        kept += np.count_nonzero(keep)
        np.multiply(part, keep, out=part)
    # the surplus of ties with thr is dropped at the highest indices; a
    # zero's sign never reaches the output (the election tests ≥ 0, and
    # agreement needs a nonzero)
    surplus = kept - k
    if surplus:
        for part, _, part_mag in reversed(blocks):
            if len(blocks) > 1:  # else part_mag still holds the one block's magnitudes
                np.abs(part, out=part_mag)
            ties = np.flatnonzero(part_mag == thr)[-surplus:]
            part[ties] = 0.0
            surplus -= len(ties)
            if not surplus:
                break


def _column_blocks(n_rows, n) -> tuple:
    """(count, widest) of the column blocks over which n_rows rows of n
    entries are added into the sums, about _COLUMN_BLOCK entries of the
    rows each; block b is columns n·b // count up to n·(b + 1) // count.

    No block is a single column unless the layer is (_fold_ties).
    """
    n_blocks = max(1, n // max(2, _COLUMN_BLOCK // n_rows))
    return n_blocks, -(-n // n_blocks)


def _fold_ties(x, sums, flags, tmp, zeros) -> None:
    """Add the task rows x (tasks, columns), in task order, into the TIES
    sums of their columns: the total, the sums of the positive and of the
    negative entries, and the counts of each.

    flags (bool), tmp and zeros (float64, all zero) are scratch of a
    row's length; max and min against an array of zeros run twice as fast
    as against the scalar.  They add a zero in place of the other sign's
    entries, which leaves a nonzero sum as it is and a zero one +0.0.  A
    one-column layer comes in one group, and is summed over its tasks
    pairwise, the order in which numpy reduces one contiguous column.
    """
    total, pos, neg, n_pos, n_neg = sums
    if x.shape[1] == 1:
        col = x[:, 0]
        total += np.add.reduce(col)
        pos += np.add.reduce(np.maximum(col, 0.0))
        neg += np.add.reduce(np.minimum(col, 0.0))
        n_pos += int(np.count_nonzero(col > 0.0))
        n_neg += int(np.count_nonzero(col < 0.0))
        return
    for row in x:
        total += row
        n_pos += np.greater(row, 0.0, out=flags).view(np.uint8)
        n_neg += np.less(row, 0.0, out=flags).view(np.uint8)
        pos += np.maximum(row, zeros, out=tmp)
        neg += np.minimum(row, zeros, out=tmp)


def _elect(sums, alpha, flags) -> None:
    """Write over the total alpha × the mean of the survivors whose sign
    agrees with it: the positive ones where it is ≥ 0, the negative ones
    elsewhere (alpha × +0.0 where there are none)."""
    total, pos, neg, n_pos, n_neg = sums
    for part, count in ((pos, n_pos), (neg, n_neg)):
        np.divide(part, np.maximum(count, 1, out=count), out=part)
        part *= alpha
    # ANDs with all-ones or zero masks, as in _dare, pick the mean by its
    # bits: a product by 0 would turn a mean that overflowed to inf into nan
    np.greater_equal(total, 0.0, out=flags)
    mask, pos, neg = (a.view(np.int64) for a in (total, pos, neg))
    np.negative(flags.view(np.int8), out=mask)
    pos &= mask
    neg &= np.invert(mask, out=mask)
    np.bitwise_or(pos, neg, out=mask)


@single_threaded()  # once per layer, so the workers' own guards leave the count as it is
def _merge_dense(cfg, salt, shape, fill) -> np.ndarray:
    """Merge one layer of `shape` (tasks, d_in, d_out) by cfg.method.

    The tasks run in groups of up to _IN_FLIGHT, one per worker.  One job
    per task fills its row (fill(i, matrix)), checks it is finite, then
    drops, trims or truncates it in place; then one job per column block
    adds the group's rows into the sums, and the last group's jobs turn
    the sums into the output.  A layer whose tasks hold fewer than _BLOCK
    entries in all runs inline.
    """
    n_tasks = shape[0]
    n = math.prod(shape[1:])
    dare = cfg.method.startswith("dare-") and cfg.dare_p > 0.0
    k = math.ceil(cfg.k_density * n) if cfg.method in ("ties", "dare-ties") else None
    rank = math.ceil(cfg.k_density * min(shape[1:])) if cfg.method == "tsv" else None
    block = max(1, min(n, _BLOCK))
    # a truncation holds about three slices of its own (the SVD's factors
    # and their product), so TSV keeps one task in flight; a one-entry layer
    # is summed over its tasks pairwise (_fold_ties), so it takes them all
    group = n_tasks if n == 1 else worker_count(n_tasks, 1 if rank is not None else _IN_FLIGHT)
    workers = 1 if n_tasks * n < _BLOCK else group
    rows = np.empty((group, n))
    # the total becomes the output; the counts take the narrowest type that holds N
    out = np.zeros(n)
    count_type = np.min_scalar_type(n_tasks)
    sums = (out, np.zeros(n), np.zeros(n), np.zeros(n, count_type), np.zeros(n, count_type)) \
        if k is not None else (out,)
    n_blocks, width = _column_blocks(group, n)
    first = last = 0

    def stage(j, noise, flags):
        i, row = first + j, rows[j]
        matrix = row.reshape(shape[1:])
        fill(i, matrix)
        _require_finite(row, i)  # s·A·Bᵀ can overflow
        if dare:
            _dare(row, cfg, (i, salt), noise)
            _require_finite(row, i)  # dividing by 1 − p can overflow
        if k is not None:
            _trim(row, k, noise, flags)  # DARE's noise is dead before the trim writes there
        if rank is not None:
            np.copyto(matrix, truncated_approx(matrix, rank))

    def stage_scratch():
        return (np.empty(block) if dare or k is not None else None,
                np.empty(block, dtype=bool) if k is not None else None)

    def fold(b, flags, tmp, zeros):
        cols = slice(n * b // n_blocks, n * (b + 1) // n_blocks)
        x = rows[: last - first, cols]
        if k is not None:
            part, w = tuple(s[cols] for s in sums), x.shape[1]
            _fold_ties(x, part, flags[:w], tmp[:w], zeros[:w])
            if last == n_tasks:
                _elect(part, cfg.alpha, flags[:w])
            return
        total = out[cols]
        for row in x:  # from +0.0, as sum() starts: −0.0 becomes +0.0
            total += row
        if last == n_tasks:
            total *= cfg.alpha
            if cfg.method == "uniform":
                total /= n_tasks

    def fold_scratch():
        if k is None:
            return None, None, None
        return np.empty(width, dtype=bool), np.empty(width), np.zeros(width)

    while last < n_tasks:
        first, last = last, min(last + group, n_tasks)
        task_map(stage, last - first, stage_scratch, workers)
        task_map(fold, n_blocks, fold_scratch, workers)
    return out.reshape(shape[1:])


def layer_salt(layer_id: str) -> int:
    return zlib.crc32(str(layer_id).encode("utf-8"))


def merge_deltas(deltas, cfg: MergeConfig, salt: int = 0) -> np.ndarray:
    """Merge one layer's dense deltas, same-shape matrices, by cfg.method.

    uniform is alpha · (Σ Δ_i) / N, task-arithmetic alpha · Σ Δ_i, and
    tsv alpha · Σ_i the rank-k truncation of Δ_i, k = ceil(k_density ·
    min dim).  ties trims, elects signs and averages the agreeing
    survivors: per task the top ceil(k_density · n_entries) entries by
    |magnitude| survive (magnitude ties keep the lower linear index),
    each entry's sign is elected from the sign of the summed survivors
    (an exact zero elects +), and the output is alpha times the mean over
    tasks whose surviving entry is nonzero and matches the elected sign.
    dare-ta and dare-ties first zero each entry of Δ_i with probability
    dare_p and divide the survivors by 1 − dare_p, the mask drawn from
    the stream (seed, i, salt); `salt` (≥ 0, derived from the layer id by
    merge_library) keys the masks so no two layers reuse a stream.  The
    inputs are copied into task rows, never written.  The cp method
    fits the factored deltas of a library, so it runs through
    merge_layer only.
    """
    if cfg.method == "cp":
        raise ValueError(f"method {cfg.method!r} merges factored deltas: use merge_layer "
                         "or merge_library")
    if salt < 0:
        raise ValueError(f"salt must be ≥ 0, got {salt}")
    deltas = _as_matrices(deltas)
    return _merge_dense(cfg, salt, (len(deltas), *deltas[0].shape),
                        lambda i, out: np.copyto(out, deltas[i]))


@single_threaded()  # cp_merge's product too (blas)
def merge_layer(lib, layer_id: str, cfg: MergeConfig) -> np.ndarray:
    """Merge one layer of an adapter library, independently of the others.

    The cp method fits on the factored deltas (cp_als_factored); the
    others materialize them into their task rows (_merge_dense).
    """
    if layer_id not in lib.layers:
        raise ValueError(f"library has no layer {layer_id!r}")
    layer = [lib.deltas[(task, layer_id)] for task in lib.tasks]
    if cfg.method == "cp":
        f = cp_als_factored(layer, cfg.cp_rank, AlsOptions(seed=cfg.seed))
        return cfg.alpha * cp_merge(f)
    return _merge_dense(cfg, layer_salt(layer_id), (len(layer), layer[0].d_in, layer[0].d_out),
                        lambda i, out: layer[i].materialize(out=out))


def merge_library(lib, cfg: MergeConfig) -> dict:
    """Merge every layer of an adapter library (merge_layer).

    Returns {layer_id: merged delta} in schema order.
    """
    lib.validate()
    return {layer_id: merge_layer(lib, layer_id, cfg) for layer_id in lib.layers}
