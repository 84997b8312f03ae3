"""Layer-wise merge operators over task delta matrices.

Every merge takes the full list of per-task deltas for one layer plus
a MergeConfig and returns a single merged delta.  Stochastic operators
(the DARE family) draw from a stream derived from (seed, task index,
layer salt), so a layer's merge does not depend on which layers were
merged before it.

The dense methods run on one float64 stack of shape (N, d_in, d_out)
per layer, on every core through blas.task_map, with OpenBLAS held to
one thread for the whole layer (blas).  One job per task fills its
slice (merge_library materializes its delta there; merge_deltas copies
its inputs, so callers' arrays are never written), checks it is
finite, then drops (DARE), trims (TIES) or truncates (TSV) it in
place; no job writes another task's slice.  DARE draws its noise in
blocks of _BLOCK entries from the (seed, task, layer) stream, which
reproduces one draw over the slice.  The TIES trim's threshold is the
k-th largest nonzero magnitude, and a row with at most k nonzeros is
left as it is.  The reductions over tasks (sign election with the
agreeing mean, and the task sum) then run one job per column block,
adding in task order within each column.  Each stage uses as many
workers as the scratch of the serial code fits (_workers_within), so
more cores never raise the peak memory; TSV, whose truncation's arrays
are scratch too, runs on one.  Every method returns the same bytes
whatever the number of workers or cores, and the same as the
list-based operators it replaced (tests/conftest.py keeps those as
oracles).  merge_deltas (a list of matrices) and merge_library (an
AdapterLibrary) are the two entries; each runs the method that
cfg.method names.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import kvconfig
from .blas import single_threaded, task_map
from .cp_decomposition import AlsOptions, cp_als_factored, cp_merge
from .errors import ShapeMismatchError
from .svd_kernel import truncated_approx
from .tensor_core import all_finite

METHODS = ("uniform", "task-arithmetic", "ties", "dare-ties", "dare-ta", "tsv", "cp")


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
        if self.seed < 0:
            raise ValueError(f"seed must be ≥ 0, got {self.seed}")

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
        parsers = {
            "method": str,
            "alpha": float,
            "average": kvconfig.as_bool,
            "k_density": float,
            "dare_p": float,
            "cp_rank": int,
            "seed": int,
        }
        return kvconfig.build(cls, text, parsers, "merge config")


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
# and its temporaries stay in a core's L2 cache.  A stack below one block
# is merged inline.
_BLOCK = 1 << 15
# Stack elements per column block of the reductions over tasks.  Larger:
# each block costs a dozen numpy calls, and two workers wait on each
# other for the GIL between calls.
_COLUMN_BLOCK = 1 << 17


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


def _trim(row, k, buf, flags) -> None:
    """TIES trim of one flattened delta in place: keep its k largest magnitudes.

    A row with at most k nonzeros keeps them all and its zeros are
    zeros already, so it is left alone.  Otherwise the threshold is the
    k-th largest magnitude, selected among the nonzero ones: selection
    over a row that DARE left half zeros degenerates on the run of equal
    zeros.  Magnitude ties at the threshold keep the lowest indices.
    `buf` is float64 scratch of the row's length, `flags` bool scratch
    of min(length, _BLOCK); the row is read block by block, because
    np.compress over the whole row allocates its index array, 8 bytes
    per nonzero.
    """
    n = len(row)
    # (part, its flags, scratch for its magnitudes); a row of one block
    # takes no slices, which cost as much as its numpy calls
    blocks = ([(row, flags, buf)] if n <= _BLOCK else
              [(row[j0 : j0 + _BLOCK], flags[: min(_BLOCK, n - j0)], buf[: min(_BLOCK, n - j0)])
               for j0 in range(0, n, _BLOCK)])
    nnz = 0
    for part, part_flags, _ in blocks:
        nnz += np.count_nonzero(np.not_equal(part, 0.0, out=part_flags))
    if nnz <= k:
        return
    if nnz == n:  # compress over an all-true mask is a slow copy
        top = np.abs(row, out=buf)
    else:
        top = buf[:nnz]
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


def _column_blocks(n_tasks, n) -> tuple:
    """(count, widest) of the column blocks of a (tasks, n) stack, about
    _COLUMN_BLOCK elements each; block b is columns n·b // count up to
    n·(b + 1) // count.

    No block is a single column unless the stack is: numpy then reduces
    over tasks in a different order, and the sums would round differently.
    """
    n_blocks = max(1, n // max(2, _COLUMN_BLOCK // n_tasks))
    return n_blocks, -(-n // n_blocks)


def _elect_mean(flat, alpha, most) -> np.ndarray:
    """alpha × the mean of each column's survivors that agree with its elected sign.

    most(bytes) is the number of workers that may hold that much scratch.
    """
    n = flat.shape[1]
    n_blocks, width = _column_blocks(*flat.shape)
    out = np.empty(n)

    def scratch():
        return np.empty((len(flat), width)), np.empty((len(flat), width), dtype=bool)

    def elect(b, prod, agrees):
        j0, j1 = n * b // n_blocks, n * (b + 1) // n_blocks
        block, prod, agrees = flat[:, j0:j1], prod[:, : j1 - j0], agrees[:, : j1 - j0]
        elected = np.where(np.add.reduce(block, axis=0) >= 0.0, 1.0, -1.0)
        np.greater(np.multiply(block, elected, out=prod), 0.0, out=agrees)
        counts = np.add.reduce(agrees, axis=0, dtype=np.float64)
        # a disagreeing entry adds a zero, which leaves a nonzero sum as it
        # is; a column with no agreeing entry sums to ±0.0, and + 0.0 makes
        # it the +0.0 of an empty mean
        total = np.add.reduce(np.multiply(block, agrees, out=prod), axis=0)
        total += 0.0
        np.multiply(alpha, np.divide(total, np.maximum(counts, 1.0), out=total), out=out[j0:j1])

    # prod and agrees, and about six float64 columns of temporaries
    task_map(elect, n_blocks, scratch, most((9 * len(flat) + 48) * width))
    return out


def _scaled_sum(flat, alpha, divisor, most) -> np.ndarray:
    """alpha · Σ over tasks (then ÷ divisor, if any), added in task order."""
    n = flat.shape[1]
    n_blocks, _ = _column_blocks(*flat.shape)
    out = np.empty(n)

    def add(b):
        cols = slice(n * b // n_blocks, n * (b + 1) // n_blocks)
        total = out[cols]
        np.add(flat[0, cols], 0.0, out=total)  # as sum() starts from 0: −0.0 becomes +0.0
        for row in flat[1:, cols]:
            total += row
        total *= alpha
        if divisor:
            total /= divisor

    task_map(add, n_blocks, most=most(0))
    return out


def _workers_within(budget, per_worker):
    """Workers whose scratch of per_worker bytes fits in budget bytes
    together (at least one); None, no limit, for jobs without scratch."""
    return max(1, budget // per_worker) if per_worker else None


@single_threaded()  # once per layer, so the workers' own guards leave the count as it is
def _merge_layer(cfg, salt, shape, fill) -> np.ndarray:
    """Merge one layer by cfg.method on a new stack of `shape` (tasks, d_in, d_out).

    One job per task fills its slice (fill(i, slice)), checks it is
    finite, then drops, trims or truncates it in place; the reduction
    over tasks runs over column blocks.  Both go through task_map, inline
    for a stack below one _BLOCK, and each stage's workers hold no more
    scratch together than the serial code did.
    """
    stack = np.empty(shape)
    n_tasks = len(stack)
    flat = stack.reshape(n_tasks, -1)
    n = flat.shape[1]
    dare = cfg.method.startswith("dare-") and cfg.dare_p > 0.0
    k = math.ceil(cfg.k_density * n) if cfg.method in ("ties", "dare-ties") else None
    rank = math.ceil(cfg.k_density * min(shape[1:])) if cfg.method == "tsv" else None
    budget = n * (17 if k is not None else 8 if dare else 0)
    block = max(1, min(n, _BLOCK))

    def most(per_worker):
        return 1 if stack.size < _BLOCK else _workers_within(budget, per_worker)

    def stage(i, noise, buf, flags):
        row = flat[i]
        fill(i, stack[i])
        _require_finite(row, i)  # s·A·Bᵀ can overflow
        if dare:
            _dare(row, cfg, (i, salt), noise)
            _require_finite(row, i)  # dividing by 1 − p can overflow
        if k is not None:
            _trim(row, k, buf, flags)
        if rank is not None:
            stack[i] = truncated_approx(stack[i], rank)

    def scratch():
        if k is None:
            return np.empty(block) if dare else None, None, None
        buf = np.empty(max(1, n))  # DARE's noise is dead before the trim writes here
        return buf[:block] if dare else None, buf, np.empty(min(n, _BLOCK), dtype=bool)

    # the trim's two float64 rows and bool block, DARE's noise block and its
    # keep mask, or the truncation's SVD factors, their copies and product
    task_map(stage, n_tasks, scratch, most(8 * n + block if k is not None else 9 * block
                                           if dare else 48 * n if rank is not None else 0))
    if k is not None:
        out = _elect_mean(flat, cfg.alpha, most)
    else:
        out = _scaled_sum(flat, cfg.alpha, n_tasks if cfg.method == "uniform" else None, most)
    return out.reshape(shape[1:])


def dare_transform(delta, cfg: MergeConfig, stream=()) -> np.ndarray:
    """Zero each entry with probability dare_p, rescale survivors by 1/(1-p).

    The mask is drawn from (cfg.seed, *stream); `stream` (non-negative
    ints) lets library-level merges give every (task, layer) its own
    reproducible mask.
    """
    if any(word < 0 for word in stream):
        raise ValueError(f"stream words must be ≥ 0, got {tuple(stream)}")
    delta = np.array(delta, dtype=np.float64, order="C")
    if delta.ndim != 2:
        raise ShapeMismatchError(f"delta is not a matrix (ndim={delta.ndim})")
    _dare(delta.reshape(-1), cfg, stream, np.empty(max(1, min(delta.size, _BLOCK))))
    return delta


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
    dare-ta and dare-ties first drop each Δ_i as dare_transform does, on
    the stream (i, salt); `salt` (≥ 0, derived from the layer id by
    merge_library) keys the masks so no two layers reuse a stream.  The
    inputs are copied into a new stack, never written.  The cp method
    fits the factored deltas of a library, so it runs through
    merge_library only.
    """
    if cfg.method == "cp":
        raise ValueError(f"method {cfg.method!r} merges factored deltas: use merge_library")
    if salt < 0:
        raise ValueError(f"salt must be ≥ 0, got {salt}")
    deltas = _as_matrices(deltas)
    return _merge_layer(cfg, salt, (len(deltas), *deltas[0].shape),
                        lambda i, out: np.copyto(out, deltas[i]))


@single_threaded()  # cp_merge's product too (blas)
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
            # the stack is freed when this returns, before the next layer's is filled
            merged[layer_id] = _merge_layer(cfg, layer_salt(layer_id),
                                            (len(layer), layer[0].d_in, layer[0].d_out),
                                            lambda i, out: layer[i].materialize(out=out))
    return merged
