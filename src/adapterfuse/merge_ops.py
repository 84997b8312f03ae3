"""Layer-wise merge operators over task delta matrices.

Every merge takes the full list of per-task deltas for one layer plus
a MergeConfig and returns a single merged delta.  Stochastic operators
(the DARE family) draw from a stream derived from (seed, task index,
layer salt), so a layer's merge does not depend on which layers were
merged before it.

The dense methods merge a layer in row panels (_PANEL), in two passes
(_DenseMerge): no (N, d_in, d_out) stack is made, and no sums the size
of the layer.  A layer's merge holds its float64 output, DARE's
keep-bits (one bit per entry and task) and the scratch of at most
_IN_FLIGHT workers (blas.task_map), whatever N and the core count.
The first pass, for DARE and TIES, takes one task per job: DARE draws
its noise panel by panel from the (seed, task, layer) stream, which
reproduces one draw over the row, and keeps the keep-bits; TIES fills
each panel (merge_layer materializes its delta's rows there;
merge_deltas copies its inputs, so callers' arrays are never written),
checks it is finite and collects the magnitudes of its nonzero
survivors, whose k-th largest is the task's threshold.  The second
pass takes one panel per job: each task in order is refilled, dropped
by its keep-bits, trimmed at its threshold (or truncated by TSV, whose
one panel is the whole layer) and added into the panel's sums, the
total for every method and for TIES also the sums and counts of the
positive and of the negative survivors, which then become the panel's
output: alpha × the total (÷ N for uniform), or for TIES alpha × the
mean of the survivors whose sign agrees with the total's.  Both passes
take one task's row of a panel at a time, and every sum adds the tasks
in task order from +0.0.  A layer of one panel runs both passes inline,
with no hand-off to a worker.  Every method returns the same bytes
whatever the number of workers or cores, and the same as the list-based
operators it replaced (tests/conftest.py keeps those as oracles) on
every dense-stored layer and every factored one of one panel, but one
case: on a one-entry layer of 8 or more tasks their sums over the stack
added the TIES survivors pairwise, which can differ from task order in
the last bits.  The product of a panel's rows may differ in its last
bits from those rows of the whole product.
merge_deltas (a list of matrices) and merge_layer (one layer of an
AdapterLibrary) are the two entries; each runs the method that
cfg.method names.  merge_library merges every layer through
merge_layer, and a caller that handles each merged layer before it
merges the next (as `adapterfuse merge` does) holds one layer's result
at a time.
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


# Entries per row panel: a layer is merged in panels of whole rows (one
# row where a row holds more), of about _PANEL entries, so that a panel
# and its scratch stay in a core's L2 cache, or in _MOST_PANELS panels
# where that makes them larger.  A layer of at most one panel is merged
# inline.  Every numpy call on a panel hands the GIL over, and on
# a 2-core VM the ties merge of a 4096², N = 16 layer took 3.2 s in panels
# of 2^15 entries and 2.4 s in 128 panels of 2^17, where each worker's
# scratch is about 4% of the output.
_PANEL = 1 << 15
_MOST_PANELS = 128
# Workers on one layer's merge.  A TIES task in its first pass holds the
# magnitudes of its nonzero entries, a layer's worth at most, so every
# further worker adds up to a layer to the peak; on a 2-core VM two took
# the dare-ties merge of 8 dense-stored 512² deltas from 29-34 ms to 24-33.
_IN_FLIGHT = 2


def _panel_rows(d_in, d_out) -> int:
    """Rows per panel of a d_in × d_out layer (d_in for one panel)."""
    n = d_in * d_out
    return d_in if n <= _PANEL else max(1, max(_PANEL, n // _MOST_PANELS) // d_out)


class _NonFinite(ValueError):
    """A task's delta, or its DARE rescale, has a non-finite entry."""

    def __init__(self, task):
        super().__init__(f"delta {task} has non-finite entries")
        self.task = task


def _require_finite(row, task) -> None:
    """Raise _NonFinite for task if its row has a non-finite entry."""
    if not all_finite(row):
        raise _NonFinite(task)


def _nonzero_magnitudes(row, flags, out) -> int:
    """Write the magnitudes of row's nonzero entries, in order, to the
    start of out and return their count; flags (bool) is scratch."""
    flags = np.not_equal(row, 0.0, out=flags[: len(row)])
    count = np.count_nonzero(flags)
    dst = out[:count]
    if count == len(row):  # compress over an all-true mask is a slow copy
        np.abs(row, out=dst)
    else:
        np.abs(row.compress(flags, out=dst), out=dst)
    return count


def _fold_ties(row, sums, flags, tmp, zeros) -> None:
    """Add a task's row in place into the TIES sums of its entries: the
    total, the sums of the positive and of the negative entries, and the
    counts of each.

    flags (bool), tmp (float64) and zeros (all zero) are of row's shape;
    max and min against an array of zeros run twice as fast as against
    the scalar.  Each adds a zero in place of the other sign's entries,
    which leaves a nonzero sum as it is and a zero one +0.0.
    """
    total, pos, neg, n_pos, n_neg = sums
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
    # ANDs with all-ones or zero masks pick the mean by its bits, with no
    # branch per entry: a product by 0 would turn a mean that overflowed
    # to inf into nan
    np.greater_equal(total, 0.0, out=flags)
    mask, pos, neg = (a.view(np.int64) for a in (total, pos, neg))
    np.negative(flags.view(np.int8), out=mask)
    pos &= mask
    neg &= np.invert(mask, out=mask)
    np.bitwise_or(pos, neg, out=mask)


class _DenseMerge:
    """One layer of `shape` (tasks, d_in, d_out) merged by cfg.method in
    row panels, one task's row of a panel at a time; fill(i, rows, out)
    writes rows `rows` (a slice) of task i's delta into the float64
    matrix out.  See the module docstring."""

    def __init__(self, cfg, salt, shape, fill):
        self.cfg, self.salt, self.fill = cfg, salt, fill
        self.n_tasks, d_in, self.d_out = shape
        self.n = d_in * self.d_out
        self.dare = cfg.method.startswith("dare-") and cfg.dare_p > 0.0
        self.k = math.ceil(cfg.k_density * self.n) if cfg.method in ("ties", "dare-ties") else None
        self.rank = math.ceil(cfg.k_density * min(shape[1:])) if cfg.method == "tsv" else None
        # a truncation needs the whole matrix, so TSV takes the layer as one panel
        rows = d_in if self.rank is not None else _panel_rows(d_in, self.d_out)
        self.panels = [(r0, min(r0 + rows, d_in)) for r0 in range(0, d_in, max(1, rows))] or [(0, 0)]
        self.width = (self.panels[0][1] - self.panels[0][0]) * self.d_out  # the widest panel
        self.out = np.zeros(self.n)
        # the first pass's keep-bits, one bit per entry and task, and TIES cuts
        self.bits = (np.empty((self.n_tasks, len(self.panels), -(-self.width // 8)), np.uint8)
                     if self.dare else None)
        self.cuts = [None] * self.n_tasks if self.k is not None else None

    def run(self) -> np.ndarray:
        most = 1 if len(self.panels) == 1 else _IN_FLIGHT  # one panel runs inline
        if self.dare or self.k is not None:
            task_map(self.plan, self.n_tasks, self.plan_scratch, most)
        failed = {}
        task_map(lambda b, *scratch: self.merge_panel(b, failed, *scratch), len(self.panels),
                 self.panel_scratch, most)
        if failed:  # each panel stops at its first failing task; name the lowest
            raise min(failed.values(), key=lambda exc: exc.task)
        return self.out

    def filled(self, i, b, row, check) -> np.ndarray:
        """row with task i's entries in panel b; finite-checked when `check`."""
        r0, r1 = self.panels[b]
        self.fill(i, slice(r0, r1), row.reshape(r1 - r0, self.d_out))
        if check:
            _require_finite(row, i)  # s·A·Bᵀ can overflow
        return row

    def keep(self, i, b, m) -> np.ndarray:
        """DARE's survivors (bool) among task i's m entries in panel b,
        from the first pass's keep-bits."""
        return np.unpackbits(self.bits[i, b], count=m).view(bool)

    def prepare(self, i, b, row, check) -> None:
        """Fill row with task i's entries in panel b and drop them by DARE;
        finite-check them when `check`."""
        self.filled(i, b, row, check)
        if self.dare:
            # a finite entry times 0 is a zero of either sign; no zero's sign
            # reaches the output, since every sum starts from +0.0
            np.multiply(row, self.keep(i, b, len(row)), out=row)
            np.divide(row, 1.0 - self.cfg.dare_p, out=row)
            if check:
                _require_finite(row, i)  # dividing by 1 − p can overflow

    def plan_scratch(self):
        """A worker's scratch for plan; TIES without DARE keeps its
        magnitudes here, a layer's worth, for one task after another."""
        part = np.empty(self.width) if self.k is not None else None  # DARE alone fills none
        mags = np.empty(self.n) if self.k is not None and not self.dare else None
        return part, np.empty(self.width), np.empty(self.width, dtype=bool), mags

    def plan(self, i, part, tmp, flags, mags) -> None:
        """The first pass, over task i's panels in order: DARE's keep-bits,
        drawn panel by panel from the (seed, task, layer) stream, which
        reproduces one draw over the row; then for TIES the panels, each
        finite-checked, and the magnitudes of their nonzero survivors,
        which fix the task's cut."""
        p, kept = self.cfg.dare_p, self.n
        if self.dare:
            rng, kept = np.random.default_rng([self.cfg.seed, i, self.salt]), 0
            for b, (r0, r1) in enumerate(self.panels):
                m = (r1 - r0) * self.d_out
                keep = np.greater_equal(rng.random(out=tmp[:m]), p, out=flags[:m])
                kept += np.count_nonzero(keep)
                self.bits[i, b, : -(-m // 8)] = np.packbits(keep)
        if self.k is None:
            return
        if self.dare:
            mags = np.empty(kept)  # DARE's survivors bound the nonzeros
        nnz = 0
        for b, (r0, r1) in enumerate(self.panels):
            row = self.filled(i, b, part[: (r1 - r0) * self.d_out], check=True)
            if self.dare:  # only the survivors, rescaled
                keep = self.keep(i, b, len(row))
                row = row.compress(keep, out=tmp[: np.count_nonzero(keep)])
                np.divide(row, 1.0 - p, out=row)
                _require_finite(row, i)  # dividing by 1 − p can overflow
            nnz += _nonzero_magnitudes(row, flags, mags[nnz:])
        self.cuts[i] = self.cut(i, mags[:nnz], part, tmp)

    def cut(self, i, mags, part, tmp):
        """Task i's TIES trim, as (threshold, index of the first threshold
        tie it drops), from the magnitudes of its nonzero entries, which
        this reorders; None when it has at most k nonzeros and keeps them
        all.

        The threshold is the k-th largest magnitude, selected among the
        nonzero ones only: DARE leaves about p of a row zeros, which would
        take memory and slow the selection down.  Ties keep the lowest
        indices: only a task with more ties than the k leave room for is
        prepared again, panel by panel into part (tmp is scratch), for the
        index of its first dropped tie."""
        nnz, k = len(mags), self.k
        if nnz <= k:
            return None
        mags.partition(nnz - k)
        thr = mags[nnz - k]
        if mags[: nnz - k].max() < thr:  # no tie with the threshold beyond the k
            return thr, self.n
        kept = k - np.count_nonzero(mags[nnz - k :] > thr)  # the ties it keeps
        for b, (r0, r1) in enumerate(self.panels):
            row = part[: (r1 - r0) * self.d_out]
            self.prepare(i, b, row, check=False)
            ties = (np.abs(row, out=tmp[: len(row)]) == thr).nonzero()[0]
            if kept < len(ties):
                return thr, r0 * self.d_out + int(ties[kept])
            kept -= len(ties)
        raise AssertionError("a threshold tie past the kept ones was counted but not found")

    def trim(self, i, j0, row, mag, flag) -> None:
        """TIES trim in place of row, task i's entries from the layer's entry
        j0 on, at the task's cut: its entries below the threshold, and its
        threshold ties from the first dropped one on, become zeros of either
        sign.  mag (float64) and flag (bool) are scratch of row's shape."""
        if self.cuts[i] is None:
            return
        thr, at = self.cuts[i]
        np.multiply(row, np.greater_equal(np.abs(row, out=mag), thr, out=flag), out=row)
        at = max(at - j0, 0)
        if at < len(row):
            row[at:][mag[at:] == thr] = 0.0

    def panel_scratch(self):
        """A worker's scratch for merge_panel: a task's row, and for TIES the
        trim's scratch of its shape and the sums but the total, which is
        the output."""
        w = self.width
        if self.k is None:
            return np.empty(w), None, None, None
        count_type = np.min_scalar_type(self.n_tasks)  # the narrowest type that holds N
        sums = (np.empty(w), np.empty(w), np.empty(w, count_type), np.empty(w, count_type))
        return np.empty(w), np.empty(w), np.empty(w, dtype=bool), (sums, np.zeros(w))

    def merge_panel(self, b, failed, row, tmp, flags, ties) -> None:
        """The second pass, over panel b: each task in order refilled,
        dropped, trimmed or truncated and added into the panel's sums,
        which then become its output.  TIES checked its tasks in the first
        pass, the other methods check them here: the first task found
        non-finite goes to failed[b], and the panel stops there."""
        r0, r1 = self.panels[b]
        j0, m = r0 * self.d_out, (r1 - r0) * self.d_out
        row = row[:m]
        total = self.out[j0 : j0 + m]  # from +0.0, as sum() starts: −0.0 becomes +0.0
        if self.k is not None:
            tmp, flags, zeros = tmp[:m], flags[:m], ties[1][:m]
            sums = (total, *(s[:m] for s in ties[0]))
            for s in sums[1:]:
                s.fill(0)
        try:
            for i in range(self.n_tasks):
                self.prepare(i, b, row, check=self.k is None)
                if self.k is not None:
                    self.trim(i, j0, row, tmp, flags)
                    _fold_ties(row, sums, flags, tmp, zeros)
                    continue
                if self.rank is not None:
                    matrix = row.reshape(r1 - r0, self.d_out)
                    np.copyto(matrix, truncated_approx(matrix, self.rank))
                total += row
        except _NonFinite as exc:
            failed[b] = exc
            return
        if self.k is not None:
            _elect(sums, self.cfg.alpha, flags)
            return
        total *= self.cfg.alpha
        if self.cfg.method == "uniform":
            total /= self.n_tasks


def _merge_dense(cfg, salt, shape, fill) -> np.ndarray:
    """Merge one layer of `shape` (tasks, d_in, d_out) by cfg.method (_DenseMerge)."""
    return _DenseMerge(cfg, salt, shape, fill).run().reshape(shape[1:])


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
                        lambda i, rows, out: np.copyto(out, deltas[i][rows]))


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
                        lambda i, rows, out: layer[i].materialize(out=out, rows=rows))


def merge_library(lib, cfg: MergeConfig) -> dict:
    """Merge every layer of an adapter library (merge_layer).

    Returns {layer_id: merged delta} in schema order.
    """
    lib.validate()
    return {layer_id: merge_layer(lib, layer_id, cfg) for layer_id in lib.layers}
