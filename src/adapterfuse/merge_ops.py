"""Layer-wise merge operators over task delta matrices.

Every operator takes the full list of per-task deltas for one layer plus
a MergeConfig and returns a single merged delta.  Stochastic operators
(the DARE family) draw from a stream derived from (seed, task index,
layer salt), so a layer's merge does not depend on which layers were
merged before it.
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


def _check_deltas(deltas) -> list:
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
        if not np.all(np.isfinite(d)):
            raise ValueError(f"delta {i} has non-finite entries")
    return deltas


def uniform_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · (Σ Δ_i) / N."""
    deltas = _check_deltas(deltas)
    return cfg.alpha * sum(deltas) / len(deltas)


def task_arithmetic(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · Σ Δ_i, no averaging."""
    deltas = _check_deltas(deltas)
    return cfg.alpha * sum(deltas)


def ties_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """Trim, elect signs, average the agreeing survivors.

    Per task the top ceil(k_density · n_entries) entries by |magnitude|
    survive (magnitude ties keep the lower linear index).  Survivors are
    found by per-task selection rather than a sort: every entry above the
    k-th largest magnitude, then the lowest-index entries equal to it.
    Each entry's sign is elected from the sign of the summed survivors
    (an exact zero elects +); the output is alpha times the mean over
    tasks whose surviving entry is nonzero and matches the elected sign.
    """
    stack = np.stack(_check_deltas(deltas), axis=0)
    n_tasks = stack.shape[0]
    flat = stack.reshape(n_tasks, -1)
    n = flat.shape[1]
    k = math.ceil(cfg.k_density * n)

    # one row at a time: whole-matrix masks would raise peak memory;
    # k = 0 only for empty deltas, which have nothing to select
    trimmed = np.zeros_like(flat)
    for row, out in zip(flat, trimmed) if k > 0 else ():
        mag = np.abs(row)
        thr = np.partition(mag, n - k)[n - k]  # k-th largest magnitude
        keep = mag > thr
        room = k - np.count_nonzero(keep)
        keep[np.flatnonzero(mag == thr)[:room]] = True
        out[keep] = row[keep]

    elected = np.where(trimmed.sum(axis=0) >= 0.0, 1.0, -1.0)
    agrees = (np.sign(trimmed) == elected) & (trimmed != 0.0)
    counts = agrees.sum(axis=0)
    total = np.where(agrees, trimmed, 0.0).sum(axis=0)
    merged = np.where(counts > 0, total / np.maximum(counts, 1), 0.0)
    return (cfg.alpha * merged).reshape(stack.shape[1:])


def dare_transform(delta, cfg: MergeConfig, stream=()) -> np.ndarray:
    """Zero each entry with probability dare_p, rescale survivors by 1/(1-p).

    The mask is drawn from (cfg.seed, *stream); `stream` lets library-level
    merges give every (task, layer) its own reproducible mask.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 2:
        raise ShapeMismatchError(f"delta is not a matrix (ndim={delta.ndim})")
    p = cfg.dare_p
    if p == 0.0:
        return delta.copy()
    rng = np.random.default_rng([cfg.seed & _SEED_MASK, *(s & _SEED_MASK for s in stream)])
    keep = rng.random(delta.shape) >= p
    return np.where(keep, delta / (1.0 - p), 0.0)


def tsv_merge(deltas, cfg: MergeConfig) -> np.ndarray:
    """alpha · Σ_i rank-k truncation of Δ_i, k = ceil(k_density · min dim)."""
    deltas = _check_deltas(deltas)
    k = math.ceil(cfg.k_density * min(deltas[0].shape))
    return cfg.alpha * sum(truncated_approx(d, k) for d in deltas)


def layer_salt(layer_id: str) -> int:
    return zlib.crc32(str(layer_id).encode("utf-8"))


# The dense methods; the DARE pair drops entries first (merge_deltas).
_DENSE_OPS = {
    "uniform": uniform_merge,
    "task-arithmetic": task_arithmetic,
    "ties": ties_merge,
    "tsv": tsv_merge,
    "dare-ties": ties_merge,
    "dare-ta": task_arithmetic,
}


def merge_deltas(deltas, cfg: MergeConfig, salt: int = 0) -> np.ndarray:
    """Merge one layer's dense deltas with the configured operator.

    `salt` (derived from the layer id by merge_library) keys the DARE
    masks so no two layers reuse a stream.  The cp method fits the
    factored deltas of a library, so it runs through merge_library only.
    """
    op = _DENSE_OPS.get(cfg.method)
    if op is None:
        raise ValueError(f"method {cfg.method!r} merges factored deltas: use merge_library")
    if cfg.method.startswith("dare-"):
        deltas = [
            dare_transform(d, cfg, stream=(i, salt))
            for i, d in enumerate(_check_deltas(deltas))
        ]
    return op(deltas, cfg)


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
            ds = [d.materialize() for d in layer]
            merged[layer_id] = merge_deltas(ds, cfg, salt=layer_salt(layer_id))
    return merged
