"""K-means over precomputed instruction embeddings, plus manifest splitting.

Training runs on a seeded subsample (default 20% of the points), then the
fitted centroids label everything.  All randomness flows through one
seeded generator, so fit → partition is reproducible end to end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .containers import atomic_write, read_framed, require_keys, write_framed
from .errors import ContainerFormatError
from .tensor_core import all_finite

DISTANCES = ("euclidean", "cosine")


@dataclass(frozen=True)
class EmbeddingSet:
    ids: tuple
    vectors: np.ndarray  # n × dim float32

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        v = np.asarray(self.vectors, dtype=np.float32)
        if v.ndim != 2:
            raise ValueError(f"vectors must be n×dim, got shape {v.shape}")
        object.__setattr__(self, "vectors", v)
        if len(self.ids) != v.shape[0]:
            raise ValueError(f"{len(self.ids)} ids but {v.shape[0]} vectors")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("embedding ids are not unique")
        if not all_finite(v):
            raise ValueError("embedding vectors have non-finite entries")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class ClusterModel:
    K: int
    centroids: np.ndarray  # K × dim
    inertia: float
    iterations_run: int
    seed: int
    distance: str = "euclidean"


# Entries per block of rows whose norms are taken at once: the squares
# the norm makes are a block, not an n × dim array.  A row's norm sums its
# own entries only, so the blocks give the bits of one whole-array norm.
_NORM_BLOCK = 1 << 16


def _prepare(vectors, distance):
    """The rows as a new float64 array, unit-normalized in place for cosine."""
    x = np.array(vectors, dtype=np.float64)
    if distance == "cosine":
        rows = max(1, _NORM_BLOCK // max(1, x.shape[1]))
        for i in range(0, len(x), rows):
            block = x[i : i + rows]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            block /= np.where(norms > 0, norms, 1.0)
    return x


def _sq_dists(x, centroids):
    # n × K matrix of squared Euclidean distances; the expanded form can
    # round below zero for near-coincident points, so clamp at 0.  Doubling
    # the n × K product, not x, is exact and takes no copy of x
    d2 = (
        np.einsum("ij,ij->i", x, x)[:, None]
        - 2.0 * (x @ centroids.T)
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans_fit(
    e: EmbeddingSet,
    K: int,
    sample_fraction: float = 0.2,
    seed: int = 0,
    distance: str = "euclidean",
    max_iters: int = 300,
) -> ClusterModel:
    """k-means++ then Lloyd, on a seeded subsample of the points.

    Stops at an assignment fixpoint or max_iters.  Empty clusters are
    reseeded to the point currently farthest from its centroid.  A Lloyd
    step lowers the inertia only in exact arithmetic: the expanded-form
    distances round (worst for points far from the origin), so a step can
    raise it slightly.  The reported inertia is over the training
    subsample, against the final centroids.
    """
    if not 1 <= K <= e.n:
        raise ValueError(f"K={K} out of range [1, {e.n}]")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0,1], got {sample_fraction}")
    if distance not in DISTANCES:
        raise ValueError(f"distance must be one of {DISTANCES}, got {distance!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be ≥ 1, got {max_iters}")
    if seed < 0:
        raise ValueError(f"seed must be ≥ 0, got {seed}")

    rng = np.random.default_rng(seed)
    m = max(K, min(e.n, math.ceil(sample_fraction * e.n)))
    # only the subsample is widened to float64
    x = _prepare(e.vectors[rng.choice(e.n, size=m, replace=False)], distance)

    # k-means++ seeding
    centroids = np.empty((K, x.shape[1]))
    centroids[0] = x[rng.integers(m)]
    d2 = _sq_dists(x, centroids[:1])[:, 0]
    for j in range(1, K):
        total = d2.sum()
        if total > 0:
            pick = rng.choice(m, p=d2 / total)
        else:
            pick = int(rng.integers(m))  # all points coincide with a centroid
        centroids[j] = x[pick]
        d2 = np.minimum(d2, _sq_dists(x, centroids[j : j + 1])[:, 0])

    labels = None
    for iterations in range(1, max_iters + 1):
        dists = _sq_dists(x, centroids)
        new_labels = np.argmin(dists, axis=1)  # ties fall to the lowest index
        point_d2 = dists[np.arange(m), new_labels]
        for j in range(K):
            mask = new_labels == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
            else:
                far = int(np.argmax(point_d2))
                centroids[j] = x[far]
                new_labels[far] = j
                point_d2[far] = 0.0
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels

    # inertia must match the final centroids (they moved after the last
    # assignment above): recompute once against them
    final_d2 = _sq_dists(x, centroids)
    inertia = float(np.min(final_d2, axis=1).sum())
    return ClusterModel(
        K=K,
        centroids=centroids,
        inertia=inertia,
        iterations_run=iterations,
        seed=seed,
        distance=distance,
    )


def assign_many(m: ClusterModel, vectors) -> np.ndarray:
    """Nearest centroid index of each row; ties break toward the lowest index."""
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise ValueError(f"vectors must be a 2-D array, got ndim={x.ndim}")
    if x.shape[1] != m.centroids.shape[1]:
        raise ValueError(
            f"vectors have dim {x.shape[1]}, model expects {m.centroids.shape[1]}"
        )
    return np.argmin(_sq_dists(_prepare(x, m.distance), m.centroids), axis=1)


def partition_manifest(manifest: dict, m: ClusterModel, e: EmbeddingSet) -> list:
    """Split manifest records into K disjoint groups by embedding cluster.

    Returns a list of K dicts (id → record) preserving manifest order;
    every manifest id must have an embedding.
    """
    index = {sid: i for i, sid in enumerate(e.ids)}
    missing = [sid for sid in manifest if sid not in index]
    if missing:
        raise ValueError(f"no embedding for manifest id(s): {missing[:5]}")
    ids = list(manifest)
    rows = np.array([index[sid] for sid in ids], dtype=np.intp)
    labels = assign_many(m, e.vectors[rows])  # float32 rows, widened once there
    parts: list = [{} for _ in range(m.K)]
    for sid, lab in zip(ids, labels):
        parts[int(lab)][sid] = manifest[sid]
    return parts


# --- file formats -----------------------------------------------------------

_EMB_DTYPE = "<f4"


def save_embeddings(e: EmbeddingSet, path) -> None:
    write_framed(path, {"format": "emb", "version": 1, "ids": list(e.ids)}, _EMB_DTYPE, [e.vectors])


def load_embeddings(path) -> EmbeddingSet:
    header, arrays = read_framed(path, "emb", _EMB_DTYPE)
    (ids,) = require_keys(header, {"ids": list}, path)
    try:
        (vectors,) = arrays  # a ValueError unless there is 1
        return EmbeddingSet(ids=tuple(ids), vectors=vectors)
    except ValueError as exc:
        raise ContainerFormatError(f"{path}: not an embedding set: {exc}") from None


def load_manifest(path) -> dict:
    """JSON-lines, one record per sample, keyed by its 'id' field."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: record is not a JSON object")
            if "id" not in rec:
                raise ValueError(f"{path}:{lineno}: record has no 'id' field")
            sid = str(rec["id"])
            if sid in out:
                raise ValueError(f"{path}:{lineno}: duplicate id {sid!r}")
            out[sid] = rec
    return out


def save_manifest(records: dict, path) -> None:
    lines = (json.dumps(rec, sort_keys=True) + "\n" for rec in records.values())
    atomic_write(path, (line.encode("utf-8") for line in lines))
