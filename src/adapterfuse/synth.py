"""Synthetic adapter libraries with known ground truth.

gen_planted_library draws one orthonormal frame per layer and splits its
columns into shared components (loaded by every task) and per-task
specific components, so the stacked tensor has a known exact CP rank and
the exact merged sum is available for recovery scoring.

gen_overlap_library plants two tasks whose factor overlap shrinks with
layer depth; interference profiles over it must come out monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kvconfig
from .adapter_io import AdapterDelta, AdapterLibrary
from .containers import read_array, read_framed, require_end, require_keys, write_framed
from .errors import ContainerFormatError, ShapeMismatchError
from .tensor_core import frobenius_norm

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class PlantedSpec:
    """Recipe for a planted library.

    lambda_shared / lambda_specific default to descending integers
    (rank, rank-1, ..., 1) when omitted.  noise_sigma is relative: the
    added Gaussian is scaled to noise_sigma × the signal Frobenius norm.
    """

    n_tasks: int
    d_in: int
    d_out: int
    rank_shared: int
    rank_specific: int
    lambda_shared: tuple = None
    lambda_specific: tuple = None
    noise_sigma: float = 0.0
    seed: int = 0
    n_layers: int = 1

    def __post_init__(self):
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be ≥ 1, got {self.n_tasks}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be ≥ 1, got {self.n_layers}")
        if self.rank_shared < 0 or self.rank_specific < 0:
            raise ValueError("ranks must be ≥ 0")
        if self.rank_shared == 0 and self.rank_specific == 0:
            raise ValueError("rank_shared and rank_specific cannot both be 0")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be ≥ 0, got {self.noise_sigma}")
        for name, rank in (
            ("lambda_shared", self.rank_shared),
            ("lambda_specific", self.rank_specific),
        ):
            vals = getattr(self, name)
            if vals is None:
                vals = tuple(float(x) for x in range(rank, 0, -1))
            else:
                vals = tuple(float(x) for x in vals)
            if len(vals) != rank:
                raise ValueError(f"{name} must have {rank} entries, got {len(vals)}")
            if not all(math.isfinite(x) for x in vals):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, vals)
        total = self.total_rank
        if total > min(self.d_in, self.d_out):
            raise ValueError(
                f"total planted rank {total} exceeds min(d_in, d_out) = "
                f"{min(self.d_in, self.d_out)}"
            )

    @property
    def total_rank(self) -> int:
        return self.rank_shared + self.n_tasks * self.rank_specific

    def to_kv(self) -> str:
        return kvconfig.dumps(
            {
                "n_tasks": str(self.n_tasks),
                "d_in": str(self.d_in),
                "d_out": str(self.d_out),
                "rank_shared": str(self.rank_shared),
                "rank_specific": str(self.rank_specific),
                "lambda_shared": ",".join(repr(x) for x in self.lambda_shared),
                "lambda_specific": ",".join(repr(x) for x in self.lambda_specific),
                "noise_sigma": repr(float(self.noise_sigma)),
                "seed": str(self.seed),
                "n_layers": str(self.n_layers),
            }
        )

    @classmethod
    def from_kv(cls, text: str) -> "PlantedSpec":
        raw = kvconfig.loads(text)
        known = {
            "n_tasks": int,
            "d_in": int,
            "d_out": int,
            "rank_shared": int,
            "rank_specific": int,
            "lambda_shared": kvconfig.as_floats,
            "lambda_specific": kvconfig.as_floats,
            "noise_sigma": float,
            "seed": int,
            "n_layers": int,
        }
        unknown = set(raw) - set(known)
        if unknown:
            raise ValueError(f"unknown planted spec keys: {sorted(unknown)}")
        return cls(**{k: known[k](v) for k, v in raw.items()})


@dataclass(frozen=True)
class PlantedLayer:
    """Exact factors for one layer: Δ_i = b · diag(loadings[i]) · cᵀ."""

    b: np.ndarray  # d_in × total, orthonormal columns
    c: np.ndarray  # d_out × total, orthonormal columns
    loadings: np.ndarray  # n_tasks × total


@dataclass(frozen=True)
class GroundTruth:
    layer_sums: dict  # layer_id -> exact pre-noise Σ_i Δ_i
    planted: dict = field(default_factory=dict)  # layer_id -> PlantedLayer
    total_rank: int = 0


def _ortho_frame(rng, dim, cols):
    q, r = np.linalg.qr(rng.standard_normal((dim, cols)))
    return q * np.where(np.diag(r) >= 0, 1.0, -1.0)  # fix QR's sign freedom


def _layer_ids(n_layers):
    width = max(2, len(str(n_layers - 1)))
    return [f"{j:0{width}d}" for j in range(n_layers)]


def gen_planted_library(spec: PlantedSpec):
    """Build (AdapterLibrary, GroundTruth) from the spec, deterministically.

    Shared and all per-task specific columns are jointly orthonormal, so
    the stacked layer tensor has exact CP rank ≤ spec.total_rank and the
    planted model is unique up to permutation and scaling.
    """
    root = spec.seed & _SEED_MASK
    n, total = spec.n_tasks, spec.total_rank
    tasks = [str(i) for i in range(n)]
    layers = _layer_ids(spec.n_layers)

    loadings = np.zeros((n, total))
    loadings[:, : spec.rank_shared] = np.asarray(spec.lambda_shared)
    for i in range(n):
        start = spec.rank_shared + i * spec.rank_specific
        loadings[i, start : start + spec.rank_specific] = np.asarray(
            spec.lambda_specific
        )

    deltas = {}
    layer_sums = {}
    planted = {}
    for li, layer in enumerate(layers):
        # frames and noise come from separate substreams so the planted
        # signal does not move when noise_sigma changes
        rng = np.random.default_rng([root, li, 0])
        b = _ortho_frame(rng, spec.d_in, total)
        c = _ortho_frame(rng, spec.d_out, total)
        planted[layer] = PlantedLayer(b=b, c=c, loadings=loadings.copy())
        layer_sums[layer] = (b * loadings.sum(axis=0)) @ c.T
        for i, task in enumerate(tasks):
            active = np.flatnonzero(loadings[i])
            if spec.noise_sigma > 0.0:
                signal = (b[:, active] * loadings[i, active]) @ c[:, active].T
                g = np.random.default_rng([root, li, 1 + i]).standard_normal(
                    (spec.d_in, spec.d_out)
                )
                gnorm = frobenius_norm(g)
                scale = (
                    spec.noise_sigma * frobenius_norm(signal) / gnorm if gnorm else 0.0
                )
                deltas[(task, layer)] = AdapterDelta(
                    layer_id=layer,
                    a=signal + scale * g,
                    b=np.eye(spec.d_out),  # dense payload: noise is full-rank
                )
            else:
                deltas[(task, layer)] = AdapterDelta(
                    layer_id=layer,
                    a=b[:, active] * loadings[i, active],
                    b=c[:, active],
                )
    lib = AdapterLibrary(
        tasks=tuple(tasks),
        layers=tuple(layers),
        deltas=deltas,
        meta={"generator": "planted", "spec": spec.to_kv()},
    )
    return lib, GroundTruth(layer_sums=layer_sums, planted=planted, total_rank=total)


def gen_overlap_library(
    n_layers: int = 10,
    d_in: int = 24,
    d_out: int = 24,
    seed: int = 0,
    rho_a: float = 0.5,
    rho_b_range=(0.9, 0.1),
    rho_c_range=(0.8, 0.15),
) -> AdapterLibrary:
    """Two-task library whose cross-task factor overlap shrinks per layer.

    Each layer is an exact two-component model; the row/column factor
    inner products follow rho_b_range and rho_c_range across layers, so
    any faithful interference profile decreases strictly with depth.

    The two components carry distinct weights (1 and 0.6): with equal
    weights the construction is swap-symmetric and the svd-based ALS
    start sits exactly on a stationary point of that symmetry, never
    reaching the planted pair.  Normalized factor inner products (what
    cp_sti measures) are weight-independent.
    """
    if n_layers < 2:
        raise ValueError(f"n_layers must be ≥ 2, got {n_layers}")
    rng = np.random.default_rng(seed & _SEED_MASK)
    rho_b = np.linspace(rho_b_range[0], rho_b_range[1], n_layers)
    rho_c = np.linspace(rho_c_range[0], rho_c_range[1], n_layers)
    a_rows = np.array([[1.0, rho_a], [rho_a, 1.0]]) / math.sqrt(1.0 + rho_a**2)
    a_rows = a_rows * np.array([1.0, 0.6])

    deltas = {}
    layers = _layer_ids(n_layers)
    for idx, layer in enumerate(layers):
        qb = _ortho_frame(rng, d_in, 2)
        qc = _ortho_frame(rng, d_out, 2)
        b = np.column_stack(
            [qb[:, 0], rho_b[idx] * qb[:, 0] + math.sqrt(1 - rho_b[idx] ** 2) * qb[:, 1]]
        )
        c = np.column_stack(
            [qc[:, 0], rho_c[idx] * qc[:, 0] + math.sqrt(1 - rho_c[idx] ** 2) * qc[:, 1]]
        )
        for i, task in enumerate(("0", "1")):
            deltas[(task, layer)] = AdapterDelta(layer_id=layer, a=b * a_rows[i], b=c)
    return AdapterLibrary(tasks=("0", "1"), layers=tuple(layers), deltas=deltas)


def recovery_error(merged, truth) -> float:
    """‖merged − truth‖_F / ‖truth‖_F; +inf when truth is zero but merged isn't."""
    merged = np.asarray(merged, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if merged.shape != truth.shape:
        raise ShapeMismatchError(
            f"merged has shape {merged.shape}, truth has shape {truth.shape}"
        )
    denom = frobenius_norm(truth)
    diff = frobenius_norm(merged - truth)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


# --- ground-truth sidecar (.truth): exact pre-noise per-layer sums ----------

_TRUTH_DTYPE = "<f8"  # oracle material stays full precision


def save_truth(layer_sums: dict, path) -> None:
    layers = [str(l) for l in layer_sums]
    mats = [np.ascontiguousarray(layer_sums[l], dtype=_TRUTH_DTYPE) for l in layers]
    header = {
        "format": "truth",
        "version": 1,
        "layers": layers,
        "shapes": [list(m.shape) for m in mats],
        "dtype": _TRUTH_DTYPE,
    }
    write_framed(path, header, mats)


def load_truth(path) -> dict:
    header, payload = read_framed(path, "truth", _TRUTH_DTYPE)
    _, layers, shapes = require_keys(
        header, {"dtype": object, "layers": list, "shapes": list}, path
    )
    if len(layers) != len(shapes):
        raise ContainerFormatError(
            f"{path}: header lists {len(layers)} layers but {len(shapes)} shapes"
        )
    out = {}
    offset = 0
    for layer, shape in zip(layers, shapes):
        arr = read_array(payload, _TRUTH_DTYPE, shape, offset, f"layer {layer!r}", path)
        out[str(layer)] = arr.astype(np.float64)
        offset += arr.nbytes
    require_end(payload, offset, path)
    return out
