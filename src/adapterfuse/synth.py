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
from .containers import read_framed, require_keys, write_framed
from .errors import ContainerFormatError, ShapeMismatchError
from .tensor_core import _difference_norm, frobenius_norm


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
        if self.seed < 0:
            raise ValueError(f"seed must be ≥ 0, got {self.seed}")
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
        return kvconfig.dump(self)

    @classmethod
    def from_kv(cls, text: str) -> "PlantedSpec":
        return kvconfig.build(cls, text, "planted spec")


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

    if spec.noise_sigma > 0.0:
        eye = np.eye(spec.d_out)  # the one B of every noisy delta
        eye.flags.writeable = False
    deltas = {}
    layer_sums = {}
    planted = {}
    for li, layer in enumerate(layers):
        # frames and noise come from separate substreams so the planted
        # signal does not move when noise_sigma changes
        rng = np.random.default_rng([spec.seed, li, 0])
        b = _ortho_frame(rng, spec.d_in, total)
        c = _ortho_frame(rng, spec.d_out, total)
        planted[layer] = PlantedLayer(b=b, c=c, loadings=loadings.copy())
        layer_sums[layer] = (b * loadings.sum(axis=0)) @ c.T
        for i, task in enumerate(tasks):
            active = np.flatnonzero(loadings[i])
            if spec.noise_sigma > 0.0:
                signal = (b[:, active] * loadings[i, active]) @ c[:, active].T
                g = np.random.default_rng([spec.seed, li, 1 + i]).standard_normal(
                    (spec.d_in, spec.d_out)
                )
                gnorm = frobenius_norm(g)
                scale = (
                    spec.noise_sigma * frobenius_norm(signal) / gnorm if gnorm else 0.0
                )
                deltas[(task, layer)] = AdapterDelta(
                    layer_id=layer,
                    a=signal + scale * g,
                    b=eye,  # dense payload: noise is full-rank
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


# gen_overlap_library's overlaps: of the two tasks' loadings, and of the
# row and column factors at the first and the last layer
_RHO_A = 0.5
_RHO_B = (0.9, 0.1)
_RHO_C = (0.8, 0.15)


def gen_overlap_library(
    n_layers: int = 10,
    d_in: int = 24,
    d_out: int = 24,
    seed: int = 0,
) -> AdapterLibrary:
    """Two-task library whose cross-task factor overlap shrinks per layer.

    Each layer is an exact two-component model; the row/column factor
    inner products fall linearly across layers over _RHO_B and _RHO_C, so
    any faithful interference profile decreases strictly with depth.

    The two components carry distinct weights (1 and 0.6): with equal
    weights the construction is swap-symmetric and the svd-based ALS
    start sits exactly on a stationary point of that symmetry, never
    reaching the planted pair.  Normalized factor inner products (what
    cp_sti measures) are weight-independent.
    """
    if n_layers < 2:
        raise ValueError(f"n_layers must be ≥ 2, got {n_layers}")
    if seed < 0:
        raise ValueError(f"seed must be ≥ 0, got {seed}")
    rng = np.random.default_rng(seed)
    rho_b = np.linspace(*_RHO_B, n_layers)
    rho_c = np.linspace(*_RHO_C, n_layers)
    a_rows = np.array([[1.0, _RHO_A], [_RHO_A, 1.0]]) / math.sqrt(1.0 + _RHO_A**2)
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
    diff = _difference_norm(merged, truth)
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


# --- ground-truth sidecar (.truth): exact pre-noise per-layer sums ----------

_TRUTH_DTYPE = "<f8"  # oracle material stays full precision


def save_truth(layer_sums: dict, path) -> None:
    header = {"format": "truth", "version": 1, "layers": [str(l) for l in layer_sums]}
    write_framed(path, header, _TRUTH_DTYPE, layer_sums.values())


def load_truth(path) -> dict:
    """{layer: exact planted sum} as read-only float64 arrays, views of the
    file's mapping unless it predates header padding (read_framed)."""
    header, arrays = read_framed(path, "truth", _TRUTH_DTYPE)
    (layers,) = require_keys(header, {"layers": list}, path)
    if len(layers) != len(arrays):
        raise ContainerFormatError(
            f"{path}: header lists {len(layers)} layers but {len(arrays)} shapes"
        )
    out = {}
    for layer, arr in zip(layers, arrays):
        if str(layer) in out:
            raise ContainerFormatError(f"{path}: header repeats layer {layer!r}")
        out[str(layer)] = arr
    return out
