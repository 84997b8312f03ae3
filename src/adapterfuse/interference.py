"""Task interference scores.

Two diagnostics over one layer's task deltas:

* sti: concatenate every task's top-k singular triples and measure the
  entry-wise L1 norm of (UᵀU − I)·Σ·(VᵀV − I).  Cross-task overlap of
  singular subspaces shows up in the off-diagonal Gram blocks; disjoint
  subspaces score exactly zero.
* cp_sti: the CP analogue on an R-component model: L1 norm of the
  Hadamard product of the three R×R factor Gram deviations, computed on
  unit-normalized columns so it measures angles, not magnitudes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .blas import single_threaded
from .cp_decomposition import AlsOptions, CPFactors, cp_als_factored
from .errors import ShapeMismatchError
from .svd_kernel import svd


@dataclass(frozen=True)
class InterferenceReport:
    """Per-layer (layer_id, sti, cp_sti) rows plus the k/R they used."""

    per_layer: tuple
    k: int
    R: int

    def to_csv(self) -> str:
        lines = ["layer_id,sti,cp_sti"]
        for layer_id, s, c in self.per_layer:
            lines.append(f"{layer_id},{s!r},{c!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        rows = [("layer_id", "sti", "cp_sti")] + [
            (str(layer_id), repr(s), repr(c)) for layer_id, s, c in self.per_layer
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        return "\n".join(
            "  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
            for row in rows
        ) + "\n"

    def to_json(self) -> str:
        doc = {
            "k": self.k,
            "R": self.R,
            "layers": [
                {"layer_id": layer_id, "sti": s, "cp_sti": c}
                for layer_id, s, c in self.per_layer
            ],
        }
        return json.dumps(doc, sort_keys=True) + "\n"


def sti(deltas, k: int) -> float:
    """Singular-subspace interference of ≥2 same-shaped task deltas.

    deltas may be any iterable, a generator included: each delta's SVD is
    taken as it arrives, and only copies of its top-k triples are kept,
    so one delta and its SVD are alive at a time and the peak does not
    grow with the number of tasks.
    """
    if k < 1:
        raise ValueError(f"k must be ≥ 1, got {k}")
    us, sigmas, vs = [], [], []
    with single_threaded():  # one SVD per task (blas)
        for i, d in enumerate(deltas):
            d = np.asarray(d, dtype=np.float64)
            if i == 0:
                shape = d.shape
            elif d.shape != shape:
                raise ShapeMismatchError(f"delta {i} has shape {d.shape}, expected {shape}")
            res = svd(d)
            if k > res.rank:
                raise ValueError(f"k={k} exceeds rank {res.rank} of delta {i}")
            us.append(res.u[:, :k].copy())  # a view would keep all of u alive
            sigmas.append(res.sigma[:k])
            vs.append(res.v[:, :k].copy())
            del d, res  # before the next delta is made and decomposed
    if len(us) < 2:
        raise ValueError(f"sti needs at least 2 tasks, got {len(us)}")
    u = np.hstack(us)
    v = np.hstack(vs)
    sigma = np.concatenate(sigmas)
    eye = np.eye(sigma.size)
    gu = u.T @ u - eye
    gv = v.T @ v - eye
    return float(np.abs((gu * sigma) @ gv).sum())


def cp_sti(f: CPFactors) -> float:
    """Hadamard interference of a CP model's factor Grams.

    Columns are unit-normalized per mode first (zero columns left alone).
    """
    eye = np.eye(f.rank_R)

    def gram_dev(m):
        norms = np.linalg.norm(m, axis=0)
        mn = m / np.where(norms > 0, norms, 1.0)
        return mn.T @ mn - eye

    h = gram_dev(f.a_task) * gram_dev(f.b_row) * gram_dev(f.c_col)
    return float(np.abs(h).sum())


def layer_profile(lib, k: int, R: int, opts: AlsOptions | None = None) -> InterferenceReport:
    """Score every layer of a library; rows follow the library's layer order."""
    lib.validate()
    rows = []
    for layer_id in lib.layers:
        layer = [lib.deltas[(task, layer_id)] for task in lib.tasks]
        f = cp_als_factored(layer, R, opts)
        rows.append((layer_id, sti((d.materialize() for d in layer), k), cp_sti(f)))
    return InterferenceReport(per_layer=tuple(rows), k=k, R=R)
