"""Adapter library containers: low-rank per-(task, layer) factor storage.

Single-file format (`.alib`): the ALIB framing of containers.py (magic,
version, JSON index, then a payload whose length and CRC32 the index
records), written atomically.  The payload holds every factor back to
back as little-endian float32; the index records tasks, the layer
schema, per-tensor shapes and payload offsets, per-delta scaling and
free-form metadata.

A directory of ``task_<id>/layer_<id>.bin`` files (each a one-entry
container in the same format) is accepted on load for interoperability
with external export scripts.

Factors live on disk as float32 and are widened to float64 in memory.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .containers import read_alib, read_array, require_keys, write_alib
from .errors import ContainerFormatError, SchemaError

_DTYPE = "<f4"


@dataclass(frozen=True)
class AdapterDelta:
    """One layer's low-rank update Δ = s·A·Bᵀ (A: d_in×r, B: d_out×r)."""

    layer_id: str
    a: np.ndarray
    b: np.ndarray
    scaling_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise ValueError("factors a and b must be matrices")
        if self.a.shape[1] != self.b.shape[1]:
            raise ValueError(
                f"factor ranks differ: a has {self.a.shape[1]} columns, "
                f"b has {self.b.shape[1]}"
            )
        if self.a.shape[1] < 1:
            raise ValueError("factor rank must be ≥ 1")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError(f"delta {self.layer_id!r}: non-finite factor entries")
        if not 1.0 <= self.scaling_s < math.inf:
            raise ValueError(f"scaling_s must be finite and ≥ 1, got {self.scaling_s}")

    @property
    def d_in(self) -> int:
        return self.a.shape[0]

    @property
    def d_out(self) -> int:
        return self.b.shape[0]

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def materialize(self) -> np.ndarray:
        """s·A·Bᵀ; a dense-stored delta (B the identity) skips the matmul."""
        b = self.b
        n = b.shape[0]
        if b.shape[1] == n and np.count_nonzero(b) == n and np.all(b.diagonal() == 1.0):
            return self.scaling_s * self.a + 0.0  # as A @ I would: −0.0 becomes +0.0
        return self.scaling_s * (self.a @ b.T)


@dataclass(frozen=True)
class AdapterLibrary:
    """Per-(task, layer) deltas under a shared layer schema."""

    tasks: tuple
    layers: tuple
    deltas: dict  # (task_id, layer_id) -> AdapterDelta
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(str(t) for t in self.tasks))
        object.__setattr__(self, "layers", tuple(str(l) for l in self.layers))
        self.validate()

    def validate(self) -> None:
        """Schema check: complete grid, consistent dense shape per layer."""
        missing = [
            (task, layer)
            for task in self.tasks
            for layer in self.layers
            if (task, layer) not in self.deltas
        ]
        if missing:
            raise SchemaError(f"missing (task, layer) deltas: {missing}")
        for layer in self.layers:
            shapes = {
                task: (self.deltas[(task, layer)].d_in, self.deltas[(task, layer)].d_out)
                for task in self.tasks
            }
            if len(set(shapes.values())) > 1:
                raise SchemaError(f"layer {layer!r} has inconsistent shapes: {shapes}")

    def layer_shape(self, layer_id) -> tuple:
        d = self.deltas[(self.tasks[0], str(layer_id))]
        return d.d_in, d.d_out


def save_library(lib: AdapterLibrary, path) -> None:
    lib.validate()
    entries = []
    chunks = []
    offset = 0
    for task in lib.tasks:
        for layer in lib.layers:
            d = lib.deltas[(task, layer)]
            rec = {"task": task, "layer": layer, "s": repr(float(d.scaling_s))}
            for name in ("a", "b"):
                arr = np.ascontiguousarray(getattr(d, name), dtype=_DTYPE)
                rec[name] = {"shape": list(arr.shape), "offset": offset}
                chunks.append(arr)
                offset += arr.nbytes
            entries.append(rec)
    index = {
        "tasks": list(lib.tasks),
        "layers": list(lib.layers),
        "dtype": _DTYPE,
        "entries": entries,
        "meta": lib.meta,
    }
    write_alib(path, index, chunks)


def _tensor(payload, spec, what, path):
    shape, offset = require_keys(spec, {"shape": object, "offset": object}, path)
    return read_array(payload, _DTYPE, shape, offset, what, path)


def _load_file(path) -> AdapterLibrary:
    index, payload = read_alib(path, _DTYPE)
    entries, tasks, layers, meta = require_keys(
        {"meta": {}, **index},  # meta is optional
        {"entries": list, "tasks": list, "layers": list, "meta": dict},
        path,
    )
    deltas = {}
    for rec in entries:
        task, layer, s, a, b = require_keys(
            rec, {"task": str, "layer": str, "s": str, "a": object, "b": object}, path
        )
        if (task, layer) in deltas:
            raise ContainerFormatError(f"{path}: duplicate entry ({task}, {layer})")
        deltas[(task, layer)] = AdapterDelta(
            layer_id=layer,
            a=_tensor(payload, a, f"tensor a of ({task}, {layer})", path),
            b=_tensor(payload, b, f"tensor b of ({task}, {layer})", path),
            scaling_s=float(s),
        )
    return AdapterLibrary(
        tasks=tuple(tasks), layers=tuple(layers), deltas=deltas, meta=dict(meta)
    )


def _natural_key(s: str):
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", s)]


def _load_directory(path) -> AdapterLibrary:
    task_dirs = sorted(
        (d for d in os.listdir(path) if d.startswith("task_")), key=_natural_key
    )
    if not task_dirs:
        raise ContainerFormatError(f"{path}: no task_<id> subdirectories")
    deltas = {}
    layer_sets = []
    tasks = []
    for dname in task_dirs:
        task = dname[len("task_") :]
        tasks.append(task)
        tdir = os.path.join(path, dname)
        layers = []
        for fname in sorted(os.listdir(tdir), key=_natural_key):
            match = re.fullmatch(r"layer_(.+)\.bin", fname)
            if not match:
                continue
            sub = _load_file(os.path.join(tdir, fname))
            if len(sub.tasks) != 1 or len(sub.layers) != 1:
                raise ContainerFormatError(
                    f"{tdir}/{fname}: per-file containers must hold exactly one delta"
                )
            layer = match.group(1)
            deltas[(task, layer)] = sub.deltas[(sub.tasks[0], sub.layers[0])]
            layers.append(layer)
        layer_sets.append(layers)
    schema = layer_sets[0]
    for task, layers in zip(tasks, layer_sets):
        if layers != schema:
            raise SchemaError(
                f"task {task!r} layers {layers} do not match schema {schema}"
            )
    return AdapterLibrary(tasks=tuple(tasks), layers=tuple(schema), deltas=deltas)


def load_library(path) -> AdapterLibrary:
    """Load a `.alib` container or a task_<id>/layer_<id>.bin directory."""
    if os.path.isdir(path):
        return _load_directory(path)
    return _load_file(path)


def export_merged(merged: dict, path, meta: dict | None = None) -> None:
    """Write per-layer merged deltas as a single-task library.

    Dense matrices are stored exactly (modulo the float32 element width)
    as A = Δ with B = I, so load_library round-trips them.
    """
    layers = tuple(str(l) for l in merged)
    deltas = {}
    for layer in layers:
        m = np.asarray(merged[layer], dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"merged delta for layer {layer!r} is not a matrix")
        deltas[("merged", layer)] = AdapterDelta(
            layer_id=layer, a=m, b=np.eye(m.shape[1]), scaling_s=1.0
        )
    lib = AdapterLibrary(
        tasks=("merged",), layers=layers, deltas=deltas, meta=dict(meta or {})
    )
    save_library(lib, path)
