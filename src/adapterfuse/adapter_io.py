"""Adapter library containers: low-rank per-(task, layer) factor storage.

Single-file format (`.alib`): the ALIB framing of containers.py (magic,
version, JSON index, then a payload whose length and CRC32 the index
records), written atomically.  The payload holds the factors back to
back as little-endian float32; the index records tasks, the layer
schema, per-tensor shapes and payload offsets, per-delta scaling and
free-form metadata.  A dense-stored delta (A = Δ, B = I) has no B of
its own: the file holds one identity per size, written where the first
dense-stored delta of that size needs it, and every such delta's `b`
record points at it.  Readers must address tensors by offset; the
loader makes one view per distinct span, so those deltas share one B.

Factors live on disk as float32 and stay float32 in memory: a loaded
AdapterDelta holds read-only views of the CRC-checked payload, which is
itself a view of the file's read-only mapping (containers), so loading
copies no factor onto the heap.  The payload starts on a 64-byte file
offset so the views are aligned (a file written before that padding has
its tensors copied once into aligned arrays).  The mapping stays open
while any delta of the library is alive, so the file must be replaced
by rename, as save_library does, not rewritten in place.  Every
consumer widens the factors to float64 once, into the buffer it
computes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blas import single_threaded
from .containers import as_float32, read_alib, read_array, require_keys, write_alib
from .errors import ContainerFormatError, SchemaError
from .tensor_core import all_finite

_DTYPE = "<f4"


def _factor(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else np.asarray(x, dtype=np.float64)


def _is_identity(b) -> bool:
    n = b.shape[0]
    return b.shape[1] == n and np.count_nonzero(b) == n and bool(np.all(b.diagonal() == 1.0))


@dataclass(frozen=True)
class AdapterDelta:
    """One layer's low-rank update Δ = s·A·Bᵀ (A: d_in×r, B: d_out×r).

    Factors are kept as float32 when given as float32 (load_library
    gives read-only float32 views of the file's payload) and as float64
    otherwise; materialize and every other consumer widen them to
    float64 before any arithmetic, so both give the same bytes.  The
    factors are finite-checked, and dense_stored decided, once, when
    the delta is made.
    """

    layer_id: str
    a: np.ndarray
    b: np.ndarray
    scaling_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", _factor(self.a))
        object.__setattr__(self, "b", _factor(self.b))
        self._check_shapes_and_scaling()
        if not (all_finite(self.a) and all_finite(self.b)):
            raise ValueError(f"delta {self.layer_id!r}: non-finite factor entries")
        object.__setattr__(self, "_dense", _is_identity(self.b))

    @classmethod
    def _of_checked(cls, layer_id, a, b, scaling_s, dense_stored):
        """A delta over factors already finite-checked (load_library checks
        each distinct view once, however many deltas share it)."""
        d = cls.__new__(cls)
        for name, value in (("layer_id", layer_id), ("a", a), ("b", b), ("scaling_s", scaling_s)):
            object.__setattr__(d, name, value)
        d._check_shapes_and_scaling()
        object.__setattr__(d, "_dense", dense_stored)
        return d

    def _check_shapes_and_scaling(self):
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise ValueError("factors a and b must be matrices")
        if self.a.shape[1] != self.b.shape[1]:
            raise ValueError(
                f"factor ranks differ: a has {self.a.shape[1]} columns, "
                f"b has {self.b.shape[1]}"
            )
        if self.a.shape[1] < 1:
            raise ValueError("factor rank must be ≥ 1")
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

    @property
    def dense_stored(self) -> bool:
        """B is the identity, so Δ = s·A needs no matmul."""
        return self._dense

    @single_threaded()  # the product's bits do not follow the core count (blas)
    def materialize(self, out=None, rows=slice(None)) -> np.ndarray:
        """Rows `rows` (a slice) of s·A·Bᵀ, written into `out` (a float64
        matrix of their shape) when given.

        A dense-stored delta skips the matmul.  A product of some rows
        may differ in its last bits from those rows of the whole product.
        """
        a = self.a[rows]
        if out is None:
            out = np.empty((a.shape[0], self.d_out))
        if self.dense_stored:
            np.copyto(out, a)
            if self.scaling_s != 1.0:
                out *= self.scaling_s
            out += 0.0  # as A @ I would: −0.0 becomes +0.0
            return out
        wide_a, wide_b = (x.astype(np.float64, copy=False) for x in (a, self.b))
        np.matmul(wide_a, wide_b.T, out=out)
        out *= self.scaling_s
        return out


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
        """Schema check: unique ids, exactly the tasks × layers grid, one shape per layer."""
        for kind, ids in (("task", self.tasks), ("layer", self.layers)):
            if len(set(ids)) != len(ids):
                raise SchemaError(f"duplicate {kind} ids in {list(ids)}")
        extra = [k for k in self.deltas if k[0] not in self.tasks or k[1] not in self.layers]
        if extra:
            raise SchemaError(f"deltas outside the tasks × layers grid: {extra}")
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


def _stored_factors(lib: AdapterLibrary):
    """(task, layer, delta, {name: factor}) in file order, naming the
    factors an `.alib` stores for each delta: its A, and its B unless it
    is dense-stored.  The dense-stored deltas of one size share one
    identity, stored in the place of the first such delta's B."""
    sizes = set()
    for task in lib.tasks:
        for layer in lib.layers:
            d = lib.deltas[(task, layer)]
            factors = {"a": d.a}
            if not d.dense_stored:
                factors["b"] = d.b
            elif d.d_out not in sizes:
                factors["b"] = np.eye(d.d_out, dtype=_DTYPE)
                sizes.add(d.d_out)
            yield task, layer, d, factors


def save_library(lib: AdapterLibrary, path) -> None:
    """Write lib as one `.alib` file (layout: _stored_factors)."""
    lib.validate()
    entries, chunks, offset = [], [], 0
    identities = {}  # d_out -> the spec of that size's identity
    for task, layer, d, factors in _stored_factors(lib):
        rec = {"task": task, "layer": layer, "s": repr(float(d.scaling_s))}
        for name, arr in factors.items():
            chunks.append(as_float32(arr, f"delta ({task}, {layer}): factor {name}"))
            rec[name] = {"shape": list(arr.shape), "offset": offset}
            offset += chunks[-1].nbytes
        if d.dense_stored:
            rec["b"] = identities.setdefault(d.d_out, rec.get("b"))
        entries.append(rec)
    index = {"tasks": list(lib.tasks), "layers": list(lib.layers), "dtype": _DTYPE,
             "entries": entries, "meta": lib.meta}
    write_alib(path, index, chunks)


def stored_bytes(lib: AdapterLibrary) -> int:
    """Payload bytes save_library writes for lib."""
    itemsize = np.dtype(_DTYPE).itemsize
    return sum(itemsize * arr.size for *_, factors in _stored_factors(lib)
               for arr in factors.values())


def load_library(path) -> AdapterLibrary:
    """Load a `.alib` container (a directory is an OSError, as for open)."""
    index, payload = read_alib(path, _DTYPE)
    entries, tasks, layers, meta = require_keys(
        {"meta": {}, **index},  # meta is optional
        {"entries": list, "tasks": list, "layers": list, "meta": dict},
        path,
    )
    views = {}  # one read-only, finite-checked view per distinct (shape, offset) span
    identities = {}  # span -> whether its view is an identity, decided once

    def tensor(spec, what):
        shape, offset = require_keys(spec, {"shape": object, "offset": object}, path)
        span = repr((shape, offset))
        if span not in views:
            view = read_array(payload, _DTYPE, shape, offset, what, path)
            if not all_finite(view):
                raise ValueError(f"{path}: {what} has non-finite entries")
            views[span] = view
        return span, views[span]

    def identity(span):
        if span not in identities:
            b = views[span]
            identities[span] = b.ndim == 2 and _is_identity(b)
        return identities[span]

    deltas = {}
    for rec in entries:
        task, layer, s, a, b = require_keys(
            rec, {"task": str, "layer": str, "s": str, "a": object, "b": object}, path
        )
        if (task, layer) in deltas:
            raise ContainerFormatError(f"{path}: duplicate entry ({task}, {layer})")
        try:
            scaling = float(s)
        except ValueError:
            raise ContainerFormatError(
                f"{path}: entry ({task}, {layer}) has a non-numeric scaling {s!r:.40}"
            ) from None
        _, a = tensor(a, f"tensor a of ({task}, {layer})")
        b_span, b = tensor(b, f"tensor b of ({task}, {layer})")
        deltas[(task, layer)] = AdapterDelta._of_checked(layer, a, b, scaling, identity(b_span))
    return AdapterLibrary(
        tasks=tuple(tasks), layers=tuple(layers), deltas=deltas, meta=dict(meta)
    )


def export_merged(merged, path, meta: dict | None = None) -> None:
    """Write per-layer merged deltas as a single-task library.

    merged is a {layer_id: matrix} mapping or an iterable of (layer_id,
    matrix) pairs, which may be a generator that merges each layer as it
    is asked for: each matrix is narrowed to the stored float32 as it
    arrives, and its float64 is dropped before the next is taken.  Dense
    matrices are stored exactly (modulo the float32 element width) as
    A = Δ with B = I, so load_library round-trips them.  A layer whose
    peak lies beyond the float32 range is stored as A = Δ·2⁻ᵉ with
    s = 2ᵉ, the least power of two that brings it in range: the scaling
    is exact, and every other layer keeps s = 1.  Layers of one d_out
    share one read-only identity, and the file holds it once.
    """
    narrowed = {}  # layer_id -> (its float32 A, its s)
    for layer, m in merged.items() if isinstance(merged, dict) else merged:
        layer = str(layer)
        if layer in narrowed:
            raise ValueError(f"merged delta for layer {layer!r} is given twice")
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"merged delta for layer {layer!r} is not a matrix")
        if not all_finite(m):
            raise ValueError(f"delta {layer!r}: non-finite factor entries")
        try:
            narrowed[layer] = as_float32(m, f"delta (merged, {layer}): factor a"), 1.0
        except ValueError:  # the peak is ≥ 2¹²⁷, so e ≥ 1, and A's peak is < 2¹²⁷
            e = math.frexp(max(m.max(), -m.min()))[1] - 127
            narrowed[layer] = np.ldexp(m, -e).astype("<f4"), math.ldexp(1.0, e)
        del m  # before the next layer is merged
    deltas = {}
    identities = {}  # d_out -> its identity, made once every layer is in
    for layer, (a, s) in narrowed.items():
        eye = identities.get(a.shape[1])
        if eye is None:
            eye = identities[a.shape[1]] = np.eye(a.shape[1], dtype=np.float32)
            eye.flags.writeable = False
        deltas[("merged", layer)] = AdapterDelta(layer_id=layer, a=a, b=eye, scaling_s=s)
    lib = AdapterLibrary(
        tasks=("merged",), layers=tuple(narrowed), deltas=deltas, meta=dict(meta or {})
    )
    save_library(lib, path)
