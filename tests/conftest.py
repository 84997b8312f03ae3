import json
import math
import struct

import numpy as np
import pytest

from adapterfuse import AdapterDelta, AdapterLibrary, blas, cp_reconstruct_slice, truncated_approx


def outer3(u, v, w):
    """Rank-one tensor u ∘ v ∘ w with entries u[i]*v[j]*w[k] (test oracle)."""
    return np.einsum("i,j,k->ijk", u, v, w)


def unfold(t, mode):
    """Mode-n matricization (test oracle): the row index is the mode-n
    index, and the other modes run through the columns, the earlier one
    fastest."""
    axis = mode - 1
    return np.reshape(np.moveaxis(t, axis, 0), (t.shape[axis], -1), order="F")


def fold(m, mode, dims):
    """Inverse of unfold: fold(unfold(t, mode), mode, t.shape) == t (test oracle)."""
    axis = mode - 1
    rest = [d for a, d in enumerate(dims) if a != axis]
    return np.moveaxis(np.reshape(m, (dims[axis], *rest), order="F"), 0, axis)


def khatri_rao(x, y):
    """Column-wise Kronecker product: column r is kron(x[:, r], y[:, r]) (test oracle)."""
    return np.einsum("ir,jr->ijr", x, y).reshape(-1, x.shape[1])


def cp_reconstruct(f):
    """A CPFactors' full model tensor, stacked from per-task slices (test oracle)."""
    return np.stack([cp_reconstruct_slice(f, i) for i in range(f.n_tasks)], axis=2)


def ties_merge_oracle(deltas, cfg):
    """TIES over a list of matrices, one whole-stack pass per step (test oracle).

    Per task the k = ceil(k_density · n) largest magnitudes survive, ties
    at the k-th keeping the lowest indices; signs are elected from the
    survivors' sum and the agreeing survivors averaged.
    """
    stack = np.stack([np.asarray(d, dtype=np.float64) for d in deltas], axis=0)
    n_tasks = stack.shape[0]
    flat = stack.reshape(n_tasks, -1)
    n = flat.shape[1]
    k = math.ceil(cfg.k_density * n)
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


def dare_transform_oracle(delta, cfg, stream=()):
    """DARE drop of one matrix into a new array (test oracle): the mask is
    drawn from (seed, *stream), survivors are divided by 1 − dare_p."""
    delta = np.asarray(delta, dtype=np.float64)
    p = cfg.dare_p
    if p == 0.0:
        return delta.copy()
    mask = (1 << 64) - 1
    rng = np.random.default_rng([cfg.seed & mask, *(s & mask for s in stream)])
    keep = rng.random(delta.shape) >= p
    return np.where(keep, delta / (1.0 - p), 0.0)


def dense_merge_oracle(deltas, cfg, salt=0):
    """Any dense merge method over a list of matrices (test oracle)."""
    deltas = [np.asarray(d, dtype=np.float64) for d in deltas]
    if cfg.method.startswith("dare-"):
        deltas = [dare_transform_oracle(d, cfg, stream=(i, salt)) for i, d in enumerate(deltas)]
    if cfg.method == "uniform":
        return cfg.alpha * sum(deltas) / len(deltas)
    if cfg.method in ("task-arithmetic", "dare-ta"):
        return cfg.alpha * sum(deltas)
    if cfg.method in ("ties", "dare-ties"):
        return ties_merge_oracle(deltas, cfg)
    k = math.ceil(cfg.k_density * min(deltas[0].shape))
    return cfg.alpha * sum(truncated_approx(d, k) for d in deltas)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def max_principal_sine(u, v):
    """Sine of the largest principal angle between the column spaces of
    orthonormal u and v (test oracle): ‖v − u·uᵀ·v‖₂."""
    return float(np.linalg.norm(v - u @ (u.T @ v), 2))


@pytest.fixture
def eight_workers(monkeypatch):
    """A fresh pool of eight worker threads, whatever the number of cores."""
    monkeypatch.setattr(blas, "_workers", 8)
    monkeypatch.setattr(blas, "_pool", None)
    yield
    if blas._pool is not None:
        blas._pool.shutdown(wait=True)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_library(n_tasks=3, n_layers=2, d_in=8, d_out=6, rank=2, seed=0, scaling=1.0):
    """Small dense-ish random library for io/merge/cli tests."""
    rng = np.random.default_rng(seed)
    tasks = tuple(str(i) for i in range(n_tasks))
    layers = tuple(f"{j:02d}" for j in range(n_layers))
    deltas = {}
    for t in tasks:
        for l in layers:
            deltas[(t, l)] = AdapterDelta(
                layer_id=l,
                a=rng.standard_normal((d_in, rank)),
                b=rng.standard_normal((d_out, rank)),
                scaling_s=scaling,
            )
    return AdapterLibrary(tasks=tasks, layers=layers, deltas=deltas)


def blob_points(n_per=40, dim=4, spread=0.05, centers=((0.0, 5.0), (5.0, 0.0)), seed=7):
    """Two well-separated Gaussian blobs; returns (vectors, true_labels)."""
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for lab, c in enumerate(centers):
        mu = np.zeros(dim)
        mu[: len(c)] = c
        pts.append(mu + spread * rng.standard_normal((n_per, dim)))
        labels += [lab] * n_per
    return np.vstack(pts).astype(np.float32), np.array(labels)


def edit_header(path, edit):
    """Rewrite a JSON-header-line container after edit(header) mutates it."""
    blob = path.read_bytes()
    line, payload = blob.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload)


def drop_header_key(path, key):
    """Rewrite a JSON-header-line container without one header key."""
    edit_header(path, lambda header: header.pop(key))


def edit_alib_index(path, edit):
    """Rewrite an .alib with edit(index) as its index; the payload is kept."""
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 6)
    index = json.dumps(edit(json.loads(blob[10 : 10 + n])), sort_keys=True).encode()
    path.write_bytes(blob[:6] + struct.pack("<I", len(index)) + index + blob[10 + n :])
