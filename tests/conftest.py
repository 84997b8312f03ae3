import json
import struct

import numpy as np
import pytest

from adapterfuse import AdapterDelta, AdapterLibrary, cp_reconstruct_slice


def outer3(u, v, w):
    """Rank-one tensor u ∘ v ∘ w with entries u[i]*v[j]*w[k] (test oracle)."""
    return np.einsum("i,j,k->ijk", u, v, w)


def cp_reconstruct(f):
    """A CPFactors' full model tensor, stacked from per-task slices (test oracle)."""
    return np.stack([cp_reconstruct_slice(f, i) for i in range(f.n_tasks)], axis=2)


def max_principal_sine(u, v):
    """Sine of the largest principal angle between the column spaces of
    orthonormal u and v (test oracle): ‖v − u·uᵀ·v‖₂."""
    return float(np.linalg.norm(v - u @ (u.T @ v), 2))


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
