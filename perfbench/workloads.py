"""The benchmark's workloads and the oracles that check each op's output.

Every workload is one CLI command run repeatedly against a planted
library that `adapterfuse synth` generates from the workload seed.  The
checks read the files with their own parsers and recompute the printed
numbers with plain numpy, so a bug in the package's readers, norms or
SVD does not also hide in the check.
"""

from __future__ import annotations

import json
import math
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every stored entry is rounded to float32, which moves a Frobenius norm
# by at most 2**-24 of itself; 2**-23 leaves room for float64 rounding.
F32_SLACK = 2.0**-23
# The package's Jacobi SVD and LAPACK agreed to about 1e-11 relative on sti.
STI_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # planted-library recipe for `synth`; the seed is added per run
    command: tuple  # CLI argv; {lib}, {truth}, {out} and {seed} are filled per run

    @property
    def writes_output(self) -> bool:
        return "{out}" in self.command

    def spec_text(self, seed: int) -> str:
        return "".join(f"{k} = {v}\n" for k, v in {**self.spec, "seed": seed}.items())

    def argv(self, paths: "Paths", seed: int) -> list:
        fill = dict(lib=paths.lib, truth=paths.truth, out=paths.out, seed=seed)
        return [arg.format(**fill) for arg in self.command]


_MERGE = ("merge", "--library", "{lib}", "--seed", "{seed}", "--out", "{out}", "--truth", "{truth}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cp-lowrank",
            spec=dict(n_tasks=8, d_in=128, d_out=128, rank_shared=2, rank_specific=4,
                      noise_sigma=0.0, n_layers=2),
            command=_MERGE + ("--method", "cp", "--cp-rank", "34"),
        ),
        Workload(
            name="dense-merge",
            spec=dict(n_tasks=8, d_in=512, d_out=512, rank_shared=2, rank_specific=4,
                      noise_sigma=0.05, n_layers=2),
            command=_MERGE + ("--method", "dare-ties"),
        ),
        Workload(
            name="interfere-dense",
            spec=dict(n_tasks=4, d_in=96, d_out=64, rank_shared=2, rank_specific=4,
                      noise_sigma=0.05, n_layers=2),
            command=("interfere", "--library", "{lib}", "--k", "2", "--cp-rank", "18", "--format", "json"),
        ),
    )
}


@dataclass(frozen=True)
class Paths:
    spec: str
    lib: str
    truth: str
    out: str

    @classmethod
    def under(cls, work: Path, stem: str = "lib") -> "Paths":
        return cls(
            spec=str(work / f"{stem}.kv"),
            lib=str(work / f"{stem}.alib"),
            truth=str(work / f"{stem}.alib.truth"),
            out=str(work / "out.alib"),
        )


# --- independent readers -----------------------------------------------------


def read_alib(path) -> tuple:
    """(tasks, layers, {(task, layer): dense s·A·Bᵀ}) from an `.alib` file, CRC checked."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"ALIB" or struct.unpack("<H", blob[4:6])[0] != 1:
        raise ValueError(f"{path}: not a version-1 ALIB container")
    (index_len,) = struct.unpack("<I", blob[6:10])
    index = json.loads(blob[10 : 10 + index_len])
    payload = blob[10 + index_len :]
    if len(payload) != index["payload_bytes"] or zlib.crc32(payload) != index["payload_crc32"]:
        raise ValueError(f"{path}: payload size or CRC mismatch")

    def tensor(spec):
        count = math.prod(spec["shape"])
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=spec["offset"])
        return arr.reshape(spec["shape"]).astype(np.float64)

    dense = {
        (rec["task"], rec["layer"]): float(rec["s"]) * (tensor(rec["a"]) @ tensor(rec["b"]).T)
        for rec in index["entries"]
    }
    return tuple(index["tasks"]), tuple(index["layers"]), dense


def read_truth(path) -> dict:
    """{layer: exact planted sum} from a `.truth` sidecar."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    out, offset = {}, 0
    for layer, shape in zip(header["layers"], header["shapes"]):
        count = math.prod(shape)
        out[layer] = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    return out


def sti_oracle(deltas, k: int) -> float:
    """sti from LAPACK's SVD: L1 norm of (UᵀU − I)·Σ·(VᵀV − I) over top-k triples."""
    us, sigmas, vs = [], [], []
    for d in deltas:
        u, s, vt = np.linalg.svd(d, full_matrices=False)
        us.append(u[:, :k])
        sigmas.append(s[:k])
        vs.append(vt[:k].T)
    u, v, sigma = np.hstack(us), np.hstack(vs), np.concatenate(sigmas)
    eye = np.eye(sigma.size)
    return float(np.abs(((u.T @ u - eye) * sigma) @ (v.T @ v - eye)).sum())


# --- per-op checks -------------------------------------------------------------

_MERGE_LINE = re.compile(r"(\S+): frobenius = (\S+), recovery_error = (\S+)")


class Checker:
    """Checks one op's stdout (and output file) against independent oracles.

    Built once per run from the input files, which do not change between
    ops.  check() returns a list of problems, empty when the op is right,
    and records the printed recovery errors of merge workloads.
    """

    def __init__(self, workload: Workload, paths: Paths):
        self.workload = workload
        self.paths = paths
        tasks, self.layers, lib = read_alib(paths.lib)
        self.recovery_err = None
        if workload.writes_output:
            self.truth = read_truth(paths.truth)
        else:
            self.sti = {
                layer: sti_oracle([lib[(task, layer)] for task in tasks], k=2) for layer in self.layers
            }

    def check(self, stdout: str) -> list:
        try:
            if self.workload.writes_output:
                return self._check_merge(stdout)
            return self._check_interfere(stdout)
        except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _check_merge(self, stdout):
        lines = stdout.splitlines()
        if not lines or lines[-1] != f"wrote {self.paths.out}":
            return [f"last stdout line is not 'wrote {self.paths.out}'"]
        printed = {}
        for line in lines[:-1]:
            m = _MERGE_LINE.fullmatch(line)
            if m is None:
                return [f"unexpected stdout line {line!r}"]
            printed[m[1]] = (float(m[2]), float(m[3]))
        _, out_layers, merged = read_alib(self.paths.out)
        problems = []
        if tuple(printed) != self.layers or out_layers != self.layers:
            problems.append(f"layers {tuple(printed)} / {out_layers}, library has {self.layers}")
        for layer in self.layers:
            if layer not in printed or ("merged", layer) not in merged:
                continue
            frob, rec = printed[layer]
            delta, truth = merged[("merged", layer)], self.truth[layer]
            want_frob = float(np.linalg.norm(delta))
            truth_norm = float(np.linalg.norm(truth))
            want_rec = float(np.linalg.norm(delta - truth)) / truth_norm
            slack = F32_SLACK * want_frob
            if not abs(frob - want_frob) <= slack:
                problems.append(f"{layer}: frobenius {frob!r}, file gives {want_frob!r}")
            if not abs(rec - want_rec) <= slack / truth_norm:
                problems.append(f"{layer}: recovery_error {rec!r}, file gives {want_rec!r}")
        self.recovery_err = max(rec for _, rec in printed.values()) if printed else None
        return problems

    def _check_interfere(self, stdout):
        doc = json.loads(stdout)
        rows = doc["layers"]
        problems = []
        if (doc["k"], doc["R"]) != (2, 18):
            problems.append(f"report echoes k={doc['k']} R={doc['R']}, asked 2 and 18")
        if tuple(row["layer_id"] for row in rows) != self.layers:
            problems.append(f"layers {[row['layer_id'] for row in rows]}, library has {self.layers}")
        for row in rows:
            want = self.sti.get(row["layer_id"])
            if want is not None and not abs(row["sti"] - want) <= STI_RTOL * abs(want):
                problems.append(f"{row['layer_id']}: sti {row['sti']!r}, LAPACK gives {want!r}")
            if not (math.isfinite(row["cp_sti"]) and row["cp_sti"] >= 0.0):
                problems.append(f"{row['layer_id']}: cp_sti {row['cp_sti']!r} is not finite and ≥ 0")
        return problems
