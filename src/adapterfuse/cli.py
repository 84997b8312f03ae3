"""Command-line front-end.

Subcommands wire the pipeline end to end: synth → merge → interfere,
plus clustering, parameter sweeps, and per-task compression.  Every
stochastic step is seeded through flags, so identical invocations
produce byte-identical files and stdout.

Exit codes: 0 success, 2 usage or input error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from .adapter_io import export_merged, load_library, save_library
from .clustering import (
    kmeans_fit,
    load_embeddings,
    load_manifest,
    partition_manifest,
    save_manifest,
)
from .containers import atomic_write
from .cp_decomposition import (
    AlsOptions,
    cp_als_factored,
    cp_reconstruct_slice,
    load_factors,
    save_factors,
    storage_bytes,
)
from .interference import layer_profile
from .merge_ops import METHODS, MergeConfig, merge_library
from .synth import PlantedSpec, gen_planted_library, load_truth, recovery_error, save_truth
from .tensor_core import frobenius_norm


def cmd_cluster(args) -> int:
    embeds = load_embeddings(args.embeddings)
    manifest = load_manifest(args.manifest)
    model = kmeans_fit(
        embeds,
        K=args.k,
        sample_fraction=args.sample_fraction,
        seed=args.seed,
        distance=args.distance,
        max_iters=args.max_iters,
    )
    parts = partition_manifest(manifest, model, embeds)
    os.makedirs(args.out_dir, exist_ok=True)
    for j, part in enumerate(parts):
        path = os.path.join(args.out_dir, f"cluster_{j}.jsonl")
        save_manifest(part, path)
        print(f"cluster_{j}: {len(part)} samples -> {path}")
    print(f"inertia = {model.inertia!r}")
    print(f"iterations = {model.iterations_run}")
    return 0


def cmd_merge(args) -> int:
    lib = load_library(args.library)
    cfg = MergeConfig(
        method=args.method,
        alpha=args.alpha,
        average=args.average,
        k_density=args.k_density,
        dare_p=args.dare_p,
        cp_rank=args.cp_rank,
        seed=args.seed,
    )
    merged = merge_library(lib, cfg)
    truth = load_truth(args.truth) if args.truth else None
    for layer_id, delta in merged.items():
        line = f"{layer_id}: frobenius = {frobenius_norm(delta)!r}"
        if truth is not None:
            if layer_id not in truth:
                raise ValueError(f"truth sidecar has no layer {layer_id!r}")
            line += f", recovery_error = {recovery_error(delta, truth[layer_id])!r}"
        print(line)
    kv = cfg.to_kv()
    meta = {
        "merged_from": list(lib.tasks),
        "method": cfg.method,
        "config": kv,
        "config_sha256": hashlib.sha256(kv.encode("utf-8")).hexdigest(),
    }
    export_merged(merged, args.out, meta=meta)
    print(f"wrote {args.out}")
    return 0


def cmd_interfere(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be ≥ 1, got {args.k}")
    if args.cp_rank < 1:
        raise ValueError(f"--cp-rank must be ≥ 1, got {args.cp_rank}")
    lib = load_library(args.library)
    report = layer_profile(lib, k=args.k, R=args.cp_rank)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    elif args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0


def _read_sweep_rows(path):
    rows = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines and lines[0] != "param,value,metric,score":
            raise ValueError(f"{path}: not a sweep csv (bad header)")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            row = tuple(line.split(",", 3))
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                float(row[3])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: score {row[3]!r} is not a number") from None
            rows.append(row)
    return rows


def cmd_sweep(args) -> int:
    metric = args.metric
    if metric is None:
        metric = "recovery-error" if args.param == "cp-rank" else "inertia"
    if metric == "recovery-error":
        if args.param != "cp-rank":
            raise ValueError("metric recovery-error requires --param cp-rank")
        if not args.truth:
            raise ValueError("metric recovery-error requires --truth")
    if metric == "inertia":
        if args.param != "k-clusters":
            raise ValueError("metric inertia requires --param k-clusters")
        if not args.embeddings:
            raise ValueError("metric inertia requires --embeddings")

    rows = _read_sweep_rows(args.out)
    done = {(p, v, m) for p, v, m, _ in rows}

    lib = truth = embeds = None
    if args.param == "cp-rank":
        if not args.library:
            raise ValueError("--param cp-rank requires --library")
        lib = load_library(args.library)
        truth = load_truth(args.truth)
    else:
        embeds = load_embeddings(args.embeddings)

    for value in args.values:
        key = (args.param, str(value), metric)
        if key in done:
            print(f"{args.param} = {value}: cached")
            continue
        if args.param == "cp-rank":
            cfg = MergeConfig(method="cp", cp_rank=value, seed=args.seed)
            merged = merge_library(lib, cfg)
            errs = []
            for layer_id, delta in merged.items():
                if layer_id not in truth:
                    raise ValueError(f"truth sidecar has no layer {layer_id!r}")
                errs.append(recovery_error(delta, truth[layer_id]))
            score = float(np.mean(errs))
        else:
            model = kmeans_fit(
                embeds,
                K=value,
                sample_fraction=args.sample_fraction,
                seed=args.seed,
            )
            score = model.inertia
        rows.append((args.param, str(value), metric, repr(score)))
        done.add(key)
        print(f"{args.param} = {value}: {metric} = {score!r}")

    lines = ["param,value,metric,score"] + [",".join(row) for row in rows]
    atomic_write(args.out, [("\n".join(lines) + "\n").encode("utf-8")])
    print(f"wrote {args.out}")
    return 0


def cmd_compress(args) -> int:
    if args.cp_rank < 1:
        raise ValueError(f"--cp-rank must be ≥ 1, got {args.cp_rank}")
    lib = load_library(args.library)
    if args.task not in lib.tasks:
        raise ValueError(
            f"unknown task {args.task!r}; library tasks: {', '.join(lib.tasks)}"
        )
    task_idx = lib.tasks.index(args.task)
    os.makedirs(args.out, exist_ok=True)
    opts = AlsOptions(seed=args.seed)
    compressed_bytes = 0
    dense_bytes = 0
    for layer_id in lib.layers:
        layer = [lib.deltas[(task, layer_id)] for task in lib.tasks]
        factors = cp_als_factored(layer, args.cp_rank, opts)
        path = os.path.join(args.out, f"layer_{layer_id}.cpf")
        save_factors(factors, path)
        # report from what a consumer would actually read back
        reloaded = load_factors(path)
        approx = cp_reconstruct_slice(reloaded, task_idx)
        target = layer[task_idx].materialize()
        err = recovery_error(approx, target)
        compressed_bytes += storage_bytes(reloaded)
        dense_bytes += len(layer) * target.size * 4  # float32 accounting
        print(f"{layer_id}: error = {err!r} -> {path}")
    print(f"storage_bytes = {compressed_bytes}")
    print(f"dense_bytes = {dense_bytes}")
    print(f"ratio = {compressed_bytes / dense_bytes!r}")
    return 0


def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = PlantedSpec.from_kv(fh.read())
    lib, gt = gen_planted_library(spec)
    save_library(lib, args.out)
    truth_path = args.truth_out or str(args.out) + ".truth"
    save_truth(gt.layer_sums, truth_path)
    print(f"tasks = {len(lib.tasks)}")
    print(f"layers = {len(lib.layers)}")
    print(f"total_rank = {gt.total_rank}")
    print(f"wrote {args.out}")
    print(f"wrote {truth_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adapterfuse",
        description="Merge, analyze, and compress libraries of low-rank adapter deltas.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("cluster", help="k-means over embeddings; split a manifest")
    c.add_argument("--embeddings", required=True)
    c.add_argument("--manifest", required=True)
    c.add_argument("--k", required=True, type=int)
    c.add_argument("--sample-fraction", type=float, default=0.2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out-dir", required=True)
    c.add_argument("--distance", choices=("euclidean", "cosine"), default="euclidean")
    c.add_argument("--max-iters", type=int, default=300)
    c.set_defaults(func=cmd_cluster)

    m = sub.add_parser("merge", help="merge a library into one delta per layer")
    m.add_argument("--library", required=True)
    m.add_argument("--method", required=True, choices=METHODS)
    m.add_argument("--alpha", type=float, default=1.0)
    m.add_argument("--average", action="store_true")
    m.add_argument("--k-density", type=float, default=0.2)
    m.add_argument("--dare-p", type=float, default=0.5)
    m.add_argument("--cp-rank", type=int, default=1)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True)
    m.add_argument("--truth", default=None)
    m.set_defaults(func=cmd_merge)

    i = sub.add_parser("interfere", help="per-layer interference report")
    i.add_argument("--library", required=True)
    i.add_argument("--k", required=True, type=int)
    i.add_argument("--cp-rank", required=True, type=int)
    i.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    i.set_defaults(func=cmd_interfere)

    s = sub.add_parser("sweep", help="sweep cp rank or cluster count")
    s.add_argument("--library", default=None)
    s.add_argument("--param", required=True, choices=("cp-rank", "k-clusters"))
    s.add_argument("--values", required=True, type=int, nargs="+")
    s.add_argument("--metric", choices=("recovery-error", "inertia"), default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--truth", default=None)
    s.add_argument("--embeddings", default=None)
    s.add_argument("--sample-fraction", type=float, default=0.2)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_sweep)

    k = sub.add_parser("compress", help="CP-compress a library; write .cpf per layer")
    k.add_argument("--library", required=True)
    k.add_argument("--cp-rank", required=True, type=int)
    k.add_argument("--task", required=True)
    k.add_argument("--out", required=True)
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(func=cmd_compress)

    y = sub.add_parser("synth", help="generate a planted library with ground truth")
    y.add_argument("--spec", required=True)
    y.add_argument("--out", required=True)
    y.add_argument("--truth-out", default=None)
    y.set_defaults(func=cmd_synth)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything unexpected is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
