"""Benchmark for the adapterfuse CLI: one workload per run, closed loop.

    python3 perfbench/run.py --workload cp-lowrank --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One process, one caller, no think time: each op calls
``adapterfuse.cli.main(argv)`` in-process with stdout captured, and the
next op starts when it returns.  The seed becomes the planted library's
seed and the merge ``--seed``.  Every op's output is checked (see
workloads.py) and must match the first op's bytes.

--trace 0 times the loop with nothing wrapped and prints the end-to-end
metrics.  --trace 1 runs half the time untraced and half with the span
tracer installed (tracer.py) and prints the per-layer metrics.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}.
"""

import time

START = time.perf_counter()  # before numpy and adapterfuse are imported

import argparse
import ctypes
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SYNTH_REPEATS = 3  # set-up is repeated and its median taken
MIN_TAIL_OPS = 11  # op_s_tail needs ten samples beyond it

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Checker, Paths  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Runner:
    """Runs ops, times each around cli.main alone, and checks every result."""

    def __init__(self, cli, argv, checker, out_path):
        self.cli = cli  # cli.main is looked up per op, so an installed tracer sees it
        self.argv = argv
        self.checker = checker
        self.out_path = out_path
        self.reference = None
        self.verdicts = {}  # checked once per distinct (stdout, output digest)
        self.attempted = 0
        self.failures = []

    def op(self, measure_mem=False):
        """One op; returns (seconds, peak traced bytes or None)."""
        out, err = io.StringIO(), io.StringIO()
        peak = None
        with redirect_stdout(out), redirect_stderr(err):
            if measure_mem:
                tracemalloc.start()
                tracemalloc.reset_peak()
            t = time.perf_counter()
            try:
                rc = self.cli.main(self.argv)
            except SystemExit as exc:  # argparse rejects argv
                rc = exc.code
            seconds = time.perf_counter() - t
            if measure_mem:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        self.attempted += 1
        digest = None
        if self.out_path is not None and os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        key = (rc, out.getvalue(), digest)
        if self.reference is None:
            self.reference = key
        if rc != 0:
            problems = [f"exit {rc}: {err.getvalue().strip()}"]
        elif key != self.reference:
            problems = ["stdout or output file differs from the first op"]
        else:
            if key not in self.verdicts:
                self.verdicts[key] = self.checker.check(key[1])
            problems = self.verdicts[key]
        if problems:
            self.failures.append(problems)
        return seconds, peak

    def loop(self, seconds, min_ops=1):
        """Closed loop for `seconds` (and at least `min_ops` ops); returns latencies."""
        latencies = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(latencies) < min_ops:
            latencies.append(self.op()[0])
        return latencies


def synth(cli, paths, workload, seed):
    Path(paths.spec).write_text(workload.spec_text(seed), encoding="utf-8")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        t = time.perf_counter()
        rc = cli.main(["synth", "--spec", paths.spec, "--out", paths.lib])
        seconds = time.perf_counter() - t
    if rc != 0:
        raise RuntimeError(f"synth failed with exit {rc}: {err.getvalue().strip()}")
    return seconds


def tail(latencies):
    """(value, percentile, beyond): highest percentile with ≥ 10 samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10  # 1-based rank of the sample with exactly ten above
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or 'unknown'."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return getattr(handle, sym)()
    return "unknown"


def with_units(values, section):
    """{name: {value, unit}} for every metric that BENCHMARK.json lists in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def run_workload(args):
    inherited_threads = os.environ.pop("ADAPTERFUSE_THREADS", None)
    if not (ROOT / "src" / "adapterfuse" / "cli.py").is_file():
        print(f"error: no adapterfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from adapterfuse import cli

    import_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = Paths.under(work)
    synth_s = [synth(cli, paths, workload, args.seed) for _ in range(SYNTH_REPEATS)]
    out_path = paths.out if workload.writes_output else None
    runner = Runner(cli, workload.argv(paths, args.seed), Checker(workload, paths), out_path)
    warm_s, _ = runner.op()
    setup_s = import_s + statistics.median(synth_s) + warm_s

    lines = [
        f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}",
        f"  argv: adapterfuse {' '.join(runner.argv)}",
        f"  settings: blas_threads={blas_threads()} nproc={os.cpu_count()} "
        f"ADAPTERFUSE_THREADS=unset (inherited: {inherited_threads or 'unset'}) "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        f"  setup_s       {setup_s:.4f} s  (import {import_s:.4f} + median synth of "
        f"{SYNTH_REPEATS} {statistics.median(synth_s):.4f} + warm-up op {warm_s:.4f})",
    ]
    if args.trace:
        metrics, more = traced_run(args, cli, workload, work, runner)
    else:
        latencies = runner.loop(args.seconds, MIN_TAIL_OPS)
        _, peak = runner.op(measure_mem=True)
        p50 = statistics.median(latencies)
        tail_s, tail_pct, beyond = tail(latencies)
        metrics = with_units({
            "setup_s": setup_s,
            "op_s_p50": p50,
            "op_s_tail": tail_s,
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_mem_mib": peak / 2**20,
        }, "end_to_end")
        more = [
            f"  op_s_p50      {p50:.4f} s  ({len(latencies)} timed ops)",
            f"  op_s_tail     {tail_s:.4f} s  (p{tail_pct:.0f} of {len(latencies)} ops, {beyond} beyond)",
            f"  ops_per_s     {metrics['ops_per_s']['value']:.4f} 1/s",
            f"  peak_mem_mib  {peak / 2**20:.4f} MiB  (tracemalloc, one untimed op)",
        ]
    failed = len(runner.failures)
    rec = runner.checker.recovery_err
    more += [
        f"  fail_frac     {failed / runner.attempted:.4f} ratio  ({failed} of {runner.attempted} ops)",
        f"  recovery_err  {'n/a (no truth)' if rec is None else f'{rec!r} ratio'}  (max over layers)",
    ]
    more += [f"  FAILED: {'; '.join(problems)}" for problems in runner.failures[:5]]
    for path in (paths.lib, paths.truth, paths.out):
        Path(path).unlink(missing_ok=True)
    print("\n".join(lines + more))
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def traced_run(args, cli, workload, work, runner):
    """Untraced then traced halves; per-layer metrics from the traced one."""
    untraced = runner.loop(args.seconds / 2)
    traced_setup = Paths.under(work, stem="traced")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = -1  # one traced set-up, for synth.gen_planted_library
        synth(cli, traced_setup, workload, args.seed)
        traced = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds / 2:
            tracer.op_id = len(traced)
            traced.append(runner.op()[0])
    finally:
        tracer.uninstall()
    tracer.dump(work / "spans.jsonl")
    for path in (traced_setup.lib, traced_setup.truth):
        Path(path).unlink(missing_ok=True)

    # a metric with no spans is 0: the traced ops made no such call
    per_op = defaultdict(float, tracer.totals(range(len(traced))))
    per_op["synth.gen_planted_library.self_s"] = tracer.totals([-1]).get(
        "synth.gen_planted_library.self_s", 0.0)
    calls = per_op["cp_decomposition.cp_als.calls"]
    per_op["cp_decomposition.als_iters"] = per_op["cp_decomposition.cp_als.iters"]
    per_op["cp_decomposition.converged_frac"] = (
        per_op["cp_decomposition.cp_als.converged"] / calls if calls else 0.0)
    t50, u50, wall = statistics.median(traced), statistics.median(untraced), statistics.mean(traced)
    layer_s = {layer: per_op[f"{layer}.self_s"] for layer in LAYERS}
    per_op["trace.op_s_p50"] = t50
    per_op["trace.overhead"] = t50 / u50
    per_op["trace.coverage"] = sum(layer_s.values()) / wall
    metrics = with_units(per_op, "per_layer")
    more = [
        f"  untraced op_s_p50 {u50:.4f} s ({len(untraced)} ops), traced {t50:.4f} s "
        f"({len(traced)} ops), overhead x{t50 / u50:.4f}",
        f"  layer self time per traced op (mean {wall:.4f} s): " + ", ".join(
            f"{layer} {s / wall:.1%}" for layer, s in sorted(layer_s.items(), key=lambda kv: -kv[1]) if s),
        f"  layer self times cover {per_op['trace.coverage']:.2%} of traced op wall time",
    ]
    more += [f"  {name:40s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, more


def run_all(args):
    """Each workload in its own process, one after another; one JSON line for all."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be ≥ 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
