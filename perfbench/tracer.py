"""Span tracer that wraps adapterfuse's public functions from outside.

install() replaces every public function of the measured layer modules
at every place it is bound: the defining module (so calls inside that
module go through the wrapper too) and every package module that bound
it with ``from .x import y``.  AdapterDelta.materialize is wrapped on
its class.  uninstall() puts the originals back, so timed loops run with
no wrapper in place.

Spans are kept in memory as [name, start, end, parent, op_id, counts]
and written out by dump().  A span's self time is its duration minus
the durations of its direct children; calls run on one thread (the
benchmark leaves ADAPTERFUSE_THREADS unset), so children nest inside
their parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict

# clustering is not measured: see NOTES.md.
LAYERS = (
    "cli",
    "adapter_io",
    "tensor_core",
    "svd_kernel",
    "cp_decomposition",
    "merge_ops",
    "interference",
    "synth",
)


def _max_iters(args, kwargs):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    if opts is None:
        opts = importlib.import_module("adapterfuse.cp_decomposition").AlsOptions()
    return opts.max_iters


# Counts recorded at a span's boundary, computed after its end time is taken.
COUNTERS = {
    "svd_kernel.svd": lambda args, kwargs, out: {"elems": out.u.shape[0] * out.v.shape[0]},
    "tensor_core.khatri_rao": lambda args, kwargs, out: {"bytes": out.nbytes},
    "cp_decomposition.cp_als": lambda args, kwargs, out: {
        "iters": len(out.error_trace),
        "converged": int(len(out.error_trace) < _max_iters(args, kwargs)),
    },
    "adapter_io.load_library": lambda args, kwargs, out: {"bytes": os.path.getsize(args[0])},
    "adapter_io.save_library": lambda args, kwargs, out: {"bytes": os.path.getsize(args[1])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"adapterfuse.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and (layer != "cli" or attr == "main")
                ):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        package = [
            m for n, m in sys.modules.items() if n == "adapterfuse" or n.startswith("adapterfuse.")
        ]
        for mod in package:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        delta_cls = importlib.import_module("adapterfuse.adapter_io").AdapterDelta
        self._restore.append((delta_cls, "materialize", delta_cls.materialize))
        delta_cls.materialize = self._wrap("adapter_io.materialize", delta_cls.materialize)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op_id", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self, op_ids):
        """Per-op means over `op_ids`: calls, self_s and counts per span name.

        Keys are "<name>.calls", "<name>.self_s", "<name>.<count>", plus
        "<layer>.self_s" summed over the layer's spans.
        """
        op_ids = set(op_ids)
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, op_id, counts) in enumerate(self.spans):
            if op_id not in op_ids:
                continue
            self_s = end - start - child_s[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        return {key: value / len(op_ids) for key, value in out.items()}
