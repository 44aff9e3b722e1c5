"""Spans around stdac's layer boundaries, installed from outside the package.

The tracer replaces op functions and methods (`stdac.nn.conv2d`,
`Tensor.matmul`, `Adam.step`, ...) with wrappers that time each call, and
wraps the backward closure on every Tensor an op returns, so forward and
backward are timed apart per op kind. Spans nest: a span's self time is its
duration minus the time of the spans opened inside it. Totals are kept in
memory and read when the run ends.

The wrappers only time and count; they pass arguments and results through
untouched, so computed bits are the same with tracing on or off.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from stdac import checkpoint, dac, dataio, nn, stn
from stdac.optim import Adam
from stdac.tensor import Tensor

from workloads import patched


def graph_size(root: Tensor) -> int:
    """Nodes the backward sweep from `root` visits."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    return len(seen)


# Computed counts. An op's hook sees its arguments and result, adds the
# forward counts and returns the counts its backward closure adds if it runs.
# A span's hook sees the call's arguments before the call.

def _conv2d_counts(counts, out, x, kernel, *_):
    n, ho, wo, c_out = out.shape
    kh, kw, c_in, _ = kernel.shape
    flops = 2 * n * ho * wo * kh * kw * c_in * c_out
    counts["nn.conv2d.flops"] += flops
    if out._backward is None:
        return None
    counts["nn.conv2d.cols_bytes"] += 8 * n * ho * wo * kh * kw * c_in
    return {"nn.conv2d.flops": flops * (kernel.requires_grad + x.requires_grad)}


def _batch_norm_counts(counts, out, x, *_):
    counts["nn.batch_norm.bytes"] += 16 * x.size   # float64 input read, output written
    return None


def _backward_counts(counts, loss):
    counts["tensor.backward.nodes"] += graph_size(loss)


def _adam_counts(counts, opt):
    counts["optim.adam.floats"] += sum(p.size for p in opt.params if p.grad is not None)


def _load_checkpoint_counts(counts, path):
    counts["checkpoint.load_bytes"] += os.path.getsize(path)


class Tracer:
    """Self and inclusive time per span name, call counts, and computed counts.

    Use as a context manager: the wrappers are installed on entry and the
    original functions restored on exit.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open: list[float] = []      # child time of each span now open
        ops = [(nn, "conv2d", "nn.conv2d", _conv2d_counts),
               (nn, "batch_norm", "nn.batch_norm", _batch_norm_counts),
               (nn, "maxpool2d", "nn.maxpool2d", None),
               (dac, "softmax_rows", "nn.softmax_rows", None),
               (Tensor, "matmul", "tensor.matmul", None),
               (Tensor, "__matmul__", "tensor.matmul", None),
               (stn, "affine_grid", "stn.affine_grid", None),
               (stn, "bilinear_sample", "stn.bilinear_sample", None)]
        spans = [(Tensor, "backward", "tensor.backward", _backward_counts),
                 (Tensor, "accumulate_grad", "tensor.accumulate_grad", None),
                 (Adam, "step", "optim.adam.step", _adam_counts),
                 (dac.Backbone, "__call__", "dac.forward", None),
                 (stn.SpatialTransformer, "theta", "stn.theta", None),
                 (dac, "generate_pair_labels", "dac.pair_select", None),
                 (dac, "dac_loss", "dac.loss", None),
                 (dac, "augment_batch", "dataio.augment_batch", None),
                 (dac, "clustering_accuracy", "metrics.acc", None),
                 (dac, "nmi", "metrics.nmi", None),
                 (dac, "ari", "metrics.ari", None),
                 (dataio, "load_idx", "dataio.load_idx", None),
                 (dataio, "make_synthetic_glyphs", "dataio.make_synthetic_glyphs", None),
                 (checkpoint, "load_checkpoint", "checkpoint.load", _load_checkpoint_counts)]
        self._replacements = (
            [(owner, attr, self._op(name, getattr(owner, attr), hook))
             for owner, attr, name, hook in ops]
            + [(owner, attr, self._span(name, getattr(owner, attr), hook))
               for owner, attr, name, hook in spans])
        self._installed = None

    def __enter__(self):
        self._installed = patched(self._replacements)
        self._installed.__enter__()
        return self

    def __exit__(self, *exc):
        self._installed.__exit__(*exc)
        self._installed = None

    def _run(self, name, fn, args, kwargs):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._open.pop()
            self.incl_s[name] += dt
            self.self_s[name] += dt - child
            self.calls[name] += 1
            if self._open:
                self._open[-1] += dt

    def _span(self, name, fn, count_hook):
        def wrapper(*args, **kwargs):
            if count_hook:
                count_hook(self.counts, *args)
            return self._run(name, fn, args, kwargs)
        return wrapper

    def _op(self, name, fn, count_hook):
        fwd, bwd_name = name + ".fwd", name + ".bwd"

        def wrapper(*args, **kwargs):
            out = self._run(fwd, fn, args, kwargs)
            bwd_counts = count_hook(self.counts, out, *args) if count_hook else None
            bwd = out._backward
            if bwd is not None:
                def timed_bwd(g):
                    for key, value in (bwd_counts or {}).items():
                        self.counts[key] += value
                    return self._run(bwd_name, bwd, (g,), {})
                out._backward = timed_bwd
            return out
        return wrapper
