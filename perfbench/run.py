"""stdac benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ directory beside perfbench/. With
--trace 0 the run measures the end-to-end metrics with no instrumentation.
With --trace 1 it measures the per-layer split: it runs the same steps on two
copies of the program state, one traced and one not, alternating, checks that
both end bit-identical, and reports the difference in step time as the
tracing overhead. Human-readable lines come first; the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: single-threaded runs are the steadier ones on a shared
# 2-core machine, and it must be fixed before NumPy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse
import ctypes
import json
import platform
import resource
import shutil
import signal
import statistics
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "stdac" / "__init__.py").is_file():
    sys.exit(f"perfbench: no stdac package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import stdac
from stdac.errors import NoSelectedPairs

import workloads
from tracer import Tracer
from workloads import BATCH, CheckFailed

if Path(stdac.__file__).resolve().parent != SRC / "stdac":
    sys.exit(f"perfbench: imported stdac from {stdac.__file__}, not from {SRC}")

TAIL_BEYOND = 10
# At least 11 timed operations, so that the step_s.tail report line has 10
# samples beyond it.
MIN_STEPS = TAIL_BEYOND + 1
MIN_TRACED_STEPS = 3
# Keeps a slow machine within the 180 s a run may take.
MAX_MEASURE_S = 110.0
# A broken program stops the run after this many failed operations.
MAX_FAILED = 10
# The training loss is the mean over this many first timed steps: a fixed
# count, so it repeats exactly for a seed however fast the machine is.
LOSS_STEPS = 3

# per-layer metric -> span whose self time per operation it reports
SELF_TIME = {
    "nn.conv2d.fwd_s": "nn.conv2d.fwd", "nn.conv2d.bwd_s": "nn.conv2d.bwd",
    "nn.batch_norm.fwd_s": "nn.batch_norm.fwd", "nn.batch_norm.bwd_s": "nn.batch_norm.bwd",
    "nn.maxpool2d.fwd_s": "nn.maxpool2d.fwd", "nn.maxpool2d.bwd_s": "nn.maxpool2d.bwd",
    "nn.softmax_rows.fwd_s": "nn.softmax_rows.fwd",
    "nn.softmax_rows.bwd_s": "nn.softmax_rows.bwd",
    "tensor.matmul.fwd_s": "tensor.matmul.fwd", "tensor.matmul.bwd_s": "tensor.matmul.bwd",
    "tensor.accumulate_grad.s": "tensor.accumulate_grad",
    "tensor.backward.s": "tensor.backward",
    "optim.adam.step_s": "optim.adam.step",
    "stn.affine_grid.fwd_s": "stn.affine_grid.fwd",
    "stn.affine_grid.bwd_s": "stn.affine_grid.bwd",
    "stn.bilinear_sample.fwd_s": "stn.bilinear_sample.fwd",
    "stn.bilinear_sample.bwd_s": "stn.bilinear_sample.bwd",
    "dac.pair_select_s": "dac.pair_select",
    "dac.loss_s": "dac.loss",
    "metrics.acc_s": "metrics.acc", "metrics.nmi_s": "metrics.nmi",
    "metrics.ari_s": "metrics.ari",
}
# Stages that wrap whole sub-networks report inclusive time per step.
INCLUSIVE_TIME = {"dac.forward_s": "dac.forward", "stn.theta_s": "stn.theta",
                  "dataio.augment_batch_s": "dataio.augment_batch"}
# Set-up calls report inclusive seconds per call.
PER_CALL_TIME = {"dataio.load_idx_s": "dataio.load_idx",
                 "dataio.make_synthetic_glyphs_s": "dataio.make_synthetic_glyphs",
                 "checkpoint.load_s": "checkpoint.load"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "blas_threads_requested": BLAS_THREADS,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it, as (value,
    percentile, samples beyond); the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * k / max(n - 1, 1), n - 1 - k


def measuring(start, seconds, done, minimum):
    """Whether to run another operation: for `seconds`, then on until
    `minimum` are done, but never past MAX_MEASURE_S."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (done < minimum and elapsed < MAX_MEASURE_S)


class Run:
    """One caller's closed loop: runs operations one after another and counts
    attempted, failed and skipped ones."""

    def __init__(self, workload, capture):
        self.wl = workload
        self.capture = capture
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.losses = {}

    def step(self, state, i):
        """Run and check operation i: (seconds, outcome), or None if it was
        skipped or failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = self.wl.step(state, i, self.capture)
            dt = time.perf_counter() - t0
            self.wl.check(out)
        except NoSelectedPairs:
            self.skipped += 1
            return None
        except CheckFailed as exc:
            self.failed += 1
            print(f"perfbench: check failed at operation {i}: {exc}", file=sys.stderr)
            return None
        except Exception:
            self.failed += 1
            print(f"perfbench: operation {i} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        self.losses[i] = out.loss
        return dt, out

    def train_loss(self):
        """Mean loss of timed steps 1..LOSS_STEPS (step 0 is the warm-up)."""
        losses = [self.losses.get(i, float("nan")) for i in range(1, LOSS_STEPS + 1)]
        return statistics.fmean(losses)

    def report(self):
        lines = [f"failed_ratio {self.failed}/{self.attempted} = "
                 f"{self.failed / max(self.attempted, 1):.4g}",
                 f"skipped_batches {self.skipped}"]
        if self.wl.kind == "train":
            lines.append(f"train_loss {self.train_loss():.17g} nats "
                         f"(mean of timed steps 1..{LOSS_STEPS})")
        return lines


def run_untraced(wl, capture, seconds):
    """Time the set-ups and the operation loop, with no instrumentation.

    A spare set-up, timed and then dropped, runs before each timed operation.
    The shared host's speed drifts from one half-minute to the next, so the
    set-ups are spread over the loop to sample the same stretch of time as
    the operations, not a burst of it at the start."""
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = [time.perf_counter() - t0]

    run = Run(wl, capture)
    run.step(state, 0)          # warm-up: first-touch pages and lazy BLAS set-up
    step_s, images = [], 0
    i = 1
    start = time.perf_counter()
    while run.failed < MAX_FAILED and measuring(start, seconds, run.attempted - 1, MIN_STEPS):
        t0 = time.perf_counter()
        spare = wl.setup()
        setup_s.append(time.perf_counter() - t0)
        del spare               # gone before the operation, so peak memory holds one state
        done = run.step(state, i)
        i += 1
        if done is not None:
            step_s.append(done[0])
            images += done[1].images
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not step_s:
        return run, {}, run.report()

    tail_s, tail_pct, beyond = tail(step_s)
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "img_per_s": (images / sum(step_s), "images/s"),
               "step_s.p50": (statistics.median(step_s), "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    report = [f"setup_s is the median of {len(setup_s)} set-ups, one before the warm-up "
              "and a spare one before each timed operation: "
              + " ".join(f"{t:.4f}" for t in setup_s),
              f"img_per_s counts {images} images over {sum(step_s):.3f} s of timed "
              f"{wl.kind} operations",
              # a report line, not a metric: a run this short has too few
              # operations for a steady tail
              f"step_s.tail {tail_s:.4f} s, p{tail_pct:.1f} of n={len(step_s)}, "
              f"{beyond} samples beyond it",
              "step_s samples " + " ".join(f"{t:.4f}" for t in step_s),
              "peak_rss_mb is getrusage ru_maxrss of this process"]
    return run, metrics, report + run.report()


def run_traced(wl, capture, seconds):
    """Alternate traced and untraced operations on two equal copies of the
    state, and check that both compute the same bits."""
    setup_tracer, tracer = Tracer(), Tracer()
    with setup_tracer:
        state_a = wl.setup()
    state_b = state_a if wl.kind == "eval" else wl.setup()   # eval leaves state alone

    traced, plain = Run(wl, capture), Run(wl, capture)
    traced.step(state_a, 0)
    plain.step(state_b, 0)
    traced_s, plain_s, selected, mismatches = [], [], [], 0
    i = 1
    start = time.perf_counter()
    while (traced.failed + plain.failed < MAX_FAILED
           and measuring(start, seconds, traced.attempted - 1, MIN_TRACED_STEPS)):
        with tracer:
            a = traced.step(state_a, i)
        b = plain.step(state_b, i)
        i += 1
        if a is None or b is None:
            continue
        traced_s.append(a[0])
        plain_s.append(b[0])
        selected.append(a[1].selected_fraction)
        mismatches += outcome_bytes(a[1]) != outcome_bytes(b[1])
    mismatches += workloads.state_bytes(state_a) != workloads.state_bytes(state_b)
    if mismatches:
        print(f"perfbench: traced and untraced runs differ in {mismatches} comparisons",
              file=sys.stderr)

    tracemalloc.start()
    plain.step(state_b, i)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    # one report for both copies: every operation and every mismatch counts
    run = traced
    run.attempted += plain.attempted
    run.failed += plain.failed + mismatches
    if not traced_s:
        return run, {}, run.report()

    steps = len(traced_s)
    is_train = wl.kind == "train"
    metrics = {k: (tracer.self_s[span] / steps, "s") for k, span in SELF_TIME.items()}
    metrics.update({k: (tracer.incl_s[span] / steps, "s")
                    for k, span in INCLUSIVE_TIME.items()})
    metrics.update({k: (setup_tracer.incl_s[span] / max(setup_tracer.calls[span], 1), "s")
                    for k, span in PER_CALL_TIME.items()})
    metrics.update({
        "tensor.accumulate_grad.calls": (tracer.calls["tensor.accumulate_grad"] / steps,
                                         "count"),
        "tensor.backward.nodes": (tracer.counts["tensor.backward.nodes"] / steps, "count"),
        "nn.conv2d.flops": (tracer.counts["nn.conv2d.flops"] / steps, "flop"),
        "nn.conv2d.cols_mb": (tracer.counts["nn.conv2d.cols_bytes"] / steps / 2**20, "MB"),
        "nn.batch_norm.bytes": (tracer.counts["nn.batch_norm.bytes"] / steps, "bytes"),
        "optim.adam.floats": (tracer.counts["optim.adam.floats"] / steps, "count"),
        "checkpoint.load_bytes": (setup_tracer.counts["checkpoint.load_bytes"]
                                  / max(setup_tracer.calls["checkpoint.load"], 1), "bytes"),
        "mem.tracemalloc_peak_mb": (peak_mb, "MB"),
        "dac.selected_fraction": (statistics.fmean(selected) if is_train else 0.0, "ratio"),
        "dac.pairs_attempted": (BATCH * BATCH * steps if is_train else 0, "count"),
        "dac.skipped_batches": (run.skipped, "count"),
        "dac.train_loss": (run.train_loss() if is_train else 0.0, "nats"),
        "trace.steps": (steps, "count"),
        "trace.step_s": (statistics.median(traced_s), "s"),
        "trace.overhead_s": (statistics.median(a - b for a, b in zip(traced_s, plain_s)), "s"),
        "trace.mismatches": (mismatches, "count"),
    })
    report = [f"per-step values are per traced {wl.kind} operation, over {steps} of them",
              "nn.conv2d.flops, nn.conv2d.cols_mb, nn.batch_norm.bytes and "
              "optim.adam.floats are computed from layer shapes, not measured",
              f"trace.overhead_s is the median of traced minus untraced time over "
              f"adjacent pairs; medians {statistics.median(traced_s):.4f} s traced, "
              f"{statistics.median(plain_s):.4f} s untraced",
              f"trace.mismatches counts traced/untraced outputs and end states that "
              f"differ in any bit: {mismatches}"]
    return run, metrics, report + run.report()


def outcome_bytes(out):
    """Everything an operation computed, as bytes, for the bit-identity check."""
    parts = [np.float64(out.loss).tobytes(), out.features.tobytes()]
    if out.scores is not None:
        parts += [np.array(out.scores, dtype=np.float64).tobytes(), out.ids.tobytes()]
    return b"".join(parts)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    capture = workloads.Capture()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        wl.prepare(workdir)
        with capture.hooks():
            measure = run_traced if args.trace else run_untraced
            run, metrics, report = measure(wl, capture, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine " + json.dumps(machine_facts()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for line in report:
        print("  " + line)
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
