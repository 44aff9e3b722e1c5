"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records, for every operation, a closure
that pushes the output gradient back to its parents. Calling ``backward()``
on a scalar walks the graph once in reverse topological order and releases
each interior node as it passes it: the node's gradient, closure and parents
go, so the closure's cached arrays die layer by layer. A second backward that
reaches a released node raises `GraphReleased`. Leaf gradients accumulate
additively until cleared, so backward calls on separate graphs sum there.

Everything is float64. Importing this module sets every loaded OpenBLAS to
one thread through the library's `*_set_num_threads`: its multi-thread GEMMs
round in another order than its one-thread ones, so the bytes of a run would
otherwise depend on the machine's core count. With another BLAS, or none
found, nothing changes.

Training and evaluation use two cores. `both(f, g)` starts a side thread
for `f()` and waits for its result within the call, while the caller runs
`g()`; a thread costs about 0.1 ms, a few ms of a training step. The split is
fixed at two threads, not read from the core count, and each result keeps the
bits of a one-thread run. README's "Threads" says which calls split, by what
rule (`SPLIT_MIN_WORK`, `SPLIT_MIN_FLOATS`) and why no byte moves.
The rules:
  - the side thread does NumPy array work only, in closures over arrays
    and `Adam._update`; it never touches a Tensor, the graph,
    `accumulate_grad` or any public stdac function, so whatever wraps those
    (a tracer, say) sees every call on the caller's thread;
  - gradients are accumulated on the caller, in the order the op names its
    inputs;
  - an exception on the side thread is raised again in the caller.
No side thread outlives its call, so a forked child and a `both` nested on
a side thread need no special case.

Allocator policy: the sweep frees about 700 MB of arrays per training step
that the next forward allocates again. By default glibc hands every block
above its mmap threshold back to the OS and maps it afresh, which costs tens
of thousands of page faults per step. Importing this module therefore asks
glibc's `mallopt`, for this process only, to serve blocks up to 256 MiB from
the heap and never to trim it, so a step reuses the memory the last one
freed, and to keep two heaps (arenas): the caller's, and one that each side
thread takes over from the last once it has exited. In one shared heap,
where a block landed followed the two threads' timing, and a training run's
peak RSS moved by up to 55 MB from one run to the next. A 64 MiB top pad
keeps a side heap that empties mapped, as the trim threshold keeps the
caller's.
One-off blocks above 256 MiB, such as a full corpus, are still mapped and
returned.
With a libc other than glibc nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Iterable

import numpy as np

from .errors import GradientNaN, GraphReleased, ShapeError

# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_freed_memory() -> None:
    """Keep freed per-step arrays in this process (see the module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # above every per-step array: conv2d builds its columns in blocks of
    # about 8 MiB or one kernel offset at a time, so the largest are
    # activations and gradients, such as block1/conv's output (49 MiB at
    # training batch 128, 98 MiB at evaluation batch 256) and the gradient
    # of fc/dense's weight (54 MiB)
    mallopt(_M_MMAP_THRESHOLD, 256 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_TOP_PAD, 64 << 20)
    mallopt(_M_ARENA_MAX, 2)


def _one_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread (see the module docstring)."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = (ctypes.c_int,)
                fn.restype = None
                fn(1)
                break


_keep_freed_memory()
_one_blas_thread()


class _side(threading.Thread):
    """f() on a thread started for this call. exception() and result() wait
    until the thread has exited, so it holds none of the call's arrays and
    has handed its heap on (see "Allocator policy")."""

    def __init__(self, f: Callable):
        super().__init__(target=self._run, args=(f,), name="stdac-side")
        self._value = self._error = None
        self.start()

    def _run(self, f: Callable) -> None:
        try:
            self._value = f()
        except BaseException as exc:
            self._error = exc

    def exception(self) -> BaseException | None:
        self.join()
        # join returns before the OS thread exits; Linux lists it until then
        task = f"/proc/self/task/{self.native_id}"
        for _ in range(100_000):
            if not os.path.exists(task):
                break
        return self._error

    def result(self):
        if self.exception() is not None:
            raise self._error
        return self._value


def both(f: Callable | None, g: Callable | None) -> tuple:
    """(f(), g()), with f() on a thread of its own while g() runs here. A None
    in place of either gives None, and a lone call runs here. If g() raises,
    f() is waited for first, so no side work outlives the call."""
    if f is None or g is None:
        return (None if f is None else f()), (None if g is None else g())
    side = _side(f)
    try:
        here = g()
    except BaseException:
        side.exception()    # waits for f(); g()'s exception is the one raised
        raise
    return side.result(), here


# A row half of a GEMM has the bytes of the same rows of the whole GEMM while
# both run on OpenBLAS's large-matrix path. A product with M*N*K below about
# 1e6 takes its small-matrix path, which rounds otherwise: halving st1's
# loc/conv2 at batch 128 (M=128, K=500, N=20) or head/dense at batch 64
# (M=64, K=3096, N=10) changed their bytes. So a split needs the smaller half
# at 2^24, 16x that bound.
SPLIT_MIN_WORK = 1 << 24


# A per-image pass keeps its bytes however the rows are cut, so its bound is
# the thread start alone: one pass over 2^17 floats (1 MiB) takes about
# 0.05 ms, as long as starting the side thread (0.05-0.1 ms), and a smaller
# half would save less than the thread costs.
SPLIT_MIN_FLOATS = 1 << 17


def split_rows(n: int, row_work: int, run: Callable[[int, int], None],
               elementwise: bool = False) -> None:
    """run(lo, hi) over the rows [0, n): as run(n // 2, n) on the side thread
    beside run(0, n // 2) here when the smaller half's work, n // 2 * row_work,
    reaches its bound, else as run(0, n). A GEMM row's work is its K*N
    multiply-adds, bound by `SPLIT_MIN_WORK`; with `elementwise` it is the
    floats a per-image pass reads per row, bound by `SPLIT_MIN_FLOATS`."""
    h = n // 2
    if h * row_work < (SPLIT_MIN_FLOATS if elementwise else SPLIT_MIN_WORK):
        run(0, n)
    else:
        both(lambda: run(h, n), lambda: run(0, h))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / augmentation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """False inside `no_grad`: ops then record no graph."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcast to reach it from `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the differentiation graph.

    data: float64 ndarray (row-major); grad: same-shape buffer or None;
    requires_grad: whether gradients flow to this node.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple["Tensor", ...] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def result(data: np.ndarray, op: str, parents: Iterable["Tensor"]) -> "Tensor":
        """Wrap an op result; records the graph edge only when grads are on."""
        parents = tuple(parents)
        needs = _grad_enabled and any(p.requires_grad for p in parents)
        if not needs:
            return Tensor(data, requires_grad=False, op=op)
        return Tensor(data, requires_grad=True, op=op, parents=parents)

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- gradient plumbing ---------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add `g` into .grad. A first write may adopt `g` itself as .grad, so
        the caller must not change `g` afterwards, and a caller that passes
        one `g` to two tensors hands the second a view, which is copied."""
        if self.grad is not None:
            self.grad += g
        elif (g.base is None and g.flags.writeable and g.dtype == self.data.dtype
              and g.shape == self.data.shape and g.strides == self.data.strides):
            # a fresh array: adopt it. g + 0.0 has the bits of zeros + g
            # (a -0.0 becomes +0.0).
            self.grad = np.add(g, 0.0, out=g)
        else:
            # a view, or another layout: the buffer takes the layout of data,
            # which later reductions depend on
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))

    def backward(self) -> None:
        """Reverse-mode sweep from a finite scalar; accumulates into the
        leaves' .grad and releases every interior node it passes."""
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if not np.isfinite(self.data.reshape(-1)[0]):
            raise ValueError(f"loss is not finite: {self.item()}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise GraphReleased(f"node op={node.op!r} shape={node.shape} was already "
                                    "swept by an earlier backward; rebuild the graph")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        self.accumulate_grad(np.ones_like(self.data))
        while topo:
            # reverse topological order: a node's gradient is final here
            node = topo.pop()
            g = node.grad
            # max propagates NaN, so this finds one without a bool temporary
            if g is not None and g.size and np.isnan(g.max()):
                raise GradientNaN(f"NaN gradient at node op={node.op!r} shape={node.shape}")
            if node._parents:
                # interior: the closure becomes the gradient's only owner
                bwd = node._backward
                node.grad = node._backward = node._parents = None
                if bwd is not None:
                    bwd(g)

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor.result(self.data + other.data, "add", (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    # a view, so it is copied, not adopted a second time
                    other.accumulate_grad(_unbroadcast(g.view(), other.shape))
            out._backward = bwd
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor.result(-self.data, "neg", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(-g)
        return out

    def __sub__(self, other):
        other = self._lift(other)
        out = Tensor.result(self.data - other.data, "sub", (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(_unbroadcast(g, self.shape))
                if other.requires_grad:
                    other.accumulate_grad(_unbroadcast(-g, other.shape))
            out._backward = bwd
        return out

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor.result(self.data * other.data, "mul", (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(_unbroadcast(g * other.data, self.shape))
                if other.requires_grad:
                    other.accumulate_grad(_unbroadcast(g * self.data, other.shape))
            out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        out = Tensor.result(self.data / other.data, "div", (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(_unbroadcast(g / other.data, self.shape))
                if other.requires_grad:
                    other.accumulate_grad(
                        _unbroadcast(-g * self.data / (other.data * other.data), other.shape))
            out._backward = bwd
        return out

    # -- linear algebra / shaping ----------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ShapeError(f"matmul takes two matrices, got {self.ndim} and {other.ndim} axes")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"matmul inner axes disagree: {self.shape[1]} (lhs axis 1) "
                             f"vs {other.shape[0]} (rhs axis 0)")
        a, b = self.data, other.data
        y = np.empty((a.shape[0], b.shape[1]))
        split_rows(len(a), a.shape[1] * b.shape[1],
                   lambda lo, hi: np.matmul(a[lo:hi], b, out=y[lo:hi]))
        out = Tensor.result(y, "matmul", (self, other))
        if out.requires_grad:
            def bwd(g):
                # the right-hand gradient runs on the side thread
                d_other, d_self = both((lambda: a.T @ g) if other.requires_grad else None,
                                       (lambda: g @ b.T) if self.requires_grad else None)
                if self.requires_grad:
                    self.accumulate_grad(d_self)
                if other.requires_grad:
                    other.accumulate_grad(d_other)
            out._backward = bwd
        return out

    __matmul__ = matmul

    def transpose(self) -> "Tensor":
        out = Tensor.result(self.data.T, "transpose", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g.T)
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        out = Tensor.result(self.data.reshape(*shape), "reshape", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g.reshape(self.shape))
        return out

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = Tensor.result(self.data.sum(axis=axis, keepdims=keepdims), "sum", (self,))
        if out.requires_grad:
            def bwd(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self.accumulate_grad(np.broadcast_to(g, self.shape).copy())
            out._backward = bwd
        return out

    # -- elementwise nonlinearities ---------------------------------------------

    def log(self) -> "Tensor":
        out = Tensor.result(np.log(self.data), "log", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g / self.data)
        return out

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = Tensor.result(y, "sqrt", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g * 0.5 / y)
        return out

    def clamp(self, lo: float, hi: float) -> "Tensor":
        y = np.clip(self.data, lo, hi)
        out = Tensor.result(y, "clamp", (self,))
        if out.requires_grad:
            mask = (self.data >= lo) & (self.data <= hi)
            out._backward = lambda g: self.accumulate_grad(g * mask)
        return out

    def relu(self) -> "Tensor":
        y = np.empty_like(self.data)
        # row views to split; a 0-d tensor is one row
        x, rows_y = np.atleast_1d(self.data, y)
        split_rows(len(x), x[:1].size,
                   lambda lo, hi: np.maximum(x[lo:hi], 0.0, out=rows_y[lo:hi]),
                   elementwise=True)
        out = Tensor.result(y, "relu", (self,))
        if out.requires_grad:
            def bwd(g):
                # y > 0 exactly where x > 0, NaN and -0.0 included; 0 at
                # exactly 0. Split by images like the forward.
                dx = np.empty_like(y)
                rows_g, rows_dx = np.atleast_1d(g, dx)
                split_rows(len(x), x[:1].size,
                           lambda lo, hi: np.multiply(rows_g[lo:hi], rows_y[lo:hi] > 0.0,
                                                      out=rows_dx[lo:hi]),
                           elementwise=True)
                self.accumulate_grad(dx)
            out._backward = bwd
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor.result(y, "tanh", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g * (1.0 - y * y))
        return out
