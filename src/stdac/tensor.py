"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and records, for every operation, a closure
that pushes the output gradient back to its parents. Calling ``backward()``
on a scalar walks the graph once in reverse topological order and releases
each interior node as it passes it: the node's gradient, closure and parents
go, so the closure's cached arrays die layer by layer. A second backward that
reaches a released node raises `GraphReleased`. Leaf gradients accumulate
additively until cleared, so backward calls on separate graphs sum there.

Everything is float64 and single-threaded apart from BLAS matmul, whose
reduction order is fixed for a given shape, keeping runs bit-reproducible.

Allocator policy: the sweep frees about 700 MB of arrays per training step
that the next forward allocates again. By default glibc hands every block
above its mmap threshold back to the OS and maps it afresh, which costs tens
of thousands of page faults per step. Importing this module therefore asks
glibc's `mallopt`, for this process only, to serve blocks up to 256 MiB from
the heap and never to trim it, so a step reuses the memory the last one
freed. One-off blocks above 256 MiB, such as a full corpus, are still mapped
and returned. With a libc other than glibc nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
from typing import Iterable

import numpy as np

from .errors import GradientNaN, GraphReleased, ShapeError

# glibc mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed per-step arrays in this process (see the module docstring)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # above the largest per-step array, the im2col columns of block2/conv at
    # evaluation batch 256: 220.5 MiB
    mallopt(_M_MMAP_THRESHOLD, 256 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()

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

    def __rtruediv__(self, other):
        return self._lift(other) / self

    # -- linear algebra / shaping ----------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        if self.shape[-1] != other.shape[0]:
            raise ShapeError(
                f"matmul inner axes disagree: {self.shape[-1]} (lhs axis {self.ndim - 1}) "
                f"vs {other.shape[0]} (rhs axis 0)")
        out = Tensor.result(self.data @ other.data, "matmul", (self, other))
        if out.requires_grad:
            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(g @ other.data.T)
                if other.requires_grad:
                    other.accumulate_grad(self.data.T @ g)
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
        out = Tensor.result(np.maximum(self.data, 0.0), "relu", (self,))
        if out.requires_grad:
            # derivative taken as 0 at exactly 0
            mask = self.data > 0.0
            out._backward = lambda g: self.accumulate_grad(g * mask)
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor.result(y, "tanh", (self,))
        if out.requires_grad:
            out._backward = lambda g: self.accumulate_grad(g * (1.0 - y * y))
        return out
