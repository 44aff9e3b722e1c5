"""Network building blocks: conv / pool / dense / batch norm / softmax.

Layout conventions: activations are NHWC (batch, height, width, channels),
conv kernels are (kh, kw, c_in, c_out), dense weights are (d_in, d_out).
All convolutions run at stride 1; padding is 'same' (symmetric zeros) or
'valid'. Pooling is non-overlapping with floor division of the spatial size.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import CheckpointError, ConfigurationError, ShapeError
from .tensor import SPLIT_MIN_WORK, Tensor, both, row_halves, split_rows

# ---------------------------------------------------------------------------
# parameters and initialization


class Parameter(Tensor):
    """A named trainable tensor; names are unique within a model. The data is
    C-contiguous, so the optimizer can update it through a flat view."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(np.ascontiguousarray(data, dtype=np.float64),
                         requires_grad=True, op="param")
        self.name = name


def param_rng(seed: int | None, name: str) -> np.random.Generator | None:
    """Generator keyed by (seed, parameter name), or None for a None seed.

    Keying on the name rather than creation order keeps shared layers
    identically initialized across model variants that add or drop other
    layers (the spatial-transformer ablations). With None, the initializers
    draw nothing and leave their arrays unset (`dac.Backbone`).
    """
    if seed is None:
        return None
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return np.empty(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], fan_in: int,
              rng: np.random.Generator | None) -> np.ndarray:
    if rng is None:
        return np.empty(shape)
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# convolution


# conv2d builds its im2col columns, and backward its input-gradient columns,
# one block of images at a time: about this many floats (8 MiB), so a
# block's columns are still in cache when its GEMM reads them. 2^19 to 2^20
# ran fastest in a sweep over 2^17 to 2^22. A block is a row block of the
# whole GEMM, so it keeps the bytes of those rows while it has at least
# SPLIT_MIN_WORK multiply-adds (README, "Threads").
COLS_BLOCK_FLOATS = 1 << 20


def _pad_amounts(k: int) -> tuple[int, int]:
    # symmetric for odd kernels; one extra on the trailing side for even ones
    total = k - 1
    before = total // 2
    return before, total - before


class _Im2col:
    """A stride-1 conv of the NHWC array x by an HWIO kernel, its arguments
    checked, as a GEMM of im2col columns by the kernel, one block of images
    at a time. A block takes COLS_BLOCK_FLOATS of columns, and of output
    rows too with `rows_in_block`, but at least SPLIT_MIN_WORK
    multiply-adds, above OpenBLAS's small-matrix bound."""

    def __init__(self, x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, padding: str,
                 rows_in_block: bool = False):
        if x.ndim != 4:
            raise ShapeError(f"conv2d input must be NHWC, got {x.ndim} axes")
        if kernel.ndim != 4:
            raise ShapeError(f"conv2d kernel must be (kh, kw, c_in, c_out), got {kernel.ndim} axes")
        n, h, w, c_in = x.shape
        kh, kw, kc_in, c_out = kernel.shape
        if kh < 1 or kw < 1:
            raise ShapeError(f"kernel spatial size must be >= 1, got {kh}x{kw}")
        if kc_in != c_in:
            raise ShapeError(f"channel axis mismatch: input has {c_in} channels (axis 3), "
                             f"kernel expects {kc_in} (axis 2)")
        if bias.shape != (c_out,):
            raise ShapeError(f"bias axis 0 must equal c_out={c_out}, got shape {bias.shape}")
        if padding == "same":
            (pt, pb), (pl, pr) = _pad_amounts(kh), _pad_amounts(kw)
        elif padding == "valid":
            pt = pb = pl = pr = 0
            if h < kh or w < kw:
                raise ShapeError(f"valid conv needs input >= kernel: {h}x{w} vs {kh}x{kw}")
        else:
            raise ConfigurationError(f"unknown padding mode: {padding!r}")
        self.x, self.bias, self.window = x, bias, (kh, kw)
        self.pads = ((0, 0), (pt, pb), (pl, pr), (0, 0))
        self.padded, self.crop = (h + pt + pb, w + pl + pr, c_in), np.s_[:, pt:pt + h, pl:pl + w]
        self.shape = (n, h + pt + pb - kh + 1, w + pl + pr - kw + 1, c_out)
        self.pixels, self.depth = self.shape[1] * self.shape[2], kh * kw * c_in
        self.wmat = kernel.reshape(self.depth, c_out)
        self.work = self.pixels * self.depth * c_out    # multiply-adds an image
        floats = self.pixels * (self.depth + rows_in_block * c_out)
        self.per_block = max(COLS_BLOCK_FLOATS // max(floats, 1),
                             -(-SPLIT_MIN_WORK // max(self.work, 1)))

    def columns(self, lo: int, hi: int, scratch=None) -> np.ndarray:
        """The columns of images lo..hi: rows are output pixels, columns run
        (i, j, c_in). With `scratch`, the padded input and the columns are
        built at the start of its first two buffers."""
        if scratch is None:
            xp = np.pad(self.x[lo:hi], self.pads)
        else:
            xp = scratch[0][:hi - lo]
            xp[self.crop] = self.x[lo:hi]
        view = (np.lib.stride_tricks.sliding_window_view(xp, self.window, axis=(1, 2))
                .transpose(0, 1, 2, 4, 5, 3))
        if scratch is None:
            return view.reshape((hi - lo) * self.pixels, self.depth)    # the one copy
        cols = scratch[1][:(hi - lo) * self.pixels]
        np.copyto(cols.reshape(view.shape), view)
        return cols

    def blocks(self, lo: int, hi: int):
        # near-equal blocks of the images lo..hi, none below per_block; a
        # range under 2 * per_block is one block
        count = max((hi - lo) // self.per_block, 1)
        edges = [lo + (hi - lo) * k // count for k in range(count + 1)]
        return zip(edges, edges[1:])

    def scratch(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Buffers for the largest block of the images lo..hi: its zeroed
        padded input, its columns and its output rows."""
        m = max(b - a for a, b in self.blocks(lo, hi))
        return (np.zeros((m,) + self.padded), np.empty((m * self.pixels, self.depth)),
                np.empty((m * self.pixels, self.shape[3])))

    def forward(self, lo: int, hi: int, out=None, scratch=None, tail=None) -> None:
        """The output rows of the images lo..hi, one block (a, b) at a time:
        into the rows of `out`, the whole output, that hold images a..b, or
        into the start of `scratch` (`scratch(lo, hi)`), followed by
        tail(a, b, rows)."""
        p = self.pixels
        for a, b in self.blocks(lo, hi):
            rows = out[a * p:b * p] if scratch is None else scratch[2][:(b - a) * p]
            np.matmul(self.columns(a, b, scratch), self.wmat, out=rows)
            rows += self.bias
            if tail is not None:
                tail(a, b, rows)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """Stride-1 cross-correlation of an NHWC batch with an HWIO kernel."""
    conv = _Im2col(x.data, kernel.data, bias.data, padding)
    n, h, w, c_in = x.shape
    kh, kw, _, c_out = kernel.shape
    _, ho, wo, _ = conv.shape
    (pt, _), (pl, _) = conv.pads[1:3]
    pixels, wmat, xd = conv.pixels, conv.wmat, x.data
    y = np.empty((n * pixels, c_out))
    # each block's padded input and columns die with its GEMM
    split_rows(n, conv.work, lambda lo, hi: conv.forward(lo, hi, out=y))
    y = y.reshape(n, ho, wo, c_out)

    out = Tensor.result(y, "conv2d", (x, kernel, bias))
    if out.requires_grad:
        def bwd(g):
            g2 = g.reshape(n * ho * wo, c_out)

            def kernel_grad():
                # built from x rather than from cached columns: kh*kw times
                # the input per conv would otherwise stay alive from forward
                # to backward (about 175 MB of a batch-128 graph). The GEMMs
                # sum over the rows, so they are neither split nor blocked.
                if c_in == 1 or n * pixels * c_in * c_out < SPLIT_MIN_WORK:
                    # one GEMM over the whole columns: an offset's product
                    # would be a GEMV (c_in = 1) or below OpenBLAS's
                    # small-matrix bound, and round otherwise
                    return (conv.columns(0, n).T @ g2).reshape(kh, kw, c_in, c_out)
                # one GEMM per kernel offset (i, j) over the padded input's
                # shifted window: the rows (i, j, :) of the whole columns'
                # GEMM with their bits, and one window's copy at a time
                xp = np.pad(xd, conv.pads)
                dk = np.empty((kh, kw, c_in, c_out))
                for i in range(kh):
                    for j in range(kw):
                        dk[i, j] = xp[:, i:i + ho, j:j + wo].reshape(-1, c_in).T @ g2
                return dk

            def input_grad():
                dx = np.zeros(xd.shape)
                for a, b in conv.blocks(0, n):
                    dcols = np.matmul(g2[a * pixels:b * pixels], wmat.T).reshape(
                        b - a, ho, wo, kh, kw, c_in)
                    # col2im into the unpadded dx: offset (i, j) covers padded
                    # rows i..i+ho and columns j..j+wo, clipped to the crop at
                    # (pt, pl); each element gets its additions in (i, j) order
                    dxb = dx[a:b]
                    for i in range(kh):
                        r0, r1 = max(i, pt), min(i + ho, pt + h)
                        for j in range(kw):
                            c0, c1 = max(j, pl), min(j + wo, pl + w)
                            if r0 < r1 and c0 < c1:
                                dxb[:, r0 - pt:r1 - pt, c0 - pl:c1 - pl, :] += \
                                    dcols[:, r0 - i:r1 - i, c0 - j:c1 - j, i, j, :]
                return dx

            # the kernel gradient runs on the side thread beside the input's
            dk, dx = both(kernel_grad if kernel.requires_grad else None,
                          input_grad if x.requires_grad else None)
            if kernel.requires_grad:
                kernel.accumulate_grad(dk)
            if bias.requires_grad:
                bias.accumulate_grad(g2.sum(axis=0))
            if x.requires_grad:
                x.accumulate_grad(dx)
        out._backward = bwd
    return out


def maxpool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 max pooling; a trailing row/col that does not fill
    a window is dropped. Gradient routes to the first maximum in each window
    (row-major scan), which keeps replays deterministic under ties; a NaN
    window's max is NaN and gets no gradient."""
    n, h, w, c = _pool_shape(x.shape)
    xd = x.data
    # the output is filled below, once it is known whether backward can run
    out = Tensor.result(np.empty((n, h // 2, w // 2, c)), "maxpool2d", (x,))
    y = out.data
    first = np.empty(y.shape, np.uint8) if out.requires_grad else None

    def forward(lo, hi):
        _pool(xd[lo:hi], y[lo:hi], None if first is None else first[lo:hi])

    # a window never crosses an image, so the threads share no window
    split_rows(n, h * w * c, forward, elementwise=True)
    if out.requires_grad:
        def bwd(g):
            dx = np.empty_like(xd)
            split_rows(n, h * w * c, lambda lo, hi: _route(g[lo:hi], first[lo:hi], dx[lo:hi]),
                       elementwise=True)
            x.accumulate_grad(dx)
        out._backward = bwd
    return out


def _pool_shape(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """An NHWC shape, checked for 2x2 pooling."""
    if len(shape) != 4:
        raise ShapeError(f"maxpool2d input must be NHWC, got {len(shape)} axes")
    n, h, w, c = shape
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d needs spatial size >= 2, got {h}x{w}")
    return n, h, w, c


def _pool(a: np.ndarray, out: np.ndarray, first: np.ndarray | None) -> None:
    """The max of each 2x2 window of the NHWC array `a` into `out`, taken in
    row-major order; a NaN in a window makes its max NaN. Unless `first` is
    None, also the uint8 offset of the first window view equal to that max
    into `first`, or 4 where none is (a NaN window)."""
    views = _windows(a)
    np.maximum(views[0], views[1], out=out)
    for v in views[2:]:
        np.maximum(out, v, out=out)
    if first is None:
        return
    hit, step = np.empty(out.shape, bool), np.empty(out.shape, np.uint8)
    first[...] = 4
    for k in (3, 2, 1, 0):
        # first = k where view k equals the max: first -= hit * (first - k),
        # as first > k here; a masked copy took 5x as long
        np.equal(views[k], out, out=hit)
        np.multiply(np.subtract(first, k, out=step), hit, out=step)
        first -= step


def _route(d: np.ndarray, first: np.ndarray, dx: np.ndarray) -> None:
    """The pooled gradient `d` into the NHWC array `dx` at each window's
    offset `first` (from `_pool`); zeros at the other offsets and in the
    cropped rows and columns. d * False is -0.0 where d < 0."""
    hc, wc = dx.shape[1] // 2 * 2, dx.shape[2] // 2 * 2
    dx[:, hc:] = 0.0
    dx[:, :, wc:] = 0.0
    for k, v in enumerate(_windows(dx)):
        np.multiply(d, first == k, out=v)


def _windows(a: np.ndarray) -> list[np.ndarray]:
    """Strided views of an NHWC array, one per 2x2 window offset in row-major
    order, each holding that offset of every non-overlapping window; a row
    or column that does not fill a window is cropped."""
    hc, wc = a.shape[1] // 2 * 2, a.shape[2] // 2 * 2
    return [a[:, i:hc:2, j:wc:2, :] for i in range(2) for j in range(2)]


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias for a (batch, d_in) input."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"dense input axis 1 is {x.shape[-1]}, weight expects {weight.shape[0]}")
    return x.matmul(weight) + bias


def softmax_rows(x: Tensor) -> Tensor:
    """Row softmax with max-subtraction for stability."""
    if x.shape[-1] < 2:
        raise ShapeError("softmax needs at least 2 columns")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor.result(p, "softmax", (x,))
    if out.requires_grad:
        def bwd(g):
            dot = (g * p).sum(axis=-1, keepdims=True)
            x.accumulate_grad(p * (g - dot))
        out._backward = bwd
    return out


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm (rows must be nonzero)."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    return x / sq.sqrt()


BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               train: bool) -> Tensor:
    """Per-channel batch normalization over all axes but the last.

    Train mode normalizes by batch statistics (population variance) and
    updates the running buffers in place:
        running <- BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch.
    Eval mode normalizes by the running buffers.
    """
    y, mu, inv_std = _bn_forward(x.data, gamma.data, beta.data, running_mean,
                                 running_var, train)
    out = Tensor.result(y, "batch_norm", (x, gamma, beta))
    if out.requires_grad:
        out._backward = lambda g: _bn_backward(x, gamma, beta, g, mu, inv_std, train,
                                               np.empty_like(x.data))
    return out


def _bn_forward(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                running_mean: np.ndarray, running_var: np.ndarray,
                train: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`batch_norm`'s forward on arrays: its output, a new array, and the
    per-channel mean and 1/std that `_bn_backward` takes."""
    if xd.shape[-1] != gamma.shape[0]:
        raise ShapeError(f"batch_norm channel axis is {xd.shape[-1]}, "
                         f"gamma has {gamma.shape[0]}")
    axes = tuple(range(xd.ndim - 1))
    m = xd.size // xd.shape[-1]
    n = xd.shape[0]
    # each per-image pass runs in row halves on both threads; each reduction
    # over the channels stays one call on the whole buffer, as it rounds
    # otherwise
    row = xd[:1].size
    if train:
        if n < 2:
            raise ShapeError("batch_norm train mode needs batch size >= 2 "
                             "(variance undefined for a single sample)")
        mu = xd.mean(axis=axes)
        # np.var's own arithmetic; the squares' buffer then takes y
        xc, ybuf = np.empty_like(xd), np.empty_like(xd)

        def centre(lo, hi):
            np.subtract(xd[lo:hi], mu, out=xc[lo:hi])
            np.square(xc[lo:hi], out=ybuf[lo:hi])

        split_rows(n, row, centre, elementwise=True)
        var = ybuf.sum(axis=axes) / m
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        # a copy: a later train-mode call may update the buffer before backward
        mu, var = running_mean.copy(), running_var
        xc = ybuf = np.empty_like(xd)

    inv_std = 1.0 / np.sqrt(var + BN_EPS)

    def scale_shift(lo, hi):
        xhat = xc[lo:hi]
        if not train:
            np.subtract(xd[lo:hi], mu, out=xhat)
        xhat *= inv_std
        yh = np.multiply(xhat, gamma, out=ybuf[lo:hi])
        yh += beta

    split_rows(n, row, scale_shift, elementwise=True)
    return ybuf, mu, inv_std


def _bn_backward(x: Tensor, gamma: Tensor, beta: Tensor, g: np.ndarray,
                 mu: np.ndarray, inv_std: np.ndarray, train: bool,
                 dx: np.ndarray) -> None:
    """`batch_norm`'s backward for the output gradient g: accumulates the
    gradient of each of x, gamma and beta that requires one, x's built in
    the buffer dx, which may be g itself."""
    xd = x.data
    axes = tuple(range(xd.ndim - 1))
    m, n, row = xd.size // xd.shape[-1], xd.shape[0], xd[:1].size
    # xhat again, with forward's two roundings: the graph keeps C floats of
    # mu and inv_std, not an input-sized array. One buffer takes xhat * g
    # and later xhat * (gx/m), so backward holds one array the size of x
    # beside g and dx.
    buf = np.empty_like(xd)

    def xhat_times(v, lo, hi):
        xh = np.subtract(xd[lo:hi], mu, out=buf[lo:hi])
        xh *= inv_std
        xh *= v
        return xh

    split_rows(n, row, lambda lo, hi: xhat_times(g[lo:hi], lo, hi), elementwise=True)
    # the sum of g runs on the side thread beside the sum of g * xhat
    gsum, gx = both(lambda: g.sum(axis=axes), lambda: buf.sum(axis=axes))
    if gamma.requires_grad:
        gamma.accumulate_grad(gx)
    if beta.requires_grad:
        beta.accumulate_grad(gsum)
    if x.requires_grad and train:
        gx_m, gsum_m, scale = gx / m, gsum / m, gamma.data * inv_std

        def tail(lo, hi):
            # ((g - gsum/m) - xhat*(gx/m)) * (gamma*inv_std)
            gxh = xhat_times(gx_m, lo, hi)
            d = np.subtract(g[lo:hi], gsum_m, out=dx[lo:hi])
            d -= gxh
            d *= scale

        split_rows(n, row, tail, elementwise=True)
        x.accumulate_grad(dx)
    elif x.requires_grad:
        np.multiply(g, gamma.data, out=dx)
        dx *= inv_std
        x.accumulate_grad(dx)


# ---------------------------------------------------------------------------
# layer objects (thin state holders over the functional ops)


class Module:
    """Base of every layer and model. Its `Parameter`s and child `Module`s are
    found among its attributes, in assignment order; that order is the order
    of `params()`, of `buffers()` and of the checkpoint records."""

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for v in vars(self).values():
            if isinstance(v, Parameter):
                out.append(v)
            elif isinstance(v, Module):
                out.extend(v.params())
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        """Named state that is not trained, such as BN running statistics."""
        return [b for v in vars(self).values() if isinstance(v, Module)
                for b in v.buffers()]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter, then every buffer, by name."""
        state = {p.name: p.data.copy() for p in self.params()}
        for name, buf in self.buffers():
            state[name] = buf.copy()
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into the model in place; its names and shapes must
        match the model's exactly, and are all checked before any value is
        written, so a failed load leaves the model as it was."""
        own = {p.name: p.data for p in self.params()}
        own.update(self.buffers())
        if set(state) != set(own):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise CheckpointError(f"state does not match model: missing {missing}, "
                                  f"unexpected {extra}")
        for name, arr in state.items():
            if own[name].shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: "
                                      f"model {own[name].shape}, checkpoint {arr.shape}")
        for name, arr in state.items():
            own[name][...] = arr


class Conv2d(Module):
    def __init__(self, kh: int, kw: int, c_in: int, c_out: int, name: str,
                 seed: int | None, padding: str = "same", init: str = "he"):
        rng = param_rng(seed, name)
        fan_in = kh * kw * c_in
        fan_out = kh * kw * c_out
        if init == "he":
            k = he_normal((kh, kw, c_in, c_out), fan_in, rng)
        else:
            k = glorot_uniform((kh, kw, c_in, c_out), fan_in, fan_out, rng)
        self.kernel = Parameter(k, f"{name}/kernel")
        self.bias = Parameter(np.zeros(c_out), f"{name}/bias")
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.kernel, self.bias, self.padding)


class Dense(Module):
    def __init__(self, d_in: int, d_out: int, name: str, seed: int | None, init: str = "he"):
        rng = param_rng(seed, name)
        if init == "he":
            w = he_normal((d_in, d_out), d_in, rng)
        else:
            w = glorot_uniform((d_in, d_out), d_in, d_out, rng)
        self.weight = Parameter(w, f"{name}/weight")
        self.bias = Parameter(np.zeros(d_out), f"{name}/bias")

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)


class BatchNorm(Module):
    """Learned scale/shift plus running statistics for eval mode."""

    def __init__(self, channels: int, name: str):
        self.gamma = Parameter(np.ones(channels), f"{name}/gamma")
        self.beta = Parameter(np.zeros(channels), f"{name}/beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.name = name

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{self.name}/running_mean", self.running_mean),
                (f"{self.name}/running_var", self.running_var)]

    def __call__(self, x: Tensor, train: bool = True) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean,
                          self.running_var, train)


def bn_relu_pool(x: Tensor, bn: BatchNorm, train: bool) -> Tensor:
    """`maxpool2d(bn(x, train).relu())`, the tail of a conv block, as one
    graph node with parents (x, gamma, beta) and the bytes of
    `maxpool2d(bn(x, train)).relu()`: its output, the running buffers and
    every gradient. Max commutes with ReLU, so the values are those of the
    BN -> ReLU -> pool order. The gradient, masked by the ReLU, takes
    `maxpool2d`'s route to the first maximum of the BN output; a zero's sign
    there can reach only zeros of the gradients, which `accumulate_grad`
    makes +0.0. The BN output and the pooled map before the ReLU die in
    forward; the node keeps x, BN's per-channel mean and 1/std, the window
    offset of each first maximum as a uint8, and its output.
    """
    gamma, beta = bn.gamma, bn.beta
    n, h, w, c = _pool_shape(x.shape)
    xd = x.data
    y, mu, inv_std = _bn_forward(xd, gamma.data, beta.data, bn.running_mean,
                                 bn.running_var, train)
    # the output is filled below, once it is known whether backward can run
    out = Tensor.result(np.empty((n, h // 2, w // 2, c)), "bn_relu_pool", (x, gamma, beta))
    pooled = out.data
    first = np.empty(pooled.shape, np.uint8) if out.requires_grad else None

    def forward(lo, hi):
        p = pooled[lo:hi]
        _pool(y[lo:hi], p, None if first is None else first[lo:hi])
        np.maximum(p, 0.0, out=p)

    # a window never crosses an image, so the threads share no window
    split_rows(n, h * w * c, forward, elementwise=True)
    if out.requires_grad:
        def bwd(g):
            gy = np.empty_like(xd)

            def route(lo, hi):
                # the ReLU mask, then the route to each first maximum
                _route(np.multiply(g[lo:hi], pooled[lo:hi] > 0.0), first[lo:hi], gy[lo:hi])

            split_rows(n, h * w * c, route, elementwise=True)
            # x's gradient is built in gy, which nothing else holds
            _bn_backward(x, gamma, beta, gy, mu, inv_std, train, gy)
        out._backward = bwd
    return out


def eval_conv_block(x: Tensor, conv: Conv2d, bn: BatchNorm) -> Tensor:
    """`bn_relu_pool(conv(x), bn, False)` recording no graph, with no
    full-size conv output: each block of images (its columns and conv rows
    in COLS_BLOCK_FLOATS) goes from its conv rows straight to its rows of
    the output, in scratch the caller allocates for each thread before the
    split. Where every gamma is >= 0, a block pools, then normalizes and
    rectifies the pooled map: eval BN then ReLU is a chain of correctly
    rounded steps, each non-decreasing per channel (constant where
    gamma == 0), so the window max commutes with it, and the features keep
    every byte of the BN -> ReLU -> pool order but the sign of a zero, which
    can differ only where a BN beta is exactly -0.0; Adam never makes one
    from the +0.0 init. Otherwise a block runs BN, pool, then ReLU.
    """
    im = _Im2col(x.data, conv.kernel.data, conv.bias.data, conv.padding, rows_in_block=True)
    n, ho, wo, c = _pool_shape(im.shape)
    gamma, beta = bn.gamma.data, bn.beta.data
    mu, inv_std = bn.running_mean, 1.0 / np.sqrt(bn.running_var + BN_EPS)
    pool_first = not (gamma < 0).any()
    out = np.empty((n, ho // 2, wo // 2, c))

    def bn_eval(a):
        # `_bn_forward`'s eval steps, in place
        np.subtract(a, mu, out=a)
        a *= inv_std
        a *= gamma
        a += beta

    def tail(a, b, rows):
        y, o = rows.reshape(b - a, ho, wo, c), out[a:b]
        if not pool_first:
            bn_eval(y)
        _pool(y, o, None)
        if pool_first:
            bn_eval(o)
        np.maximum(o, 0.0, out=o)

    scratch = {lo: im.scratch(lo, hi) for lo, hi in row_halves(n, im.work)}
    split_rows(n, im.work, lambda lo, hi: im.forward(lo, hi, scratch=scratch[lo], tail=tail))
    return Tensor(out)
