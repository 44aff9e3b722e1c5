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
from .tensor import Tensor, grad_enabled

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


def param_rng(seed: int, name: str) -> np.random.Generator:
    """Generator keyed by (seed, parameter name).

    Keying on the name rather than creation order keeps shared layers
    identically initialized across model variants that add or drop other
    layers (the spatial-transformer ablations).
    """
    return np.random.default_rng(np.random.SeedSequence((seed, zlib.crc32(name.encode()))))


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# convolution


def _pad_amounts(k: int) -> tuple[int, int]:
    # symmetric for odd kernels; one extra on the trailing side for even ones
    total = k - 1
    before = total // 2
    return before, total - before


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """Stride-1 cross-correlation of an NHWC batch with an HWIO kernel."""
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

    ho, wo = h + pt + pb - kh + 1, w + pl + pr - kw + 1

    def im2col():
        # rows are output pixels, columns run (i, j, c_in); the reshape of
        # the strided window view of the padded input is the one copy
        xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
        return (np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
                .transpose(0, 1, 2, 4, 5, 3)
                .reshape(n * ho * wo, kh * kw * c_in))

    wmat = kernel.data.reshape(kh * kw * c_in, c_out)
    y = im2col() @ wmat
    y += bias.data
    y = y.reshape(n, ho, wo, c_out)

    out = Tensor.result(y, "conv2d", (x, kernel, bias))
    if out.requires_grad:
        def bwd(g):
            g2 = g.reshape(n * ho * wo, c_out)
            if kernel.requires_grad:
                # the columns are rebuilt from x rather than cached: kh*kw
                # times the input per conv would otherwise stay alive from
                # forward to backward (about 175 MB of a batch-128 graph),
                # and the same copy of the same values keeps dW's bits
                kernel.accumulate_grad((im2col().T @ g2).reshape(kernel.shape))
            if bias.requires_grad:
                bias.accumulate_grad(g2.sum(axis=0))
            if x.requires_grad:
                dcols = (g2 @ wmat.T).reshape(n, ho, wo, kh, kw, c_in)
                # col2im into the unpadded dx: offset (i, j) covers padded
                # rows i..i+ho and columns j..j+wo, clipped to the crop at
                # (pt, pl); each element gets its additions in (i, j) order
                dx = np.zeros(x.shape)
                for i in range(kh):
                    r0, r1 = max(i, pt), min(i + ho, pt + h)
                    for j in range(kw):
                        c0, c1 = max(j, pl), min(j + wo, pl + w)
                        if r0 < r1 and c0 < c1:
                            dx[:, r0 - pt:r1 - pt, c0 - pl:c1 - pl, :] += \
                                dcols[:, r0 - i:r1 - i, c0 - j:c1 - j, i, j, :]
                x.accumulate_grad(dx)
        out._backward = bwd
    return out


def maxpool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped. Gradient routes to the first maximum in each window
    (row-major scan), which keeps replays deterministic under ties."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d input must be NHWC, got {x.ndim} axes")
    h, w = x.shape[1:3]
    if h < size or w < size:
        raise ShapeError(f"maxpool2d needs spatial size >= {size}, got {h}x{w}")
    hc, wc = (h // size) * size, (w // size) * size
    y = _pool_windows(np.maximum, x.data, size)

    out = Tensor.result(y, "maxpool2d", (x,))
    if out.requires_grad:
        def bwd(g):
            # the window offsets cover dx but for the cropped rows and columns
            dx = np.empty_like(x.data)
            dx[:, hc:] = 0.0
            dx[:, :, wc:] = 0.0
            taken = np.zeros(y.shape, dtype=bool)
            for xv, dxv in zip(_windows(x.data, size), _windows(dx, size)):
                hit = xv == y
                np.greater(hit, taken, out=hit)     # hit and not taken yet
                taken |= hit
                # g * False is -0.0 where g < 0; accumulate_grad adds it as +0.0
                np.multiply(g, hit, out=dxv)
            x.accumulate_grad(dx)
        out._backward = bwd
    return out


def _windows(a: np.ndarray, size: int) -> list[np.ndarray]:
    """Strided views of an NHWC array, one per window offset in row-major
    order, each holding that offset of every non-overlapping window; the
    rows and columns that do not fill a window are cropped."""
    hc, wc = (a.shape[1] // size) * size, (a.shape[2] // size) * size
    return [a[:, i:hc:size, j:wc:size, :] for i in range(size) for j in range(size)]


def _pool_windows(reduce, a: np.ndarray, size: int) -> np.ndarray:
    """`reduce` (np.maximum or np.minimum) over each window, in offset order."""
    first, *rest = _windows(a, size)
    y = first.copy()
    for v in rest:
        reduce(y, v, out=y)
    return y


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
    if x.shape[-1] != gamma.shape[0]:
        raise ShapeError(f"batch_norm channel axis is {x.shape[-1]}, "
                         f"gamma has {gamma.shape[0]}")
    axes = tuple(range(x.ndim - 1))
    m = x.size // x.shape[-1]
    if train:
        if x.shape[0] < 2:
            raise ShapeError("batch_norm train mode needs batch size >= 2 "
                             "(variance undefined for a single sample)")
        mu = x.data.mean(axis=axes)
        xc = x.data - mu
        # np.var's own arithmetic; the squares' buffer then takes y
        ybuf = np.square(xc)
        var = ybuf.sum(axis=axes) / m
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mu, var = running_mean, running_var
        xc = x.data - mu
        # eval backward reads xhat only for gamma's gradient; else y overwrites it
        ybuf = None if gamma.requires_grad and grad_enabled() else xc

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = xc
    xhat *= inv_std
    y = np.multiply(xhat, gamma.data, out=ybuf)
    y += beta.data
    out = Tensor.result(y, "batch_norm", (x, gamma, beta))
    if out.requires_grad:
        def bwd(g):
            x_train = x.requires_grad and train
            if gamma.requires_grad or x_train:
                gxhat = g * xhat
                gx = gxhat.sum(axis=axes)
                if gamma.requires_grad:
                    gamma.accumulate_grad(gx)
            if beta.requires_grad or x_train:
                gsum = g.sum(axis=axes)
                if beta.requires_grad:
                    beta.accumulate_grad(gsum)
            if x_train:
                # ((g - gsum/m) - xhat*(gx/m)) * (gamma*inv_std), in place
                dx = g - gsum / m
                dx -= np.multiply(xhat, gx / m, out=gxhat)
                dx *= gamma.data * inv_std
                x.accumulate_grad(dx)
            elif x.requires_grad:
                dx = g * gamma.data
                dx *= inv_std
                x.accumulate_grad(dx)
        out._backward = bwd
    return out


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
        match the model's exactly."""
        own = {p.name: p.data for p in self.params()}
        own.update(self.buffers())
        if set(state) != set(own):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise CheckpointError(f"state does not match model: missing {missing}, "
                                  f"unexpected {extra}")
        for name, arr in state.items():
            target = own[name]
            if target.shape != arr.shape:
                raise CheckpointError(f"shape mismatch for {name!r}: "
                                      f"model {target.shape}, checkpoint {arr.shape}")
            target[...] = arr


class Conv2d(Module):
    def __init__(self, kh: int, kw: int, c_in: int, c_out: int, name: str,
                 seed: int, padding: str = "same", init: str = "he"):
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
    def __init__(self, d_in: int, d_out: int, name: str, seed: int, init: str = "he"):
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


class MaxPool(Module):
    def __init__(self, size: int = 2):
        self.size = size

    def __call__(self, x: Tensor) -> Tensor:
        return maxpool2d(x, self.size)


def bn_relu_pool(x: Tensor, bn: BatchNorm, train: bool) -> Tensor:
    """`maxpool2d(bn(x, train).relu())`, the tail of a conv block.

    Eval mode with no graph recorded pools x first, by the window minimum in
    the channels where gamma < 0, then normalizes and rectifies the pooled
    map; `dac.Backbone` says why the bytes stay the same. Every other call
    keeps the order above, so gradients route to the first maximum after the
    ReLU.
    """
    if train or grad_enabled():
        return maxpool2d(bn(x, train).relu())
    pooled = maxpool2d(x)
    falling = bn.gamma.data < 0
    if falling.any():
        np.copyto(pooled.data, _pool_windows(np.minimum, x.data, 2), where=falling)
    return bn(pooled, False).relu()
