"""Straightforward implementations of the hot-path ops, kept as the oracle
for the in-place ones in `stdac`.

Each function here does the arithmetic of its `stdac` counterpart in the same
order, with a full-size temporary for every step, so the optimized ops must
match it bit for bit. `install(monkeypatch)` swaps all of them into the
package, which lets a test run the whole training loop on either set.
"""

from __future__ import annotations

import numpy as np

from stdac import dac, nn, stn
from stdac.errors import ConfigurationError, ShapeError
from stdac.optim import Adam
from stdac.tensor import Tensor


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """im2col by a kh x kw copy loop, col2im by a strided-add loop."""
    n, h, w, c_in = x.shape
    kh, kw, _, c_out = kernel.shape
    if padding == "same":
        (pt, pb), (pl, pr) = nn._pad_amounts(kh), nn._pad_amounts(kw)
    elif padding == "valid":
        pt = pb = pl = pr = 0
    else:
        raise ConfigurationError(f"unknown padding mode: {padding!r}")

    xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    hp, wp = xp.shape[1], xp.shape[2]
    ho, wo = hp - kh + 1, wp - kw + 1

    cols = np.empty((n, ho, wo, kh, kw, c_in))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j, :] = xp[:, i:i + ho, j:j + wo, :]
    cols2 = cols.reshape(n * ho * wo, kh * kw * c_in)
    wmat = kernel.data.reshape(kh * kw * c_in, c_out)
    y = (cols2 @ wmat + bias.data).reshape(n, ho, wo, c_out)

    out = Tensor.result(y, "conv2d", (x, kernel, bias))
    if out.requires_grad:
        def bwd(g):
            g2 = g.reshape(n * ho * wo, c_out)
            if kernel.requires_grad:
                kernel.accumulate_grad((cols2.T @ g2).reshape(kernel.shape))
            if bias.requires_grad:
                bias.accumulate_grad(g2.sum(axis=0))
            if x.requires_grad:
                dcols = (g2 @ wmat.T).reshape(n, ho, wo, kh, kw, c_in)
                dxp = np.zeros_like(xp)
                for i in range(kh):
                    for j in range(kw):
                        dxp[:, i:i + ho, j:j + wo, :] += dcols[:, :, :, i, j, :]
                x.accumulate_grad(dxp[:, pt:pt + h, pl:pl + w, :])
        out._backward = bwd
    return out


def maxpool2d(x: Tensor, size: int = 2) -> Tensor:
    """Windows gathered into a transposed copy; argmax routes the gradient."""
    n, h, w, c = x.shape
    if h < size or w < size:
        raise ShapeError(f"maxpool2d needs spatial size >= {size}, got {h}x{w}")
    ho, wo = h // size, w // size
    hc, wc = ho * size, wo * size

    windows = (x.data[:, :hc, :wc, :]
               .reshape(n, ho, size, wo, size, c)
               .transpose(0, 1, 3, 5, 2, 4)
               .reshape(n, ho, wo, c, size * size))
    arg = windows.argmax(axis=-1)           # first occurrence on ties
    y = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    out = Tensor.result(y, "maxpool2d", (x,))
    if out.requires_grad:
        def bwd(g):
            dwin = np.zeros_like(windows)
            np.put_along_axis(dwin, arg[..., None], g[..., None], axis=-1)
            dx_c = (dwin.reshape(n, ho, wo, c, size, size)
                    .transpose(0, 1, 4, 2, 5, 3)
                    .reshape(n, hc, wc, c))
            if hc == h and wc == w:
                x.accumulate_grad(dx_c)
            else:
                dx = np.zeros_like(x.data)
                dx[:, :hc, :wc, :] = dx_c
                x.accumulate_grad(dx)
        out._backward = bwd
    return out


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               train: bool, eps: float = 1e-5, momentum: float = 0.9) -> Tensor:
    """Statistics by np.mean and np.var; each backward reduction on its own."""
    axes = tuple(range(x.ndim - 1))
    if train:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu, var = running_mean, running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    y = gamma.data * xhat + beta.data
    out = Tensor.result(y, "batch_norm", (x, gamma, beta))
    if out.requires_grad:
        m = x.size // x.shape[-1]

        def bwd(g):
            if gamma.requires_grad:
                gamma.accumulate_grad((g * xhat).sum(axis=axes))
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=axes))
            if x.requires_grad:
                if train:
                    gsum = g.sum(axis=axes) / m
                    gx = (g * xhat).sum(axis=axes) / m
                    x.accumulate_grad(gamma.data * inv_std * (g - gsum - xhat * gx))
                else:
                    x.accumulate_grad(g * gamma.data * inv_std)
        out._backward = bwd
    return out


def bn_relu_pool(x: Tensor, bn: nn.BatchNorm, train: bool) -> Tensor:
    """A conv block's tail as three nodes in graph order, on every call."""
    return maxpool2d(batch_norm(x, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                                train)).relu()


def bilinear_sample(x: Tensor, grid: Tensor) -> Tensor:
    """Out-of-image corners read a clipped neighbour times a float mask."""
    n, h, w, c = x.shape
    sx = 0.5 * (w - 1)
    sy = 0.5 * (h - 1)
    px = (grid.data[..., 0] + 1.0) * sx
    py = (grid.data[..., 1] + 1.0) * sy
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    x1 = x0 + 1
    y1 = y0 + 1
    wx1 = px - x0
    wx0 = 1.0 - wx1
    wy1 = py - y0
    wy0 = 1.0 - wy1

    bidx = np.arange(n)[:, None, None]

    def corner(yy, xx):
        mask = ((yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)).astype(np.float64)
        vals = x.data[bidx, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1), :]
        return vals * mask[..., None], mask

    v00, m00 = corner(y0, x0)
    v01, m01 = corner(y0, x1)
    v10, m10 = corner(y1, x0)
    v11, m11 = corner(y1, x1)

    y = ((wy0 * wx0)[..., None] * v00 + (wy0 * wx1)[..., None] * v01
         + (wy1 * wx0)[..., None] * v10 + (wy1 * wx1)[..., None] * v11)

    out = Tensor.result(y, "bilinear_sample", (x, grid))
    if out.requires_grad:
        def bwd(g):
            if x.requires_grad:
                dx = np.zeros_like(x.data)
                for yy, xx, wgt, mask in ((y0, x0, wy0 * wx0, m00),
                                          (y0, x1, wy0 * wx1, m01),
                                          (y1, x0, wy1 * wx0, m10),
                                          (y1, x1, wy1 * wx1, m11)):
                    np.add.at(dx,
                              (bidx, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)),
                              g * (wgt * mask)[..., None])
                x.accumulate_grad(dx)
            if grid.requires_grad:
                dpx = (g * (wy0[..., None] * (v01 - v00)
                            + wy1[..., None] * (v11 - v10))).sum(axis=-1)
                dpy = (g * (wx0[..., None] * (v10 - v00)
                            + wx1[..., None] * (v11 - v01))).sum(axis=-1)
                dgrid = np.stack([dpx * sx, dpy * sy], axis=-1)
                grid.accumulate_grad(dgrid)
        out._backward = bwd
    return out


def adam_step(self: Adam) -> None:
    """Adam.step over whole arrays, one temporary per operation."""
    self.t += 1
    b1t = 1.0 - self.beta1 ** self.t
    b2t = 1.0 - self.beta2 ** self.t
    for p, m, v in zip(self.params, self.m, self.v):
        if p.grad is None:
            continue
        g = p.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def accumulate_grad(self: Tensor, g: np.ndarray) -> None:
    """Tensor.accumulate_grad by a zero-filled buffer and +=."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def install(monkeypatch) -> None:
    """Swap every reference op into `stdac` for the rest of the test."""
    monkeypatch.setattr(nn, "conv2d", conv2d)
    monkeypatch.setattr(nn, "maxpool2d", maxpool2d)
    monkeypatch.setattr(nn, "batch_norm", batch_norm)
    # dac imports the conv-block tail by name
    monkeypatch.setattr(dac, "bn_relu_pool", bn_relu_pool)
    monkeypatch.setattr(stn, "bilinear_sample", bilinear_sample)
    monkeypatch.setattr(Adam, "step", adam_step)
    monkeypatch.setattr(Tensor, "accumulate_grad", accumulate_grad)
