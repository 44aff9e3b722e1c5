"""Spatial transformer layer: localization net, affine grid, bilinear sampler.

Coordinate convention is corner-aligned: normalized -1 maps to the center of
the first pixel and +1 to the center of the last, so an identity theta
reproduces the input to rounding error. Samples falling outside the image
read as zeros (and push no gradient into the input): the sampler appends one
zero row to its table of pixel rows, and every out-of-image corner reads that
row, so its gradient lands in the row that is dropped.

theta is a per-sample 2x3 matrix [[a, b, tx], [c, d, ty]] acting on target
coordinates: (x_src, y_src) = theta . (x_t, y_t, 1).
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .errors import ShapeError
from .nn import Conv2d, Dense, Module
from .tensor import Tensor


def identity_theta(n: int) -> np.ndarray:
    t = np.zeros((n, 2, 3))
    t[:, 0, 0] = 1.0
    t[:, 1, 1] = 1.0
    return t


def affine_grid(theta: Tensor, out_h: int, out_w: int) -> Tensor:
    """Apply per-sample theta to the canonical corner-aligned target grid.

    Returns (n, out_h, out_w, 2) normalized source coordinates, channel 0
    holding x and channel 1 holding y. Differentiable with respect to theta.
    """
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"grid size must be >= 1, got {out_h}x{out_w}")
    if theta.ndim != 3 or theta.shape[1:] != (2, 3):
        raise ShapeError(f"theta must be (n, 2, 3), got {theta.shape}")
    xs = np.linspace(-1.0, 1.0, out_w)
    ys = np.linspace(-1.0, 1.0, out_h)
    t = theta.data[:, None, None, :, :]         # (n, 1, 1, 2, 3)

    # x-term, then the shift, then the y-term: the order in which
    # np.einsum("nrc,hwc->nhwr") sums the three products, so the same bits
    grid = np.empty((len(t), out_h, out_w, 2))
    np.multiply(t[..., 0], xs[:, None], out=grid)
    grid += t[..., 2]
    grid += t[..., 1] * ys[:, None, None]
    out = Tensor.result(grid, "affine_grid", (theta,))
    if out.requires_grad:
        def bwd(g):
            target = np.empty((out_h, out_w, 3))
            target[:, :, 0] = xs[None, :]
            target[:, :, 1] = ys[:, None]
            target[:, :, 2] = 1.0
            theta.accumulate_grad(np.einsum("nhwr,hwc->nrc", g, target))
        out._backward = bwd
    return out


def bilinear_sample(x: Tensor, grid: Tensor) -> Tensor:
    """Sample an NHWC image batch at normalized grid coordinates.

    Each output pixel is the bilinear blend of the 4 pixels around its
    source point; neighbors outside the image read the zero row. Differentiable
    with respect to both the image values and the grid coordinates.
    """
    if x.ndim != 4:
        raise ShapeError(f"bilinear_sample input must be NHWC, got {x.ndim} axes")
    if grid.ndim != 4 or grid.shape[-1] != 2:
        raise ShapeError(f"grid must be (n, h, w, 2), got {grid.shape}")
    if grid.shape[0] != x.shape[0]:
        raise ShapeError(f"batch axis mismatch: input {x.shape[0]}, grid {grid.shape[0]}")
    n, h, w, c = x.shape

    sx, sy = 0.5 * (w - 1), 0.5 * (h - 1)
    px = (grid.data[..., 0] + 1.0) * sx
    py = (grid.data[..., 1] + 1.0) * sy
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    wx1 = px - x0
    wx0 = 1.0 - wx1
    wy1 = py - y0
    wy0 = 1.0 - wy1

    zero_row = n * h * w
    first = np.arange(n)[:, None, None] * (h * w)
    rows = [np.where((yy >= 0) & (yy < h) & (xx >= 0) & (xx < w), first + yy * w + xx, zero_row)
            for yy, xx in ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1))]
    weights = [(wy0 * wx0)[..., None], (wy0 * wx1)[..., None],
               (wy1 * wx0)[..., None], (wy1 * wx1)[..., None]]

    def corners():
        # the four corner pixels of every sample, gathered from the image as
        # (n*h*w, c) pixel rows plus the zero row; the table dies here
        table = np.concatenate([x.data.reshape(zero_row, c), np.zeros((1, c), x.data.dtype)])
        return [table[r] for r in rows]

    v00, v01, v10, v11 = corners()
    w00, w01, w10, w11 = weights
    y = w00 * v00 + w01 * v01 + w10 * v10 + w11 * v11

    out = Tensor.result(y, "bilinear_sample", (x, grid))
    if out.requires_grad:
        def bwd(g):
            if x.requires_grad:
                # one flat index per element takes np.add.at's 1-d fast path
                dtable = np.zeros((zero_row + 1) * c, x.data.dtype)
                for r, wgt in zip(rows, weights):
                    np.add.at(dtable, (r[..., None] * c + np.arange(c)).ravel(),
                              (g * wgt).ravel())
                x.accumulate_grad(dtable[:zero_row * c].reshape(x.shape))
                # accumulate_grad copied the view, so the table can go
                del dtable
            if grid.requires_grad:
                # the corners are gathered again rather than held from
                # forward (four arrays the size of the input); a gather is
                # exact, so dgrid keeps its bits
                v00, v01, v10, v11 = corners()
                # dpx = (g * (wy0 * (v01 - v00) + wy1 * (v11 - v10))).sum(-1)
                # and dpy = (g * (wx0 * (v10 - v00) + wx1 * (v11 - v01))).sum(-1),
                # each step in place, in the corners' buffers and one more
                dy0 = np.subtract(v10, v00)
                dx0 = np.subtract(v01, v00, out=v00)
                dy1 = np.subtract(v11, v01, out=v01)
                dx1 = np.subtract(v11, v10, out=v10)

                def partial(d0, w0, d1, w1):
                    d0 *= w0[..., None]
                    d1 *= w1[..., None]
                    d0 += d1
                    d0 *= g
                    return d0.sum(axis=-1)

                dpx, dpy = partial(dx0, wy0, dx1, wy1), partial(dy0, wx0, dy1, wx1)
                dgrid = np.stack([dpx * sx, dpy * sy], axis=-1)
                grid.accumulate_grad(dgrid)
        out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# localization networks

# tanh(THETA_BIAS) = 0.99, the closest the tanh head can sit to identity scale
THETA_BIAS = math.atanh(0.99)


class LocalizationNet(Module):
    """Localization network regressing 6 affine parameters.

    Stack: maxpool 2x2 -> conv 5x5x20 tanh -> maxpool 2x2 -> conv 5x5x20 tanh
    -> dense 50 tanh -> dense 6 tanh. Maps too small for the conv stack
    (under 28x28) skip it and flatten the input into dense 50. The theta head
    starts at zero weight, so tanh of its output is the near-identity
    [[0.99, 0, 0], [0, 0.99, 0]] for every input.
    """

    def __init__(self, size: int, channels: int, name: str, seed: int | None):
        c2 = (size // 2 - 4) // 2 - 4   # side after pool, conv 5x5, pool, conv 5x5
        if c2 >= 1:
            self.conv1 = Conv2d(5, 5, channels, 20, f"{name}/conv1", seed,
                                padding="valid", init="glorot")
            self.conv2 = Conv2d(5, 5, 20, 20, f"{name}/conv2", seed,
                                padding="valid", init="glorot")
            d_in = c2 * c2 * 20
        else:
            self.conv1 = self.conv2 = None
            d_in = size * size * channels
        self.dense1 = Dense(d_in, 50, f"{name}/dense1", seed, init="glorot")
        self.head = Dense(50, 6, f"{name}/theta", seed)
        self.head.weight.data[:] = 0.0
        self.head.bias.data[[0, 4]] = THETA_BIAS

    def __call__(self, x: Tensor) -> Tensor:
        h = x
        if self.conv1 is not None:
            h = self.conv1(nn.maxpool2d(h)).tanh()
            h = self.conv2(nn.maxpool2d(h)).tanh()
        h = h.reshape((h.shape[0], -1))
        h = self.dense1(h).tanh()
        return self.head(h).tanh()


class SpatialTransformer(Module):
    """Resolution-preserving spatial transformer: predict theta from the
    input, build the sampling grid, resample the input."""

    def __init__(self, size: int, channels: int, name: str, seed: int | None):
        self.size = size
        self.locnet = LocalizationNet(size, channels, f"{name}/loc", seed)

    def theta(self, x: Tensor) -> Tensor:
        flat = self.locnet(x)
        return flat.reshape((flat.shape[0], 2, 3))

    def __call__(self, x: Tensor, identity: bool = False) -> Tensor:
        """identity=True samples with the identity theta instead of the
        predicted one, reproducing the input to rounding error."""
        if x.shape[1] != self.size or x.shape[2] != self.size:
            raise ShapeError(f"spatial transformer built for {self.size}x{self.size}, "
                             f"got {x.shape[1]}x{x.shape[2]}")
        theta = Tensor(identity_theta(x.shape[0])) if identity else self.theta(x)
        grid = affine_grid(theta, x.shape[1], x.shape[2])
        return bilinear_sample(x, grid)
