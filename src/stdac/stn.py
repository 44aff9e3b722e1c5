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

from .errors import ShapeError
from .nn import Conv2d, Dense, MaxPool, Module
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
    target = np.empty((out_h, out_w, 3))
    target[:, :, 0] = xs[None, :]
    target[:, :, 1] = ys[:, None]
    target[:, :, 2] = 1.0

    grid = np.einsum("nrc,hwc->nhwr", theta.data, target)
    out = Tensor.result(grid, "affine_grid", (theta,))
    if out.requires_grad:
        def bwd(g):
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

    # the image as (n*h*w, c) pixel rows, then the zero row
    zero_row = n * h * w
    table = np.concatenate([x.data.reshape(zero_row, c), np.zeros((1, c), x.data.dtype)])
    first = np.arange(n)[:, None, None] * (h * w)
    rows = [np.where((yy >= 0) & (yy < h) & (xx >= 0) & (xx < w), first + yy * w + xx, zero_row)
            for yy, xx in ((y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1))]
    weights = [(wy0 * wx0)[..., None], (wy0 * wx1)[..., None],
               (wy1 * wx0)[..., None], (wy1 * wx1)[..., None]]
    v00, v01, v10, v11 = (table[r] for r in rows)
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
            if grid.requires_grad:
                dpx = (g * (wy0[..., None] * (v01 - v00)
                            + wy1[..., None] * (v11 - v10))).sum(axis=-1)
                dpy = (g * (wx0[..., None] * (v10 - v00)
                            + wx1[..., None] * (v11 - v01))).sum(axis=-1)
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

    def __init__(self, size: int, channels: int, name: str, seed: int):
        c2 = (size // 2 - 4) // 2 - 4   # side after pool, conv 5x5, pool, conv 5x5
        if c2 >= 1:
            self.pool = MaxPool(2)
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

    def __call__(self, x: Tensor, train: bool = True) -> Tensor:
        h = x
        if self.conv1 is not None:
            h = self.conv1(self.pool(h)).tanh()
            h = self.conv2(self.pool(h)).tanh()
        h = h.reshape((h.shape[0], -1))
        h = self.dense1(h).tanh()
        return self.head(h).tanh()


class SpatialTransformer(Module):
    """Resolution-preserving spatial transformer: predict theta from the
    input, build the sampling grid, resample the input."""

    def __init__(self, size: int, channels: int, name: str, seed: int):
        self.size = size
        self.locnet = LocalizationNet(size, channels, f"{name}/loc", seed)

    def theta(self, x: Tensor, train: bool = True) -> Tensor:
        flat = self.locnet(x, train)
        return flat.reshape((flat.shape[0], 2, 3))

    def __call__(self, x: Tensor, train: bool = True, identity: bool = False) -> Tensor:
        """identity=True samples with the identity theta instead of the
        predicted one, reproducing the input to rounding error."""
        if x.shape[1] != self.size or x.shape[2] != self.size:
            raise ShapeError(f"spatial transformer built for {self.size}x{self.size}, "
                             f"got {x.shape[1]}x{x.shape[2]}")
        theta = Tensor(identity_theta(x.shape[0])) if identity else self.theta(x, train)
        grid = affine_grid(theta, x.shape[1], x.shape[2])
        return bilinear_sample(x, grid)
