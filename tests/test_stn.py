"""Spatial transformer tests: affine grids, bilinear sampling, localization."""

import numpy as np
import pytest

from stdac.errors import ShapeError
from stdac.gradcheck import gradcheck
from stdac.stn import (
    THETA_BIAS,
    LocalizationNet,
    SpatialTransformer,
    affine_grid,
    bilinear_sample,
    identity_theta,
)
from stdac.tensor import Tensor


def sample_np(img, grid):
    """Convenience wrapper returning plain arrays."""
    return bilinear_sample(Tensor(img), Tensor(grid)).data


class TestAffineGrid:
    def test_identity_2x2_hits_corners(self):
        g = affine_grid(Tensor(identity_theta(1)), 2, 2).data[0]
        np.testing.assert_array_equal(g[:, :, 0], [[-1.0, 1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(g[:, :, 1], [[-1.0, -1.0], [1.0, 1.0]])

    def test_translation_shifts_x_only(self):
        theta = identity_theta(1)
        theta[0, 0, 2] = 0.5
        g = affine_grid(Tensor(theta), 3, 3).data[0]
        base = affine_grid(Tensor(identity_theta(1)), 3, 3).data[0]
        np.testing.assert_allclose(g[:, :, 0], base[:, :, 0] + 0.5)
        np.testing.assert_array_equal(g[:, :, 1], base[:, :, 1])

    def test_half_scale_3x3_coordinates(self):
        theta = np.array([[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]])
        g = affine_grid(Tensor(theta), 3, 3).data[0]
        for row in range(3):
            np.testing.assert_allclose(g[row, :, 0], [-0.5, 0.0, 0.5])
        for col in range(3):
            np.testing.assert_allclose(g[:, col, 1], [-0.5, 0.0, 0.5])

    def test_matches_per_point_matrix_product(self, rng):
        theta = rng.normal(size=(2, 2, 3))
        g = affine_grid(Tensor(theta), 4, 5).data
        xs = np.linspace(-1.0, 1.0, 5)
        ys = np.linspace(-1.0, 1.0, 4)
        for n in range(2):
            for i in range(4):
                for j in range(5):
                    expect = theta[n] @ np.array([xs[j], ys[i], 1.0])
                    np.testing.assert_allclose(g[n, i, j], expect)

    @pytest.mark.parametrize("n", [1, 2, 3, 256])
    def test_forward_bits_match_einsum(self, n, rng):
        theta = rng.normal(size=(n, 2, 3))
        for h in (1, 2, 3, 5, 7, 28):
            for w in (1, 2, 3, 5, 7, 28):
                target = np.empty((h, w, 3))
                target[:, :, 0] = np.linspace(-1.0, 1.0, w)[None, :]
                target[:, :, 1] = np.linspace(-1.0, 1.0, h)[:, None]
                target[:, :, 2] = 1.0
                want = np.einsum("nrc,hwc->nhwr", theta, target)
                assert affine_grid(Tensor(theta), h, w).data.tobytes() == want.tobytes()

    def test_gradcheck_theta(self, rng):
        theta = Tensor(rng.normal(size=(2, 2, 3)) * 0.3, requires_grad=True)
        w = rng.normal(size=(2, 3, 4, 2))

        def loss(t):
            return (affine_grid(t, 3, 4) * Tensor(w)).sum()

        assert gradcheck(loss, (theta,)) <= 1e-4

    def test_rejects_bad_theta_shape(self):
        with pytest.raises(ShapeError):
            affine_grid(Tensor(np.zeros((2, 3))), 4, 4)

    def test_rejects_empty_grid(self):
        with pytest.raises(ShapeError):
            affine_grid(Tensor(identity_theta(1)), 0, 4)


class TestBilinearSample:
    @pytest.mark.parametrize("h,w", [(2, 2), (4, 5), (7, 3)])
    def test_identity_grid_reproduces_input(self, rng, h, w):
        x = rng.normal(size=(2, h, w, 3))
        grid = affine_grid(Tensor(identity_theta(2)), h, w)
        y = bilinear_sample(Tensor(x), grid).data
        assert np.max(np.abs(y - x)) <= 1e-12

    def test_center_of_2x2_averages_corners(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        grid = np.zeros((1, 1, 1, 2))
        assert sample_np(img, grid)[0, 0, 0, 0] == pytest.approx(2.5)

    def test_far_outside_is_exactly_zero_with_zero_grad(self):
        img = Tensor(np.full((1, 2, 2, 1), 7.0), requires_grad=True)
        grid = np.full((1, 1, 1, 2), -3.0)
        y = bilinear_sample(img, Tensor(grid))
        assert y.data[0, 0, 0, 0] == 0.0
        y.sum().backward()
        np.testing.assert_array_equal(img.grad, np.zeros((1, 2, 2, 1)))

    def test_beyond_one_cell_margin_is_zero(self, rng):
        # all four neighbors leave the image once both coords pass
        # -1 - 2/(size-1), so output and input gradient are exactly zero
        size = 5
        img = Tensor(rng.normal(size=(1, size, size, 2)), requires_grad=True)
        coord = -1.0 - 2.0 / (size - 1) - 0.01
        grid = np.full((1, 2, 2, 2), coord)
        y = bilinear_sample(img, Tensor(grid))
        np.testing.assert_array_equal(y.data, np.zeros((1, 2, 2, 2)))
        y.sum().backward()
        np.testing.assert_array_equal(img.grad, np.zeros_like(img.data))

    def test_gradcheck_input_and_grid(self, rng):
        # pixel-space fractional parts kept in [0.1, 0.9]: the FD step never
        # crosses an interpolation cell boundary
        x = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
        px = np.array([0.3, 1.45, 2.6])
        py = np.array([0.55, 1.7, 2.35])
        gx, gy = px / 1.5 - 1.0, py / 1.5 - 1.0
        grid_data = np.stack(np.broadcast_arrays(gx[None, None, :], gy[None, :, None]),
                             axis=-1)
        grid = Tensor(np.broadcast_to(grid_data, (2, 3, 3, 2)).copy(),
                      requires_grad=True)
        w = rng.normal(size=(2, 3, 3, 2))

        def loss(img, g):
            return (bilinear_sample(img, g) * Tensor(w)).sum()

        assert gradcheck(loss, (x, grid)) <= 1e-4

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_sample(Tensor(np.zeros((2, 3, 3, 1))),
                            Tensor(np.zeros((3, 3, 3, 2))))

    def test_bad_grid_shape_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_sample(Tensor(np.zeros((1, 3, 3, 1))),
                            Tensor(np.zeros((1, 3, 3, 3))))


def compose_theta(first, second) -> np.ndarray:
    """theta of the single warp equivalent to sampling with `first`, then
    sampling that output with `second` (matrix product in homogeneous form).
    The tests below use it to check that affine_grid and bilinear_sample
    compose like the affine maps they stand for."""
    def hom(t):
        out = np.zeros(t.shape[:-2] + (3, 3))
        out[..., :2, :] = t
        out[..., 2, 2] = 1.0
        return out
    return (hom(first) @ hom(second))[..., :2, :]


class TestComposeTheta:
    def test_identity_is_neutral(self, rng):
        theta = rng.normal(size=(3, 2, 3))
        eye = identity_theta(3)
        np.testing.assert_allclose(compose_theta(theta, eye), theta)
        np.testing.assert_allclose(compose_theta(eye, theta), theta)

    def test_translations_add(self):
        a = identity_theta(1)
        a[0, 0, 2] = 0.2
        b = identity_theta(1)
        b[0, 0, 2] = 0.3
        c = compose_theta(a, b)
        np.testing.assert_allclose(c[0], [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]])

    def test_scales_multiply(self):
        a = identity_theta(1) * 0.5
        a[:, :, 2] = 0.0
        c = compose_theta(a, a)
        assert c[0, 0, 0] == pytest.approx(0.25)
        assert c[0, 1, 1] == pytest.approx(0.25)

    def test_matches_sequential_sampling_on_smooth_image(self, rng):
        # piecewise-bilinear image: upsampling a coarse patch makes resampling
        # error small, so warp(warp(x, a), b) ~ warp(x, compose(a, b)).
        # The truth proxy samples the composed map on a 4x finer rendering.
        coarse = Tensor(rng.uniform(size=(1, 5, 5, 1)))
        n = 17
        img = bilinear_sample(coarse, affine_grid(Tensor(identity_theta(1)), n, n))
        fine = bilinear_sample(coarse,
                               affine_grid(Tensor(identity_theta(1)),
                                           (n - 1) * 4 + 1, (n - 1) * 4 + 1))

        ang = 0.3
        a = np.array([[[0.85 * np.cos(ang), -0.85 * np.sin(ang), 0.05],
                       [0.85 * np.sin(ang), 0.85 * np.cos(ang), -0.03]]])
        b = np.array([[[0.9, 0.0, -0.04], [0.0, 0.9, 0.06]]])
        c = compose_theta(a, b)

        step1 = bilinear_sample(img, affine_grid(Tensor(a), n, n))
        seq = bilinear_sample(step1, affine_grid(Tensor(b), n, n)).data
        one = bilinear_sample(img, affine_grid(Tensor(c), n, n)).data
        truth = bilinear_sample(fine, affine_grid(Tensor(c), n, n)).data

        err_seq = np.max(np.abs(seq - truth))
        err_one = np.max(np.abs(one - truth))
        assert np.max(np.abs(seq - one)) <= max(4.0 * (err_seq + err_one), 1e-3)


class TestLocalizationNet:
    # 28 is the smallest n with floor((floor(n/2) - 4) / 2) - 4 >= 1: pool,
    # conv 5x5 valid, pool, conv 5x5 valid leave a 1x1 map
    @pytest.mark.parametrize("size", [27, 28, 7, 3])
    def test_conv_stack_exactly_from_28(self, size):
        net = LocalizationNet(size, 3, "x", 0)
        conv = ["x/conv1/kernel", "x/conv1/bias", "x/conv2/kernel", "x/conv2/bias"]
        dense = ["x/dense1/weight", "x/dense1/bias", "x/theta/weight", "x/theta/bias"]
        has_conv = size >= 28
        assert (net.conv1 is not None) == has_conv
        assert (net.conv2 is not None) == has_conv
        assert [p.name for p in net.params()] == (conv if has_conv else []) + dense
        # a 1x1x20 map leaves the conv stack; smaller inputs flatten directly
        assert net.dense1.weight.shape == (20 if has_conv else size * size * 3, 50)

    def test_output_shape_and_range(self, rng):
        net = LocalizationNet(28, 1, "st1/loc", 0)
        out = net(Tensor(rng.uniform(size=(3, 28, 28, 1)))).data
        assert out.shape == (3, 6)
        assert np.all(np.abs(out) < 1.0)

    def test_near_identity_at_init(self, rng):
        for size, chans in ((28, 1), (6, 2)):
            net = LocalizationNet(size, chans, "a", 0)
            out = net(Tensor(rng.normal(size=(2, size, size, chans)))).data
            want = np.tile([np.tanh(THETA_BIAS), 0.0, 0.0, 0.0, np.tanh(THETA_BIAS), 0.0],
                           (2, 1))
            np.testing.assert_allclose(out, want, atol=1e-12)
            assert np.tanh(THETA_BIAS) == pytest.approx(0.99, abs=1e-12)


class TestSpatialTransformer:
    def test_identity_override_reproduces_input(self, rng):
        st = SpatialTransformer(6, 1, "st", 0)
        x = rng.normal(size=(2, 6, 6, 1))
        y = st(Tensor(x), identity=True)
        assert np.max(np.abs(y.data - x)) <= 1e-12

    def test_wrong_spatial_size_rejected(self, rng):
        st = SpatialTransformer(6, 1, "st", 0)
        with pytest.raises(ShapeError):
            st(Tensor(rng.normal(size=(2, 5, 5, 1))))

    def test_theta_parameters_get_gradients_6x6(self, rng):
        # dense-fallback locnet on a toy image; check the analytic head-bias
        # gradient against central differences
        st = SpatialTransformer(6, 1, "st", 0)
        x = Tensor(rng.uniform(size=(2, 6, 6, 1)))
        w = rng.normal(size=(2, 6, 6, 1))
        bias = st.locnet.head.bias

        def loss(_b):
            return (st(x) * Tensor(w)).sum()

        assert gradcheck(loss, (bias,)) <= 1e-4
        assert np.any(bias.grad != 0.0)

    def test_conv_locnet_bias_gradient_28x28(self, rng):
        st = SpatialTransformer(28, 1, "st", 0)
        x = Tensor(rng.uniform(size=(1, 28, 28, 1)))
        loss = st(x).sum()
        loss.backward()
        bias = st.locnet.head.bias
        assert np.any(bias.grad != 0.0)

        # central difference on the x-translation slot
        eps = 1e-5
        analytic = bias.grad[2]
        from stdac.tensor import no_grad
        with no_grad():
            bias.data[2] += eps
            fp = st(x).sum().item()
            bias.data[2] -= 2 * eps
            fm = st(x).sum().item()
            bias.data[2] += eps
        numeric = (fp - fm) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_downstream_layers_receive_gradient_after_head_nudge(self, rng):
        # zero head weights block gradient flow to earlier locnet layers, so
        # nudge them before checking
        st = SpatialTransformer(6, 1, "st", 0)
        st.locnet.head.weight.data[:] = rng.normal(size=(50, 6)) * 0.003
        x = Tensor(rng.uniform(size=(2, 6, 6, 1)))
        st(x).sum().backward()
        assert np.any(st.locnet.dense1.weight.grad != 0.0)

    def test_batch_samples_transform_independently(self, rng):
        st = SpatialTransformer(6, 1, "st", 0)
        st.locnet.head.weight.data[:] = rng.normal(size=(50, 6)) * 0.01
        x = rng.uniform(size=(3, 6, 6, 1))
        y = st(Tensor(x)).data
        perm = np.array([2, 0, 1])
        y_perm = st(Tensor(x[perm])).data
        np.testing.assert_allclose(y_perm, y[perm], atol=1e-14)
