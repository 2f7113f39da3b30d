"""Oracle tests for the Conv2d and MaxPool2 kernels.

Each kernel is checked against a direct loop: one dot product per output
pixel for the convolution, one scan per window for max pooling. The loops
share nothing with the layer code beyond the input arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from fracmap.attribution import deeplift_contributions
from fracmap.autodiff import forward_values
from fracmap.layers import Conv2d, MaxPool2
from fracmap.tensor import Tensor

from conftest import random_cnn


def _images_per_block(layer, oh, ow):
    # Conv2d groups images into GEMM blocks; a version without blocks is
    # checked at the same batch sizes, which then carry no special meaning.
    return layer._block(oh, ow) if hasattr(layer, "_block") else 4


def _direct_conv(x, w, b, padding):
    kh, kw = w.shape[2:]
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    y = np.empty((x.shape[0], w.shape[0], oh, ow))
    for i in range(oh):
        for j in range(ow):
            y[:, :, i, j] = np.einsum("nckl,ockl->no", xp[:, :, i : i + kh, j : j + kw], w) + b
    return y


def _direct_conv_input_grad(x_shape, w, gy, padding):
    kh, kw = w.shape[2:]
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    n, c, h, wd = x_shape
    gxp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    for i in range(gy.shape[2]):
        for j in range(gy.shape[3]):
            gxp[:, :, i : i + kh, j : j + kw] += np.einsum("no,ockl->nckl", gy[:, :, i, j], w)
    return gxp[:, :, ph : ph + h, pw : pw + wd]


CONV_CASES = [
    # (in_channels, out_channels, input hw, kernel, padding)
    (1, 8, (32, 32), (3, 3), "same"),
    (1, 4, (18, 18), (3, 3), "valid"),
    (3, 5, (18, 18), (3, 3), "valid"),
    (3, 4, (7, 9), (3, 5), "same"),
    (8, 16, (16, 16), (3, 3), "same"),
    (8, 6, (10, 12), (3, 3), "valid"),
]


class TestConv2dOracle:
    @pytest.mark.parametrize("c, o, hw, kernel, padding", CONV_CASES)
    def test_forward_and_input_grad_match_direct_loop(self, c, o, hw, kernel, padding):
        layer = Conv2d("cv", c, o, kernel[0], kernel[1], padding)
        oh, ow = layer.out_shape((c,) + hw)[1:]
        per_block = _images_per_block(layer, oh, ow)
        rng = np.random.default_rng(c * 100 + o)
        params = {
            "cv.weight": rng.standard_normal((o, c) + kernel),
            "cv.bias": rng.standard_normal(o),
        }
        for n in sorted({1, max(1, per_block - 1), per_block, per_block + 1}):
            x = rng.standard_normal((n, c) + hw)
            y, saved = layer.forward(params, x)
            np.testing.assert_allclose(
                y, _direct_conv(x, params["cv.weight"], params["cv.bias"], padding), rtol=0, atol=1e-12
            )
            gy = rng.standard_normal(y.shape)
            gx, grads = layer.backward(params, saved, gy, frozenset())
            assert grads == {}
            np.testing.assert_allclose(
                gx, _direct_conv_input_grad(x.shape, params["cv.weight"], gy, padding), rtol=0, atol=1e-12
            )


def _direct_pool(x):
    """First maximum of each 2x2 window in row-major order, and its position."""
    n, c, h, w = x.shape
    y = np.empty((n, c, h // 2, w // 2))
    where = {}
    for idx in np.ndindex(n, c, h // 2, w // 2):
        b, ch, i, j = idx
        cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
        best = cells[0]
        for cell in cells[1:]:
            if x[b, ch][cell] > x[b, ch][best]:
                best = cell
        y[idx] = x[b, ch][best]
        where[idx] = best
    return y, where


def _tied_pool_input():
    rng = np.random.default_rng(7)
    x = rng.integers(-2, 3, size=(2, 3, 6, 8)).astype(np.float64)
    x[0, 0, 0:2, 0:2] = 1.5  # all-equal window
    x[0, 0, 0:2, 2:4] = [[-0.0, 0.0], [-1.0, -2.0]]  # -0.0 first, +0.0 second
    x[0, 0, 0:2, 4:6] = [[0.0, -0.0], [-0.0, -3.0]]  # +0.0 first
    x[0, 0, 0:2, 6:8] = [[-1.0, -0.0], [0.0, -0.0]]  # first maximum in cell 1
    x[0, 1, 2:4, 2:4] = [[-2.0, -2.0], [-2.0, -2.0]]  # all-equal negative window
    return x


class TestMaxPool2Oracle:
    def test_forward_matches_first_maximum_bit_for_bit(self):
        x = _tied_pool_input()
        y, _ = MaxPool2("pl").forward({}, x)
        expected, _ = _direct_pool(x)
        assert np.array_equal(y, expected)
        assert np.array_equal(np.signbit(y), np.signbit(expected))
        assert np.signbit(y[0, 0, 0, 1]) and not np.signbit(y[0, 0, 0, 2])
        assert np.signbit(y[0, 0, 0, 3])

    def test_backward_routes_to_first_maximum_bit_for_bit(self):
        x = _tied_pool_input()
        layer = MaxPool2("pl")
        y, saved = layer.forward({}, x)
        gy = -np.abs(np.random.default_rng(8).standard_normal(y.shape)) - 0.5  # all negative
        gx, grads = layer.backward({}, saved, gy, frozenset())
        assert grads == {}
        _, where = _direct_pool(x)
        expected = np.zeros_like(x)
        for (b, ch, i, j), cell in where.items():
            expected[b, ch][cell] = gy[b, ch, i, j]
        assert np.array_equal(gx, expected)
        # Unrouted cells hold +0.0, never -0.0.
        assert np.array_equal(np.signbit(gx), np.signbit(expected))
        assert np.count_nonzero(gx) == y.size

    def test_deeplift_sums_to_delta_on_tied_windows(self):
        # Constant image regions give all-equal pool windows after the ReLU.
        model = random_cnn(seed=70, input_shape=(1, 12, 12), channels=(3, 4))
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, model.input_shape)
        x[:, 2:8, 2:8] = 0.25
        for ref in (np.zeros(model.input_shape), np.full(model.input_shape, 0.5)):
            for c in (0, 1):
                contrib = deeplift_contributions(model, Tensor(x), c, Tensor(ref))
                delta = forward_values(model, x)[c] - forward_values(model, ref)[c]
                assert abs(contrib.sum() - delta) < 1e-8
