"""Oracle tests for the Conv2d and MaxPool2 kernels.

Each kernel is checked against a direct loop: one dot product per output
pixel for the convolution, one scan per window for max pooling. The loops
share nothing with the layer code beyond the input arrays. Max pooling's
DeepLIFT rule is checked against the same rule over stacked windows. Every
layer of two models is checked against the one ``backward`` contract: its
parameter gradients come back as ``RowTerms`` that total to the summed
gradient of ``backward_batch``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmap.attribution import deeplift_contributions
from fracmap.autodiff import backward_batch, forward_batch, forward_values
from fracmap.layers import Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2, ReLU, RowTerms, Standardize
from fracmap.model import tiny_cnn
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
    # One output channel: the input gradient correlates a single gy plane.
    (3, 1, (10, 12), (3, 3), "same"),
    # gy is padded by k - 1 per axis, 2 rows and 4 columns.
    (4, 6, (13, 11), (3, 5), "valid"),
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


# The blocked Conv2d kernel before it read a row-pitched buffer, frozen as
# a byte oracle for at least two input and two output channels: np.pad, a
# window copy per kernel offset, and the input
# gradient added into strided windows. Blocks hold 32768 output values. It
# is compared on planes whose oh*ow is a multiple of 8 only: on the others
# it gave each image its own product, whose last columns BLAS computes with
# edge kernels, and the pitched kernel, whose columns all lie in full tiles,
# is checked there by the direct-loop oracle above.
def _frozen_block(c, o, oh, ow):
    return max(1, 32768 // (max(o, c) * oh * ow))


def _frozen_conv_forward(x, w, b, ph, pw):
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    (o, c, kh, kw), n = w.shape, x.shape[0]
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    y = np.empty((n, o, oh, ow), dtype=np.float64)
    step = _frozen_block(c, o, oh, ow)
    for i in range(0, n, step):
        blk = xp[i : i + step].transpose(1, 0, 2, 3)
        m = blk.shape[1] * oh * ow
        acc = np.zeros((o, m), dtype=np.float64)
        for dh in range(kh):
            for dw in range(kw):
                xs = np.ascontiguousarray(blk[:, :, dh : dh + oh, dw : dw + ow]).reshape(c, m)
                acc += np.ascontiguousarray(w[:, :, dh, dw]) @ xs
        y[i : i + step] = acc.reshape(o, -1, oh, ow).transpose(1, 0, 2, 3)
    y += b[None, :, None, None]
    return y, xp


def _frozen_conv_backward(xp, w, gy, ph, pw):
    """Input, weight and bias gradients."""
    (o, c, kh, kw), (n, _, oh, ow) = w.shape, gy.shape
    gb = gy.sum(axis=(0, 2, 3))
    gym = gy.reshape(n, o, oh * ow)
    gw = np.empty_like(w)
    for dh in range(kh):
        for dw in range(kw):
            xs = np.ascontiguousarray(xp[:, :, dh : dh + oh, dw : dw + ow])
            xs = xs.reshape(n, c, oh * ow)
            gw[:, :, dh, dw] = np.matmul(gym, xs.transpose(0, 2, 1)).sum(axis=0)
    h, wdt = xp.shape[2] - 2 * ph, xp.shape[3] - 2 * pw
    gx = np.empty((n, c, h, wdt), dtype=np.float64)
    step = _frozen_block(c, o, oh, ow)
    for i in range(0, n, step):
        gyb = np.ascontiguousarray(gy[i : i + step].transpose(1, 0, 2, 3))
        k = gyb.shape[1]
        gyb = gyb.reshape(o, k * oh * ow)
        gxp = np.zeros((c, k) + xp.shape[2:], dtype=np.float64)
        for dh in range(kh):
            for dw in range(kw):
                gxs = np.ascontiguousarray(w[:, :, dh, dw]).T @ gyb
                gxp[:, :, dh : dh + oh, dw : dw + ow] += gxs.reshape(c, k, oh, ow)
        gx[i : i + step] = gxp[:, :, ph : ph + h, pw : pw + wdt].transpose(1, 0, 2, 3)
    return gx, gw, gb


def _frozen_sample(c):
    """Cases (out channels, input hw, kernel, padding, batch) for ``c`` input
    channels: a seeded draw from a grid of shapes, kept where the output
    plane is a whole number of 8-column tiles."""
    cases = []
    rng = np.random.default_rng(c)
    hws = [(4, 4), (6, 6), (8, 8), (9, 7), (7, 9), (10, 12), (12, 12), (16, 16), (18, 18), (32, 32)]
    while len(cases) < 24:
        (h, w), k = hws[rng.integers(len(hws))], int(rng.choice([1, 3, 5]))
        case = (int(rng.choice([2, 3, 8, 16])), (h, w), k,
                str(rng.choice(["same", "valid"])), int(rng.choice([1, 3, 8])))
        oh, ow = (h, w) if case[3] == "same" else (h - k + 1, w - k + 1)
        if min(oh, ow) > 0 and (oh * ow) % 8 == 0:
            cases.append(case)
    return cases


def _assert_frozen_bytes(c, o, hw, k, padding, n, forward, backward):
    """The layer's output and all three gradients have the bytes of the
    frozen ``forward(x, w, b, ph, pw) -> (y, xp)`` and ``backward(xp, w,
    gy, ph, pw) -> (gx, gw, gb)``."""
    layer = Conv2d("cv", c, o, k, k, padding)
    ph, pw = layer._pads()
    rng = np.random.default_rng(n * 1000 + o * 10 + k)
    w, b = rng.standard_normal((o, c, k, k)), rng.standard_normal(o)
    params = {"cv.weight": w, "cv.bias": b}
    x = rng.standard_normal((n, c) + hw)
    y, saved = layer.forward(params, x)
    y0, xp0 = forward(x, w, b, ph, pw)
    gy = rng.standard_normal(y0.shape)
    gx, terms = layer.backward(params, saved, gy, frozenset(params))
    grads = {name: t.total(*t.arrays) for name, t in terms.items()}
    gx0, gw0, gb0 = backward(xp0, w, gy, ph, pw)
    case = (c, o, hw, k, padding, n)
    assert y.tobytes() == y0.tobytes(), case
    assert gx.tobytes() == gx0.tobytes(), case
    assert grads["cv.weight"].tobytes() == gw0.tobytes(), case
    assert grads["cv.bias"].tobytes() == gb0.tobytes(), case


class TestConv2dFrozenKernel:
    @pytest.mark.parametrize("c", [2, 3, 8, 16])
    def test_bytes_match_the_frozen_blocked_kernel(self, c):
        for case in _frozen_sample(c):
            _assert_frozen_bytes(c, *case, _frozen_conv_forward, _frozen_conv_backward)


# Where one side of a correlation has size one, Conv2d makes its kernel
# offsets a GEMM axis, frozen here as a byte oracle over np.pad window
# copies, on the same planes as above. With one input channel (conv0):
# stacked windows @ weights forward, one (taps*C) @ gy GEMM added into
# shifted windows from +0.0 for the input gradient, and one batched matmul
# of gy and the stacked windows per image for the weight gradient. With one
# output channel the two correlations swap rules: forward adds the shifted
# rows of one (taps*C) @ x GEMM, and the input gradient multiplies the
# stacked windows of gy, padded by k - 1 - p, by the flipped weights.
def _frozen_windows(xp, kh, kw, oh, ow):
    """(n, taps, C * oh * ow) copies of the padded planes' windows, tap-major."""
    n = xp.shape[0]
    return np.stack(
        [xp[:, :, dh : dh + oh, dw : dw + ow].reshape(n, -1) for dh in range(kh) for dw in range(kw)],
        axis=1,
    )


def _frozen_stacked(xp, m, oh, ow, order=slice(None)):
    """Per block, m (rows x taps) @ the stacked windows of one-channel
    planes xp, the taps in window order or, with ``order``, another."""
    n, kh, kw = xp.shape[0], *(d - s + 1 for d, s in zip(xp.shape[2:], (oh, ow)))
    step = _frozen_block(1, m.shape[0], oh, ow)
    y = np.empty((n, m.shape[0], oh, ow), dtype=np.float64)
    for i in range(0, n, step):
        win = _frozen_windows(xp[i : i + step], kh, kw, oh, ow)[:, order]
        cols = np.ascontiguousarray(win.transpose(1, 0, 2)).reshape(m.shape[1], -1)
        y[i : i + step] = (m @ cols).reshape(m.shape[0], -1, oh, ow).transpose(1, 0, 2, 3)
    return y


def _frozen_taps_input_grad(w, gy, shape, ph, pw):
    """C == 1: per block, one (taps x O) @ gy GEMM, each tap's row added into
    its shifted window of a zeroed padded gradient."""
    (o, _, kh, kw), (n, _, oh, ow) = w.shape, gy.shape
    wt = w.reshape(o, kh * kw).T
    gx = np.empty((n, 1) + shape, dtype=np.float64)
    step = _frozen_block(1, o, oh, ow)
    for i in range(0, n, step):
        gyb = gy[i : i + step].transpose(1, 0, 2, 3).reshape(o, -1)
        k = gyb.shape[1] // (oh * ow)
        prods = (wt @ gyb).reshape(kh, kw, k, oh, ow)
        gxp = np.zeros((k, shape[0] + 2 * ph, shape[1] + 2 * pw), dtype=np.float64)
        for dh in range(kh):
            for dw in range(kw):
                gxp[:, dh : dh + oh, dw : dw + ow] += prods[dh, dw]
        gx[i : i + step, 0] = gxp[:, ph : ph + shape[0], pw : pw + shape[1]]
    return gx


def _frozen_taps_forward(xp, w, oh, ow):
    """O == 1: per block, one (taps x C) @ x GEMM over the padded planes,
    each tap's row read at its shifted window and added from +0.0."""
    (_, c, kh, kw), n, (hp, wp) = w.shape, xp.shape[0], xp.shape[2:]
    wt = w.reshape(c, kh * kw).T
    y = np.empty((n, 1, oh, ow), dtype=np.float64)
    step = _frozen_block(c, 1, oh, ow)
    for i in range(0, n, step):
        xb = xp[i : i + step].transpose(1, 0, 2, 3).reshape(c, -1)
        prods = (wt @ xb).reshape(kh, kw, -1, hp, wp)
        acc = np.zeros((prods.shape[2], oh, ow), dtype=np.float64)
        for dh in range(kh):
            for dw in range(kw):
                acc += prods[dh, dw, :, dh : dh + oh, dw : dw + ow]
        y[i : i + step, 0] = acc
    return y


def _frozen_one_side_forward(x, w, b, ph, pw):
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    o, c, kh, kw = w.shape
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    if c == 1:
        y = _frozen_stacked(xp, w.reshape(o, kh * kw), oh, ow)
    else:
        y = _frozen_taps_forward(xp, w, oh, ow)
    return y + b[None, :, None, None], xp


def _frozen_one_side_backward(xp, w, gy, ph, pw):
    """Input, weight and bias gradients."""
    (o, c, kh, kw), (n, _, oh, ow) = w.shape, gy.shape
    shape = (xp.shape[2] - 2 * ph, xp.shape[3] - 2 * pw)
    if o == 1:
        gyp = np.pad(gy, ((0, 0), (0, 0), (kh - 1 - ph, kh - 1 - ph), (kw - 1 - pw, kw - 1 - pw)))
        # Tap t is forward's offset t, whose window lies k - 1 - (dh, dw) on.
        gx = _frozen_stacked(gyp, w[0].reshape(c, kh * kw), *shape, order=slice(None, None, -1))
    else:
        gx = _frozen_taps_input_grad(w, gy, shape, ph, pw)
    if c == 1:
        win = _frozen_windows(xp, kh, kw, oh, ow)
        gw = np.matmul(gy.reshape(n, o, -1), win.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    else:
        gw = _frozen_conv_backward(xp, w, gy, ph, pw)[1]
    return gx, gw, gy.sum(axis=(0, 2, 3))


# One output channel, with one input channel and with several.
SINGLE_OUTPUT_CASES = [
    (c, 1) + case
    for c in (1, 2, 3, 8, 16)
    for case in [((8, 8), 3, "same", 3), ((10, 12), 3, "valid", 8), ((16, 16), 5, "same", 1)]
]


class TestConv2dOneSideFrozenKernel:
    @pytest.mark.parametrize(
        "case", [(1,) + case for case in _frozen_sample(1)] + SINGLE_OUTPUT_CASES, ids=str
    )
    def test_bytes_match_the_frozen_stacked_offset_kernel(self, case):
        _assert_frozen_bytes(*case, _frozen_one_side_forward, _frozen_one_side_backward)


@st.composite
def _one_side_convs(draw):
    """A conv with one input or one output channel, a batch around a block
    boundary, and the rows of it to check."""
    c, o = draw(st.sampled_from([(1, 1), (1, 2), (1, 8), (1, 16), (2, 1), (5, 1), (16, 1)]))
    k, padding = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from(["same", "valid"]))
    h, w = draw(st.integers(k, 19)), draw(st.integers(k, 19))
    layer = Conv2d("cv", c, o, k, k, padding)
    block = layer._block(*layer.out_shape((c, h, w))[1:])
    n = max(1, draw(st.sampled_from([1, 2])) * min(block, 40) + draw(st.integers(-1, 1)))
    rows = {0, n - 1, block - 1, block, draw(st.integers(0, n - 1))}
    return layer, (n, c, h, w), sorted(r for r in rows if r < n), draw(st.integers(0, 2**32 - 1))


class TestConv2dOneSideBatchInvariance:
    # With one input or one output channel the kernel offsets are a GEMM
    # axis; each image keeps the bytes of its batch-of-one pass.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=_one_side_convs())
    def test_a_row_equals_its_batch_of_one(self, case):
        layer, shape, rows, seed = case
        rng = np.random.default_rng(seed)
        params = {name: rng.standard_normal(pshape) for name, pshape, _ in layer.param_specs()}
        x = rng.standard_normal(shape)
        y, saved = layer.forward(params, x)
        gy = rng.standard_normal(y.shape)
        gx, terms = layer.backward(params, saved, gy, frozenset(params))
        for r in rows:
            y_one, saved_one = layer.forward(params, x[r : r + 1])
            gx_one, terms_one = layer.backward(params, saved_one, gy[r : r + 1], frozenset(params))
            assert y[r].tobytes() == y_one[0].tobytes(), r
            assert gx[r].tobytes() == gx_one[0].tobytes(), r
            for name, t in terms.items():
                for a, a_one in zip(t.arrays, terms_one[name].arrays, strict=True):
                    assert a[r].tobytes() == a_one[0].tobytes(), (name, r)


CONTRACT_MODELS = {
    "tiny_cnn": tiny_cnn(3, input_shape=(1, 32, 32)),
    # A global-average head, and a conv with one output channel, whose bias
    # keeps gy itself as its term.
    "gap_cnn": random_cnn(seed=6, input_shape=(2, 12, 12), channels=(3, 1), head="gap"),
}


class TestBackwardContract:
    # Every layer's backward returns its parameter gradients as RowTerms,
    # one per requested name it has a gradient for; backward_batch totals them.
    @pytest.mark.parametrize(
        "model_id, index",
        [(model_id, i) for model_id, m in CONTRACT_MODELS.items() for i in range(len(m.layers))],
    )
    def test_layer_returns_row_terms_that_total_to_the_summed_gradient(self, model_id, index):
        model = CONTRACT_MODELS[model_id]
        rng = np.random.default_rng(index)
        xb = rng.uniform(0.0, 1.0, (5,) + model.input_shape)
        seed = rng.standard_normal((5, model.num_classes))
        names = frozenset(
            name for layer in model.layers for name, _, has_grad in layer.param_specs() if has_grad
        )
        _, summed = backward_batch(forward_batch(model, xb)[1], seed, names)
        _, tape = forward_batch(model, xb)
        gx = seed
        for layer, saved in reversed(tape.records[index:]):
            gx, terms = layer.backward(model.params, saved, gx, names)
        assert layer is model.layers[index]
        x = xb
        for below in model.layers[:index]:
            x = below.forward(model.params, x)[0]
        assert isinstance(gx, np.ndarray) and gx.shape == x.shape
        owned = [name for name, _, has_grad in layer.param_specs() if has_grad]
        assert sorted(terms) == sorted(owned)
        for name in owned:
            t = terms[name]
            assert isinstance(t, RowTerms)
            assert all(len(a) == len(xb) for a in t.arrays), name
            assert t.total(*t.arrays).tobytes() == summed[name].tobytes(), name


def _direct_pool(x):
    """First maximum of each 2x2 window in row-major order, and its position.

    A window holding a NaN has a NaN maximum and no position (None): its
    gradient goes to no cell.
    """
    n, c, h, w = x.shape
    y = np.empty((n, c, h // 2, w // 2))
    where = {}
    for idx in np.ndindex(n, c, h // 2, w // 2):
        b, ch, i, j = idx
        cells = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
        if any(np.isnan(x[b, ch][cell]) for cell in cells):
            y[idx], where[idx] = np.nan, None
            continue
        best = cells[0]
        for cell in cells[1:]:
            if x[b, ch][cell] > x[b, ch][best]:
                best = cell
        y[idx] = x[b, ch][best]
        where[idx] = best
    return y, where


def _direct_pool_grad(x, gy):
    """gy's value copied to each window's first-maximum cell; +0.0 elsewhere."""
    gx = np.zeros_like(x)
    for (b, ch, i, j), cell in _direct_pool(x)[1].items():
        if cell is not None:
            gx[b, ch][cell] = gy[b, ch, i, j]
    return gx


def _stacked_pool_multipliers(x, ref, m_out):
    """MaxPool2's DeepLIFT rule over the four window cells stacked on a last
    axis: argmax routing with an exact-conservation ratio, or the squared-delta
    spread when the argmax cell's own delta is below the rescale fallback."""
    def win(a):
        return np.stack([a[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)], axis=-1)

    win_x, win_ref = win(x), win(ref)
    idx = np.argmax(win_x, axis=-1)[..., None]
    dwin = win_x - win_ref
    dy = np.take_along_axis(win_x, idx, axis=-1) - np.max(win_ref, axis=-1, keepdims=True)
    d_amax = np.take_along_axis(dwin, idx, axis=-1)
    wta = np.zeros_like(dwin)
    np.put_along_axis(wta, idx, dy / np.where(np.abs(d_amax) < 1e-7, 1.0, d_amax), axis=-1)
    sq = np.sum(dwin * dwin, axis=-1, keepdims=True)
    prop = dy * dwin / np.where(sq == 0.0, 1.0, sq)
    mwin = m_out[..., None] * np.where(np.abs(d_amax) >= 1e-7, wta, prop)
    m_in = np.empty(x.shape)
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        m_in[:, :, i::2, j::2] = mwin[..., k]
    return m_in


def _special_pool_pair(rng, shape):
    """An input and a reference with tied windows, +-0.0 and NaN cells,
    identical windows, and cells whose delta is below the rescale fallback."""
    x = rng.integers(-2, 3, size=shape) * 0.5
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.5] *= -1.0  # half the zeros become -0.0
    step = rng.choice([0.0, -0.0, 1e-9, -1e-9, 0.5, -1.0, 0.3], size=shape)
    ref = x - step
    ref[:, :, 4:8] = x[:, :, 4:8]  # rows of identical windows
    for a in (x, ref):
        a[rng.random(shape) < 0.01] = np.nan
    return x, ref


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
        expected = _direct_pool_grad(x, gy)
        assert np.array_equal(gx, expected)
        # Unrouted cells hold +0.0, never -0.0.
        assert np.array_equal(np.signbit(gx), np.signbit(expected))
        assert np.count_nonzero(gx) == y.size

    def test_backward_copies_gradient_bits_and_leaves_plus_zero(self):
        # Routed cells get gy's exact bits (-0.0, NaN, +-inf included); every
        # other cell gets +0.0, also where gy is NaN, inf or negative. A
        # product ``gy * hit`` would leave -0.0 and NaN in unrouted cells.
        x = _tied_pool_input()
        x[1, 0, 0:2, 0:2] = [[1.0, np.nan], [2.0, 3.0]]  # NaN window: routes nowhere
        x[1, 0, 0:2, 2:4] = [[np.nan, np.nan], [-np.inf, 0.0]]
        x[1, 1, 0:2, 0:2] = [[0.0, np.inf], [1.0, np.inf]]  # first +inf takes it
        x[1, 1, 0:2, 2:4] = [[-np.inf, -np.inf], [-np.inf, -np.inf]]
        x[1, 1, 0:2, 4:6] = [[-np.inf, -7.0], [np.inf, -np.inf]]
        layer = MaxPool2("pl")
        y, saved = layer.forward({}, x)
        gy = np.random.default_rng(10).standard_normal(y.shape)
        specials = [-0.0, np.nan, np.inf, -np.inf]
        flat = gy.reshape(-1)
        flat[::5] = np.resize(specials, flat[::5].size)
        gy[1, 0, 0, 0:2] = [np.nan, -0.0]  # the NaN windows
        gy[1, 1, 0, 0:3] = [-0.0, np.nan, -np.inf]  # the inf windows
        gx, _ = layer.backward({}, saved, gy, frozenset())
        assert gx.tobytes() == _direct_pool_grad(x, gy).tobytes()
        where = _direct_pool(x)[1]
        assert where[1, 0, 0, 0] is None and where[1, 0, 0, 1] is None
        routed = np.array([gy[idx] for idx, cell in where.items() if cell is not None])
        assert np.any(np.isnan(routed)) and np.any(np.isinf(routed) & (routed > 0))
        assert np.any(np.isinf(routed) & (routed < 0)) and np.any((routed == 0) & np.signbit(routed))

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

    @pytest.mark.parametrize("shape", [(8, 64, 64), (16, 32, 32), (32, 16, 16)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_multipliers_match_the_stacked_window_rule_bit_for_bit(self, n, shape):
        rng = np.random.default_rng(sum(shape) + n)
        x, ref = _special_pool_pair(rng, (n,) + shape)
        layer = MaxPool2("pl")
        y, saved_x = layer.forward({}, x)
        _, saved_ref = layer.forward({}, ref)
        m_out = rng.standard_normal(y.shape)
        m_out.reshape(-1)[::7] = -0.0
        got = layer.multipliers({}, saved_x, saved_ref, m_out)
        expected = _stacked_pool_multipliers(x, ref, m_out)
        assert got.tobytes() == expected.tobytes()
        # Every path of the rule is taken: routed, spread, identical and NaN windows.
        d = np.abs(x - ref)
        assert np.any(d > 1e-7) and np.any((d > 0) & (d < 1e-7)) and np.any(np.isnan(got))
        assert np.any((got == 0) & np.signbit(got)) and np.any((got == 0) & ~np.signbit(got))


LAYERS = [
    lambda name="a": Standardize(name, 3),
    lambda name="a": Conv2d(name, 1, 8, 3, 3),
    lambda name="a": ReLU(name),
    lambda name="a": MaxPool2(name),
    lambda name="a": GlobalAvgPool(name),
    lambda name="a": Flatten(name),
    lambda name="a": Dense(name, 4, 2),
]


class TestLayerValues:
    """Layers are frozen values: equal fields make equal layers of one kind."""

    @pytest.mark.parametrize("make", LAYERS, ids=lambda make: type(make()).__name__)
    def test_equal_fields_give_equal_layers_and_hashes(self, make):
        assert make() == make() and hash(make()) == hash(make())
        assert make("a") != make("b")

    def test_kinds_with_the_same_name_differ(self):
        layers = [make() for make in LAYERS]
        assert all(a != b for i, a in enumerate(layers) for b in layers[i + 1 :])
        assert len(set(layers)) == len(LAYERS)

    @pytest.mark.parametrize("make", LAYERS, ids=lambda make: type(make()).__name__)
    def test_fields_cannot_be_assigned(self, make):
        with pytest.raises(dataclasses.FrozenInstanceError):
            make().name = "b"

    def test_repr_lists_the_fields(self):
        assert [repr(make()) for make in LAYERS] == [
            "Standardize(name='a', channels=3)",
            "Conv2d(name='a', in_channels=1, out_channels=8, kernel_h=3, kernel_w=3, "
            "padding='same')",
            "ReLU(name='a')",
            "MaxPool2(name='a')",
            "GlobalAvgPool(name='a')",
            "Flatten(name='a')",
            "Dense(name='a', in_features=4, out_features=2)",
        ]
        assert repr(ReLU("relu0")) == "ReLU(name='relu0')"

    def test_replace_makes_a_new_layer(self):
        conv = Conv2d("c", 1, 8, 3, 3)
        valid = dataclasses.replace(conv, padding="valid")
        assert valid == Conv2d("c", 1, 8, kernel_h=3, kernel_w=3, padding="valid")
        assert conv.padding == "same" and valid != conv
        assert dataclasses.replace(ReLU("r"), name="s") == ReLU("s")
