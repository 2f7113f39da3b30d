"""Layer descriptors for small CNNs and their forward/backward/multiplier rules.

Each layer is a frozen dataclass describing one stage of a sequential network:

* ``Standardize``  - per-channel affine preamble (x - mean) / std
* ``Conv2d``       - stride-1 2-D correlation, "valid" or "same" zero padding
* ``ReLU``         - elementwise max(x, 0); subgradient at 0 is defined as 0
* ``MaxPool2``     - 2x2 max pooling with stride 2, row-major tie-breaking
* ``GlobalAvgPool``- spatial mean per channel
* ``Flatten``      - row-major reshape to a vector
* ``Dense``        - fully connected affine map on a vector

All compute methods take arrays with a leading batch axis (images are
``(N, C, H, W)``, vectors ``(N, F)``); single-image callers wrap a batch of
one. Every layer implements three passes over plain float64 ndarrays:

* ``forward(params, x) -> (y, saved)`` where ``saved`` holds whatever the
  reverse passes need,
* ``backward(params, saved, gy, grad_names) -> (gx, param_grads)`` for
  reverse-mode gradients; parameter gradients are summed over the batch and
  only materialized for names in ``grad_names``. Layers with parameters also
  take ``input_grad=False``, which skips ``gx`` (returned as None) for a
  caller that reads only the parameter gradients,
* ``multipliers(params, saved_x, saved_ref, m_out) -> m_in`` for
  reference-based contribution backpropagation. For an affine layer the
  delta passes through the transpose and any bias cancels between the two
  forward passes, so its multipliers are its input gradient: those layers
  share one rule that calls ``backward``. ReLU rescales by delta-out/delta-in
  (falling back to the gradient when |delta-in| < 1e-7), and max pooling
  routes through the window's first maximum with an exact-conservation
  ratio. Each rule preserves sum(m_in * delta_in) == sum(m_out * delta_out),
  so the final contributions sum to the output change from the reference.

Each class also names the ``key=value`` fields of its MWF1 ``layer.N``
line: ``file_fields`` lists ``(key, attribute, cast)`` in on-disk order,
after the leading kind word and ``name=``. ``Conv2d`` writes
``in/out/kh/kw/padding``, ``Standardize`` ``channels``, ``Dense``
``in/out``, and a layer without parameters writes none. The model module
saves and loads every kind through these fields and ``LAYER_KINDS``.

The two hot kernels produce the bytes of a plain per-image evaluation:

* ``Conv2d`` runs, per kernel offset, one channel-first GEMM
  ``(O x C) @ (C x block*oh*ow)`` over a block of images, sized by
  ``CONV_BLOCK_VALUES`` so that the block's output stays in cache. Each
  output still sums over C inside one product and over offsets in
  row-major order. With C == 1 the product has K = 1, and a broadcast
  multiply gives the same bytes faster. The input gradient is blocked the
  same way; the weight gradient keeps a per-image GEMM and a batch sum.
* ``MaxPool2`` takes the max of the four strided views ``x[..., i::2, j::2]``
  and saves only ``x`` and ``y``; backward routes to the first view equal to
  ``y``, and DeepLIFT rebuilds the windows from ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayerShapeError",
    "Standardize",
    "Conv2d",
    "ReLU",
    "MaxPool2",
    "GlobalAvgPool",
    "Flatten",
    "Dense",
    "LAYER_KINDS",
]

# Below this input delta the rescale ratio is replaced by the gradient.
RESCALE_FALLBACK = 1e-7

# Output values (channels x images x pixels) per block of a Conv2d GEMM.
CONV_BLOCK_VALUES = 32768
# Column tile of the BLAS GEMM kernels; see Conv2d._block.
GEMM_TILE = 8


class LayerShapeError(ValueError):
    """Raised when a layer cannot accept the shape flowing into it."""


class _Layer:
    """Defaults for a layer without parameters."""

    file_fields = ()

    def param_names(self):
        return ()

    def param_shapes(self):
        return ()

    def default_trainable(self):
        return ()


class _Affine(_Layer):
    """Layers affine in their input: the multipliers are the input gradient."""

    def multipliers(self, params, saved_x, saved_ref, m_out):
        return self.backward(params, saved_x, m_out, frozenset())[0]


@dataclass(frozen=True)
class Standardize(_Affine):
    """Per-channel affine input normalization: (x - mean) / std."""

    name: str
    channels: int

    kind = "standardize"
    file_fields = (("channels", "channels", int),)

    def param_names(self):
        return (f"{self.name}.mean", f"{self.name}.std")

    def param_shapes(self):
        return ((self.channels,), (self.channels,))

    def default_trainable(self):
        return (False, False)

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.channels:
            raise LayerShapeError(
                f"layer {self.name!r} expects {self.channels} channels, got input shape {in_shape}"
            )
        return in_shape

    def forward(self, params, x):
        mean = params[f"{self.name}.mean"][None, :, None, None]
        std = params[f"{self.name}.std"][None, :, None, None]
        return (x - mean) / std, {}

    def backward(self, params, saved, gy, grad_names, input_grad=True):
        if not input_grad:
            return None, {}
        std = params[f"{self.name}.std"][None, :, None, None]
        return gy / std, {}


@dataclass(frozen=True)
class Conv2d(_Affine):
    """Stride-1 2-D correlation with zero padding ("valid" or "same")."""

    name: str
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    padding: str = "same"

    kind = "conv2d"
    file_fields = (
        ("in", "in_channels", int),
        ("out", "out_channels", int),
        ("kh", "kernel_h", int),
        ("kw", "kernel_w", int),
        ("padding", "padding", str),
    )

    def __post_init__(self):
        if self.padding not in ("valid", "same"):
            raise LayerShapeError(f"layer {self.name!r}: padding must be 'valid' or 'same'")
        if self.padding == "same" and (self.kernel_h % 2 == 0 or self.kernel_w % 2 == 0):
            raise LayerShapeError(f"layer {self.name!r}: 'same' padding needs odd kernel sizes")

    def param_names(self):
        return (f"{self.name}.weight", f"{self.name}.bias")

    def param_shapes(self):
        return (
            (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w),
            (self.out_channels,),
        )

    def default_trainable(self):
        return (True, True)

    def _pads(self):
        if self.padding == "same":
            return (self.kernel_h - 1) // 2, (self.kernel_w - 1) // 2
        return 0, 0

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise LayerShapeError(
                f"layer {self.name!r} expects {self.in_channels}xHxW input, got {in_shape}"
            )
        ph, pw = self._pads()
        oh = in_shape[1] + 2 * ph - self.kernel_h + 1
        ow = in_shape[2] + 2 * pw - self.kernel_w + 1
        if oh <= 0 or ow <= 0:
            raise LayerShapeError(
                f"layer {self.name!r}: kernel {self.kernel_h}x{self.kernel_w} does not fit "
                f"input shape {in_shape}"
            )
        return (self.out_channels, oh, ow)

    def _block(self, oh, ow):
        """Images per GEMM block: as many as keep one block's output in cache.

        BLAS computes a product's last few columns with edge kernels whose
        summation order can differ, so images share a product only when
        each starts on a column tile (oh * ow a multiple of GEMM_TILE);
        otherwise every image gets its own product, as one image alone does.
        """
        if (oh * ow) % GEMM_TILE:
            return 1
        return max(1, CONV_BLOCK_VALUES // (max(self.out_channels, self.in_channels) * oh * ow))

    def forward(self, params, x):
        # Per block of images and kernel offset, one channel-first GEMM
        # (O x C) @ (C x block*oh*ow): each output sums over C inside one
        # product and over offsets in row-major order, as per image. With
        # C == 1 the product has K = 1, so a broadcast multiply is exact.
        w = params[f"{self.name}.weight"]
        b = params[f"{self.name}.bias"]
        ph, pw = self._pads()
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        n, c, o = x.shape[0], self.in_channels, self.out_channels
        oh = xp.shape[2] - self.kernel_h + 1
        ow = xp.shape[3] - self.kernel_w + 1
        y = np.empty((n, o, oh, ow), dtype=np.float64)
        step = self._block(oh, ow)
        for i in range(0, n, step):
            blk = xp[i : i + step].transpose(1, 0, 2, 3)
            m = blk.shape[1] * oh * ow
            acc = np.zeros((o, m), dtype=np.float64)
            for dh in range(self.kernel_h):
                for dw in range(self.kernel_w):
                    xs = np.ascontiguousarray(blk[:, :, dh : dh + oh, dw : dw + ow]).reshape(c, m)
                    if c == 1:
                        acc += w[:, 0, dh, dw][:, None] * xs
                    else:
                        acc += np.ascontiguousarray(w[:, :, dh, dw]) @ xs
            y[i : i + step] = acc.reshape(o, -1, oh, ow).transpose(1, 0, 2, 3)
        y += b[None, :, None, None]
        return y, {"xp": xp, "in_hw": x.shape[2:]}

    def backward(self, params, saved, gy, grad_names, input_grad=True):
        w = params[f"{self.name}.weight"]
        xp = saved["xp"]
        n, c, o = gy.shape[0], self.in_channels, self.out_channels
        oh, ow = gy.shape[2], gy.shape[3]
        grads = {}
        if f"{self.name}.bias" in grad_names:
            grads[f"{self.name}.bias"] = gy.sum(axis=(0, 2, 3))
        if f"{self.name}.weight" in grad_names:
            # Per-image GEMM, then a sum over the batch, per kernel offset.
            gym = gy.reshape(n, o, oh * ow)
            gw = np.empty_like(w)
            for dh in range(self.kernel_h):
                for dw in range(self.kernel_w):
                    xs = np.ascontiguousarray(xp[:, :, dh : dh + oh, dw : dw + ow])
                    xs = xs.reshape(n, c, oh * ow)
                    gw[:, :, dh, dw] = np.matmul(gym, xs.transpose(0, 2, 1)).sum(axis=0)
            grads[f"{self.name}.weight"] = gw
        if not input_grad:
            return None, grads
        # Blocked like forward: per offset, one (C x O) @ (O x block*oh*ow)
        # product, added into the padded gradient in row-major offset order.
        ph, pw = self._pads()
        h, wdt = saved["in_hw"]
        gx = np.empty((n, c, h, wdt), dtype=np.float64)
        step = self._block(oh, ow)
        for i in range(0, n, step):
            gyb = np.ascontiguousarray(gy[i : i + step].transpose(1, 0, 2, 3))
            k = gyb.shape[1]
            gyb = gyb.reshape(o, k * oh * ow)
            gxp = np.zeros((c, k) + xp.shape[2:], dtype=np.float64)
            for dh in range(self.kernel_h):
                for dw in range(self.kernel_w):
                    gxs = np.ascontiguousarray(w[:, :, dh, dw]).T @ gyb
                    gxp[:, :, dh : dh + oh, dw : dw + ow] += gxs.reshape(c, k, oh, ow)
            gx[i : i + step] = gxp[:, :, ph : ph + h, pw : pw + wdt].transpose(1, 0, 2, 3)
        return gx, grads


@dataclass(frozen=True)
class ReLU(_Layer):
    """Elementwise max(x, 0). The subgradient at exactly 0 is 0."""

    name: str

    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, params, x):
        return np.maximum(x, 0.0), {"x": x}

    def backward(self, params, saved, gy, grad_names):
        return gy * (saved["x"] > 0.0), {}

    def multipliers(self, params, saved_x, saved_ref, m_out):
        dx = saved_x["x"] - saved_ref["x"]
        dy = np.maximum(saved_x["x"], 0.0) - np.maximum(saved_ref["x"], 0.0)
        grad = (saved_x["x"] > 0.0).astype(np.float64)
        ratio = np.where(np.abs(dx) < RESCALE_FALLBACK, grad, dy / np.where(dx == 0.0, 1.0, dx))
        return m_out * ratio


@dataclass(frozen=True)
class MaxPool2(_Layer):
    """2x2 max pooling with stride 2; ties go to the first window element."""

    name: str

    kind = "maxpool2"

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[1] % 2 or in_shape[2] % 2:
            raise LayerShapeError(
                f"layer {self.name!r} needs even spatial dimensions, got {in_shape}"
            )
        return (in_shape[0], in_shape[1] // 2, in_shape[2] // 2)

    @staticmethod
    def _views(x):
        # The four window cells as strided views, in row-major window order;
        # stacked along a last axis, argmax's first-maximum rule matches the
        # documented tie-breaking.
        return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]

    def forward(self, params, x):
        # np.maximum returns its second operand on a tie (-0.0 vs +0.0), so
        # chaining maximum(later, earlier) keeps the first maximum's bytes.
        views = self._views(x)
        y = views[0].copy()
        for v in views[1:]:
            np.maximum(v, y, out=y)
        return y, {"x": x, "y": y}

    def backward(self, params, saved, gy, grad_names):
        # Route gy to the first view, in row-major order, that equals the
        # max; every other cell gets +0.0.
        x, y = saved["x"], saved["y"]
        gx = np.empty(x.shape, dtype=np.float64)
        unrouted = np.ones(y.shape, dtype=bool)
        for v, g in zip(self._views(x), self._views(gx)):
            hit = (v == y) & unrouted
            unrouted &= ~hit
            g[...] = np.where(hit, gy, 0.0)
        return gx, {}

    def multipliers(self, params, saved_x, saved_ref, m_out):
        # Route each window's multiplier to the forward-pass argmax, rescaled
        # so the routed contribution equals m_out * (max_x - max_ref) exactly.
        # When the argmax cell's own delta is negligible, spread the output
        # delta across the window proportionally to the squared cell deltas
        # instead; identical windows contribute exactly zero either way.
        win_x = np.stack(self._views(saved_x["x"]), axis=-1)
        win_ref = np.stack(self._views(saved_ref["x"]), axis=-1)
        idx = np.argmax(win_x, axis=-1)[..., None]
        dwin = win_x - win_ref
        dy = np.take_along_axis(win_x, idx, axis=-1) - np.max(win_ref, axis=-1, keepdims=True)
        d_amax = np.take_along_axis(dwin, idx, axis=-1)

        wta = np.zeros_like(dwin)
        np.put_along_axis(
            wta, idx, dy / np.where(np.abs(d_amax) < RESCALE_FALLBACK, 1.0, d_amax), axis=-1
        )
        sq = np.sum(dwin * dwin, axis=-1, keepdims=True)
        prop = dy * dwin / np.where(sq == 0.0, 1.0, sq)
        use_wta = np.abs(d_amax) >= RESCALE_FALLBACK
        mwin = m_out[..., None] * np.where(use_wta, wta, prop)
        m_in = np.empty(saved_x["x"].shape, dtype=np.float64)
        for k, v in enumerate(self._views(m_in)):
            v[...] = mwin[..., k]
        return m_in


@dataclass(frozen=True)
class GlobalAvgPool(_Affine):
    """Mean over the spatial dimensions, one value per channel."""

    name: str

    kind = "gap"

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise LayerShapeError(f"layer {self.name!r} needs a CxHxW input, got {in_shape}")
        return (in_shape[0],)

    def forward(self, params, x):
        return x.mean(axis=(2, 3)), {"shape": x.shape}

    def backward(self, params, saved, gy, grad_names):
        n, c, h, w = saved["shape"]
        return np.broadcast_to(gy[:, :, None, None] / (h * w), (n, c, h, w)).copy(), {}


@dataclass(frozen=True)
class Flatten(_Affine):
    """Row-major reshape to a vector (per batch element)."""

    name: str

    kind = "flatten"

    def out_shape(self, in_shape):
        n = 1
        for d in in_shape:
            n *= d
        return (n,)

    def forward(self, params, x):
        return x.reshape(x.shape[0], -1), {"shape": x.shape}

    def backward(self, params, saved, gy, grad_names):
        return gy.reshape(saved["shape"]), {}


@dataclass(frozen=True)
class Dense(_Affine):
    """Fully connected affine map y = W x + b on a vector input."""

    name: str
    in_features: int
    out_features: int

    kind = "dense"
    file_fields = (("in", "in_features", int), ("out", "out_features", int))

    def param_names(self):
        return (f"{self.name}.weight", f"{self.name}.bias")

    def param_shapes(self):
        return ((self.out_features, self.in_features), (self.out_features,))

    def default_trainable(self):
        return (True, True)

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise LayerShapeError(
                f"layer {self.name!r} expects a vector of {self.in_features}, got {in_shape}"
            )
        return (self.out_features,)

    def forward(self, params, x):
        w = params[f"{self.name}.weight"]
        b = params[f"{self.name}.bias"]
        return x @ w.T + b[None, :], {"x": x}

    def backward(self, params, saved, gy, grad_names, input_grad=True):
        w = params[f"{self.name}.weight"]
        grads = {}
        if f"{self.name}.weight" in grad_names:
            grads[f"{self.name}.weight"] = gy.T @ saved["x"]
        if f"{self.name}.bias" in grad_names:
            grads[f"{self.name}.bias"] = gy.sum(axis=0)
        return (gy @ w if input_grad else None), grads


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Standardize, Conv2d, ReLU, MaxPool2, GlobalAvgPool, Flatten, Dense)
}
