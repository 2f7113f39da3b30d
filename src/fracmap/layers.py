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
  only materialized for names in ``grad_names``,
* ``multipliers(params, saved_x, saved_ref, m_out) -> m_in`` for
  reference-based contribution backpropagation. For an affine layer the
  delta passes through the transpose and any bias cancels between the two
  forward passes, so its multipliers are its input gradient: those layers
  share one rule that calls ``backward``. ReLU rescales by delta-out/delta-in
  (falling back to the gradient when |delta-in| < 1e-7), and max pooling
  routes through the forward-pass argmax with an exact-conservation ratio.
  Each rule preserves sum(m_in * delta_in) == sum(m_out * delta_out), so the
  final contributions sum to the output change from the reference.
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


class LayerShapeError(ValueError):
    """Raised when a layer cannot accept the shape flowing into it."""


class _Layer:
    """Defaults for a layer without parameters."""

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

    def backward(self, params, saved, gy, grad_names):
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

    def forward(self, params, x):
        # One GEMM per kernel offset over shifted slices of the padded input.
        w = params[f"{self.name}.weight"]
        b = params[f"{self.name}.bias"]
        ph, pw = self._pads()
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        n, c = x.shape[0], self.in_channels
        oh = xp.shape[2] - self.kernel_h + 1
        ow = xp.shape[3] - self.kernel_w + 1
        acc = np.zeros((n, self.out_channels, oh * ow), dtype=np.float64)
        for dh in range(self.kernel_h):
            for dw in range(self.kernel_w):
                xs = np.ascontiguousarray(xp[:, :, dh : dh + oh, dw : dw + ow])
                acc += np.ascontiguousarray(w[:, :, dh, dw]) @ xs.reshape(n, c, oh * ow)
        y = acc.reshape(n, self.out_channels, oh, ow) + b[None, :, None, None]
        return y, {"xp": xp, "in_hw": x.shape[2:]}

    def backward(self, params, saved, gy, grad_names):
        w = params[f"{self.name}.weight"]
        xp = saved["xp"]
        ph, pw = self._pads()
        n, oh, ow = gy.shape[0], gy.shape[2], gy.shape[3]
        gym = gy.reshape(n, self.out_channels, oh * ow)
        grads = {}
        need_w = f"{self.name}.weight" in grad_names
        if need_w:
            gw = np.empty_like(w)
        if f"{self.name}.bias" in grad_names:
            grads[f"{self.name}.bias"] = gy.sum(axis=(0, 2, 3))
        gxp = np.zeros_like(xp)
        for dh in range(self.kernel_h):
            for dw in range(self.kernel_w):
                if need_w:
                    xs = np.ascontiguousarray(xp[:, :, dh : dh + oh, dw : dw + ow])
                    xs = xs.reshape(n, self.in_channels, oh * ow)
                    gw[:, :, dh, dw] = np.matmul(gym, xs.transpose(0, 2, 1)).sum(axis=0)
                gxs = np.ascontiguousarray(w[:, :, dh, dw]).T @ gym
                gxp[:, :, dh : dh + oh, dw : dw + ow] += gxs.reshape(
                    n, self.in_channels, oh, ow
                )
        if need_w:
            grads[f"{self.name}.weight"] = gw
        h, wdt = saved["in_hw"]
        gx = gxp[:, :, ph : ph + h, pw : pw + wdt] if (ph or pw) else gxp
        return np.ascontiguousarray(gx), grads


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
    def _windows(x):
        n, c, h, w = x.shape
        # Last axis enumerates window cells in row-major order, so argmax's
        # first-maximum rule matches the documented tie-breaking.
        return x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h // 2, w // 2, 4
        )

    @staticmethod
    def _unwindow(win, shape):
        n, c, h, w = shape
        return win.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h, w
        )

    def forward(self, params, x):
        win = self._windows(x)
        idx = np.argmax(win, axis=-1)
        y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return y, {"idx": idx, "shape": x.shape, "win": win}

    def backward(self, params, saved, gy, grad_names):
        scatter = np.zeros(saved["win"].shape, dtype=np.float64)
        np.put_along_axis(scatter, saved["idx"][..., None], gy[..., None], axis=-1)
        return self._unwindow(scatter, saved["shape"]), {}

    def multipliers(self, params, saved_x, saved_ref, m_out):
        # Route each window's multiplier to the forward-pass argmax, rescaled
        # so the routed contribution equals m_out * (max_x - max_ref) exactly.
        # When the argmax cell's own delta is negligible, spread the output
        # delta across the window proportionally to the squared cell deltas
        # instead; identical windows contribute exactly zero either way.
        win_x = saved_x["win"]
        win_ref = saved_ref["win"]
        idx = saved_x["idx"][..., None]
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
        return self._unwindow(mwin, saved_x["shape"])


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

    def backward(self, params, saved, gy, grad_names):
        w = params[f"{self.name}.weight"]
        grads = {}
        if f"{self.name}.weight" in grad_names:
            grads[f"{self.name}.weight"] = gy.T @ saved["x"]
        if f"{self.name}.bias" in grad_names:
            grads[f"{self.name}.bias"] = gy.sum(axis=0)
        return gy @ w, grads


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Standardize, Conv2d, ReLU, MaxPool2, GlobalAvgPool, Flatten, Dense)
}
