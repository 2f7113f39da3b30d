"""Layer descriptors for small CNNs and their forward/backward/multiplier rules.

Each layer is a frozen dataclass describing one stage of a sequential
network; ``name`` is declared once, on ``_Layer``, and ``LAYER_KINDS`` maps
each kind word to its class.

All compute methods take arrays with a leading batch axis (images are
``(N, C, H, W)``, vectors ``(N, F)``); single-image callers wrap a batch of
one. Every layer implements three passes over plain float64 ndarrays:

* ``forward(params, x) -> (y, saved)`` where ``saved`` holds whatever the
  reverse passes need,
* ``backward(params, saved, gy, grad_names) -> (gx, terms)`` for
  reverse-mode gradients. ``terms`` maps each name in ``grad_names`` that
  the layer has a gradient for to its ``RowTerms``: the gradient before its
  batch sum, one leading entry per image, which ``total(*arrays)`` sums.
  ``Conv2d`` and ``Dense`` also take ``input_grad=False``, which skips
  ``gx`` (returned as None) for a caller that reads only the parameter
  gradients,
* ``multipliers(params, saved_x, saved_ref, m_out) -> m_in`` for
  reference-based contribution backpropagation: an affine layer's are its
  input gradient (``_Affine``), ReLU rescales by delta-out/delta-in, and
  max pooling routes through the window's first maximum. Each rule
  preserves sum(m_in * delta_in) == sum(m_out * delta_out), so the final
  contributions sum to the output change from the reference.

Each class declares its parameters once, in ``param_specs()``: one
``(name, shape, trainable)`` per parameter, in MWF1 blob order, where
``trainable`` says whether ``backward`` has a gradient for it (a model may
still freeze such a parameter, but never trains one without);
``param_names()`` reads it. Each class also names the ``key=value`` fields
of its MWF1 ``layer.N`` line: ``file_fields`` lists ``(key, attribute,
cast)`` in on-disk order, after the leading kind word and ``name=``; the
model module saves and loads every kind through them.

The kernels give an image the bytes of its batch-of-one pass, whatever
else shares the batch; README, "Speed and exactness", says how.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

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
    "RowTerms",
    "sum_row_terms",
    "LAYER_KINDS",
]

# Below this input delta the rescale ratio is replaced by the gradient.
RESCALE_FALLBACK = 1e-7

# Output values (channels x images x pixels) per block of a Conv2d GEMM;
# of 16384 to 98304, the fastest for tiny_cnn's PGD training step.
CONV_BLOCK_VALUES = 32768
# Tile of the BLAS GEMM kernels: Conv2d's column tile, and Dense's row
# block, a multiple of the 4-row tile. A row or column inside a full tile of
# a GEMM of one size gets the same bits wherever the tile lies; the last
# partial tile goes to edge kernels whose summation order can differ.
GEMM_TILE = 8


def round_up_to_tile(n):
    """n rounded up to a whole number of GEMM tiles."""
    return -(-n // GEMM_TILE) * GEMM_TILE


class LayerShapeError(ValueError):
    """Raised when a layer cannot accept the shape flowing into it."""


@dataclass(frozen=True)
class RowTerms:
    """A parameter gradient before its batch sum: ``total(*arrays)`` is the
    gradient, and each array has one leading entry per image."""

    total: object
    arrays: tuple


def sum_row_terms(parts):
    """One gradient per parameter from row parts' ``{name: RowTerms}``, given
    in row order: each array is joined over the parts, then totalled once."""
    return {
        name: terms.total(*(np.concatenate(a) for a in zip(*(p[name].arrays for p in parts))))
        for name, terms in parts[0].items()
    }


_batch_sum = partial(np.sum, axis=0)


def _offset_sums(shape, *stacks):
    """A (O, C, kh, kw) weight gradient from one (n, O, C) stack per kernel
    offset, in row-major offset order, or, with C == 1, one (n, O, taps)
    stack: each stack summed over the batch."""
    return np.stack([stack.sum(axis=0) for stack in stacks], axis=-1).reshape(shape)


@dataclass(frozen=True)
class _Layer:
    """Every layer's ``name``, defaults for a layer without parameters, and ``param_names()``."""

    name: str

    file_fields = ()

    def param_specs(self):
        return ()

    def param_names(self):
        return tuple(name for name, _, _ in self.param_specs())


class _Affine(_Layer):
    """Layers affine in their input: the multipliers are the input gradient."""

    def multipliers(self, params, saved_x, saved_ref, m_out):
        return self.backward(params, saved_x, m_out, frozenset())[0]


@dataclass(frozen=True)
class Standardize(_Affine):
    """Per-channel affine input normalization: (x - mean) / std."""

    channels: int

    kind = "standardize"
    file_fields = (("channels", "channels", int),)

    def param_specs(self):
        return (
            (f"{self.name}.mean", (self.channels,), False),
            (f"{self.name}.std", (self.channels,), False),
        )

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

    def param_specs(self):
        shape = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        return (
            (f"{self.name}.weight", shape, True),
            (f"{self.name}.bias", (self.out_channels,), True),
        )

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
        """Images per GEMM block: as many as keep one block's output in cache."""
        return max(1, CONV_BLOCK_VALUES // (max(self.out_channels, self.in_channels) * oh * ow))

    def _offsets(self):
        return [(dh, dw) for dh in range(self.kernel_h) for dw in range(self.kernel_w)]

    def _pitched(self, n, c, hp, wp):
        """Zeroed channel-first buffer of n padded hp x wp planes, the planes
        as a (c, n, hp, wp) view, and the column stride between planes.

        The stride is hp * wp rounded up to GEMM_TILE, and rows have pitch
        wp: output pixel (r, s) of plane i is column i * stride + r * wp + s,
        and its input under kernel offset (dh, dw) lies dh * wp + dw columns
        further on. Past the planes, a zeroed tail keeps the last offset's
        columns inside the buffer, whose row length is a GEMM_TILE multiple.
        """
        stride = round_up_to_tile(hp * wp)
        cols = n * stride + (self.kernel_h - 1) * wp + self.kernel_w - 1
        buf = np.zeros((c, round_up_to_tile(cols)), dtype=np.float64)
        planes = buf[:, : n * stride].reshape(c, n, stride)[:, :, : hp * wp]
        return buf, planes.reshape(c, n, hp, wp), stride

    def _correlate(self, x, taps, pads, bias=None):
        """x, zero-padded by ``pads``, correlated with ``taps``, a list of
        ((dh, dw), matrix) pairs, plus ``bias``; and x's padded planes.

        Per block of images, tap t reads the columns of the pitched buffer
        that start dh * wp + dw on. With C input channels and ``rows``
        output rows, each output column is, before the bias:

        * C == 1: one GEMM (rows x taps) @ (taps x columns) over the taps'
          column runs stacked;
        * rows == 1: row t of one GEMM (taps x C) @ (C x columns + tail)
          over the block's buffer, added from +0.0 in list order, each row
          shifted to its tap's start;
        * else: one GEMM (rows x C) @ (C x columns) per tap, added from
          +0.0 in list order.
        """
        ph, pw = pads
        n, c, h, wdt = x.shape
        rows = taps[0][1].shape[0]
        hp, wp = h + 2 * ph, wdt + 2 * pw
        buf, planes, stride = self._pitched(n, c, hp, wp)
        xp = planes.transpose(1, 0, 2, 3)
        xp[:, :, ph : ph + h, pw : pw + wdt] = x
        oh, ow = hp - self.kernel_h + 1, wp - self.kernel_w + 1
        starts = [dh * wp + dw for (dh, dw), _ in taps]
        if c == 1:
            stacked = np.concatenate([m for _, m in taps], axis=1)
        elif rows == 1:
            stacked = np.concatenate([m for _, m in taps], axis=0)
        y = np.empty((n, rows, oh, ow), dtype=np.float64)
        step = self._block(oh, ow)
        for i in range(0, n, step):
            k = min(step, n - i)
            cols, block = k * stride, buf[:, i * stride :]
            if c == 1:
                acc = stacked @ np.stack([block[0, s : s + cols] for s in starts])
            elif rows == 1:
                # Whole tiles: past the block's last plane, the buffer's tail.
                prods = stacked @ block[:, : round_up_to_tile(cols + max(starts))]
                acc = np.zeros((1, cols), dtype=np.float64)
                for t, s in enumerate(starts):
                    acc += prods[t, s : s + cols]
            else:
                acc = np.zeros((rows, cols), dtype=np.float64)
                for s, (_, m) in zip(starts, taps):
                    acc += m @ block[:, s : s + cols]
            if bias is not None:
                acc += bias[:, None]
            acc = acc.reshape(rows, k, stride)[:, :, : hp * wp].reshape(rows, k, hp, wp)
            y[i : i + k] = acc[..., :oh, :ow].transpose(1, 0, 2, 3)
        return y, xp

    def forward(self, params, x):
        w = params[f"{self.name}.weight"]
        taps = [((dh, dw), np.ascontiguousarray(w[:, :, dh, dw])) for dh, dw in self._offsets()]
        y, xp = self._correlate(x, taps, self._pads(), params[f"{self.name}.bias"])
        return y, {"xp": xp}

    def backward(self, params, saved, gy, grad_names, input_grad=True):
        w = params[f"{self.name}.weight"]
        xp = saved["xp"]
        (n, o, oh, ow), c = gy.shape, self.in_channels
        terms = {}
        if f"{self.name}.bias" in grad_names:
            # Each image's plane sum, then the batch sum, has the bytes of
            # gy.sum(axis=(0, 2, 3)), except with one output channel, when
            # numpy sums gy as one flat array: its row term is then gy.
            if o > 1:
                terms[f"{self.name}.bias"] = RowTerms(_batch_sum, (gy.sum(axis=(2, 3)),))
            else:
                terms[f"{self.name}.bias"] = RowTerms(partial(np.sum, axis=(0, 2, 3)), (gy,))
        if f"{self.name}.weight" in grad_names:
            # One GEMM per image, stacked (n, O, C) per kernel offset, or,
            # with one input channel, (n, O, taps) over every offset's
            # window at once; each stack's sum over the batch is left to
            # the terms.
            gym = gy.reshape(n, o, oh * ow)
            windows = [xp[:, :, dh : dh + oh, dw : dw + ow] for dh, dw in self._offsets()]
            if c == 1:
                windows = [np.concatenate(windows, axis=1)]
            stacks = tuple(
                np.matmul(gym, np.ascontiguousarray(xs).reshape(n, -1, oh * ow).transpose(0, 2, 1))
                for xs in windows
            )
            terms[f"{self.name}.weight"] = RowTerms(partial(_offset_sums, w.shape), stacks)
        if not input_grad:
            return None, terms
        # Forward's correlation over gy padded by k - 1 - p, with the kernel
        # flipped and transposed; the taps keep forward's offset order.
        (kh, kw), (ph, pw) = (self.kernel_h, self.kernel_w), self._pads()
        taps = [
            ((kh - 1 - dh, kw - 1 - dw), np.ascontiguousarray(w[:, :, dh, dw]).T)
            for dh, dw in self._offsets()
        ]
        return self._correlate(gy, taps, (kh - 1 - ph, kw - 1 - pw))[0], terms


class ReLU(_Layer):
    """Elementwise max(x, 0). The subgradient at exactly 0 is 0."""

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


class MaxPool2(_Layer):
    """2x2 max pooling with stride 2; ties go to the first window element."""

    kind = "maxpool2"

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[1] % 2 or in_shape[2] % 2:
            raise LayerShapeError(
                f"layer {self.name!r} needs even spatial dimensions, got {in_shape}"
            )
        return (in_shape[0], in_shape[1] // 2, in_shape[2] // 2)

    @staticmethod
    def _views(x):
        # The four window cells as strided views, in row-major window order.
        return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]

    @staticmethod
    def _first_max(views, y):
        """Per view, the mask of the windows whose first cell equal to their
        maximum ``y`` it holds (none if ``y`` is NaN), in one reused buffer."""
        unrouted, hit = np.ones(y.shape, dtype=bool), np.empty(y.shape, dtype=bool)
        for v in views:
            np.equal(v, y, out=hit)
            hit &= unrouted
            unrouted ^= hit
            yield hit

    def forward(self, params, x):
        # np.maximum returns its second operand on a tie (-0.0 vs +0.0), so
        # chaining maximum(later, earlier) keeps the first maximum's bytes.
        views = self._views(x)
        y = views[0].copy()
        for v in views[1:]:
            np.maximum(v, y, out=y)
        return y, {"x": x, "y": y}

    def backward(self, params, saved, gy, grad_names):
        # gy goes to the first maximum, +0.0 elsewhere: multiplying its bit
        # patterns by the 0/1 hit mask keeps them exactly, -0.0 and NaN too.
        x, y = saved["x"], saved["y"]
        gx = np.empty(x.shape, dtype=np.float64)
        gy_bits = np.asarray(gy, dtype=np.float64).view(np.uint64)
        for g, hit in zip(self._views(gx.view(np.uint64)), self._first_max(self._views(x), y)):
            np.multiply(gy_bits, hit, out=g)
        return gx, {}

    def multipliers(self, params, saved_x, saved_ref, m_out):
        # Route each window's multiplier to its first maximum, rescaled so the
        # routed contribution is m_out * (max_x - max_ref) exactly, or, if that
        # cell's delta is negligible, spread by squared cell deltas. The
        # reference's maximum is np.max's: maximum(acc, r), acc first.
        x, y = saved_x["x"], saved_x["y"]
        views, refs = self._views(x), self._views(saved_ref["x"])
        dy = y - reduce(np.maximum, refs)
        d = [v - r for v, r in zip(views, refs)]
        den = sum(dk * dk for dk in d)  # ((d0^2 + d1^2) + d2^2) + d3^2
        den[den == 0.0] = 1.0
        d_max = np.zeros(y.shape, dtype=np.float64)
        for dk, hit in zip(d, self._first_max(views, y)):
            np.copyto(d_max, dk, where=hit)
        use_wta = np.abs(d_max) >= RESCALE_FALLBACK
        wta = dy / np.where(use_wta, d_max, 1.0)
        m_in = np.empty(x.shape, dtype=np.float64)
        for mk, dk, hit in zip(self._views(m_in), d, self._first_max(views, y)):
            np.multiply(m_out, np.where(use_wta, np.where(hit, wta, 0.0), dy * dk / den), out=mk)
        return m_in


class GlobalAvgPool(_Affine):
    """Mean over the spatial dimensions, one value per channel."""

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


class Flatten(_Affine):
    """Row-major reshape to a vector (per batch element)."""

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

    in_features: int
    out_features: int

    kind = "dense"
    file_fields = (("in", "in_features", int), ("out", "out_features", int))

    def param_specs(self):
        return (
            (f"{self.name}.weight", (self.out_features, self.in_features), True),
            (f"{self.name}.bias", (self.out_features,), True),
        )

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise LayerShapeError(
                f"layer {self.name!r} expects a vector of {self.in_features}, got {in_shape}"
            )
        return (self.out_features,)

    @staticmethod
    def _by_row_blocks(a, b):
        """a @ b as one GEMM per GEMM_TILE rows of a, the last block zero-padded."""
        (n, k), m = a.shape, b.shape[1]
        full = n - n % GEMM_TILE
        y = np.empty((round_up_to_tile(n), m), dtype=np.float64)
        np.matmul(a[:full].reshape(-1, GEMM_TILE, k), b, out=y[:full].reshape(-1, GEMM_TILE, m))
        if full < n:
            y[full:] = np.concatenate([a[full:], np.zeros((len(y) - n, k))]) @ b
        return y[:n]

    def forward(self, params, x):
        w = params[f"{self.name}.weight"]
        b = params[f"{self.name}.bias"]
        return self._by_row_blocks(x, w.T) + b[None, :], {"x": x}

    def backward(self, params, saved, gy, grad_names, input_grad=True):
        w = params[f"{self.name}.weight"]
        terms = {}
        if f"{self.name}.weight" in grad_names:
            terms[f"{self.name}.weight"] = RowTerms(lambda gy, x: gy.T @ x, (gy, saved["x"]))
        if f"{self.name}.bias" in grad_names:
            terms[f"{self.name}.bias"] = RowTerms(_batch_sum, (gy,))
        return (self._by_row_blocks(gy, w) if input_grad else None), terms


LAYER_KINDS = {
    cls.kind: cls
    for cls in (Standardize, Conv2d, ReLU, MaxPool2, GlobalAvgPool, Flatten, Dense)
}
