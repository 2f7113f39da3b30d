"""Per-pixel attribution maps: gradient saliency, occlusion sensitivity,
reference-based contributions (DeepLIFT-style rescale chain), and
integrated gradients.

All generators are pure functions of (model, image, target class, config)
returning an ``AttributionMap``: a 2-D score grid over the image plane.
Multi-channel inputs reduce to one score per pixel by the maximum absolute
value across channels, except occlusion's per-channel mode which sums the
per-channel scores. ``normalize`` rescales any map to [0, 1] and flags the
degenerate constant case instead of raising.

A map's ``config_digest`` reads ``method=<method>;<setting>;...;class=<c>``.
The settings are none for saliency, ``OcclusionConfig.digest()`` for
occlusion, ``reference=<kind>`` for DeepLIFT and ``steps=<n>;baseline=<kind>``
for integrated gradients; a kind is ``zero`` (an all-zero image) or ``custom``.

Signed quantities back two exactness properties that tests lean on:

* ``deeplift_contributions`` sum exactly to f_c(x) - f_c(x_ref),
* ``ig_attributions`` converge to F(x) - F(x_baseline) as steps grow
  (midpoint rule), and are exact for linear models at any step count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .atomic import atomic_open
from .autodiff import forward_batch, forward_values, grad_input, gradients
from .pgm import to_bytes_gray, write_pgm
from .tensor import Tensor

__all__ = [
    "MapError",
    "AttributionMap",
    "OcclusionConfig",
    "PathConfig",
    "METHODS",
    "saliency",
    "occlusion",
    "deeplift",
    "deeplift_contributions",
    "integrated_gradients",
    "ig_attributions",
    "normalize",
    "mean_baseline",
    "write_heatmap",
]

MAP_BATCH = 64  # images per IG forward/backward pass


class MapError(ValueError):
    """A map that cannot be made or ranked: a patch larger than the image, a
    non-finite or non-2-D grid, or a constant map. A coverage cell reports it
    as ``N/A``."""


@dataclass(frozen=True)
class AttributionMap:
    """A height x width grid of importance scores for one image and class."""

    values: np.ndarray
    method: str
    target_class: int
    config_digest: str
    degenerate: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise MapError(f"attribution map must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise MapError("attribution map contains non-finite scores")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class OcclusionConfig:
    """Patch size, stride, and replacement intensity for occlusion scans.

    ``per_channel=True`` occludes each channel separately and sums the
    per-channel scores; the default masks all channels jointly.
    """

    patch_h: int = 8
    patch_w: int = 8
    stride_h: int = 4
    stride_w: int = 4
    baseline_value: float = 0.0
    per_channel: bool = False

    def __post_init__(self):
        if self.patch_h < 1 or self.patch_w < 1:
            raise ValueError("occlusion patch must be at least 1x1")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ValueError("occlusion stride must be positive")
        if not 0.0 <= self.baseline_value <= 1.0:
            raise ValueError("baseline_value must lie in [0, 1]")

    def digest(self) -> str:
        """The settings as config-digest fields, for heatmaps and the coverage CSV."""
        return (
            f"patch={self.patch_h}x{self.patch_w};stride={self.stride_h}x{self.stride_w};"
            f"baseline={self.baseline_value!r};per_channel={int(self.per_channel)}"
        )


@dataclass(frozen=True)
class PathConfig:
    """Integration path: reference input and Riemann-sum resolution."""

    baseline: Tensor
    n_steps: int = 20

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def _reduce_max_abs(values: np.ndarray) -> np.ndarray:
    # (C, H, W) -> (H, W); single-channel inputs skip the reduction.
    a = np.abs(values)
    return a[0] if a.shape[0] == 1 else a.max(axis=0)


def _map(method: str, values, c: int, *settings: str) -> AttributionMap:
    """The ``method`` map for class c, digest ``method=<method>;<setting>;...;class=<c>``."""
    digest = ";".join((f"method={method}", *settings, f"class={c}"))
    return AttributionMap(values, method, c, digest)


def _kind(image: Tensor) -> str:
    """A reference or baseline image's digest name: ``zero`` or ``custom``."""
    return "zero" if not np.any(image.array) else "custom"


def saliency(model, x: Tensor, c: int) -> AttributionMap:
    """Absolute input-gradient of the class-c logit, channel-reduced by max."""
    return _map("saliency", _reduce_max_abs(grad_input(model, x, c).array), c)


def _occlusion_grid(shape, cfg: OcclusionConfig) -> np.ndarray:
    """(top row, left column) of every patch position, row-major: a (P, 2) int array."""
    _, h, w = shape
    if cfg.patch_h > h or cfg.patch_w > w:
        raise MapError(
            f"occlusion patch {cfg.patch_h}x{cfg.patch_w} larger than image {h}x{w}"
        )
    rows = np.arange(0, h - cfg.patch_h + 1, cfg.stride_h)
    cols = np.arange(0, w - cfg.patch_w + 1, cfg.stride_w)
    return np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)


def _upsample_covering(shape, scores, cfg: OcclusionConfig) -> np.ndarray:
    # Each pixel gets the mean score of every patch position covering it;
    # pixels no patch reaches (stride gaps at the far edges) stay 0. The
    # pixels of every patch cell are listed in the grid's position order,
    # and a weighted bincount adds each bin's weights in list order from
    # 0.0, so a pixel sums its covering scores as a loop over the positions
    # would.
    _, h, w = shape
    tops, lefts = _occlusion_grid(shape, cfg).T
    rows, cols = tops[:, None] + np.arange(cfg.patch_h), lefts[:, None] + np.arange(cfg.patch_w)
    pixels = (rows[:, :, None] * w + cols[:, None, :]).reshape(-1)
    weights = np.repeat(scores, cfg.patch_h * cfg.patch_w)
    total = np.bincount(pixels, weights, minlength=h * w).reshape(h, w)
    count = np.bincount(pixels, minlength=h * w).reshape(h, w)
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def occlusion(model, x: Tensor, c: int, cfg: OcclusionConfig) -> AttributionMap:
    """Output drop f(x) - f(x with patch replaced) at every strided position.

    Per-channel mode records one drop per occluded channel and sums them; the
    strided score grid is upsampled to pixel resolution by covering-average.
    One ``forward_values(..., base=)`` call scores every variant as its
    patch box, and a last box of ``x``'s own pixels, whose row is the clean
    logit. Every layer gives an image the same bytes in any batch, so an
    unchanged patch scores exactly 0.
    """
    model.check_class(c)
    positions = _occlusion_grid(x.shape, cfg)
    k = x.shape[0] if cfg.per_channel else 1  # variants per position
    rows, cols = np.vstack([np.repeat(positions, k, axis=0), [(0, 0)]]).T
    img = x.array
    windows = np.lib.stride_tricks.sliding_window_view(img, (cfg.patch_h, cfg.patch_w), axis=(1, 2))
    boxes = windows[:, rows, cols].swapaxes(0, 1)
    for ch in range(k):
        boxes[ch:-1:k, ch if cfg.per_channel else slice(None)] = cfg.baseline_value
    logits = forward_values(model, boxes, base=(img, rows, cols))[:, c]
    scores = (logits[-1] - logits[:-1]).reshape(len(positions), -1).sum(axis=1)
    return _map("occlusion", _upsample_covering(x.shape, scores, cfg), c, cfg.digest())


def deeplift_contributions(model, x: Tensor, c: int, x_ref: Tensor) -> np.ndarray:
    """Signed per-input contributions relative to a reference input.

    Multipliers start as the one-hot logit selector and propagate backward
    layer by layer (transpose rule for affine layers, delta-ratio rescale for
    ReLU and max pooling); the returned array satisfies
    ``sum(contributions) == f_c(x) - f_c(x_ref)`` up to float rounding.
    """
    if x_ref.shape != x.shape:
        raise ValueError(f"reference shape {x_ref.shape} does not match input {x.shape}")
    model.check_class(c)
    _, tape_x = forward_batch(model, x.array[None])
    _, tape_ref = forward_batch(model, x_ref.array[None])
    m = np.zeros((1, model.num_classes))
    m[0, c] = 1.0
    for (layer, saved_x), (_, saved_ref) in zip(
        reversed(tape_x.records), reversed(tape_ref.records)
    ):
        m = layer.multipliers(model.params, saved_x, saved_ref, m)
    return m[0] * (x.array - x_ref.array)


def deeplift(model, x: Tensor, c: int, x_ref: Tensor) -> AttributionMap:
    """Reference-based contribution map, channel-reduced by max absolute value."""
    contrib = deeplift_contributions(model, x, c, x_ref)
    return _map("deeplift", _reduce_max_abs(contrib), c, f"reference={_kind(x_ref)}")


def ig_attributions(model, x: Tensor, c: int, cfg: PathConfig) -> np.ndarray:
    """Signed integrated-gradients attributions (midpoint Riemann sum).

    Averages the class-c input gradient at the midpoints of ``n_steps``
    equal subintervals along the straight path from the baseline to x, then
    scales by (x - baseline), in passes of up to MAP_BATCH points.
    """
    if cfg.baseline.shape != x.shape:
        raise ValueError(f"baseline shape {cfg.baseline.shape} does not match input {x.shape}")
    model.check_class(c)
    diff = x.array - cfg.baseline.array
    alphas = (np.arange(cfg.n_steps) + 0.5) / cfg.n_steps
    grad_sum = np.zeros_like(diff)
    seeds = np.zeros((MAP_BATCH, model.num_classes))
    seeds[:, c] = 1.0
    for start in range(0, cfg.n_steps, MAP_BATCH):
        chunk = alphas[start : start + MAP_BATCH]
        pts = cfg.baseline.array[None] + chunk[:, None, None, None] * diff[None]
        _, gx, _ = gradients(model, pts, lambda _, seed: seed, seeds[: len(chunk)])
        grad_sum += gx.sum(axis=0)
    return diff * (grad_sum / cfg.n_steps)


def integrated_gradients(model, x: Tensor, c: int, cfg: PathConfig) -> AttributionMap:
    """Integrated-gradients map, channel-reduced by max absolute value."""
    attr = ig_attributions(model, x, c, cfg)
    settings = f"steps={cfg.n_steps}", f"baseline={_kind(cfg.baseline)}"
    return _map("integrated_gradients", _reduce_max_abs(attr), c, *settings)


def normalize(amap: AttributionMap) -> AttributionMap:
    """Rescale scores to [0, 1]; a constant map becomes all-zero and flagged."""
    lo = float(amap.values.min())
    hi = float(amap.values.max())
    if hi == lo:
        return replace(amap, values=np.zeros_like(amap.values), degenerate=True)
    return replace(amap, values=(amap.values - lo) / (hi - lo))


def mean_baseline(ds, split: str = "train") -> Tensor:
    """Constant image holding each channel's mean over a dataset split."""
    stack, _ = next(ds.batches(split, len(ds.images)))  # the whole split in one batch
    per_channel = stack.mean(axis=(0, 2, 3))
    return Tensor(np.broadcast_to(per_channel[:, None, None], stack.shape[1:]).copy())


def write_heatmap(amap: AttributionMap, pgm_path, sidecar_path, extra=None) -> None:
    """Export: normalized map quantized to 8-bit PGM, plus a text sidecar.

    The sidecar records the method, target class, config digest, the score
    range before normalization, the degenerate flag, and any extra
    key/values (seed, image id) the caller wants embedded.
    """
    lo = float(amap.values.min())
    hi = float(amap.values.max())
    norm = normalize(amap)
    write_pgm(pgm_path, to_bytes_gray(norm.values), comment=amap.config_digest)
    lines = [
        f"method={amap.method}",
        f"target_class={amap.target_class}",
        f"config_digest={amap.config_digest}",
        f"min={lo!r}",
        f"max={hi!r}",
        f"degenerate={int(norm.degenerate)}",
    ]
    for key in sorted(extra or {}):
        lines.append(f"{key}={extra[key]}")
    with atomic_open(sidecar_path) as fh:
        fh.write("\n".join(lines) + "\n")


# Method name -> map builder called as ``METHODS[name](model, x, c, occ_cfg,
# path_cfg, ref)``; each builder reads only the inputs its method needs. The
# methods are looked up when a builder runs, so a rebound name is honoured.
METHODS = {
    "saliency": lambda model, x, c, occ_cfg, path_cfg, ref: saliency(model, x, c),
    "occlusion": lambda model, x, c, occ_cfg, path_cfg, ref: occlusion(model, x, c, occ_cfg),
    "deeplift": lambda model, x, c, occ_cfg, path_cfg, ref: deeplift(model, x, c, ref),
    "integrated_gradients": lambda model, x, c, occ_cfg, path_cfg, ref: integrated_gradients(
        model, x, c, path_cfg
    ),
}
