"""Per-pixel attribution maps: gradient saliency, occlusion sensitivity,
reference-based contributions (DeepLIFT-style rescale chain), and
integrated gradients.

All generators are pure functions of (model, image, target class, config)
returning an ``AttributionMap``: a 2-D score grid over the image plane.
Multi-channel inputs reduce to one score per pixel by the maximum absolute
value across channels, except occlusion's per-channel mode which sums the
per-channel scores. ``normalize`` rescales any map to [0, 1] and flags the
degenerate constant case instead of raising.

Signed quantities back two exactness properties that tests lean on:

* ``deeplift_contributions`` sum exactly to f_c(x) - f_c(x_ref),
* ``ig_attributions`` converge to F(x) - F(x_baseline) as steps grow
  (midpoint rule), and are exact for linear models at any step count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import backward_batch, forward_batch, forward_values, grad_input
from .pgm import to_bytes_gray, write_pgm
from .tensor import Tensor

__all__ = [
    "AttributionMap",
    "OcclusionConfig",
    "PathConfig",
    "METHODS",
    "saliency",
    "occlusion",
    "occlusion_linearized",
    "deeplift",
    "deeplift_contributions",
    "integrated_gradients",
    "ig_attributions",
    "normalize",
    "mean_baseline",
    "write_heatmap",
]

MAP_BATCH = 64  # images per forward pass when a map needs many of them


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
            raise ValueError(f"attribution map must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("attribution map contains non-finite scores")
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


def saliency(model, x: Tensor, c: int) -> AttributionMap:
    """Absolute input-gradient of the class-c logit, channel-reduced by max."""
    g = grad_input(model, x, c).array
    return AttributionMap(
        values=_reduce_max_abs(g),
        method="saliency",
        target_class=c,
        config_digest=f"method=saliency;class={c}",
    )


def _occlusion_grid(shape, cfg: OcclusionConfig):
    _, h, w = shape
    if cfg.patch_h > h or cfg.patch_w > w:
        raise ValueError(
            f"occlusion patch {cfg.patch_h}x{cfg.patch_w} larger than image {h}x{w}"
        )
    rows = range(0, h - cfg.patch_h + 1, cfg.stride_h)
    cols = range(0, w - cfg.patch_w + 1, cfg.stride_w)
    return [(i, j) for i in rows for j in cols]


def _upsample_covering(shape, positions, scores, cfg: OcclusionConfig) -> np.ndarray:
    # Each pixel gets the mean score of every patch position covering it;
    # pixels no patch reaches (stride gaps at the far edges) stay 0.
    _, h, w = shape
    total = np.zeros((h, w))
    count = np.zeros((h, w))
    for (i, j), s in zip(positions, scores):
        total[i : i + cfg.patch_h, j : j + cfg.patch_w] += s
        count[i : i + cfg.patch_h, j : j + cfg.patch_w] += 1.0
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


def _occlusion_digest(cfg: OcclusionConfig, c: int) -> str:
    return (
        f"method=occlusion;patch={cfg.patch_h}x{cfg.patch_w};"
        f"stride={cfg.stride_h}x{cfg.stride_w};baseline={cfg.baseline_value!r};"
        f"per_channel={int(cfg.per_channel)};class={c}"
    )


def occlusion(model, x: Tensor, c: int, cfg: OcclusionConfig) -> AttributionMap:
    """Output drop f(x) - f(x with patch replaced) at every strided position.

    Per-channel mode records one drop per occluded channel and sums them; the
    strided score grid is upsampled to pixel resolution by covering-average.
    """
    model.check_class(c)
    positions = _occlusion_grid(x.shape, cfg)
    base = float(forward_values(model, x.array)[c])
    channels = range(x.shape[0]) if cfg.per_channel else [None]

    variants = []
    for i, j in positions:
        for ch in channels:
            occ = x.array.copy()
            sel = slice(None) if ch is None else ch
            occ[sel, i : i + cfg.patch_h, j : j + cfg.patch_w] = cfg.baseline_value
            variants.append(occ)
    drops = np.empty(len(variants))
    for start in range(0, len(variants), MAP_BATCH):
        chunk = np.stack(variants[start : start + MAP_BATCH])
        drops[start : start + len(chunk)] = base - forward_values(model, chunk)[:, c]
    scores = drops.reshape(len(positions), -1).sum(axis=1)

    return AttributionMap(
        values=_upsample_covering(x.shape, positions, scores, cfg),
        method="occlusion",
        target_class=c,
        config_digest=_occlusion_digest(cfg, c),
    )


def occlusion_linearized(model, x: Tensor, c: int, cfg: OcclusionConfig) -> AttributionMap:
    """First-order occlusion: score -grad . (patch replacement delta).

    One gradient pass replaces the per-position forward passes; exact for
    linear models, first-order accurate otherwise. Grid and upsampling match
    ``occlusion``.
    """
    positions = _occlusion_grid(x.shape, cfg)
    g = grad_input(model, x, c).array
    delta = cfg.baseline_value - x.array  # replacement minus original
    weighted = g * delta
    scores = [
        -float(weighted[:, i : i + cfg.patch_h, j : j + cfg.patch_w].sum())
        for i, j in positions
    ]
    digest = _occlusion_digest(cfg, c).replace("method=occlusion", "method=occlusion_linearized")
    return AttributionMap(
        values=_upsample_covering(x.shape, positions, scores, cfg),
        method="occlusion_linearized",
        target_class=c,
        config_digest=digest,
    )


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
    ref_kind = "zero" if not np.any(x_ref.array) else "custom"
    return AttributionMap(
        values=_reduce_max_abs(contrib),
        method="deeplift",
        target_class=c,
        config_digest=f"method=deeplift;reference={ref_kind};class={c}",
    )


def ig_attributions(model, x: Tensor, c: int, cfg: PathConfig) -> np.ndarray:
    """Signed integrated-gradients attributions (midpoint Riemann sum).

    Averages the class-c input gradient at the midpoints of ``n_steps``
    equal subintervals along the straight path from the baseline to x, then
    scales by (x - baseline).
    """
    if cfg.baseline.shape != x.shape:
        raise ValueError(f"baseline shape {cfg.baseline.shape} does not match input {x.shape}")
    model.check_class(c)
    diff = x.array - cfg.baseline.array
    alphas = (np.arange(cfg.n_steps) + 0.5) / cfg.n_steps
    grad_sum = np.zeros_like(diff)
    for start in range(0, cfg.n_steps, MAP_BATCH):
        chunk = alphas[start : start + MAP_BATCH]
        pts = cfg.baseline.array[None] + chunk[:, None, None, None] * diff[None]
        logits, tape = forward_batch(model, pts)
        seed = np.zeros_like(logits)
        seed[:, c] = 1.0
        gx, _ = backward_batch(tape, seed)
        grad_sum += gx.sum(axis=0)
    return diff * (grad_sum / cfg.n_steps)


def integrated_gradients(model, x: Tensor, c: int, cfg: PathConfig) -> AttributionMap:
    """Integrated-gradients map, channel-reduced by max absolute value."""
    attr = ig_attributions(model, x, c, cfg)
    base_kind = "zero" if not np.any(cfg.baseline.array) else "custom"
    return AttributionMap(
        values=_reduce_max_abs(attr),
        method="integrated_gradients",
        target_class=c,
        config_digest=(
            f"method=integrated_gradients;steps={cfg.n_steps};baseline={base_kind};class={c}"
        ),
    )


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
    with open(sidecar_path, "w", encoding="utf-8") as fh:
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
