"""Reference implementations the tests check the pipeline against.

Two oracles back the acceptance criteria and stay out of ``fracmap``, so
that no pipeline step can come to depend on them:

* ``numeric_gradient`` (criterion 1), the central-difference estimate of a
  class logit's input gradient. It shares only the forward evaluator with
  the reverse pass it validates; ``central_difference`` is its generic,
  one-coordinate-at-a-time form, and ``kink_margin`` tells which points a
  finite-difference check can trust.
* ``occlusion_linearized`` (criterion 6), first-order occlusion from one
  gradient pass, exact for linear models.

Tests import this module as they import ``conftest``.
"""

from __future__ import annotations

import numpy as np

import fracmap.attribution as attribution
from fracmap.attribution import AttributionMap, OcclusionConfig
from fracmap.autodiff import forward_values, grad_input
from fracmap.tensor import Tensor


def central_difference(fun, x_flat: np.ndarray, h: float) -> np.ndarray:
    """Generic central-difference gradient of a scalar function of a vector."""
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    x_flat = np.asarray(x_flat, dtype=np.float64)
    out = np.empty_like(x_flat)
    work = x_flat.copy()
    for i in range(x_flat.size):
        orig = work[i]
        work[i] = orig + h
        fp = float(fun(work))
        work[i] = orig - h
        fm = float(fun(work))
        work[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return out


def numeric_gradient(model, x: Tensor, c: int, h: float = 1e-5) -> Tensor:
    """Central-difference estimate of the class-c logit gradient.

    Independent of the reverse pass: evaluates (f(x + h e_i) - f(x - h e_i))
    / 2h for every coordinate i. The perturbed inputs are evaluated in
    chunked batches purely for speed.
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    model.check_class(c)
    model.check_input_shape(x.shape)
    base = x.array.reshape(-1)
    size = base.size
    out = np.empty(size, dtype=np.float64)
    chunk = max(1, min(size, 4096 // max(1, size // 256)))
    for start in range(0, size, chunk):
        idx = np.arange(start, min(start + chunk, size))
        batch = np.repeat(base[None, :], 2 * idx.size, axis=0)
        batch[np.arange(idx.size), idx] += h
        batch[idx.size + np.arange(idx.size), idx] -= h
        vals = forward_values(model, batch.reshape(-1, *x.shape))[:, c]
        out[idx] = (vals[: idx.size] - vals[idx.size :]) / (2.0 * h)
    return Tensor(out.reshape(x.shape))


def kink_margin(model, x: Tensor) -> float:
    """Distance of the evaluation from the nearest nondifferentiable point.

    Minimum over all ReLU pre-activation magnitudes and over max-pool
    top-two gaps. All-zero pool windows are skipped: their cells are clipped
    activations that stay constant under perturbations small enough to keep
    the ReLU margins intact, so the pooled value is locally constant too.
    Finite-difference checks only trust points whose margin comfortably
    exceeds the step size.
    """
    model.check_input_shape(x.shape)
    cur = x.array[None]
    margin = np.inf
    for layer in model.layers:
        if layer.kind == "relu":
            margin = min(margin, float(np.min(np.abs(cur))))
        elif layer.kind == "maxpool2":
            top2 = np.sort(np.stack(layer._views(cur), axis=-1), axis=-1)[..., -2:]
            gaps = top2[..., 1] - top2[..., 0]
            live = top2[..., 1] != 0.0
            if np.any(live):
                margin = min(margin, float(np.min(gaps[live])))
        cur, _ = layer.forward(model.params, cur)
    return margin


def occlusion_linearized(model, x: Tensor, c: int, cfg: OcclusionConfig) -> AttributionMap:
    """First-order occlusion: score -grad . (patch replacement delta).

    One gradient pass replaces the per-position forward passes; exact for
    linear models, first-order accurate otherwise. Grid and upsampling match
    ``attribution.occlusion``, and are looked up on the module at each call.
    """
    positions = attribution._occlusion_grid(x.shape, cfg)
    g = grad_input(model, x, c).array
    delta = cfg.baseline_value - x.array  # replacement minus original
    weighted = g * delta
    scores = [
        -float(weighted[:, i : i + cfg.patch_h, j : j + cfg.patch_w].sum())
        for i, j in positions
    ]
    return attribution._map(
        "occlusion_linearized", attribution._upsample_covering(x.shape, scores, cfg), c, cfg.digest()
    )
