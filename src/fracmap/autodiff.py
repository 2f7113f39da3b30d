"""Reverse-mode differentiation for sequential CNN models.

``forward`` evaluates a model on one image and records a tape of per-layer
saved values. ``backward`` consumes that tape once, seeding the reverse pass
with a cotangent over the logits, and returns the gradient with respect to
the input pixels (and, on request, with respect to named parameters).

Layers compute over a leading batch axis; the batched entry points
(``forward_batch`` / ``backward_batch``) expose that directly for training
and attack loops, while the single-image API wraps a batch of one.

``numeric_gradient`` is the independent central-difference oracle used to
validate the reverse pass; it shares only the forward evaluator with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = [
    "Tape",
    "TapeError",
    "BackwardResult",
    "forward",
    "forward_values",
    "forward_batch",
    "backward",
    "backward_batch",
    "grad_input",
    "grad_input_weighted",
    "central_difference",
    "numeric_gradient",
    "kink_margin",
]


class TapeError(RuntimeError):
    """Raised when a tape is reused after its single reverse pass."""


@dataclass
class Tape:
    """Record of one forward evaluation: per-layer saved values plus the output.

    A tape backs exactly one reverse pass; ``backward`` marks it consumed.
    """

    model: "object"
    records: list = field(default_factory=list)
    logits: np.ndarray | None = None  # batched (N, num_classes)
    consumed: bool = False


@dataclass
class BackwardResult:
    grad_input: Tensor
    param_grads: dict


def _run_forward(model, xb, record: bool):
    records = [] if record else None
    cur = xb
    for layer in model.layers:
        out, saved = layer.forward(model.params, cur)
        if record:
            records.append((layer, saved))
        cur = out
    return cur, records


def forward_batch(model, xb: np.ndarray):
    """Evaluate a batch of images, returning (logits array (N, K), tape)."""
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 4:
        raise ValueError(f"batched input must be (N, C, H, W), got shape {xb.shape}")
    model.check_input_shape(xb.shape[1:])
    logits, records = _run_forward(model, xb, record=True)
    return logits, Tape(model=model, records=records, logits=logits)


def forward(model, x: Tensor):
    """Evaluate the model on one image, returning (logits, tape).

    The input shape must match the model's declared channels x height x
    width; a mismatch names the layer that rejected it.
    """
    logits, tape = forward_batch(model, x.array[None])
    return Tensor(logits[0]), tape


def forward_values(model, x_array: np.ndarray) -> np.ndarray:
    """Tape-free forward pass over a raw array; accepts one image or a batch."""
    x_array = np.asarray(x_array, dtype=np.float64)
    single = x_array.ndim == 3
    xb = x_array[None] if single else x_array
    model.check_input_shape(xb.shape[1:])
    out, _ = _run_forward(model, xb, record=False)
    return out[0] if single else out


def backward_batch(tape: Tape, seed: np.ndarray, grad_names=frozenset(), *, input_grad=True):
    """Reverse pass over a batched tape.

    ``seed`` is the cotangent over the batched logits, shape (N, K). Returns
    ``(grad_input (N, C, H, W), param_grads)`` where parameter gradients are
    summed over the batch. Each tape supports exactly one reverse pass.

    With ``input_grad=False`` the pass stops at the lowest layer that owns a
    requested parameter, which computes only its parameter gradients, and
    ``grad_input`` is None.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous reverse pass")
    tape.consumed = True
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != tape.logits.shape:
        raise ValueError(f"seed shape {seed.shape} does not match logits {tape.logits.shape}")
    grad_names = frozenset(grad_names)
    model = tape.model
    records = tape.records
    stop = 0
    if not input_grad:
        owners = [i for i, (layer, _) in enumerate(records) if grad_names & set(layer.param_names())]
        if not owners:
            return None, {}
        stop = owners[0]
    gy = seed
    param_grads = {}
    for i in range(len(records) - 1, stop - 1, -1):
        layer, saved = records[i]
        if i == stop and not input_grad:
            gy, grads = layer.backward(model.params, saved, gy, grad_names, input_grad=False)
        else:
            gy, grads = layer.backward(model.params, saved, gy, grad_names)
        param_grads.update(grads)
    return gy, param_grads


def backward(tape: Tape, seed, grad_names=frozenset()) -> BackwardResult:
    """Single-image reverse pass: seed over the logits -> input gradient."""
    seed = np.asarray(seed, dtype=np.float64)
    gx, param_grads = backward_batch(tape, seed[None], grad_names)
    return BackwardResult(grad_input=Tensor(gx[0]), param_grads=param_grads)


def grad_input(model, x: Tensor, c: int) -> Tensor:
    """Gradient of the class-c logit with respect to every input value."""
    model.check_class(c)
    seed = np.zeros(model.num_classes, dtype=np.float64)
    seed[c] = 1.0
    return grad_input_weighted(model, x, seed)


def grad_input_weighted(model, x: Tensor, weights) -> Tensor:
    """Gradient of ``weights . logits`` with respect to the input."""
    _, tape = forward(model, x)
    return backward(tape, weights).grad_input


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
            win = np.stack(layer._views(cur), axis=-1)
            top2 = np.sort(win, axis=-1)[..., -2:]
            gaps = top2[..., 1] - top2[..., 0]
            live = top2[..., 1] != 0.0
            if np.any(live):
                margin = min(margin, float(np.min(gaps[live])))
        cur, _ = layer.forward(model.params, cur)
    return margin
