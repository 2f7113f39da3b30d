"""Reverse-mode differentiation for sequential CNN models.

``forward_batch`` evaluates a batch of images and records a tape of
per-layer saved values; ``backward_batch`` consumes the tape in one reverse
pass, seeded with a cotangent over the logits, and returns the input
gradient and, on request, named parameter gradients. ``forward`` and
``backward`` wrap a batch of one. Every layer returns its parameter
gradients as per-row terms (``layers.RowTerms``), and ``backward_batch`` is
the one place that totals them, unless the tape asks for the terms
themselves (``Tape.row_terms``).

``forward_values`` evaluates images without a tape, and with ``base=`` the
images that differ from one image only inside a box each, as occlusion's
variants do. ``map_row_parts`` runs a batch's row parts on a shared thread
pool. README, "Speed and exactness", says why both keep the bytes of a
plain pass.

``numeric_gradient`` is the independent central-difference oracle used to
validate the reverse pass; it shares only the forward evaluator with it.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .layers import GEMM_TILE
from .model import ModelError, _untrainable
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
    "row_parts",
    "map_row_parts",
]

OCCLUSION_BATCH = 256  # most boxes per pass of forward_values(..., base=)

_pool = None  # the ThreadPoolExecutor of map_row_parts, made on first use
_pool_lock = threading.Lock()
_pool_thread = threading.local()  # .active is set on the pool's own threads


class TapeError(RuntimeError):
    """Raised when a tape is reused after its single reverse pass."""


@dataclass
class Tape:
    """Record of one forward evaluation: per-layer saved values plus the output.

    A tape backs exactly one reverse pass; ``backward`` marks it consumed and
    empties ``records`` as it goes.
    """

    model: "object"
    records: list = field(default_factory=list)
    logits: np.ndarray | None = None  # batched (N, num_classes)
    consumed: bool = False
    row_terms: bool = False  # backward_batch leaves parameter gradients as per-row RowTerms


@dataclass
class BackwardResult:
    grad_input: Tensor
    param_grads: dict


def _run_forward(model, xb, record: bool, start: int = 0):
    """Run ``model.layers[start:]`` on ``xb``; with ``record``, keep the tape records."""
    records = [] if record else None
    cur = xb
    for layer in model.layers[start:]:
        out, saved = layer.forward(model.params, cur)
        if record:
            records.append((layer, saved))
        cur = out
    return cur, records


def _check_nonempty(xb):
    """Reject a batch of no images, which no layer can evaluate."""
    if len(xb) == 0:
        raise ModelError(f"batch of shape {xb.shape} holds no images")


def forward_batch(model, xb: np.ndarray):
    """Evaluate a batch of images, returning (logits array (N, K), tape)."""
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 4:
        raise ValueError(f"batched input must be (N, C, H, W), got shape {xb.shape}")
    model.check_input_shape(xb.shape[1:])
    _check_nonempty(xb)
    logits, records = _run_forward(model, xb, record=True)
    return logits, Tape(model=model, records=records, logits=logits)


def forward(model, x: Tensor):
    """Evaluate the model on one image, returning (logits, tape).

    The input shape must match the model's declared channels x height x
    width; a mismatch names the layer that rejected it.
    """
    logits, tape = forward_batch(model, x.array[None])
    return Tensor(logits[0]), tape


def forward_values(model, x_array: np.ndarray, *, base=None) -> np.ndarray:
    """Tape-free forward pass over a raw array; accepts one image or a batch.

    With ``base=(x, rows, cols)``, ``x_array`` is an (n, C, bh, bw) batch of
    boxes and image j is ``x`` with box j written at ``(rows[j], cols[j])``;
    only what a box reaches is recomputed, and the result has the bytes of a
    plain pass over those images.
    """
    x_array = np.asarray(x_array, dtype=np.float64)
    if base is not None:
        x, rows, cols = np.asarray(base[0], dtype=np.float64), *map(np.asarray, base[1:])
        model.check_input_shape(x.shape)
        if x_array.ndim != 4 or x_array.shape[1] != x.shape[0]:
            raise ModelError(f"boxes of shape {x_array.shape} are not (n, {x.shape[0]}, bh, bw)")
        _check_nonempty(x_array)
        if rows.shape != (len(x_array),) or cols.shape != rows.shape:
            raise ModelError(f"{len(x_array)} boxes, offsets of shapes {rows.shape}, {cols.shape}")
        (bh, bw), (h, w) = x_array.shape[2:], x.shape[1:]
        if not np.all((0 <= rows) & (rows <= h - bh) & (0 <= cols) & (cols <= w - bw)):
            raise ModelError(f"a {bh}x{bw} box at these offsets does not fit in the {h}x{w} plane")
        return _forward_from_base(model, x_array, x, rows, cols)
    single = x_array.ndim == 3
    xb = x_array[None] if single else x_array
    model.check_input_shape(xb.shape[1:])
    _check_nonempty(xb)
    out, _ = _run_forward(model, xb, record=False)
    return out[0] if single else out


def _local_prefix(model) -> int:
    """How many leading layers compute each output pixel exactly from a window of input pixels."""
    for k, layer in enumerate(model.layers):
        if layer.kind not in ("standardize", "relu", "maxpool2", "conv2d"):
            return k
    return len(model.layers)


def _reach(k, st, p, size, n):
    """For a layer that maps k-wide input windows at stride st to outputs
    (a conv, over its input zero-padded as it pads it, or a max pool), along
    one spatial axis of that n-long input, and bands [p, p + size) of it,
    one start per image: returns (q, out, win), the output bands
    [q, q + out) they reach and the size of the input windows
    [st * q, st * q + win) those need. Each size is the largest any image
    needs and each output band is clamped inside its plane, so every window
    lies inside the input, and the layer run unpadded over it gives exactly
    its band."""
    m = (n - k) // st + 1
    oa, ob = np.maximum(0, -((k - 1 - p) // st)), np.minimum(m, -(-(p + size) // st))
    out = int(np.max(ob - oa))
    return np.minimum(oa, m - out), out, (out - 1) * st + k


def _gather(a, size, rows, cols):
    """One (n, C, size[0], size[1]) array of the windows of the (C, H, W)
    plane ``a`` at ``(rows[j], cols[j])``, one per j."""
    view = np.lib.stride_tricks.sliding_window_view(a, size, axis=(1, 2))
    return view.transpose(1, 2, 0, 3, 4)[rows, cols]


def _paste(a, boxes, rows, cols):
    """Write box j of ``boxes`` into image j of ``a`` at ``(rows[j], cols[j])``."""
    view = np.lib.stride_tricks.sliding_window_view(a, boxes.shape[2:], axis=(2, 3), writeable=True)
    view[np.arange(len(a)), :, rows, cols] = boxes


def _forward_from_base(model, boxes, x, rows, cols):
    """``forward_values`` with ``base``: ``x`` runs through the local prefix
    once. Per pass of at most OCCLUSION_BATCH boxes, each box then goes
    through it at its own offset, in windows of ``x``'s activations, and is
    spliced into a copy of ``x``'s last one for the rest of the model."""
    n_prefix = _local_prefix(model)
    acts = []  # x's input plane to each prefix layer, a conv's zero-padded as its forward saves it
    cur = x[None]
    for layer in model.layers[:n_prefix]:
        out, saved = layer.forward(model.params, cur)
        acts.append(saved["xp"][0] if layer.kind == "conv2d" else cur[0])
        cur = out
    logits = []
    for start in range(0, len(boxes), OCCLUSION_BATCH):
        part = slice(start, start + OCCLUSION_BATCH)
        band, (br, bc), pr, pc = boxes[part], boxes.shape[2:], rows[part], cols[part]
        for layer, act in zip(model.layers[:n_prefix], acts):
            if layer.kind == "conv2d":
                (dr, dc), (kr, kc), st = layer._pads(), (layer.kernel_h, layer.kernel_w), 1
                layer = replace(layer, padding="valid")
            elif layer.kind == "maxpool2":
                (dr, dc), (kr, kc), st = (0, 0), (2, 2), 2
            else:
                band = layer.forward(model.params, band)[0]
                continue
            qr, oh, wh = _reach(kr, st, pr + dr, br, act.shape[1])
            qc, ow, ww = _reach(kc, st, pc + dc, bc, act.shape[2])
            win = _gather(act, (wh, ww), st * qr, st * qc)
            _paste(win, band, pr + dr - st * qr, pc + dc - st * qc)
            band = layer.forward(model.params, win)[0]
            pr, br, pc, bc = qr, oh, qc, ow
        top = np.repeat(cur, len(band), axis=0)
        _paste(top, band, pr, pc)
        logits.append(_run_forward(model, top, record=False, start=n_prefix)[0])
    return np.concatenate(logits)


def _cores() -> int:
    """How many cores this process may run on: its affinity mask, where the
    OS has one (Linux), else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def row_parts(n: int) -> list:
    """Contiguous slices that cover rows 0..n-1 in order: n // GEMM_TILE of
    them, each of GEMM_TILE to 2 * GEMM_TILE - 1 rows, or one part when n is
    under 2 * GEMM_TILE. Small parts bound what the parts running at once
    keep live (README, "Speed and exactness")."""
    k = max(1, n // GEMM_TILE)
    bounds = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _mark_pool_thread():
    _pool_thread.active = True


def _forget_pool():
    """Drop the pool and its lock in a forked child: the child has none of
    the pool's threads, and its copy of the lock may be held by a thread
    that does not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_row_parts(fn, *arrays) -> list:
    """``[fn(*(a[part] for a in arrays)) for part in row_parts(n)]``, n the
    arrays' common length, with the parts run on the module's thread pool.
    A single part runs on the calling thread, and so do all parts when the
    caller is itself a pool thread, whose pool may have no free worker to
    wait for. The results come back in row order; an error in a part is
    raised here. A forked child makes a pool of its own on first use."""
    parts = row_parts(len(arrays[0]))
    if len(parts) == 1 or getattr(_pool_thread, "active", False):
        return [fn(*(a[part] for a in arrays)) for part in parts]
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_cores(), thread_name_prefix="fracmap-rows", initializer=_mark_pool_thread
            )
    # Each part runs in a copy of the caller's context, so that its numpy
    # error state (np.errstate) holds there too.
    futures = [
        _pool.submit(contextvars.copy_context().run, fn, *(a[part] for a in arrays)) for part in parts
    ]
    wait(futures)  # so that no part is left running when another's error is raised
    return [future.result() for future in futures]


def backward_batch(tape: Tape, seed: np.ndarray, grad_names=frozenset(), *, input_grad=True):
    """Reverse pass over a batched tape.

    ``seed`` is the cotangent over the batched logits, shape (N, K). Returns
    ``(grad_input (N, C, H, W), param_grads)``. Each layer returns its
    parameter gradients as ``RowTerms``, and this pass totals them as the
    layer returns, into gradients summed over the batch; on a tape with
    ``row_terms`` set it leaves them for ``layers.sum_row_terms``. A name in
    ``grad_names`` that no layer has a gradient for raises ``ModelError``.
    Each tape supports exactly one reverse pass.

    With ``input_grad=False`` the pass stops at the lowest layer that owns a
    requested parameter, which computes only its parameter gradients, and
    ``grad_input`` is None.

    Each record leaves the tape as its layer's ``backward`` returns, so its
    saved arrays are freed while the pass goes on; records below an early
    stop are dropped before it starts. A consumed tape keeps no saved values.
    """
    if tape.consumed:
        raise TapeError("tape already consumed by a previous reverse pass")
    tape.consumed = True
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != tape.logits.shape:
        raise ValueError(f"seed shape {seed.shape} does not match logits {tape.logits.shape}")
    grad_names = frozenset(grad_names)
    model = tape.model
    has_grad = set(model.params) - _untrainable(model.layers)
    if missing := sorted(grad_names - has_grad):
        raise ModelError(f"no layer has a gradient for {', '.join(map(repr, missing))}")
    records = tape.records
    if not input_grad:
        owners = [i for i, (layer, _) in enumerate(records) if grad_names & set(layer.param_names())]
        del records[: owners[0] if owners else len(records)]
        if not owners:
            return None, {}
    gy = seed
    param_grads = {}
    while records:
        layer, saved = records.pop()
        if records or input_grad:
            gy, terms = layer.backward(model.params, saved, gy, grad_names)
        else:
            gy, terms = layer.backward(model.params, saved, gy, grad_names, input_grad=False)
        del saved  # the last reference: the layer's saved arrays are freed here
        if not tape.row_terms:
            terms = {name: t.total(*t.arrays) for name, t in terms.items()}
        param_grads.update(terms)
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
            top2 = np.sort(np.stack(layer._views(cur), axis=-1), axis=-1)[..., -2:]
            gaps = top2[..., 1] - top2[..., 0]
            live = top2[..., 1] != 0.0
            if np.any(live):
                margin = min(margin, float(np.min(gaps[live])))
        cur, _ = layer.forward(model.params, cur)
    return margin
