"""Reverse-mode differentiation for sequential CNN models.

``forward_batch`` evaluates a batch of images and records a tape of
per-layer saved values; ``backward_batch`` consumes the tape in one reverse
pass, seeded with a cotangent over the logits, and returns the input
gradient or, for named parameters, their per-row terms
(``layers.RowTerms``). ``forward`` and ``backward`` wrap a batch of one.

``gradients`` is the one batched entry point of training, PGD and
integrated gradients, and the one owner of row parts: it runs both passes
on each of the batch's ``row_parts`` on a shared thread pool
(``map_row_parts``), joins the parts in row order and totals parameter
terms once (``layers.sum_row_terms``). The parts depend only on the batch
size, and every layer gives a row the bytes of its batch-of-one pass, so
the result has the bytes of one pass over the whole batch.

``forward_values`` evaluates images without a tape, and with ``base=`` the
images that differ from one image only inside a box each, as occlusion's
variants do. README, "Speed and exactness", says why it and the row parts
keep the bytes of a plain pass.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .layers import GEMM_TILE, sum_row_terms
from .model import ModelError, _untrainable
from .tensor import Tensor

__all__ = [
    "Tape",
    "TapeError",
    "forward",
    "forward_values",
    "forward_batch",
    "backward",
    "backward_batch",
    "gradients",
    "grad_input",
    "grad_input_weighted",
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

    A tape backs exactly one reverse pass; ``backward_batch`` marks it
    consumed and empties ``records`` as it goes.
    """

    model: "object"
    records: list = field(default_factory=list)
    logits: np.ndarray | None = None  # batched (N, num_classes)
    consumed: bool = False


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


def backward_batch(tape: Tape, seed: np.ndarray, grad_names=frozenset()):
    """Reverse pass over a batched tape.

    ``seed`` is the cotangent over the batched logits, shape (N, K). Without
    ``grad_names`` the pass returns ``(grad_input (N, C, H, W), {})``. With
    them it returns ``(None, {name: RowTerms})`` and stops at the lowest
    layer that owns a requested parameter, which computes only its parameter
    terms. A name that no layer has a gradient for raises ``ModelError``.
    Each tape supports exactly one reverse pass.

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
    if grad_names:
        lowest = next(i for i, (layer, _) in enumerate(records) if grad_names & set(layer.param_names()))
        del records[:lowest]
    gy = seed
    param_grads = {}
    while records:
        layer, saved = records.pop()
        if records or not grad_names:
            gy, terms = layer.backward(model.params, saved, gy, grad_names)
        else:
            gy, terms = layer.backward(model.params, saved, gy, grad_names, input_grad=False)
        del saved  # the last reference: the layer's saved arrays are freed here
        param_grads.update(terms)
    return gy, param_grads


def gradients(model, xb, seed_of, *rows, grad_names=frozenset()):
    """Forward and reverse passes over a batch, on its row parts.

    A part's reverse pass is seeded with ``seed_of(part_logits, *part_rows)``,
    ``part_rows`` its rows of the per-image arrays ``rows``; the seed must
    treat each row on its own. Returns ``(logits, gx, grads)``: without
    ``grad_names`` the input gradient and ``{}``; with them None and each
    named parameter's gradient summed over the batch.
    """

    def part(x, *part_rows):
        logits, tape = forward_batch(model, x)
        return (logits, *backward_batch(tape, seed_of(logits, *part_rows), grad_names))

    logits, gx, terms = zip(*map_row_parts(part, xb, *rows))
    if grad_names:
        return np.concatenate(logits), None, sum_row_terms(terms)
    return np.concatenate(logits), np.concatenate(gx), {}


def backward(tape: Tape, seed) -> Tensor:
    """Single-image reverse pass: seed over the logits -> input gradient."""
    seed = np.asarray(seed, dtype=np.float64)
    return Tensor(backward_batch(tape, seed[None])[0][0])


def grad_input(model, x: Tensor, c: int) -> Tensor:
    """Gradient of the class-c logit with respect to every input value."""
    model.check_class(c)
    seed = np.zeros(model.num_classes, dtype=np.float64)
    seed[c] = 1.0
    return grad_input_weighted(model, x, seed)


def grad_input_weighted(model, x: Tensor, weights) -> Tensor:
    """Gradient of ``weights . logits`` with respect to the input."""
    _, tape = forward(model, x)
    return backward(tape, weights)
