"""Training loops (standard and adversarial) and accuracy evaluation.

Both loops share one minibatch engine: shuffle the train split with a
seed-derived stream, average cross-entropy gradients over each batch in
index order, and apply Adam updates to the trainable parameters only.
The adversarial variant replaces every minibatch with its PGD perturbation,
crafted against the current parameters, before the gradient step; with a
zero-radius attack it reduces exactly to standard training.

Models are immutable, so training works on a private copy of the trainable
parameters and returns a new model; frozen parameters are carried over
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, pgd_batch
from .autodiff import backward_batch, forward_batch
from .loss import cross_entropy, cross_entropy_grad

__all__ = ["TrainConfig", "TrainResult", "DivergenceError", "train", "adv_train", "evaluate"]


class DivergenceError(RuntimeError):
    """Raised when training leaves the finite domain (loss or parameters)."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters: Adam with cross-entropy loss."""

    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    head_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainResult:
    model: "object"
    loss_trace: list = field(default_factory=list)  # mean train loss per epoch


class _Adam:
    def __init__(self, names, cfg: TrainConfig):
        self.names = sorted(names)
        self.cfg = cfg
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, work, grads):
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1**self.t
        bc2 = 1.0 - cfg.beta2**self.t
        for name in self.names:
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
            self.m[name], self.v[name] = m, v
            work[name] = work[name] - cfg.learning_rate * (m / bc1) / (
                np.sqrt(v / bc2) + cfg.adam_eps
            )


def _fit(model, ds, cfg: TrainConfig, perturb=None) -> TrainResult:
    idx = ds.split_indices("train")
    if not idx:
        raise ValueError("train split is empty")
    trainable = [n for n, flag in model.trainable.items() if flag]
    if cfg.head_only:
        head_names = set(model.head.param_names())
        if set(trainable) != head_names:
            raise ValueError(
                "head_only training expects a frozen backbone "
                f"(trainable: {sorted(trainable)})"
            )
    if not trainable:
        raise ValueError("no trainable parameters")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    work = {n: model.params[n].copy() for n in trainable}
    opt = _Adam(trainable, cfg)
    grad_names = frozenset(trainable)
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(idx))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            chunk = [idx[j] for j in order[start : start + cfg.batch_size]]
            current = model.with_params({**model.params, **work})
            xb = np.stack([ds.images[i].array for i in chunk])
            yb = np.array([ds.labels[i] for i in chunk])
            if perturb is not None:
                xb = perturb(current, xb, yb)
            logits, tape = forward_batch(current, xb)
            batch_loss = float(np.mean(cross_entropy(logits, yb)))
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch + 1}, batch {start // cfg.batch_size}"
                )
            losses.append(batch_loss)
            seed = cross_entropy_grad(logits, yb) / len(chunk)
            _, grads = backward_batch(tape, seed, grad_names, input_grad=False)
            opt.step(work, grads)
            for name in opt.names:
                if not np.all(np.isfinite(work[name])):
                    raise DivergenceError(
                        f"parameter {name!r} became non-finite at epoch {epoch + 1}, "
                        f"batch {start // cfg.batch_size}"
                    )
        trace.append(float(np.mean(losses)))
    return TrainResult(model=model.with_params({**model.params, **work}), loss_trace=trace)


def train(model, ds, cfg: TrainConfig) -> TrainResult:
    """Standard training on the dataset's train split."""
    return _fit(model, ds, cfg)


def adv_train(model, ds, atk: AttackConfig, cfg: TrainConfig) -> TrainResult:
    """Adversarial training: each minibatch is attacked before the step."""

    def perturb(current, xb, yb):
        return pgd_batch(current, xb, yb, atk)

    return _fit(model, ds, cfg, perturb=perturb)


def evaluate(model, ds, split: str, batch_size: int = 32) -> float:
    """Fraction of argmax-correct predictions on a split, in [0, 1]."""
    idx = ds.split_indices(split)
    if not idx:
        raise ValueError(f"split {split!r} is empty")
    correct = 0
    for start in range(0, len(idx), batch_size):
        chunk = idx[start : start + batch_size]
        xb = np.stack([ds.images[i].array for i in chunk])
        yb = np.array([ds.labels[i] for i in chunk])
        logits, _ = forward_batch(model, xb)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
    return correct / len(idx)
