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

from .attack import EVAL_BATCH, AttackConfig, pgd_batch
from .autodiff import backward_batch, forward_batch
from .loss import cross_entropy, cross_entropy_grad

__all__ = ["TrainConfig", "TrainResult", "DivergenceError", "train", "adv_train", "evaluate"]


# Adam's moment decay rates and denominator guard (the Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Raised when training leaves the finite domain (loss or parameters)."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters: Adam with cross-entropy loss."""

    epochs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
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
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name in self.names:
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
            self.m[name], self.v[name] = m, v
            work[name] = work[name] - cfg.learning_rate * (m / bc1) / (
                np.sqrt(v / bc2) + ADAM_EPS
            )


def _fit(model, ds, cfg: TrainConfig, perturb=None) -> TrainResult:
    if not ds.split_indices("train"):
        raise ValueError("train split is empty")
    trainable = [n for n, flag in model.trainable.items() if flag]
    if not trainable:
        raise ValueError("no trainable parameters")

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    work = {n: model.params[n].copy() for n in trainable}
    opt = _Adam(trainable, cfg)
    grad_names = frozenset(trainable)
    trace = []
    for epoch in range(cfg.epochs):
        losses = []
        for batch, (xb, yb) in enumerate(ds.batches("train", cfg.batch_size, rng)):
            current = model.with_params({**model.params, **work})
            if perturb is not None:
                xb = perturb(current, xb, yb)
            logits, tape = forward_batch(current, xb)
            batch_loss = float(np.mean(cross_entropy(logits, yb)))
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"loss became non-finite at epoch {epoch + 1}, batch {batch}"
                )
            losses.append(batch_loss)
            seed = cross_entropy_grad(logits, yb) / len(yb)
            _, grads = backward_batch(tape, seed, grad_names, input_grad=False)
            opt.step(work, grads)
            for name in opt.names:
                if not np.all(np.isfinite(work[name])):
                    raise DivergenceError(
                        f"parameter {name!r} became non-finite at epoch {epoch + 1}, batch {batch}"
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


def evaluate(model, ds, split: str) -> float:
    """Fraction of argmax-correct predictions on a split, in [0, 1]."""
    correct = total = 0
    for xb, yb in ds.batches(split, EVAL_BATCH):
        logits, _ = forward_batch(model, xb)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        total += len(yb)
    return correct / total
