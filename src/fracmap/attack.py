"""L-infinity projected gradient descent attack and robustness reporting.

The attack repeatedly steps along the sign of the cross-entropy gradient for
the true label, then projects back onto the epsilon ball around the original
image and the [0, 1] pixel box. ``delta_acc`` and ``rank_models`` turn clean
and adversarial accuracies into the drop metric and the robustness ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import backward_batch, forward_batch
from .loss import cross_entropy_grad

__all__ = [
    "AttackConfig",
    "RobustnessReport",
    "pgd_batch",
    "adv_accuracy",
    "delta_acc",
    "rank_models",
]

EVAL_BATCH = 32  # images per forward pass when scoring a split


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters: radius, per-step size, iteration count.

    ``random_start=False`` (the default) makes the attack a pure function of
    (model, image, label); the optional seeded uniform start inside the
    epsilon ball is provided for study.
    """

    epsilon: float = 4 / 255
    step_size: float = 1 / 255
    iters: int = 10
    random_start: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")


@dataclass(frozen=True)
class RobustnessReport:
    """One model's clean/adversarial accuracy row, in percent.

    ``delta_acc`` must equal ``clean_acc - adv_acc``; rows transcribed from
    two-decimal reports are accepted up to half a unit in the last printed
    place.
    """

    model_id: str
    clean_acc: float
    adv_acc: float
    delta_acc: float

    def __post_init__(self):
        for name in ("clean_acc", "adv_acc", "delta_acc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} must lie in [0, 100], got {value}")
        if abs(self.delta_acc - (self.clean_acc - self.adv_acc)) > 0.005:
            raise ValueError(
                f"delta_acc {self.delta_acc} does not match clean - adv "
                f"({self.clean_acc} - {self.adv_acc})"
            )


def pgd_batch(model, xb: np.ndarray, labels, cfg: AttackConfig) -> np.ndarray:
    """Attack a batch of images in [0, 1]; returns the perturbed batch.

    Guarantees ``|out - xb| <= epsilon`` elementwise and ``out`` in [0, 1].
    With ``iters == 0`` and no random start, or with ``epsilon == 0``, the
    input comes back bit-identical.
    """
    xb = np.asarray(xb, dtype=np.float64)
    labels = np.asarray(labels)
    if xb.min() < 0.0 or xb.max() > 1.0:
        raise ValueError("attack inputs must lie in [0, 1]")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError(f"label out of range for {model.num_classes} classes")
    if cfg.epsilon == 0.0 or (cfg.iters == 0 and not cfg.random_start):
        return xb.copy()

    adv = xb.copy()
    if cfg.random_start:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        adv = np.clip(xb + rng.uniform(-cfg.epsilon, cfg.epsilon, size=xb.shape), 0.0, 1.0)
    for _ in range(cfg.iters):
        logits, tape = forward_batch(model, adv)
        grad, _ = backward_batch(tape, cross_entropy_grad(logits, labels))
        adv = adv + cfg.step_size * np.sign(grad)
        adv = xb + np.clip(adv - xb, -cfg.epsilon, cfg.epsilon)
        adv = np.clip(adv, 0.0, 1.0)
    return adv


def adv_accuracy(model, ds, split: str, cfg: AttackConfig) -> float:
    """Accuracy on per-image attacks crafted against this same model."""
    correct = total = 0
    for xb, yb in ds.batches(split, EVAL_BATCH):
        adv = pgd_batch(model, xb, yb, cfg)
        logits, _ = forward_batch(model, adv)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        total += len(yb)
    return correct / total


def delta_acc(clean: float, adv: float) -> float:
    """Accuracy drop clean - adv, both given in percent."""
    if not (0.0 <= clean <= 100.0 and 0.0 <= adv <= 100.0):
        raise ValueError("accuracies must be percentages in [0, 100]")
    return clean - adv


def rank_models(reports) -> list[RobustnessReport]:
    """Order reports by descending adversarial accuracy.

    Ties break by ascending accuracy drop, then by model id.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("rank_models needs at least one report")
    return sorted(reports, key=lambda r: (-r.adv_acc, r.delta_acc, r.model_id))
