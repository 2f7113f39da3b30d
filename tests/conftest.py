"""Shared fixtures and small model builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from fracmap.layers import Conv2d, Dense, Flatten, GlobalAvgPool, MaxPool2, ReLU, Standardize
from fracmap.model import Model
from fracmap.synth import SynthConfig, generate_dataset
from fracmap.tensor import Tensor
from fracmap.train import TrainConfig, train


def linear_model(weights, input_shape, class_names=("fractured", "healthy")) -> Model:
    """f(x) = W . flatten(x), one logit row per class, zero bias."""
    weights = np.asarray(weights, dtype=np.float64)
    feat = int(np.prod(input_shape))
    assert weights.shape == (len(class_names), feat)
    layers = [Flatten(name="flat"), Dense(name="head", in_features=feat, out_features=len(class_names))]
    params = {"head.weight": weights, "head.bias": np.zeros(len(class_names))}
    return Model(layers, params, {}, input_shape, class_names)


def frozen_backbone(m: Model) -> Model:
    """A copy of ``m`` whose only trainable parameters are the head's."""
    flags = {name: name in m.head.param_names() for name in m.params}
    return Model(m.layers, m.params, flags, m.input_shape, m.class_names)


def random_cnn(
    seed: int,
    input_shape=(1, 8, 8),
    channels=(3,),
    pool=True,
    padding="same",
    head="flatten",
    n_classes=2,
) -> Model:
    """Small random CNN for gradient checks; weights U(-0.5, 0.5)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    c, h, w = input_shape
    layers = [Standardize(name="stdz", channels=c)]
    params = {"stdz.mean": np.full(c, 0.5), "stdz.std": np.full(c, 0.5)}
    trainable = {"stdz.mean": False, "stdz.std": False}
    prev = c
    for i, ch in enumerate(channels):
        layers.append(
            Conv2d(
                name=f"conv{i}",
                in_channels=prev,
                out_channels=ch,
                kernel_h=3,
                kernel_w=3,
                padding=padding,
            )
        )
        params[f"conv{i}.weight"] = rng.uniform(-0.5, 0.5, (ch, prev, 3, 3))
        params[f"conv{i}.bias"] = rng.uniform(-0.5, 0.5, ch)
        layers.append(ReLU(name=f"relu{i}"))
        if padding == "valid":
            h, w = h - 2, w - 2
        if pool:
            layers.append(MaxPool2(name=f"pool{i}"))
            h, w = h // 2, w // 2
        prev = ch
    if head == "gap":
        layers.append(GlobalAvgPool(name="gap"))
        feat = prev
    else:
        layers.append(Flatten(name="flat"))
        feat = prev * h * w
    layers.append(Dense(name="head", in_features=feat, out_features=n_classes))
    params["head.weight"] = rng.uniform(-0.5, 0.5, (n_classes, feat))
    params["head.bias"] = rng.uniform(-0.5, 0.5, n_classes)
    names = tuple(f"class_{i}" for i in range(n_classes))
    if n_classes == 2:
        names = ("fractured", "healthy")
    return Model(layers, params, trainable, input_shape, names)


def rand_image(seed: int, shape) -> Tensor:
    rng = np.random.Generator(np.random.PCG64(seed))
    return Tensor(rng.uniform(0.0, 1.0, shape))


SMALL_CFG = SynthConfig(height=32, width=32, bone_halfwidth=(3.0, 5.0), bone_halflen_frac=(0.34, 0.44))


@pytest.fixture(scope="session")
def small_dataset():
    """32x32 corpus, 80 images: fast structural checks (splits, freezing)."""
    return generate_dataset(seed=11, n=80, cfg=SMALL_CFG)


@pytest.fixture(scope="session")
def quick_dataset():
    """Default-geometry corpus small enough for quick training."""
    return generate_dataset(seed=11, n=120)


@pytest.fixture(scope="session")
def quick_model(quick_dataset):
    """A briefly trained classifier that fits the quick corpus (train ~0.99).

    Small batches trade generalization for optimizer steps; tests that use
    this model need confident, meaningful gradients, not test accuracy.
    """
    from fracmap.model import tiny_cnn

    m0 = tiny_cnn(seed=11)
    return train(m0, quick_dataset, TrainConfig(epochs=14, batch_size=8, seed=11)).model
