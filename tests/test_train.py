"""Training loops, the zero-radius equivalence, and accuracy evaluation."""

import numpy as np
import pytest

from fracmap.attack import AttackConfig
from fracmap.autodiff import forward
from fracmap.coverage import AnnotationSet
from fracmap.model import tiny_cnn
from fracmap.synth import FRACTURED, HEALTHY, Dataset, generate_dataset
from fracmap.tensor import Tensor
from fracmap.train import DivergenceError, TrainConfig, adv_train, evaluate, train

from conftest import SMALL_CFG, frozen_backbone, linear_model


def brightness_dataset(n_per_class=4, side=4):
    """Constant images: fractured bright (0.8), healthy dark (0.2)."""
    images, labels, split, ids = [], [], [], []
    entries = {}
    for i in range(2 * n_per_class):
        fractured = i % 2 == 0
        value = 0.8 if fractured else 0.2
        image_id = f"img_{i:04d}"
        images.append(Tensor(np.full((1, side, side), value)))
        labels.append(FRACTURED if fractured else HEALTHY)
        split.append("train" if i < n_per_class else "test")
        ids.append(image_id)
        if fractured:
            entries[image_id] = ((1, 1),)
    return Dataset(images, labels, split, ids, AnnotationSet(entries=entries))


def brightness_oracle(side=4, sign=1.0):
    """Thresholds mean brightness at 0.5; sign=-1 flips every prediction."""
    n = side * side
    w = np.vstack([np.full(n, sign / n), np.full(n, -sign / n)])
    m = linear_model(w, (1, side, side))
    bias = np.array([-0.5 * sign, 0.5 * sign])
    params = dict(m.params)
    params["head.bias"] = bias
    return m.with_params(params)


class TestEvaluate:
    def test_oracle_model_scores_one(self):
        ds = brightness_dataset()
        assert evaluate(brightness_oracle(), ds, "test") == 1.0

    def test_constant_model_scores_half_on_balanced_split(self):
        ds = brightness_dataset()
        zero = linear_model(np.zeros((2, 16)), (1, 4, 4))
        assert evaluate(zero, ds, "test") == 0.5

    def test_label_flipping_model_complements_oracle(self):
        ds = brightness_dataset()
        acc = evaluate(brightness_oracle(), ds, "test")
        flipped = evaluate(brightness_oracle(sign=-1.0), ds, "test")
        assert flipped == 1.0 - acc

    def test_empty_split_rejected(self):
        ds = brightness_dataset()
        with pytest.raises(ValueError, match="empty"):
            evaluate(brightness_oracle(), ds, "val")

    def test_matches_per_image_recount(self, quick_dataset, quick_model):
        acc = evaluate(quick_model, quick_dataset, "test")
        correct = 0
        idx = quick_dataset.split_indices("test")
        for i in idx:
            logits, _ = forward(quick_model, quick_dataset.images[i])
            correct += int(np.argmax(logits.array) == quick_dataset.labels[i])
        assert acc == correct / len(idx)


class TestTrain:
    def test_loss_decreases_on_separable_data(self, small_dataset):
        res = train(tiny_cnn(seed=1, input_shape=(1, 32, 32)), small_dataset, TrainConfig(epochs=8, seed=1))
        assert res.loss_trace[-1] < res.loss_trace[0]
        assert len(res.loss_trace) == 8

    def test_deterministic_given_seed(self, small_dataset):
        cfg = TrainConfig(epochs=2, seed=5)
        a = train(tiny_cnn(seed=2, input_shape=(1, 32, 32)), small_dataset, cfg).model
        b = train(tiny_cnn(seed=2, input_shape=(1, 32, 32)), small_dataset, cfg).model
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_empty_train_split_rejected(self):
        ds = brightness_dataset()  # no images tagged "val"/"train" mix: train exists
        ds.split[:] = ["test"] * len(ds.split)
        with pytest.raises(ValueError, match="train split is empty"):
            train(brightness_oracle(), ds, TrainConfig(epochs=1))

    def test_divergence_aborts_with_diagnostic(self, small_dataset):
        m = tiny_cnn(seed=4, input_shape=(1, 32, 32))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch"):
            train(m, small_dataset, TrainConfig(epochs=3, learning_rate=1e80, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestAdvTrain:
    def test_zero_epsilon_equals_standard_training(self, small_dataset):
        cfg = TrainConfig(epochs=2, seed=7)
        m0 = tiny_cnn(seed=7, input_shape=(1, 32, 32))
        std = train(m0, small_dataset, cfg).model
        adv = adv_train(m0, small_dataset, AttackConfig(epsilon=0.0), cfg).model
        for name in std.params:
            assert np.array_equal(std.params[name], adv.params[name])

    def test_loss_trace_finite(self, small_dataset):
        res = adv_train(
            tiny_cnn(seed=8, input_shape=(1, 32, 32)),
            small_dataset,
            AttackConfig(epsilon=2 / 255, step_size=1 / 255, iters=2),
            TrainConfig(epochs=2, seed=8),
        )
        assert np.all(np.isfinite(res.loss_trace))

    def test_frozen_backbone_untouched_by_adversarial_training(self, small_dataset):
        m = frozen_backbone(tiny_cnn(seed=9, input_shape=(1, 32, 32)))
        res = adv_train(
            m,
            small_dataset,
            AttackConfig(epsilon=2 / 255, iters=2),
            TrainConfig(epochs=1, seed=9),
        )
        for name, flag in m.trainable.items():
            if not flag:
                assert np.array_equal(res.model.params[name], m.params[name])


def test_quick_model_fits_its_corpus(quick_dataset, quick_model):
    assert evaluate(quick_model, quick_dataset, "train") >= 0.9
