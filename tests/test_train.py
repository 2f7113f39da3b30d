"""Training loops, the zero-radius equivalence, and accuracy evaluation."""

import threading

import numpy as np
import pytest

from fracmap.attack import AttackConfig
from fracmap.autodiff import backward_batch, forward, forward_batch, row_parts
from fracmap.layers import GEMM_TILE
from fracmap.loss import cross_entropy, cross_entropy_grad
from fracmap.model import tiny_cnn
from fracmap.synth import FRACTURED, HEALTHY, AnnotationSet, Dataset, generate_dataset
from fracmap.tensor import Tensor
from fracmap.train import DivergenceError, TrainConfig, _Adam, adv_train, evaluate, train

from conftest import SMALL_CFG, frozen_backbone, linear_model, random_cnn


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=value)


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


def train_one_pass(model, ds, cfg):
    """Standard training as one taped pass over the whole batch per step, on
    the calling thread: (trained params, loss trace)."""
    trainable = [n for n, flag in model.trainable.items() if flag]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    work = {n: model.params[n].copy() for n in trainable}
    opt = _Adam(trainable, cfg)
    trace = []
    for _ in range(cfg.epochs):
        losses = []
        for xb, yb in ds.batches("train", cfg.batch_size, rng):
            current = model.with_params({**model.params, **work})
            logits, tape = forward_batch(current, xb)
            losses.append(float(np.mean(cross_entropy(logits, yb))))
            seed = cross_entropy_grad(logits, yb) / len(yb)
            _, terms = backward_batch(tape, seed, frozenset(trainable))
            opt.step(work, {name: t.total(*t.arrays) for name, t in terms.items()})
        trace.append(float(np.mean(losses)))
    return {**model.params, **work}, trace


def train_recording_threads(model, ds, cfg, monkeypatch):
    """``train`` with the thread of every taped pass recorded: (result, threads)."""
    threads = []

    def recorded(model, xb):
        threads.append(threading.get_ident())
        return forward_batch(model, xb)

    monkeypatch.setattr("fracmap.autodiff.forward_batch", recorded)
    return train(model, ds, cfg), threads


def assert_same_bytes(result, params, trace):
    assert sorted(result.model.params) == sorted(params)
    for name, value in params.items():
        assert result.model.params[name].tobytes() == value.tobytes(), name
    assert np.array(result.loss_trace).tobytes() == np.array(trace).tobytes()


class TestTrainRowParts:
    # A 32-image batch splits into 4 parts of 8 rows, and a 27-image batch
    # into 3 parts of 9, whose edges fall inside GEMM tiles. The quick corpus
    # has 96 train images: batches of 27 end with a short batch of 15, which
    # is one part.
    @pytest.mark.parametrize("batch_size", [32, 27])
    def test_split_batches_equal_one_pass(self, quick_dataset, monkeypatch, batch_size):
        cfg = TrainConfig(epochs=1, batch_size=batch_size, seed=3)
        params, trace = train_one_pass(tiny_cnn(3), quick_dataset, cfg)
        result, threads = train_recording_threads(tiny_cnn(3), quick_dataset, cfg, monkeypatch)
        assert_same_bytes(result, params, trace)
        sizes = [len(yb) for _, yb in quick_dataset.batches("train", batch_size)]
        assert len(threads) == sum(len(row_parts(n)) for n in sizes)
        on_caller = sum(len(row_parts(n)) == 1 for n in sizes)
        assert threads.count(threading.get_ident()) == on_caller
        assert on_caller == (batch_size == 27)

    def test_small_batches_run_on_the_calling_thread(self, small_dataset, monkeypatch):
        cfg = TrainConfig(epochs=1, batch_size=2 * GEMM_TILE - 1, seed=4)
        model = tiny_cnn(4, input_shape=(1, 32, 32))
        params, trace = train_one_pass(model, small_dataset, cfg)
        result, threads = train_recording_threads(model, small_dataset, cfg, monkeypatch)
        assert_same_bytes(result, params, trace)
        assert threads == [threading.get_ident()] * 5  # 64 train images: 4 x 15 + 4

    def test_frozen_backbone_pass_stops_at_the_head(self, quick_dataset, monkeypatch):
        model = frozen_backbone(tiny_cnn(5))
        cfg = TrainConfig(epochs=1, batch_size=32, seed=5)
        params, trace = train_one_pass(model, quick_dataset, cfg)
        grad_names = []

        def recorded(tape, seed, names):
            gx, terms = backward_batch(tape, seed, names)
            grad_names.append(sorted(terms))
            return gx, terms

        monkeypatch.setattr("fracmap.autodiff.backward_batch", recorded)
        result = train(model, quick_dataset, cfg)
        assert_same_bytes(result, params, trace)
        assert grad_names == [["head.bias", "head.weight"]] * 12  # 3 batches of 4 parts
        for name, flag in model.trainable.items():
            if not flag:
                assert result.model.params[name].tobytes() == model.params[name].tobytes()

    def test_gap_head_cnn_over_two_epochs(self, small_dataset, monkeypatch):
        # 64 train images in batches of 24: 3 + 3 + 2 parts per epoch.
        model = random_cnn(6, input_shape=(1, 32, 32), channels=(4, 6), head="gap")
        cfg = TrainConfig(epochs=2, batch_size=24, seed=6)
        params, trace = train_one_pass(model, small_dataset, cfg)
        result, threads = train_recording_threads(model, small_dataset, cfg, monkeypatch)
        assert_same_bytes(result, params, trace)
        assert len(trace) == 2
        assert len(threads) == 2 * 8 and threading.get_ident() not in threads


def test_quick_model_fits_its_corpus(quick_dataset, quick_model):
    assert evaluate(quick_model, quick_dataset, "train") >= 0.9
