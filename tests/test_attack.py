"""PGD attack guarantees, the accuracy-drop metric, and robustness ranking."""

import threading

import numpy as np
import pytest

from fracmap.attack import (
    EVAL_BATCH,
    AttackConfig,
    RobustnessReport,
    adv_accuracy,
    delta_acc,
    pgd_batch,
    rank_models,
)
from fracmap.autodiff import backward_batch, forward_batch, row_parts
from fracmap.layers import GEMM_TILE
from fracmap.loss import cross_entropy_grad, softmax
from fracmap.train import evaluate

from conftest import linear_model, rand_image, random_cnn

EPS = 4 / 255


class TestPgd:
    def test_zero_epsilon_returns_input_bit_identically(self, quick_model):
        x = rand_image(1, quick_model.input_shape)
        out = pgd_batch(quick_model, x.array[None], [0], AttackConfig(epsilon=0.0))[0]
        assert np.array_equal(out, x.array)

    def test_zero_iters_returns_input_bit_identically(self, quick_model):
        x = rand_image(2, quick_model.input_shape)
        cfg = AttackConfig(iters=0, random_start=False)
        out = pgd_batch(quick_model, x.array[None], [1], cfg)[0]
        assert np.array_equal(out, x.array)

    def test_single_step_on_linear_model_follows_sign_gradient(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=12)
        m = linear_model(np.vstack([w, -w]), (1, 3, 4))
        x = rand_image(4, (1, 3, 4))
        cfg = AttackConfig(epsilon=0.5, step_size=1 / 255, iters=1)
        # For label 0 the fractured logit must shrink: ascend -w (and
        # symmetrically +w for label 1), then clip to the pixel box.
        for label, direction in ((0, -w), (1, w)):
            out = pgd_batch(m, x.array[None], [label], cfg)[0]
            expect = np.clip(x.array + cfg.step_size * np.sign(direction.reshape(1, 3, 4)), 0, 1)
            assert np.allclose(out, expect, rtol=0, atol=1e-15)

    def test_ball_and_box_containment(self, quick_model, quick_dataset):
        cfg = AttackConfig(epsilon=EPS, step_size=1 / 255, iters=10)
        for i in quick_dataset.split_indices("test")[:8]:
            x = quick_dataset.images[i]
            out = pgd_batch(quick_model, x.array[None], [quick_dataset.labels[i]], cfg)[0]
            assert np.max(np.abs(out - x.array)) <= EPS + 1e-12
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_without_random_start(self, quick_model):
        x = rand_image(5, quick_model.input_shape)
        cfg = AttackConfig(iters=4)
        a = pgd_batch(quick_model, x.array[None], [0], cfg)[0]
        b = pgd_batch(quick_model, x.array[None], [0], cfg)[0]
        assert np.array_equal(a, b)

    def test_random_start_is_seeded_and_contained(self, quick_model):
        x = rand_image(6, quick_model.input_shape)
        cfg = AttackConfig(iters=2, random_start=True, seed=9)
        a = pgd_batch(quick_model, x.array[None], [0], cfg)[0]
        b = pgd_batch(quick_model, x.array[None], [0], cfg)[0]
        assert np.array_equal(a, b)
        assert np.max(np.abs(a - x.array)) <= EPS + 1e-12

    def test_invalid_label_rejected(self, quick_model):
        x = rand_image(7, quick_model.input_shape)
        with pytest.raises(ValueError, match="label"):
            pgd_batch(quick_model, x.array[None], [2], AttackConfig())

    def test_out_of_range_pixels_rejected(self, quick_model):
        bad = rand_image(8, quick_model.input_shape).array + 1.5
        with pytest.raises(ValueError, match="0, 1"):
            pgd_batch(quick_model, bad[None], [0], AttackConfig())

    def test_attack_increases_loss_on_attacked_class(self, quick_model, quick_dataset):
        i = quick_dataset.split_indices("train")[0]
        x, y = quick_dataset.images[i], quick_dataset.labels[i]
        from fracmap.autodiff import forward_values

        p_before = softmax(forward_values(quick_model, x.array)[None])[0, y]
        adv = pgd_batch(quick_model, x.array[None], [y], AttackConfig(epsilon=EPS, iters=10))[0]
        p_after = softmax(forward_values(quick_model, adv)[None])[0, y]
        assert p_after < p_before

    def test_each_image_gets_its_batch_of_one_attack(self, quick_model, quick_dataset):
        # Every layer gives a row its batch-of-one bytes, and the loss
        # gradient is per example, so no image's attack depends on its batch.
        cfg = AttackConfig(epsilon=EPS, step_size=1 / 255, iters=3)
        xb, yb = next(quick_dataset.batches("test", 11))
        adv = pgd_batch(quick_model, xb, yb, cfg)
        for j in range(len(xb)):
            one = pgd_batch(quick_model, xb[j : j + 1], yb[j : j + 1], cfg)
            assert adv[j].tobytes() == one[0].tobytes(), j


def pgd_one_pass(model, xb, labels, cfg):
    """PGD as one taped pass over the whole batch per step, on the calling thread."""
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


class TestPgdRowParts:
    # A 32-image batch splits into 4 parts of 8 rows, and a 27-image batch
    # into 3 parts of 9, whose edges fall inside GEMM tiles.
    @pytest.mark.parametrize("n", [32, 27])
    @pytest.mark.parametrize("random_start", [False, True])
    def test_split_batch_equals_one_pass(self, quick_model, quick_dataset, monkeypatch, n, random_start):
        xb, yb = next(quick_dataset.batches("train", n))
        assert len(xb) == n
        cfg = AttackConfig(epsilon=EPS, step_size=1 / 255, iters=3, random_start=random_start, seed=4)
        expect = pgd_one_pass(quick_model, xb, yb, cfg)
        threads = []

        def recorded(model, xb):
            threads.append(threading.get_ident())
            return forward_batch(model, xb)

        monkeypatch.setattr("fracmap.autodiff.forward_batch", recorded)
        assert pgd_batch(quick_model, xb, yb, cfg).tobytes() == expect.tobytes()
        assert len(threads) == len(row_parts(n)) * cfg.iters
        assert threading.get_ident() not in threads

    def test_small_batch_runs_on_the_calling_thread(self, quick_model, quick_dataset, monkeypatch):
        xb, yb = next(quick_dataset.batches("train", 2 * GEMM_TILE - 1))
        threads = []

        def recorded(model, xb):
            threads.append(threading.get_ident())
            return forward_batch(model, xb)

        monkeypatch.setattr("fracmap.autodiff.forward_batch", recorded)
        pgd_batch(quick_model, xb, yb, AttackConfig(epsilon=EPS, iters=2))
        assert threads == [threading.get_ident()] * 2


class TestAdvAccuracy:
    def test_zero_epsilon_equals_clean_accuracy(self, quick_model, quick_dataset):
        clean = evaluate(quick_model, quick_dataset, "test")
        adv = adv_accuracy(quick_model, quick_dataset, "test", AttackConfig(epsilon=0.0))
        assert adv == clean

    def test_constant_model_is_unattackable(self, quick_dataset):
        shape = quick_dataset.image_shape
        m = linear_model(np.zeros((2, int(np.prod(shape)))), shape)
        clean = evaluate(m, quick_dataset, "test")
        adv = adv_accuracy(m, quick_dataset, "test", AttackConfig(epsilon=EPS, iters=10))
        assert adv == clean == 0.5

    def test_trained_model_loses_accuracy_under_attack(self, quick_model, quick_dataset):
        clean = evaluate(quick_model, quick_dataset, "train")
        adv = adv_accuracy(quick_model, quick_dataset, "train", AttackConfig(epsilon=EPS, iters=10))
        assert adv < clean

    def test_mean_accuracy_nonincreasing_in_epsilon(self, quick_model, quick_dataset):
        accs = [
            adv_accuracy(
                quick_model,
                quick_dataset,
                "train",
                AttackConfig(epsilon=eps, step_size=1 / 255, iters=10),
            )
            for eps in (0.0, 1 / 255, 2 / 255, 4 / 255)
        ]
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_empty_split_rejected(self, quick_model, quick_dataset):
        with pytest.raises(ValueError, match="empty"):
            adv_accuracy(quick_model, quick_dataset, "nope", AttackConfig())

    def test_scoring_records_no_tape(self, quick_model, quick_dataset, monkeypatch):
        # The oracle scores each batch with a taped pass. evaluate then makes
        # no taped pass, and adv_accuracy only PGD's, covering each image
        # exactly once per step.
        cfg = AttackConfig(epsilon=EPS, step_size=2 / 255, iters=2)
        clean, adv = [], []
        batches = list(quick_dataset.batches("test", EVAL_BATCH))
        for xb, yb in batches:
            clean += list(np.argmax(forward_batch(quick_model, xb)[0], axis=1) == yb)
            attacked = pgd_batch(quick_model, xb, yb, cfg)
            adv += list(np.argmax(forward_batch(quick_model, attacked)[0], axis=1) == yb)
        calls = []

        def recorded(model, xb):
            calls.append(len(xb))
            return forward_batch(model, xb)

        monkeypatch.setattr("fracmap.autodiff.forward_batch", recorded)
        assert evaluate(quick_model, quick_dataset, "test") == sum(clean) / len(clean)
        assert calls == []
        assert adv_accuracy(quick_model, quick_dataset, "test", cfg) == sum(adv) / len(adv)
        # PGD's passes cover each batch's row parts once per step; the parts
        # run on pool threads, in no fixed order.
        parts = [p.stop - p.start for _, yb in batches for p in row_parts(len(yb))]
        assert sorted(calls) == sorted(parts * cfg.iters)

    def test_accuracy_does_not_depend_on_the_eval_batch(self, quick_model, quick_dataset, monkeypatch):
        cfg = AttackConfig(epsilon=EPS, step_size=2 / 255, iters=2)
        clean = evaluate(quick_model, quick_dataset, "test")
        adv = adv_accuracy(quick_model, quick_dataset, "test", cfg)
        monkeypatch.setattr("fracmap.attack.EVAL_BATCH", 7)
        assert len(quick_dataset.split_indices("test")) % 7 != 0  # a short last batch
        assert evaluate(quick_model, quick_dataset, "test") == clean
        assert adv_accuracy(quick_model, quick_dataset, "test", cfg) == adv


class TestDeltaAcc:
    def test_reported_rows_reproduce_at_two_decimals(self):
        assert f"{delta_acc(99.21, 86.96):.2f}" == "12.25"
        assert delta_acc(93.48, 0.0) == 93.48

    def test_equal_inputs_give_zero(self):
        assert delta_acc(77.7, 77.7) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            delta_acc(101.0, 50.0)
        with pytest.raises(ValueError):
            delta_acc(50.0, -0.1)


TABLE_ROWS = [
    RobustnessReport("MeanSparse", 99.21, 86.96, 12.25),
    RobustnessReport("Swin", 97.63, 82.21, 15.42),
    RobustnessReport("NIG", 97.63, 79.45, 18.18),
    RobustnessReport("Revisiting", 99.01, 78.85, 20.16),
    RobustnessReport("Light", 98.62, 69.37, 29.25),
    RobustnessReport("Standard", 93.48, 0.0, 93.48),
]


class TestRankModels:
    def test_published_rows_rank_by_adversarial_accuracy(self):
        shuffled = [TABLE_ROWS[i] for i in (3, 5, 0, 2, 4, 1)]
        ranked = rank_models(shuffled)
        assert [r.model_id for r in ranked] == [
            "MeanSparse",
            "Swin",
            "NIG",
            "Revisiting",
            "Light",
            "Standard",
        ]

    def test_single_report(self):
        assert rank_models([TABLE_ROWS[0]]) == [TABLE_ROWS[0]]

    def test_tie_breaks_by_smaller_drop(self):
        a = RobustnessReport("a", 90.0, 70.0, 20.0)
        b = RobustnessReport("b", 80.0, 70.0, 10.0)
        assert [r.model_id for r in rank_models([a, b])] == ["b", "a"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_models([])


class TestAttackConfig:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(step_size=-0.1)
        with pytest.raises(ValueError):
            AttackConfig(iters=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["epsilon", "step_size"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AttackConfig(**{field: value})
