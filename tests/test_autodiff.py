"""Forward evaluation, tape semantics, and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmap.autodiff import (
    TapeError,
    backward,
    backward_batch,
    central_difference,
    forward,
    forward_batch,
    forward_values,
    grad_input,
    grad_input_weighted,
    kink_margin,
    numeric_gradient,
)
from fracmap.layers import Conv2d, Dense, Flatten, ReLU
from fracmap.model import Model, ModelError, tiny_cnn
from fracmap.tensor import Tensor

from conftest import frozen_backbone, linear_model, rand_image, random_cnn


def passthrough_tail(n, prefix_layers, input_shape, params=None):
    """Model that applies prefix_layers then an identity dense readout."""
    layers = list(prefix_layers) + [
        Flatten(name="flat"),
        Dense(name="head", in_features=n, out_features=n),
    ]
    params = dict(params or {})
    params["head.weight"] = np.eye(n)
    params["head.bias"] = np.zeros(n)
    names = tuple(f"class_{i}" for i in range(n))
    return Model(layers, params, {}, input_shape, names)


def norm_rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12)


class TestForward:
    def test_relu_clips_negatives(self):
        m = passthrough_tail(3, [ReLU(name="r")], (1, 1, 3))
        logits, _ = forward(m, Tensor([[[-1.0, 0.0, 2.0]]]))
        assert np.array_equal(logits.array, [0.0, 0.0, 2.0])

    def test_identity_dense_passes_input_through(self):
        m = passthrough_tail(4, [], (1, 2, 2))
        x = Tensor([[[0.1, -0.7], [3.0, 0.0]]])
        logits, _ = forward(m, x)
        assert np.array_equal(logits.array, x.data)

    def test_1x1_conv_scales_image(self):
        conv = Conv2d(name="c", in_channels=1, out_channels=1, kernel_h=1, kernel_w=1)
        params = {"c.weight": np.full((1, 1, 1, 1), 2.0), "c.bias": np.zeros(1)}
        y, _ = conv.forward(params, np.ones((1, 1, 2, 2)))
        assert np.array_equal(y, np.full((1, 1, 2, 2), 2.0))

    def test_shape_mismatch_names_layer(self):
        m = random_cnn(seed=0)
        with pytest.raises(ModelError, match="stdz"):
            forward(m, Tensor(np.zeros((1, 7, 8))))

    def test_logits_have_one_value_per_class(self):
        m = random_cnn(seed=1, n_classes=3)
        logits, _ = forward(m, rand_image(5, m.input_shape))
        assert logits.shape == (3,)


class TestTape:
    def test_tape_is_single_use(self):
        m = random_cnn(seed=2)
        _, tape = forward(m, rand_image(3, m.input_shape))
        backward(tape, [1.0, 0.0])
        with pytest.raises(TapeError):
            backward(tape, [1.0, 0.0])

    def test_seed_shape_checked(self):
        m = random_cnn(seed=2)
        _, tape = forward(m, rand_image(3, m.input_shape))
        with pytest.raises(ValueError):
            backward(tape, [1.0, 0.0, 0.0])


class TestParamOnlyPass:
    """``input_grad=False`` stops the reverse pass early, as training uses it."""

    @pytest.mark.parametrize(
        "model",
        [
            tiny_cnn(3, input_shape=(1, 32, 32)),
            random_cnn(seed=4, input_shape=(3, 10, 10), channels=(2, 3), padding="valid"),
            frozen_backbone(tiny_cnn(5, input_shape=(1, 32, 32))),
        ],
        ids=["tiny_cnn", "random_cnn", "head_only"],
    )
    def test_param_grads_bit_identical_to_full_pass(self, model):
        rng = np.random.default_rng(1)
        xb = rng.uniform(0.0, 1.0, (5,) + model.input_shape)
        seed = rng.standard_normal((5, model.num_classes))
        names = frozenset(n for n, flag in model.trainable.items() if flag)
        _, full = backward_batch(forward_batch(model, xb)[1], seed, names)
        gx, short = backward_batch(forward_batch(model, xb)[1], seed, names, input_grad=False)
        assert gx is None
        assert sorted(short) == sorted(full) == sorted(names)
        for name in names:
            assert full[name].tobytes() == short[name].tobytes()

    @pytest.mark.parametrize("head_only, lowest", [(False, "conv0"), (True, "head")])
    def test_pass_stops_at_lowest_layer_with_a_requested_parameter(self, head_only, lowest):
        model = tiny_cnn(5, input_shape=(1, 32, 32))
        if head_only:
            model = frozen_backbone(model)
        _, tape = forward_batch(model, np.zeros((2,) + model.input_shape))
        calls = []
        tape.records = [(_Recorder(layer, calls), saved) for layer, saved in tape.records]
        names = frozenset(n for n, flag in model.trainable.items() if flag)
        backward_batch(tape, np.ones((2, 2)), names, input_grad=False)
        assert calls[-1] == (lowest, False)
        assert all(keep for _, keep in calls[:-1])
        assert [name for name, _ in calls] == [l.name for l in reversed(model.layers)][: len(calls)]


class _Recorder:
    """Stands in for a layer on a tape and logs its backward calls."""

    def __init__(self, layer, calls):
        self.layer, self.calls = layer, calls

    def param_names(self):
        return self.layer.param_names()

    def backward(self, *args, input_grad=True):
        self.calls.append((self.layer.name, input_grad))
        if input_grad:
            return self.layer.backward(*args)
        return self.layer.backward(*args, input_grad=False)


class TestGradInput:
    def test_linear_model_gradient_is_weight_row(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 12))
        m = linear_model(w, (1, 3, 4))
        g = grad_input(m, rand_image(1, (1, 3, 4)), 0)
        assert np.array_equal(g.array.reshape(-1), w[0])

    def test_ignored_pixel_has_zero_gradient(self):
        w = np.ones((2, 9))
        w[:, 4] = 0.0
        m = linear_model(w, (1, 3, 3))
        g = grad_input(m, rand_image(2, (1, 3, 3)), 1)
        assert g.array.reshape(-1)[4] == 0.0

    def test_class_index_validated(self):
        m = random_cnn(seed=3)
        with pytest.raises(ValueError, match="class index"):
            grad_input(m, rand_image(1, m.input_shape), 2)

    def test_matches_finite_differences_on_random_cnns(self):
        checked = 0
        attempt = 0
        while checked < 10:
            attempt += 1
            m = random_cnn(seed=100 + attempt, channels=(3, 4), pool=True)
            x = rand_image(200 + attempt, m.input_shape)
            if kink_margin(m, x) <= 1e-4:
                continue
            g = grad_input(m, x, attempt % 2)
            fd = numeric_gradient(m, x, attempt % 2, h=1e-5)
            assert norm_rel_err(g.array, fd.array) < 1e-6
            checked += 1

    def test_deterministic_across_runs(self):
        m = random_cnn(seed=4)
        x = rand_image(9, m.input_shape)
        l1, _ = forward(m, x)
        l2, _ = forward(m, x)
        assert np.array_equal(l1.array, l2.array)
        assert np.array_equal(grad_input(m, x, 0).array, grad_input(m, x, 0).array)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
    )
    def test_reverse_pass_is_linear_in_the_seed(self, a, b):
        m = random_cnn(seed=5)
        x = rand_image(6, m.input_shape)
        gf = grad_input(m, x, 0).array
        gg = grad_input(m, x, 1).array
        combo = grad_input_weighted(m, x, [a, b]).array
        assert np.allclose(combo, a * gf + b * gg, rtol=1e-12, atol=1e-12)


class TestNumericGradient:
    def test_central_difference_on_square(self):
        grad = central_difference(lambda v: v[0] ** 2, np.array([3.0]), h=1e-5)
        assert abs(grad[0] - 6.0) < 1e-6

    def test_linear_model_equals_weights(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 8))
        m = linear_model(w, (1, 2, 4))
        fd = numeric_gradient(m, rand_image(3, (1, 2, 4)), 1, h=1e-4)
        assert np.allclose(fd.array.reshape(-1), w[1], rtol=1e-9, atol=1e-9)

    def test_batched_path_matches_generic_central_difference(self):
        m = random_cnn(seed=6)
        x = rand_image(7, m.input_shape)
        fd = numeric_gradient(m, x, 0, h=1e-5)
        ref = central_difference(
            lambda flat: forward_values(m, flat.reshape(x.shape))[0], x.data, h=1e-5
        )
        # batch-vs-single BLAS rounding differs at the ulp level; dividing by
        # 2h amplifies that to ~1e-11 absolute, well below any real gradient
        assert np.allclose(fd.array.reshape(-1), ref, rtol=1e-9, atol=1e-9)

    def test_rejects_bad_step_and_class(self):
        m = random_cnn(seed=6)
        x = rand_image(7, m.input_shape)
        with pytest.raises(ValueError, match="positive"):
            numeric_gradient(m, x, 0, h=0.0)
        with pytest.raises(ValueError, match="class index"):
            numeric_gradient(m, x, 5)


class TestKinkMargin:
    def test_positive_margin_for_generic_points(self):
        m = random_cnn(seed=8)
        assert kink_margin(m, rand_image(11, m.input_shape)) > 0.0

    def test_zero_margin_at_a_relu_kink(self):
        m = passthrough_tail(4, [ReLU(name="r")], (1, 2, 2))
        assert kink_margin(m, Tensor([[[0.0, 1.0], [2.0, 3.0]]])) == 0.0
