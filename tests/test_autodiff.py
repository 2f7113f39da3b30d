"""Forward evaluation, tape semantics, and gradient correctness."""

import os
import queue
import resource
import signal
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracmap.autodiff
from fracmap.autodiff import (
    OCCLUSION_BATCH,
    TapeError,
    backward,
    backward_batch,
    forward,
    forward_batch,
    forward_values,
    grad_input,
    grad_input_weighted,
    map_row_parts,
    row_parts,
)
from fracmap.layers import GEMM_TILE, Conv2d, Dense, Flatten, ReLU
from fracmap.model import Model, ModelError, tiny_cnn
from fracmap.tensor import Tensor

from conftest import frozen_backbone, linear_model, rand_image, random_cnn, spy_layer_forwards, write_boxes
from oracles import central_difference, kink_margin, numeric_gradient


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

    @pytest.mark.parametrize("entry", [forward_batch, forward_values], ids=["forward_batch", "forward_values"])
    def test_empty_batch_rejected(self, entry):
        m = tiny_cnn(1, input_shape=(1, 32, 32))
        with pytest.raises(ModelError, match=r"batch of shape \(0, 1, 32, 32\) holds no images"):
            entry(m, np.zeros((0, 1, 32, 32)))


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
    """A pass with gradient names stops at the lowest owner, as training uses it."""

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
        gy, full = seed, {}
        for layer, saved in reversed(forward_batch(model, xb)[1].records):
            gy, terms = layer.backward(model.params, saved, gy, names)
            full.update(terms)
        gx, short = backward_batch(forward_batch(model, xb)[1], seed, names)
        assert gx is None
        assert sorted(short) == sorted(full) == sorted(names)
        for name in names:
            for a, b in zip(full[name].arrays, short[name].arrays, strict=True):
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("head_only, lowest", [(False, "conv0"), (True, "head")])
    def test_pass_stops_at_lowest_layer_with_a_requested_parameter(self, head_only, lowest):
        model = tiny_cnn(5, input_shape=(1, 32, 32))
        if head_only:
            model = frozen_backbone(model)
        _, tape = forward_batch(model, np.zeros((2,) + model.input_shape))
        calls = []
        tape.records = [(_Recorder(layer, calls), saved) for layer, saved in tape.records]
        names = frozenset(n for n, flag in model.trainable.items() if flag)
        backward_batch(tape, np.ones((2, 2)), names)
        assert calls[-1] == (lowest, False)
        assert all(keep for _, keep in calls[:-1])
        assert [name for name, _ in calls] == [l.name for l in reversed(model.layers)][: len(calls)]


class TestGradNames:
    """A requested gradient that no layer has is an error, not an empty result."""

    @pytest.mark.parametrize(
        "names, missing",
        [
            ({"conv0.weigth"}, ["conv0.weigth"]),
            ({"stdz.mean", "conv0.bias"}, ["stdz.mean"]),
            ({"stdz.std", "head.weight", "nope"}, ["nope", "stdz.std"]),
        ],
    )
    def test_names_without_a_gradient_rejected(self, names, missing):
        model = tiny_cnn(3, input_shape=(1, 32, 32))
        logits, tape = forward_batch(model, np.zeros((2,) + model.input_shape))
        with pytest.raises(ModelError) as err:
            backward_batch(tape, np.ones_like(logits), names)
        assert str(err.value) == "no layer has a gradient for " + ", ".join(map(repr, missing))


# Measured with a batch-32 tiny_cnn pass (forward leaves 33.8 MiB live):
# the reverse pass peaks 1.9 MiB above that when it frees each layer's saved
# values as it goes, and 17.1 MiB above when the tape keeps them all.
REVERSE_PASS_EXTRA_BYTES = 8 * 2**20


def _is_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


class TestTapeMemory:
    """The reverse pass frees saved values as it goes, and passes reuse memory."""

    @staticmethod
    def _batch(model, n=32):
        xb = np.random.default_rng(0).uniform(0.0, 1.0, (n,) + model.input_shape)
        return xb, frozenset(name for name, flag in model.trainable.items() if flag)

    @pytest.mark.parametrize("param_pass", [False, True], ids=["input", "params"])
    def test_consumed_tape_keeps_no_saved_arrays(self, param_pass):
        model = tiny_cnn(3, input_shape=(1, 32, 32))
        xb, names = self._batch(model, n=4)
        logits, tape = forward_batch(model, xb)
        refs = [
            weakref.ref(value)
            for _, saved in tape.records
            for value in saved.values()
            if isinstance(value, np.ndarray)
        ]
        assert len(refs) >= len(model.layers) - 3
        backward_batch(tape, np.ones_like(logits), names if param_pass else frozenset())
        assert tape.records == []
        assert all(ref() is None for ref in refs)

    def test_reverse_pass_allocates_little_beyond_the_forward(self):
        model = tiny_cnn(3)
        xb, names = self._batch(model)
        tracemalloc.start()
        try:
            logits, tape = forward_batch(model, xb)
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward_batch(tape, np.ones_like(logits), names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live <= REVERSE_PASS_EXTRA_BYTES

    @pytest.mark.skipif(not _is_glibc(), reason="the heap settings are glibc's")
    def test_repeated_passes_do_not_fault_in_fresh_pages(self):
        model = tiny_cnn(3)
        xb, names = self._batch(model)

        def one_pass():
            logits, tape = forward_batch(model, xb)
            backward_batch(tape, np.ones_like(logits), names)

        one_pass()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            one_pass()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 500


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


def patch_boxes(x, patch, stride, per_channel=False):
    """Zero patch boxes of ``x`` at each strided position, one channel at a
    time with ``per_channel``, and their offsets; preceded by ``x``'s own
    pixels at (0, 0), a box that changes nothing."""
    c, h, w = x.shape
    boxes, rows, cols = [x[:, :patch, :patch]], [0], [0]
    for i in range(0, h - patch + 1, stride):
        for j in range(0, w - patch + 1, stride):
            for ch in range(c) if per_channel else [slice(None)]:
                box = x[:, i : i + patch, j : j + patch].copy()
                box[ch] = 0.0
                boxes.append(box)
                rows.append(i)
                cols.append(j)
    return np.stack(boxes), np.array(rows), np.array(cols)


def _plane_fits(n, kernel_sizes, padding, pool):
    """Whether an n-pixel side survives random_cnn's convs, with these kernel
    sizes along it, and its pools."""
    for k in kernel_sizes:
        n -= k - 1 if padding == "valid" else 0
        if n < 1 or (pool and n % 2):
            return False
        n //= 2 if pool else 1
    return True


@st.composite
def base_and_boxes(draw):
    """A random_cnn with kernels of 1, 3 or 5 along each axis, a base image
    with a +0.0 block, and boxes of one random size at random offsets (edge
    and corner ones included). Each box holds the base's own pixels with a
    sub-box of +0.0, -0.0, 0.25, 1.0 or random values written into it, or
    left unchanged."""
    padding = draw(st.sampled_from(["same", "valid"]))
    pool, n_conv = draw(st.booleans()), draw(st.integers(1, 2))
    size = st.sampled_from([1, 3, 5])
    kernels = draw(st.lists(st.tuples(size, size), min_size=n_conv, max_size=n_conv))
    c = draw(st.integers(1, 3))
    h, w = (
        draw(st.sampled_from([n for n in range(8, 31) if _plane_fits(n, ks, padding, pool)]))
        for ks in zip(*kernels)
    )
    widths = draw(st.lists(st.integers(1, 5), min_size=n_conv, max_size=n_conv))
    model = random_cnn(
        seed=draw(st.integers(0, 2**16)),
        input_shape=(c, h, w),
        channels=tuple(widths),
        pool=pool,
        padding=padding,
        head=draw(st.sampled_from(["flatten", "gap"])),
        kernels=kernels,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.random((c, h, w))
    base[:, : h // 2, : w // 3] = 0.0
    bh, bw = draw(st.integers(1, h)), draw(st.integers(1, w))

    def offset(n, b):
        return draw(st.one_of(st.just(0), st.just(n - b), st.integers(0, n - b)))

    def span(n):
        a = draw(st.integers(0, n - 1))
        return a, draw(st.integers(a + 1, n))

    boxes, rows, cols = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        r, q = offset(h, bh), offset(w, bw)
        box = base[:, r : r + bh, q : q + bw].copy()
        value = draw(st.sampled_from([0.0, -0.0, 0.25, 1.0, None, "unchanged"]))
        if value != "unchanged":
            (r0, r1), (c0, c1) = span(bh), span(bw)
            box[:, r0:r1, c0:c1] = rng.random((c, r1 - r0, c1 - c0)) if value is None else value
        boxes.append(box)
        rows.append(r)
        cols.append(q)
    return model, base, np.stack(boxes), np.array(rows), np.array(cols)


class TestForwardFromBase:
    """``forward_values(..., base=)`` reuses the base image's activations without changing a byte."""

    @pytest.mark.parametrize(
        "model, patch, stride, per_channel",
        [
            (tiny_cnn(1, input_shape=(1, 32, 32)), 8, 4, False),
            (tiny_cnn(2, input_shape=(3, 64, 64)), 8, 12, True),
            (random_cnn(seed=3, input_shape=(1, 22, 22), channels=(4, 8), padding="valid"), 5, 3, False),
            (random_cnn(seed=4, input_shape=(2, 16, 16), channels=(4, 8), pool=False), 4, 3, True),
            (random_cnn(seed=5, input_shape=(1, 16, 16), channels=(4, 8), head="gap"), 3, 2, False),
            # conv1's output is 12 wide, not a multiple of the GEMM tile, so a
            # band's columns sit elsewhere in their tiles than a full pass's.
            (random_cnn(seed=9, input_shape=(1, 24, 24), channels=(8, 16, 16)), 8, 4, False),
            # 9x7 planes, not a whole number of GEMM tiles, at 2 and 4 channels.
            (random_cnn(seed=10, input_shape=(2, 9, 7), channels=(4, 8), pool=False), 3, 2, True),
            (linear_model(np.random.default_rng(6).normal(size=(2, 36)), (1, 6, 6)), 2, 2, False),
            # Non-square and 1x1 kernels: "same" pads each axis by its own amount.
            (random_cnn(seed=11, input_shape=(1, 16, 16), channels=(4, 8), kernels=[(3, 5)] * 2), 4, 3, False),
            (random_cnn(seed=12, input_shape=(2, 16, 16), channels=(4, 8), kernels=[(5, 3)] * 2), 3, 2, True),
            (random_cnn(seed=13, input_shape=(1, 16, 16), channels=(4, 8), kernels=[(1, 1)] * 2), 4, 3, False),
            # 22x24 -> conv0 20x20 -> pool 10x10 -> conv1 8x6 -> pool 4x3.
            (random_cnn(seed=14, input_shape=(1, 22, 24), channels=(4, 8), padding="valid", kernels=[(3, 5)] * 2),
             5, 3, False),
        ],
        ids=["tiny_32", "tiny_3x64", "valid", "no_pool", "gap_head", "width_12", "odd_planes", "linear",
             "same_3x5", "same_5x3", "same_1x1", "valid_3x5"],
    )
    def test_bytes_equal_a_plain_pass(self, model, patch, stride, per_channel):
        x = rand_image(7, model.input_shape).array
        boxes, rows, cols = patch_boxes(x, patch, stride, per_channel)
        plain = forward_values(model, write_boxes(x, boxes, rows, cols))
        assert forward_values(model, boxes, base=(x, rows, cols)).tobytes() == plain.tobytes()
        one = forward_values(model, boxes[1:2], base=(x, rows[1:2], cols[1:2]))
        assert one.tobytes() == plain[1:2].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(case=base_and_boxes())
    def test_bytes_equal_a_plain_pass_on_random_boxes(self, case):
        model, base, boxes, rows, cols = case
        plain = forward_values(model, write_boxes(base, boxes, rows, cols))
        assert forward_values(model, boxes, base=(base, rows, cols)).tobytes() == plain.tobytes()

    @pytest.mark.parametrize(
        "model, per_channel",
        [
            (tiny_cnn(1, input_shape=(1, 32, 32)), False),
            (tiny_cnn(2, input_shape=(3, 32, 32)), False),
            (tiny_cnn(2, input_shape=(3, 32, 32)), True),
            (random_cnn(seed=10, input_shape=(3, 9, 7), channels=(4, 8), pool=False), True),
        ],
        ids=["1ch", "3ch", "3ch_per_channel", "odd_planes_per_channel"],
    )
    def test_box_of_own_pixels_gives_a_plain_pass_of_x(self, model, per_channel):
        # Among patch boxes, a box that writes x's own pixels back, at any
        # offset, is x itself, with the bytes of a batch-of-one plain pass.
        x = rand_image(17, model.input_shape).array
        boxes, rows, cols = patch_boxes(x, 3, 2, per_channel)
        (h, w), own = x.shape[1:], []
        for r, q in [(0, 0), (1, 2), (h - 3, w - 3), (h // 2, 0)]:
            own.append(len(boxes))
            boxes = np.concatenate([boxes, x[None, :, r : r + 3, q : q + 3]])
            rows, cols = np.append(rows, r), np.append(cols, q)
        clean = forward_values(model, x)
        out = forward_values(model, boxes, base=(x, rows, cols))
        for row in [0] + own:
            assert out[row].tobytes() == clean.tobytes()

    def test_prefix_of_x_runs_once_per_call(self, monkeypatch):
        # 600 boxes take three passes of at most OCCLUSION_BATCH (256, 256,
        # 88), yet every layer of the local prefix runs on x as a batch of one
        # exactly once.
        model = tiny_cnn(3, input_shape=(1, 32, 32))
        x = rand_image(18, model.input_shape).array
        rng = np.random.default_rng(18)
        rows, cols = rng.integers(0, 30, size=(2, 600))
        boxes = rng.random((600, 1, 3, 3))
        calls = []
        spy_layer_forwards(monkeypatch, model, calls)
        out = forward_values(model, boxes, base=(x, rows, cols))
        monkeypatch.undo()
        passes = [OCCLUSION_BATCH, OCCLUSION_BATCH, 600 - 2 * OCCLUSION_BATCH]
        names = [layer.name for layer in model.layers]
        for name in names[: names.index("flat")]:  # the local prefix
            assert [n for layer, n in calls if layer == name] == [1] + passes
        for name in ("flat", "head"):
            assert [n for layer, n in calls if layer == name] == passes
        plain = np.concatenate(
            [forward_values(model, write_boxes(x, boxes[s : s + 100], rows[s : s + 100], cols[s : s + 100]))
             for s in range(0, 600, 100)]
        )
        assert out.tobytes() == plain.tobytes()

    @pytest.mark.parametrize(
        "x_shape, boxes_shape, rows, cols, problem",
        [
            ((1, 16, 16), (2, 1, 4, 4), [0, 0], [0, 0], r"input shape \(1, 16, 16\)"),
            ((1, 32, 32), (2, 3, 4, 4), [0, 0], [0, 0], r"boxes of shape \(2, 3, 4, 4\)"),
            ((1, 32, 32), (2, 1, 4, 4), [0, 0, 0], [0, 0, 0], "offsets of shapes"),
            ((1, 32, 32), (2, 1, 4, 4), [0, 28], [-1, 0], "does not fit"),
            ((1, 32, 32), (2, 1, 4, 4), [0, 29], [0, 0], "does not fit"),
            ((1, 32, 32), (0, 1, 4, 4), [], [], r"batch of shape \(0, 1, 4, 4\) holds no images"),
        ],
        ids=["base-shape", "box-channels", "offset-count", "negative-offset", "past-the-edge", "no-boxes"],
    )
    def test_malformed_boxes_rejected(self, x_shape, boxes_shape, rows, cols, problem):
        model = tiny_cnn(1, input_shape=(1, 32, 32))
        base = (np.zeros(x_shape), np.array(rows), np.array(cols))
        with pytest.raises(ModelError, match=problem):
            forward_values(model, np.zeros(boxes_shape), base=base)


# Models whose rows must not depend on their batch: tiny_cnn heads of 512
# and 2,048 features, odd planes, flatten and GAP heads, 1-3 channels.
BATCH_MODELS = [
    tiny_cnn(1, input_shape=(1, 32, 32)),
    tiny_cnn(2, input_shape=(3, 64, 64)),
    random_cnn(seed=10, input_shape=(2, 9, 7), channels=(4, 8), pool=False),
    random_cnn(seed=11, input_shape=(1, 16, 16), channels=(4, 8), head="gap"),
    random_cnn(seed=14, input_shape=(3, 22, 24), channels=(4, 8), padding="valid", kernels=[(3, 5)] * 2),
]


class TestBatchInvariance:
    # An image's logits and input gradient keep the bytes of its batch-of-one
    # pass, whatever shares its batch: occlusion's exact drops subtract
    # logits taken from rows of one batch.

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(BATCH_MODELS),
        n=st.one_of(st.integers(1, 20), st.integers(63, 66)),
        data=st.data(),
    )
    def test_a_row_equals_its_batch_of_one(self, model, n, data):
        row = data.draw(st.integers(0, n - 1), label="row")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        xb = rng.random((n, *model.input_shape))
        # Other rows may be copies of the image or blank, as in occlusion's passes.
        kinds = rng.integers(0, 3, n)
        xb[kinds == 1] = xb[row]
        xb[(kinds == 2) & (np.arange(n) != row)] = 0.0
        gy = rng.normal(size=(n, model.num_classes))
        logits, tape = forward_batch(model, xb)
        gx, _ = backward_batch(tape, gy)
        one, tape = forward_batch(model, xb[row : row + 1])
        g_one, _ = backward_batch(tape, gy[row : row + 1])
        assert logits[row].tobytes() == one[0].tobytes()
        assert gx[row].tobytes() == g_one[0].tobytes()

    def test_dense_rows_past_the_blas_size_switch(self):
        # OpenBLAS gives a GEMM with M * N * K above 10^6 another kernel: a
        # plain x @ w.T changed the bits of rows 0-7 once 2,048 features had
        # 245 rows or more.
        layer = Dense(name="fc", in_features=2048, out_features=2)
        rng = np.random.default_rng(0)
        params = {"fc.weight": rng.normal(size=(2, 2048)), "fc.bias": rng.normal(size=2)}
        x, gy = rng.normal(size=(300, 2048)), rng.normal(size=(300, 2))
        y, saved = layer.forward(params, x)
        gx, _ = layer.backward(params, saved, gy, frozenset())
        for i in range(len(x)):
            y_one, saved = layer.forward(params, x[i : i + 1])
            gx_one, _ = layer.backward(params, saved, gy[i : i + 1], frozenset())
            assert y[i].tobytes() == y_one[0].tobytes(), i
            assert gx[i].tobytes() == gx_one[0].tobytes(), i


class TestRowParts:
    # The split does not depend on how many cores run the parts.
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 15, 16, 23, 24, 32, 64])
    def test_parts_cover_the_rows_in_order(self, monkeypatch, cores, n):
        monkeypatch.setattr("fracmap.autodiff._cores", lambda: cores)
        parts = row_parts(n)
        assert len(parts) == max(1, n // GEMM_TILE)
        assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
        assert parts[-1].stop == n
        assert len(parts) == 1 or min(p.stop - p.start for p in parts) >= GEMM_TILE
        assert max(p.stop - p.start for p in parts) < 2 * GEMM_TILE

    def test_results_come_back_in_row_order_and_errors_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr("fracmap.autodiff._cores", lambda: 3)
        rows = np.arange(40)
        assert np.array_equal(np.concatenate(map_row_parts(lambda a, b: a - b, rows, -rows)), 2 * rows)

        def fails_on_the_last_part(a):
            if a[-1] == rows[-1]:
                raise ValueError("last part")
            return a

        with pytest.raises(ValueError, match="last part"):
            map_row_parts(fails_on_the_last_part, rows)

    def test_a_part_may_split_its_own_rows(self, monkeypatch):
        # Inside a part every pool worker may be busy, so the inner parts run
        # on the part's own thread. A fresh pool of 2 workers is busy with
        # the 2 outer parts, each of which splits 4 copies of its rows. The
        # helper thread turns a hang into a failed join; running the queued
        # inner parts here then frees the stuck workers, so that the suite
        # can still exit.
        monkeypatch.setattr("fracmap.autodiff._cores", lambda: 2)
        monkeypatch.setattr("fracmap.autodiff._pool", None)
        rows = np.arange(2.0 * GEMM_TILE)
        inner_threads, result = [], []

        def outer(a):
            def inner(b):
                inner_threads.append((threading.get_ident(), outer_thread))
                return 2 * b

            outer_thread = threading.get_ident()
            return np.concatenate(map_row_parts(inner, np.tile(a, 4)))[: len(a)]

        helper = threading.Thread(
            target=lambda: result.append(np.concatenate(map_row_parts(outer, rows))), daemon=True
        )
        helper.start()
        helper.join(timeout=10)
        hung = helper.is_alive()
        pool = fracmap.autodiff._pool
        while hung:
            try:
                queued = pool._work_queue.get_nowait()
            except queue.Empty:
                break
            queued.run()
        pool.shutdown()
        assert not hung, "a map_row_parts call inside a part did not return"
        assert np.array_equal(result[0], 2 * rows)
        assert len(inner_threads) == 2 * 4
        assert all(inner == outer for inner, outer in inner_threads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_parts_on_a_pool_of_its_own(self, monkeypatch):
        # The child inherits the parent's pool of 2 workers, both started by
        # the barrier, but none of their threads. An alarm kills a child
        # whose call hangs, so that the test fails and the parent's wait
        # returns.
        monkeypatch.setattr("fracmap.autodiff._cores", lambda: 2)
        monkeypatch.setattr("fracmap.autodiff._pool", None)
        rows, both_started = np.arange(2.0 * GEMM_TILE), threading.Barrier(2, timeout=10)
        map_row_parts(lambda a: (both_started.wait(), 2 * a)[1], rows)
        pool = fracmap.autodiff._pool
        pid = os.fork()
        if pid == 0:  # the child: leave only through os._exit
            status = 3
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(5)
                parts = map_row_parts(lambda a: 2 * a, rows)
                status = 0 if np.array_equal(np.concatenate(parts), 2 * rows) else 1
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        pool.shutdown()
        assert os.waitstatus_to_exitcode(status) == 0, "map_row_parts in a forked child hung or failed"

    def test_parts_run_under_the_callers_numpy_error_state(self):
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            map_row_parts(lambda a: 1.0 / a, np.zeros(32))


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
