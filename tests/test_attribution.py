"""The four map generators, their exactness properties, and normalization."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmap.attribution import (
    MAP_BATCH,
    METHODS,
    AttributionMap,
    MapError,
    OcclusionConfig,
    PathConfig,
    deeplift,
    deeplift_contributions,
    ig_attributions,
    integrated_gradients,
    mean_baseline,
    normalize,
    occlusion,
    saliency,
    write_heatmap,
)
from fracmap.attribution import _occlusion_grid, _upsample_covering
from fracmap.autodiff import (
    OCCLUSION_BATCH,
    backward_batch,
    forward_batch,
    forward_values,
)
from fracmap.model import tiny_cnn
from fracmap.pgm import read_pgm
from fracmap.synth import SynthConfig, generate_dataset
from fracmap.tensor import Tensor

from conftest import linear_model, rand_image, random_cnn, spy_layer_forwards, write_boxes
from oracles import kink_margin, numeric_gradient, occlusion_linearized


def zeros_like_input(model):
    return Tensor(np.zeros(model.input_shape))


def covering_average(shape, positions, scores, cfg):
    """Reference covering average: each position's score added over its
    patch in row-major position order, then divided by the covering count."""
    _, h, w = shape
    total = np.zeros((h, w))
    count = np.zeros((h, w))
    for (i, j), s in zip(positions, scores):
        total[i : i + cfg.patch_h, j : j + cfg.patch_w] += s
        count[i : i + cfg.patch_h, j : j + cfg.patch_w] += 1.0
    return np.divide(total, count, out=np.zeros_like(total), where=count > 0)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("c", [-1, 2])
def test_every_method_rejects_a_class_index_out_of_range(method, c):
    m = random_cnn(seed=3)
    zero = zeros_like_input(m)
    with pytest.raises(ValueError, match="class index"):
        METHODS[method](m, rand_image(1, m.input_shape), c, OcclusionConfig(), PathConfig(zero), zero)


@pytest.mark.parametrize(
    "make",
    [
        lambda: AttributionMap(np.zeros(3), "m", 0, ""),
        lambda: AttributionMap(np.array([[0.0, np.inf]]), "m", 0, ""),
        lambda: occlusion(
            linear_model(np.zeros((2, 16)), (1, 4, 4)),
            rand_image(6, (1, 4, 4)),
            0,
            OcclusionConfig(patch_h=5, patch_w=5),
        ),
    ],
    ids=["not_2d", "non_finite", "patch_larger_than_image"],
)
def test_documented_map_failures_raise_map_error(make):
    with pytest.raises(MapError):
        make()


class TestSaliency:
    def test_linear_model_gives_absolute_weights(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 20))
        m = linear_model(w, (1, 4, 5))
        amap = saliency(m, rand_image(1, (1, 4, 5)), 0)
        assert np.array_equal(amap.values, np.abs(w[0]).reshape(4, 5))
        assert amap.method == "saliency"

    def test_channel_reduction_takes_max_absolute(self):
        m = linear_model(np.array([[-3.0, 1.0, 2.0], [0.0, 0.0, 0.0]]), (3, 1, 1))
        amap = saliency(m, Tensor(np.full((3, 1, 1), 0.5)), 0)
        assert amap.values.shape == (1, 1)
        assert amap.values[0, 0] == 3.0

    def test_matches_channel_maxed_numeric_gradient(self):
        for seed in (31, 32):
            m = random_cnn(seed=seed, input_shape=(2, 8, 8), channels=(3,))
            x = rand_image(seed, (2, 8, 8))
            if kink_margin(m, x) <= 1e-4:
                continue
            amap = saliency(m, x, 1)
            fd = np.abs(numeric_gradient(m, x, 1).array).max(axis=0)
            assert np.max(np.abs(amap.values - fd)) / max(fd.max(), 1e-12) < 1e-6

    def test_map_is_nonnegative(self, quick_model, quick_dataset):
        amap = saliency(quick_model, quick_dataset.images[0], 0)
        assert amap.values.min() >= 0.0


class TestOcclusion:
    CFG = OcclusionConfig(patch_h=2, patch_w=2, stride_h=2, stride_w=2, baseline_value=0.0)

    def test_constant_model_gives_zero_map(self):
        m = linear_model(np.zeros((2, 16)), (1, 4, 4))
        amap = occlusion(m, rand_image(2, (1, 4, 4)), 0, self.CFG)
        assert np.array_equal(amap.values, np.zeros((4, 4)))

    def test_full_image_patch_on_linear_model(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 16))
        m = linear_model(w, (1, 4, 4))
        x = rand_image(3, (1, 4, 4))
        cfg = OcclusionConfig(patch_h=4, patch_w=4, stride_h=1, stride_w=1, baseline_value=0.0)
        amap = occlusion(m, x, 0, cfg)
        expect = float(w[0] @ x.data)
        assert np.allclose(amap.values, expect, rtol=1e-12, atol=1e-12)

    def test_matches_bruteforce_enumeration_on_conv_model(self):
        m = random_cnn(seed=40, input_shape=(1, 4, 4), channels=(2,), pool=False)
        x = rand_image(4, (1, 4, 4))
        amap = occlusion(m, x, 0, self.CFG)
        base = forward_values(m, x.array)[0]
        for i in (0, 2):
            for j in (0, 2):
                occ = x.array.copy()
                occ[:, i : i + 2, j : j + 2] = 0.0
                score = base - forward_values(m, occ)[0]
                assert np.max(np.abs(amap.values[i : i + 2, j : j + 2] - score)) < 1e-12

    @pytest.mark.parametrize("per_channel", [False, True])
    def test_equals_a_plain_pass_per_variant_byte_for_byte(self, per_channel):
        # Scores from plain forward passes over every occluded variant and
        # then the clean image, in MAP_BATCH chunks, as occlusion computed
        # them before it reused the clean image's rows.
        m = random_cnn(seed=8, input_shape=(2, 32, 32), channels=(8, 16), head="gap")
        x = rand_image(8, (2, 32, 32))
        cfg = OcclusionConfig(patch_h=6, patch_w=4, stride_h=3, stride_w=2, per_channel=per_channel)
        positions = _occlusion_grid(x.shape, cfg)
        variants = []
        for i, j in positions:
            for ch in ([0, 1] if per_channel else [slice(None)]):
                occ = x.array.copy()
                occ[ch, i : i + cfg.patch_h, j : j + cfg.patch_w] = cfg.baseline_value
                variants.append(occ)
        n = len(variants)
        variants.append(x.array)
        logits = np.empty(len(variants))
        for start in range(0, len(variants), MAP_BATCH):
            chunk = np.stack(variants[start : start + MAP_BATCH])
            logits[start : start + len(chunk)] = forward_values(m, chunk)[:, 1]
        scores = (logits[-1] - logits[:n]).reshape(len(positions), -1).sum(axis=1)
        expect = covering_average(x.shape, positions, scores, cfg)
        assert occlusion(m, x, 1, cfg).values.tobytes() == expect.tobytes()

    def test_stride_one_map_runs_in_bounded_chunks_and_equals_plain_passes(self, monkeypatch):
        # A 2x2 patch at stride 1 on 64x64: 3,969 variants and the clean
        # image's box in one forward_values call, whose layers see passes of
        # at most OCCLUSION_BATCH images. The head has 2,048 features, past
        # the size where a plain 256-row GEMM takes another BLAS kernel than
        # a short one, and the unchanged patch at (0, 0) still scores exactly 0.
        m = random_cnn(seed=12, input_shape=(1, 64, 64), channels=(4, 8))
        img = rand_image(12, (1, 64, 64)).array.copy()
        img[:, :2, :2] = 0.0
        x = Tensor(img)
        cfg = OcclusionConfig(patch_h=2, patch_w=2, stride_h=1, stride_w=1)
        positions = _occlusion_grid(x.shape, cfg)
        assert len(positions) == 3969
        calls, batches = [], []

        def recorded(model, xb, **kwargs):
            calls.append((xb.copy(), kwargs.get("base")))
            return forward_values(model, xb, **kwargs)

        monkeypatch.setattr("fracmap.attribution.forward_values", recorded)
        spy_layer_forwards(monkeypatch, m, batches)
        amap = occlusion(m, x, 0, cfg)
        monkeypatch.undo()
        assert len(calls) == 1
        assert max(n for _, n in batches) == OCCLUSION_BATCH
        assert amap.values[0, 0] == 0.0
        # The last box writes the clean image's own pixels back.
        (boxes, (base, rows, cols)), = calls
        assert (rows[-1], cols[-1]) == (0, 0) and boxes[-1].tobytes() == img[:, :2, :2].tobytes()
        # The plain-pass oracle: the full images of every variant, in passes
        # of OCCLUSION_BATCH, and the clean image, evaluated without a base.
        boxes, rows, cols = boxes[:-1], rows[:-1], cols[:-1]
        logits = [
            forward_values(m, write_boxes(base, boxes[part], rows[part], cols[part]))[:, 0]
            for part in (slice(s, s + OCCLUSION_BATCH) for s in range(0, len(boxes), OCCLUSION_BATCH))
        ]
        scores = forward_values(m, img)[0] - np.concatenate(logits)
        assert amap.values.tobytes() == covering_average(x.shape, positions, scores, cfg).tobytes()

    @pytest.mark.parametrize("channels, per_channel", [(1, False), (3, False), (3, True)])
    def test_patch_that_changes_no_pixel_scores_exactly_zero(self, channels, per_channel):
        # The top-left 8x8 block already holds the baseline value, so the
        # patch at (0, 0), the only one covering pixel (0, 0), changes
        # nothing. A clean logit from a batch of one scored it about 1e-16.
        m = tiny_cnn(1, input_shape=(channels, 64, 64))
        img = np.random.default_rng(0).random((channels, 64, 64))
        img[:, :8, :8] = 0.0
        for c in (0, 1):
            amap = occlusion(m, Tensor(img), c, OcclusionConfig(per_channel=per_channel))
            assert amap.values[0, 0] == 0.0

    def test_per_channel_sum_matches_joint_for_linear_model(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 2 * 16))
        m = linear_model(w, (2, 4, 4))
        x = rand_image(5, (2, 4, 4))
        joint = occlusion(m, x, 0, self.CFG)
        summed = occlusion(
            m,
            x,
            0,
            OcclusionConfig(patch_h=2, patch_w=2, stride_h=2, stride_w=2, per_channel=True),
        )
        assert np.allclose(joint.values, summed.values, rtol=1e-10, atol=1e-12)

    def test_patch_larger_than_image_rejected(self):
        m = linear_model(np.zeros((2, 16)), (1, 4, 4))
        with pytest.raises(ValueError, match="larger than image"):
            occlusion(m, rand_image(6, (1, 4, 4)), 0, OcclusionConfig(patch_h=5, patch_w=5))

    def test_covering_average_on_overlapping_patches(self):
        # stride 1 with a 3x3 patch: the center pixel of a 4x4 image is
        # covered by all four positions, corners by exactly one
        rng = np.random.default_rng(7)
        w = rng.normal(size=(2, 16))
        m = linear_model(w, (1, 4, 4))
        x = rand_image(7, (1, 4, 4))
        cfg = OcclusionConfig(patch_h=3, patch_w=3, stride_h=1, stride_w=1, baseline_value=0.0)
        amap = occlusion(m, x, 0, cfg)
        base = forward_values(m, x.array)[0]
        scores = {}
        for i in (0, 1):
            for j in (0, 1):
                occ = x.array.copy()
                occ[:, i : i + 3, j : j + 3] = 0.0
                scores[(i, j)] = base - forward_values(m, occ)[0]
        assert np.isclose(amap.values[0, 0], scores[(0, 0)])
        assert np.isclose(amap.values[1, 1], np.mean(list(scores.values())))


# On a 12x10 image: stride above the patch, stride 1, the patch equal to
# the image, and a non-square patch.
COVERING_CFGS = [
    OcclusionConfig(patch_h=3, patch_w=3, stride_h=5, stride_w=4),
    OcclusionConfig(patch_h=4, patch_w=4, stride_h=1, stride_w=1),
    OcclusionConfig(patch_h=12, patch_w=10, stride_h=2, stride_w=3),
    OcclusionConfig(patch_h=2, patch_w=5, stride_h=2, stride_w=3),
]
COVERING_IDS = ["gaps", "stride_1", "whole_image", "non_square"]


class TestCoveringAverage:
    """``_upsample_covering`` sums by bincount; the bytes are the position loop's."""

    SHAPE = (1, 12, 10)

    @pytest.mark.parametrize("cfg", COVERING_CFGS, ids=COVERING_IDS)
    def test_equals_the_position_loop_on_random_grids(self, cfg):
        positions = _occlusion_grid(self.SHAPE, cfg)
        rng = np.random.default_rng(30)
        for _ in range(50):
            # Magnitudes from 1e-3 to 1e3, some exact zeros of either sign,
            # so that a different summation order would show in the bytes.
            scores = rng.normal(size=len(positions)) * 10.0 ** rng.integers(-3, 4, len(positions))
            scores[rng.random(len(positions)) < 0.1] = rng.choice([0.0, -0.0])
            expect = covering_average(self.SHAPE, positions, scores, cfg)
            assert _upsample_covering(self.SHAPE, scores, cfg).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("cfg", COVERING_CFGS, ids=COVERING_IDS)
    @pytest.mark.parametrize("method", [occlusion, occlusion_linearized])
    def test_maps_equal_the_position_loop_over_their_scores(self, monkeypatch, method, cfg):
        m = random_cnn(seed=31, input_shape=self.SHAPE, channels=(3,))
        x = rand_image(31, self.SHAPE)
        grids = []

        def recorded(shape, scores, cfg):
            grids.append(np.array(scores, dtype=np.float64))
            return _upsample_covering(shape, scores, cfg)

        monkeypatch.setattr("fracmap.attribution._upsample_covering", recorded)
        amap = method(m, x, 1, cfg)
        expect = covering_average(self.SHAPE, _occlusion_grid(self.SHAPE, cfg), grids[0], cfg)
        assert amap.values.tobytes() == expect.tobytes()


class TestOcclusionLinearized:
    CFG = OcclusionConfig(patch_h=2, patch_w=2, stride_h=2, stride_w=2, baseline_value=0.0)

    def test_exact_for_linear_models(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 36))
        m = linear_model(w, (1, 6, 6))
        x = rand_image(8, (1, 6, 6))
        a = occlusion(m, x, 0, self.CFG)
        b = occlusion_linearized(m, x, 0, self.CFG)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_constant_model_gives_zero_map(self):
        m = linear_model(np.zeros((2, 16)), (1, 4, 4))
        amap = occlusion_linearized(m, rand_image(9, (1, 4, 4)), 0, self.CFG)
        assert np.array_equal(amap.values, np.zeros((4, 4)))

    def test_first_order_accurate_for_tiny_perturbations(self, quick_model):
        # 1x1 patch whose replacement moves one pixel by 1e-3: inside one
        # linear region of the piecewise-linear net both routes coincide
        # (continuous random input; quantized images carry exact pool ties)
        x = rand_image(500, quick_model.input_shape)
        px, py = 30, 30
        value = float(x.array[0, py, px])
        cfg = OcclusionConfig(
            patch_h=1, patch_w=1, stride_h=1, stride_w=1, baseline_value=max(0.0, value - 1e-3)
        )
        a = occlusion(quick_model, x, 0, cfg)
        b = occlusion_linearized(quick_model, x, 0, cfg)
        assert abs(a.values[py, px] - b.values[py, px]) < 1e-6


class TestDeepLift:
    def test_linear_model_contributions_are_weight_times_delta(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(2, 12))
        m = linear_model(w, (1, 3, 4))
        x = rand_image(10, (1, 3, 4))
        ref = rand_image(11, (1, 3, 4))
        contrib = deeplift_contributions(m, x, 0, ref)
        assert np.array_equal(
            contrib, (w[0].reshape(1, 3, 4) * (x.array - ref.array))
        )

    def test_reference_equal_to_input_gives_zero_map(self, quick_model):
        x = rand_image(12, quick_model.input_shape)
        amap = deeplift(quick_model, x, 0, x)
        assert np.array_equal(amap.values, np.zeros(amap.shape))

    def test_summation_to_delta_on_varied_models(self):
        cases = [
            random_cnn(seed=50, channels=(3,), pool=True),
            random_cnn(seed=51, channels=(2, 3), pool=True, padding="valid", input_shape=(1, 14, 14)),
            random_cnn(seed=52, channels=(4,), pool=False, head="gap"),
            random_cnn(seed=53, input_shape=(3, 8, 8), channels=(3,)),
        ]
        for k, m in enumerate(cases):
            x = rand_image(60 + k, m.input_shape)
            ref = zeros_like_input(m)
            contrib = deeplift_contributions(m, x, 1, ref)
            delta = forward_values(m, x.array)[1] - forward_values(m, ref.array)[1]
            assert abs(contrib.sum() - delta) < 1e-8

    def test_summation_to_delta_with_nonzero_reference(self, quick_model):
        x = rand_image(13, quick_model.input_shape)
        ref = rand_image(14, quick_model.input_shape)
        contrib = deeplift_contributions(quick_model, x, 0, ref)
        delta = forward_values(quick_model, x.array)[0] - forward_values(quick_model, ref.array)[0]
        assert abs(contrib.sum() - delta) < 1e-8

    def test_channel_reduction_takes_max_absolute(self):
        m = linear_model(np.array([[-3.0, 1.0, 2.0], [0.0, 0.0, 0.0]]), (3, 1, 1))
        x = Tensor(np.ones((3, 1, 1)))
        amap = deeplift(m, x, 0, zeros_like_input(m))
        assert amap.values[0, 0] == 3.0
        assert amap.values.min() >= 0.0

    def test_shape_mismatch_rejected(self, quick_model):
        x = rand_image(15, quick_model.input_shape)
        with pytest.raises(ValueError, match="reference shape"):
            deeplift(quick_model, x, 0, Tensor(np.zeros((1, 2, 2))))


class TestIntegratedGradients:
    def test_exact_for_linear_models_at_any_step_count(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(2, 12))
        m = linear_model(w, (1, 3, 4))
        x = rand_image(16, (1, 3, 4))
        base = zeros_like_input(m)
        expect = w[0].reshape(1, 3, 4) * x.array
        one = ig_attributions(m, x, 0, PathConfig(baseline=base, n_steps=1))
        assert np.array_equal(one, expect)
        for n in (3, 20):
            attr = ig_attributions(m, x, 0, PathConfig(baseline=base, n_steps=n))
            assert np.allclose(attr, expect, rtol=1e-12, atol=1e-15)

    def test_ignored_coordinate_gets_zero_attribution(self):
        w = np.ones((2, 9))
        w[:, 4] = 0.0
        m = linear_model(w, (1, 3, 3))
        attr = ig_attributions(m, rand_image(17, (1, 3, 3)), 0, PathConfig(baseline=zeros_like_input(m)))
        assert attr.reshape(-1)[4] == 0.0

    def test_baseline_equal_to_input_gives_zero_map(self, quick_model):
        x = rand_image(18, quick_model.input_shape)
        amap = integrated_gradients(quick_model, x, 0, PathConfig(baseline=x, n_steps=4))
        assert np.array_equal(amap.values, np.zeros(amap.shape))

    def test_completeness_residual_small_at_256_steps(self, quick_model, quick_dataset):
        # midpoint-rule error is O(1/n) for piecewise-linear nets but not
        # monotone between specific step counts, so assert the bound only
        x = quick_dataset.images[quick_dataset.split_indices("test")[0]]
        base = zeros_like_input(quick_model)
        delta = (
            forward_values(quick_model, x.array)[0] - forward_values(quick_model, base.array)[0]
        )
        attr = ig_attributions(quick_model, x, 0, PathConfig(baseline=base, n_steps=256))
        assert abs(attr.sum() - delta) < 0.02 * abs(delta)

    # 70 steps make one pass of MAP_BATCH points, split, and one of 6, not.
    @pytest.mark.parametrize("n_steps", [20, 70])
    def test_split_passes_equal_one_pass(self, quick_model, quick_dataset, n_steps):
        x = quick_dataset.images[quick_dataset.split_indices("test")[1]]
        base = rand_image(20, quick_model.input_shape)
        diff = x.array - base.array
        alphas = (np.arange(n_steps) + 0.5) / n_steps
        grad_sum = np.zeros_like(diff)
        for start in range(0, n_steps, MAP_BATCH):
            pts = base.array[None] + alphas[start : start + MAP_BATCH, None, None, None] * diff[None]
            logits, tape = forward_batch(quick_model, pts)
            seed = np.zeros_like(logits)
            seed[:, 1] = 1.0
            grad_sum += backward_batch(tape, seed)[0].sum(axis=0)
        expect = diff * (grad_sum / n_steps)
        attr = ig_attributions(quick_model, x, 1, PathConfig(baseline=base, n_steps=n_steps))
        assert attr.tobytes() == expect.tobytes()

    def test_small_pass_runs_on_the_calling_thread(self, quick_model, monkeypatch):
        threads = []

        def recorded(model, xb):
            threads.append((threading.get_ident(), len(xb)))
            return forward_batch(model, xb)

        monkeypatch.setattr("fracmap.autodiff.forward_batch", recorded)
        x = rand_image(21, quick_model.input_shape)
        ig_attributions(quick_model, x, 0, PathConfig(baseline=zeros_like_input(quick_model), n_steps=15))
        assert threads == [(threading.get_ident(), 15)]

    def test_channel_reduction_takes_max_absolute(self):
        m = linear_model(np.array([[-3.0, 1.0, 2.0], [0.0, 0.0, 0.0]]), (3, 1, 1))
        amap = integrated_gradients(
            m, Tensor(np.ones((3, 1, 1))), 0, PathConfig(baseline=zeros_like_input(m))
        )
        assert amap.values[0, 0] == 3.0

    def test_invalid_config_rejected(self, quick_model):
        x = rand_image(19, quick_model.input_shape)
        with pytest.raises(ValueError, match="n_steps"):
            PathConfig(baseline=x, n_steps=0)
        with pytest.raises(ValueError, match="baseline shape"):
            integrated_gradients(quick_model, x, 0, PathConfig(baseline=Tensor(np.zeros((1, 2, 2)))))


def make_map(values):
    return AttributionMap(values=values, method="saliency", target_class=0, config_digest="t")


class TestNormalize:
    def test_simple_rescale(self):
        amap = normalize(make_map(np.array([[2.0, 4.0, 6.0]])))
        assert np.array_equal(amap.values, [[0.0, 0.5, 1.0]])
        assert not amap.degenerate

    def test_constant_map_flagged_degenerate(self):
        amap = normalize(make_map(np.full((2, 2), 3.3)))
        assert amap.degenerate
        assert np.array_equal(amap.values, np.zeros((2, 2)))

    def test_idempotent_on_nondegenerate_maps(self):
        rng = np.random.default_rng(20)
        amap = normalize(make_map(rng.normal(size=(5, 5))))
        again = normalize(amap)
        assert np.array_equal(again.values, amap.values)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=36).filter(
            lambda v: len(set(v)) > 1
        )
    )
    def test_normalization_preserves_score_order(self, values):
        # integer-valued grids keep the affine rescale collision-free in
        # float64, so the full ordering (ties included) must be preserved
        raw = np.array(values, dtype=np.float64).reshape(1, -1)
        norm = normalize(make_map(raw))
        assert np.array_equal(np.argsort(raw[0], kind="stable"), np.argsort(norm.values[0], kind="stable"))
        for i in range(len(values)):
            for j in range(i):
                same_before = raw[0, i] == raw[0, j]
                same_after = norm.values[0, i] == norm.values[0, j]
                assert same_before == same_after


class TestMeanBaseline:
    def test_per_channel_mean_of_the_train_split(self):
        ds = generate_dataset(seed=8, n=10, cfg=SynthConfig(height=16, width=16, channels=3))
        train = np.stack([ds.images[i].array for i in ds.split_indices("train")])
        base = mean_baseline(ds).array
        assert base.shape == (3, 16, 16)
        for ch in range(3):
            np.testing.assert_allclose(base[ch], np.mean(train[:, ch]), rtol=1e-12)
        assert len(set(base[:, 0, 0])) == 3  # channel gains differ


class TestHeatmapExport:
    def test_pgm_round_trip_within_quantization_error(self, tmp_path, quick_model, quick_dataset):
        amap = saliency(quick_model, quick_dataset.images[0], 0)
        pgm = tmp_path / "m.pgm"
        sidecar = tmp_path / "m.txt"
        write_heatmap(amap, pgm, sidecar, extra={"seed": 11})
        back = read_pgm(pgm) / 255.0
        assert np.max(np.abs(back - normalize(amap).values)) <= 1.0 / 255
        text = sidecar.read_text()
        assert "method=saliency" in text
        assert "config_digest=" in text and "min=" in text and "max=" in text
        assert "seed=11" in text


class TestConfigDigest:
    """The digests that heatmap sidecars, PGM comments and coverage cells record."""

    CUSTOM = OcclusionConfig(
        patch_h=6, patch_w=4, stride_h=3, stride_w=2, baseline_value=0.25, per_channel=True
    )

    def test_every_builder_writes_its_pinned_digest(self):
        m = random_cnn(seed=70, input_shape=(2, 8, 8))
        x, ref = rand_image(70, m.input_shape), rand_image(71, m.input_shape)
        zero = zeros_like_input(m)
        occ = "patch=8x8;stride=4x4;baseline=0.0;per_channel=0"
        occ_custom = "patch=6x4;stride=3x2;baseline=0.25;per_channel=1"
        digests = [
            (saliency(m, x, 1), "method=saliency;class=1"),
            (occlusion(m, x, 1, OcclusionConfig()), f"method=occlusion;{occ};class=1"),
            (occlusion(m, x, 0, self.CUSTOM), f"method=occlusion;{occ_custom};class=0"),
            (
                occlusion_linearized(m, x, 1, OcclusionConfig()),
                f"method=occlusion_linearized;{occ};class=1",
            ),
            (
                occlusion_linearized(m, x, 0, self.CUSTOM),
                f"method=occlusion_linearized;{occ_custom};class=0",
            ),
            (deeplift(m, x, 1, zero), "method=deeplift;reference=zero;class=1"),
            (deeplift(m, x, 0, ref), "method=deeplift;reference=custom;class=0"),
            (
                integrated_gradients(m, x, 1, PathConfig(zero)),
                "method=integrated_gradients;steps=20;baseline=zero;class=1",
            ),
            (
                integrated_gradients(m, x, 0, PathConfig(ref, n_steps=3)),
                "method=integrated_gradients;steps=3;baseline=custom;class=0",
            ),
        ]
        for amap, digest in digests:
            assert amap.config_digest == digest
            assert digest.startswith(f"method={amap.method};")
            assert digest.endswith(f";class={amap.target_class}")
