"""Percentile masks, point coverage, and the aggregated coverage table."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmap.attribution import AttributionMap, MapError, OcclusionConfig, normalize, saliency
from fracmap.coverage import (
    CoverageRow,
    coverage_table,
    nearest_rank_percentile,
    point_coverage,
    threshold_mask,
    write_csv,
)
from fracmap.model import ModelError, tiny_cnn
from fracmap.synth import (
    AnnotationEntry,
    AnnotationSet,
    generate_dataset,
    load_annotations,
    save_annotations,
)
from fracmap.train import TrainConfig, train

from conftest import SMALL_CFG


def make_map(values):
    return AttributionMap(
        values=np.asarray(values, dtype=np.float64),
        method="saliency",
        target_class=0,
        config_digest="t",
    )


def oracle_percentile(values, nu):
    """Glossary definition: smallest sample with at least nu% of samples <= it."""
    flat = sorted(np.asarray(values, dtype=np.float64).reshape(-1))
    n = len(flat)
    for v in flat:
        if 100.0 * sum(1 for u in flat if u <= v) / n >= nu:
            return v
    return flat[-1]


class TestThresholdMask:
    def test_zero_percentile_keeps_everything(self):
        mask = threshold_mask(make_map([[5.0, -1.0], [2.0, 0.0]]), 0)
        assert mask.values.all()

    def test_four_values_at_fifty(self):
        mask = threshold_mask(make_map([[1.0, 2.0], [3.0, 4.0]]), 50)
        assert np.array_equal(mask.values, [[False, True], [True, True]])

    def test_constant_map_is_all_true(self):
        mask = threshold_mask(make_map(np.full((3, 3), 7.0)), 95)
        assert mask.values.all()

    def test_out_of_range_percentile_rejected(self):
        amap = make_map([[1.0, 2.0]])
        for nu in (-1, 101):
            with pytest.raises(ValueError, match="0, 100"):
                threshold_mask(amap, nu)

    def test_degenerate_normalized_map_rejected_above_zero(self):
        degen = normalize(make_map(np.full((2, 2), 3.0)))
        with pytest.raises(ValueError, match="degenerate"):
            threshold_mask(degen, 95)
        assert threshold_mask(degen, 0).values.all()

    def test_mask_records_source_digest_and_percentile(self):
        mask = threshold_mask(make_map([[1.0, 2.0]]), 50)
        assert mask.percentile == 50.0
        assert mask.source_digest == "t"

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=64,
        ),
        st.integers(0, 100),
    )
    def test_agrees_with_sort_and_cut_oracle(self, values, nu):
        amap = make_map(np.array(values).reshape(1, -1))
        mask = threshold_mask(amap, nu)
        expect = amap.values >= oracle_percentile(values, nu)
        assert np.array_equal(mask.values, expect)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=36),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    def test_mask_nesting(self, values, nu_a, nu_b):
        lo, hi = sorted((nu_a, nu_b))
        amap = make_map(np.array(values).reshape(1, -1))
        inner = threshold_mask(amap, hi).values
        outer = threshold_mask(amap, lo).values
        assert not np.any(inner & ~outer)  # stricter mask is a subset

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-(2**20), 2**20), min_size=2, max_size=36).filter(
            lambda v: len(set(v)) > 1
        ),
        st.integers(0, 100),
    )
    def test_threshold_commutes_with_normalization(self, values, nu):
        raw = make_map(np.array(values, dtype=np.float64).reshape(1, -1))
        assert np.array_equal(
            threshold_mask(raw, nu).values, threshold_mask(normalize(raw), nu).values
        )

    def test_nearest_rank_is_integer_exact(self):
        # 55% of 20 samples needs the 11th order statistic, not the 12th
        values = np.arange(1.0, 21.0)
        assert nearest_rank_percentile(values, 55) == 11.0


class TestPointCoverage:
    MASK = threshold_mask(make_map([[1.0, 2.0], [3.0, 4.0]]), 50)  # covers all but (0,0)

    def test_all_points_inside(self):
        entry = AnnotationEntry("img", ((1, 0), (0, 1), (1, 1)))
        assert point_coverage(self.MASK, entry) == 1.0

    def test_no_points_inside(self):
        entry = AnnotationEntry("img", ((0, 0),))
        assert point_coverage(self.MASK, entry) == 0.0

    def test_three_of_four(self):
        entry = AnnotationEntry("img", ((0, 0), (1, 0), (0, 1), (1, 1)))
        assert point_coverage(self.MASK, entry) == 0.75

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            point_coverage(self.MASK, AnnotationEntry("img", ()))

    def test_out_of_bounds_point_names_image(self):
        with pytest.raises(ValueError, match="img_0042"):
            point_coverage(self.MASK, AnnotationEntry("img_0042", ((5, 0),)))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnnotationEntry("img", ((1, 1), (1, 1)))


class TestAnnotationsIO:
    def test_round_trip(self, tmp_path):
        ann = AnnotationSet(entries={"img_0000": ((3, 4), (5, 6)), "img_0002": ((1, 1),)})
        path = tmp_path / "ann.json"
        save_annotations(ann, path, meta={"seed": 7})
        back = load_annotations(path)
        assert back.entries == ann.entries
        assert "seed" in path.read_text()


@pytest.fixture(scope="module")
def table_setup():
    ds = generate_dataset(seed=19, n=30, cfg=SMALL_CFG)
    model = train(
        tiny_cnn(seed=19, input_shape=(1, 32, 32)), ds, TrainConfig(epochs=2, seed=19)
    ).model
    return ds, model


class TestCoverageTable:
    def test_complete_row_set_and_bounds(self, table_setup):
        ds, model = table_setup
        report = coverage_table(
            {"m1": model, "m2": model},
            ["saliency", "deeplift"],
            [15, 75, 85, 95],
            ds,
            occlusion_cfg=OcclusionConfig(patch_h=4, patch_w=4),
        )
        assert len(report.rows) == 2 * 2 * 4
        for row in report.rows:
            assert row.coverage is not None
            assert 0.0 <= row.coverage <= 100.0

    def test_coverage_nonincreasing_in_percentile(self, table_setup):
        ds, model = table_setup
        report = coverage_table({"m": model}, ["saliency"], [15, 75, 85, 95], ds)
        values = [row.coverage for row in report.rows]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_percentile_row_is_exactly_hundred(self, table_setup):
        ds, model = table_setup
        report = coverage_table({"m": model}, ["saliency"], [0], ds)
        assert report.rows[0].coverage == 100.0
        assert report.rows[0].formatted() == "100.00"

    def test_incomputable_cell_becomes_na_with_reason(self, table_setup):
        ds, model = table_setup
        report = coverage_table(
            {"m": model},
            ["occlusion"],
            [15, 95],
            ds,
            occlusion_cfg=OcclusionConfig(patch_h=128, patch_w=128),
        )
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.coverage is None
            assert "larger than image" in row.reason
            assert row.formatted().startswith("N/A:")

    @pytest.mark.parametrize("method", ["saliency", "occlusion", "deeplift", "integrated_gradients"])
    def test_model_input_mismatch_raises_instead_of_na(self, table_setup, method):
        ds, _ = table_setup
        wrong = tiny_cnn(seed=19, input_shape=(1, 64, 64))  # corpus images are 1x32x32
        with pytest.raises(ModelError, match="input shape"):
            coverage_table({"m": wrong}, [method], [15], ds)

    def test_empty_percentile_list_rejected(self, table_setup):
        # An empty list would compute every map and then return no rows.
        ds, model = table_setup
        with pytest.raises(ValueError, match="percentile list is empty"):
            coverage_table({"m": model}, ["saliency"], [], ds)

    def test_unknown_method_rejected(self, table_setup):
        ds, model = table_setup
        with pytest.raises(ValueError, match="gradcam"):
            coverage_table({"m": model}, ["gradcam"], [15], ds)

    @pytest.mark.parametrize(
        "methods, percentiles, problem",
        [
            ([], [15], "the method list is empty"),
            (["saliency", "deeplift", "saliency"], [15], "method 'saliency' is repeated"),
            (["saliency"], [15, 85, 15.0], "percentile 15.0 is repeated"),
        ],
        ids=["no-methods", "repeated-method", "repeated-percentile"],
    )
    def test_empty_or_repeated_lists_rejected(self, table_setup, methods, percentiles, problem):
        # Either would give a table with no rows or with identical rows.
        ds, model = table_setup
        with pytest.raises(ValueError, match=problem):
            coverage_table({"m": model}, methods, percentiles, ds)

    def test_a_plain_value_error_inside_a_map_propagates(self, table_setup, monkeypatch):
        # numpy's broadcast errors are ValueErrors: only a MapError may read as N/A.
        ds, model = table_setup

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("fracmap.attribution.forward_values", broken)
        with pytest.raises(ValueError, match="broadcast") as info:
            coverage_table({"m": model}, ["occlusion"], [85], ds)
        assert not isinstance(info.value, MapError)

    @pytest.mark.parametrize("method", ["saliency", "occlusion", "deeplift", "integrated_gradients"])
    def test_dead_model_cell_is_na_not_full_coverage(self, table_setup, method):
        ds, _ = table_setup
        m = tiny_cnn(seed=19, input_shape=(1, 32, 32))
        dead = m.with_params(
            {k: np.zeros_like(v) if k.endswith(".weight") else v for k, v in m.params.items()}
        )
        report = coverage_table({"dead": dead}, [method], [85, 95], ds)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.coverage is None
            assert row.formatted().startswith("N/A:constant map for img_")

    def test_maps_explain_class_zero_whatever_its_name(self, table_setup):
        # fracmap attribute explains class 0 by default; the table must score
        # those maps even when the classes are named the other way round.
        # Class 1's logit is constant here, so its maps would read N/A.
        ds, _ = table_setup
        swapped = ("healthy", "fractured")
        ds = dataclasses.replace(ds, class_names=swapped)
        m = tiny_cnn(seed=23, input_shape=(1, 32, 32), class_names=swapped)
        weight = m.params["head.weight"].copy()
        weight[1] = 0.0
        model = m.with_params({**m.params, "head.weight": weight})
        report = coverage_table({"m": model}, ["saliency"], [85], ds)
        annotated = [i for i in ds.split_indices("test") if ds.ids[i] in ds.annotations]
        masks = [threshold_mask(saliency(model, ds.images[i], 0), 85) for i in annotated]
        entries = [ds.annotations.get(ds.ids[i]) for i in annotated]
        assert report.rows[0].coverage == 100.0 * float(np.mean(list(map(point_coverage, masks, entries))))

    def test_two_decimal_formatting_matches_report_shape(self):
        row = CoverageRow("m", "integrated_gradients", 95.0, 29.114999, None)
        assert row.formatted() == "29.11"

    def test_csv_output(self, table_setup, tmp_path):
        ds, model = table_setup
        report = coverage_table({"m": model}, ["saliency"], [15, 95], ds)
        path = tmp_path / "cov.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,method,percentile,coverage"
        assert len(lines) == 3
        assert lines[1].startswith("m,saliency,15,")


def test_write_csv_puts_sorted_provenance_before_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, "a,b", ["1,2", "3,4"], {"seed": 5, "config": "x=1"})
    assert path.read_text() == "# config=x=1\n# seed=5\na,b\n1,2\n3,4\n"
