"""Synthetic corpus generation, its invariants, and the on-disk formats."""

import dataclasses
import json

import numpy as np
import pytest

from fracmap.pgm import read_pgm, to_bytes_gray, to_unit, write_pgm
from fracmap.synth import (
    FRACTURED,
    HEALTHY,
    AnnotationSet,
    SynthConfig,
    generate_dataset,
    load_dataset,
    render_sample,
    save_dataset,
)

from conftest import SMALL_CFG


class TestGenerate:
    def test_balanced_classes(self):
        ds = generate_dataset(seed=42, n=10, cfg=SMALL_CFG)
        assert sum(1 for y in ds.labels if y == FRACTURED) == 5
        assert sum(1 for y in ds.labels if y == HEALTHY) == 5

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            generate_dataset(seed=1, n=9)

    def test_deterministic_in_seed(self):
        a = generate_dataset(seed=42, n=12, cfg=SMALL_CFG)
        b = generate_dataset(seed=42, n=12, cfg=SMALL_CFG)
        assert all(np.array_equal(x.array, y.array) for x, y in zip(a.images, b.images))
        assert a.annotations.entries == b.annotations.entries
        assert a.labels == b.labels and a.split == b.split
        c = generate_dataset(seed=43, n=12, cfg=SMALL_CFG)
        assert any(not np.array_equal(x.array, y.array) for x, y in zip(a.images, c.images))

    def test_pixels_in_unit_range(self):
        ds = generate_dataset(seed=3, n=8, cfg=SMALL_CFG)
        for img in ds.images:
            assert img.array.min() >= 0.0 and img.array.max() <= 1.0

    def test_split_sizes_preserve_default_ratio(self):
        ds = generate_dataset(seed=4, n=40, cfg=SMALL_CFG)
        assert len(ds.split_indices("train")) == 32
        assert len(ds.split_indices("val")) == 4
        assert len(ds.split_indices("test")) == 4
        for split in ("train", "val", "test"):
            labels = [ds.labels[i] for i in ds.split_indices(split)]
            assert labels.count(FRACTURED) == labels.count(HEALTHY)

    def test_annotations_only_on_fractured_images(self):
        ds = generate_dataset(seed=5, n=16, cfg=SMALL_CFG)
        for image_id, label in zip(ds.ids, ds.labels):
            if label == FRACTURED:
                assert len(ds.annotations.get(image_id).points) >= 1
            else:
                assert image_id not in ds.annotations

    def test_annotation_points_sit_on_darkened_crack_pixels(self):
        for i in range(6):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((99, i))))
            sample = render_sample(rng, SynthConfig(), fractured=True)
            assert sample.points
            for x, y in sample.points:
                assert sample.image[y, x] < sample.pre_crack[y, x]

    def test_annotation_points_within_bounds_and_unique(self):
        ds = generate_dataset(seed=6, n=20, cfg=SMALL_CFG)
        for image_id in ds.annotations.entries:
            pts = ds.annotations.get(image_id).points
            assert len(set(pts)) == len(pts)
            for x, y in pts:
                assert 0 <= x < SMALL_CFG.width and 0 <= y < SMALL_CFG.height

    def test_three_channel_emission(self):
        cfg = SynthConfig(height=32, width=32, channels=3)
        ds = generate_dataset(seed=7, n=4, cfg=cfg)
        img = ds.images[0].array
        assert img.shape == (3, 32, 32)
        assert not np.array_equal(img[0], img[2])  # channel gains differ
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestDiskFormat:
    def test_save_load_round_trip_is_exact(self, tmp_path):
        ds = generate_dataset(seed=8, n=10, cfg=SMALL_CFG)
        manifest, _ = save_dataset(ds, tmp_path)
        back = load_dataset(manifest)
        assert back.labels == ds.labels and back.split == ds.split and back.ids == ds.ids
        assert back.annotations.entries == ds.annotations.entries
        assert back.seed == ds.seed
        for a, b in zip(ds.images, back.images):
            assert np.array_equal(a.array, b.array)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("label=fractured", "label=broken", "label='broken'"),
            (" id=img_0001", "", "id= field"),
            (" label=healthy", "", "label= field"),
            (" split=train", "", "split= field"),
            (" split=train", " train", "key=value"),
            (" split=train", " split=tset", "split='tset'"),
        ],
    )
    def test_malformed_image_row_names_manifest_line_and_field(self, tmp_path, old, new, named):
        ds = generate_dataset(seed=8, n=4, cfg=SMALL_CFG)
        manifest, _ = save_dataset(ds, tmp_path)
        lines = manifest.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("image=") and old in l)
        lines[row] = lines[row].replace(old, new, 1)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert str(manifest) in message and f"line {row + 1}" in message and named in message

    def test_image_of_another_shape_names_image_and_shapes(self, tmp_path):
        ds = generate_dataset(seed=8, n=4)  # 64x64
        manifest, _ = save_dataset(ds, tmp_path)
        write_pgm(tmp_path / "images" / "img_0002.pgm", np.zeros((32, 32), dtype=np.uint8))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert "'img_0002'" in message and "(1, 32, 32)" in message and "(1, 64, 64)" in message

    def test_image_size_header_is_checked(self, tmp_path):
        manifest, _ = save_dataset(generate_dataset(seed=8, n=4, cfg=SMALL_CFG), tmp_path)
        manifest.write_text(manifest.read_text().replace("image_size=1x32x32", "image_size=1x64x64"))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert str(manifest) in message and "'img_0000'" in message
        assert "(1, 32, 32)" in message and "(1, 64, 64)" in message

    def test_duplicate_image_id_names_manifest_and_id(self, tmp_path):
        manifest, _ = save_dataset(generate_dataset(seed=8, n=4, cfg=SMALL_CFG), tmp_path)
        manifest.write_text(manifest.read_text().replace("id=img_0003", "id=img_0001"))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert str(manifest) in message and "'img_0001' appears more than once" in message

    def test_annotation_of_unknown_image_names_manifest_and_id(self, tmp_path):
        manifest, ann = save_dataset(generate_dataset(seed=8, n=4, cfg=SMALL_CFG), tmp_path)
        payload = json.loads(ann.read_text())
        payload["entries"]["img_9999"] = [[1, 1]]
        ann.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert str(manifest) in message and "'img_9999' is not in the dataset" in message

    @pytest.mark.parametrize(
        "file, text, named",
        [
            ("dataset.txt", None, "seed='eight'"),
            ("annotations.json", "{", "invalid JSON"),
            ("annotations.json", '{"meta": {}}', "'entries'"),
            ("annotations.json", '{"entries": {"img_0000": [[3, 4, 5]]}}', "'img_0000'"),
        ],
        ids=["seed", "annotations-json", "annotations-entries", "annotations-point"],
    )
    def test_malformed_file_is_named(self, tmp_path, file, text, named):
        manifest, _ = save_dataset(generate_dataset(seed=8, n=4, cfg=SMALL_CFG), tmp_path)
        path = tmp_path / file
        path.write_text(text or path.read_text().replace("seed=8", "seed=eight"))
        with pytest.raises(ValueError) as err:
            load_dataset(manifest)
        message = str(err.value)
        assert str(path) in message and named in message

    def test_manifest_lists_paths_labels_splits(self, tmp_path):
        ds = generate_dataset(seed=8, n=4, cfg=SMALL_CFG)
        manifest, ann = save_dataset(ds, tmp_path)
        text = manifest.read_text()
        assert "annotations=annotations.json" in text
        assert "image=images/img_0000.pgm id=img_0000 label=fractured split=train" in text
        assert ann.exists()

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        gray = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, gray, comment="seed=0 id=test")
        assert np.array_equal(read_pgm(path), gray)

    def test_unit_quantization_bounds(self):
        vals = np.linspace(0, 1, 97).reshape(1, 97)
        assert np.max(np.abs(to_unit(to_bytes_gray(vals)) - vals)) <= 0.5 / 255 + 1e-12

    def test_read_pgm_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    @pytest.mark.parametrize(
        "data, named",
        [
            (b"P5\n4 ", "header is truncated"),
            (b"P5\n4 x4\n255\n" + bytes(16), "b'x4'"),
            (b"P5\n0 4\n255\n", "b'0'"),
            (b"P5\n4 4\n255\n" + bytes(10), "payload is truncated"),
        ],
        ids=["short-header", "non-integer", "zero-width", "short-payload"],
    )
    def test_read_pgm_names_file(self, tmp_path, data, named):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(path) in str(err.value) and named in str(err.value)


class TestDatasetChecks:
    @pytest.fixture(scope="class")
    def ds(self):
        return generate_dataset(seed=8, n=4, cfg=SMALL_CFG)

    def test_unknown_annotation_id_rejected(self, ds):
        entries = {**ds.annotations.entries, "img_9999": ((1, 1),)}
        with pytest.raises(ValueError, match="annotated image 'img_9999' is not in the dataset"):
            dataclasses.replace(ds, annotations=AnnotationSet(entries=entries))

    def test_split_tag_outside_splits_rejected(self, ds):
        with pytest.raises(ValueError, match="image 'img_0000' has split 'tset'"):
            dataclasses.replace(ds, split=["tset"] + ds.split[1:])


class TestBatches:
    @pytest.fixture(scope="class")
    def ds(self):
        return generate_dataset(seed=8, n=10, cfg=SMALL_CFG)  # 8 train images

    def assert_batches(self, ds, batches, order, size):
        expected = [order[i : i + size] for i in range(0, len(order), size)]
        assert len(batches) == len(expected)
        for (xb, yb), chunk in zip(batches, expected):
            assert np.array_equal(xb, np.stack([ds.images[i].array for i in chunk]))
            assert yb.tolist() == [ds.labels[i] for i in chunk]

    def test_index_order_and_short_last_batch(self, ds):
        idx = ds.split_indices("train")
        batches = list(ds.batches("train", 3))
        assert [len(yb) for _, yb in batches] == [3, 3, 2]
        assert batches[0][0].shape == (3,) + ds.image_shape
        self.assert_batches(ds, batches, idx, 3)

    def test_rng_permutes_the_split_once(self, ds):
        idx = ds.split_indices("train")
        batches = list(ds.batches("train", 3, np.random.default_rng(4)))
        order = [idx[j] for j in np.random.default_rng(4).permutation(len(idx))]
        self.assert_batches(ds, batches, order, 3)

    def test_empty_split_rejected(self, ds):
        with pytest.raises(ValueError, match="split 'holdout' is empty"):
            next(ds.batches("holdout", 3))
