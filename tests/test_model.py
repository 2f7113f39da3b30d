"""Model construction, transfer helpers, and the MWF1 weight format."""

import hashlib
import struct

import numpy as np
import pytest

from fracmap.layers import LAYER_KINDS, Conv2d, Dense, Flatten, MaxPool2
from fracmap.model import (
    Model,
    ModelError,
    WeightFormatError,
    load_model,
    replace_head,
    save_model,
    tiny_cnn,
)
from fracmap.attack import AttackConfig, adv_accuracy
from fracmap.coverage import coverage_table
from fracmap.synth import generate_dataset
from fracmap.train import TrainConfig, adv_train, evaluate, train

from conftest import SMALL_CFG, frozen_backbone, random_cnn


class TestModelConstruction:
    def test_shape_chain_validated(self):
        layers = [Flatten(name="f"), Dense(name="head", in_features=5, out_features=2)]
        params = {"head.weight": np.zeros((2, 5)), "head.bias": np.zeros(2)}
        with pytest.raises(ModelError, match="head"):
            Model(layers, params, {}, (1, 2, 2), ("a", "b"))  # 4 features, head wants 5

    def test_head_must_be_dense(self):
        with pytest.raises(ModelError, match="dense head"):
            Model([Flatten(name="f")], {}, {}, (1, 2, 2), ("a", "b"))

    def test_class_names_match_head_width(self):
        layers = [Flatten(name="f"), Dense(name="head", in_features=4, out_features=2)]
        params = {"head.weight": np.zeros((2, 4)), "head.bias": np.zeros(2)}
        with pytest.raises(ModelError, match="class names"):
            Model(layers, params, {}, (1, 2, 2), ("a", "b", "c"))

    def test_a_trainable_standardize_parameter_is_rejected(self):
        # Standardize's backward has no parameter gradients to train with.
        m = tiny_cnn(seed=0, input_shape=(1, 16, 16))
        flags = dict(m.trainable, **{"stdz.std": True})
        with pytest.raises(ModelError, match="'stdz.std' cannot be trainable"):
            Model(m.layers, m.params, flags, m.input_shape, m.class_names)

    def test_models_are_immutable(self):
        m = random_cnn(seed=0)
        with pytest.raises(AttributeError):
            m.layers = ()
        with pytest.raises(ValueError):
            m.params["head.bias"][0] = 1.0


class TestCheckClasses:
    # Each caller that pairs a model with a dataset checks that both name the
    # same classes in the same order before any work.
    @pytest.mark.parametrize("names", [("a", "b", "c"), ("healthy", "fractured")])
    @pytest.mark.parametrize(
        "run",
        [
            lambda m, ds: train(m, ds, TrainConfig(epochs=1)),
            lambda m, ds: adv_train(m, ds, AttackConfig(), TrainConfig(epochs=1)),
            lambda m, ds: evaluate(m, ds, "test"),
            lambda m, ds: adv_accuracy(m, ds, "test", AttackConfig()),
            lambda m, ds: coverage_table({"m": m}, ["saliency"], [85], ds),
        ],
        ids=["train", "adv_train", "evaluate", "adv_accuracy", "coverage_table"],
    )
    def test_data_with_other_class_names_rejected(self, small_dataset, names, run):
        model = tiny_cnn(1, input_shape=small_dataset.image_shape, class_names=names)
        with pytest.raises(ModelError) as err:
            run(model, small_dataset)
        assert str(err.value) == f"model classes {names} do not match the data's ('fractured', 'healthy')"


class TestWeightFile(object):
    def test_round_trip_after_float32_quantization(self, tmp_path):
        m = tiny_cnn(seed=3, input_shape=(1, 16, 16))
        path = tmp_path / "m.mwf"
        save_model(m, path, meta={"seed": 3})
        loaded, meta = load_model(path)
        assert meta["seed"] == "3"
        assert loaded.layers == m.layers
        assert loaded.input_shape == m.input_shape
        assert loaded.class_names == m.class_names
        assert loaded.trainable == m.trainable
        for name, arr in m.params.items():
            assert np.array_equal(loaded.params[name], arr.astype("<f4").astype(np.float64))

    def test_every_layer_kind_round_trips(self, tmp_path):
        models = [
            random_cnn(seed=7, input_shape=(3, 10, 10), channels=(2, 3), padding="valid", head="gap"),
            random_cnn(seed=8),  # same padding and a flatten head
        ]
        covered = set()
        for i, m in enumerate(models):
            first, second = tmp_path / f"{i}a.mwf", tmp_path / f"{i}b.mwf"
            save_model(m, first)
            loaded, _ = load_model(first)
            assert loaded.layers == m.layers
            save_model(loaded, second)
            assert second.read_bytes() == first.read_bytes()
            covered |= {layer.kind for layer in loaded.layers}
        assert covered == set(LAYER_KINDS)

    def test_double_save_is_byte_identical(self, tmp_path):
        m = tiny_cnn(seed=4, input_shape=(1, 16, 16))
        p1, p2 = tmp_path / "a.mwf", tmp_path / "b.mwf"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_backbone_parameter_model_round_trips(self, tmp_path):
        layers = [
            MaxPool2(name="pool"),
            Flatten(name="f"),
            Dense(name="head", in_features=4, out_features=2),
        ]
        params = {"head.weight": np.arange(8.0).reshape(2, 4), "head.bias": np.zeros(2)}
        m = Model(layers, params, {}, (1, 4, 4), ("fractured", "healthy"))
        path = tmp_path / "p.mwf"
        save_model(m, path)
        loaded, _ = load_model(path)
        assert loaded.layers == m.layers
        assert np.array_equal(loaded.params["head.weight"], m.params["head.weight"])

    def test_conv_kernel_bytes_are_little_endian_row_major(self, tmp_path):
        kernel = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        layers = [
            Conv2d(name="c", in_channels=1, out_channels=1, kernel_h=3, kernel_w=3, padding="valid"),
            Flatten(name="f"),
            Dense(name="head", in_features=9, out_features=2),
        ]
        params = {
            "c.weight": kernel,
            "c.bias": np.zeros(1),
            "head.weight": np.zeros((2, 9)),
            "head.bias": np.zeros(2),
        }
        m = Model(layers, params, {}, (1, 5, 5), ("fractured", "healthy"))
        path = tmp_path / "c.mwf"
        save_model(m, path)
        raw = path.read_bytes()
        mlen = int.from_bytes(raw[4:8], "little")
        blob = raw[8 + mlen :]
        # c.weight is the first manifest entry, so the blob starts with the
        # kernel encoded as nine little-endian float32 values in row-major order
        assert blob[:36] == struct.pack("<9f", *range(1, 10))

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: tiny_cnn(0), "cdbe2ae69885b9dd59b33d1d2c0d9f54bc0f239a2b8efa94d6256a6dd4c89939"),
            (
                lambda: replace_head(tiny_cnn(0), 3, seed=1),
                "e493f2ab1d2b33a490f5bf72c4db139299b5447a01ba9fc7ebe7f22a83518189",
            ),
        ],
        ids=["tiny_cnn", "replace_head"],
    )
    def test_seeded_model_file_bytes_are_pinned(self, tmp_path, build, digest):
        # Uniform draws, sqrt and float32 rounding are exact, so these bytes
        # are the same on every platform.
        path = tmp_path / "m.mwf"
        save_model(build(), path, meta={"seed": 0})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mwf"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(WeightFormatError, match="magic"):
            load_model(path)

    def test_truncated_blob_rejected(self, tmp_path):
        m = tiny_cnn(seed=5, input_shape=(1, 16, 16))
        path = tmp_path / "t.mwf"
        save_model(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(WeightFormatError, match="truncated|mismatch"):
            load_model(path)

    def test_offset_inconsistency_rejected(self, tmp_path):
        m = tiny_cnn(seed=6, input_shape=(1, 16, 16))
        path = tmp_path / "o.mwf"
        save_model(m, path)
        raw = path.read_bytes()
        doctored = raw.replace(b"offset=0 ", b"offset=4 ", 1)
        assert len(doctored) == len(raw)
        path.write_bytes(doctored)
        with pytest.raises(WeightFormatError, match="offset"):
            load_model(path)


def _rewrite_manifest(path, edit):
    """Re-save an MWF1 file with ``edit`` applied to its manifest text."""
    raw = path.read_bytes()
    mlen = int.from_bytes(raw[4:8], "little")
    manifest = edit(raw[8 : 8 + mlen].decode("utf-8")).encode("utf-8")
    path.write_bytes(raw[:4] + len(manifest).to_bytes(4, "little") + manifest + raw[8 + mlen :])


class TestManifestFields:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.mwf"
        save_model(tiny_cnn(seed=7, input_shape=(1, 16, 16)), path)
        return path

    @pytest.mark.parametrize(
        "old, new, line, field",
        [
            (" out=2\n", "\n", "layer.11", "out"),  # dense head line without out=
            (" kh=3", "", "layer.1", "kh"),
            (" shape=8,1,3,3", "", "param.2", "shape"),
            ("shape=8 offset=", "shape=8 at=", "param.3", "offset"),
        ],
        ids=["dense-out", "conv-kh", "param-shape", "param-offset"],
    )
    def test_missing_field_names_file_line_and_field(self, saved, old, new, line, field):
        _rewrite_manifest(saved, lambda text: text.replace(old, new, 1))
        with pytest.raises(WeightFormatError) as err:
            load_model(saved)
        msg = str(err.value)
        assert str(saved) in msg and f"{line} lacks field {field!r}" in msg

    def test_missing_layer_line_named(self, saved):
        _rewrite_manifest(saved, lambda text: text.replace("layer.3=", "spare.3=", 1))
        with pytest.raises(WeightFormatError, match=r"lacks layer\.3"):
            load_model(saved)

    def test_token_without_equals_named(self, saved):
        _rewrite_manifest(saved, lambda text: text.replace(" kh=3", " kh", 1))
        with pytest.raises(WeightFormatError, match=r"layer\.1: token 'kh'"):
            load_model(saved)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("layer.3=", "layer.x=", "layer.x"),
            ("param.2=", "param.2b=", "param.2b"),
            ("input_shape=1,16,16", "input_shape=1,a,16", "input_shape"),
            ("classes=fractured,healthy", "classes=a,b,c", "describes no valid model"),
        ],
    )
    def test_bad_index_shape_or_model_named(self, saved, old, new, named):
        _rewrite_manifest(saved, lambda text: text.replace(old, new, 1))
        with pytest.raises(WeightFormatError) as err:
            load_model(saved)
        assert str(saved) in str(err.value) and named in str(err.value)

    def test_trainable_standardize_parameter_named(self, saved):
        def train_stdz_std(text):
            assert "param.1=stdz.std " in text
            return "\n".join(
                line.replace("trainable=0", "trainable=1") if line.startswith("param.1=") else line
                for line in text.split("\n")
            )

        _rewrite_manifest(saved, train_stdz_std)
        with pytest.raises(WeightFormatError) as err:
            load_model(saved)
        msg = str(err.value)
        assert str(saved) in msg and "param.1: parameter 'stdz.std' cannot be trainable" in msg

    def test_non_utf8_manifest_named(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw.replace(b"classes=", b"classes=\xff", 1))
        with pytest.raises(WeightFormatError) as err:
            load_model(saved)
        assert str(saved) in str(err.value) and "UTF-8" in str(err.value)

    def test_non_integer_value_named(self, saved):
        _rewrite_manifest(saved, lambda text: text.replace(" out=2\n", " out=abc\n", 1))
        with pytest.raises(WeightFormatError, match=r"layer\.11: .*'abc'") as err:
            load_model(saved)
        assert str(saved) in str(err.value)


class TestReplaceHead:
    def test_backbone_untouched_and_head_resized(self):
        m = random_cnn(seed=7, n_classes=10)
        m2 = replace_head(m, 2, seed=1, class_names=("fractured", "healthy"))
        assert m2.head.out_features == 2
        assert m2.num_classes == 2
        for name in m.params:
            if not name.startswith("head."):
                assert np.array_equal(m2.params[name], m.params[name])
        assert m2.params["head.weight"].shape == (2, m.head.in_features)

    def test_same_seed_gives_identical_initialization(self):
        m = random_cnn(seed=8, n_classes=10)
        a = replace_head(m, 2, seed=9)
        b = replace_head(m, 2, seed=9)
        assert np.array_equal(a.params["head.weight"], b.params["head.weight"])
        assert np.array_equal(a.params["head.bias"], b.params["head.bias"])

    def test_head_bound_follows_fan_in(self):
        m = random_cnn(seed=8, n_classes=10)
        m2 = replace_head(m, 2, seed=0)
        bound = 1.0 / np.sqrt(m.head.in_features)
        assert np.max(np.abs(m2.params["head.weight"])) <= bound

    def test_single_output_rejected(self):
        m = random_cnn(seed=8)
        with pytest.raises(ModelError, match="at least 2"):
            replace_head(m, 1, seed=0)


class TestFreezeBackbone:
    def test_frozen_parameters_survive_training_bit_identically(self):
        ds = generate_dataset(seed=21, n=20, cfg=SMALL_CFG)
        m = frozen_backbone(tiny_cnn(seed=21, input_shape=(1, 32, 32)))
        trained = train(m, ds, TrainConfig(epochs=2, seed=1)).model
        for name, flag in m.trainable.items():
            if not flag:
                assert np.array_equal(trained.params[name], m.params[name])
        assert not np.array_equal(trained.params["head.weight"], m.params["head.weight"])
