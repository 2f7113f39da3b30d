"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from fracmap.attack import AttackConfig
from fracmap.attribution import OcclusionConfig, PathConfig, mean_baseline
from fracmap.cli import ManifestError, load_run_manifest, main
from fracmap.coverage import coverage_table
from fracmap.model import load_model
from fracmap.pgm import read_pgm
from fracmap.synth import load_dataset
from fracmap.tensor import Tensor
from fracmap.train import TrainConfig

SEED = 13
N = 16  # per-class 8 -> 6 train / 1 val / 1 test each


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized corpus plus a run manifest tuned for fast training."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--seed", str(SEED), "--n", str(N), "--out", str(root / "data")]) == 0
    manifest = {
        "seed": SEED,
        "dataset": "data/dataset.txt",
        "train": {"epochs": 4, "batch_size": 8},
        "attack": {"epsilon": 4 / 255, "step_size": 1 / 255, "iters": 5},
        "train_attack": {"epsilon": 2 / 255, "step_size": 1 / 255, "iters": 2},
        "occlusion": {"patch": [8, 8], "stride": [8, 8]},
        "integrated_gradients": {"n_steps": 8},
    }
    (root / "rm.json").write_text(json.dumps(manifest))
    return root


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynth:
    def test_writes_images_manifest_annotations(self, workspace):
        data = workspace / "data"
        assert len(list((data / "images").glob("*.pgm"))) == N
        assert (data / "dataset.txt").exists()
        assert (data / "annotations.json").exists()
        assert (data / "run-status.txt").read_text().startswith("ok")

    def test_identical_invocations_reproduce_identical_trees(self, tmp_path):
        for out in ("a", "b"):
            assert main(["synth", "--seed", "5", "--n", "6", "--out", str(tmp_path / out)]) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert list(a) == list(b)
        assert all(a[k] == b[k] for k in a)

    def test_odd_n_fails(self, tmp_path, capsys):
        assert main(["synth", "--seed", "1", "--n", "9", "--out", str(tmp_path / "x")]) != 0
        assert "even" in capsys.readouterr().err

    def test_unwritable_destination_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        rc = main(["synth", "--seed", "1", "--n", "4", "--out", str(blocker / "sub")])
        assert rc != 0


class TestTrain:
    def test_standard_writes_weights_and_full_loss_trace(self, workspace):
        out = workspace / "models" / "std.mwf"
        rc = main(
            ["train", "--manifest", str(workspace / "rm.json"), "--mode", "standard", "--out", str(out)]
        )
        assert rc == 0
        model, meta = load_model(out)
        assert meta["seed"] == str(SEED)
        metrics = json.loads((workspace / "models" / "std.mwf.metrics.json").read_text())
        assert len(metrics["loss_trace"]) == 4  # one entry per configured epoch
        assert set(metrics["clean_acc"]) == {"train", "val", "test"}
        assert (workspace / "models" / "std.mwf.status").read_text().startswith("ok")

    def test_default_epoch_count_is_thirty(self, tmp_path):
        assert main(["synth", "--seed", "3", "--n", "8", "--out", str(tmp_path / "d")]) == 0
        (tmp_path / "rm.json").write_text(json.dumps({"seed": 3, "dataset": "d/dataset.txt"}))
        out = tmp_path / "m.mwf"
        assert main(["train", "--manifest", str(tmp_path / "rm.json"), "--mode", "standard", "--out", str(out)]) == 0
        metrics = json.loads((tmp_path / "m.mwf.metrics.json").read_text())
        assert len(metrics["loss_trace"]) == 30

    def test_zero_epsilon_adversarial_weights_match_standard_bytes(self, workspace, tmp_path):
        manifest = json.loads((workspace / "rm.json").read_text())
        manifest["train_attack"] = {"epsilon": 0.0}
        manifest["dataset"] = str(workspace / "data" / "dataset.txt")
        rm = tmp_path / "rm0.json"
        rm.write_text(json.dumps(manifest))
        std, adv = tmp_path / "std.mwf", tmp_path / "adv.mwf"
        assert main(["train", "--manifest", str(rm), "--mode", "standard", "--out", str(std)]) == 0
        assert main(["train", "--manifest", str(rm), "--mode", "adversarial", "--out", str(adv)]) == 0
        assert std.read_bytes() == adv.read_bytes()

    def test_seed_flag_overrides_manifest(self, workspace, tmp_path):
        out = tmp_path / "m.mwf"
        rc = main(
            ["train", "--manifest", str(workspace / "rm.json"), "--seed", "99",
             "--mode", "standard", "--out", str(out)]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "m.mwf.metrics.json").read_text())
        assert metrics["seed"] == 99

    def test_missing_dataset_fails_naming_field(self, tmp_path, capsys):
        (tmp_path / "rm.json").write_text(json.dumps({"seed": 1, "dataset": "nope/x.txt"}))
        rc = main(["train", "--manifest", str(tmp_path / "rm.json"), "--mode", "standard", "--out", str(tmp_path / "m.mwf")])
        assert rc != 0
        assert "dataset" in capsys.readouterr().err

    def test_manifest_with_out_dir_still_loads(self, workspace, tmp_path):
        manifest = {"dataset": str(workspace / "data" / "dataset.txt"), "out_dir": "elsewhere"}
        (tmp_path / "rm.json").write_text(json.dumps(manifest))
        rm = load_run_manifest(tmp_path / "rm.json")
        assert rm.dataset == workspace / "data" / "dataset.txt"
        assert not hasattr(rm, "out_dir")

    def test_invalid_train_field_fails_naming_field(self, workspace, tmp_path, capsys):
        manifest = {"seed": 1, "dataset": str(workspace / "data" / "dataset.txt"), "train": {"epochs": 0}}
        (tmp_path / "rm.json").write_text(json.dumps(manifest))
        rc = main(["train", "--manifest", str(tmp_path / "rm.json"), "--mode", "standard", "--out", str(tmp_path / "m.mwf")])
        assert rc != 0
        assert "train" in capsys.readouterr().err


class TestManifestKeys:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"attack": {"random_start": "false"}}, "attack.random_start"),
            ({"coverage": {"percentiles": "85"}}, "coverage.percentiles"),
            ({"train": {"epochs": 2.7}}, "train.epochs"),
            ({"train": {"epoch": 2}}, "train.epoch"),
            ([{"train": {"epochs": 2}}], "manifest"),
            ({"occlusion": {"stride": [4, 0]}}, "occlusion.stride"),
            ({"coverage": {"percentiles": [150]}}, "coverage.percentiles"),
            ({"deeplift": {"reference": "max"}}, "deeplift.reference"),
        ],
        ids=[
            "string-bool",
            "string-list",
            "float-int",
            "unknown-key",
            "top-level-list",
            "range",
            "percentile-range",
            "zero-or-mean",
        ],
    )
    def test_defect_names_manifest_and_field(self, tmp_path, payload, field):
        path = tmp_path / "rm.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError) as err:
            load_run_manifest(path)
        assert str(path) in str(err.value) and repr(field) in str(err.value)

    def test_directory_is_not_a_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="no such file") as err:
            load_run_manifest(tmp_path)
        assert str(tmp_path) in str(err.value)

    def test_defaults_come_from_the_config_classes(self, tmp_path):
        (tmp_path / "rm.json").write_text(json.dumps({"seed": 4}))
        rm = load_run_manifest(tmp_path / "rm.json")
        assert rm.train == TrainConfig(seed=4)
        assert rm.attack == AttackConfig(seed=4)
        assert rm.train_attack == AttackConfig(step_size=2 / 255, iters=5, seed=4)
        assert rm.occlusion == OcclusionConfig()
        assert rm.integrated_gradients.n_steps == PathConfig(baseline=Tensor(np.zeros(1))).n_steps

    def test_every_key_reaches_its_config(self, tmp_path):
        manifest = {
            "train": {"epochs": 3, "learning_rate": 0.5, "batch_size": 5},
            "attack": {"epsilon": 0.25, "step_size": 0.125, "iters": 4, "random_start": True},
            "train_attack": {"epsilon": 0.5, "step_size": 1, "iters": 3, "random_start": True},
            "occlusion": {"patch": [6, 4], "stride": [3, 2], "baseline_value": 0.25, "per_channel": True},
            "integrated_gradients": {"n_steps": 12, "baseline": "mean"},
            "deeplift": {"reference": "mean"},
            "coverage": {"percentiles": [0, 50.5], "split": "val"},
        }
        (tmp_path / "rm.json").write_text(json.dumps(manifest))
        rm = load_run_manifest(tmp_path / "rm.json", seed_override=9)
        assert rm.train == TrainConfig(epochs=3, learning_rate=0.5, batch_size=5, seed=9)
        assert rm.attack == AttackConfig(0.25, 0.125, 4, random_start=True, seed=9)
        assert rm.train_attack == AttackConfig(0.5, 1.0, 3, random_start=True, seed=9)
        assert rm.occlusion == OcclusionConfig(6, 4, 3, 2, baseline_value=0.25, per_channel=True)
        ig = rm.integrated_gradients
        assert (ig.n_steps, ig.baseline, rm.deeplift.reference) == (12, "mean", "mean")
        assert (rm.coverage.percentiles, rm.coverage.split) == ((0.0, 50.5), "val")


@pytest.fixture(scope="module")
def trained(workspace):
    std = workspace / "models" / "cli_std.mwf"
    adv = workspace / "models" / "cli_adv.mwf"
    rm = str(workspace / "rm.json")
    assert main(["train", "--manifest", rm, "--mode", "standard", "--out", str(std)]) == 0
    assert main(
        ["train", "--manifest", rm, "--mode", "adversarial", "--init", str(std), "--out", str(adv)]
    ) == 0
    return std, adv


class TestAttack:
    def test_report_rows_sorted_and_two_decimal(self, workspace, trained):
        std, adv = trained
        out = workspace / "reports" / "rob.csv"
        rc = main(
            ["attack", "--manifest", str(workspace / "rm.json"), "--models", str(std), str(adv), "--out", str(out)]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "model,clean_acc,adv_acc,delta_acc"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 2
        adv_accs = [float(r[2]) for r in rows]
        assert adv_accs == sorted(adv_accs, reverse=True)
        for r in rows:
            for cell in r[1:]:
                assert len(cell.split(".")[1]) == 2

    def test_zero_epsilon_gives_equal_columns(self, workspace, trained, tmp_path):
        std, _ = trained
        manifest = {
            "seed": SEED,
            "dataset": str(workspace / "data" / "dataset.txt"),
            "attack": {"epsilon": 0.0},
        }
        rm = tmp_path / "rm.json"
        rm.write_text(json.dumps(manifest))
        out = tmp_path / "rob.csv"
        assert main(["attack", "--manifest", str(rm), "--models", str(std), "--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith(("#", "model"))][0]
        _, clean, adv, delta = row.split(",")
        assert clean == adv
        assert delta == "0.00"

    def test_unloadable_model_fails(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.mwf"
        bad.write_bytes(b"XXXX....")
        rc = main(["attack", "--manifest", str(workspace / "rm.json"), "--models", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc != 0
        assert "magic" in capsys.readouterr().err


class TestAttribute:
    def test_writes_heatmap_per_image_method_pair(self, workspace, trained):
        std, _ = trained
        out = workspace / "maps"
        rc = main(
            [
                "attribute",
                "--manifest", str(workspace / "rm.json"),
                "--model", str(std),
                "--methods", "saliency,occlusion,deeplift,integrated_gradients",
                "--images", "img_0000", "img_0002",
                "--out", str(out),
            ]
        )
        assert rc == 0
        pgms = sorted(out.glob("*.pgm"))
        assert len(pgms) == 8
        assert (out / "img_0000__saliency__c0.pgm").exists()
        assert (out / "img_0000__saliency__c0.txt").exists()

    def test_heatmap_is_quantized_normalized_map(self, workspace, trained):
        std, _ = trained
        from fracmap.attribution import normalize, saliency
        from fracmap.synth import load_dataset

        ds = load_dataset(workspace / "data" / "dataset.txt")
        model, _ = load_model(std)
        amap = normalize(saliency(model, ds.images[0], 0))
        written = read_pgm(workspace / "maps" / "img_0000__saliency__c0.pgm") / 255.0
        assert np.max(np.abs(written - amap.values)) <= 1.0 / 255

    def test_unknown_method_lists_valid_ones(self, workspace, trained, capsys):
        std, _ = trained
        rc = main(
            [
                "attribute",
                "--manifest", str(workspace / "rm.json"),
                "--model", str(std),
                "--methods", "gradcam",
                "--images", "img_0000",
                "--out", str(workspace / "maps2"),
            ]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert "saliency" in err and "occlusion" in err and "deeplift" in err

    def test_unknown_image_fails(self, workspace, trained, capsys):
        std, _ = trained
        rc = main(
            [
                "attribute",
                "--manifest", str(workspace / "rm.json"),
                "--model", str(std),
                "--methods", "saliency",
                "--images", "img_9999",
                "--out", str(workspace / "maps3"),
            ]
        )
        assert rc != 0
        assert "img_9999" in capsys.readouterr().err


class TestCoverage:
    def test_row_count_and_zero_percentile(self, workspace, trained):
        std, adv = trained
        out = workspace / "reports" / "cov.csv"
        rc = main(
            [
                "coverage",
                "--manifest", str(workspace / "rm.json"),
                "--models", str(std), str(adv),
                "--methods", "saliency,deeplift,integrated_gradients",
                "--percentiles", "0,15,75,85,95",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith(("#", "model"))]
        assert len(lines) == 2 * 3 * 5
        for line in lines:
            model_id, method, nu, val = line.split(",")
            if nu == "0":
                assert val == "100.00"

    def test_manifest_baselines_reach_the_table(self, workspace, trained, tmp_path):
        # coverage must score the maps attribute exports: mean IG baseline and
        # mean DeepLIFT reference, as the library builds them.
        std, _ = trained
        manifest = json.loads((workspace / "rm.json").read_text())
        manifest["dataset"] = str(workspace / "data" / "dataset.txt")
        manifest["integrated_gradients"]["baseline"] = "mean"
        manifest["deeplift"] = {"reference": "mean"}
        (tmp_path / "rm.json").write_text(json.dumps(manifest))
        methods, percentiles = ["deeplift", "integrated_gradients"], [15, 50, 75, 85, 95]
        out = tmp_path / "cov.csv"
        rc = main(
            [
                "coverage",
                "--manifest", str(tmp_path / "rm.json"),
                "--models", str(std),
                "--methods", ",".join(methods),
                "--percentiles", ",".join(map(str, percentiles)),
                "--out", str(out),
            ]
        )
        assert rc == 0
        ds = load_dataset(workspace / "data" / "dataset.txt")
        model, _ = load_model(std)
        mean = mean_baseline(ds)
        n_steps = manifest["integrated_gradients"]["n_steps"]

        def rows_for(path_cfg):
            report = coverage_table(
                {std.stem: model}, methods, percentiles, ds, ds.annotations,
                path_cfg=path_cfg, reference=mean,
            )
            return [f"{r.model_id},{r.method},{r.percentile:g},{r.formatted()}" for r in report.rows]

        expected = rows_for(PathConfig(baseline=mean, n_steps=n_steps))
        # The zero-baseline table differs, so the comparison below tells them apart.
        zero = Tensor(np.zeros(ds.image_shape))
        assert rows_for(PathConfig(baseline=zero, n_steps=n_steps)) != expected
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "model"))]
        assert rows == expected

    def test_config_line_records_map_settings(self, workspace, trained, tmp_path):
        std, _ = trained
        manifest = json.loads((workspace / "rm.json").read_text())
        manifest["dataset"] = str(workspace / "data" / "dataset.txt")
        config_lines = {}
        for ref in ("zero", "mean"):
            manifest["integrated_gradients"]["baseline"] = ref
            manifest["deeplift"] = {"reference": ref}
            (tmp_path / f"rm_{ref}.json").write_text(json.dumps(manifest))
            out = tmp_path / f"cov_{ref}.csv"
            argv = ["coverage", "--manifest", str(tmp_path / f"rm_{ref}.json")]
            argv += ["--models", str(std), "--methods", "saliency", "--percentiles", "50"]
            assert main(argv + ["--out", str(out)]) == 0
            config_lines[ref] = [l for l in out.read_text().splitlines() if l.startswith("# config=")]
        assert config_lines["zero"] != config_lines["mean"]
        assert config_lines["mean"][0].endswith(";ig_baseline=mean;deeplift_reference=mean")

    def test_missing_annotations_fail(self, workspace, trained, tmp_path, capsys):
        std, _ = trained
        data2 = tmp_path / "data2"
        import shutil

        shutil.copytree(workspace / "data", data2)
        (data2 / "annotations.json").unlink()
        (tmp_path / "rm.json").write_text(
            json.dumps({"seed": 1, "dataset": str(data2 / "dataset.txt")})
        )
        rc = main(
            [
                "coverage",
                "--manifest", str(tmp_path / "rm.json"),
                "--models", str(std),
                "--methods", "saliency",
                "--out", str(tmp_path / "cov.csv"),
            ]
        )
        assert rc != 0


class TestRunStatus:
    def test_failed_run_records_failure(self, workspace, tmp_path, capsys):
        out = tmp_path / "m.mwf"
        manifest = {"seed": 1, "dataset": str(workspace / "data" / "dataset.txt"), "train": {"epochs": 2, "learning_rate": 1e80}}
        (tmp_path / "rm.json").write_text(json.dumps(manifest))
        with np.errstate(all="ignore"):
            rc = main(["train", "--manifest", str(tmp_path / "rm.json"), "--mode", "standard", "--out", str(out)])
        assert rc != 0
        state, *tail = (tmp_path / "m.mwf.status").read_text().splitlines()
        assert state.startswith("failed: DivergenceError: ") and "non-finite" in state
        assert tail == ["command=train-standard", "seed=1"]

    def test_failed_attribute_records_failure(self, workspace, trained, tmp_path, capsys):
        std, _ = trained
        out = tmp_path / "maps"
        argv = ["attribute", "--manifest", str(workspace / "rm.json"), "--model", str(std)]
        argv += ["--methods", "saliency", "--images", "img_9999", "--out", str(out)]
        assert main(argv) == 1
        assert (out / "run-status.txt").read_text() == (
            f"failed: ValueError: images not in the dataset: img_9999\ncommand=attribute\nseed={SEED}\n"
        )
