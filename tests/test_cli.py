"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fracmap.attack import AttackConfig
from fracmap.attribution import OcclusionConfig, PathConfig, mean_baseline
from fracmap.cli import ManifestError, load_run_manifest, main
from fracmap.coverage import coverage_table
from fracmap.model import load_model, save_model, tiny_cnn
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
            ({"attack": {"epsilon": float("nan")}}, "attack.epsilon"),
            ({"train": {"learning_rate": float("inf")}}, "train.learning_rate"),
            ({"coverage": {"percentiles": [85, float("-inf")]}}, "coverage.percentiles"),
            ({"coverage": {"percentiles": []}}, "coverage.percentiles"),
            ({"coverage": {"percentiles": [15, 85, 15]}}, "coverage.percentiles"),
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
            "nan",
            "infinity",
            "infinity-in-list",
            "empty-percentiles",
            "repeated-percentiles",
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

    def test_random_start_and_its_seed_reach_the_provenance(self, workspace, tmp_path):
        # Two manifests that differ only in random_start give different
        # meta.config and "# config=" lines; without it both read as before.
        configs = {}
        for start in (False, True):
            manifest = json.loads((workspace / "rm.json").read_text())
            manifest["dataset"] = str(workspace / "data" / "dataset.txt")
            manifest["train"]["epochs"] = 1
            manifest["attack"]["random_start"] = manifest["train_attack"]["random_start"] = start
            rm = tmp_path / f"rm_{start}.json"
            rm.write_text(json.dumps(manifest))
            model, out = tmp_path / f"adv_{start}.mwf", tmp_path / f"rob_{start}.csv"
            assert main(["train", "--manifest", str(rm), "--mode", "adversarial", "--out", str(model)]) == 0
            assert main(["attack", "--manifest", str(rm), "--models", str(model), "--out", str(out)]) == 0
            config_line = [l for l in out.read_text().splitlines() if l.startswith("# config=")]
            configs[start] = (load_model(model)[1]["config"], config_line)
        assert configs[False][0] != configs[True][0]
        assert configs[False][1] != configs[True][1]
        assert "pgd_random_start" not in configs[False][0] + configs[False][1][0]
        assert configs[True][0].endswith(f"pgd_iters=2;pgd_random_start=1;pgd_seed={SEED}")
        assert configs[True][1][0].endswith(f"pgd_random_start=1;pgd_seed={SEED};split=test")

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

    def test_model_with_other_class_names_fails(self, workspace, capsys):
        swapped = workspace / "swapped.mwf"
        save_model(tiny_cnn(1, class_names=("healthy", "fractured")), swapped, meta={"seed": 1})
        out = workspace / "maps4"
        rc = main(
            [
                "attribute",
                "--manifest", str(workspace / "rm.json"),
                "--model", str(swapped),
                "--methods", "saliency",
                "--images", "img_0000",
                "--out", str(out),
            ]
        )
        assert rc != 0
        assert "('healthy', 'fractured')" in capsys.readouterr().err
        assert not list(out.glob("*.pgm"))

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

    @pytest.mark.parametrize(
        "raw, problem",
        [
            ("", "the percentile list is empty"),
            ("15,abc", "could not convert string to float: 'abc'"),
            ("15,85,15.0", "percentile 15.0 is repeated"),
        ],
        ids=["empty", "not-a-number", "repeated"],
    )
    def test_bad_percentiles_flag_fails_naming_it(self, workspace, trained, tmp_path, capsys, raw, problem):
        std, _ = trained
        out = tmp_path / "cov.csv"
        argv = ["coverage", "--manifest", str(workspace / "rm.json"), "--models", str(std)]
        rc = main(argv + ["--methods", "saliency", "--percentiles", raw, "--out", str(out)])
        assert rc != 0
        assert f"--percentiles: {problem}" in capsys.readouterr().err
        assert not out.exists()
        assert (tmp_path / "cov.csv.status").read_text().startswith("failed")

    @pytest.mark.parametrize(
        "raw, problem",
        [(",", "the method list is empty"), ("saliency,deeplift,saliency", "method 'saliency' is repeated")],
        ids=["empty", "repeated"],
    )
    @pytest.mark.parametrize("command", ["coverage", "attribute"])
    def test_empty_or_repeated_methods_flag_fails_naming_it(
        self, workspace, trained, tmp_path, capsys, command, raw, problem
    ):
        # Either would exit 0 with a header-only CSV or with duplicate rows.
        std, _ = trained
        out = tmp_path / "out"
        argv = [command, "--manifest", str(workspace / "rm.json"), "--methods", raw, "--out", str(out)]
        if command == "coverage":
            argv += ["--models", str(std)]
        else:
            argv += ["--model", str(std), "--images", "img_0000"]
        assert main(argv) != 0
        assert f"--methods: {problem}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] in (["out.status"], ["run-status.txt"])

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
        # The last run changes only the occlusion settings of the "mean" run.
        for ref in ("zero", "mean", "occlusion"):
            if ref == "occlusion":
                manifest["occlusion"] = {
                    "patch": [4, 4], "stride": [2, 2], "baseline_value": 0.5, "per_channel": True
                }
            else:
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
        assert config_lines["occlusion"] != config_lines["mean"]
        assert ";patch=4x4;stride=2x2;baseline=0.5;per_channel=1;ig_steps=" in config_lines["occlusion"][0]

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
    @pytest.mark.parametrize("command", ["train", "attack", "attribute", "coverage"])
    @pytest.mark.parametrize("seed", [None, 9])
    def test_missing_manifest_replaces_an_earlier_status(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out"
        argv = [command, "--manifest", str(tmp_path / "missing.json"), "--out", str(out)]
        argv += {
            "train": ["--mode", "standard"],
            "attack": ["--models", "m.mwf"],
            "attribute": ["--model", "m.mwf", "--methods", "saliency", "--images", "img_0000"],
            "coverage": ["--models", "m.mwf", "--methods", "saliency"],
        }[command]
        if seed is not None:
            argv += ["--seed", str(seed)]
        status = out / "run-status.txt" if command == "attribute" else tmp_path / "out.status"
        status.parent.mkdir(parents=True, exist_ok=True)
        status.write_text("ok\ncommand=earlier\nseed=1\n")
        assert main(argv) == 1
        state, *tail = status.read_text().splitlines()
        assert state.startswith("failed: ManifestError: ") and "missing.json" in state
        assert tail[1] == f"seed={'unknown' if seed is None else seed}"

    def test_unloadable_model_replaces_an_earlier_ok(self, workspace, trained, tmp_path, capsys):
        std, _ = trained
        out = tmp_path / "maps"
        argv = ["attribute", "--manifest", str(workspace / "rm.json"), "--methods", "saliency"]
        argv += ["--images", "img_0000", "--out", str(out)]
        assert main(argv + ["--model", str(std)]) == 0
        ok = f"ok\ncommand=attribute\nseed={SEED}\n"
        assert (out / "run-status.txt").read_text() == ok
        bad = tmp_path / "bad.mwf"
        bad.write_bytes(b"XXXX....")
        assert main(argv + ["--model", str(bad)]) == 1
        state, *tail = (out / "run-status.txt").read_text().splitlines()
        assert state.startswith("failed: WeightFormatError: ") and "bad.mwf" in state
        assert tail == ["command=attribute", f"seed={SEED}"]
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

    @pytest.mark.parametrize("command", ["attack", "coverage", "attribute"])
    def test_repeated_id_fails_naming_flag_and_id(self, workspace, trained, tmp_path, capsys, command):
        # Two weight files with one stem share a model id: coverage scored only
        # the last, attack wrote two rows under it. A repeated image id wrote
        # its heatmaps twice.
        std, _ = trained
        argv = [command, "--manifest", str(workspace / "rm.json"), "--out", str(tmp_path / "out")]
        if command == "attribute":
            argv += ["--model", str(std), "--methods", "saliency"]
            argv += ["--images", "img_0000", "img_0002", "img_0000"]
            problem = "--images: image id 'img_0000' is repeated"
            status = tmp_path / "out" / "run-status.txt"
        else:
            copies = [tmp_path / d / std.name for d in ("a", "b")]
            for copy in copies:
                copy.parent.mkdir()
                shutil.copy(std, copy)
            argv += ["--models", *map(str, copies)]
            argv += ["--methods", "saliency"] if command == "coverage" else []
            problem = f"--models: model id {std.stem!r} is repeated"
            status = tmp_path / "out.status"
        assert main(argv) == 1
        assert problem in capsys.readouterr().err
        assert status.read_text() == f"failed: ValueError: {problem}\ncommand={command}\nseed={SEED}\n"
        assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == sorted(
            [status.name] + ([] if command == "attribute" else [std.name, std.name])
        )

    def test_failed_attribute_records_failure(self, workspace, trained, tmp_path, capsys):
        std, _ = trained
        out = tmp_path / "maps"
        argv = ["attribute", "--manifest", str(workspace / "rm.json"), "--model", str(std)]
        argv += ["--methods", "saliency", "--images", "img_9999", "--out", str(out)]
        assert main(argv) == 1
        assert (out / "run-status.txt").read_text() == (
            f"failed: ValueError: images not in the dataset: img_9999\ncommand=attribute\nseed={SEED}\n"
        )

    @pytest.mark.parametrize("command", ["synth", "attribute"])
    def test_out_naming_a_file_fails_before_any_status(self, tmp_path, monkeypatch, capsys, command):
        # The status goes inside --out, which cannot be made over a file:
        # this failed with "[Errno 17] File exists" and no status.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        argv = {
            "synth": ["synth", "--seed", "1", "--n", "4"],
            "attribute": ["attribute", "--manifest", "missing.json", "--model", "m.mwf"]
            + ["--methods", "saliency", "--images", "img_0000"],
        }[command]
        assert main(argv + ["--out", "afile"]) == 1
        assert capsys.readouterr().err == "error: --out: 'afile' is a file, not a directory\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["train", "attack", "coverage"])
    @pytest.mark.parametrize("out", ["out", "."], ids=["directory", "no_name"])
    def test_out_must_name_a_file_before_any_input_is_read(
        self, tmp_path, monkeypatch, capsys, command, out
    ):
        # The manifest does not exist: a command that read any input before
        # checking --out would fail on the manifest instead.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        argv = [command, "--manifest", "missing.json", "--out", out]
        argv += {
            "train": ["--mode", "standard"],
            "attack": ["--models", "m.mwf"],
            "coverage": ["--models", "m.mwf", "--methods", "saliency"],
        }[command]
        assert main(argv) == 1
        problem = capsys.readouterr().err.removeprefix("error: ").strip()
        assert problem.startswith(f"--out: {out!r} ")
        written = sorted(p.name for p in tmp_path.rglob("*"))
        if out == ".":
            assert written == ["out"]
        else:
            label = "train-standard" if command == "train" else command
            assert (tmp_path / "out.status").read_text() == (
                f"failed: ValueError: {problem}\ncommand={label}\nseed=unknown\n"
            )
            assert written == ["out", "out.status"]
