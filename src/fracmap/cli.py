"""Command-line pipeline: synth, train, attack, attribute, coverage.

Every command is a pure function of its arguments and the global seed:
rerunning with identical inputs reproduces byte-identical artifacts. Each
artifact embeds the seed and a digest of the configuration that produced
it (weight-file meta entries, ``#`` provenance lines in CSVs, heatmap
sidecars, manifest header keys). A ``run-status`` file next to each
command's outputs is written as ``running`` first and ``ok`` last, so an
interrupted run leaves a visible flag instead of silently partial outputs.

Shared configuration comes from a JSON run manifest (``--manifest``):

    {
      "seed": 42,
      "dataset": "data/dataset.txt",
      "train": {"epochs": 30, "learning_rate": 0.001, "batch_size": 32},
      "attack": {"epsilon": 0.01568, "step_size": 0.00392, "iters": 10},
      "train_attack": {"epsilon": 0.01568, "step_size": 0.00784, "iters": 5},
      "occlusion": {"patch": [8, 8], "stride": [4, 4], "baseline_value": 0.0},
      "integrated_gradients": {"n_steps": 20, "baseline": "zero"},
      "deeplift": {"reference": "zero"},
      "coverage": {"percentiles": [15, 75, 85, 95], "split": "test"}
    }

All keys are optional except ``dataset`` for the commands that read one;
relative paths resolve against the manifest's directory. A ``"mean"``
IG baseline or DeepLIFT reference is the per-channel train-split mean image;
``attribute`` and ``coverage`` build the same maps from these settings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import AttackConfig, RobustnessReport, adv_accuracy, delta_acc, rank_models
from .attribution import METHODS, OcclusionConfig, PathConfig, mean_baseline, write_heatmap
from .coverage import coverage_table, write_csv
from .model import load_model, save_model, tiny_cnn
from .synth import FRACTURED, SynthConfig, generate_dataset, load_dataset, save_dataset
from .tensor import Tensor
from .train import TrainConfig, adv_train, evaluate, train

__all__ = ["main", "ManifestError", "load_run_manifest"]


class ManifestError(ValueError):
    """Raised when the run manifest is missing or malformed; names the field."""


@dataclass
class RunManifest:
    seed: int = 0
    dataset: Path | None = None
    train_cfg: TrainConfig = TrainConfig()
    eval_attack: AttackConfig = AttackConfig()
    train_attack: AttackConfig = AttackConfig(step_size=2 / 255, iters=5)
    occlusion_cfg: OcclusionConfig = OcclusionConfig()
    ig_steps: int = 20
    ig_baseline: str = "zero"  # "zero" | "mean"
    deeplift_reference: str = "zero"
    percentiles: tuple = (15.0, 75.0, 85.0, 95.0)
    split: str = "test"


def _field(payload, section, key, default, cast):
    raw = payload.get(section, {})
    if not isinstance(raw, dict):
        raise ManifestError(f"field {section!r} must be an object")
    if key not in raw:
        return default
    try:
        return cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"field {section}.{key!r}: {exc}") from None


def load_run_manifest(path, seed_override=None) -> RunManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"field 'manifest': file {path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"field 'manifest': invalid JSON ({exc})") from None

    base = path.parent
    rm = RunManifest()
    if "seed" in payload:
        try:
            rm.seed = int(payload["seed"])
        except (TypeError, ValueError):
            raise ManifestError("field 'seed': must be an integer") from None
    if seed_override is not None:
        rm.seed = int(seed_override)
    if "dataset" in payload:
        rm.dataset = base / str(payload["dataset"])
        if not rm.dataset.exists():
            raise ManifestError(f"field 'dataset': file {rm.dataset} does not exist")

    try:
        rm.train_cfg = TrainConfig(
            epochs=_field(payload, "train", "epochs", 30, int),
            learning_rate=_field(payload, "train", "learning_rate", 1e-3, float),
            batch_size=_field(payload, "train", "batch_size", 32, int),
            head_only=_field(payload, "train", "head_only", False, bool),
            seed=rm.seed,
        )
    except ValueError as exc:
        raise ManifestError(f"field 'train': {exc}") from None

    def attack_from(section, default):
        try:
            return AttackConfig(
                epsilon=_field(payload, section, "epsilon", default.epsilon, float),
                step_size=_field(payload, section, "step_size", default.step_size, float),
                iters=_field(payload, section, "iters", default.iters, int),
                random_start=_field(payload, section, "random_start", False, bool),
                seed=rm.seed,
            )
        except ValueError as exc:
            raise ManifestError(f"field {section!r}: {exc}") from None

    rm.eval_attack = attack_from("attack", rm.eval_attack)
    rm.train_attack = attack_from("train_attack", rm.train_attack)

    try:
        patch = _field(payload, "occlusion", "patch", (8, 8), tuple)
        stride = _field(payload, "occlusion", "stride", (4, 4), tuple)
        rm.occlusion_cfg = OcclusionConfig(
            patch_h=int(patch[0]),
            patch_w=int(patch[1]),
            stride_h=int(stride[0]),
            stride_w=int(stride[1]),
            baseline_value=_field(payload, "occlusion", "baseline_value", 0.0, float),
            per_channel=_field(payload, "occlusion", "per_channel", False, bool),
        )
    except (ValueError, IndexError) as exc:
        raise ManifestError(f"field 'occlusion': {exc}") from None

    rm.ig_steps = _field(payload, "integrated_gradients", "n_steps", 20, int)
    if rm.ig_steps < 1:
        raise ManifestError("field 'integrated_gradients.n_steps': must be >= 1")
    rm.ig_baseline = _field(payload, "integrated_gradients", "baseline", "zero", str)
    if rm.ig_baseline not in ("zero", "mean"):
        raise ManifestError("field 'integrated_gradients.baseline': must be 'zero' or 'mean'")
    rm.deeplift_reference = _field(payload, "deeplift", "reference", "zero", str)
    if rm.deeplift_reference not in ("zero", "mean"):
        raise ManifestError("field 'deeplift.reference': must be 'zero' or 'mean'")

    pct = _field(payload, "coverage", "percentiles", rm.percentiles, tuple)
    try:
        rm.percentiles = tuple(float(nu) for nu in pct)
    except (TypeError, ValueError):
        raise ManifestError("field 'coverage.percentiles': must be numbers") from None
    rm.split = _field(payload, "coverage", "split", "test", str)
    return rm


def _require_dataset(rm: RunManifest):
    if rm.dataset is None:
        raise ManifestError("field 'dataset': required by this command but missing")
    return load_dataset(rm.dataset)


class _RunStatus:
    """Written as 'running' up front and 'ok' on success; a crash leaves the flag."""

    def __init__(self, path: Path, command: str, seed):
        self.path = Path(path)
        self.tail = f"command={command}\nseed={seed}\n"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("running\n" + self.tail, encoding="utf-8")
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.path.write_text("ok\n" + self.tail, encoding="utf-8")
        return False


def _train_digest(cfg: TrainConfig, atk: AttackConfig | None, init_name: str | None) -> str:
    parts = [
        f"train;epochs={cfg.epochs};lr={cfg.learning_rate!r};batch={cfg.batch_size}",
        f"seed={cfg.seed}",
    ]
    # A zero-radius attack is the identity, so the effective procedure (and
    # therefore the digest and the weight bytes) match standard training.
    if atk is not None and atk.epsilon > 0:
        parts.append(f"pgd_eps={atk.epsilon!r};pgd_step={atk.step_size!r};pgd_iters={atk.iters}")
    if init_name:
        parts.append(f"init={init_name}")
    return ";".join(parts)


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    cfg = SynthConfig(height=args.size, width=args.size)
    with _RunStatus(out_dir / "run-status.txt", "synth", args.seed):
        ds = generate_dataset(args.seed, args.n, cfg)
        manifest_path, ann_path = save_dataset(ds, out_dir)
    print(f"wrote {args.n} images, {manifest_path}, {ann_path}")
    return 0


def cmd_train(args) -> int:
    rm = load_run_manifest(args.manifest, seed_override=args.seed)
    ds = _require_dataset(rm)
    out_model = Path(args.out)
    metrics_path = out_model.with_name(out_model.name + ".metrics.json")

    with _RunStatus(out_model.with_name(out_model.name + ".status"), f"train-{args.mode}", rm.seed):
        if args.init:
            model, _ = load_model(args.init)
        else:
            c, h, w = ds.image_shape
            model = tiny_cnn(rm.seed, input_shape=(c, h, w), class_names=ds.class_names)
        if args.mode == "standard":
            result = train(model, ds, rm.train_cfg)
            digest = _train_digest(rm.train_cfg, None, args.init and Path(args.init).name)
        else:
            result = adv_train(model, ds, rm.train_attack, rm.train_cfg)
            digest = _train_digest(rm.train_cfg, rm.train_attack, args.init and Path(args.init).name)

        out_model.parent.mkdir(parents=True, exist_ok=True)
        save_model(result.model, out_model, meta={"seed": rm.seed, "config": digest})
        metrics = {
            "seed": rm.seed,
            "config": digest,
            "mode": args.mode,
            "loss_trace": result.loss_trace,
            "clean_acc": {
                split: evaluate(result.model, ds, split)
                for split in ("train", "val", "test")
                if ds.split_indices(split)
            },
        }
        metrics_path.write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {out_model} and {metrics_path}")
    return 0


def cmd_attack(args) -> int:
    rm = load_run_manifest(args.manifest, seed_override=args.seed)
    ds = _require_dataset(rm)
    out_path = Path(args.out)
    with _RunStatus(out_path.with_name(out_path.name + ".status"), "attack", rm.seed):
        reports = []
        for model_path in args.models:
            model, _ = load_model(model_path)
            clean = 100.0 * evaluate(model, ds, rm.split, batch_size=32)
            adv = 100.0 * adv_accuracy(model, ds, rm.split, rm.eval_attack)
            reports.append(
                RobustnessReport(Path(model_path).stem, clean, adv, delta_acc(clean, adv))
            )
        ranked = rank_models(reports)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(
            out_path,
            "model,clean_acc,adv_acc,delta_acc",
            [f"{r.model_id},{r.clean_acc:.2f},{r.adv_acc:.2f},{r.delta_acc:.2f}" for r in ranked],
            {
                "seed": rm.seed,
                "config": (
                    f"pgd_eps={rm.eval_attack.epsilon!r};pgd_step={rm.eval_attack.step_size!r};"
                    f"pgd_iters={rm.eval_attack.iters};split={rm.split}"
                ),
            },
        )
    print(f"wrote {out_path}")
    return 0


def _map_inputs(rm: RunManifest, ds):
    """The IG path and the DeepLIFT reference that the manifest selects."""
    zero = Tensor(np.zeros(ds.image_shape))
    mean = mean_baseline(ds) if "mean" in (rm.ig_baseline, rm.deeplift_reference) else None
    ig_base = zero if rm.ig_baseline == "zero" else mean
    ref = zero if rm.deeplift_reference == "zero" else mean
    return PathConfig(baseline=ig_base, n_steps=rm.ig_steps), ref


def _parse_methods(raw) -> list:
    methods = [m.strip() for chunk in raw for m in chunk.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; valid methods: {', '.join(METHODS)}")
    return methods


def cmd_attribute(args) -> int:
    rm = load_run_manifest(args.manifest, seed_override=args.seed)
    ds = _require_dataset(rm)
    methods = _parse_methods(args.methods)
    model, _ = load_model(args.model)
    target = args.target_class if args.target_class is not None else FRACTURED
    out_dir = Path(args.out)

    with _RunStatus(out_dir / "run-status.txt", "attribute", rm.seed):
        missing = [i for i in args.images if i not in ds.ids]
        if missing:
            raise ValueError(f"images not in the dataset: {', '.join(missing)}")
        path_cfg, ref = _map_inputs(rm, ds)
        out_dir.mkdir(parents=True, exist_ok=True)
        for image_id in args.images:
            x = ds.images[ds.index_of(image_id)]
            for method in methods:
                amap = METHODS[method](model, x, target, rm.occlusion_cfg, path_cfg, ref)
                stem = f"{image_id}__{method}__c{target}"
                write_heatmap(
                    amap,
                    out_dir / f"{stem}.pgm",
                    out_dir / f"{stem}.txt",
                    extra={"seed": rm.seed, "image": image_id},
                )
    print(f"wrote {len(args.images) * len(methods)} heatmaps to {out_dir}")
    return 0


def cmd_coverage(args) -> int:
    rm = load_run_manifest(args.manifest, seed_override=args.seed)
    ds = _require_dataset(rm)
    methods = _parse_methods(args.methods)
    percentiles = rm.percentiles if args.percentiles is None else tuple(
        float(v) for chunk in args.percentiles for v in chunk.split(",") if v
    )
    out_path = Path(args.out)
    with _RunStatus(out_path.with_name(out_path.name + ".status"), "coverage", rm.seed):
        models = {}
        for model_path in args.models:
            model, _ = load_model(model_path)
            models[Path(model_path).stem] = model
        path_cfg, ref = _map_inputs(rm, ds)
        report = coverage_table(
            models,
            methods,
            percentiles,
            ds,
            ds.annotations,
            split=rm.split,
            occlusion_cfg=rm.occlusion_cfg,
            path_cfg=path_cfg,
            reference=ref,
        )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        report.to_csv(
            out_path,
            {
                "seed": rm.seed,
                "config": f"split={rm.split};ig_steps={rm.ig_steps};"
                f"ig_baseline={rm.ig_baseline};deeplift_reference={rm.deeplift_reference}",
            },
        )
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmap",
        description="Synthetic fracture corpus, CNN training/attack, attribution maps, coverage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic PGM corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="total image count (even)")
    p.add_argument("--size", type=int, default=64, help="image side length")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--manifest", required=True, help="run manifest JSON")
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--mode", choices=("standard", "adversarial"), required=True)
    p.add_argument("--init", help="optional MWF1 weights to start from")
    p.add_argument("--out", required=True, help="output weight file (MWF1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="clean/adversarial accuracy report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--models", nargs="+", required=True, help="MWF1 weight files")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("attribute", help="write attribution heatmaps")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--model", required=True)
    p.add_argument("--methods", nargs="+", required=True, help=f"from: {', '.join(METHODS)}")
    p.add_argument("--images", nargs="+", required=True, help="image ids from the dataset")
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("coverage", help="point-coverage table across models and methods")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--methods", nargs="+", required=True, help=f"from: {', '.join(METHODS)}")
    p.add_argument("--percentiles", nargs="+", default=None, help="e.g. 15,75,85,95")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
