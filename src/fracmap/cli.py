"""Command-line pipeline: synth, train, attack, attribute, coverage.

Every command is a pure function of its arguments and the global seed:
rerunning with identical inputs reproduces byte-identical artifacts. Each
artifact embeds the seed and a digest of the configuration that produced
it (weight-file meta entries, ``#`` provenance lines in CSVs, heatmap
sidecars, manifest header keys). A ``run-status`` file next to each
command's outputs is written as ``running`` first, then ``ok`` or ``failed:
<error>``, so a failed run leaves a visible flag instead of silently partial
outputs.

Shared configuration comes from a JSON run manifest (``--manifest``); this
example sets every key it accepts:

    {
      "seed": 42,
      "dataset": "data/dataset.txt",
      "train": {"epochs": 30, "learning_rate": 0.001, "batch_size": 32},
      "attack": {"epsilon": 0.01568, "step_size": 0.00392, "iters": 10, "random_start": false},
      "train_attack": {"epsilon": 0.01568, "step_size": 0.00784, "iters": 5,
                       "random_start": false},
      "occlusion": {"patch": [8, 8], "stride": [4, 4], "baseline_value": 0.0,
                    "per_channel": false},
      "integrated_gradients": {"n_steps": 20, "baseline": "zero"},
      "deeplift": {"reference": "zero"},
      "coverage": {"percentiles": [15, 75, 85, 95], "split": "test"}
    }

All keys are optional except ``dataset`` for the commands that read one;
relative paths resolve against the manifest's directory. One table,
``_SECTIONS``, gives each section's keys and their JSON types. A section's
keys go by name to its config class (``TrainConfig``, ``AttackConfig``,
``OcclusionConfig``, ``PathConfig``), so their defaults and range checks
live there; a ``[h, w]`` pair fills the ``_h``/``_w`` fields. A wrong type,
an unknown key inside a section or an out-of-range value raises
``ManifestError`` naming the manifest and the ``section.key``; other
top-level keys are ignored. A ``"mean"`` IG baseline
or DeepLIFT reference is the per-channel train-split mean image;
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
from .coverage import check_percentile, coverage_table, write_csv
from .model import load_model, save_model, tiny_cnn
from .synth import FRACTURED, SynthConfig, generate_dataset, load_dataset, save_dataset
from .tensor import Tensor
from .train import TrainConfig, adv_train, evaluate, train

__all__ = ["main", "ManifestError", "load_run_manifest"]


class ManifestError(ValueError):
    """Raised when the run manifest is missing or malformed; names the manifest and the field."""


def _fail(path: Path, field: str, problem: str):
    raise ManifestError(f"manifest {path}: field {field!r}: {problem}")


# JSON type of a manifest value -> (whether a parsed value has it, its config form)
_JSON_TYPES = {
    "integer": (lambda v: type(v) is int, int),
    "number": (lambda v: type(v) in (int, float), float),
    "boolean": (lambda v: type(v) is bool, bool),
    "string": (lambda v: type(v) is str, str),
    '"zero" | "mean"': (lambda v: v in ("zero", "mean"), str),
    "[integer, integer]": (
        lambda v: type(v) is list and len(v) == 2 and all(type(d) is int for d in v),
        tuple,
    ),
    "[number, ...]": (
        lambda v: type(v) is list and all(type(nu) in (int, float) for nu in v),
        lambda v: tuple(float(nu) for nu in v),
    ),
}
_PAIR = "[integer, integer]"
_ZERO_OR_MEAN = '"zero" | "mean"'


def _typed(path: Path, field: str, value, json_type: str):
    has_type, convert = _JSON_TYPES[json_type]
    if not has_type(value):
        _fail(path, field, f"must be {json_type}, got {json.dumps(value)}")
    return convert(value)


@dataclass(frozen=True)
class _IGSection(PathConfig):
    """``integrated_gradients``: ``PathConfig``'s fields, with ``baseline``
    naming the image ("zero" or "mean") that ``_map_inputs`` builds."""

    baseline: str = "zero"


@dataclass(frozen=True)
class _DeepLiftSection:
    reference: str = "zero"


@dataclass(frozen=True)
class _CoverageSection:
    percentiles: tuple = (15.0, 75.0, 85.0, 95.0)
    split: str = "test"  # also the split that ``attack`` scores

    def __post_init__(self):
        for nu in self.percentiles:
            check_percentile(nu)


_ATTACK_KEYS = {
    "epsilon": "number",
    "step_size": "number",
    "iters": "integer",
    "random_start": "boolean",
}

# Manifest section -> (config class its keys go to by name, preset fields,
# {key: JSON type}). A config class with a ``seed`` field gets the run's seed.
_SECTIONS = {
    "train": (
        TrainConfig,
        {},
        {"epochs": "integer", "learning_rate": "number", "batch_size": "integer"},
    ),
    "attack": (AttackConfig, {}, _ATTACK_KEYS),
    "train_attack": (AttackConfig, {"step_size": 2 / 255, "iters": 5}, _ATTACK_KEYS),
    "occlusion": (
        OcclusionConfig,
        {},
        {"patch": _PAIR, "stride": _PAIR, "baseline_value": "number", "per_channel": "boolean"},
    ),
    "integrated_gradients": (_IGSection, {}, {"n_steps": "integer", "baseline": _ZERO_OR_MEAN}),
    "deeplift": (_DeepLiftSection, {}, {"reference": _ZERO_OR_MEAN}),
    "coverage": (_CoverageSection, {}, {"percentiles": "[number, ...]", "split": "string"}),
}


@dataclass(frozen=True)
class RunManifest:
    """A loaded run manifest: the seed, the dataset path and one config per section."""

    path: Path
    seed: int
    dataset: Path | None
    train: TrainConfig
    attack: AttackConfig  # the evaluation attack
    train_attack: AttackConfig
    occlusion: OcclusionConfig
    integrated_gradients: _IGSection
    deeplift: _DeepLiftSection
    coverage: _CoverageSection


def _section(path: Path, name: str, raw, seed: int):
    """Build section ``name``; each key is checked for its type, then by its config class."""
    cls, presets, keys = _SECTIONS[name]
    if not isinstance(raw, dict):
        _fail(path, name, f"must be an object, got {json.dumps(raw)}")
    args = dict(presets)
    if "seed" in cls.__dataclass_fields__:
        args["seed"] = seed
    cfg = cls(**args)
    for key, value in raw.items():
        field = f"{name}.{key}"
        if key not in keys:
            _fail(path, field, f"unknown key; {name} takes {', '.join(keys)}")
        value = _typed(path, field, value, keys[key])
        if keys[key] == _PAIR:
            args.update({f"{key}_h": value[0], f"{key}_w": value[1]})
        else:
            args[key] = value
        try:
            cfg = cls(**args)
        except ValueError as exc:
            _fail(path, field, str(exc))
    return cfg


def load_run_manifest(path, seed_override=None) -> RunManifest:
    """Read the JSON run manifest at ``path``; ``seed_override`` replaces its seed."""
    path = Path(path)
    if not path.is_file():
        _fail(path, "manifest", "no such file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        _fail(path, "manifest", f"invalid JSON ({exc})")
    if not isinstance(payload, dict):
        _fail(path, "manifest", f"must be a JSON object, got {type(payload).__name__}")

    seed = _typed(path, "seed", payload.get("seed", 0), "integer")
    if seed_override is not None:
        seed = int(seed_override)
    dataset = None
    if "dataset" in payload:
        dataset = path.parent / _typed(path, "dataset", payload["dataset"], "string")
        if not dataset.exists():
            _fail(path, "dataset", f"file {dataset} does not exist")
    sections = {name: _section(path, name, payload.get(name, {}), seed) for name in _SECTIONS}
    return RunManifest(path=path, seed=seed, dataset=dataset, **sections)


def _require_dataset(rm: RunManifest):
    if rm.dataset is None:
        _fail(rm.path, "dataset", "required by this command but missing")
    return load_dataset(rm.dataset)


class _RunStatus:
    """Written as 'running' up front, then 'ok' or 'failed: <error>'; a kill leaves 'running'."""

    def __init__(self, path: Path, command: str, seed):
        self.path = Path(path)
        self.tail = f"command={command}\nseed={seed}\n"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("running\n" + self.tail, encoding="utf-8")
        return self

    def __exit__(self, exc_type, exc, tb):
        state = "ok" if exc_type is None else f"failed: {exc_type.__name__}: {exc}"
        self.path.write_text(f"{state}\n{self.tail}", encoding="utf-8")
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
            result = train(model, ds, rm.train)
            digest = _train_digest(rm.train, None, args.init and Path(args.init).name)
        else:
            result = adv_train(model, ds, rm.train_attack, rm.train)
            digest = _train_digest(rm.train, rm.train_attack, args.init and Path(args.init).name)

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
    split, atk = rm.coverage.split, rm.attack
    out_path = Path(args.out)
    with _RunStatus(out_path.with_name(out_path.name + ".status"), "attack", rm.seed):
        reports = []
        for model_path in args.models:
            model, _ = load_model(model_path)
            clean = 100.0 * evaluate(model, ds, split)
            adv = 100.0 * adv_accuracy(model, ds, split, atk)
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
                    f"pgd_eps={atk.epsilon!r};pgd_step={atk.step_size!r};"
                    f"pgd_iters={atk.iters};split={split}"
                ),
            },
        )
    print(f"wrote {out_path}")
    return 0


def _map_inputs(rm: RunManifest, ds):
    """The IG path and the DeepLIFT reference that the manifest selects."""
    ig, ref = rm.integrated_gradients, rm.deeplift.reference
    zero = Tensor(np.zeros(ds.image_shape))
    mean = mean_baseline(ds) if "mean" in (ig.baseline, ref) else None
    ig_base = zero if ig.baseline == "zero" else mean
    return PathConfig(baseline=ig_base, n_steps=ig.n_steps), zero if ref == "zero" else mean


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
                amap = METHODS[method](model, x, target, rm.occlusion, path_cfg, ref)
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
    percentiles = rm.coverage.percentiles if args.percentiles is None else tuple(
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
            split=rm.coverage.split,
            occlusion_cfg=rm.occlusion,
            path_cfg=path_cfg,
            reference=ref,
        )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        report.to_csv(
            out_path,
            {
                "seed": rm.seed,
                "config": f"split={rm.coverage.split};ig_steps={path_cfg.n_steps};"
                f"ig_baseline={rm.integrated_gradients.baseline};"
                f"deeplift_reference={rm.deeplift.reference}",
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
