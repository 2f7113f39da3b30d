"""Command-line pipeline: synth, train, attack, attribute, coverage.

Every command is a pure function of its arguments and the global seed:
rerunning with identical inputs reproduces byte-identical artifacts. Each
artifact embeds the seed and a digest of the configuration that produced
it (weight-file meta entries, ``#`` provenance lines in CSVs, heatmap
sidecars, manifest header keys). ``main`` runs every command inside its run
status: ``run-status.txt`` in the output directory of ``synth`` and
``attribute``, ``<out>.status`` beside the output file of the others. So
``--out`` must not name a file for the first two, and must name a file, not
a directory, for the others; that is checked first. The status is
written as ``running`` first, then ``ok`` or ``failed: <error>``, so a
failed run leaves a visible flag instead of silently partial outputs. The
status is written before the command loads its manifest, dataset or model,
so a failure there is recorded too. Every artifact is written to a
temporary file that replaces it only once complete (``atomic_open``), so a
failure never leaves one half-written.

Shared configuration comes from a JSON run manifest (``--manifest``). The
README ("Command-line pipeline") holds a complete example and the rules for
its keys; ``_SECTIONS`` is their table in code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import AttackConfig, RobustnessReport, adv_accuracy, delta_acc, rank_models
from .atomic import atomic_open
from .attribution import METHODS, OcclusionConfig, PathConfig, mean_baseline, write_heatmap
from .coverage import check_methods, check_percentiles, coverage_table, write_csv
from .model import load_model, save_model, tiny_cnn
from .synth import FRACTURED, SynthConfig, generate_dataset, load_dataset, save_dataset
from .tensor import Tensor
from .train import TrainConfig, adv_train, evaluate, train

__all__ = ["main", "ManifestError", "load_run_manifest"]


class ManifestError(ValueError):
    """Raised when the run manifest is missing or malformed; names the manifest and the field."""


def _fail(path: Path, field: str, problem: str):
    raise ManifestError(f"manifest {path}: field {field!r}: {problem}")


# JSON type of a manifest value -> (whether a parsed value has it, its config form).
# Python's json reads NaN and Infinity; a "number" must be finite.
_JSON_TYPES = {
    "integer": (lambda v: type(v) is int, int),
    "number": (lambda v: type(v) in (int, float) and math.isfinite(v), float),
    "boolean": (lambda v: type(v) is bool, bool),
    "string": (lambda v: type(v) is str, str),
    '"zero" | "mean"': (lambda v: v in ("zero", "mean"), str),
    "[integer, integer]": (
        lambda v: type(v) is list and len(v) == 2 and all(type(d) is int for d in v),
        tuple,
    ),
    "[number, ...]": (
        lambda v: type(v) is list
        and all(type(nu) in (int, float) and math.isfinite(nu) for nu in v),
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
        check_percentiles(self.percentiles)


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


class _RunStatus:
    """Written as 'running' up front, then 'ok' or 'failed: <error>'; a kill leaves 'running'.

    The status names the run's seed: the ``--seed`` override given here, then
    the manifest's once ``load_inputs`` has read it (``unknown`` before that).
    """

    def __init__(self, path: Path, command: str, seed):
        self.path = path
        self.command = command
        self.seed = seed

    def load_inputs(self, args):
        """The run manifest and the dataset it names, which every command but synth reads."""
        rm = load_run_manifest(args.manifest, seed_override=args.seed)
        self.seed = rm.seed
        if rm.dataset is None:
            _fail(rm.path, "dataset", "required by this command but missing")
        return rm, load_dataset(rm.dataset)

    def _write(self, state: str) -> None:
        seed = "unknown" if self.seed is None else self.seed
        with atomic_open(self.path) as fh:
            fh.write(f"{state}\ncommand={self.command}\nseed={seed}\n")

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._write("running")
        return self

    def __exit__(self, exc_type, exc, tb):
        self._write("ok" if exc_type is None else f"failed: {exc_type.__name__}: {exc}")
        return False


def _attack_digest(atk: AttackConfig) -> str:
    """The attack's fields for a config digest; the random start and its seed
    appear only when the start is used, so other digests keep their bytes."""
    digest = f"pgd_eps={atk.epsilon!r};pgd_step={atk.step_size!r};pgd_iters={atk.iters}"
    if atk.random_start:
        digest += f";pgd_random_start=1;pgd_seed={atk.seed}"
    return digest


def _train_digest(cfg: TrainConfig, atk: AttackConfig | None, init_name: str | None) -> str:
    parts = [
        f"train;epochs={cfg.epochs};lr={cfg.learning_rate!r};batch={cfg.batch_size}",
        f"seed={cfg.seed}",
    ]
    # A zero-radius attack is the identity, so the effective procedure (and
    # therefore the digest and the weight bytes) match standard training.
    if atk is not None and atk.epsilon > 0:
        parts.append(_attack_digest(atk))
    if init_name:
        parts.append(f"init={init_name}")
    return ";".join(parts)


def cmd_synth(args, status) -> str:
    cfg = SynthConfig(height=args.size, width=args.size)
    ds = generate_dataset(args.seed, args.n, cfg)
    manifest_path, ann_path = save_dataset(ds, args.out)
    return f"wrote {args.n} images, {manifest_path}, {ann_path}"


def cmd_train(args, status) -> str:
    rm, ds = status.load_inputs(args)
    if args.init:
        model, _ = load_model(args.init)
    else:
        model = tiny_cnn(rm.seed, input_shape=ds.image_shape, class_names=ds.class_names)
    if args.mode == "standard":
        result, atk = train(model, ds, rm.train), None
    else:
        result, atk = adv_train(model, ds, rm.train_attack, rm.train), rm.train_attack
    digest = _train_digest(rm.train, atk, args.init and Path(args.init).name)

    save_model(result.model, args.out, meta={"seed": rm.seed, "config": digest})
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
    metrics_path = f"{args.out}.metrics.json"
    with atomic_open(metrics_path) as fh:
        fh.write(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    return f"wrote {args.out} and {metrics_path}"


def _unique(ids, flag: str, noun: str):
    """``ids``, checked for repeats; a repeat is reported under the flag's name."""
    for i, item in enumerate(ids):
        if item in ids[:i]:
            raise ValueError(f"{flag}: {noun} {item!r} is repeated")
    return ids


def _load_models(paths) -> dict:
    """The ``--models`` files' models, keyed by their ids, the file stems."""
    ids = _unique([Path(p).stem for p in paths], "--models", "model id")
    return {model_id: load_model(p)[0] for model_id, p in zip(ids, paths)}


def cmd_attack(args, status) -> str:
    rm, ds = status.load_inputs(args)
    split, atk = rm.coverage.split, rm.attack
    reports = []
    for model_id, model in _load_models(args.models).items():
        clean = 100.0 * evaluate(model, ds, split)
        adv = 100.0 * adv_accuracy(model, ds, split, atk)
        reports.append(RobustnessReport(model_id, clean, adv, delta_acc(clean, adv)))
    ranked = rank_models(reports)
    write_csv(
        args.out,
        "model,clean_acc,adv_acc,delta_acc",
        [f"{r.model_id},{r.clean_acc:.2f},{r.adv_acc:.2f},{r.delta_acc:.2f}" for r in ranked],
        {
            "seed": rm.seed,
            "config": f"{_attack_digest(atk)};split={split}",
        },
    )
    return f"wrote {args.out}"


def _map_inputs(rm: RunManifest, ds):
    """The IG path and the DeepLIFT reference that the manifest selects."""
    ig, ref = rm.integrated_gradients, rm.deeplift.reference
    zero = Tensor(np.zeros(ds.image_shape))
    mean = mean_baseline(ds) if "mean" in (ig.baseline, ref) else None
    ig_base = zero if ig.baseline == "zero" else mean
    return PathConfig(baseline=ig_base, n_steps=ig.n_steps), zero if ref == "zero" else mean


def _parse_list(raw, flag: str, convert, check) -> tuple:
    """A comma-separated list flag: its entries converted and checked; a
    problem is reported under the flag's name."""
    try:
        items = tuple(convert(v.strip()) for chunk in raw for v in chunk.split(",") if v.strip())
        check(items)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return items


def cmd_attribute(args, status) -> str:
    target = args.target_class if args.target_class is not None else FRACTURED
    rm, ds = status.load_inputs(args)
    methods = _parse_list(args.methods, "--methods", str, check_methods)
    model, _ = load_model(args.model)
    model.check_classes(ds.class_names)
    missing = [i for i in _unique(args.images, "--images", "image id") if i not in ds.ids]
    if missing:
        raise ValueError(f"images not in the dataset: {', '.join(missing)}")
    path_cfg, ref = _map_inputs(rm, ds)
    for image_id in args.images:
        x = ds.images[ds.index_of(image_id)]
        for method in methods:
            amap = METHODS[method](model, x, target, rm.occlusion, path_cfg, ref)
            stem = f"{image_id}__{method}__c{target}"
            write_heatmap(
                amap,
                args.out / f"{stem}.pgm",
                args.out / f"{stem}.txt",
                extra={"seed": rm.seed, "image": image_id},
            )
    return f"wrote {len(args.images) * len(methods)} heatmaps to {args.out}"


def cmd_coverage(args, status) -> str:
    rm, ds = status.load_inputs(args)
    methods = _parse_list(args.methods, "--methods", str, check_methods)
    percentiles = rm.coverage.percentiles
    if args.percentiles is not None:
        percentiles = _parse_list(args.percentiles, "--percentiles", float, check_percentiles)
    models = _load_models(args.models)
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
    report.to_csv(
        args.out,
        {
            "seed": rm.seed,
            "config": f"split={rm.coverage.split};{rm.occlusion.digest()};"
            f"ig_steps={path_cfg.n_steps};ig_baseline={rm.integrated_gradients.baseline};"
            f"deeplift_reference={rm.deeplift.reference}",
        },
    )
    return f"wrote {args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmap",
        description="Synthetic fracture corpus, CNN training/attack, attribution maps, coverage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # the commands that read a run manifest
    run.add_argument("--manifest", required=True, help="run manifest JSON")
    run.add_argument("--seed", type=int, default=None, help="override the manifest seed")

    p = sub.add_parser("synth", help="generate a synthetic PGM corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="total image count (even)")
    p.add_argument("--size", type=int, default=64, help="image side length")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[run], help="train a model on a dataset")
    p.add_argument("--mode", choices=("standard", "adversarial"), required=True)
    p.add_argument("--init", help="optional MWF1 weights to start from")
    p.add_argument("--out", type=Path, required=True, help="output weight file (MWF1)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", parents=[run], help="clean/adversarial accuracy report")
    p.add_argument("--models", nargs="+", required=True, help="MWF1 weight files")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("attribute", parents=[run], help="write attribution heatmaps")
    p.add_argument("--model", required=True)
    p.add_argument("--methods", nargs="+", required=True, help=f"from: {', '.join(METHODS)}")
    p.add_argument("--images", nargs="+", required=True, help="image ids from the dataset")
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser(
        "coverage", parents=[run], help="point-coverage table across models and methods"
    )
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--methods", nargs="+", required=True, help=f"from: {', '.join(METHODS)}")
    p.add_argument("--percentiles", nargs="+", default=None, help="e.g. 15,75,85,95")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.set_defaults(func=cmd_coverage)

    return parser


def main(argv=None) -> int:
    """Run one command inside its run status and print the line it returns."""
    args = build_parser().parse_args(argv)
    label = f"train-{args.mode}" if args.command == "train" else args.command
    out_is_file = args.command not in ("synth", "attribute")
    try:
        if not out_is_file:
            if args.out.is_file():
                raise ValueError(f"--out: {str(args.out)!r} is a file, not a directory")
            status_path = args.out / "run-status.txt"
        elif args.out.name:
            status_path = args.out.with_name(args.out.name + ".status")
        else:
            raise ValueError(f"--out: {str(args.out)!r} names no file")
        with _RunStatus(status_path, label, args.seed) as status:
            if out_is_file and args.out.is_dir():
                raise ValueError(f"--out: {str(args.out)!r} is a directory, not a file")
            done = args.func(args, status)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
