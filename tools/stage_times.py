#!/usr/bin/env python3
"""Wall time of the pipeline stages that no perfbench workload times.

    python3 tools/stage_times.py TREE [REPEATS] [--json PATH]   (about a minute on a 2-vCPU host)

It first prints the host, so that before/after numbers name it: ``nproc``,
the cores the process may run on (its affinity mask, which sets how many
row parts of a training step, a PGD or an integrated-gradients pass run at
once), the BLAS build, and whether BLAS is pinned to one thread.

It then times two stages on the test split of a 64x64 corpus of 160
images from seed 5 (16 test images, 8 of them annotated), with two untrained
``tiny_cnn`` models (seeds 5 and 6): each method's arithmetic does not
depend on the weights' values. Each stage runs REPEATS times (default 20),
and the script prints the median and the fastest run in seconds and the
median count of minor page faults per run (the process's ``ru_minflt``
delta), which shows allocation churn without a tracer:

* ``coverage_table``: both models, all four methods (occlusion 8x8 at
  stride 4, IG-20 and DeepLIFT from a zero image), percentiles
  0/15/75/85/95, over the annotated test images. The script fails if a
  cell reads ``N/A``, since such a cell times no map;
* ``adv_accuracy``: PGD-10 (epsilon 0.0157, step 0.0039) on the test
  split, for both models.

Next it times two training epochs of ``tiny_cnn(5)`` at batch 32 on the
train split of the same corpus, REPEATS times each, with the same three
figures and the images per second of the median:
one standard epoch, and one adversarial epoch against PGD-5 (epsilon 4/255,
step 2/255, the reference recipe of ``perfbench/``'s ``train_adv``).

Then it prints the median milliseconds per image of each attribution
method (saliency, occlusion 8x8 at stride 4, DeepLIFT from a zero image
and IG-20 from a zero image), and of one occlusion map with a 2x2 patch at
stride 1 (3,969 variants in 16 passes over one prefix pass of x), on
the first 8 annotated images of a 64x64 corpus from seed 5, the size the
pipeline's maps are made at, explaining ``fractured`` with an untrained
``tiny_cnn(5)``: each method's arithmetic does not depend on the weights'
values. The maps take turns, one image each, REPEATS rounds over the images.

Last it prints a per-layer table: the median forward time of every
``tiny_cnn(0)`` layer on one batch of 32 uniform 64x64 images (seed 0),
and its backward time in two halves, over REPEATS rounds in which the
layers take turns. Each backward takes a standard normal output gradient.
The ``input grad`` column times the input gradient alone
(``grad_names=frozenset()``); the ``param grads`` column times every
parameter gradient the layer has, without the input gradient
(``input_grad=False``), totalled over the batch as a summed reverse pass
totals them, and reads ``-`` for a layer without trainable parameters.

BLAS is pinned to one thread, as in perfbench, unless numpy was loaded
before ``main`` ran. Run it once on the parent commit's tree and once on a
change's to compare the two. With ``--json PATH`` it also writes what it
prints to PATH, as one JSON object: ``host``, ``stages``, ``epochs``,
``maps_ms_per_image`` and ``layers_ms``, times in the units printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

STAGE_ATTACK = {"epsilon": 0.0157, "step_size": 0.0039, "iters": 10, "seed": 5}
PERCENTILES = (0.0, 15.0, 75.0, 85.0, 95.0)
METHODS = ("saliency", "occlusion", "deeplift", "integrated_gradients")
LAYER_BATCH = 32
LAYER_INPUT = (1, 64, 64)
MAP_IMAGES = 8
EPOCH_IMAGES = 160
EPOCH_ATTACK = {"epsilon": 4 / 255, "step_size": 2 / 255, "iters": 5}


def _timed(fn, repeats):
    """Median and fastest wall time, and median minor page faults, per run."""
    times, faults = [], []
    for _ in range(repeats):
        minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
    return statistics.median(times), min(times), statistics.median(faults)


def _elapsed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def _host_facts(blas_pinned):
    """nproc, the cores this process may use, the BLAS build, and its pinning."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_pinned": blas_pinned,
    }


def _layer_times(tiny_cnn, repeats):
    """Median forward, input-gradient and parameter-gradient seconds per
    tiny_cnn layer at batch 32; the last is None for a layer without
    trainable parameters.

    The layers take turns, each running its passes once per round, so that
    a slow spell of a shared host spreads over all of them.
    """
    import numpy as np

    model = tiny_cnn(0, input_shape=LAYER_INPUT)
    rng = np.random.default_rng(0)
    cur = rng.random((LAYER_BATCH,) + LAYER_INPUT)
    cases = []
    for layer in model.layers:
        out, saved = layer.forward(model.params, cur)
        gy = rng.standard_normal(out.shape)
        names = frozenset(name for name in layer.param_names() if model.trainable[name])
        cases.append((layer, cur, saved, gy, names))
        cur = out
    times = {layer.name: ([], [], []) for layer, *_ in cases}
    for _ in range(repeats):
        for layer, x, saved, gy, names in cases:
            fwd, gx, gp = times[layer.name]
            fwd.append(_elapsed(layer.forward, model.params, x))
            gx.append(_elapsed(layer.backward, model.params, saved, gy, frozenset()))
            if names:
                gp.append(_elapsed(_param_grads, layer, model.params, saved, gy, names))
    return [
        (name, statistics.median(f), statistics.median(g), statistics.median(p) if p else None)
        for name, (f, g, p) in times.items()
    ]


def _param_grads(layer, params, saved, gy, names):
    """The layer's parameter gradients, its terms totalled over the batch."""
    _, terms = layer.backward(params, saved, gy, names, input_grad=False)
    return {name: t.total(*t.arrays) for name, t in terms.items()}


def _stages(ds):
    """``coverage_table`` and PGD-10 ``adv_accuracy`` on the test split of
    ``ds`` for two untrained tiny_cnn models, each as a callable."""
    from fracmap.attack import AttackConfig, adv_accuracy
    from fracmap.coverage import coverage_table
    from fracmap.model import tiny_cnn

    models = {f"tiny_cnn({seed})": tiny_cnn(seed, input_shape=ds.image_shape) for seed in (5, 6)}
    atk = AttackConfig(**STAGE_ATTACK)

    def table():
        return coverage_table(models, METHODS, PERCENTILES, ds, ds.annotations)

    na = [f"{r.model_id} {r.method} {r.percentile:g}: {r.reason}" for r in table().rows if r.coverage is None]
    if na:
        raise SystemExit("coverage_table has N/A cells:\n" + "\n".join(na))
    return {
        "coverage_table": table,
        "adv_accuracy": lambda: [adv_accuracy(m, ds, "test", atk) for m in models.values()],
    }


def _epochs(ds):
    """The train-split size, and one standard and one PGD-5 epoch of
    tiny_cnn(5) at batch 32 on ``ds``, each as a callable."""
    from fracmap.attack import AttackConfig
    from fracmap.model import tiny_cnn
    from fracmap.train import TrainConfig, adv_train, train

    model = tiny_cnn(5, input_shape=ds.image_shape)
    cfg = TrainConfig(epochs=1, batch_size=LAYER_BATCH, seed=5)
    atk = AttackConfig(**EPOCH_ATTACK)
    return len(ds.split_indices("train")), {
        "standard epoch": lambda: train(model, ds, cfg),
        "PGD-5 epoch": lambda: adv_train(model, ds, atk, cfg),
    }


def _map_times(repeats):
    """Median ms per image of each attribution method, and of a 2x2/stride-1
    occlusion map, on 64x64 annotated images."""
    import numpy as np

    from fracmap.attribution import METHODS as BUILDERS
    from fracmap.attribution import OcclusionConfig, PathConfig, occlusion
    from fracmap.model import tiny_cnn
    from fracmap.synth import generate_dataset
    from fracmap.tensor import Tensor

    ds = generate_dataset(5, 4 * MAP_IMAGES)
    images = [x for x, image_id in zip(ds.images, ds.ids) if image_id in ds.annotations]
    model = tiny_cnn(5, input_shape=ds.image_shape)
    zero = Tensor(np.zeros(ds.image_shape))
    args = (OcclusionConfig(), PathConfig(baseline=zero), zero)
    c = ds.class_names.index("fractured")
    maps = {method: lambda x, build=BUILDERS[method]: build(model, x, c, *args) for method in METHODS}
    maps["occlusion 2x2/1"] = lambda x: occlusion(model, x, c, OcclusionConfig(2, 2, 1, 1))
    times = {name: [] for name in maps}
    for _ in range(repeats):
        for x in images[:MAP_IMAGES]:
            for name, ms in times.items():
                start = time.perf_counter()
                maps[name](x)
                ms.append(1e3 * (time.perf_counter() - start))
    return {name: statistics.median(ms) for name, ms in times.items()}


def _timings(median, fastest, faults):
    return {"median_s": median, "fastest_s": fastest, "minor_faults": faults}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("tree")
    parser.add_argument("repeats", nargs="?", type=int, default=20)
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)
    repeats = args.repeats
    blas_pinned = "numpy" not in sys.modules or os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    host = _host_facts(blas_pinned)
    print(
        f"host: nproc {host['nproc']}, {host['affinity_cores']} cores in the affinity mask, "
        f"BLAS {host['blas']}, {'pinned to 1 thread' if blas_pinned else 'not pinned'}"
    )
    report = {"host": host, "repeats": repeats}
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    from fracmap.model import tiny_cnn
    from fracmap.synth import generate_dataset

    ds = generate_dataset(5, EPOCH_IMAGES)
    test = ds.split_indices("test")
    n_annotated = sum(ds.ids[i] in ds.annotations for i in test)
    print(f"tree {Path(args.tree).resolve()}, {len(test)} test images, {n_annotated} annotated")
    report["stages"] = {"test_images": len(test), "annotated_test_images": n_annotated}
    for name, fn in _stages(ds).items():
        median, fastest, faults = _timed(fn, repeats)
        report["stages"][name] = _timings(median, fastest, faults)
        print(
            f"{name}: median {median:.3f} s, fastest {fastest:.3f} s, "
            f"{faults:g} minor faults per run (median) over {repeats} runs"
        )
    n_train, epochs = _epochs(ds)
    print(f"training epochs at batch {LAYER_BATCH} on {n_train} train images of 64x64")
    report["epochs"] = {"batch": LAYER_BATCH, "train_images": n_train}
    for name, fn in epochs.items():
        median, fastest, faults = _timed(fn, repeats)
        report["epochs"][name] = dict(_timings(median, fastest, faults), images_per_s=n_train / median)
        print(
            f"{name}: median {median:.3f} s ({n_train / median:.0f} images/s), fastest "
            f"{fastest:.3f} s, {faults:g} minor faults per run (median) over {repeats} runs"
        )
    print(f"attribution maps on {MAP_IMAGES} annotated 64x64 images: median ms per image")
    report["maps_ms_per_image"] = _map_times(repeats)
    for method, ms in report["maps_ms_per_image"].items():
        print(f"{method:<20} {ms:7.2f}")
    print(f"tiny_cnn layers at batch {LAYER_BATCH}, {LAYER_INPUT}: median ms over {repeats} rounds")
    print("layer  forward  input grad  param grads")
    report["layers_ms"] = {}
    for name, fwd, gx, gp in _layer_times(tiny_cnn, repeats):
        report["layers_ms"][name] = {
            "forward": 1e3 * fwd,
            "input_grad": 1e3 * gx,
            "param_grads": None if gp is None else 1e3 * gp,
        }
        params = "-" if gp is None else f"{1e3 * gp:.2f}"
        print(f"{name:<6} {1e3 * fwd:7.2f}  {1e3 * gx:10.2f}  {params:>11}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
