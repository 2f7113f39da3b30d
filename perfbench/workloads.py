"""Set-up and the four benchmark workloads, with their correctness checks.

Every workload runs against one corpus and one briefly trained ``tiny_cnn``,
both made from the workload seed. An op is one unit of user-visible work;
``check`` runs after the op, outside the timed region, and returns the
reasons the op's output is wrong (empty when it is right). ``digest_bytes``
gives the bytes that the run's determinism digest covers.

fracmap modules are looked up through ``importlib`` at call time, so that a
traced run's wrappers are the functions called.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

CORPUS_IMAGES = 96  # 76 train / 10 val / 10 test images, 5 of them annotated
SHARD_IMAGES = 32  # one minibatch of the train split per training op
PERCENTILES = (15, 75, 85, 95)
TRAIN_ATTACK = dict(epsilon=4 / 255, step_size=2 / 255, iters=5)  # reference recipe
IG_STEPS = 20
FD_STEP = 1e-5  # numeric_gradient's default step
FD_PIXELS = 4  # sampled pixels per saliency spot check
OCCLUSION_PIXELS = 3  # sampled pixels per occlusion spot check


def fm(name):
    return importlib.import_module(f"fracmap.{name}")


def setup(seed, workdir: Path):
    """Build the corpus and model from the seed, through disk, as the CLI does."""
    synth, model_mod, train_mod = fm("synth"), fm("model"), fm("train")
    ds = synth.generate_dataset(seed, CORPUS_IMAGES)
    manifest, _ = synth.save_dataset(ds, workdir / "corpus")
    ds = synth.load_dataset(manifest)
    c, h, w = ds.image_shape
    model = model_mod.tiny_cnn(seed, input_shape=(c, h, w), class_names=ds.class_names)
    model = train_mod.train(model, ds, train_mod.TrainConfig(epochs=1, seed=seed)).model
    path = workdir / "model.mwf"
    model_mod.save_model(model, path, meta={"seed": seed})
    model, _ = model_mod.load_model(path)
    return ds, model


def model_bytes(model):
    return b"".join(model.params[name].tobytes() for name in model.param_order())


def _target_class(ds):
    return ds.class_names.index("fractured")


class _Training:
    """One 1-epoch training call over a fixed shard, warm-started from the last op."""

    images_per_op = SHARD_IMAGES

    def __init__(self, ds, model, seed, workdir):
        synth = fm("synth")
        chosen = ds.split_indices("train")[:SHARD_IMAGES]
        ids = [ds.ids[i] for i in chosen]
        self.shard = synth.Dataset(
            images=[ds.images[i] for i in chosen],
            labels=[ds.labels[i] for i in chosen],
            split=["train"] * len(chosen),
            ids=ids,
            annotations=synth.AnnotationSet(
                {i: ds.annotations.entries[i] for i in ids if i in ds.annotations}
            ),
            class_names=ds.class_names,
            seed=ds.seed,
        )
        self.model = model
        self.previous = model

    def config(self, k):
        return fm("train").TrainConfig(epochs=1, seed=k)

    def op(self, k):
        self.previous = self.model
        result = self.fit(k)
        self.model = result.model
        return result

    def check(self, k, result):
        errors = []
        if not np.all(np.isfinite(result.loss_trace)):
            errors.append(f"non-finite training loss {result.loss_trace}")
        params = result.model.params
        if not all(np.all(np.isfinite(params[n])) for n in params):
            errors.append("non-finite parameters")
        if model_bytes(result.model) == model_bytes(self.previous):
            errors.append("training step left every parameter unchanged")
        return errors

    def digest_bytes(self, result):
        return model_bytes(result.model)


class TrainStd(_Training):
    name = "train_std"
    tail_percentile = 90

    def fit(self, k):
        return fm("train").train(self.model, self.shard, self.config(k))


class TrainAdv(_Training):
    name = "train_adv"
    tail_percentile = 60

    def __init__(self, ds, model, seed, workdir):
        super().__init__(ds, model, seed, workdir)
        self.attack = fm("attack").AttackConfig(**TRAIN_ATTACK)
        self.captured = []
        # Keep each perturbed batch the training step uses, so that the
        # check can test the PGD invariants after the op.
        train_mod = fm("train")
        pgd_batch = vars(train_mod).get("pgd_batch")
        if not callable(pgd_batch):
            raise RuntimeError("fracmap.train no longer binds pgd_batch; the PGD check has no input")

        def capture(model, xb, labels, cfg):
            out = pgd_batch(model, xb, labels, cfg)
            self.captured.append((np.asarray(xb), cfg.epsilon, out))
            return out

        train_mod.pgd_batch = capture

    def fit(self, k):
        self.captured.clear()
        return fm("train").adv_train(self.model, self.shard, self.attack, self.config(k))

    def check(self, k, result):
        errors = super().check(k, result)
        if not self.captured:
            errors.append("adversarial training made no PGD call")
        for xb, eps, adv in self.captured:
            if np.max(np.abs(adv - xb)) > eps + 1e-12:
                errors.append(f"PGD output leaves the {eps:.6f} ball")
            if adv.min() < 0.0 or adv.max() > 1.0:
                errors.append("PGD output leaves [0, 1]")
        return errors


def _pixel_sample(rng, shape, count):
    _, h, w = shape
    flat = rng.choice(h * w, size=count, replace=False)
    return [(int(i) // w, int(i) % w) for i in flat]


class Maps:
    """Saliency, DeepLIFT and IG-20 for one annotated image, scored and exported."""

    name = "maps"
    images_per_op = 1
    tail_percentile = 90

    def __init__(self, ds, model, seed, workdir):
        tensor = fm("tensor")
        self.ds, self.model, self.seed = ds, model, seed
        self.pool = [i for i in ds.split_indices("test") if ds.ids[i] in ds.annotations]
        self.c = _target_class(ds)
        self.zero = tensor.Tensor(np.zeros(model.input_shape))
        self.path = fm("attribution").PathConfig(baseline=self.zero, n_steps=IG_STEPS)
        self.out = workdir / "maps"
        self.out.mkdir()

    def op(self, k):
        A, C = fm("attribution"), fm("coverage")
        i = self.pool[k % len(self.pool)]
        x, image_id = self.ds.images[i], self.ds.ids[i]
        entry = self.ds.annotations.get(image_id)
        maps = [
            A.saliency(self.model, x, self.c),
            A.deeplift(self.model, x, self.c, self.zero),
            A.integrated_gradients(self.model, x, self.c, self.path),
        ]
        coverage = {}
        for amap in maps:
            for nu in PERCENTILES:
                coverage[amap.method, nu] = C.point_coverage(C.threshold_mask(amap, nu), entry)
            A.write_heatmap(
                amap,
                self.out / f"{amap.method}.pgm",
                self.out / f"{amap.method}.txt",
                extra={"image": image_id},
            )
        return i, maps, coverage

    def check(self, k, result):
        A, AD, pgm = fm("attribution"), fm("autodiff"), fm("pgm")
        i, (sal, dl, ig), coverage = result
        x, model, c = self.ds.images[i], self.model, self.c
        errors = []

        g = AD.grad_input(model, x, c).array
        if not np.array_equal(sal.values, np.abs(g[0])):
            errors.append("saliency differs from |grad_input|")
        points = self.ds.annotations.get(self.ds.ids[i]).points
        errors += self._spot_check_gradient(k, x, g, points)

        contrib = A.deeplift_contributions(model, x, c, self.zero)
        f = AD.forward_values(model, np.stack([x.array, self.zero.array]))[:, c]
        residual = abs(contrib.sum() - (f[0] - f[1]))
        if residual > 1e-8:
            errors.append(f"DeepLIFT sum misses f_c(x)-f_c(ref) by {residual:.3e}")
        if not np.array_equal(dl.values, np.abs(contrib[0])):
            errors.append("DeepLIFT map differs from |contributions|")

        for amap in (sal, dl, ig):
            ratios = [coverage[amap.method, nu] for nu in PERCENTILES]
            if not all(0.0 <= r <= 1.0 for r in ratios):
                errors.append(f"{amap.method} coverage outside [0, 1]: {ratios}")
            if any(b > a for a, b in zip(ratios, ratios[1:])):
                errors.append(f"{amap.method} coverage grows with the percentile: {ratios}")
            written = pgm.read_pgm(self.out / f"{amap.method}.pgm")
            if not np.array_equal(written, pgm.to_bytes_gray(A.normalize(amap).values)):
                errors.append(f"{amap.method} heatmap file differs from the map")
        return errors

    def _spot_check_gradient(self, k, x, g, points):
        # The whole-image kink_margin is 0 on this corpus (tied max-pool
        # windows on flat background), so it would skip every image. Each
        # sampled pixel is gated on its own instead: when the two one-sided
        # differences agree, no kink lies within the step and the central
        # difference is exact up to rounding. Half the pixels are crack
        # points, where the gradient is rarely zero.
        rng = np.random.Generator(np.random.PCG64((self.seed, k)))
        cracks = rng.choice(len(points), size=FD_PIXELS // 2, replace=False)
        pixels = [(points[j][1], points[j][0]) for j in cracks]
        pixels += _pixel_sample(rng, x.shape, FD_PIXELS - len(pixels))
        batch = np.repeat(x.array[None], 1 + 2 * len(pixels), axis=0)
        for j, (r, col) in enumerate(pixels):
            batch[1 + 2 * j, 0, r, col] += FD_STEP
            batch[2 + 2 * j, 0, r, col] -= FD_STEP
        f = fm("autodiff").forward_values(self.model, batch)[:, self.c]
        errors = []
        for j, (r, col) in enumerate(pixels):
            up = (f[1 + 2 * j] - f[0]) / FD_STEP
            down = (f[0] - f[2 + 2 * j]) / FD_STEP
            if abs(up - down) > 1e-6 * max(1.0, abs(up)):
                continue
            central = (f[1 + 2 * j] - f[2 + 2 * j]) / (2 * FD_STEP)
            if abs(g[0, r, col] - central) > 1e-6 * max(1.0, abs(central)):
                errors.append(f"gradient at ({r}, {col}) is {g[0, r, col]:.9g}, central difference {central:.9g}")
        return errors

    def digest_bytes(self, result):
        _, maps, coverage = result
        parts = [amap.values.tobytes() for amap in maps]
        parts.append(repr(sorted(coverage.items())).encode())
        return b"".join(parts)


class Occlusion:
    """Exact occlusion (8x8 patch, stride 4) for one test image."""

    name = "occlusion"
    images_per_op = 1
    tail_percentile = 65

    def __init__(self, ds, model, seed, workdir):
        self.ds, self.model, self.seed = ds, model, seed
        self.pool = ds.split_indices("test")
        self.c = _target_class(ds)
        self.cfg = fm("attribution").OcclusionConfig()

    def op(self, k):
        i = self.pool[k % len(self.pool)]
        return i, fm("attribution").occlusion(self.model, self.ds.images[i], self.c, self.cfg)

    def check(self, k, result):
        # A pixel's score is the mean drop over the patches covering it;
        # recompute those drops directly for a few sampled pixels.
        i, amap = result
        x, cfg = self.ds.images[i].array, self.cfg
        _, h, w = x.shape
        rng = np.random.Generator(np.random.PCG64((self.seed, k)))
        pixels = _pixel_sample(rng, x.shape, OCCLUSION_PIXELS)
        rows = range(0, h - cfg.patch_h + 1, cfg.stride_h)
        cols = range(0, w - cfg.patch_w + 1, cfg.stride_w)
        variants, owners = [x], []
        for j, (r, col) in enumerate(pixels):
            for pi in rows:
                for pj in cols:
                    if pi <= r < pi + cfg.patch_h and pj <= col < pj + cfg.patch_w:
                        occ = x.copy()
                        occ[:, pi : pi + cfg.patch_h, pj : pj + cfg.patch_w] = cfg.baseline_value
                        variants.append(occ)
                        owners.append(j)
        f = fm("autodiff").forward_values(self.model, np.stack(variants))[:, self.c]
        drops = f[0] - f[1:]
        errors = []
        for j, (r, col) in enumerate(pixels):
            mine = [d for d, o in zip(drops, owners) if o == j]
            expected = float(np.mean(mine)) if mine else 0.0
            if abs(amap.values[r, col] - expected) > 1e-12:
                errors.append(
                    f"occlusion at ({r}, {col}) is {amap.values[r, col]:.15g}, direct drops give {expected:.15g}"
                )
        return errors

    def digest_bytes(self, result):
        return result[1].values.tobytes()


WORKLOADS = {cls.name: cls for cls in (TrainStd, TrainAdv, Maps, Occlusion)}
