"""Procedural fracture-image corpus with ground-truth crack coordinates.

Each sample is a dark textured background (smoothed noise, soft blobs, a
faint ramp) with one bright elongated bone drawn as an anti-aliased capsule.
Fractured samples additionally carve a jagged dark crack across the bone and
record annotation points sampled along the crack spine; cracks only ever
darken pixels, so every annotation point is strictly darker than the same
pixel before the crack was applied.

Generation is a pure function of (seed, n, config): per-image streams derive
from the dataset seed and the image index, images are quantized to the 8-bit
grid at creation (so a save/load round trip through PGM is exact), and split
assignment is stratified with exact per-class counts.

On disk a dataset is a manifest text file listing one image per line (path,
id, label, split) plus header keys (seed, image size, class names,
annotation file), with images as binary PGM. The annotation file is JSON:
``{"entries": {image_id: [[x, y], ...]}, "meta": {...}}`` with x as column
index and y as row index; every id names an image of the dataset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .pgm import read_pgm, to_bytes_gray, to_unit, write_pgm
from .tensor import Tensor

__all__ = [
    "CLASS_NAMES",
    "SPLITS",
    "SynthConfig",
    "Sample",
    "AnnotationEntry",
    "AnnotationSet",
    "Dataset",
    "generate_dataset",
    "render_sample",
    "save_dataset",
    "load_dataset",
    "save_annotations",
    "load_annotations",
]

CLASS_NAMES = ("fractured", "healthy")
FRACTURED, HEALTHY = 0, 1
SPLITS = ("train", "val", "test")

# Fixed look of every corpus; ranges are (low, high) draws per image.
BASE_RANGE = (0.10, 0.20)  # background level
BLOB_COUNT = (2, 5)  # half-open, rng.integers convention
NOISE_SIGMA = 0.025
BONE_BRIGHTNESS = (0.60, 0.80)
CRACK_DEPTH = (0.35, 0.55)  # multiplicative darkening
CRACK_HALFWIDTH = (1.0, 1.4)
ANNOTATION_POINTS = 5  # per fracture, before deduplication
CHANNEL_GAINS = (1.0, 0.94, 0.88)  # per channel of a 3-channel corpus


@dataclass(frozen=True)
class SynthConfig:
    """Generator geometry and split fractions."""

    height: int = 64
    width: int = 64
    channels: int = 1  # 3 exercises the channel-reduction logic
    train_frac: float = 0.8
    val_frac: float = 0.1
    # bone capsule
    bone_halfwidth: tuple = (4.0, 6.5)
    bone_halflen_frac: tuple = (0.34, 0.46)

    def __post_init__(self):
        if self.height < 8 or self.width < 8:
            raise ValueError("images must be at least 8x8")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if self.train_frac < 0 or self.val_frac < 0 or self.train_frac + self.val_frac > 1:
            raise ValueError("split fractions must be nonnegative and sum to <= 1")


@dataclass
class Sample:
    """One rendered image plus its construction ground truth."""

    image: np.ndarray  # (H, W) in [0, 1], quantized to the 8-bit grid
    points: tuple  # ((x, y), ...) annotation pixels; empty when healthy
    pre_crack: np.ndarray  # the same image before the crack was carved


@dataclass(frozen=True)
class AnnotationEntry:
    """Expert-marked pixel coordinates for one image: (x=column, y=row)."""

    image_id: str
    points: tuple

    def __post_init__(self):
        pts = tuple((int(x), int(y)) for x, y in self.points)
        if len(set(pts)) != len(pts):
            raise ValueError(f"duplicate annotation points for {self.image_id!r}")
        object.__setattr__(self, "points", pts)


@dataclass
class AnnotationSet:
    """Annotation entries keyed by image id."""

    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = {
            image_id: AnnotationEntry(image_id, points).points
            for image_id, points in self.entries.items()
        }

    def get(self, image_id: str) -> AnnotationEntry:
        return AnnotationEntry(image_id, self.entries[image_id])

    def __contains__(self, image_id: str) -> bool:
        return image_id in self.entries


@dataclass
class Dataset:
    """In-memory corpus: images, labels, split tags, ids, annotations."""

    images: list  # list[Tensor], each (C, H, W) with values in [0, 1]
    labels: list  # int per image, indexing class_names
    split: list  # one of SPLITS per image
    ids: list  # stable image identifiers
    annotations: AnnotationSet
    class_names: tuple = CLASS_NAMES
    seed: int | None = None

    def __post_init__(self):
        n = len(self.images)
        if not (len(self.labels) == len(self.split) == len(self.ids) == n):
            raise ValueError("images, labels, split, and ids must align")
        for img, label, tag, image_id in zip(self.images, self.labels, self.split, self.ids):
            if tag not in SPLITS:
                raise ValueError(f"image {image_id!r} has split {tag!r}, not one of {SPLITS}")
            if img.shape != self.images[0].shape:
                raise ValueError(
                    f"image {image_id!r} has shape {img.shape}, but the first image "
                    f"{self.ids[0]!r} has {self.images[0].shape}"
                )
            if img.array.min() < 0.0 or img.array.max() > 1.0:
                raise ValueError(f"image {image_id!r} has values outside [0, 1]")
            if label == FRACTURED and image_id not in self.annotations:
                raise ValueError(f"fractured image {image_id!r} lacks annotation points")
            if label == HEALTHY and image_id in self.annotations:
                raise ValueError(f"healthy image {image_id!r} must not carry annotations")
            if image_id in self.annotations:
                _, h, w = img.shape
                for x, y in self.annotations.get(image_id).points:
                    if not (0 <= x < w and 0 <= y < h):
                        raise ValueError(
                            f"annotation ({x}, {y}) for {image_id!r} outside the {w}x{h} image"
                        )
        self._index = {image_id: i for i, image_id in enumerate(self.ids)}
        if len(self._index) < n:
            dup = next(image_id for i, image_id in enumerate(self.ids) if self._index[image_id] != i)
            raise ValueError(f"image id {dup!r} appears more than once")
        for image_id in self.annotations.entries:
            if image_id not in self._index:
                raise ValueError(f"annotated image {image_id!r} is not in the dataset")

    def split_indices(self, split: str) -> list:
        return [i for i, s in enumerate(self.split) if s == split]

    def batches(self, split: str, size: int, rng=None):
        """Yield ``(xb (B, C, H, W), yb (B,))`` over a split, ``size`` images at a time.

        Images come in index order, or, given ``rng``, in the order of one
        ``rng.permutation`` of the split; the last batch may be short.
        """
        idx = self.split_indices(split)
        if not idx:
            raise ValueError(f"split {split!r} is empty")
        if rng is not None:
            idx = [idx[j] for j in rng.permutation(len(idx))]
        for start in range(0, len(idx), size):
            chunk = idx[start : start + size]
            xb = np.stack([self.images[i].array for i in chunk])
            yield xb, np.array([self.labels[i] for i in chunk])

    def index_of(self, image_id: str) -> int:
        return self._index[image_id]

    @property
    def image_shape(self):
        return self.images[0].shape


def _smooth(values: np.ndarray, passes: int = 2) -> np.ndarray:
    # Separable 3-tap box blur, reflect-padded.
    out = values
    for _ in range(passes):
        p = np.pad(out, 1, mode="edge")
        out = (p[:-2, 1:-1] + p[1:-1, 1:-1] + p[2:, 1:-1]) / 3.0
        p = np.pad(out, ((0, 0), (1, 1)), mode="edge")
        out = (p[:, :-2] + p[:, 1:-1] + p[:, 2:]) / 3.0
    return out


def _segment_distance(px, py, ax, ay, bx, by):
    # Distance from grid points (px, py) to segment (a, b).
    vx, vy = bx - ax, by - ay
    norm2 = vx * vx + vy * vy
    if norm2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * vx + (py - ay) * vy) / norm2, 0.0, 1.0)
    return np.hypot(px - (ax + t * vx), py - (ay + t * vy))


def render_sample(rng: np.random.Generator, cfg: SynthConfig, fractured: bool) -> Sample:
    """Draw one image; exposed so tests can inspect the construction."""
    h, w = cfg.height, cfg.width
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)

    # background: base level, faint ramp, soft blobs, smoothed pixel noise
    img = np.full((h, w), rng.uniform(*BASE_RANGE))
    gx, gy = rng.uniform(-0.05, 0.05, size=2)
    img += gx * (xx / w - 0.5) + gy * (yy / h - 0.5)
    for _ in range(int(rng.integers(*BLOB_COUNT))):
        cx, cy = rng.uniform(0, w), rng.uniform(0, h)
        s = rng.uniform(6.0, 16.0)
        img += rng.uniform(0.03, 0.10) * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * s * s)
        )
    img += NOISE_SIGMA * _smooth(rng.normal(0.0, 1.0, (h, w)))

    # bone: bright anti-aliased capsule through the center region
    theta = rng.uniform(0.0, math.pi)
    ux, uy = math.cos(theta), math.sin(theta)
    ccx = w / 2 + rng.uniform(-5.0, 5.0)
    ccy = h / 2 + rng.uniform(-5.0, 5.0)
    halflen = rng.uniform(*cfg.bone_halflen_frac) * min(h, w)
    halfwid = rng.uniform(*cfg.bone_halfwidth)
    t_axis = (xx - ccx) * ux + (yy - ccy) * uy
    tc = np.clip(t_axis, -halflen, halflen)
    dist = np.hypot(xx - (ccx + tc * ux), yy - (ccy + tc * uy))
    alpha = np.clip((halfwid - dist) / 1.2, 0.0, 1.0)
    brightness = rng.uniform(*BONE_BRIGHTNESS)
    # slightly darker medullary core so the bone is not flat
    d_perp = -(xx - ccx) * uy + (yy - ccy) * ux
    bone_val = brightness * (1.0 - 0.10 * np.exp(-((d_perp / (0.5 * halfwid)) ** 2)))
    img = img * (1.0 - alpha) + bone_val * alpha

    pre_crack = np.clip(img, 0.0, 1.0)
    points = ()
    if fractured:
        # crack: jagged polyline crossing the bone near-perpendicularly
        t0 = rng.uniform(-0.55, 0.55) * halflen
        tilt = rng.uniform(-0.35, 0.35)
        vx = -uy * math.cos(tilt) + ux * math.sin(tilt)
        vy = ux * math.cos(tilt) + uy * math.sin(tilt)
        c0x, c0y = ccx + t0 * ux, ccy + t0 * uy
        span = halfwid + 1.5
        n_seg = max(8, int(2 * span))
        ss = np.linspace(-span, span, n_seg)
        jag = np.cumsum(rng.uniform(-0.6, 0.6, n_seg))
        jag -= jag.mean()
        verts = [
            (c0x + s * vx + j * 0.8 * ux, c0y + s * vy + j * 0.8 * uy)
            for s, j in zip(ss, jag)
        ]
        d_crack = np.full((h, w), np.inf)
        for (ax, ay), (bx, by) in zip(verts[:-1], verts[1:]):
            d_crack = np.minimum(d_crack, _segment_distance(xx, yy, ax, ay, bx, by))
        cw = rng.uniform(*CRACK_HALFWIDTH)
        crack_alpha = np.clip((cw - d_crack) / 0.5, 0.0, 1.0) * (alpha > 0.5)
        depth = rng.uniform(*CRACK_DEPTH)
        img = img * (1.0 - crack_alpha * depth)

        # annotation points: the rounded vertices well inside the bone, evenly
        # spaced ones first, topped up from the rest where rounding collided
        inner = [v for s, v in zip(ss, verts) if abs(s) <= 0.8 * halfwid]
        want = ANNOTATION_POINTS
        spaced = [inner[round(k * (len(inner) - 1) / max(1, want - 1))] for k in range(want)]
        rounded = ((int(round(px)), int(round(py))) for px, py in spaced + inner)
        chosen = list(dict.fromkeys(rounded))[:want]
        keep = [
            (px, py)
            for px, py in chosen
            if 0 <= px < w and 0 <= py < h and crack_alpha[py, px] >= 0.5 and alpha[py, px] > 0.9
        ]
        if not keep:  # extremely unlucky geometry: retry with a fresh draw
            return render_sample(rng, cfg, fractured)
        points = tuple(keep)

    img = np.clip(img, 0.0, 1.0)
    # quantize to the 8-bit grid so the PGM round trip is exact
    img = to_unit(to_bytes_gray(img))
    return Sample(image=img, points=points, pre_crack=to_unit(to_bytes_gray(pre_crack)))


def _split_counts(per_class: int, cfg: SynthConfig):
    n_train = round(cfg.train_frac * per_class)
    n_val = round(cfg.val_frac * per_class)
    if n_train + n_val > per_class:
        n_val = per_class - n_train
    return n_train, n_val, per_class - n_train - n_val


def _to_channels(img2d: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    if cfg.channels == 1:
        return img2d[None]
    stacked = np.stack([np.clip(img2d * g, 0.0, 1.0) for g in CHANNEL_GAINS])
    return to_unit(to_bytes_gray(stacked))


def generate_dataset(seed: int, n: int, cfg: SynthConfig = SynthConfig()) -> Dataset:
    """Generate a balanced corpus of n images (n even), deterministic in seed.

    Even indices are fractured, odd are healthy; each class is split into
    train/val/test with exact counts, so every split stays balanced.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    per_class = n // 2
    n_train, n_val, _ = _split_counts(per_class, cfg)

    images, labels, split, ids = [], [], [], []
    entries = {}
    for i in range(n):
        fractured = i % 2 == 0
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        sample = render_sample(rng, cfg, fractured)
        image_id = f"img_{i:04d}"
        rank = i // 2  # position within the class
        tag = "train" if rank < n_train else ("val" if rank < n_train + n_val else "test")
        images.append(Tensor(_to_channels(sample.image, cfg)))
        labels.append(FRACTURED if fractured else HEALTHY)
        split.append(tag)
        ids.append(image_id)
        if fractured:
            entries[image_id] = sample.points
    return Dataset(
        images=images,
        labels=labels,
        split=split,
        ids=ids,
        annotations=AnnotationSet(entries=entries),
        seed=seed,
    )


def save_annotations(ann: AnnotationSet, path, meta=None) -> None:
    payload = {
        "entries": {
            image_id: [[x, y] for x, y in points]
            for image_id, points in sorted(ann.entries.items())
        },
        "meta": {str(k): str(v) for k, v in sorted((meta or {}).items())},
    }
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _is_point(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)


def load_annotations(path) -> AnnotationSet:
    """Read an annotation file; a malformed one raises ``ValueError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"annotations {path}: invalid JSON ({exc})") from None
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, dict):
        raise ValueError(f"annotations {path}: lacks an 'entries' object")
    for image_id, points in entries.items():
        if not isinstance(points, list) or not all(map(_is_point, points)):
            raise ValueError(
                f"annotations {path}: points of {image_id!r} must be a list of [x, y] integer pairs"
            )
    try:
        return AnnotationSet(entries=entries)
    except ValueError as exc:  # duplicate points
        raise ValueError(f"annotations {path}: {exc}") from None


def save_dataset(ds: Dataset, out_dir) -> tuple:
    """Write PGM images, the dataset manifest, and the annotation file.

    Returns (manifest_path, annotations_path). Only single-channel datasets
    have an on-disk form.
    """
    if ds.image_shape[0] != 1:
        raise ValueError("only single-channel datasets can be written as PGM corpora")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    ann_path = out_dir / "annotations.json"
    save_annotations(ds.annotations, ann_path, meta={} if ds.seed is None else {"seed": ds.seed})

    c, h, w = ds.image_shape
    lines = [
        "# fracmap dataset manifest",
        f"seed={'' if ds.seed is None else ds.seed}",
        f"image_size={c}x{h}x{w}",
        "classes=" + ",".join(ds.class_names),
        "annotations=annotations.json",
    ]
    for img, label, tag, image_id in zip(ds.images, ds.labels, ds.split, ds.ids):
        rel = f"images/{image_id}.pgm"
        comment = f"seed={'' if ds.seed is None else ds.seed} id={image_id}"
        write_pgm(out_dir / rel, to_bytes_gray(img.array[0]), comment=comment)
        lines.append(f"image={rel} id={image_id} label={ds.class_names[label]} split={tag}")
    manifest_path = out_dir / "dataset.txt"
    with atomic_open(manifest_path) as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path, ann_path


def load_dataset(manifest_path) -> Dataset:
    """Read a dataset manifest plus its images and annotations.

    A malformed manifest (a ``split=`` tag outside ``SPLITS`` included), a
    row whose image cannot be read or differs from the ``image_size=``
    header, and a malformed annotation file or one naming an image the
    manifest does not list each raise ``ValueError`` naming the manifest
    (and the line, for a bad row or header value).
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    seed = None
    image_size = None
    class_names = CLASS_NAMES
    ann_path = None
    rows = []
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"manifest {manifest_path} is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        try:
            if key == "seed":
                seed = int(value) if value else None
            elif key == "image_size":
                image_size = tuple(int(d) for d in value.split("x"))
            elif key == "classes":
                class_names = tuple(value.split(","))
            elif key == "annotations":
                ann_path = base / value
            elif key == "image":
                rows.append((lineno, value.split()))
        except ValueError:  # from a seed= or image_size= value
            kind = "an integer" if key == "seed" else "CxHxW integers"
            raise ValueError(
                f"manifest {manifest_path}, line {lineno}: {key}={value!r} is not {kind}"
            ) from None
    if ann_path is None or not rows:
        raise ValueError(f"manifest {manifest_path} lacks an annotations entry or image rows")

    images, labels, split, ids = [], [], [], []
    for lineno, parts in rows:
        where = f"manifest {manifest_path}, line {lineno}"
        if not parts or any("=" not in p for p in parts[1:]):
            raise ValueError(f"{where}: image row must be a path then key=value fields")
        kv = dict(p.split("=", 1) for p in parts[1:])
        for name in ("id", "label", "split"):
            if name not in kv:
                raise ValueError(f"{where}: image row lacks the {name}= field")
        if kv["label"] not in class_names:
            raise ValueError(
                f"{where}: label={kv['label']!r} is not one of the classes {list(class_names)}"
            )
        if kv["split"] not in SPLITS:
            raise ValueError(f"{where}: split={kv['split']!r} is not one of {SPLITS}")
        try:
            image = Tensor(to_unit(read_pgm(base / parts[0]))[None])
        except (OSError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        if image_size is not None and image.shape != image_size:
            raise ValueError(
                f"{where}: image {kv['id']!r} has shape {image.shape}, but the header's "
                f"image_size= gives {image_size}"
            )
        images.append(image)
        labels.append(class_names.index(kv["label"]))
        split.append(kv["split"])
        ids.append(kv["id"])
    try:
        return Dataset(
            images=images,
            labels=labels,
            split=split,
            ids=ids,
            annotations=load_annotations(ann_path),
            class_names=class_names,
            seed=seed,
        )
    except (OSError, ValueError) as exc:
        raise ValueError(f"manifest {manifest_path}: {exc}") from None
