"""Percentile-threshold masks and coverage of expert-annotated points.

A map's binary mask keeps every pixel scoring at or above the nearest-rank
nu-th percentile of that map's own values, so the threshold adapts per
image. The point coverage ratio is the fraction of annotated coordinates
falling inside the mask. ``coverage_table`` aggregates the mean ratio over
all annotated images of a split for every (model, method, percentile) cell,
emitting N/A with a reason for cells that cannot be computed.

Annotation files are JSON: ``{"entries": {image_id: [[x, y], ...]}, "meta":
{...}}`` with x as column index and y as row index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .attribution import METHODS, AttributionMap, MapError, OcclusionConfig, PathConfig
from .tensor import Tensor

__all__ = [
    "BinaryMask",
    "AnnotationEntry",
    "AnnotationSet",
    "CoverageRow",
    "CoverageReport",
    "check_percentiles",
    "check_methods",
    "nearest_rank_percentile",
    "threshold_mask",
    "point_coverage",
    "coverage_table",
    "write_csv",
    "save_annotations",
    "load_annotations",
]


@dataclass(frozen=True)
class BinaryMask:
    """Boolean pixel mask from percentile-thresholding an attribution map."""

    values: np.ndarray
    percentile: float
    source_digest: str

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.dtype != np.bool_ or arr.ndim != 2:
            raise ValueError("mask values must be a 2-D boolean array")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self):
        return self.values.shape


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


def check_percentiles(nus) -> None:
    """Raise ValueError for an empty or repeating list of percentiles, or one outside [0, 100]."""
    nus = [float(nu) for nu in nus]
    _check_list(nus, "percentile", lambda nu: 0.0 <= nu <= 100.0, "is not in [0, 100]")


def check_methods(methods) -> None:
    """Raise ValueError for an empty or repeating list of methods, or one not in ``METHODS``."""
    _check_list(methods, "method", METHODS.__contains__, f"is not one of {', '.join(METHODS)}")


def _check_list(items, noun: str, valid, rule: str) -> None:
    if not items:
        raise ValueError(f"the {noun} list is empty")
    for i, item in enumerate(items):
        if not valid(item):
            raise ValueError(f"{noun} {item!r} {rule}")
        if item in items[:i]:
            raise ValueError(f"{noun} {item!r} is repeated")


def nearest_rank_percentile(values, nu: float) -> float:
    """Smallest sample value with at least nu percent of samples <= it."""
    check_percentiles([nu])
    flat = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = flat.size
    if float(nu).is_integer():
        rank = (int(nu) * n + 99) // 100  # exact integer ceil
    else:
        rank = math.ceil(nu * n / 100.0)
    rank = min(n, max(1, rank))
    return float(flat[rank - 1])


def threshold_mask(amap: AttributionMap, nu: float) -> BinaryMask:
    """Mask of pixels scoring >= the map's nearest-rank nu-th percentile.

    nu = 0 keeps every pixel. Maps flagged degenerate by ``normalize`` have
    lost their ordering and are rejected for nu > 0.
    """
    check_percentiles([nu])
    if amap.degenerate and nu > 0:
        raise ValueError("cannot threshold a degenerate (constant) normalized map")
    thr = nearest_rank_percentile(amap.values, nu)
    return BinaryMask(values=amap.values >= thr, percentile=float(nu), source_digest=amap.config_digest)


def point_coverage(mask: BinaryMask, entry: AnnotationEntry) -> float:
    """Fraction of annotated points falling inside the mask, in [0, 1]."""
    if not entry.points:
        raise ValueError(f"no annotation points for {entry.image_id!r}; ratio is undefined")
    h, w = mask.shape
    inside = 0
    for x, y in entry.points:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(
                f"annotation point ({x}, {y}) for image {entry.image_id!r} "
                f"outside {w}x{h} mask bounds"
            )
        inside += bool(mask.values[y, x])
    return inside / len(entry.points)


@dataclass(frozen=True)
class CoverageRow:
    model_id: str
    method: str
    percentile: float
    coverage: float | None  # mean point coverage in percent, None if N/A
    reason: str | None = None

    def formatted(self) -> str:
        if self.coverage is None:
            return "N/A:" + str(self.reason).replace(",", ";")  # keep the CSV cell atomic
        return f"{self.coverage:.2f}"


@dataclass
class CoverageReport:
    rows: list

    def to_csv(self, path, provenance=None) -> None:
        """Write the table through ``write_csv``."""
        rows = [f"{r.model_id},{r.method},{r.percentile:g},{r.formatted()}" for r in self.rows]
        write_csv(path, "model,method,percentile,coverage", rows, provenance)


def write_csv(path, header: str, rows, provenance=None) -> None:
    """Write one ``# key=value`` line per provenance entry (sorted by key), the
    header, then the pre-formatted rows."""
    lines = [f"# {k}={v}" for k, v in sorted((provenance or {}).items())]
    lines.append(header)
    lines.extend(rows)
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def coverage_table(
    models,
    methods,
    percentiles,
    ds,
    ann: AnnotationSet,
    split: str = "test",
    occlusion_cfg: OcclusionConfig | None = None,
    path_cfg: PathConfig | None = None,
    reference: Tensor | None = None,
) -> CoverageReport:
    """Mean point coverage per (model, method, percentile) cell.

    ``models`` is an ordered mapping of model id to model, and each method
    is built by ``attribution.METHODS`` from ``occlusion_cfg``, ``path_cfg``
    (integrated gradients) and ``reference`` (DeepLIFT); these default to an
    8x8/stride-4 zero patch, 20 steps from a zero image, and a zero image.
    Every model must name the dataset's classes, and every map explains
    ``synth.FRACTURED``, the annotated class, as ``fracmap attribute`` does
    by default. Aggregation runs over the annotated images of ``split``
    (unweighted mean of per-image ratios, reported in percent). The row set
    is complete: a cell whose maps cannot be computed (an
    ``attribution.MapError`` such as a patch larger than the image) becomes
    ``N/A`` with the failure reason rather than being skipped. A map whose
    values are all equal ranks no pixel above another, so it makes the cell
    ``N/A:constant map for <image id>`` instead of a mask that keeps every
    pixel. Every other error propagates.
    """
    for image_id in ann.entries:
        if image_id not in ds.ids:
            raise ValueError(f"annotated image {image_id!r} is not in the dataset")
    check_percentiles(percentiles)
    check_methods(methods)
    annotated = [i for i in ds.split_indices(split) if ds.ids[i] in ann]
    if not annotated:
        raise ValueError(f"split {split!r} has no annotated images")
    from .synth import FRACTURED  # synth imports this module

    names = tuple(ds.class_names)
    occ_cfg = occlusion_cfg or OcclusionConfig()
    zero = Tensor(np.zeros(ds.image_shape))
    path_cfg = path_cfg or PathConfig(baseline=zero)
    ref = zero if reference is None else reference

    for model in models.values():
        model.check_classes(names)
    rows = []
    for model_id, model in models.items():
        for method in methods:
            ratios = {nu: [] for nu in percentiles}
            failure = None
            for i in annotated:
                try:
                    amap = METHODS[method](
                        model, ds.images[i], FRACTURED, occ_cfg, path_cfg, ref
                    )
                    if amap.values.min() == amap.values.max():
                        raise MapError(f"constant map for {ds.ids[i]}")
                except MapError as exc:
                    failure = str(exc)
                    break
                entry = ann.get(ds.ids[i])
                for nu in percentiles:
                    ratios[nu].append(point_coverage(threshold_mask(amap, nu), entry))
            for nu in percentiles:
                if failure is not None:
                    rows.append(CoverageRow(model_id, method, float(nu), None, failure))
                else:
                    mean_pct = 100.0 * float(np.mean(ratios[nu]))
                    rows.append(CoverageRow(model_id, method, float(nu), mean_pct))
    return CoverageReport(rows=rows)


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
