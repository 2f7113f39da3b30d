"""Percentile-threshold masks and coverage of expert-annotated points.

A map's binary mask keeps every pixel scoring at or above the nearest-rank
nu-th percentile of that map's own values, so the threshold adapts per
image. The point coverage ratio is the fraction of annotated coordinates
falling inside the mask. ``coverage_table`` aggregates the mean ratio over
all annotated images of a split for every (model, method, percentile) cell,
emitting N/A with a reason for cells that cannot be computed. The
annotated points and their file format belong to the dataset (``synth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .attribution import METHODS, AttributionMap, MapError, OcclusionConfig, PathConfig
from .synth import FRACTURED, AnnotationEntry
from .tensor import Tensor

__all__ = [
    "BinaryMask",
    "CoverageRow",
    "CoverageReport",
    "check_percentiles",
    "check_methods",
    "nearest_rank_percentile",
    "threshold_mask",
    "point_coverage",
    "coverage_table",
    "write_csv",
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
    by default. Aggregation runs over the images of ``split`` that
    ``ds.annotations`` marks (unweighted mean of per-image ratios, reported
    in percent); ``Dataset`` has already checked those annotations. The row set
    is complete: a cell whose maps cannot be computed (an
    ``attribution.MapError`` such as a patch larger than the image) becomes
    ``N/A`` with the failure reason rather than being skipped. A map whose
    values are all equal ranks no pixel above another, so it makes the cell
    ``N/A:constant map for <image id>`` instead of a mask that keeps every
    pixel. Every other error propagates.
    """
    check_percentiles(percentiles)
    check_methods(methods)
    annotated = [i for i in ds.split_indices(split) if ds.ids[i] in ds.annotations]
    if not annotated:
        raise ValueError(f"split {split!r} has no annotated images")
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
                entry = ds.annotations.get(ds.ids[i])
                for nu in percentiles:
                    ratios[nu].append(point_coverage(threshold_mask(amap, nu), entry))
            for nu in percentiles:
                if failure is not None:
                    rows.append(CoverageRow(model_id, method, float(nu), None, failure))
                else:
                    mean_pct = 100.0 * float(np.mean(ratios[nu]))
                    rows.append(CoverageRow(model_id, method, float(nu), mean_pct))
    return CoverageReport(rows=rows)
