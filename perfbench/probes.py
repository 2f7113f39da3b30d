"""Which fracmap calls the traced run times, and how spans become per-layer metrics.

Layer spans are named by bucket: the six conv and pool layers of
``tiny_cnn`` by their own names, the three ReLUs together as ``relu``, and
the standardization, flatten and dense head as ``other``.
"""

from __future__ import annotations

import importlib
import statistics

TRACED_FUNCTIONS = {
    "fracmap.autodiff": (
        "forward",
        "forward_values",
        "forward_batch",
        "backward",
        "backward_batch",
        "grad_input",
        "grad_input_weighted",
    ),
    "fracmap.model": ("tiny_cnn", "save_model", "load_model"),
    "fracmap.synth": ("generate_dataset", "save_dataset", "load_dataset"),
    "fracmap.train": ("train", "adv_train"),
    "fracmap.attack": ("pgd_batch",),
    "fracmap.attribution": (
        "saliency",
        "deeplift",
        "integrated_gradients",
        "occlusion",
        "write_heatmap",
        "normalize",
    ),
    "fracmap.coverage": ("threshold_mask", "point_coverage"),
}

# Bindings whose callers drop the input gradient: ``_fit`` in fracmap.train
# unpacks ``_, grads = backward_batch(...)``.
GX_DISCARDED_BY = ("fracmap.train",)

FOCUS_LAYERS = ("conv0", "conv1", "conv2", "pool0", "pool1", "pool2")


def _forward_batch_count(args, out):
    return {"images": out[0].shape[0]}


def _forward_values_count(args, out):
    batched = out.ndim == 2
    return {"images": out.shape[0] if batched else 1, "batched_images": out.shape[0] if batched else 0}


def _backward_batch_count(args, out):
    return {"images": len(args[1])}


def _threshold_mask_count(args, out):
    kept = int(out.values.sum())
    return {"kept": kept, "nominal": out.values.size * (1.0 - out.percentile / 100.0)}


def _normalize_count(args, out):
    return {"degenerate": int(out.degenerate)}


COUNTERS = {
    ("fracmap.autodiff", "forward_batch"): _forward_batch_count,
    ("fracmap.autodiff", "forward_values"): _forward_values_count,
    ("fracmap.autodiff", "backward_batch"): _backward_batch_count,
    ("fracmap.coverage", "threshold_mask"): _threshold_mask_count,
    ("fracmap.attribution", "normalize"): _normalize_count,
}


def _bucket(layer):
    if layer.name in FOCUS_LAYERS:
        return layer.name
    return "relu" if layer.kind == "relu" else "other"


def install(tracer):
    """Wrap every traced function binding and the layer and model methods."""
    model_mod = importlib.import_module("fracmap.model")
    layer_classes = {type(layer) for layer in model_mod.tiny_cnn(0).layers}
    for module_name, attrs in TRACED_FUNCTIONS.items():
        for attr in attrs:
            tracer.trace_function(module_name, attr, COUNTERS.get((module_name, attr)))
    for cls in layer_classes:
        tracer.trace_method(cls, "forward", lambda layer: f"layers.{_bucket(layer)}.fwd")
        tracer.trace_method(cls, "backward", lambda layer: f"layers.{_bucket(layer)}.bwd")
        tracer.trace_method(cls, "multipliers", lambda layer: "layers.mult")
    tracer.trace_method(model_mod.Model, "with_params", lambda model: "model.with_params")


# -- per-layer metrics ---------------------------------------------------
#
# Each per-op metric is (how, selectors). A selector is a span name, a name
# prefix ending in ".", or a ``(name, "site"|"parent", value)`` key.

PER_OP = {}
for _layer in FOCUS_LAYERS + ("relu", "other"):
    PER_OP[f"layers.{_layer}.fwd_ms"] = ("total_ms", [f"layers.{_layer}.fwd"])
    PER_OP[f"layers.{_layer}.bwd_ms"] = ("total_ms", [f"layers.{_layer}.bwd"])
PER_OP.update(
    {
        "layers.mult_ms": ("total_ms", ["layers.mult"]),
        "layers.calls": ("calls", ["layers."]),
        "autodiff.self_ms": ("self_ms", ["autodiff."]),
        "autodiff.images_forwarded": (
            "counter:images",
            ["autodiff.forward_batch", "autodiff.forward_values"],
        ),
        "autodiff.images_backwarded": ("counter:images", ["autodiff.backward_batch"]),
        "autodiff.gx_discarded_ratio": ("gx_discarded", ["autodiff.backward_batch"]),
        "model.with_params_ms": ("total_ms", ["model.with_params"]),
        "model.with_params_calls": ("calls", ["model.with_params"]),
        "train.self_ms": ("self_ms", ["train.train", "train.adv_train"]),
        "attack.pgd_batch_ms": ("total_ms", ["attack.pgd_batch"]),
        "attack.pgd_calls": ("calls", ["attack.pgd_batch"]),
        "attack.self_ms": ("self_ms", ["attack.pgd_batch"]),
        "attribution.saliency_ms": ("total_ms", ["attribution.saliency"]),
        "attribution.deeplift_ms": ("total_ms", ["attribution.deeplift"]),
        "attribution.ig_ms": ("total_ms", ["attribution.integrated_gradients"]),
        "attribution.heatmap_write_ms": ("total_ms", ["attribution.write_heatmap"]),
        "attribution.self_ms": ("self_ms", ["attribution."]),
        "attribution.occlusion_ms": ("total_ms", ["attribution.occlusion"]),
        "attribution.occlusion_variants": (
            "counter:batched_images",
            [("autodiff.forward_values", "parent", "attribution.occlusion")],
        ),
        "coverage.threshold_mask_ms": ("total_ms", ["coverage.threshold_mask"]),
        "coverage.point_coverage_ms": ("total_ms", ["coverage.point_coverage"]),
        "coverage.kept_pixel_fraction": ("kept_ratio", ["coverage.threshold_mask"]),
        "coverage.degenerate_maps": ("counter:degenerate", ["attribution.normalize"]),
    }
)

# Set-up metrics: median over the run's set-up repeats of the span's total.
PER_SETUP = {
    "model.load_ms": ["model.load_model"],
    "synth.generate_ms": ["synth.generate_dataset"],
    "synth.save_ms": ["synth.save_dataset"],
    "synth.load_ms": ["synth.load_dataset"],
}


def merge(stats_list):
    """Sum several roots' statistics into one mapping."""
    merged = {}
    for stats in stats_list:
        for key, (n_calls, total, self_s, counters) in stats.items():
            entry = merged.setdefault(key, [0, 0.0, 0.0, {}])
            entry[0] += n_calls
            entry[1] += total
            entry[2] += self_s
            for name, value in counters.items():
                entry[3][name] = entry[3].get(name, 0.0) + value
    return merged


def _matches(key, selector):
    if isinstance(selector, tuple):
        return key == selector
    if not isinstance(key, str):
        return False
    return key == selector or (selector.endswith(".") and key.startswith(selector))


def _select(stats, selectors):
    return [entry for key, entry in stats.items() if any(_matches(key, s) for s in selectors)]


def calls(stats, selectors):
    return sum(entry[0] for entry in _select(stats, selectors))


def per_op_value(how, selectors, stats, n_ops):
    entries = _select(stats, selectors)
    if how == "total_ms":
        return 1e3 * sum(e[1] for e in entries) / n_ops
    if how == "self_ms":
        return 1e3 * sum(e[2] for e in entries) / n_ops
    if how == "calls":
        return sum(e[0] for e in entries) / n_ops
    if how.startswith("counter:"):
        counter = how.split(":", 1)[1]
        return sum(e[3].get(counter, 0.0) for e in entries) / n_ops
    if how == "gx_discarded":
        total = sum(e[0] for e in entries)
        discarded = sum(calls(stats, [(selectors[0], "site", site)]) for site in GX_DISCARDED_BY)
        return discarded / total if total else 0.0
    if how == "kept_ratio":
        nominal = sum(e[3].get("nominal", 0.0) for e in entries)
        return sum(e[3].get("kept", 0.0) for e in entries) / nominal if nominal else 0.0
    raise ValueError(f"unknown metric kind {how!r}")


def per_layer_metrics(op_stats, n_ops, setup_stats):
    """Every per-layer metric except the traced throughput, from span statistics."""
    values = {name: per_op_value(how, sel, op_stats, n_ops) for name, (how, sel) in PER_OP.items()}
    for name, selectors in PER_SETUP.items():
        values[name] = statistics.median(
            per_op_value("total_ms", selectors, stats, 1) for stats in setup_stats
        )
    return values


def span_calls(op_stats, setup_stats):
    """Calls recorded under each per-layer metric's spans, for the wiring check."""
    counts = {name: calls(op_stats, sel) for name, (_, sel) in PER_OP.items()}
    merged_setup = merge(setup_stats)
    counts.update({name: calls(merged_setup, sel) for name, sel in PER_SETUP.items()})
    return counts
