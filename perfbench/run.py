"""fracmap benchmark: one workload, timed for a fixed wall time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; fracmap is imported from ``src/``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` spans are recorded
around fracmap's public calls and the metrics are the per-layer ones.

Each run also writes ``.perfbench_out/<workload>-s<seed>-t<trace>.json``
(machine and build info, the tail percentile used, the output digest, any
check failures) and, when traced, the spans as ``...spans.jsonl``. The output
digest of every run is kept in ``.perfbench_out/digests.json``; a run whose
digest differs from an earlier run of the same sources, workload and seed
(traced or not) reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One BLAS thread: on two CPUs, two OpenBLAS threads made the batch-1
# attribution passes slower and noisier than one.
BLAS_THREADS = 1
SETUP_REPEATS = 5
DIGEST_OPS = 3  # the digest covers ops 0..2; op 0 is the untimed warm-up
TAIL_MIN_BEYOND = 10


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads():
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def source_sha256():
    """Digest of the package and benchmark sources, standing in for a commit id."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "fracmap").rglob("*.py")) + sorted(
        p for p in HERE.iterdir() if p.suffix in (".py", ".json")
    )
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def machine_info(threads):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "platform": platform.platform(),
    }


def tail(durations, percentile):
    """Nearest-rank percentile of the op durations and the samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def check_digest(key, digest, trace):
    """Compare with the digest an earlier run of the same sources recorded."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    earlier = known.get(key)
    if earlier is not None and earlier["digest"] != digest:
        return f"output digest {digest[:16]} differs from {earlier['digest'][:16]} of an earlier run (trace={earlier['trace']})"
    if earlier is None:
        known[key] = {"digest": digest, "trace": trace}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    return None


def measure(workloads, args, root, tmp):
    """Set up, then run ops for ``args.seconds``; returns the run's raw results."""
    run = {"errors": [], "setup_s": [], "op_s": [], "attempted": 0, "failed": 0}
    models = set()
    for r in range(SETUP_REPEATS):
        with root("setup"):
            t0 = time.perf_counter()
            ds, model = workloads.setup(args.seed, tmp / f"setup{r}")
            run["setup_s"].append(time.perf_counter() - t0)
        models.add(workloads.model_bytes(model))
    if len(models) != 1:
        run["errors"].append("set-up repeats built different models from one seed")

    workload = workloads.WORKLOADS[args.workload](ds, model, args.seed, tmp)
    digest = hashlib.sha256()
    k = 0
    start = None
    while k < DIGEST_OPS or time.perf_counter() - start < args.seconds:
        run["attempted"] += 1
        try:
            with root("op" if k else "warmup"):
                t0 = time.perf_counter()
                out = workload.op(k)
                dt = time.perf_counter() - t0
            with root("check"):
                problems = workload.check(k, out)
        except Exception:  # a failing op is counted, and the run goes on
            problems = [traceback.format_exc(limit=4)]
            out = None
        if problems:
            run["failed"] += 1
            run["errors"].extend(f"op {k}: {p}" for p in problems)
        elif k:
            run["op_s"].append(dt)
        if k < DIGEST_OPS:
            digest.update(workload.digest_bytes(out) if out is not None else b"failed")
        if k == 0:
            start = time.perf_counter()
        k += 1
    run["digest"] = digest.hexdigest()
    return workload, run


def traced_metrics(tracer, probes, workload_name, n_ops, predictions):
    """Per-layer metrics, span calls per metric, and mismatches with ``called_on``."""
    summary = tracer.summarize()
    op_stats = probes.merge(stats for name, stats in summary.values() if name == "op")
    setup_stats = [stats for name, stats in summary.values() if name == "setup"]
    metrics = probes.per_layer_metrics(op_stats, max(n_ops, 1), setup_stats)
    calls = probes.span_calls(op_stats, setup_stats)
    wiring = []
    for name, count in calls.items():
        expected = workload_name in predictions[name]["called_on"]
        if expected != (count > 0):
            wiring.append(f"{name}: {count} span calls, expected {'some' if expected else 'none'}")
    return metrics, calls, wiring


def main(argv=None):
    threads = pin_blas_threads()  # before anything imports numpy
    if not (ROOT / "src" / "fracmap" / "__init__.py").is_file():
        print(f"error: no fracmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import probes
    import workloads
    from tracer import Tracer

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "layers.json").read_text())["per_layer"]
    traced_names = set(probes.PER_OP) | set(probes.PER_SETUP) | {"trace.images_per_s"}
    declared = {m["name"] for m in spec["per_layer"]}
    if not declared == traced_names == set(predictions):
        print(
            "error: per-layer metrics disagree between BENCHMARK.json, layers.json and probes.py: "
            f"{sorted(declared ^ traced_names)} {sorted(set(predictions) ^ traced_names)}",
            file=sys.stderr,
        )
        return 2

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        probes.install(tracer)
    root = tracer.span if tracer else (lambda name: nullcontext())
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload, run = measure(workloads, args, root, Path(tmp))
    if tracer:
        tracer.uninstall()

    errors, durations = run["errors"], run["op_s"]
    source = source_sha256()
    mismatch = check_digest(f"{args.workload}:{args.seed}:{source}", run["digest"], args.trace)
    if mismatch:
        errors.append(mismatch)

    n_ops = len(durations)
    images_per_s = workload.images_per_op * n_ops / sum(durations) if n_ops else 0.0
    tail_s, beyond = tail(durations, workload.tail_percentile) if n_ops else (0.0, 0)
    if beyond < TAIL_MIN_BEYOND:
        print(f"note: only {beyond} samples beyond p{workload.tail_percentile}", file=sys.stderr)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_info(threads),
        "git_sha": git_sha(),
        "source_sha256": source,
        "output_digest": run["digest"],
        "digest_ops": DIGEST_OPS,
        "tail": {"percentile": workload.tail_percentile, "samples": n_ops, "beyond": beyond},
        "setup_s": run["setup_s"],
        "op_ms": [1e3 * d for d in durations],
        "errors": errors[:20],
    }

    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    wiring = []
    if tracer:
        metrics, details["span_calls"], wiring = traced_metrics(
            tracer, probes, args.workload, n_ops, predictions
        )
        metrics["trace.images_per_s"] = images_per_s
        untraced = OUT / f"{args.workload}-s{args.seed}-t0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            if base["source_sha256"] == source:
                plain = base["metrics"]["images_per_s"]
                details["trace_overhead"] = (plain - images_per_s) / plain
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    else:
        metrics = {
            "images_per_s": images_per_s,
            "op_p50_ms": 1e3 * statistics.median(durations) if n_ops else 0.0,
            "op_tail_ms": 1e3 * tail_s,
            "setup_s": statistics.median(run["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
        }
    details["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    if wiring:
        print("error: traced spans do not match layers.json:", *wiring, sep="\n  ", file=sys.stderr)
        return 1
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
