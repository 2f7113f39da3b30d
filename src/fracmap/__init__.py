"""fracmap: desk-scale study of how adversarial robustness shapes attribution maps.

The toolkit trains small CNN fracture classifiers on a synthetic X-ray-like
corpus (standard and PGD-adversarial), attacks them, generates four kinds of
attribution maps, and scores map/annotation alignment with a percentile-mask
point-coverage metric. Everything is seeded and reproducible; see the CLI in
``fracmap.cli`` for the file-based pipeline.

On glibc, importing the package tunes the C heap of the whole process so
that freed activation arrays stay mapped for the next pass, and so that
every thread allocates from that one heap (one malloc arena); see
``_keep_freed_pages``. Arithmetic and outputs are unaffected.
"""

import ctypes
import os
import warnings

from .attack import AttackConfig, RobustnessReport, adv_accuracy, delta_acc, rank_models
from .attribution import (
    AttributionMap,
    OcclusionConfig,
    PathConfig,
    deeplift,
    integrated_gradients,
    normalize,
    occlusion,
    saliency,
)
from .autodiff import forward, grad_input
from .coverage import BinaryMask, coverage_table, point_coverage, threshold_mask
from .model import Model, load_model, replace_head, save_model, tiny_cnn
from .synth import AnnotationSet, Dataset, SynthConfig, generate_dataset, load_dataset, save_dataset
from .tensor import Tensor
from .train import TrainConfig, adv_train, evaluate, train

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h) and the values set for them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's largest on 64-bit
_TRIM_THRESHOLD = 512 * 1024 * 1024


def _keep_freed_pages() -> None:
    """Keep freed activation arrays in the heap instead of returning their pages.

    By default glibc serves a large array from its own mmap and unmaps it
    on free, and it returns the top of the heap to the kernel once a little
    more than the largest such array is free there. Either way a pass gets
    fresh pages for its activations and faults on each. Raising the mmap
    threshold to its maximum puts the arrays on the heap, and a trim
    threshold far above the working set keeps the freed heap mapped, where
    the next pass reuses it; RSS then stays at its high-water mark.

    One arena at most: glibc gives threads other than the main one heaps of
    their own, so the pool threads that run the row parts of
    ``autodiff.gradients`` would each keep a set of freed activations mapped
    beside the main heap's, which passes on the main thread (a batch of one
    part, occlusion) cannot reuse. With one arena they allocate from the
    main heap. Warns if glibc refuses a setting; does nothing on any other C
    library.
    """
    try:
        libc_version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc_version.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    settings = ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD), (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD), (_M_ARENA_MAX, 1))
    for param, value in settings:
        if mallopt(param, value) != 1:
            warnings.warn(
                f"mallopt({param}, {value}) failed on {libc_version}; "
                "freed activations may be faulted in again on every pass",
                RuntimeWarning,
                stacklevel=2,
            )
            return


_keep_freed_pages()

__all__ = [
    "AttackConfig",
    "AttributionMap",
    "AnnotationSet",
    "BinaryMask",
    "Dataset",
    "Model",
    "OcclusionConfig",
    "PathConfig",
    "RobustnessReport",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "adv_accuracy",
    "adv_train",
    "coverage_table",
    "deeplift",
    "delta_acc",
    "evaluate",
    "forward",
    "generate_dataset",
    "grad_input",
    "integrated_gradients",
    "load_dataset",
    "load_model",
    "normalize",
    "occlusion",
    "point_coverage",
    "rank_models",
    "replace_head",
    "saliency",
    "save_dataset",
    "save_model",
    "threshold_mask",
    "tiny_cnn",
    "train",
]
