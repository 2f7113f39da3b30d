"""fracmap: desk-scale study of how adversarial robustness shapes attribution maps.

The toolkit trains small CNN fracture classifiers on a synthetic X-ray-like
corpus (standard and PGD-adversarial), attacks them, generates four kinds of
attribution maps, and scores map/annotation alignment with a percentile-mask
point-coverage metric. Everything is seeded and reproducible; see the CLI in
``fracmap.cli`` for the file-based pipeline.
"""

from .attack import AttackConfig, RobustnessReport, adv_accuracy, delta_acc, rank_models
from .attribution import (
    AttributionMap,
    OcclusionConfig,
    PathConfig,
    deeplift,
    integrated_gradients,
    normalize,
    occlusion,
    occlusion_linearized,
    saliency,
)
from .autodiff import forward, grad_input, numeric_gradient
from .coverage import (
    AnnotationSet,
    BinaryMask,
    coverage_table,
    point_coverage,
    threshold_mask,
)
from .model import Model, load_model, replace_head, save_model, tiny_cnn
from .synth import Dataset, SynthConfig, generate_dataset, load_dataset, save_dataset
from .tensor import Tensor
from .train import TrainConfig, adv_train, evaluate, train

__version__ = "0.1.0"

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
    "numeric_gradient",
    "occlusion",
    "occlusion_linearized",
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
