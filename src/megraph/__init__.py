"""Graph representation learning on facial-landmark keyframes.

A numpy implementation of a micro-expression recognizer: a spatial graph
over 31 facial landmarks across onset/apex/offset keyframes, a two-layer
graph+temporal convolution backbone, per-component action decomposition,
relation-weighted pooling, and auxiliary center/balance losses, trained
through a small reverse-mode autodiff tape and evaluated with
leave-one-subject-out cross-validation.
"""

from . import autodiff
from .autodiff import GradCheckResult, ShapeError, Tensor, grad_check
from .config import (
    AugmentConfig,
    ExperimentConfig,
    OptimizerConfig,
    SynthSpec,
    load_config,
    save_config,
)
from .graph import (
    COMPONENTS,
    NodeSelection,
    StGraph,
    build_graph,
    default_selection,
    normalize_adjacency,
    stack_graphs,
)
from .landmarks import (
    LandmarkSample,
    crop_jitter,
    load_samples,
    magnify,
    save_samples,
    synthesize_dataset,
)
from .losses import (
    LossWeights,
    WeightCenterTable,
    balance_loss,
    classification_loss,
    feature_center_loss,
    total_loss,
    weight_center_loss,
)
from .metrics import accuracy, confusion_matrix, f1_report
from .model import ActionRelationNet, ForwardResult, InvariantError, ModelConfig
from .params import ParamStore, read_checkpoint, sgd_step, write_checkpoint
from .training import (
    DivergenceError,
    LeakageError,
    RunReport,
    evaluate,
    loso_split,
    run_ablation,
    run_loso,
    run_training,
    train_fold,
)

__version__ = "0.1.0"

__all__ = [
    "ActionRelationNet",
    "AugmentConfig",
    "COMPONENTS",
    "DivergenceError",
    "ExperimentConfig",
    "ForwardResult",
    "GradCheckResult",
    "InvariantError",
    "LandmarkSample",
    "LeakageError",
    "LossWeights",
    "ModelConfig",
    "NodeSelection",
    "OptimizerConfig",
    "ParamStore",
    "RunReport",
    "ShapeError",
    "StGraph",
    "SynthSpec",
    "Tensor",
    "WeightCenterTable",
    "accuracy",
    "autodiff",
    "balance_loss",
    "build_graph",
    "stack_graphs",
    "classification_loss",
    "confusion_matrix",
    "crop_jitter",
    "default_selection",
    "evaluate",
    "f1_report",
    "feature_center_loss",
    "grad_check",
    "load_config",
    "load_samples",
    "loso_split",
    "magnify",
    "normalize_adjacency",
    "read_checkpoint",
    "run_ablation",
    "run_loso",
    "run_training",
    "save_config",
    "save_samples",
    "sgd_step",
    "synthesize_dataset",
    "total_loss",
    "train_fold",
    "weight_center_loss",
    "write_checkpoint",
]
