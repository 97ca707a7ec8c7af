"""Experiment configuration: one serializable object per run.

Every run report embeds its full config, and a config loaded back from JSON
compares equal to the one that wrote it. One generic codec covers every
dataclass: :func:`encode` writes one as a dict of its fields (reports use it
too), and :func:`decode` reads one back strictly, rejecting unknown keys,
values of the wrong JSON type and non-finite numbers at every level.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .files import atomic_write_text, read_json
from .landmarks import DEFAULT_MAGNIFICATION, PATTERN_NAMES
from .losses import LossWeights
from .model import ModelConfig

# JSON value types each field type accepts: bool is not an int, str is not a
# number, and an int is a valid float.
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def encode(obj) -> dict:
    """Field name -> value of dataclass ``obj``, in field order.

    Nested dataclasses, alone or in a list, are encoded in turn. Every other
    value is passed through as it is, not copied, so the result shares its
    lists with ``obj``.
    """
    return {f.name: _encode_value(getattr(obj, f.name)) for f in fields(obj)}


def _encode_value(value):
    if is_dataclass(value):
        return encode(value)
    if isinstance(value, list) and value and all(map(is_dataclass, value)):
        return [encode(v) for v in value]
    return value


def decode(cls, data, path: str = "config"):
    """Build dataclass ``cls`` from a decoded JSON object.

    Missing fields take their defaults and nested dataclass fields are
    decoded in turn. An unknown key, a value of the wrong type or a NaN or
    infinite number raises ValueError naming its dotted path, such as
    ``config.optimizer.epochs``.
    """
    if not isinstance(data, dict):
        return _decode_value(cls, data, path)
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config fields in {path}: {unknown}")
    return cls(
        **{k: _decode_value(hints[k], v, f"{path}.{k}") for k, v in data.items()}
    )


def _decode_value(hint, value, path: str):
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in kinds:
        return None
    for kind in kinds:
        if is_dataclass(kind) and isinstance(value, dict):
            return decode(kind, value, path)
        if type(value) in _ACCEPTS.get(kind, ()):
            if type(value) is float and not math.isfinite(value):
                raise ValueError(f"{path}: expected a finite number")
            return value
    expected = " or ".join(
        "null" if k is type(None) else "object" if is_dataclass(k) else k.__name__
        for k in kinds
    )
    got = "null" if value is None else type(value).__name__
    raise ValueError(f"{path}: expected {expected}, got {got}")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the generated dataset, used when no path is given."""

    n_subjects: int = 10
    samples_per_subject: int = 6
    n_classes: int = 5
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # every bound is written so that NaN fails it
        if not self.n_subjects >= 1:
            raise ValueError("n_subjects must be >= 1")
        if not self.samples_per_subject >= 1:
            raise ValueError("samples_per_subject must be >= 1")
        if not 2 <= self.n_classes <= len(PATTERN_NAMES):
            raise ValueError(
                f"n_classes must be in [2, {len(PATTERN_NAMES)}]"
            )
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be >= 0")
        if not self.seed >= 0:
            raise ValueError("synth.seed must be >= 0")


@dataclass(frozen=True)
class OptimizerConfig:
    """Gradient descent with momentum, plus a plateau early stop.

    Training halts once the epoch-mean loss has not improved by more than
    plateau_tol for plateau_patience consecutive epochs.
    """

    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 300
    batch_size: int = 16
    plateau_patience: int = 25
    plateau_tol: float = 1e-4

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not self.epochs >= 0:
            raise ValueError("epochs must be >= 0")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")
        if not self.plateau_patience >= 1:
            raise ValueError("plateau_patience must be >= 1")
        if not self.plateau_tol >= 0:
            raise ValueError("plateau_tol must be >= 0")


@dataclass(frozen=True)
class AugmentConfig:
    """Crop-style jitter applied to training samples only.

    copies is the number of jittered duplicates added per training sample;
    zero disables augmentation.
    """

    copies: int = 0
    max_scale: float = 0.05
    max_shift: float = 3.0

    def __post_init__(self):
        if not self.copies >= 0:
            raise ValueError("copies must be >= 0")
        if not 0 <= self.max_scale < 1:
            raise ValueError("max_scale must be in [0, 1)")
        if not self.max_shift >= 0:
            raise ValueError("max_shift must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: data source, model, losses, optimizer, seed."""

    dataset: str | None = None
    synth: SynthSpec | None = field(default_factory=SynthSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    seed: int = 0
    magnification: float = DEFAULT_MAGNIFICATION
    center_rate: float = 0.5

    def __post_init__(self):
        if self.dataset is None and self.synth is None:
            raise ValueError("config needs a dataset path or a synth spec")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")
        if not self.magnification > 0:
            raise ValueError("magnification must be > 0")
        if not 0.0 < self.center_rate <= 1.0:
            raise ValueError("center_rate must be in (0, 1]")


def dumps(obj) -> str:
    """:func:`encode` of dataclass ``obj`` as the indented, key-sorted JSON
    text of every artifact: configs, reports and their folds."""
    return json.dumps(encode(obj), indent=2, sort_keys=True) + "\n"


def save_config(config: ExperimentConfig, path) -> None:
    atomic_write_text(path, dumps(config))


def load_config(path) -> ExperimentConfig:
    return decode(ExperimentConfig, read_json(path))
