"""Shared fixtures: small configurations that keep the unit tests fast."""

import numpy as np
import pytest

from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
from megraph.landmarks import LandmarkSample, synthesize_dataset
from megraph.model import ModelConfig


@pytest.fixture
def tiny_model_config():
    """Smallest legal full-variant model."""
    return ModelConfig(
        variant="full",
        channels=4,
        n_actions=2,
        relation_channels=3,
        n_classes=3,
    )


@pytest.fixture
def tiny_experiment(tiny_model_config):
    """Three subjects, three classes, a few epochs; runs in seconds."""
    return ExperimentConfig(
        synth=SynthSpec(
            n_subjects=3,
            samples_per_subject=3,
            n_classes=3,
            noise_sigma=1.0,
            seed=0,
        ),
        model=tiny_model_config,
        optimizer=OptimizerConfig(
            lr=0.02, momentum=0.9, epochs=3, batch_size=4
        ),
        seed=0,
    )


@pytest.fixture
def unusable_samples():
    """Three subjects of three samples and three classes, where s02's first
    sample has an onset frame without extent and s03's first an apex that
    overflows once magnified. Also returns each subject's first index."""
    samples = synthesize_dataset(n_subjects=3, samples_per_subject=3, n_classes=3)
    first = {s.subject: i for i, s in reversed(list(enumerate(samples)))}
    huge = samples[first["s03"]].frames.copy()
    huge[1] = 1e308
    samples[first["s02"]] = LandmarkSample("s02", 0, np.ones((3, 68, 2)))
    samples[first["s03"]] = LandmarkSample("s03", 0, huge)
    return samples, first
