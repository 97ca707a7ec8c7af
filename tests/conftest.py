"""Shared fixtures: small configurations that keep the unit tests fast."""

import gc
import os
import tracemalloc

import numpy as np
import pytest

from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
from megraph.landmarks import SampleSet, synthesize_dataset
from megraph.model import ModelConfig


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a child process running or un-reaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children at all
    state = "still running" if pid == 0 else f"pid {pid} exited, status {status}"
    pytest.fail(f"the test left a child process un-reaped ({state})")


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
    first = {s: int(np.argmax(samples.subjects == s)) for s in ("s01", "s02", "s03")}
    frames = samples.frames.copy()
    frames[first["s02"]] = 1.0
    frames[first["s03"], 1] = 1e308
    return SampleSet(frames, samples.labels, samples.subjects), first


def _traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes traced above the start of
    the call; numpy reports its array buffers to tracemalloc."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
