"""
A leave-one-subject-out experiment, end to end
==============================================

Evaluation holds out every subject once: the model trains on all other
subjects and is scored on the held-out one, and the pooled predictions give
the headline accuracy. Subject overlap and duplicated frames between train
and test are rejected by hash checks, and a fixed seed makes the whole run
bit-reproducible.

This demo uses a reduced dataset so it finishes in seconds; the acceptance
suite runs the full 10-subject comparison over five seeds.
"""

import tempfile
import warnings
from pathlib import Path

from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
from megraph.model import ModelConfig
from megraph.training import format_report, run_loso

def config(variant: str) -> ExperimentConfig:
    return ExperimentConfig(
        synth=SynthSpec(n_subjects=6, samples_per_subject=6, n_classes=5,
                        noise_sigma=1.0, seed=0),
        model=ModelConfig(variant=variant, channels=16),
        optimizer=OptimizerConfig(lr=0.01, epochs=40, batch_size=16,
                                  plateau_patience=10**6),
        seed=0,
    )

# Backbone only: graph + temporal convolutions straight into the classifier.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    backbone = run_loso(config("backbone"))
print(f"backbone pooled accuracy: {backbone.pooled_accuracy:.3f}")

# Full model: action decomposition and relation weighting on top. The run
# writes per-fold reports, curves, and checkpoints when out_dir is given.
with tempfile.TemporaryDirectory() as run_dir:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        full = run_loso(config("full"), out_dir=run_dir)
    written = sorted(p.name for p in Path(run_dir).iterdir())
    print(f"artifacts in {run_dir}: {', '.join(written)}")
print(f"full pooled accuracy:     {full.pooled_accuracy:.3f}")
print()
print(format_report(full))

# Every fold held out exactly one subject, and the pooled accuracy equals
# the sample-weighted mean of the fold accuracies to machine precision.
weighted = sum(f.accuracy * len(f.y_true) for f in full.folds) / sum(
    len(f.y_true) for f in full.folds
)
assert abs(full.pooled_accuracy - weighted) <= 1e-12
print("fold subjects:", full.fold_subjects)

# Rerunning with the same seed reproduces the report bit for bit.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", RuntimeWarning)
    again = run_loso(config("full"))
assert again.canonical() == full.canonical()
print("rerun with the same seed: identical report")
