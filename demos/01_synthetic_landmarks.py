"""
Synthetic micro-expression landmark clips
=========================================

Every sample is three 68-point landmark frames (onset, apex, offset) with a
class label and a subject id. A dataset is one SampleSet of three columns:
frames (N, 3, 68, 2), labels (N,) and subjects (N,). The bundled generator starts from a neutral
face template, moves one facial region per class, and adds per-sample noise,
so datasets of any size are reproducible from a seed.
"""

import tempfile
from pathlib import Path

import numpy as np

from megraph.landmarks import (
    PATTERN_NAMES,
    load_samples,
    magnify,
    save_samples,
    synthesize_dataset,
)

# Four subjects, six clips each, five expression classes.
samples = synthesize_dataset(
    n_subjects=4, samples_per_subject=6, n_classes=5, noise_sigma=1.0, seed=0
)
print(f"{len(samples)} samples")
print("classes:", dict(zip(range(5), PATTERN_NAMES)))

print("columns:", samples.frames.shape, samples.labels.shape, samples.subjects.shape)
first = samples.frames[0]
print("subject:", samples.subjects[0], "label:", samples.labels[0])
print("frames shape:", first.shape)

# The apex frame is where the expression peaks; the onset frame is neutral.
# Micro-expressions are subtle, so the raw displacement is small.
displacement = np.linalg.norm(first[1] - first[0], axis=1)
print(f"mean apex displacement: {displacement.mean():.3f} px")
print(f"peak apex displacement: {displacement.max():.3f} px")

# Motion magnification scales displacements relative to the onset frame and
# leaves the onset itself untouched. Factor 3 is the pipeline default.
louder = magnify(first, alpha=3.0)
boosted = np.linalg.norm(louder[1] - louder[0], axis=1)
print(f"after x3 magnification: {boosted.max():.3f} px "
      f"(ratio {boosted.max() / displacement.max():.1f})")
np.testing.assert_array_equal(louder[0], first[0])

# magnify works on arrays of any leading shape, so the whole dataset's
# (N, 3, 68, 2) frames column is magnified in one call.
stacked = magnify(samples.frames, alpha=3.0)
np.testing.assert_array_equal(stacked[0], louder)
print("stacked magnification:", stacked.shape)

# Datasets round-trip through JSON lines bit-exactly: each sample's frames
# are written as the base64 of their float64 bytes.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_dataset.jsonl"
    save_samples(samples, path)
    reloaded = load_samples(path)
assert np.array_equal(samples.frames, reloaded.frames)
assert np.array_equal(samples.labels, reloaded.labels)
assert np.array_equal(samples.subjects, reloaded.subjects)
print("JSONL round trip: exact")
