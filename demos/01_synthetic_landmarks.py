"""
Synthetic micro-expression landmark clips
=========================================

Every sample is three 68-point landmark frames (onset, apex, offset) with a
class label and a subject id. The bundled generator starts from a neutral
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

first = samples[0]
print("subject:", first.subject, "label:", first.label)
print("frames shape:", first.frames.shape)

# The apex frame is where the expression peaks; the onset frame is neutral.
# Micro-expressions are subtle, so the raw displacement is small.
displacement = np.linalg.norm(first.frames[1] - first.frames[0], axis=1)
print(f"mean apex displacement: {displacement.mean():.3f} px")
print(f"peak apex displacement: {displacement.max():.3f} px")

# Motion magnification scales displacements relative to the onset frame and
# leaves the onset itself untouched. Factor 3 is the pipeline default.
louder = magnify(first.frames, alpha=3.0)
boosted = np.linalg.norm(louder[1] - louder[0], axis=1)
print(f"after x3 magnification: {boosted.max():.3f} px "
      f"(ratio {boosted.max() / displacement.max():.1f})")
np.testing.assert_array_equal(louder[0], first.frames[0])

# magnify works on arrays of any leading shape, so a whole dataset stacked
# into one (N, 3, 68, 2) array is magnified in one call.
stacked = magnify(np.stack([s.frames for s in samples]), alpha=3.0)
np.testing.assert_array_equal(stacked[0], louder)
print("stacked magnification:", stacked.shape)

# Datasets round-trip through JSON lines bit-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_dataset.jsonl"
    save_samples(samples, path)
    reloaded = load_samples(path)
assert all(
    np.array_equal(a.frames, b.frames) for a, b in zip(samples, reloaded)
)
print("JSONL round trip: exact")
