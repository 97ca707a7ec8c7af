"""
From landmark frames to a spatial graph
=======================================

The model consumes 31 of the 68 landmarks: 10 eyebrow, 9 nose, and 12 mouth
points. That layout is fixed, so `megraph.graph` holds it as read-only
module data: the component indices, the bridges, the node order and the
normalized adjacency. Nodes are chained within each component, the mouth
ring is closed, and two bridge edges connect the components so information
can flow between regions. Coordinates are centred and scale-normalized per
sample, which makes the node features invariant to where the face sits in
the image.
"""

import numpy as np

from megraph.graph import (
    ADJACENCY,
    BRIDGES,
    COMPONENT_INDICES,
    NODE_INDICES,
    build_graph,
    normalize_adjacency,
    spatial_adjacency,
    template_edges,
)
from megraph.landmarks import synthesize_dataset

print("nodes:", len(NODE_INDICES))
for name, indices in COMPONENT_INDICES.items():
    print(f"  {name:<8} {len(indices)} nodes")
print("bridges:", BRIDGES)

edges = template_edges()
print("edges:", len(edges))

# The adjacency is symmetric and binary with an empty diagonal; the degree
# vector shows chain interiors at 2 and the bridge endpoints above that.
adj = spatial_adjacency()
assert np.array_equal(adj, adj.T)
print("degree range:", int(adj.sum(axis=1).min()), "to",
      int(adj.sum(axis=1).max()))

# Graph convolutions use the symmetric normalization with self loops. The
# operator stays symmetric and its spectrum is bounded, so repeated
# application cannot blow features up.
normalized = normalize_adjacency(adj)
assert np.allclose(normalized, normalized.T)
assert np.array_equal(normalized, ADJACENCY)  # the one every model uses
eigenvalues = np.linalg.eigvalsh(normalized)
print(f"normalized spectrum: [{eigenvalues.min():.4f}, "
      f"{eigenvalues.max():.4f}]")

# Build the node features of one sample: three frames of the 31 selected
# nodes, centred on the onset centroid and scaled to unit RMS.
frames = synthesize_dataset(n_subjects=1, samples_per_subject=1, seed=0).frames[0]
features = build_graph(frames)
print("node features:", features.shape)
onset = features[0]
print(f"onset centroid after normalization: {onset.mean(axis=0).round(12)}")
print(f"onset RMS radius: {np.sqrt((onset ** 2).sum(axis=1).mean()):.12f}")

# Translating or uniformly scaling the raw frames changes nothing.
shifted = frames + np.array([37.0, -12.0])
np.testing.assert_allclose(features, build_graph(shifted * 1.7), atol=1e-12)
print("translation and scale invariance: exact to 1e-12")
