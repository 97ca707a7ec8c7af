"""
One forward pass, stage by stage
================================

The full model runs four stages: a graph-convolution + temporal-convolution
backbone over the three keyframes, a soft decomposition of each facial
component into action slots, a relation stage that scores the slots over a
complete graph and pools them, and a linear classifier head.

The model runs on a stacked batch: graph building takes the samples'
(B, 3, 68, 2) frames column and gives a plain (B, 3, 31, 2) array of node
coordinates over the one fixed landmark graph, and every stage handles all
B samples in one tape operation.
"""

import numpy as np

from megraph.graph import SUBGRAPHS, build_graph
from megraph.landmarks import synthesize_dataset
from megraph.model import ActionRelationNet, ModelConfig

samples = synthesize_dataset(n_subjects=1, samples_per_subject=4, seed=0)
batch = build_graph(samples.frames)
print("stacked keyframes:", batch.shape)

config = ModelConfig(variant="full", channels=16, n_actions=3,
                     relation_channels=16, n_classes=5)
model = ActionRelationNet(config, seed=0)
print("parameters:", model.params.n_values())

result = model.forward(batch)

# Backbone: each sample's three (31, 2) coordinate frames collapse to one
# (31, 16) feature matrix; the temporal convolutions fold the frames together.
print("node features:", result.node_features.shape)

# Decomposition: each component's nodes spread unit mass over 3 action
# slots. The assignment rows are softmax outputs, so they sum to one.
# The assignment is one (B, 3, W, N_a) array, each component's rows padded
# to the widest; a component's real rows are its first len(sub.indices).
for i, sub in enumerate(SUBGRAPHS):
    comp, assign = sub.component, result.assignment[:, i, : len(sub.indices)]
    row_sums = assign.sum(axis=-1)
    print(f"  {comp:<8} assignment {assign.shape}, "
          f"row sums in [{row_sums.min():.9f}, {row_sums.max():.9f}]")
print("action features:", result.action_features.shape)

# Relation: every slot gets a scalar weight, one (1, 3 * N_a) row per sample
# normalized to sum 1, and each sample's recognition feature is its
# weighted slot mean.
w = result.weights.data[:, 0]
print("slot weights of sample 0:", np.round(w[0], 4))
print("weight sums per sample:", np.round(w.sum(axis=1), 12))
print("recognition features:", result.recognition_feature.shape)
print("logits:", result.logits.shape)
print(np.round(result.logits.data, 4))

# One sample's (3, 31, 2) features run through the same code; its logits match the
# sample's row of the batch.
single = model.forward(build_graph(samples.frames[0])).logits.data
print("one-sample logits equal batch row 0:",
      bool(np.allclose(single[0], result.logits.data[0], rtol=0, atol=1e-12)))

# The two reduced variants reuse the same backbone weights layout: the
# backbone variant classifies mean node features, the actions variant
# classifies mean action features, so their outputs differ.
for variant in ("backbone", "actions"):
    reduced = ActionRelationNet(
        ModelConfig(variant=variant, channels=16, n_actions=3,
                    relation_channels=16, n_classes=5),
        seed=0,
    )
    out = reduced.forward(batch)
    print(f"{variant:<9} logits of sample 0: {np.round(out.logits.data[0], 4)}")
