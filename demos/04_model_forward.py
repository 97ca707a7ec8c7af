"""
One forward pass, stage by stage
================================

The full model runs four stages: a graph-convolution + temporal-convolution
backbone over the three keyframes, a soft decomposition of each facial
component into action slots, a relation stage that scores the slots over a
complete graph and pools them, and a linear classifier head.

The model runs on a stacked batch: per-sample graphs share one adjacency,
so their (3, 31, 2) keyframe coordinates stack into one (B, 3, 31, 2)
array and every stage handles all B samples in one tape operation.
"""

import numpy as np

from megraph.graph import build_graph, stack_graphs
from megraph.landmarks import synthesize_dataset
from megraph.model import ActionRelationNet, ModelConfig

samples = synthesize_dataset(n_subjects=1, samples_per_subject=4, seed=0)
graphs = [build_graph(s) for s in samples]
batch = stack_graphs(graphs)
print("stacked keyframes:", batch.node_features.shape)

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
for comp, assign in result.action_maps.items():
    row_sums = assign.data.sum(axis=-1)
    print(f"  {comp:<8} assignment {assign.shape}, "
          f"row sums in [{row_sums.min():.9f}, {row_sums.max():.9f}]")
print("action features:", result.action_features.shape)

# Relation: every slot gets a scalar weight, normalized to the simplex per
# sample by default, and each sample's recognition feature is its weighted
# slot mean.
w = result.weights.data[..., 0]
print("slot weights of sample 0:", np.round(w[0], 4))
print("weight sums per sample:", np.round(w.sum(axis=1), 12))
print("recognition features:", result.recognition_feature.shape)
print("logits:", result.logits.shape)
print(np.round(result.logits.data, 4))

# A one-sample graph runs through the same code; its logits match the
# sample's row of the batch.
single = model.forward(graphs[0]).logits.data
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
