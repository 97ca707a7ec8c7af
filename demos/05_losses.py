"""
The four training losses
========================

Training optimizes a weighted sum of four terms: cross-entropy over the
logits, a feature-center term that keeps action features compact around the
batch mean, a weight-center term that pulls each sample's slot weights
toward a running per-class center, and a balance term that keeps the
batch-mean weights spread across slots.

Every term reads one stacked batch: (B, K) logits, (B, R, C) action
features and (B, R, 1) slot weights.
"""

import numpy as np

import megraph.autodiff as ad
from megraph.losses import (
    LossWeights,
    WeightCenterTable,
    balance_loss,
    classification_loss,
    feature_center_loss,
    total_loss,
    weight_center_loss,
)
from megraph.model import ForwardResult

rng = np.random.default_rng(0)

# Cross-entropy on uniform logits is exactly ln(K), whatever the labels.
for k in (2, 5):
    logits = ad.constant(np.zeros((3, k)))
    value = float(classification_loss(logits, [0, 1, 0]).data)
    print(f"uniform logits, K={k}: ce={value:.12f} (ln K={np.log(k):.12f})")

# Feature-center loss is half the mean squared distance to the batch mean:
# identical features give exactly zero, two features give |a - b|^2 / 8.
a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
value = float(feature_center_loss(ad.constant(np.stack([a, b]))).data)
print(f"two-sample feature-center: {value:.6f} "
      f"(closed form {np.sum((a - b) ** 2) / 8:.6f})")

# The weight-center table keeps one center per class on the simplex and
# moves it toward each batch by EMA. Weights equal to their centers cost 0.
table = WeightCenterTable(n_classes=3, n_rows=6, rate=0.5)
table.update(rng.dirichlet(np.ones(6), size=3), [0, 1, 2])
weights = ad.constant(np.stack([table.center(l).reshape(6, 1) for l in (0, 1, 2)]))
value = float(weight_center_loss(weights, [0, 1, 2], table, update=False).data)
print(f"weights at their class centers: weight-center={value}")

# Balance loss vanishes when the batch-mean weight vector is uniform and
# grows as mass collapses onto fewer slots.
uniform = np.full((1, 6, 1), 1.0 / 6)
collapsed = np.zeros((1, 6, 1))
collapsed[0, 0, 0] = 1.0
print(f"balance(uniform):   {float(balance_loss(ad.constant(uniform)).data):.6f}")
print(f"balance(collapsed): {float(balance_loss(ad.constant(collapsed)).data):.6f}")

# total_loss wires the terms together over one batched forward result and
# reports the unweighted values. With all auxiliary weights at zero it is
# exactly the classification term.
result = ForwardResult(
    logits=ad.constant(rng.normal(size=(4, 3))),
    node_features=None,
    action_features=ad.constant(rng.normal(size=(4, 6, 4))),
    weights=ad.constant(rng.dirichlet(np.ones(6), size=4).reshape(4, 6, 1)),
)
labels = [0, 1, 2, 1]
breakdown = total_loss(result, labels, LossWeights(0.001, 1.0, 0.1),
                       table=WeightCenterTable(n_classes=3, n_rows=6))
print("breakdown:", {k: round(v, 4) for k, v in breakdown.as_dict().items()})

ce_only = total_loss(result, labels, LossWeights(0.0, 0.0, 0.0))
assert ce_only.total_value == ce_only.ce
print("all auxiliary weights zero: total == ce exactly")
