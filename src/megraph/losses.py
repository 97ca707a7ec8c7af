"""Classification loss plus three auxiliary regularizers.

All four terms are differentiable through the tape; the centers they pull
toward (batch feature mean, per-class weight centers) are held constant
during differentiation and maintained outside the tape, so gradients flow
only through the model outputs. Every term reads one stacked batch: (B, K)
logits, (B, R, C) action features, (B, 1, R) slot weights, and reduces
over those sample axes alone. Inputs with leading member axes, from a
member-stacked parameter, give one value per member: batch statistics are
taken over B within each member, never across members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the auxiliary terms; the classification term is 1.

    The feature-center default is small on purpose: that term pulls every
    sample's action features toward the shared batch mean, so large values
    reward collapsing the representation outright. 0.001 regularizes without
    handing the optimizer that shortcut on the bundled synthetic data.
    """

    feature_center: float = 0.001
    weight_center: float = 1.0
    balance: float = 0.1

    def __post_init__(self):
        for name in ("feature_center", "weight_center", "balance"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} weight must be >= 0")


def for_variant(weights: LossWeights, variant: str) -> LossWeights:
    """Zero out terms whose inputs a variant does not produce.

    The backbone variant has no action features, so only the classification
    term applies; the actions variant adds the feature-center term; the full
    variant supports everything.
    """
    if variant == "backbone":
        return LossWeights(0.0, 0.0, 0.0)
    if variant == "actions":
        return LossWeights(weights.feature_center, 0.0, 0.0)
    return weights


class WeightCenterTable:
    """Per-class centers for the slot-weight vectors.

    Centers start uniform on the simplex and move toward observed weights by
    exponential moving average; a rate of 1 recomputes each present class's
    center from the batch. Convex updates of simplex points stay on the
    simplex.
    """

    def __init__(self, n_classes: int, n_rows: int, rate: float = 0.5):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if n_rows < 2:  # one row always weighs 1; and see update's row order
            raise ValueError("n_rows must be >= 2")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"update rate must be in (0, 1], got {rate}")
        self.n_classes = n_classes
        self.n_rows = n_rows
        self.rate = rate
        self.centers = np.full((n_classes, n_rows), 1.0 / n_rows)

    def check_labels(self, labels: Sequence[int]) -> np.ndarray:
        """``labels`` as int64 class indices; any outside [0, n_classes) is a
        ValueError naming it, since numpy would wrap a negative one."""
        labels = np.asarray(labels, dtype=np.int64)
        outside = (labels < 0) | (labels >= self.n_classes)
        if outside.any():
            raise ValueError(
                f"center label {labels[outside][0]} is outside "
                f"[0, {self.n_classes})"
            )
        return labels

    def update(self, weights: np.ndarray, labels: Sequence[int]) -> None:
        """Fold one batch of (N, n_rows) weight vectors into the centers of
        the classes present, in one pass: each class's rows are summed in
        row order, then divided by its count, as ``mean(axis=0)`` of its rows
        would. (On a lone column numpy sums pairwise instead.)"""
        weights = np.asarray(weights, dtype=np.float64)
        labels = self.check_labels(labels)
        if weights.shape != (len(labels), self.n_rows):
            raise ValueError(
                f"expected weights shape {(len(labels), self.n_rows)}, "
                f"got {weights.shape}"
            )
        counts = np.bincount(labels, minlength=self.n_classes)
        sums = np.zeros(self.centers.shape)  # numpy's sums start at +0.0 too
        np.add.at(sums, labels, weights)
        present = counts > 0
        means = sums[present] / counts[present, None]
        self.centers[present] = (1.0 - self.rate) * self.centers[present] + (
            self.rate * means
        )


def _require_batch(name: str, t: Tensor) -> int:
    """Check for a (..., B, R, C) batch; return its number of member axes."""
    if t.ndim < 3:
        raise ad.ShapeError(f"{name}: expected a (B, R, C) batch, got shape {t.shape}")
    return t.ndim - 3


def classification_loss(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross-entropy of (B, K) logits."""
    return ad.cross_entropy(logits, np.asarray(labels))


def feature_center_loss(action_features: Tensor) -> Tensor:
    """Half mean squared distance of (B, R, C) action features to their
    batch mean.

    The mean is a constant during differentiation, so each sample is pulled
    toward the current batch center rather than the center chasing itself.
    """
    members = _require_batch("feature_center_loss", action_features)
    n = action_features.shape[-3]
    center = action_features.data.mean(axis=-3, keepdims=True)
    return ad.sq_frobenius(action_features, members, center, 1.0 / (2.0 * n))


def weight_center_loss(
    weights: Tensor,
    labels: Sequence[int],
    table: WeightCenterTable,
    update: bool = True,
) -> Tensor:
    """Mean squared distance of each (B, 1, R) weight row to its class
    center.

    Uses the centers as they stand, then (when update is set) folds the
    batch into the table. Evaluation passes must not update, and neither
    can weights with member axes: the table holds one set of centers.
    """
    members = _require_batch("weight_center_loss", weights)
    if update and members:
        raise ValueError(
            f"weight_center_loss: cannot update the centers from weights with "
            f"member axes {weights.shape[:members]} (shape {weights.shape})"
        )
    n = weights.shape[-3]
    labels = table.check_labels(labels)
    targets = table.centers[labels].reshape(weights.shape[-3:])
    loss = ad.sq_frobenius(weights, members, targets, 1.0 / n)
    if update:
        table.update(weights.data.reshape(n, -1), labels)
    return loss


def balance_loss(weights: Tensor) -> Tensor:
    """Squared distance between the batch-mean weight vector and uniform,
    for (B, 1, R) weights.

    Pushes the model to spread relation mass across action slots on average
    rather than collapsing onto a few.
    """
    members = _require_batch("balance_loss", weights)
    mean = ad.mean_rows(ad.reshape(weights, weights.shape[:-2] + (-1,)))
    uniform = np.full(mean.shape[-2:], 1.0 / mean.shape[-1])
    return ad.sq_frobenius(mean, members, uniform)


@dataclass
class LossBreakdown:
    """Total loss tensor plus the value of each component.

    Component values are the unweighted terms, as floats, or as arrays of
    one value per member when the forward result has member axes; skipped
    terms (zero weight or unavailable inputs) are reported as 0.
    """

    total: Tensor
    ce: float | np.ndarray
    feature_center: float | np.ndarray
    weight_center: float | np.ndarray
    balance: float | np.ndarray

    @property
    def total_value(self) -> float:
        return float(self.total.data)

    def as_dict(self) -> dict:
        return {
            "ce": self.ce,
            "feature_center": self.feature_center,
            "weight_center": self.weight_center,
            "balance": self.balance,
            "total": self.total_value,
        }


def _check_finite(value: Tensor, name: str) -> Tensor:
    if not np.isfinite(value.data).all():
        raise FloatingPointError(f"{name} loss is not finite")
    return value


def _value(term: Tensor):
    """A term's value: a float, or one value per member as an array."""
    return float(term.data) if term.ndim == 0 else term.data


def total_loss(
    result,
    labels: Sequence[int],
    weights: LossWeights,
    table: WeightCenterTable | None = None,
    update_table: bool = True,
) -> LossBreakdown:
    """Weighted sum of the four terms over one batched forward result: a
    0-d total, or one total per member of a member-stacked result, as one
    ``weighted_sum`` node over the classification, feature-center,
    weight-center and balance terms, in that order.

    Terms with zero weight are skipped outright, so the total is the
    classification loss itself when all three auxiliary weights are zero.
    Each term is checked as it is computed; a non-finite one raises
    FloatingPointError naming it.
    """
    if weights.feature_center != 0.0 and result.action_features is None:
        raise ValueError(
            "feature-center loss requires action features; "
            "use a variant that produces them or zero its weight"
        )
    needs_w = weights.weight_center != 0.0 or weights.balance != 0.0
    if needs_w and result.weights is None:
        raise ValueError(
            "weight-center and balance losses require slot weights; "
            "use the full variant or zero their weights"
        )
    if weights.weight_center != 0.0 and table is None:
        raise ValueError("weight-center loss requires a center table")

    kernels = {
        "feature_center": lambda: feature_center_loss(result.action_features),
        "weight_center": lambda: weight_center_loss(
            result.weights, labels, table, update=update_table
        ),
        "balance": lambda: balance_loss(result.weights),
    }
    ce = _check_finite(classification_loss(result.logits, labels), "classification")
    terms, factors = {"ce": ce}, [1.0]
    for name, kernel in kernels.items():
        factor = getattr(weights, name)
        if factor != 0.0:
            terms[name] = _check_finite(kernel(), name.replace("_", "-"))
            factors.append(factor)
    total = ce if len(terms) == 1 else ad.weighted_sum(terms.values(), factors)
    values = {name: _value(t) for name, t in terms.items()}
    return LossBreakdown(total, **{name: 0.0 for name in kernels} | values)
