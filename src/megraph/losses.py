"""Classification loss plus three auxiliary regularizers.

All four terms are differentiable through the tape; the centers they pull
toward (batch feature mean, per-class weight centers) are held constant
during differentiation and maintained outside the tape, so gradients flow
only through the model outputs. Every term reads one stacked batch: (B, K)
logits, (B, R, C) action features, (B, R, 1) slot weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CENTER_MODES = ("ema", "batch")


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} weight must be >= 0")

    def to_dict(self) -> dict:
        return {
            "feature_center": self.feature_center,
            "weight_center": self.weight_center,
            "balance": self.balance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LossWeights":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


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
    exponential moving average (or are recomputed from each batch when mode
    is "batch"). Convex updates of simplex points stay on the simplex.
    """

    def __init__(
        self,
        n_classes: int,
        n_rows: int,
        rate: float = 0.5,
        mode: str = "ema",
    ):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"update rate must be in (0, 1], got {rate}")
        if mode not in CENTER_MODES:
            raise ValueError(f"mode must be one of {CENTER_MODES}, got {mode!r}")
        self.n_classes = n_classes
        self.n_rows = n_rows
        self.rate = rate
        self.mode = mode
        self.centers = np.full((n_classes, n_rows), 1.0 / n_rows)

    def center(self, label: int) -> np.ndarray:
        return self.centers[label].copy()

    def update(self, weights: np.ndarray, labels: Sequence[int]) -> None:
        """Fold one batch of (N, n_rows) weight vectors into the centers."""
        weights = np.asarray(weights, dtype=np.float64)
        labels = np.asarray(labels)
        if weights.shape != (len(labels), self.n_rows):
            raise ValueError(
                f"expected weights shape {(len(labels), self.n_rows)}, "
                f"got {weights.shape}"
            )
        for k in np.unique(labels):
            batch_mean = weights[labels == k].mean(axis=0)
            if self.mode == "batch":
                self.centers[k] = batch_mean
            else:
                self.centers[k] = (1.0 - self.rate) * self.centers[k] + (
                    self.rate * batch_mean
                )

    def state_dict(self) -> dict:
        return {
            "n_classes": self.n_classes,
            "n_rows": self.n_rows,
            "rate": self.rate,
            "mode": self.mode,
            "centers": self.centers.tolist(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "WeightCenterTable":
        table = cls(
            n_classes=state["n_classes"],
            n_rows=state["n_rows"],
            rate=state["rate"],
            mode=state["mode"],
        )
        centers = np.asarray(state["centers"], dtype=np.float64)
        if centers.shape != table.centers.shape:
            raise ValueError(
                f"center table shape {centers.shape} does not match "
                f"{table.centers.shape}"
            )
        table.centers = centers
        return table


def _require_batch(name: str, t: Tensor) -> None:
    if t.ndim != 3:
        raise ad.ShapeError(f"{name}: expected a (B, R, C) batch, got shape {t.shape}")


def classification_loss(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross-entropy of (B, K) logits."""
    return ad.cross_entropy(logits, np.asarray(labels))


def feature_center_loss(action_features: Tensor) -> Tensor:
    """Half mean squared distance of (B, R, C) action features to their
    batch mean.

    The mean is a constant during differentiation, so each sample is pulled
    toward the current batch center rather than the center chasing itself.
    """
    _require_batch("feature_center_loss", action_features)
    n = action_features.shape[0]
    center = ad.constant(action_features.data.mean(axis=0))
    return ad.scale(ad.sq_frobenius(ad.sub(action_features, center)), 1.0 / (2.0 * n))


def weight_center_loss(
    weights: Tensor,
    labels: Sequence[int],
    table: WeightCenterTable,
    update: bool = True,
) -> Tensor:
    """Mean squared distance of each (B, R, 1) weight vector to its class
    center.

    Uses the centers as they stand, then (when update is set) folds the
    batch into the table. Evaluation passes must not update.
    """
    _require_batch("weight_center_loss", weights)
    n = weights.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    targets = ad.constant(table.centers[labels].reshape(weights.shape))
    loss = ad.scale(ad.sq_frobenius(ad.sub(weights, targets)), 1.0 / n)
    if update:
        table.update(weights.data.reshape(n, -1), labels)
    return loss


def balance_loss(weights: Tensor) -> Tensor:
    """Squared distance between the batch-mean weight vector and uniform,
    for (B, R, 1) weights.

    Pushes the model to spread relation mass across action slots on average
    rather than collapsing onto a few.
    """
    _require_batch("balance_loss", weights)
    n = weights.shape[0]
    mean = ad.mean_rows(ad.reshape(weights, (n, -1)))
    target = ad.constant(np.full(mean.shape, 1.0 / mean.shape[1]))
    return ad.sq_frobenius(ad.sub(mean, target))


@dataclass
class LossBreakdown:
    """Total loss tensor plus the scalar value of each component.

    Component values are the unweighted terms; skipped terms (zero weight or
    unavailable inputs) are reported as 0.
    """

    total: Tensor
    ce: float
    feature_center: float
    weight_center: float
    balance: float

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
    if not np.isfinite(value.data):
        raise FloatingPointError(f"{name} loss is not finite")
    return value


def total_loss(
    result,
    labels: Sequence[int],
    weights: LossWeights,
    table: WeightCenterTable | None = None,
    update_table: bool = True,
) -> LossBreakdown:
    """Weighted sum of the four terms over one batched forward result.

    Terms with zero weight are skipped outright, so the total is exactly the
    classification loss when all three auxiliary weights are zero.
    """
    ce = _check_finite(classification_loss(result.logits, labels), "classification")
    total = ce
    mc_value = wc_value = b_value = 0.0

    if weights.feature_center != 0.0:
        if result.action_features is None:
            raise ValueError(
                "feature-center loss requires action features; "
                "use a variant that produces them or zero its weight"
            )
        mc = _check_finite(
            feature_center_loss(result.action_features), "feature-center"
        )
        mc_value = float(mc.data)
        total = ad.add(total, ad.scale(mc, weights.feature_center))

    needs_w = weights.weight_center != 0.0 or weights.balance != 0.0
    if needs_w and result.weights is None:
        raise ValueError(
            "weight-center and balance losses require slot weights; "
            "use the full variant or zero their weights"
        )

    if weights.weight_center != 0.0:
        if table is None:
            raise ValueError("weight-center loss requires a center table")
        wc = _check_finite(
            weight_center_loss(result.weights, labels, table, update=update_table),
            "weight-center",
        )
        wc_value = float(wc.data)
        total = ad.add(total, ad.scale(wc, weights.weight_center))

    if weights.balance != 0.0:
        b = _check_finite(balance_loss(result.weights), "balance")
        b_value = float(b.data)
        total = ad.add(total, ad.scale(b, weights.balance))

    return LossBreakdown(
        total=total,
        ce=float(ce.data),
        feature_center=mc_value,
        weight_center=wc_value,
        balance=b_value,
    )
