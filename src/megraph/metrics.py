"""Classification metrics for pooled cross-validation predictions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts[t, p] of true class t predicted as p."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    if y_true.size == 0:
        raise ValueError("no predictions to score")
    for arr, name in ((y_true, "true"), (y_pred, "predicted")):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ValueError(f"{name} labels outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("no predictions to score")
    return float(np.mean(y_true == y_pred))


@dataclass
class F1Report:
    """Per-class and averaged F1, with classes that never appeared flagged.

    A class with no instances and no predictions contributes an F1 of 0 to
    the macro average and is listed in undefined_classes so reports can note
    the convention.
    """

    per_class: list[float]
    macro: float
    undefined_classes: list[int]


def f1_report(y_true, y_pred, n_classes: int) -> F1Report:
    counts = confusion_matrix(y_true, y_pred, n_classes)
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp

    denom = 2.0 * tp + fp + fn
    defined = denom != 0.0
    per_class = np.divide(2.0 * tp, denom, out=np.zeros(n_classes), where=defined)
    return F1Report(
        per_class=per_class.tolist(),
        macro=float(np.mean(per_class)),
        undefined_classes=np.flatnonzero(~defined).tolist(),
    )
