"""Confusion counts, accuracy, and F1 against hand-tallied oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megraph.metrics import accuracy, confusion_matrix, f1_report


class TestConfusionMatrix:
    def test_hand_tallied_example(self):
        y_true = [0, 0, 1, 1, 2, 2, 2]
        y_pred = [0, 1, 1, 1, 2, 0, 2]
        counts = confusion_matrix(y_true, y_pred, 3)
        np.testing.assert_array_equal(
            counts, [[1, 1, 0], [0, 2, 0], [1, 0, 2]]
        )
        assert counts.sum() == len(y_true)

    def test_random_sweep_matches_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(2, 6))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            counts = confusion_matrix(y_true, y_pred, k)
            expected = np.zeros((k, k), dtype=np.int64)
            for t, p in zip(y_true, y_pred):
                expected[t, p] += 1
            np.testing.assert_array_equal(counts, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)
        with pytest.raises(ValueError):
            confusion_matrix([], [], 2)
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1], 2)
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0, -1], 2)


class TestAccuracy:
    def test_known_values(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
        assert accuracy([0, 1, 2, 0], [0, 1, 0, 1]) == 0.5
        assert accuracy([1], [0]) == 0.0
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_equals_trace_over_total(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            y_true = rng.integers(0, 4, size=n)
            y_pred = rng.integers(0, 4, size=n)
            counts = confusion_matrix(y_true, y_pred, 4)
            np.testing.assert_allclose(
                accuracy(y_true, y_pred),
                np.trace(counts) / counts.sum(),
                atol=1e-12,
            )


class TestF1:
    def test_hand_computed_binary_case(self):
        # class 1: tp=2, fp=1, fn=1 -> f1 = 4/6; class 0: tp=2, fp=1, fn=1
        y_true = [0, 0, 0, 1, 1, 1]
        y_pred = [0, 0, 1, 1, 1, 0]
        report = f1_report(y_true, y_pred, 2)
        np.testing.assert_allclose(report.per_class, [2 / 3, 2 / 3])
        np.testing.assert_allclose(report.macro, 2 / 3)
        assert report.undefined_classes == []

    def test_absent_class_flagged_and_scored_zero(self):
        report = f1_report([0, 0, 1], [0, 0, 1], 3)
        assert report.undefined_classes == [2]
        assert report.per_class[2] == 0.0
        np.testing.assert_allclose(report.per_class[:2], [1.0, 1.0])
        np.testing.assert_allclose(report.macro, 2 / 3)

    def test_per_class_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            k = int(rng.integers(2, 6))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            report = f1_report(y_true, y_pred, k)
            for c in range(k):
                tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
                fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
                fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
                denom = 2 * tp + fp + fn
                want = 2 * tp / denom if denom else 0.0
                np.testing.assert_allclose(report.per_class[c], want, atol=1e-12)
            np.testing.assert_allclose(
                report.macro, np.mean(report.per_class), atol=1e-12
            )


def f1_loop_oracle(y_true, y_pred, n_classes):
    """Per-class F1 one class at a time, then their macro average."""
    counts = confusion_matrix(y_true, y_pred, n_classes)
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    per_class, undefined = [], []
    for k in range(n_classes):
        denom = 2.0 * tp[k] + fp[k] + fn[k]
        if denom == 0.0:
            per_class.append(0.0)
            undefined.append(k)
        else:
            per_class.append(float(2.0 * tp[k] / denom))
    return per_class, float(np.mean(per_class)), undefined


@st.composite
def predictions(draw):
    """2-7 classes, 1-59 samples; a third of the cases predict perfectly."""
    k = draw(st.integers(2, 7))
    n = draw(st.integers(1, 59))
    y_true = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        return y_true, list(y_true), k
    y_pred = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return y_true, y_pred, k


@settings(max_examples=300, deadline=None)
@given(predictions())
def test_f1_report_equals_the_per_class_loop_bit_for_bit(case):
    report = f1_report(*case)
    per_class, macro, undefined = f1_loop_oracle(*case)
    bits = lambda values: np.asarray(values, dtype=np.float64).view(np.uint64)
    assert np.array_equal(bits(report.per_class), bits(per_class))
    assert bits(report.macro) == bits(macro)
    assert report.undefined_classes == undefined
    assert all(type(v) is float for v in report.per_class)
    assert all(type(k) is int for k in report.undefined_classes)
