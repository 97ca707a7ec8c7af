"""Loss terms against explicit-loop oracles, closed-form values, and the
center-table update rules."""

from dataclasses import replace

import numpy as np
import pytest

import megraph.autodiff as ad
from megraph.losses import (
    LossWeights,
    WeightCenterTable,
    balance_loss,
    classification_loss,
    feature_center_loss,
    for_variant,
    total_loss,
    weight_center_loss,
)
from megraph.model import ForwardResult


def fake_result(rng, n, k=3, rows=4, channels=3):
    """A hand-built batched forward result, so losses can be tested in
    isolation."""
    logits, feats, weights = [], [], []
    for _ in range(n):
        raw = np.abs(rng.normal(size=(rows, 1))) + 0.1
        logits.append(rng.normal(size=k))
        feats.append(rng.normal(size=(rows, channels)))
        weights.append(raw / raw.sum())
    return ForwardResult(
        logits=ad.constant(np.stack(logits)),
        node_features=None,
        action_features=ad.constant(np.stack(feats)),
        weights=ad.constant(np.stack(weights)),
    )


def oracle_ce(logit_rows, labels):
    total = 0.0
    for row, label in zip(logit_rows, labels):
        row = row.ravel()
        m = max(row)
        logz = m + np.log(sum(np.exp(v - m) for v in row))
        total += logz - row[label]
    return total / len(labels)


def oracle_feature_center(feats):
    n = len(feats)
    center = sum(feats) / n
    total = 0.0
    for f in feats:
        for i in range(f.shape[0]):
            for j in range(f.shape[1]):
                total += (f[i, j] - center[i, j]) ** 2
    return total / (2.0 * n)


def oracle_weight_center(weight_cols, labels, centers):
    total = 0.0
    for w, label in zip(weight_cols, labels):
        c = centers[label]
        for i in range(w.shape[0]):
            total += (w[i, 0] - c[i]) ** 2
    return total / len(labels)


def oracle_balance(weight_cols):
    n_rows = weight_cols[0].shape[0]
    mean = sum(w.ravel() for w in weight_cols) / len(weight_cols)
    return sum((mean[i] - 1.0 / n_rows) ** 2 for i in range(n_rows))


class TestLossWeights:
    def test_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            LossWeights(feature_center=-0.1)
        w = LossWeights(feature_center=0.5, weight_center=2.0, balance=0.25)
        assert LossWeights.from_dict(w.to_dict()) == w

    def test_for_variant_zeroes_unavailable_terms(self):
        base = LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1)
        assert for_variant(base, "backbone") == LossWeights(0.0, 0.0, 0.0)
        assert for_variant(base, "actions") == LossWeights(1.0, 0.0, 0.0)
        assert for_variant(base, "full") == base


class TestLoopOracles:
    def test_all_four_terms_match_loops(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            result = fake_result(rng, n=int(rng.integers(2, 6)))
            n = result.logits.shape[0]
            labels = [int(v) for v in rng.integers(0, 3, size=n)]
            table = WeightCenterTable(n_classes=3, n_rows=4)
            table.centers = rng.dirichlet(np.ones(4), size=3)

            ce = classification_loss(result.logits, labels)
            np.testing.assert_allclose(
                float(ce.data),
                oracle_ce(list(result.logits.data), labels),
                atol=1e-10,
            )

            mc = feature_center_loss(result.action_features)
            np.testing.assert_allclose(
                float(mc.data),
                oracle_feature_center(list(result.action_features.data)),
                atol=1e-10,
            )

            ws = result.weights
            centers_before = table.centers.copy()
            wc = weight_center_loss(ws, labels, table, update=False)
            np.testing.assert_allclose(
                float(wc.data),
                oracle_weight_center(list(ws.data), labels, centers_before),
                atol=1e-10,
            )

            b = balance_loss(ws)
            np.testing.assert_allclose(
                float(b.data), oracle_balance(list(ws.data)), atol=1e-10
            )


class TestClosedForms:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 5):
            ce = classification_loss(ad.constant(np.zeros((4, k))), [0] * 4)
            np.testing.assert_allclose(float(ce.data), np.log(k), atol=1e-12)

    def test_identical_features_zero_center_loss(self):
        f = np.random.default_rng(42).normal(size=(4, 3))
        mc = feature_center_loss(ad.constant(np.stack([f, f, f])))
        np.testing.assert_allclose(float(mc.data), 0.0, atol=1e-15)

    def test_two_sample_center_loss_is_eighth_of_gap(self):
        # two samples, center at the midpoint: loss = |a - b|^2 / 8
        pair = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        mc = feature_center_loss(ad.constant(pair))
        np.testing.assert_allclose(float(mc.data), 4.0 / 8.0)

    def test_weight_center_simple_value(self):
        # one sample with weights (1, 0) against center (0.5, 0.5):
        # squared distance 0.25 + 0.25 = 0.5
        table = WeightCenterTable(n_classes=2, n_rows=2)
        w = ad.constant(np.array([[[1.0], [0.0]]]))
        loss = weight_center_loss(w, [0], table, update=False)
        np.testing.assert_allclose(float(loss.data), 0.5, atol=1e-12)

    def test_uniform_weights_zero_balance(self):
        w = ad.constant(np.full((2, 4, 1), 0.25))
        np.testing.assert_allclose(float(balance_loss(w).data), 0.0)

    def test_balance_penalizes_collapse(self):
        collapsed = ad.constant(np.array([[[1.0], [0.0], [0.0], [0.0]]]))
        uniform = ad.constant(np.full((1, 4, 1), 0.25))
        assert float(balance_loss(collapsed).data) > float(
            balance_loss(uniform).data
        )

    def test_unbatched_input_rejected(self):
        with pytest.raises(ad.ShapeError):
            balance_loss(ad.constant(np.full((4, 1), 0.25)))


class TestCenterTable:
    def test_starts_uniform_and_stays_on_simplex(self):
        table = WeightCenterTable(n_classes=3, n_rows=4, rate=0.5)
        np.testing.assert_allclose(table.centers, 0.25)
        rng = np.random.default_rng(42)
        for _ in range(10):
            w = rng.dirichlet(np.ones(4), size=6)
            labels = rng.integers(0, 3, size=6)
            table.update(w, labels)
            np.testing.assert_allclose(table.centers.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(table.centers >= 0)

    def test_ema_recurrence(self):
        table = WeightCenterTable(n_classes=2, n_rows=2, rate=0.5)
        table.update(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_allclose(table.center(0), [0.75, 0.25])
        np.testing.assert_allclose(table.center(1), [0.5, 0.5])  # untouched
        table.update(np.array([[1.0, 0.0]]), [0])
        np.testing.assert_allclose(table.center(0), [0.875, 0.125])

    def test_batch_mode_recomputes(self):
        table = WeightCenterTable(n_classes=2, n_rows=2, mode="batch")
        table.update(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 0])
        np.testing.assert_allclose(table.center(0), [0.5, 0.5])
        table.update(np.array([[0.8, 0.2]]), [0])
        np.testing.assert_allclose(table.center(0), [0.8, 0.2])

    def test_state_round_trip(self):
        table = WeightCenterTable(n_classes=2, n_rows=3, rate=0.25, mode="ema")
        table.update(np.array([[0.5, 0.25, 0.25]]), [1])
        back = WeightCenterTable.from_state_dict(table.state_dict())
        assert (back.n_classes, back.n_rows, back.rate, back.mode) == (
            2, 3, 0.25, "ema",
        )
        np.testing.assert_array_equal(back.centers, table.centers)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightCenterTable(n_classes=1, n_rows=2)
        with pytest.raises(ValueError):
            WeightCenterTable(n_classes=2, n_rows=2, rate=0.0)
        with pytest.raises(ValueError):
            WeightCenterTable(n_classes=2, n_rows=2, mode="running")
        table = WeightCenterTable(n_classes=2, n_rows=2)
        with pytest.raises(ValueError):
            table.update(np.zeros((1, 3)), [0])


class TestTotalLoss:
    def test_zero_weights_reduce_to_classification_exactly(self):
        rng = np.random.default_rng(42)
        result = fake_result(rng, n=3)
        labels = [0, 1, 2]
        breakdown = total_loss(result, labels, LossWeights(0.0, 0.0, 0.0))
        ce = classification_loss(result.logits, labels)
        assert breakdown.total_value == float(ce.data)
        assert breakdown.feature_center == 0.0
        assert breakdown.weight_center == 0.0
        assert breakdown.balance == 0.0

    def test_weighted_sum_identity(self):
        rng = np.random.default_rng(42)
        result = fake_result(rng, n=4)
        labels = [0, 1, 2, 0]
        table = WeightCenterTable(n_classes=3, n_rows=4)
        w = LossWeights(feature_center=0.7, weight_center=1.3, balance=0.2)
        breakdown = total_loss(
            result, labels, w, table=table, update_table=False
        )
        expected = (
            breakdown.ce
            + 0.7 * breakdown.feature_center
            + 1.3 * breakdown.weight_center
            + 0.2 * breakdown.balance
        )
        np.testing.assert_allclose(breakdown.total_value, expected, atol=1e-12)

    def test_lambda_scaling_is_linear(self):
        rng = np.random.default_rng(42)
        result = fake_result(rng, n=3)
        labels = [0, 1, 2]
        base = total_loss(
            result, labels, LossWeights(1.0, 0.0, 0.0)
        )
        doubled = total_loss(
            result, labels, LossWeights(2.0, 0.0, 0.0)
        )
        np.testing.assert_allclose(
            doubled.total_value - doubled.ce,
            2.0 * (base.total_value - base.ce),
            atol=1e-12,
        )

    def test_missing_inputs_rejected(self):
        rng = np.random.default_rng(42)
        bare = ForwardResult(
            logits=ad.constant(rng.normal(size=(2, 3))), node_features=None
        )
        with pytest.raises(ValueError, match="action features"):
            total_loss(bare, [0, 1], LossWeights(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="slot weights"):
            total_loss(bare, [0, 1], LossWeights(0.0, 0.0, 0.1))
        full = fake_result(rng, n=2)
        with pytest.raises(ValueError, match="center table"):
            total_loss(full, [0, 1], LossWeights(0.0, 1.0, 0.0), table=None)

    def test_update_flag_controls_table_mutation(self):
        rng = np.random.default_rng(42)
        result = fake_result(rng, n=3)
        labels = [0, 1, 2]
        weights = LossWeights(0.0, 1.0, 0.0)
        frozen = WeightCenterTable(n_classes=3, n_rows=4)
        before = frozen.centers.copy()
        total_loss(result, labels, weights, table=frozen, update_table=False)
        np.testing.assert_array_equal(frozen.centers, before)
        updated = WeightCenterTable(n_classes=3, n_rows=4)
        total_loss(result, labels, weights, table=updated, update_table=True)
        assert np.abs(updated.centers - before).max() > 1e-6

    def test_non_finite_term_is_named(self):
        result = ForwardResult(
            logits=ad.constant([[np.inf, 0.0, 0.0]] * 2), node_features=None
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="classification"):
                total_loss(result, [0, 1], LossWeights(0.0, 0.0, 0.0))

    def test_backward_reaches_logits(self):
        rng = np.random.default_rng(42)
        result = fake_result(rng, n=3)
        result.logits.requires_grad = True
        labels = [0, 1, 2]
        table = WeightCenterTable(n_classes=3, n_rows=4)
        breakdown = total_loss(
            result, labels, LossWeights(1.0, 1.0, 0.1),
            table=table, update_table=False,
        )
        breakdown.total.backward()
        assert result.logits.grad is not None
        for row in result.logits.grad:
            assert np.abs(row).max() > 0
