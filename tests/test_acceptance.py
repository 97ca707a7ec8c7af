"""The acceptance gate: eight go/no-go checks over the whole package.

Each test prints a single pass/fail verdict line (run with -s to see them
alongside pytest's own output). The checks lean on independent loop oracles
and rely on nothing from the other test files, so this file alone decides
whether a build is acceptable.
"""

import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import megraph.autodiff as ad
from megraph.checks import DEFAULT_SEEDS, battery_passed, run_battery
from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
from megraph.graph import build_graph
from megraph.landmarks import load_samples, save_samples, synthesize_dataset
from megraph.losses import (
    LossWeights,
    WeightCenterTable,
    balance_loss,
    classification_loss,
    feature_center_loss,
    total_loss,
    weight_center_loss,
)
from megraph.model import ActionRelationNet, ForwardResult, ModelConfig
from megraph.params import read_checkpoint, write_checkpoint
from megraph.training import (
    LOSS_ROWS,
    MODULE_ROWS,
    check_no_leakage,
    frames_digest,
    loso_split,
    prepare_samples,
    run_ablation,
    run_loso,
    run_training,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


SMALL = ModelConfig(
    variant="full", channels=4, n_actions=2, relation_channels=3, n_classes=3
)

# Calibrated on the bundled synthetic data; see the README for the rationale.
TUNED_WEIGHTS = LossWeights(feature_center=0.001, weight_center=1.0, balance=0.1)

OVERFIT_CONFIG = ExperimentConfig(
    synth=SynthSpec(n_subjects=2, samples_per_subject=4, n_classes=4,
                    noise_sigma=1.0, seed=0),
    model=ModelConfig(variant="full", channels=16, n_classes=4),
    loss_weights=TUNED_WEIGHTS,
    optimizer=OptimizerConfig(lr=0.01, epochs=300, batch_size=8,
                              plateau_patience=10**6),
    seed=0,
)


def comparison_config(variant: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        synth=SynthSpec(n_subjects=10, samples_per_subject=6, n_classes=5,
                        noise_sigma=1.0, seed=0),
        model=ModelConfig(variant=variant, channels=16),
        loss_weights=TUNED_WEIGHTS,
        optimizer=OptimizerConfig(lr=0.01, epochs=60, batch_size=16,
                                  plateau_patience=10**6),
        seed=seed,
    )


# -- loop oracles (python loops only, shared with nothing) -------------------


def loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for t in range(a.shape[1]):
                out[i, j] += a[i, t] * b[t, j]
    return out


def loop_relu(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            out[i, j] = x[i, j] if x[i, j] > 0 else 0.0
    return out


def loop_softmax_rows(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        m = max(x[i])
        e = [np.exp(v - m) for v in x[i]]
        out[i] = [v / sum(e) for v in e]
    return out


def loop_affine(adj, x, w, b):
    return loop_matmul(loop_matmul(adj, x), w) + b


def oracle_decompose(model, x):
    p = model.params
    pooled = []
    for sub in model.subgraphs:
        start, stop = sub.rows
        x_o = x[start:stop]
        hidden = loop_relu(
            loop_affine(sub.adjacency, x_o,
                        p[f"actions.{sub.component}.gc.w"].data,
                        p[f"actions.{sub.component}.gc.b"].data)
        )
        scores = (
            loop_matmul(hidden, p[f"actions.{sub.component}.mix.w"].data)
            + p[f"actions.{sub.component}.mix.b"].data
        )
        pooled.append(loop_matmul(loop_softmax_rows(scores).T, x_o))
    return np.concatenate(pooled, axis=0)


def oracle_relate(model, f_a):
    p = model.params
    hidden = loop_relu(
        loop_affine(model.relation_adj, f_a,
                    p["relation.gc.w"].data, p["relation.gc.b"].data)
    )
    scored = loop_matmul(hidden, p["relation.mix.w"].data) + p["relation.mix.b"].data
    raw = np.zeros((scored.shape[0], 1))
    for i in range(scored.shape[0]):
        raw[i, 0] = sum(abs(v) for v in scored[i])
    if model.config.normalize_weights:
        total = raw.sum()
        if total <= 0.0:  # all slots dead: the contract says uniform fallback
            raw = np.full_like(raw, 1.0 / raw.shape[0])
        else:
            raw = raw / total
    return loop_matmul(raw.T, f_a), raw


def oracle_ce(logits, labels):
    total = 0.0
    for row, label in zip(logits, labels):
        m = max(row)
        lse = m + np.log(sum(np.exp(v - m) for v in row))
        total += lse - row[label]
    return total / len(labels)


def oracle_feature_center(mats):
    center = np.zeros_like(mats[0])
    for m in mats:
        center += m
    center /= len(mats)
    total = 0.0
    for m in mats:
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                total += (m[i, j] - center[i, j]) ** 2
    return total / (2.0 * len(mats))


def oracle_weight_center(weights, labels, centers):
    total = 0.0
    for w, label in zip(weights, labels):
        for i in range(w.shape[0]):
            total += (w[i, 0] - centers[label][i]) ** 2
    return total / len(weights)


def oracle_balance(weights):
    n_rows = weights[0].shape[0]
    mean = np.zeros(n_rows)
    for w in weights:
        for i in range(n_rows):
            mean[i] += w[i, 0]
    mean /= len(weights)
    return sum((mean[i] - 1.0 / n_rows) ** 2 for i in range(n_rows))


def fake_result(logits_rows, features=None, weights=None):
    return ForwardResult(
        logits=ad.constant(np.stack(logits_rows)),
        node_features=None,
        action_features=None if features is None else ad.constant(np.stack(features)),
        weights=None if weights is None else ad.constant(np.stack(weights)),
    )


class TestAcceptance:
    def test_criterion_1_gradient_battery(self):
        with criterion(1, "gradient correctness"):
            t0 = time.perf_counter()
            entries = run_battery()
            elapsed = time.perf_counter() - t0
            assert battery_passed(entries), "\n".join(
                e.name for e in entries if not e.passed
            )
            assert elapsed < 60.0
            names = {e.name for e in entries}
            for loss_case in ("loss.classification", "loss.feature_center",
                              "loss.weight_center", "loss.balance"):
                assert loss_case in names
            assert len({e.seed for e in entries}) >= len(DEFAULT_SEEDS)
            assert any(n.startswith("model.full[") for n in names)
            assert all(e.result.max_rel_err < 1e-4 for e in entries)

    def test_criterion_2_shape_fidelity(self):
        with criterion(2, "shape fidelity"):
            model = ActionRelationNet(ModelConfig(), seed=3)
            na, c1, k = 3, 16, 5
            spans = [sub.rows[1] - sub.rows[0] for sub in model.subgraphs]
            assert spans == [10, 9, 12]
            for seed in range(10):
                sample = synthesize_dataset(
                    n_subjects=1, samples_per_subject=1, noise_sigma=2.0,
                    seed=seed,
                )[0]
                result = model.forward(build_graph(sample))
                assert result.logits.shape == (1, k)
                assert result.action_features.shape == (3 * na, c1)
                assert result.weights.shape == (3 * na, 1)
                assert result.recognition_feature.shape == (1, c1)
                for rows, comp in zip(spans, ("eyebrow", "nose", "mouth")):
                    assign = result.action_maps[comp]
                    assert assign.shape == (rows, na)
                    np.testing.assert_allclose(
                        assign.data.sum(axis=1), 1.0, atol=1e-9
                    )

    def test_criterion_3_oracle_equivalence(self):
        with criterion(3, "oracle equivalence"):
            rng = np.random.default_rng(42)
            for trial in range(20):
                model = ActionRelationNet(SMALL, seed=rng)
                x = rng.normal(size=(31, 4))
                got, _ = model.decompose(ad.constant(x))
                np.testing.assert_allclose(
                    got.data, oracle_decompose(model, x), rtol=0, atol=1e-10
                )
                f_a = rng.normal(size=(6, 4))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    pooled, w = model.relate(ad.constant(f_a))
                want_pooled, want_w = oracle_relate(model, f_a)
                np.testing.assert_allclose(pooled.data, want_pooled,
                                           rtol=0, atol=1e-10)
                np.testing.assert_allclose(w.data, want_w, rtol=0, atol=1e-10)

            for trial in range(20):
                n, k, rows, chans = 5, 4, 6, 3
                logits = rng.normal(size=(n, k))
                labels = rng.integers(0, k, size=n)
                got = classification_loss(ad.constant(logits), labels)
                np.testing.assert_allclose(
                    float(got.data), oracle_ce(logits, labels),
                    rtol=0, atol=1e-10,
                )

                mats = [rng.normal(size=(rows, chans)) for _ in range(n)]
                got = feature_center_loss(ad.constant(np.stack(mats)))
                np.testing.assert_allclose(
                    float(got.data), oracle_feature_center(mats),
                    rtol=0, atol=1e-10,
                )

                table = WeightCenterTable(n_classes=k, n_rows=rows)
                table.update(rng.dirichlet(np.ones(rows), size=k), list(range(k)))
                weights = [rng.normal(size=(rows, 1)) for _ in range(n)]
                w_labels = [int(v) for v in rng.integers(0, k, size=n)]
                got = weight_center_loss(
                    ad.constant(np.stack(weights)), w_labels, table,
                    update=False,
                )
                np.testing.assert_allclose(
                    float(got.data),
                    oracle_weight_center(weights, w_labels, table.centers),
                    rtol=0, atol=1e-10,
                )

                got = balance_loss(ad.constant(np.stack(weights)))
                np.testing.assert_allclose(
                    float(got.data), oracle_balance(weights),
                    rtol=0, atol=1e-10,
                )

    def test_criterion_4_analytic_zeros(self):
        with criterion(4, "analytic zero cases"):
            rng = np.random.default_rng(42)

            shared = rng.normal(size=(6, 3))
            value = feature_center_loss(ad.constant(np.stack([shared.copy()
                                                              for _ in range(4)])))
            assert float(value.data) == 0.0

            table = WeightCenterTable(n_classes=3, n_rows=6)
            table.update(rng.dirichlet(np.ones(6), size=3), [0, 1, 2])
            labels = [0, 1, 2, 1]
            weights = ad.constant(np.stack([table.center(l).reshape(6, 1)
                                            for l in labels]))
            value = weight_center_loss(weights, labels, table, update=False)
            assert float(value.data) == 0.0

            delta = rng.normal(size=(6, 1)) * 0.1
            uniform = np.full((6, 1), 1.0 / 6.0)
            value = balance_loss(ad.constant(np.stack([uniform + delta,
                                                       uniform - delta])))
            assert float(value.data) < 1e-30

            logits = rng.normal(size=(4, 5))
            result = fake_result(logits)
            breakdown = total_loss(result, [0, 1, 2, 3],
                                   LossWeights(0.0, 0.0, 0.0))
            assert breakdown.total_value == breakdown.ce

            for k in (2, 3, 5):
                rows = np.full((3, k), 0.7)
                value = classification_loss(ad.constant(rows), [0, 1, 0][:3])
                np.testing.assert_allclose(
                    float(value.data), np.log(k), rtol=0, atol=1e-12
                )

    def test_criterion_5_capacity_overfit(self):
        with criterion(5, "capacity sanity"):
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                first = run_training(OVERFIT_CONFIG)
            elapsed = time.perf_counter() - t0
            assert elapsed < 120.0
            assert len(first.folds[0].y_true) == 8
            assert first.pooled_accuracy == 1.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                second = run_training(OVERFIT_CONFIG)
            assert json.dumps(first.canonical(), sort_keys=True) == json.dumps(
                second.canonical(), sort_keys=True
            )

    def test_criterion_6_synthetic_loso_comparison(self):
        with criterion(6, "synthetic LOSO comparison"):
            t0 = time.perf_counter()
            backbone_accs = []
            full_accs = []
            for seed in range(5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    b = run_loso(comparison_config("backbone", seed))
                    f = run_loso(comparison_config("full", seed))
                backbone_accs.append(b.pooled_accuracy)
                full_accs.append(f.pooled_accuracy)
            elapsed = time.perf_counter() - t0
            assert elapsed < 900.0
            for b in backbone_accs:
                assert 0.60 <= b <= 0.85, backbone_accs
            for b, f in zip(backbone_accs, full_accs):
                assert f >= b - 0.02, (backbone_accs, full_accs)
            assert np.median(full_accs) >= np.median(backbone_accs)

    def test_criterion_7_protocol_integrity(self):
        with criterion(7, "protocol integrity"):
            samples = prepare_samples(comparison_config("full", 0))
            folds = loso_split(samples)
            all_digests = sorted(frames_digest(s) for s in samples)
            covered = []
            for fold in folds:
                assert {s.subject for s in fold.train}.isdisjoint(
                    {s.subject for s in fold.test}
                )
                train_digests = {frames_digest(s) for s in fold.train}
                for s in fold.test:
                    assert frames_digest(s) not in train_digests
                check_no_leakage(fold.train, fold.test)
                covered.extend(frames_digest(s) for s in fold.test)
                assert len(fold.train) + len(fold.test) == len(samples)
            assert sorted(covered) == all_digests

            cfg = ExperimentConfig(
                synth=SynthSpec(n_subjects=3, samples_per_subject=3,
                                n_classes=3, noise_sigma=1.0, seed=0),
                model=ModelConfig(variant="full", channels=4, n_actions=2,
                                  relation_channels=3, n_classes=3),
                loss_weights=TUNED_WEIGHTS,
                optimizer=OptimizerConfig(lr=0.02, epochs=3, batch_size=4),
                seed=0,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                first = run_loso(cfg)
                second = run_loso(cfg)
            weighted = sum(
                f.accuracy * len(f.y_true) for f in first.folds
            ) / sum(len(f.y_true) for f in first.folds)
            assert abs(first.pooled_accuracy - weighted) <= 1e-12
            assert json.dumps(first.canonical(), sort_keys=True) == json.dumps(
                second.canonical(), sort_keys=True
            )

    def test_criterion_8_format_round_trips(self, tmp_path):
        with criterion(8, "format round-trips"):
            samples = synthesize_dataset(
                n_subjects=3, samples_per_subject=4, n_classes=4, seed=5
            )
            path = tmp_path / "dataset.jsonl"
            save_samples(samples, path)
            loaded = load_samples(path)
            assert len(loaded) == len(samples)
            for a, b in zip(samples, loaded):
                assert a.subject == b.subject and a.label == b.label
                np.testing.assert_array_equal(a.frames, b.frames)

            model = ActionRelationNet(SMALL, seed=9)
            state = model.params.state_dict()
            ckpt = tmp_path / "model.json"
            write_checkpoint(state, ckpt)
            restored = read_checkpoint(ckpt)
            assert sorted(restored) == sorted(state)
            for name in state:
                np.testing.assert_array_equal(restored[name], state[name])

            cfg = ExperimentConfig(
                synth=SynthSpec(n_subjects=2, samples_per_subject=2,
                                n_classes=2, noise_sigma=1.0, seed=0),
                model=ModelConfig(variant="full", channels=4, n_actions=2,
                                  relation_channels=3, n_classes=2),
                loss_weights=TUNED_WEIGHTS,
                optimizer=OptimizerConfig(lr=0.02, epochs=1, batch_size=4),
                seed=0,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = run_ablation(cfg)
            assert tuple(r["name"] for r in report.modules) == MODULE_ROWS
            assert tuple(r["name"] for r in report.losses) == LOSS_ROWS
