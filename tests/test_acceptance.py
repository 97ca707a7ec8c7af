"""The acceptance gate: eight go/no-go checks over the whole package.

Each test prints a single pass/fail verdict line (run with -s to see them
alongside pytest's own output). The checks lean on independent loop oracles
and rely on nothing from the other test files, so this file alone decides
whether a build is acceptable. A hypothesis property at the end holds the
relation op, ``slot_weights``, and the ops ``matmul`` and ``sq_frobenius`` to
their loop oracles over random shapes.
"""

import hashlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import megraph.autodiff as ad
from megraph.checks import DEFAULT_SEEDS, battery_passed, run_battery
from megraph.config import ExperimentConfig, OptimizerConfig, SynthSpec
from megraph.graph import SUBGRAPHS, build_graph
from megraph.landmarks import (
    crop_jitter,
    load_samples,
    save_samples,
    synthesize_dataset,
)
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


def loop_gather_rows(x, rows):
    out = np.zeros(rows.shape + x.shape[1:])
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            if rows[i, j] >= 0:
                for c in range(x.shape[1]):
                    out[i, j, c] = x[rows[i, j], c]
    return out


def loop_decompose(x, rows, adj, gw, gb, mw, mb):
    """One sample's decompose: the groups of rows gathered, then each
    assigned to its slots and pooled as oracle_decompose does a component."""
    xg = loop_gather_rows(x, rows)
    pooled, assign = [], []
    for i in range(rows.shape[0]):
        hidden = loop_relu(loop_affine(adj[i], xg[i], gw[i], gb[i]))
        assign.append(loop_softmax_rows(loop_matmul(hidden, mw[i]) + mb[i]))
        pooled.append(loop_matmul(assign[-1].T, xg[i]))
    return np.concatenate(pooled, axis=0), np.stack(assign)


def loop_slot_weights(scores, g):
    """One (R, C) matrix's relation weights, each row's L1 mass over the
    total (uniform when the total is not positive), and the gradient of
    sum_r g[r] * w[r] with respect to the scores (zero on the fallback)."""
    n_rows, n_cols = scores.shape
    mass = [sum(abs(v) for v in row) for row in scores]
    total = sum(mass)
    if total <= 0.0:
        return np.full(n_rows, 1.0 / n_rows), np.zeros((n_rows, n_cols))
    w = np.array([m / total for m in mass])
    dot = sum(g[r] * w[r] for r in range(n_rows))
    grad = np.zeros((n_rows, n_cols))
    for r in range(n_rows):
        for c in range(n_cols):
            grad[r, c] = np.sign(scores[r, c]) * (g[r] - dot) / total
    return w, grad


def loop_sq_frobenius(x, center, factor, g):
    """One member's ``factor`` times the sum of squared entries of x - center
    (center of x's shape), and the gradient of g times it."""
    total = 0.0
    grad = np.zeros(x.shape)
    for at in np.ndindex(*x.shape):
        d = x[at] - center[at]
        total += d * d
        grad[at] = 2.0 * d * factor * g
    return factor * total, grad


def loop_crop_jitter(frames, rng, copies, max_scale, max_shift):
    """Per sample and per copy: draw the scale, then the two shifts."""
    out = []
    for sample in frames:
        for _ in range(copies):
            scale = 1.0 + rng.uniform(-max_scale, max_scale)
            shift = rng.uniform(-max_shift, max_shift, size=2)
            center = sample[0].mean(axis=0)
            out.append((sample - center) * scale + center + shift)
    return np.array(out)


def loop_affine(adj, x, w, b):
    return loop_matmul(loop_matmul(adj, x), w) + b


def oracle_decompose(model, x):
    p = model.params
    pooled = []
    for i, sub in enumerate(SUBGRAPHS):
        start, stop = sub.rows
        x_o = x[start:stop]
        hidden = loop_relu(
            loop_affine(sub.adjacency, x_o,
                        p["actions.gc.w"].data[i], p["actions.gc.b"].data[i])
        )
        scores = (
            loop_matmul(hidden, p["actions.mix.w"].data[i])
            + p["actions.mix.b"].data[i]
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
            spans = [sub.rows[1] - sub.rows[0] for sub in SUBGRAPHS]
            assert spans == [10, 9, 12]
            for seed in range(10):
                frames = synthesize_dataset(
                    n_subjects=1, samples_per_subject=1, noise_sigma=2.0,
                    seed=seed,
                ).frames[0]
                result = model.forward(build_graph(frames))
                assert result.logits.shape == (1, k)
                assert result.action_features.shape == (3 * na, c1)
                assert result.weights.shape == (1, 3 * na)
                assert result.recognition_feature.shape == (1, c1)
                for c, (rows, comp) in enumerate(zip(spans, ("eyebrow", "nose", "mouth"))):
                    assert SUBGRAPHS[c].component == comp
                    assign = result.assignment[c, : len(SUBGRAPHS[c].indices)]
                    assert assign.shape == (rows, na)
                    np.testing.assert_allclose(
                        assign.sum(axis=1), 1.0, atol=1e-9
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
                np.testing.assert_allclose(w.data, want_w.T, rtol=0, atol=1e-10)

            for trial in range(20):
                # 31 rows and five -1 (zero-row) entries in a random (3, 12)
                # layout, with random (3, 12, 12) adjacencies
                x = rng.normal(size=(31, 4))
                index = rng.permutation(np.r_[np.arange(31), np.full(5, -1)])
                index = index.reshape(3, 12)
                adj = rng.normal(size=(3, 12, 12)) / 4.0
                params = [rng.normal(size=s) for s in ((3, 4, 2), (3, 1, 2),
                                                       (3, 2, 3), (3, 1, 3))]
                got, assign = ad.decompose(ad.constant(x), index, adj,
                                           *map(ad.constant, params))
                want, want_assign = loop_decompose(x, index, adj, *params)
                np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)
                np.testing.assert_allclose(assign, want_assign, rtol=0, atol=1e-10)

            for seed in range(5):
                samples = synthesize_dataset(n_subjects=2, samples_per_subject=3,
                                             seed=seed)
                for copies in (1, 2, 3):
                    for max_scale, max_shift in ((0.05, 3.0), (0.0, 3.0), (0.05, 0.0)):
                        got_rng = np.random.default_rng(seed)
                        want_rng = np.random.default_rng(seed)
                        got = crop_jitter(samples, got_rng, copies, max_scale, max_shift)
                        want = loop_crop_jitter(samples.frames, want_rng, copies,
                                                max_scale, max_shift)
                        np.testing.assert_array_equal(
                            got.frames.view(np.uint64), want.view(np.uint64)
                        )
                        assert got_rng.random() == want_rng.random()
                        assert got.subjects.tolist() == [
                            s for s in samples.subjects.tolist() for _ in range(copies)
                        ]
                        assert got.labels.tolist() == [
                            y for y in samples.labels.tolist() for _ in range(copies)
                        ]

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
            weights = ad.constant(np.stack([table.centers[l].reshape(6, 1)
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
            subjects = samples.subjects.tolist()
            digests = [hashlib.sha256(f.tobytes()).hexdigest() for f in samples.frames]
            assert samples.digests.tolist() == digests
            assert [subject for subject, _ in folds] == sorted(set(subjects))
            covered = []
            for subject, held_out in folds:
                train = [i for i in range(len(samples)) if not held_out[i]]
                test = [i for i in range(len(samples)) if held_out[i]]
                assert {subjects[i] for i in test} == {subject}
                assert {subjects[i] for i in train}.isdisjoint({subject})
                train_digests = {digests[i] for i in train}
                for i in test:
                    assert digests[i] not in train_digests
                check_no_leakage(samples[~held_out], samples[held_out])
                covered.extend(digests[i] for i in test)
                assert len(train) + len(test) == len(samples)
            assert sorted(covered) == sorted(digests)

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
            for i in range(len(samples)):
                assert loaded.subjects[i] == samples.subjects[i]
                assert loaded.labels[i] == samples.labels[i]
                np.testing.assert_array_equal(loaded.frames[i], samples.frames[i])

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


@settings(max_examples=100, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    n_rows=st.integers(1, 5),
    n_cols=st.integers(1, 4),
    zeroed=st.lists(st.booleans(), min_size=9, max_size=9),
    seed=st.integers(0, 2**32 - 1),
)
def test_slot_weights_matches_the_loop_oracle(lead, n_rows, n_cols, zeroed, seed):
    # per (R, C) matrix of any batch and member axes, some all zero
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(*lead, n_rows, n_cols))
    g = rng.normal(size=(*lead, 1, n_rows))
    for at, zero in zip(np.ndindex(*lead), zeroed):
        if zero:
            scores[at] = 0.0
    x = ad.tensor(scores, requires_grad=True)
    weights, fallen = ad.slot_weights(x)
    ad.backward(weights, g)
    assert weights.shape == (*lead, 1, n_rows) and fallen.shape == (*lead, 1, 1)
    for at in np.ndindex(*lead):
        want_w, want_grad = loop_slot_weights(scores[at], g[at][0])
        assert fallen[at][0, 0] == (not np.abs(scores[at]).any())
        np.testing.assert_allclose(weights.data[at][0], want_w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad[at], want_grad, rtol=0, atol=1e-12)


def lead_shape(lead, dropped, ones):
    """``lead`` without its first ``dropped`` axes, the axes marked in
    ``ones`` set to 1: an operand's leading axes that broadcast to ``lead``."""
    return tuple(1 if one else n for n, one in zip(lead, ones))[dropped:]


def operand_index(at, shape):
    """The index of an operand of leading ``shape`` that the broadcast
    index ``at`` reads."""
    at = at[len(at) - len(shape):]
    return tuple(0 if n == 1 else i for i, n in zip(at, shape))


@settings(max_examples=100, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=3),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    dropped=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    ones=st.tuples(*[st.lists(st.booleans(), min_size=3, max_size=3)] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_the_loop_oracle(lead, dims, dropped, ones, seed):
    # per matrix of any batch and member axes, each operand broadcast along
    # some of them, its gradient summed over the matrices that read it
    m, k, n = dims
    rng = np.random.default_rng(seed)
    lead_a, lead_b = (lead_shape(lead, d, o) for d, o in zip(dropped, ones))
    a = ad.tensor(rng.normal(size=(*lead_a, m, k)), requires_grad=True)
    b = ad.tensor(rng.normal(size=(*lead_b, k, n)), requires_grad=True)
    g = rng.normal(size=(*np.broadcast_shapes(lead_a, lead_b), m, n))
    out = ad.matmul(a, b)
    ad.backward(out, g)
    assert out.shape == g.shape
    grad_a, grad_b = np.zeros(a.shape), np.zeros(b.shape)
    for at in np.ndindex(*g.shape[:-2]):
        ia, ib = operand_index(at, lead_a), operand_index(at, lead_b)
        want = loop_matmul(a.data[ia], b.data[ib])
        np.testing.assert_allclose(out.data[at], want, rtol=0, atol=1e-12)
        grad_a[ia] += loop_matmul(g[at], b.data[ib].T)
        grad_b[ib] += loop_matmul(a.data[ia].T, g[at])
    np.testing.assert_allclose(a.grad, grad_a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.grad, grad_b, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=3),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    keep=st.integers(0, 3),
    center=st.one_of(st.none(), st.tuples(
        st.integers(0, 5), st.lists(st.booleans(), min_size=5, max_size=5)
    )),
    factor=st.sampled_from([1.0, -0.7, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sq_frobenius_matches_the_loop_oracle(lead, dims, keep, center, factor, seed):
    # one sum per member of the first ``keep`` axes, with and without a
    # center that broadcasts along some trailing axes, under a factor
    keep = min(keep, len(lead))
    rng = np.random.default_rng(seed)
    x = ad.tensor(rng.normal(size=(*lead, *dims)), requires_grad=True)
    c = None
    if center is not None:
        dropped, ones = center
        c = rng.normal(size=lead_shape(x.shape, min(dropped, x.ndim), ones))
    g = rng.normal(size=tuple(lead[:keep]))
    out = ad.sq_frobenius(x, keep, c, factor)
    ad.backward(out, g)
    assert out.shape == g.shape
    full_center = np.broadcast_to(0.0 if c is None else c, x.shape)
    for at in np.ndindex(*g.shape):
        want, want_grad = loop_sq_frobenius(x.data[at], full_center[at], factor, g[at])
        np.testing.assert_allclose(out.data[at], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad[at], want_grad, rtol=0, atol=1e-12)
