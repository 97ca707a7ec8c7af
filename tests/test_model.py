"""Model stages against explicit-loop oracles and degenerate-case algebra.

The oracles below use python loops only, no shared vectorized code paths,
so agreement with the tape implementation is evidence both are right.
"""

import warnings

import numpy as np
import pytest

import megraph.autodiff as ad
from megraph.config import decode, encode
from megraph.graph import ADJACENCY, SUBGRAPHS, build_graph
from megraph.landmarks import synthesize_dataset
from megraph.losses import LossWeights, WeightCenterTable, for_variant, total_loss
from megraph.model import (
    VARIANTS,
    ActionRelationNet,
    ModelConfig,
    relation_adjacency,
)
from megraph.training import sample_graph

SMALL = ModelConfig(
    variant="full", channels=4, n_actions=2, relation_channels=3, n_classes=3
)


# -- explicit-loop linear algebra ------------------------------------------


def loop_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
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
        s = sum(e)
        out[i] = [v / s for v in e]
    return out


def loop_graph_affine(adj, x, w, b):
    return loop_matmul(loop_matmul(adj, x), w) + b


def oracle_decompose(model, x):
    """Per-component soft assignment and pooling, loops only."""
    p = model.params
    pooled = []
    maps = {}
    for i, sub in enumerate(SUBGRAPHS):
        start, stop = sub.rows
        x_o = x[start:stop]
        hidden = loop_relu(
            loop_graph_affine(
                sub.adjacency,
                x_o,
                p["actions.gc.w"].data[i],
                p["actions.gc.b"].data[i],
            )
        )
        scores = (
            loop_matmul(hidden, p["actions.mix.w"].data[i])
            + p["actions.mix.b"].data[i]
        )
        assign = loop_softmax_rows(scores)
        maps[sub.component] = assign
        pooled.append(loop_matmul(assign.T, x_o))
    return np.concatenate(pooled, axis=0), maps


def oracle_relate(model, f_a):
    """Slot scoring over the complete relation graph, loops only."""
    p = model.params
    hidden = loop_relu(
        loop_graph_affine(
            model.relation_adj, f_a, p["relation.gc.w"].data, p["relation.gc.b"].data
        )
    )
    scored = (
        loop_matmul(hidden, p["relation.mix.w"].data) + p["relation.mix.b"].data
    )
    raw = np.zeros((scored.shape[0], 1))
    for i in range(scored.shape[0]):
        raw[i, 0] = sum(abs(v) for v in scored[i])
    total = raw.sum()
    if total <= 0.0:  # all slots dead: contract says uniform fallback
        raw = np.full_like(raw, 1.0 / raw.shape[0])
    else:
        raw = raw / total
    return loop_matmul(raw.T, f_a), raw


class TestRelationAdjacency:
    def test_exact_values_and_row_sums(self):
        for n in (2, 5, 6):
            r = relation_adjacency(n)
            np.testing.assert_allclose(np.diag(r), 2.0 / (n + 1))
            off = r[~np.eye(n, dtype=bool)]
            np.testing.assert_allclose(off, 1.0 / (n + 1))
            np.testing.assert_allclose(r.sum(axis=1), 1.0)
            np.testing.assert_array_equal(r, r.T)

    def test_slots_stay_distinguishable(self):
        # Rows of R @ F must differ when F's rows differ; a uniform operator
        # would average them all to the same row.
        rng = np.random.default_rng(42)
        f = rng.normal(size=(6, 4))
        mixed = relation_adjacency(6) @ f
        assert np.abs(mixed - mixed.mean(axis=0)).max() > 0.01


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="other")
        with pytest.raises(ValueError):
            ModelConfig(channels=0)
        with pytest.raises(ValueError):
            ModelConfig(n_classes=1)

    def test_round_trip(self):
        cfg = ModelConfig(
            variant="actions", channels=8, n_actions=4,
            relation_channels=6, n_classes=4,
        )
        assert decode(ModelConfig, encode(cfg)) == cfg
        assert cfg.n_action_rows == 12


class TestShapes:
    def test_forward_shapes_full_variant(self):
        samples = synthesize_dataset(n_subjects=1, samples_per_subject=1, seed=0)
        model = ActionRelationNet(
            ModelConfig(variant="full", channels=6, n_actions=3,
                        relation_channels=5, n_classes=5),
            seed=0,
        )
        result = model.forward(build_graph(samples.frames[0]))
        assert result.logits.shape == (1, 5)
        assert result.node_features.shape == (31, 6)
        assert result.action_features.shape == (9, 6)
        assert result.weights.shape == (1, 9)
        assert result.recognition_feature.shape == (1, 6)
        assert result.assignment.shape == (3, 12, 3)
        for c, (comp, rows) in enumerate((("eyebrow", 10), ("nose", 9), ("mouth", 12))):
            assert SUBGRAPHS[c].component == comp
            assign = result.assignment[c, : len(SUBGRAPHS[c].indices)]
            assert assign.shape == (rows, 3)
            np.testing.assert_allclose(
                assign.sum(axis=1), 1.0, atol=1e-9
            )
        np.testing.assert_allclose(result.weights.data.sum(), 1.0, atol=1e-12)

    def test_variant_dataflow(self):
        samples = synthesize_dataset(n_subjects=1, samples_per_subject=1, seed=0)
        features = build_graph(samples.frames[0])
        for variant in VARIANTS:
            cfg = ModelConfig(
                variant=variant, channels=4, n_actions=2,
                relation_channels=3, n_classes=3,
            )
            result = ActionRelationNet(cfg, seed=0).forward(features)
            assert result.logits.shape == (1, 3)
            if variant == "backbone":
                assert result.action_features is None
                assert result.weights is None
            elif variant == "actions":
                assert result.action_features is not None
                assert result.weights is None
            else:
                assert result.weights is not None

    def test_param_sets_differ_by_variant(self):
        names = {
            v: {
                name
                for name, _ in ActionRelationNet(
                    ModelConfig(variant=v, channels=4, n_actions=2,
                                relation_channels=3, n_classes=3),
                    seed=0,
                ).params.items()
            }
            for v in VARIANTS
        }
        assert any(n.startswith("backbone.") for n in names["backbone"])
        assert not any(n.startswith("actions.") for n in names["backbone"])
        assert any(n.startswith("actions.") for n in names["actions"])
        assert not any(n.startswith("relation.") for n in names["actions"])
        assert any(n.startswith("relation.") for n in names["full"])

    @staticmethod
    def step_tape_nodes(variant):
        # every node of one training step's tape, constants and parameters
        # included, for the default model at B = 16 with its variant's losses
        model = ActionRelationNet(ModelConfig(variant=variant), seed=0)
        samples = synthesize_dataset(n_subjects=2, samples_per_subject=8, seed=0)
        features = sample_graph(samples, 3.0)
        table = WeightCenterTable(n_classes=5, n_rows=9)
        weights = for_variant(LossWeights(), variant)
        loss = total_loss(
            model.forward(features), samples.labels, weights, table=table
        ).total
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    def test_default_step_tape_has_at_most_37_nodes(self):
        assert self.step_tape_nodes("full") <= 37

    @pytest.mark.parametrize("variant, nodes", [("actions", 25), ("backbone", 18)])
    def test_variant_step_tape_has_at_most(self, variant, nodes):
        assert self.step_tape_nodes(variant) <= nodes


class TestLoopOracles:
    def test_decompose_matches_loops(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            model = ActionRelationNet(SMALL, seed=i)
            x = rng.normal(size=(31, SMALL.channels))
            got, got_assign = model.decompose(ad.constant(x))
            want, want_maps = oracle_decompose(model, x)
            np.testing.assert_allclose(got.data, want, atol=1e-10)
            for c, sub in enumerate(SUBGRAPHS):
                np.testing.assert_allclose(
                    got_assign[c, : len(sub.indices)], want_maps[sub.component],
                    atol=1e-10,
                )

    def test_relate_matches_loops(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            model = ActionRelationNet(SMALL, seed=100 + i)
            f_a = rng.normal(size=(SMALL.n_action_rows, SMALL.channels))
            with warnings.catch_warnings():
                # seed 112 has an all-dead relation layer; the uniform
                # fallback is part of the oracle contract
                warnings.simplefilter("ignore", RuntimeWarning)
                got_pooled, got_w = model.relate(ad.constant(f_a))
            want_pooled, want_w = oracle_relate(model, f_a)
            np.testing.assert_allclose(got_w.data, want_w.T, atol=1e-10)
            np.testing.assert_allclose(got_pooled.data, want_pooled, atol=1e-10)

    def test_backbone_matches_loops(self):
        rng = np.random.default_rng(42)
        for i in range(5):
            model = ActionRelationNet(SMALL, seed=200 + i)
            frames = rng.normal(size=(3, 31, 2))
            got = model.backbone(frames).data

            p = model.params
            adj = ADJACENCY
            xs = [frames[t] for t in range(3)]
            for name in ("l1", "l2"):
                w, b = p[f"backbone.{name}.gc.w"].data, p[f"backbone.{name}.gc.b"].data
                xs = [loop_relu(loop_graph_affine(adj, x, w, b)) for x in xs]
                taps = [p[f"backbone.{name}.tc.w"].data[k] for k in range(3)]
                tb = p[f"backbone.{name}.tc.b"].data
                if name == "l1":
                    xs = [
                        loop_matmul(xs[0], taps[1]) + loop_matmul(xs[1], taps[2]) + tb,
                        loop_matmul(xs[0], taps[0])
                        + loop_matmul(xs[1], taps[1])
                        + loop_matmul(xs[2], taps[2])
                        + tb,
                        loop_matmul(xs[1], taps[0]) + loop_matmul(xs[2], taps[1]) + tb,
                    ]
                else:
                    xs = [
                        loop_matmul(xs[0], taps[0])
                        + loop_matmul(xs[1], taps[1])
                        + loop_matmul(xs[2], taps[2])
                        + tb
                    ]
            np.testing.assert_allclose(got, xs[0], atol=1e-10)


class TestDegenerateAlgebra:
    """Closed-form outcomes when parameter blocks are zeroed."""

    def zeroed(self, names, model):
        for name in names:
            model.params[name].data = np.zeros_like(model.params[name].data)

    def test_zero_action_params_give_uniform_assignment(self):
        rng = np.random.default_rng(42)
        model = ActionRelationNet(SMALL, seed=0)
        self.zeroed(
            [f"actions.{blk}" for blk in ("gc.w", "gc.b", "mix.w", "mix.b")], model
        )
        x = rng.normal(size=(31, SMALL.channels))
        f_a, assignment = model.decompose(ad.constant(x))
        for c, sub in enumerate(SUBGRAPHS):
            np.testing.assert_allclose(
                assignment[c, : len(sub.indices)], 1.0 / SMALL.n_actions, atol=1e-12
            )
        # uniform pooling: every slot of a component holds that component's
        # column sum divided by the slot count
        start = 0
        for sub in SUBGRAPHS:
            a, b = sub.rows
            block = f_a.data[start : start + SMALL.n_actions]
            expected = np.repeat(
                x[a:b].sum(axis=0, keepdims=True) / SMALL.n_actions,
                SMALL.n_actions,
                axis=0,
            )
            np.testing.assert_allclose(block, expected, atol=1e-12)
            start += SMALL.n_actions

    def test_zero_relation_params_fall_back_to_uniform_weights(self):
        rng = np.random.default_rng(42)
        model = ActionRelationNet(SMALL, seed=0)
        self.zeroed(
            ["relation.gc.w", "relation.gc.b", "relation.mix.w", "relation.mix.b"],
            model,
        )
        f_a = rng.normal(size=(SMALL.n_action_rows, SMALL.channels))
        with pytest.warns(RuntimeWarning, match="uniform"):
            pooled, weights = model.relate(ad.constant(f_a))
        n = SMALL.n_action_rows
        np.testing.assert_allclose(weights.data, np.full((1, n), 1.0 / n))
        np.testing.assert_allclose(
            pooled.data, f_a.mean(axis=0, keepdims=True), atol=1e-12
        )

    def test_zero_input_forward_returns_head_bias(self):
        model = ActionRelationNet(SMALL, seed=0)
        model.params["head.b"].data = np.array([[0.5, -1.0, 2.0]])
        with pytest.warns(RuntimeWarning, match="uniform"):
            result = model.forward(np.zeros((3, 31, 2)))
        np.testing.assert_allclose(result.logits.data, [[0.5, -1.0, 2.0]])


class TestDeterminism:
    def test_same_seed_same_params(self):
        a = ActionRelationNet(SMALL, seed=5).params.state_dict()
        b = ActionRelationNet(SMALL, seed=5).params.state_dict()
        c = ActionRelationNet(SMALL, seed=6).params.state_dict()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_forward_is_pure(self):
        samples = synthesize_dataset(n_subjects=1, samples_per_subject=1, seed=0)
        features = build_graph(samples.frames[0])
        model = ActionRelationNet(SMALL, seed=0)
        before = model.params.state_dict()
        first = model.forward(features).logits.data.copy()
        second = model.forward(features).logits.data.copy()
        np.testing.assert_array_equal(first, second)
        after = model.params.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_rejects_wrong_feature_shape(self):
        model = ActionRelationNet(SMALL, seed=0)
        with pytest.raises(ad.ShapeError):
            model.backbone(np.zeros((3, 30, 2)))
