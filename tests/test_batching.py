"""A stacked batch through the model, the evaluator and the kink guard
must give what one-sample calls give."""

import warnings

import numpy as np
import pytest

import megraph.autodiff as ad
from megraph.checks import _batch_axes, kink_margin
from megraph.graph import SUBGRAPHS, build_graph
from megraph.landmarks import synthesize_dataset
from megraph.losses import LossWeights, WeightCenterTable, total_loss
from megraph.model import VARIANTS, ActionRelationNet, ModelConfig
from megraph.training import EVAL_CHUNK, evaluate, sample_graph

FALLBACK = "relation weights are all zero"


def small(variant):
    return ModelConfig(
        variant=variant, channels=4, n_actions=2, relation_channels=3, n_classes=3
    )


def features_with_a_dead_sample(n):
    """n one-sample node features; for n >= 2 the second is all zero, which
    drives every relation weight of a fresh full model to zero."""
    samples = synthesize_dataset(n_subjects=1, samples_per_subject=n, seed=3)
    features = [build_graph(f) for f in samples.frames]
    if n >= 2:
        features[1] = np.zeros((3, 31, 2))
    return features


def forward_counting_fallbacks(model, features):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = model.forward(features)
    return result, sum(FALLBACK in str(w.message) for w in caught)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_batched_forward_equals_one_sample_forwards(variant, n):
    model = ActionRelationNet(small(variant), seed=1)
    features = features_with_a_dead_sample(n)
    batch, batch_fallbacks = forward_counting_fallbacks(model, np.stack(features))
    assert batch.logits.shape == (n, 3)

    singles = [forward_counting_fallbacks(model, f) for f in features]
    assert batch_fallbacks == sum(count for _, count in singles)
    if variant == "full" and n >= 2:
        assert batch_fallbacks == 1
    for i, (one, _) in enumerate(singles):
        np.testing.assert_allclose(batch.logits.data[i], one.logits.data[0], atol=1e-12)
        np.testing.assert_allclose(
            batch.node_features.data[i], one.node_features.data, atol=1e-12
        )
        if variant == "backbone":
            assert batch.action_features is None and one.action_features is None
            continue
        np.testing.assert_allclose(
            batch.action_features.data[i], one.action_features.data, atol=1e-12
        )
        for c, sub in enumerate(SUBGRAPHS):
            real = slice(0, len(sub.indices))
            np.testing.assert_allclose(
                batch.assignment[i, c, real], one.assignment[c, real], atol=1e-12
            )
        if variant == "full":
            np.testing.assert_allclose(
                batch.weights.data[i], one.weights.data, atol=1e-12
            )
            np.testing.assert_allclose(
                batch.recognition_feature.data[i],
                one.recognition_feature.data[0],
                atol=1e-12,
            )
    if variant == "full" and n >= 2:
        rows = small(variant).n_action_rows
        uniform = np.full((1, rows), 1.0 / rows)
        np.testing.assert_array_equal(batch.weights.data[1], uniform)


def test_chunked_evaluate_equals_per_sample_logits():
    samples = synthesize_dataset(n_subjects=13, samples_per_subject=10, seed=4)
    assert len(samples) > 2 * EVAL_CHUNK
    model = ActionRelationNet(ModelConfig(), seed=0)
    y_true, y_pred, logits = evaluate(model, samples, magnification=3.0)
    assert y_true == samples.labels.tolist()
    for i, (pred, row) in enumerate(zip(y_pred, logits)):
        one = model.forward(sample_graph(samples[i : i + 1], 3.0))
        one = one.logits.data[0]
        np.testing.assert_allclose(row, one, atol=1e-12)
        assert pred == int(np.argmax(row))


def test_kink_margin_of_a_batch_is_the_smallest_per_sample_margin():
    model = ActionRelationNet(small("full"), seed=2)
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=4, n_classes=3, noise_sigma=0.5, seed=2
    )
    labels = samples.labels
    table = WeightCenterTable(n_classes=3, n_rows=small("full").n_action_rows)
    loss = total_loss(
        model.forward(sample_graph(samples, 3.0)),
        labels,
        LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1),
        table=table,
        update_table=False,
    ).total
    per_sample = [
        kink_margin(model.forward(sample_graph(samples[i : i + 1], 3.0)).logits)
        for i in range(len(samples))
    ]
    assert np.isfinite(min(per_sample))
    np.testing.assert_allclose(
        kink_margin(loss), min(per_sample), rtol=0, atol=1e-12
    )


def test_backward_skips_the_keyframe_input():
    model = ActionRelationNet(small("full"), seed=0)
    features = np.stack(features_with_a_dead_sample(3)[::2])
    loss = ad.cross_entropy(model.forward(features).logits, np.array([0, 1]))
    seen, stack, leaves = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if not node._parents:
                leaves.append(node)
    (frames,) = [t for t in leaves if t.shape == features.shape]
    assert not frames.requires_grad and not frames._needs
    ad.backward(loss)
    assert frames.grad is None
    assert all(p.grad is not None for _, p in model.params.items())


def test_backbone_rejects_a_wrong_batch_shape():
    model = ActionRelationNet(small("full"), seed=0)
    with pytest.raises(ad.ShapeError):
        model.backbone(np.zeros((2, 2, 3, 31, 2)))


# parameters at every stage, with the batch axes of the operand each meets
MEMBER_PARAMS = {
    "backbone.l1.gc.w": 2,
    "backbone.l2.tc.w": 1,
    "actions.gc.b": 1,
    "actions.mix.w": 1,
    "relation.mix.w": 1,
    "head.b": 0,
}


@pytest.mark.parametrize("name", MEMBER_PARAMS)
def test_member_stacked_loss_equals_one_evaluation_per_member(name):
    # one forward with a parameter stacked on a member axis gives every
    # member's loss terms bit for bit: batch statistics stay within a member
    model = ActionRelationNet(small("full"), seed=2)
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=3, n_classes=3, seed=2
    )
    features = sample_graph(samples, 3.0)
    labels = samples.labels
    table = WeightCenterTable(n_classes=3, n_rows=6)
    table.update(np.random.default_rng(2).dirichlet(np.ones(6), size=3), [0, 1, 2])
    weights = LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1)

    def loss():
        return total_loss(
            model.forward(features), labels, weights, table=table, update_table=False
        )

    p = model.params[name]
    base = p.data
    members = base + np.random.default_rng(5).normal(0.0, 0.3, size=(4,) + base.shape)
    p.data = members.reshape((4,) + (1,) * MEMBER_PARAMS[name] + base.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        both = loss()
        assert both.total.shape == (4,)
        for m in range(4):
            p.data = members[m]
            one = loss()
            for term in ("ce", "feature_center", "weight_center", "balance"):
                assert np.asarray(getattr(both, term)).shape in ((), (4,))
                assert np.broadcast_to(getattr(both, term), 4)[m] == getattr(one, term)
            assert both.total.data[m] == one.total_value


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_sample_member_stack_keeps_its_sample_axis(variant):
    # members of a parameter stack on one sample's (3, 31, 2) features are not
    # samples: the logits are (P, 1, K), member m equal to its own forward
    model = ActionRelationNet(small(variant), seed=2)
    samples = synthesize_dataset(n_subjects=1, samples_per_subject=1, seed=2)
    features = build_graph(samples.frames[0])
    p = model.params["backbone.l1.gc.w"]
    base = p.data
    assert model.forward(features).logits.shape == (1, 3)
    members = base + np.random.default_rng(5).normal(0.0, 0.3, size=(5,) + base.shape)
    p.data = members[:, None]  # one singleton for the frame axis
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        logits = model.forward(features).logits.data
        assert logits.shape == (5, 1, 3)
        for m in range(5):
            p.data = members[m]
            assert np.array_equal(logits[m], model.forward(features).logits.data)


def test_member_axes_follow_the_operand_each_parameter_meets():
    model = ActionRelationNet(small("full"), seed=2)
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=3, n_classes=3, seed=2
    )
    logits = model.forward(sample_graph(samples, 3.0)).logits
    axes = _batch_axes(logits)
    for name, n in MEMBER_PARAMS.items():
        assert axes[id(model.params[name])] == n
    # every parameter has an entry, and nothing else has one
    params = {id(p) for _, p in model.params.items()}
    assert params == set(axes)
