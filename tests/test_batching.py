"""A stacked batch through the model, the evaluator and the kink guard
must give what one-sample calls give."""

import warnings

import numpy as np
import pytest

import megraph.autodiff as ad
from megraph.checks import kink_margin
from megraph.graph import StGraph, build_graph, stack_graphs
from megraph.landmarks import synthesize_dataset
from megraph.losses import LossWeights, WeightCenterTable, total_loss
from megraph.model import VARIANTS, ActionRelationNet, ModelConfig
from megraph.training import EVAL_CHUNK, evaluate, sample_graph

FALLBACK = "relation weights are all zero"


def small(variant):
    return ModelConfig(
        variant=variant, channels=4, n_actions=2, relation_channels=3, n_classes=3
    )


def graphs_with_a_dead_sample(n):
    """n one-sample graphs; for n >= 2 the second is all zero, which drives
    every relation weight of a fresh full model to zero."""
    samples = synthesize_dataset(n_subjects=1, samples_per_subject=n, seed=3)
    graphs = [build_graph(s) for s in samples]
    if n >= 2:
        graphs[1] = StGraph(
            selection=graphs[0].selection,
            adjacency=graphs[0].adjacency,
            node_features=np.zeros((3, 31, 2)),
        )
    return graphs


def forward_counting_fallbacks(model, graph):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = model.forward(graph)
    return result, sum(FALLBACK in str(w.message) for w in caught)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_batched_forward_equals_one_sample_forwards(variant, n):
    model = ActionRelationNet(small(variant), seed=1)
    graphs = graphs_with_a_dead_sample(n)
    batch, batch_fallbacks = forward_counting_fallbacks(model, stack_graphs(graphs))
    assert batch.logits.shape == (n, 3)

    singles = [forward_counting_fallbacks(model, g) for g in graphs]
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
        for comp, assign in one.action_maps.items():
            np.testing.assert_allclose(
                batch.action_maps[comp].data[i], assign.data, atol=1e-12
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
        uniform = np.full((rows, 1), 1.0 / rows)
        np.testing.assert_array_equal(batch.weights.data[1], uniform)


def test_chunked_evaluate_equals_per_sample_logits():
    samples = synthesize_dataset(n_subjects=13, samples_per_subject=10, seed=4)
    assert len(samples) > 2 * EVAL_CHUNK
    model = ActionRelationNet(ModelConfig(), seed=0)
    y_true, y_pred, logits = evaluate(model, samples, magnification=3.0)
    assert y_true == [s.label for s in samples]
    for s, pred, row in zip(samples, y_pred, logits):
        one = model.forward(sample_graph(s, 3.0, model.selection)).logits.data[0]
        np.testing.assert_allclose(row, one, atol=1e-12)
        assert pred == int(np.argmax(row))


def test_kink_margin_of_a_batch_is_the_smallest_per_sample_margin():
    model = ActionRelationNet(small("full"), seed=2)
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=4, n_classes=3, noise_sigma=0.5, seed=2
    )
    graphs = [sample_graph(s, 3.0, model.selection) for s in samples]
    labels = [s.label for s in samples]
    table = WeightCenterTable(n_classes=3, n_rows=small("full").n_action_rows)
    loss = total_loss(
        model.forward(stack_graphs(graphs)),
        labels,
        LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1),
        table=table,
        update_table=False,
    ).total
    per_sample = [kink_margin(model.forward(g).logits) for g in graphs]
    assert np.isfinite(min(per_sample))
    np.testing.assert_allclose(kink_margin(loss), min(per_sample), rtol=0, atol=1e-12)


def test_backward_skips_the_keyframe_input():
    model = ActionRelationNet(small("full"), seed=0)
    graph = stack_graphs(graphs_with_a_dead_sample(3)[::2])
    loss = ad.cross_entropy(model.forward(graph).logits, np.array([0, 1]))
    seen, stack, leaves = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if not node._parents:
                leaves.append(node)
    (frames,) = [t for t in leaves if t.shape == graph.node_features.shape]
    assert not frames.requires_grad and not frames._needs
    loss.backward()
    assert frames.grad is None
    assert all(p.grad is not None for _, p in model.params.items())


def test_backbone_rejects_a_wrong_batch_shape():
    model = ActionRelationNet(small("full"), seed=0)
    graph = stack_graphs(graphs_with_a_dead_sample(1))
    graph.node_features = np.zeros((2, 2, 3, 31, 2))
    with pytest.raises(ad.ShapeError):
        model.backbone(graph)
