"""Landmark selection, edge template, adjacency, and graph construction."""

import numpy as np
import pytest

from megraph.graph import (
    COMPONENTS,
    EYE_REGION,
    DegenerateFrameError,
    NodeSelection,
    build_graph,
    component_subgraphs,
    concat_components,
    default_selection,
    normalize_adjacency,
    spatial_adjacency,
    split_components,
    stack_graphs,
    template_edges,
)
from megraph.landmarks import LandmarkSample, neutral_face_template


def neutral_sample(label=0, subject="s01"):
    frames = np.stack([neutral_face_template()] * 3)
    return LandmarkSample(subject=subject, label=label, frames=frames)


class TestNodeSelection:
    def test_default_layout(self):
        sel = default_selection()
        assert sel.n_nodes == 31
        assert sel.component_indices["eyebrow"] == tuple(range(17, 27))
        assert sel.component_indices["nose"] == tuple(range(27, 36))
        assert sel.component_indices["mouth"] == tuple(range(48, 60))
        assert sel.rows("eyebrow") == (0, 10)
        assert sel.rows("nose") == (10, 19)
        assert sel.rows("mouth") == (19, 31)
        assert sel.indices == tuple(range(17, 36)) + tuple(range(48, 60))

    def test_component_of(self):
        sel = default_selection()
        assert sel.component_of(17) == "eyebrow"
        assert sel.component_of(35) == "nose"
        assert sel.component_of(59) == "mouth"
        with pytest.raises(KeyError):
            sel.component_of(40)

    def test_eye_region_is_rejected(self):
        bad_nose = (27, 28, 29, 30, 31, 32, 33, 34, 36)  # 36 is an eye corner
        with pytest.raises(ValueError, match="eye-region"):
            NodeSelection(
                component_indices={
                    "eyebrow": tuple(range(17, 27)),
                    "nose": bad_nose,
                    "mouth": tuple(range(48, 60)),
                },
                bridges=(),
            )
        assert not set(default_selection().indices) & set(EYE_REGION)

    def test_wrong_sizes_and_order_rejected(self):
        with pytest.raises(ValueError, match="must have"):
            NodeSelection(
                component_indices={
                    "eyebrow": tuple(range(17, 26)),
                    "nose": tuple(range(27, 36)),
                    "mouth": tuple(range(48, 60)),
                },
                bridges=(),
            )
        with pytest.raises(ValueError, match="components"):
            NodeSelection(
                component_indices={
                    "nose": tuple(range(27, 36)),
                    "eyebrow": tuple(range(17, 27)),
                    "mouth": tuple(range(48, 60)),
                }
            )

    def test_bridges_must_use_selected_landmarks(self):
        with pytest.raises(ValueError, match="bridge"):
            NodeSelection(
                component_indices={
                    "eyebrow": tuple(range(17, 27)),
                    "nose": tuple(range(27, 36)),
                    "mouth": tuple(range(48, 60)),
                },
                bridges=((21, 40),),
            )


class TestEdgeTemplate:
    def test_chains_loop_and_bridges(self):
        sel = default_selection()
        edges = set(template_edges(sel))
        # chains: 9 eyebrow + 8 nose + 11 mouth, mouth loop closure, 2 bridges
        assert len(edges) == 9 + 8 + 11 + 1 + 2
        assert (17, 18) in edges and (25, 26) in edges
        assert (27, 28) in edges
        assert (59, 48) in edges  # mouth loop closes
        assert (21, 27) in edges and (33, 51) in edges  # bridges
        assert (26, 27) not in edges  # components only meet via bridges

    def test_adjacency_matches_edges(self):
        sel = default_selection()
        a = spatial_adjacency(sel)
        assert a.shape == (31, 31)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) <= {0.0, 1.0}
        row_of = {landmark: i for i, landmark in enumerate(sel.indices)}
        expected = np.zeros((31, 31))
        for u, v in template_edges(sel):
            expected[row_of[u], row_of[v]] = 1.0
            expected[row_of[v], row_of[u]] = 1.0
        np.testing.assert_array_equal(a, expected)
        assert a.sum() == 2 * len(template_edges(sel))


class TestNormalizeAdjacency:
    def test_two_node_example(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(normalize_adjacency(a), 0.5 * np.ones((2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(2, 8))
            a = (rng.random((n, n)) < 0.4).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            got = normalize_adjacency(a)
            with_loops = a + np.eye(n)
            deg = with_loops.sum(axis=1)
            expected = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    expected[i, j] = with_loops[i, j] / np.sqrt(deg[i] * deg[j])
            np.testing.assert_allclose(got, expected, atol=1e-12)
            np.testing.assert_array_equal(got, got.T)

    def test_isolated_node_keeps_unit_self_weight(self):
        a = np.zeros((3, 3))
        np.testing.assert_allclose(normalize_adjacency(a), np.eye(3))


class TestComponentSubgraphs:
    def test_induced_blocks_renormalized(self):
        sel = default_selection()
        full = spatial_adjacency(sel)
        subs = component_subgraphs(sel)
        assert tuple(s.component for s in subs) == COMPONENTS
        for sub in subs:
            start, stop = sub.rows
            n = stop - start
            assert sub.adjacency.shape == (n, n)
            np.testing.assert_allclose(
                sub.adjacency,
                normalize_adjacency(full[start:stop, start:stop]),
            )

    def test_bridge_edges_do_not_leak_into_subgraphs(self):
        # The eyebrow-nose bridge connects rows 4 and 10 of the full graph;
        # neither induced block may contain it.
        sel = default_selection()
        full = spatial_adjacency(sel)
        assert full[4, 10] == 1.0  # landmarks 21 and 27
        subs = {s.component: s for s in component_subgraphs(sel)}
        assert subs["eyebrow"].adjacency.shape == (10, 10)
        assert subs["nose"].adjacency.shape == (9, 9)


class TestBuildGraph:
    def test_shapes_and_normalization(self):
        graph = build_graph(neutral_sample())
        assert graph.node_features.shape == (3, 31, 2)
        assert graph.adjacency.shape == (31, 31)
        onset = graph.node_features[0]
        np.testing.assert_allclose(onset.mean(axis=0), 0.0, atol=1e-12)
        rms = np.sqrt((onset**2).sum(axis=1).mean())
        np.testing.assert_allclose(rms, 1.0, atol=1e-12)

    def test_translation_and_scale_invariance(self):
        base = neutral_sample()
        moved = LandmarkSample(
            subject="s01",
            label=0,
            frames=base.frames * 2.5 + np.array([40.0, -7.0]),
        )
        a = build_graph(base).node_features
        b = build_graph(moved).node_features
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_unnormalized_keeps_raw_coordinates(self):
        sample = neutral_sample()
        graph = build_graph(sample, normalize=False)
        sel = default_selection()
        np.testing.assert_array_equal(
            graph.node_features, sample.frames[:, list(sel.indices), :]
        )

    def test_degenerate_onset_rejected(self):
        frames = np.ones((3, 68, 2))
        sample = LandmarkSample(subject="s01", label=0, frames=frames)
        with pytest.raises(DegenerateFrameError):
            build_graph(sample)

    def test_temporal_displacements(self):
        sample = neutral_sample()
        frames = sample.frames.copy()
        frames[1] += 1.0
        frames[2] += 3.0
        moved = LandmarkSample(subject="s01", label=0, frames=frames)
        graph = build_graph(moved, normalize=False)
        d = graph.temporal_displacements
        assert d.shape == (2, 31, 2)
        np.testing.assert_allclose(d[0], 1.0)
        np.testing.assert_allclose(d[1], 2.0)

    def test_adjacency_is_shared_and_read_only(self):
        sel = default_selection()
        a = build_graph(neutral_sample(), selection=sel)
        b = build_graph(neutral_sample(label=1, subject="s02"), selection=sel)
        assert a.adjacency is b.adjacency
        np.testing.assert_array_equal(
            a.adjacency, normalize_adjacency(spatial_adjacency(sel))
        )
        with pytest.raises(ValueError):
            a.adjacency[0, 0] = 5.0
        assert a.edges == template_edges(sel)


class TestStackGraphs:
    def test_stacks_node_features_over_a_shared_adjacency(self):
        sel = default_selection()
        graphs = [build_graph(neutral_sample(label=i), selection=sel) for i in range(3)]
        batch = stack_graphs(graphs)
        assert batch.node_features.shape == (3, 3, 31, 2)
        assert batch.adjacency is graphs[0].adjacency
        for i, g in enumerate(graphs):
            np.testing.assert_array_equal(batch.node_features[i], g.node_features)
        assert batch.temporal_displacements.shape == (3, 2, 31, 2)

    def test_rejects_a_different_adjacency(self):
        graphs = [build_graph(neutral_sample()) for _ in range(2)]
        graphs[1].adjacency = np.eye(31)
        with pytest.raises(ValueError, match="adjacency"):
            stack_graphs(graphs)


class TestSplitConcat:
    def test_round_trip_node_axis_first(self):
        rng = np.random.default_rng(42)
        sel = default_selection()
        x = rng.normal(size=(31, 5))
        parts = split_components(x, sel)
        assert [p.shape[0] for p in parts] == [10, 9, 12]
        np.testing.assert_array_equal(concat_components(parts), x)

    def test_round_trip_time_leading(self):
        rng = np.random.default_rng(42)
        sel = default_selection()
        x = rng.normal(size=(3, 31, 2))
        parts = split_components(x, sel)
        assert [p.shape[1] for p in parts] == [10, 9, 12]
        np.testing.assert_array_equal(concat_components(parts, axis=1), x)

    def test_no_matching_axis_rejected(self):
        sel = default_selection()
        with pytest.raises(ValueError):
            split_components(np.zeros((4, 4)), sel)
