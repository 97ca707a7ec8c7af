"""The fixed landmark layout, edge template, adjacency, and graph construction."""

import numpy as np
import pytest

from megraph.graph import (
    ADJACENCY,
    BRIDGES,
    COMPONENT_BLOCK,
    COMPONENT_INDICES,
    COMPONENTS,
    EYE_REGION,
    NODE_INDICES,
    SUBGRAPHS,
    DegenerateFrameError,
    build_graph,
    component_subgraphs,
    normalize_adjacency,
    spatial_adjacency,
    template_edges,
)
from megraph.landmarks import magnify, neutral_face_template, synthesize_dataset


def neutral_frames():
    return np.stack([neutral_face_template()] * 3)


class TestNodeSelection:
    def test_default_layout(self):
        assert len(NODE_INDICES) == 31
        assert tuple(COMPONENT_INDICES) == COMPONENTS
        assert COMPONENT_INDICES["eyebrow"] == tuple(range(17, 27))
        assert COMPONENT_INDICES["nose"] == tuple(range(27, 36))
        assert COMPONENT_INDICES["mouth"] == tuple(range(48, 60))
        assert [sub.rows for sub in SUBGRAPHS] == [(0, 10), (10, 19), (19, 31)]
        # node order is eyebrow + nose + mouth
        assert NODE_INDICES == tuple(range(17, 36)) + tuple(range(48, 60))

    def test_eye_region_is_rejected(self):
        assert not set(NODE_INDICES) & set(EYE_REGION)

    def test_bridges_must_use_selected_landmarks(self):
        for a, b in BRIDGES:
            assert a in NODE_INDICES and b in NODE_INDICES

    def test_layout_is_read_only(self):
        with pytest.raises(TypeError):
            COMPONENT_INDICES["nose"] = tuple(range(27, 35))
        for a in (ADJACENCY, *COMPONENT_BLOCK, *(s.adjacency for s in SUBGRAPHS)):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 5.0


class TestEdgeTemplate:
    def test_chains_loop_and_bridges(self):
        edges = set(template_edges())
        # chains: 9 eyebrow + 8 nose + 11 mouth, mouth loop closure, 2 bridges
        assert len(edges) == 9 + 8 + 11 + 1 + 2
        assert (17, 18) in edges and (25, 26) in edges
        assert (27, 28) in edges
        assert (59, 48) in edges  # mouth loop closes
        assert (21, 27) in edges and (33, 51) in edges  # bridges
        assert (26, 27) not in edges  # components only meet via bridges

    def test_adjacency_matches_edges(self):
        a = spatial_adjacency()
        assert a.shape == (31, 31)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert set(np.unique(a)) <= {0.0, 1.0}
        row_of = {landmark: i for i, landmark in enumerate(NODE_INDICES)}
        expected = np.zeros((31, 31))
        for u, v in template_edges():
            expected[row_of[u], row_of[v]] = 1.0
            expected[row_of[v], row_of[u]] = 1.0
        np.testing.assert_array_equal(a, expected)
        assert a.sum() == 2 * len(template_edges())


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
        full = spatial_adjacency()
        subs = component_subgraphs()
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
        full = spatial_adjacency()
        assert full[4, 10] == 1.0  # landmarks 21 and 27
        subs = {s.component: s for s in component_subgraphs()}
        assert subs["eyebrow"].adjacency.shape == (10, 10)
        assert subs["nose"].adjacency.shape == (9, 9)

    def test_selection_builds_its_subgraphs_once_read_only(self):
        for cached, fresh in zip(SUBGRAPHS, component_subgraphs()):
            assert (cached.component, cached.rows) == (fresh.component, fresh.rows)
            np.testing.assert_array_equal(cached.adjacency, fresh.adjacency)
            with pytest.raises(ValueError):
                cached.adjacency[0, 0] = 5.0


class TestBuildGraph:
    def test_shapes_and_normalization(self):
        features = build_graph(neutral_frames())
        assert features.shape == (3, 31, 2)
        onset = features[0]
        np.testing.assert_allclose(onset.mean(axis=0), 0.0, atol=1e-12)
        rms = np.sqrt((onset**2).sum(axis=1).mean())
        np.testing.assert_allclose(rms, 1.0, atol=1e-12)

    def test_translation_and_scale_invariance(self):
        base = neutral_frames()
        moved = base * 2.5 + np.array([40.0, -7.0])
        a = build_graph(base)
        b = build_graph(moved)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_degenerate_onset_rejected(self):
        frames = np.ones((3, 68, 2))
        with pytest.raises(DegenerateFrameError):
            build_graph(frames)

    def test_temporal_displacements(self):
        # Normalization moves every frame by the same onset centroid, so
        # frame-to-frame motion survives, divided by the onset's RMS spread.
        frames = neutral_frames()
        frames[1] += 1.0
        frames[2] += 3.0
        raw = frames[:, list(NODE_INDICES), :]
        d = np.diff(build_graph(frames), axis=-3)
        assert d.shape == (2, 31, 2)
        onset = raw[0]
        spread = np.sqrt(((onset - onset.mean(axis=0)) ** 2).sum(axis=1).mean())
        np.testing.assert_allclose(d[0], 1.0 / spread, atol=1e-12)
        np.testing.assert_allclose(d[1], 2.0 / spread, atol=1e-12)

    def test_adjacency_is_shared_and_read_only(self):
        assert ADJACENCY.shape == (31, 31)
        np.testing.assert_array_equal(
            ADJACENCY, normalize_adjacency(spatial_adjacency())
        )
        with pytest.raises(ValueError):
            ADJACENCY[0, 0] = 5.0


def one_sample_oracle(frames, alpha):
    """The preprocessing of one sample, written as a plain per-sample loop
    body: magnify, select the nodes, normalize by the onset frame."""
    onset = frames[0]
    magnified = onset[None, :, :] + alpha * (frames - onset[None, :, :])
    coords = magnified[:, list(NODE_INDICES), :]
    first = coords[0]
    centroid = first.mean(axis=0)
    spread = np.sqrt(((first - centroid) ** 2).sum(axis=1).mean())
    return (coords - centroid) / spread


class TestStackGraphs:
    def test_stacks_node_features_over_a_shared_adjacency(self):
        stack = np.stack([neutral_frames() * (i + 1) for i in range(3)])
        batch = build_graph(stack)
        assert batch.shape == (3, 3, 31, 2)
        for i, frames in enumerate(stack):
            np.testing.assert_array_equal(batch[i], build_graph(frames))


class TestArrayPath:
    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_stack_equals_the_per_sample_loop(self, n):
        samples = synthesize_dataset(n_subjects=10, samples_per_subject=6, seed=n)[:n]
        stack = samples.frames
        want = np.stack([one_sample_oracle(f, 3.0) for f in stack])

        got = build_graph(magnify(stack, 3.0))
        assert got.shape == (n, 3, 31, 2)
        assert np.array_equal(got, want)

        # a fold gathers its rows with a fancy index, which copies
        rows = np.random.default_rng(n).permutation(n)[: max(1, n // 2)]
        gathered = build_graph(magnify(stack[rows], 3.0))
        assert np.array_equal(gathered, want[rows])

        single = build_graph(magnify(stack[0], 3.0))
        assert np.array_equal(single, want[0])

    def test_degenerate_sample_in_a_stack_is_located(self):
        stack = np.stack([neutral_frames()] * 4)
        stack[2] = 1.0
        with pytest.raises(DegenerateFrameError, match="sample 2") as caught:
            build_graph(stack)
        assert caught.value.index == 2
