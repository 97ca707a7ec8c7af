"""Spatial graph over 31 selected facial landmarks across three keyframes.

The selection covers eyebrows (10 nodes), nose (9) and mouth outer contour
(12); eye-region points are excluded as blink noise. Spatial edges are
contour chains within each component plus one bridging edge per adjacent
component pair; temporal structure is left to the model's temporal
convolutions, so the adjacency here is per-frame and shared across frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .landmarks import LandmarkSample

COMPONENTS = ("eyebrow", "nose", "mouth")

_EYEBROW = tuple(range(17, 27))
_NOSE = tuple(range(27, 36))
_MOUTH = tuple(range(48, 60))
EYE_REGION = tuple(range(36, 48))

_DEFAULT_BRIDGES = ((21, 27), (33, 51))

_COMPONENT_SIZES = {"eyebrow": 10, "nose": 9, "mouth": 12}


class DegenerateFrameError(ValueError):
    """Onset frame has zero spatial extent; coordinates cannot be normalized."""


@dataclass(frozen=True)
class NodeSelection:
    """Which of the 68 landmarks become graph nodes, grouped by component.

    Node (row) order is the concatenation eyebrow + nose + mouth, each group
    in increasing landmark index, so component rows are contiguous blocks.
    """

    component_indices: dict[str, tuple[int, ...]]
    bridges: tuple[tuple[int, int], ...] = _DEFAULT_BRIDGES

    def __post_init__(self):
        if tuple(self.component_indices) != COMPONENTS:
            raise ValueError(f"components must be {COMPONENTS} in order")
        seen: set[int] = set()
        for name, idx in self.component_indices.items():
            if len(idx) != _COMPONENT_SIZES[name]:
                raise ValueError(
                    f"{name} must have {_COMPONENT_SIZES[name]} nodes, got {len(idx)}"
                )
            if list(idx) != sorted(idx):
                raise ValueError(f"{name} indices must be increasing")
            overlap = seen.intersection(idx)
            if overlap:
                raise ValueError(f"duplicate landmark indices {sorted(overlap)}")
            seen.update(idx)
        eyes = seen.intersection(EYE_REGION)
        if eyes:
            raise ValueError(f"eye-region landmarks {sorted(eyes)} are excluded")
        for a, b in self.bridges:
            if a not in seen or b not in seen:
                raise ValueError(f"bridge ({a}, {b}) uses unselected landmarks")

    @property
    def indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for name in COMPONENTS:
            out.extend(self.component_indices[name])
        return tuple(out)

    @property
    def n_nodes(self) -> int:
        return sum(len(v) for v in self.component_indices.values())

    def rows(self, component: str) -> tuple[int, int]:
        """Row span [start, stop) of a component in node order."""
        start = 0
        for name in COMPONENTS:
            size = len(self.component_indices[name])
            if name == component:
                return start, start + size
            start += size
        raise KeyError(component)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """:func:`template_edges`, built on first use."""
        return template_edges(self)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Normalized spatial adjacency, built on first use. Every graph of
        this selection shares it, so it is read-only."""
        a = normalize_adjacency(spatial_adjacency(self))
        a.setflags(write=False)
        return a

    def component_of(self, landmark: int) -> str:
        for name, idx in self.component_indices.items():
            if landmark in idx:
                return name
        raise KeyError(f"landmark {landmark} is not selected")


def default_selection() -> NodeSelection:
    """Eyebrows 17-26, nose 27-35, mouth outer contour 48-59."""
    return NodeSelection(
        component_indices={"eyebrow": _EYEBROW, "nose": _NOSE, "mouth": _MOUTH}
    )


def template_edges(selection: NodeSelection) -> tuple[tuple[int, int], ...]:
    """Undirected edges in landmark-index space.

    Chains along each component's sorted indices, a closing edge for the
    mouth loop, plus the selection's bridge edges.
    """
    edges: list[tuple[int, int]] = []
    for name in COMPONENTS:
        idx = selection.component_indices[name]
        edges.extend(zip(idx[:-1], idx[1:]))
        if name == "mouth":
            edges.append((idx[-1], idx[0]))
    edges.extend(selection.bridges)
    return tuple(edges)


def spatial_adjacency(selection: NodeSelection) -> np.ndarray:
    """Binary symmetric adjacency in node order, without self-loops."""
    n = selection.n_nodes
    row_of = {landmark: i for i, landmark in enumerate(selection.indices)}
    a = np.zeros((n, n))
    for u, v in template_edges(selection):
        i, j = row_of[u], row_of[v]
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def normalize_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of A + I."""
    a_hat = a + np.eye(a.shape[0])
    d = a_hat.sum(axis=1)
    d_inv_sqrt = 1.0 / np.sqrt(d)
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


@dataclass(frozen=True)
class SubGraph:
    """One component's induced, renormalized adjacency."""

    component: str
    rows: tuple[int, int]
    indices: tuple[int, ...]
    adjacency: np.ndarray


def component_subgraphs(selection: NodeSelection) -> tuple[SubGraph, ...]:
    full = spatial_adjacency(selection)
    subs = []
    for name in COMPONENTS:
        start, stop = selection.rows(name)
        induced = full[start:stop, start:stop]
        subs.append(
            SubGraph(
                component=name,
                rows=(start, stop),
                indices=selection.component_indices[name],
                adjacency=normalize_adjacency(induced),
            )
        )
    return tuple(subs)


@dataclass
class StGraph:
    """Node features for three keyframes over a shared per-frame adjacency.

    One sample's features are (3, 31, 2); a stacked batch of B samples that
    share the adjacency has (B, 3, 31, 2).
    """

    selection: NodeSelection
    adjacency: np.ndarray  # (31, 31) normalized, shared across frames
    node_features: np.ndarray  # (3, 31, 2) or (B, 3, 31, 2)
    edges: tuple[tuple[int, int], ...] = field(repr=False, default=())

    @property
    def temporal_displacements(self) -> np.ndarray:
        """Frame-to-frame coordinate deltas, shape (..., 2, 31, 2)."""
        return np.diff(self.node_features, axis=-3)


def build_graph(
    sample: LandmarkSample,
    selection: NodeSelection | None = None,
    normalize: bool = True,
) -> StGraph:
    """Select node coordinates and build the normalized per-frame adjacency.

    Normalization subtracts the onset centroid of the selected points and
    divides by their RMS distance to it, cancelling translation and uniform
    scale.
    """
    selection = selection or default_selection()
    rows = list(selection.indices)
    coords = sample.frames[:, rows, :].astype(np.float64)

    if normalize:
        onset = coords[0]
        centroid = onset.mean(axis=0)
        spread = np.sqrt(((onset - centroid) ** 2).sum(axis=1).mean())
        if spread <= 0.0:
            raise DegenerateFrameError(
                f"sample '{sample.subject}': onset frame has zero spatial extent"
            )
        coords = (coords - centroid) / spread

    return StGraph(
        selection=selection,
        adjacency=selection.adjacency,
        node_features=coords,
        edges=selection.edges,
    )


def stack_graphs(graphs) -> StGraph:
    """One batched graph, node features (B, 3, 31, 2), from one-sample
    graphs that share their selection and adjacency."""
    first = graphs[0]
    for g in graphs[1:]:
        shared = g.adjacency is first.adjacency or np.array_equal(
            g.adjacency, first.adjacency
        )
        if not shared or g.selection != first.selection:
            raise ValueError("stack_graphs: graphs do not share one adjacency")
    return StGraph(
        selection=first.selection,
        adjacency=first.adjacency,
        node_features=np.stack([g.node_features for g in graphs]),
        edges=first.edges,
    )


def split_components(features: np.ndarray, selection: NodeSelection):
    """Split an array along its 31-node axis into (eyebrow, nose, mouth).

    Accepts (31, C) or (T, 31, C); the node axis is whichever matches the
    selection size first.
    """
    n = selection.n_nodes
    if features.ndim >= 1 and features.shape[0] == n:
        axis = 0
    elif features.ndim >= 2 and features.shape[1] == n:
        axis = 1
    else:
        raise ValueError(
            f"split_components: no axis of size {n} in shape {features.shape}"
        )
    parts = []
    for name in COMPONENTS:
        start, stop = selection.rows(name)
        parts.append(np.take(features, range(start, stop), axis=axis))
    return tuple(parts)


def concat_components(parts, axis: int = 0) -> np.ndarray:
    """Inverse of :func:`split_components` for the same axis."""
    return np.concatenate(parts, axis=axis)
