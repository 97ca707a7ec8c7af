"""Spatial graph over 31 selected facial landmarks across three keyframes.

The selection covers eyebrows (10 nodes), nose (9) and mouth outer contour
(12); eye-region points are excluded as blink noise. Spatial edges are
contour chains within each component plus one bridging edge per adjacent
component pair; temporal structure is left to the model's temporal
convolutions, so the adjacency here is per-frame and shared across frames.
:func:`build_graph` takes keyframes of shape (..., 3, 68, 2), one sample or
a stack of them. A :class:`NodeSelection` builds its normalized adjacency,
its per-component subgraphs and their zero-padded block once, on first use,
and every graph and model of that selection shares them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

COMPONENTS = ("eyebrow", "nose", "mouth")

_EYEBROW = tuple(range(17, 27))
_NOSE = tuple(range(27, 36))
_MOUTH = tuple(range(48, 60))
EYE_REGION = tuple(range(36, 48))

_DEFAULT_BRIDGES = ((21, 27), (33, 51))

_COMPONENT_SIZES = {"eyebrow": 10, "nose": 9, "mouth": 12}


class DegenerateFrameError(ValueError):
    """An onset frame has zero spatial extent, so it cannot be normalized.
    ``index`` is the sample's position in the flattened stack."""

    def __init__(self, index: int, name: str | None = None):
        self.index = index
        who = index if name is None else f"'{name}'"
        super().__init__(f"sample {who}: onset frame has zero spatial extent")


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
    def adjacency(self) -> np.ndarray:
        """Normalized spatial adjacency, built on first use. Every graph of
        this selection shares it, so it is read-only."""
        a = normalize_adjacency(spatial_adjacency(self))
        a.setflags(write=False)
        return a

    @cached_property
    def subgraphs(self) -> tuple[SubGraph, ...]:
        """:func:`component_subgraphs`, built on first use. Every model of
        this selection shares them, so their adjacencies are read-only."""
        subs = component_subgraphs(self)
        for sub in subs:
            sub.adjacency.setflags(write=False)
        return subs

    @cached_property
    def component_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The subgraphs zero-padded to the widest, W nodes: a (3, W) row index,
        -1 past a component's nodes, and their (3, W, W) adjacencies."""
        rows = np.full((len(COMPONENTS), max(_COMPONENT_SIZES.values())), -1)
        adj = np.zeros(rows.shape + rows.shape[-1:])
        for i, sub in enumerate(self.subgraphs):
            n = len(sub.indices)
            rows[i, :n], adj[i, :n, :n] = np.arange(*sub.rows), sub.adjacency
        rows.setflags(write=False)
        adj.setflags(write=False)
        return rows, adj


_DEFAULT_SELECTION = NodeSelection(
    component_indices={"eyebrow": _EYEBROW, "nose": _NOSE, "mouth": _MOUTH}
)


def default_selection() -> NodeSelection:
    """Eyebrows 17-26, nose 27-35, mouth outer contour 48-59.

    Always the same instance, so every model and graph built on the default
    shares one adjacency.
    """
    return _DEFAULT_SELECTION


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

    One sample's features are (3, 31, 2); a stack of B samples that share
    the adjacency has (B, 3, 31, 2).
    """

    selection: NodeSelection
    adjacency: np.ndarray  # (31, 31) normalized, shared across frames
    node_features: np.ndarray  # (3, 31, 2) or (B, 3, 31, 2)


def build_graph(
    frames: np.ndarray,
    selection: NodeSelection | None = None,
    normalize: bool = True,
) -> StGraph:
    """Select node coordinates from keyframes of shape (..., 3, 68, 2).

    The graph's node features have shape (..., 3, 31, 2), over the
    selection's shared adjacency. Normalization subtracts each sample's
    onset centroid of the selected points and divides by their RMS distance
    to it, cancelling translation and uniform scale. A sample whose onset
    frame has no extent raises :class:`DegenerateFrameError`.
    """
    selection = selection or default_selection()
    # take() copies in C order: each sample's onset reduces as a lone one
    # would, where a fancy index's strided copy can move the last bit.
    coords = np.take(np.asarray(frames, dtype=np.float64), selection.indices, axis=-2)

    if normalize:
        onset = coords[..., 0, :, :]
        centroid = onset.mean(axis=-2, keepdims=True)
        spread = np.sqrt(((onset - centroid) ** 2).sum(axis=-1).mean(axis=-1))
        bad = np.flatnonzero(spread <= 0.0)
        if bad.size:
            raise DegenerateFrameError(int(bad[0]))
        coords = (coords - centroid[..., None, :, :]) / spread[..., None, None, None]

    return StGraph(
        selection=selection, adjacency=selection.adjacency, node_features=coords
    )
