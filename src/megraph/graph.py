"""The fixed spatial graph over 31 facial landmarks across three keyframes.

The nodes are the eyebrows (10 landmarks), the nose (9) and the mouth's
outer contour (12); eye-region points are excluded as blink noise. That
layout is the model's prior, so it is module data, built once at import and
read-only: :data:`COMPONENT_INDICES`, :data:`BRIDGES`, :data:`NODE_INDICES`,
the normalized :data:`ADJACENCY`, the per-component :data:`SUBGRAPHS` and
their zero-padded :data:`COMPONENT_BLOCK`. Spatial edges are contour chains
within each component plus one bridging edge per adjacent component pair;
temporal structure is left to the model's temporal convolutions, so the
adjacency is per-frame and shared across frames.
:func:`build_graph` turns keyframes of shape (..., 3, 68, 2), one sample or
a stack of them, into plain (..., 3, 31, 2) node features.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

COMPONENTS = ("eyebrow", "nose", "mouth")
EYE_REGION = tuple(range(36, 48))

# Node (row) order is eyebrow + nose + mouth, each in increasing landmark
# index, so component rows are contiguous blocks.
COMPONENT_INDICES = MappingProxyType({
    "eyebrow": tuple(range(17, 27)),
    "nose": tuple(range(27, 36)),
    "mouth": tuple(range(48, 60)),
})
BRIDGES = ((21, 27), (33, 51))
NODE_INDICES = sum((COMPONENT_INDICES[name] for name in COMPONENTS), ())


class DegenerateFrameError(ValueError):
    """An onset frame has zero spatial extent, so it cannot be normalized.
    ``index`` is the sample's position in the flattened stack."""

    def __init__(self, index: int, name: str | None = None):
        self.index, self.name = index, name
        who = index if name is None else f"'{name}'"
        super().__init__(f"sample {who}: onset frame has zero spatial extent")

    def __reduce__(self):  # pickle calls __init__ with these, not with args
        return type(self), (self.index, self.name)


def template_edges() -> tuple[tuple[int, int], ...]:
    """Undirected edges in landmark-index space.

    Chains along each component's sorted indices, a closing edge for the
    mouth loop, plus the bridge edges.
    """
    edges: list[tuple[int, int]] = []
    for name in COMPONENTS:
        idx = COMPONENT_INDICES[name]
        edges.extend(zip(idx[:-1], idx[1:]))
        if name == "mouth":
            edges.append((idx[-1], idx[0]))
    edges.extend(BRIDGES)
    return tuple(edges)


def spatial_adjacency() -> np.ndarray:
    """Binary symmetric adjacency in node order, without self-loops."""
    n = len(NODE_INDICES)
    row_of = {landmark: i for i, landmark in enumerate(NODE_INDICES)}
    a = np.zeros((n, n))
    for u, v in template_edges():
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


def component_subgraphs() -> tuple[SubGraph, ...]:
    full = spatial_adjacency()
    subs, start = [], 0
    for name in COMPONENTS:
        indices = COMPONENT_INDICES[name]
        stop = start + len(indices)
        induced = normalize_adjacency(full[start:stop, start:stop])
        subs.append(SubGraph(name, (start, stop), indices, induced))
        start = stop
    return tuple(subs)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


# Every graph and model shares these, so they are read-only.
ADJACENCY = normalize_adjacency(spatial_adjacency())
SUBGRAPHS = component_subgraphs()
_read_only(ADJACENCY, *(sub.adjacency for sub in SUBGRAPHS))


def _component_block() -> tuple[np.ndarray, np.ndarray]:
    """The subgraphs zero-padded to the widest, W nodes: a (3, W) row index,
    -1 past a component's nodes, and their (3, W, W) adjacencies."""
    width = max(len(sub.indices) for sub in SUBGRAPHS)
    rows = np.full((len(COMPONENTS), width), -1)
    adj = np.zeros(rows.shape + rows.shape[-1:])
    for i, sub in enumerate(SUBGRAPHS):
        n = len(sub.indices)
        rows[i, :n], adj[i, :n, :n] = np.arange(*sub.rows), sub.adjacency
    _read_only(rows, adj)
    return rows, adj


COMPONENT_BLOCK = _component_block()


def build_graph(frames: np.ndarray) -> np.ndarray:
    """Node features (..., 3, 31, 2) of keyframes of shape (..., 3, 68, 2).

    Normalization subtracts each sample's onset centroid of the selected
    points and divides by their RMS distance to it, cancelling translation
    and uniform scale. A sample whose onset frame has no extent raises
    :class:`DegenerateFrameError`.
    """
    # take() copies in C order: each sample's onset reduces as a lone one
    # would, where a fancy index's strided copy can move the last bit.
    coords = np.take(np.asarray(frames, dtype=np.float64), NODE_INDICES, axis=-2)
    onset = coords[..., 0, :, :]
    centroid = onset.mean(axis=-2, keepdims=True)
    spread = np.sqrt(((onset - centroid) ** 2).sum(axis=-1).mean(axis=-1))
    bad = np.flatnonzero(spread <= 0.0)
    if bad.size:
        raise DegenerateFrameError(int(bad[0]))
    return (coords - centroid[..., None, :, :]) / spread[..., None, None, None]
