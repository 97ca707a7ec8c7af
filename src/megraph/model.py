"""Landmark-graph recognition network.

Three stages, each optional after the first:

1. Backbone: two layers of per-frame graph convolution followed by temporal
   convolution across the three keyframes. Layer 2's valid-width-3 temporal
   step collapses the frame axis, leaving one feature row per node.
2. Action decomposition: per facial component, a learned soft assignment
   matrix distributes the component's node features onto a small set of
   action slots; each slot becomes one pooled feature row.
3. Relation reconstruction: a graph convolution over the complete graph of
   action slots scores each slot; the normalized scores weight the action
   features into a single recognition feature.

A linear head maps the stage output (mean-pooled over the node axis when
the later stages are disabled) to class logits.

Every stage takes one sample or a stacked batch: the forward pass of B
samples that share an adjacency is one tape, not B of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import (
    COMPONENTS,
    NodeSelection,
    StGraph,
    component_subgraphs,
    default_selection,
    normalize_adjacency,
)
from .params import ParamStore

VARIANTS = ("backbone", "actions", "full")

N_FRAME_COORDS = 2


class InvariantError(RuntimeError):
    """A structural guarantee of the model was violated at runtime."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    channels is the backbone output width per node; n_actions is the number
    of action slots per facial component; relation_channels is the width of
    the relation-scoring features.
    """

    variant: str = "full"
    channels: int = 16
    n_actions: int = 3
    relation_channels: int = 16
    n_classes: int = 5
    normalize_weights: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.n_actions < 2:
            raise ValueError("n_actions must be >= 2")
        if self.relation_channels < 1:
            raise ValueError("relation_channels must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")

    @property
    def n_action_rows(self) -> int:
        return 3 * self.n_actions

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "channels": self.channels,
            "n_actions": self.n_actions,
            "relation_channels": self.relation_channels,
            "n_classes": self.n_classes,
            "normalize_weights": self.normalize_weights,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class ForwardResult:
    """Logits plus the intermediates the auxiliary losses consume.

    Shapes are for a stacked batch of B samples; a one-sample graph gives
    the same shapes without the leading B, except logits and the
    recognition feature, which keep B = 1.
    """

    logits: Tensor  # (B, K)
    node_features: Tensor  # (B, 31, C_1)
    action_maps: dict[str, Tensor] = field(default_factory=dict)  # comp -> (B, N_f, N_a)
    action_features: Tensor | None = None  # (B, 3*N_a, C_1)
    weights: Tensor | None = None  # (B, 3*N_a, 1), on the simplex when normalized
    recognition_feature: Tensor | None = None  # (B, C_1)


def relation_adjacency(n_rows: int) -> np.ndarray:
    """Complete graph over action slots under the shared normalization.

    The normalization's identity term weights each slot's own features twice
    as much as any neighbor's; a purely uniform operator would map every
    slot to the same mean row and the relation weights could never vary.
    """
    return normalize_adjacency(np.ones((n_rows, n_rows)))


class ActionRelationNet:
    """The model: backbone plus optional decomposition and relation stages.

    Parameters live in a flat ParamStore under dotted names, so checkpoints
    are plain name -> array maps and the optimizer needs no structure.
    """

    def __init__(
        self,
        config: ModelConfig,
        selection: NodeSelection | None = None,
        seed: int | np.random.Generator = 0,
    ):
        self.config = config
        self.selection = selection or default_selection()
        self.subgraphs = component_subgraphs(self.selection)
        self.relation_adj = relation_adjacency(config.n_action_rows)
        self.params = ParamStore()
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._init_params(rng)

    def _init_params(self, rng: np.random.Generator) -> None:
        c1 = self.config.channels
        p = self.params

        def block(prefix: str, d_in: int, d_out: int) -> None:
            p.create(f"{prefix}.w", (d_in, d_out), rng=rng)
            p.create(f"{prefix}.b", (1, d_out), init="zeros")

        def layer(name: str, d_in: int) -> None:
            block(f"backbone.{name}.gc", d_in, c1)
            for tap in range(3):
                p.create(f"backbone.{name}.tc.w{tap}", (c1, c1), rng=rng)
            p.create(f"backbone.{name}.tc.b", (1, c1), init="zeros")

        layer("l1", N_FRAME_COORDS)
        layer("l2", c1)

        if self.config.variant in ("actions", "full"):
            na = self.config.n_actions
            for comp in COMPONENTS:
                block(f"actions.{comp}.gc", c1, na)
                block(f"actions.{comp}.mix", na, na)
        if self.config.variant == "full":
            c2 = self.config.relation_channels
            block("relation.gc", c1, c2)
            block("relation.mix", c2, c2)
        block("head", c1, self.config.n_classes)

    # -- stages ------------------------------------------------------------

    def backbone(self, graph: StGraph) -> Tensor:
        """(..., 3, 31, 2) keyframe coordinates -> (..., 31, C_1) node features."""
        frames = graph.node_features
        expected = (3, self.selection.n_nodes, N_FRAME_COORDS)
        if frames.ndim not in (3, 4) or frames.shape[-3:] != expected:
            raise ad.ShapeError(
                f"backbone: expected {expected} or (B, *{expected}) node "
                f"features, got {frames.shape}"
            )
        p = self.params
        x = ad.constant(frames)
        # width-3 temporal convolutions: layer 1 keeps the three frames
        # (missing neighbors contribute nothing), layer 2 collapses them
        for name, padding in (("l1", "same"), ("l2", "valid")):
            x = ad.relu(
                ad.graph_affine(
                    graph.adjacency,
                    x,
                    p[f"backbone.{name}.gc.w"],
                    p[f"backbone.{name}.gc.b"],
                )
            )
            taps = [p[f"backbone.{name}.tc.w{k}"] for k in range(3)]
            x = ad.temporal_conv(x, taps, p[f"backbone.{name}.tc.b"], padding)
        return ad.reshape(x, x.shape[:-3] + x.shape[-2:])

    def decompose(self, node_features: Tensor, subgraphs=None):
        """Map (..., 31, C_1) node features to (..., 3*N_a, C_1) action features.

        Each component's nodes are softly assigned to N_a action slots; the
        assignment matrix rows are softmax-normalized so every node spreads
        unit mass over the slots.
        """
        subgraphs = subgraphs if subgraphs is not None else self.subgraphs
        p = self.params
        maps: dict[str, Tensor] = {}
        pooled = []
        for sub in subgraphs:
            start, stop = sub.rows
            x_o = ad.slice_rows(node_features, start, stop)
            hidden = ad.relu(
                ad.graph_affine(
                    sub.adjacency,
                    x_o,
                    p[f"actions.{sub.component}.gc.w"],
                    p[f"actions.{sub.component}.gc.b"],
                )
            )
            scores = ad.affine(
                hidden,
                p[f"actions.{sub.component}.mix.w"],
                p[f"actions.{sub.component}.mix.b"],
            )
            assign = ad.softmax_rows(scores)
            row_sums = assign.data.sum(axis=-1)
            if np.abs(row_sums - 1.0).max() > 1e-9:
                raise InvariantError(
                    f"assignment rows for {sub.component} do not sum to 1"
                )
            maps[sub.component] = assign
            pooled.append(ad.matmul(ad.transpose(assign), x_o))
        return ad.concat_rows(pooled), maps

    def relate(self, action_features: Tensor):
        """Score action slots over their complete graph and pool.

        Returns (recognition_feature (..., 1, C_1), weights (..., 3*N_a, 1)).
        Weights are each slot's L1 feature mass, normalized per sample to
        sum 1 by default; a sample whose slots all carry zero mass falls
        back to uniform weights, with one warning per such sample.
        """
        p = self.params
        hidden = ad.relu(
            ad.graph_affine(
                self.relation_adj,
                action_features,
                p["relation.gc.w"],
                p["relation.gc.b"],
            )
        )
        scored = ad.affine(hidden, p["relation.mix.w"], p["relation.mix.b"])
        weights = ad.l1_rowsum(scored)
        if self.config.normalize_weights:
            dead = int(np.count_nonzero(weights.data.sum(axis=-2) <= 0.0))
            for _ in range(dead):
                warnings.warn(
                    "relation weights are all zero; falling back to uniform",
                    RuntimeWarning,
                )
            weights = ad.normalize_columns(weights)
        pooled = ad.matmul(ad.transpose(weights), action_features)
        return pooled, weights

    def classify(self, features: Tensor) -> Tensor:
        """(B, C_1) pooled features -> (B, K) logits."""
        return ad.affine(features, self.params["head.w"], self.params["head.b"])

    # -- composition ---------------------------------------------------------

    def forward(self, graph: StGraph) -> ForwardResult:
        """Run every stage of the variant on one sample's graph, whose node
        features are (3, 31, 2), or on a stacked batch, (B, 3, 31, 2)."""
        node_features = self.backbone(graph)
        if self.config.variant == "backbone":
            return ForwardResult(
                logits=self.classify(_per_sample(ad.mean_rows(node_features))),
                node_features=node_features,
            )
        action_features, maps = self.decompose(node_features)
        if self.config.variant == "actions":
            return ForwardResult(
                logits=self.classify(_per_sample(ad.mean_rows(action_features))),
                node_features=node_features,
                action_maps=maps,
                action_features=action_features,
            )
        pooled, weights = self.relate(action_features)
        recognition = _per_sample(pooled)
        return ForwardResult(
            logits=self.classify(recognition),
            node_features=node_features,
            action_maps=maps,
            action_features=action_features,
            weights=weights,
            recognition_feature=recognition,
        )


def _per_sample(pooled: Tensor) -> Tensor:
    """(..., 1, C) pooled rows -> (B, C), one row per sample."""
    return ad.reshape(pooled, (-1, pooled.shape[-1]))
