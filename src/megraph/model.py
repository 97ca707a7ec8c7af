"""Landmark-graph recognition network.

The input is a plain (3, 31, 2) array of node features from
:func:`~megraph.graph.build_graph`, or a stacked (B, 3, 31, 2) batch; the
graph itself is the fixed module data of :mod:`megraph.graph`. Three stages,
each optional after the first:

1. Backbone: two layers of per-frame graph convolution over
   :data:`~megraph.graph.ADJACENCY` followed by temporal convolution across
   the three keyframes, each layer's three taps one (3, C, C) parameter
   and each layer one ``st_conv`` tape node.
   Layer 2's valid-width-3 temporal step collapses the frame axis, leaving
   one feature row per node.
2. Action decomposition: per facial component, a learned soft assignment
   matrix distributes the component's node features onto a small set of
   action slots; each slot becomes one pooled feature row. The components
   run as one block, :data:`~megraph.graph.COMPONENT_BLOCK`, padded to the
   widest; each weight and bias is one parameter with a leading axis of
   three, one matrix per component, and the stage is one ``decompose``
   tape node.
3. Relation reconstruction: a graph convolution over the complete graph of
   action slots scores each slot; the normalized scores weight the action
   features into a single recognition feature.

A linear head maps the stage output (mean-pooled over the node axis when
the later stages are disabled) to class logits.

Every stage takes one sample or a stacked batch: the forward pass of B
samples is one tape, not B of them. A parameter whose value is a member
stack (see ``autodiff``) carries its leading member axes through every
later stage of a stacked batch, down to (P, B, K) logits: one forward
evaluates P variants of the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import (
    ADJACENCY,
    COMPONENT_BLOCK,
    COMPONENTS,
    NODE_INDICES,
    normalize_adjacency,
)
from .params import ParamStore, glorot_uniform

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

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.channels >= 1:
            raise ValueError("channels must be >= 1")
        if not self.n_actions >= 2:
            raise ValueError("n_actions must be >= 2")
        if not self.relation_channels >= 1:
            raise ValueError("relation_channels must be >= 1")
        if not self.n_classes >= 2:
            raise ValueError("n_classes must be >= 2")

    @property
    def n_action_rows(self) -> int:
        return 3 * self.n_actions


@dataclass
class ForwardResult:
    """Logits plus the intermediates the auxiliary losses consume.

    Shapes are for a stacked batch of B samples; one sample's input gives
    the same shapes without the leading B, except logits and the
    recognition feature, which keep B = 1. A member-stacked parameter puts
    its member axes in front of every output it reaches.
    """

    node_features: Tensor  # (B, 31, C_1)
    logits: Tensor | None = None  # (B, K), set last, by the head
    # (B, 3, W, N_a) assignment of each component's nodes to its slots, in
    # graph.SUBGRAPHS order; rows past a component's node count are padding
    assignment: np.ndarray | None = None
    action_features: Tensor | None = None  # (B, 3*N_a, C_1)
    weights: Tensor | None = None  # (B, 1, 3*N_a), each row summing to 1
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

    def __init__(self, config: ModelConfig, seed: int | np.random.Generator = 0):
        self.config = config
        self.relation_adj = relation_adjacency(config.n_action_rows)
        self.params = ParamStore()
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._init_params(rng)
        # per backbone layer: gc.w, gc.b, tc.w, tc.b and padding, looked up once
        p = self.params
        self._backbone_layers = [
            (p[f"backbone.{n}.gc.w"], p[f"backbone.{n}.gc.b"],
             p[f"backbone.{n}.tc.w"], p[f"backbone.{n}.tc.b"], padding)
            for n, padding in (("l1", "same"), ("l2", "valid"))
        ]

    def _init_params(self, rng: np.random.Generator) -> None:
        c1 = self.config.channels
        specs = []  # (name, initial values), each weight drawn from rng as listed

        def block(prefix: str, d_in: int, d_out: int) -> None:
            specs.append((f"{prefix}.w", glorot_uniform(rng, (d_in, d_out))))
            specs.append((f"{prefix}.b", np.zeros((1, d_out))))

        def layer(name: str, d_in: int) -> None:
            block(f"backbone.{name}.gc", d_in, c1)
            # each tap drawn as its own (C, C) weight, stacked on a tap axis
            taps = np.stack([glorot_uniform(rng, (c1, c1)) for _ in range(3)])
            specs.append((f"backbone.{name}.tc.w", taps))
            specs.append((f"backbone.{name}.tc.b", np.zeros((1, c1))))

        layer("l1", N_FRAME_COORDS)
        layer("l2", c1)

        if self.config.variant in ("actions", "full"):
            na = self.config.n_actions
            # each component's gc.w, then its mix.w, interleaved: this draw
            # order fixes what each seed gives; each stacks on a component axis
            drawn = [glorot_uniform(rng, s) for s in [(c1, na), (na, na)] * len(COMPONENTS)]
            for name, w in (("gc", np.stack(drawn[0::2])), ("mix", np.stack(drawn[1::2]))):
                specs.append((f"actions.{name}.w", w))
                specs.append((f"actions.{name}.b", np.zeros((len(w), 1, na))))
        if self.config.variant == "full":
            c2 = self.config.relation_channels
            block("relation.gc", c1, c2)
            block("relation.mix", c2, c2)
        block("head", c1, self.config.n_classes)
        self.params.create_many(specs)

    # -- stages ------------------------------------------------------------

    def backbone(self, frames: np.ndarray) -> Tensor:
        """(..., 3, 31, 2) keyframe coordinates -> (..., 31, C_1) node features."""
        expected = (3, len(NODE_INDICES), N_FRAME_COORDS)
        if frames.ndim not in (3, 4) or frames.shape[-3:] != expected:
            raise ad.ShapeError(
                f"backbone: expected {expected} or (B, *{expected}) node "
                f"features, got {frames.shape}"
            )
        x = ad.constant(frames)
        # width-3 temporal convolutions: layer 1 keeps the three frames
        # (missing neighbors contribute nothing), layer 2 collapses them
        for layer in self._backbone_layers:
            x = ad.st_conv(ADJACENCY, x, *layer)
        return ad.reshape(x, x.shape[:-3] + x.shape[-2:])

    def decompose(self, node_features: Tensor):
        """Map (..., 31, C_1) node features to (..., 3*N_a, C_1) action
        features, returned with the plain (..., 3, W, N_a) assignment.

        Each component's nodes are softly assigned to N_a action slots; the
        assignment matrix rows are softmax-normalized so every node spreads
        unit mass over the slots. All components run as one block whose
        zero padding rows add exact zeros to the slots and take no gradient.
        """
        p = self.params
        return ad.decompose(
            node_features, *COMPONENT_BLOCK, p["actions.gc.w"], p["actions.gc.b"],
            p["actions.mix.w"], p["actions.mix.b"],
        )

    def relate(self, action_features: Tensor):
        """Score action slots over their complete graph and pool.

        Returns (recognition_feature (..., 1, C_1), weights (..., 1, 3*N_a)).
        Weights are each slot's L1 score mass, normalized per sample to
        sum 1; a sample whose slots all carry zero mass falls back to
        uniform weights, with one warning per such sample.
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
        weights, fallen = ad.slot_weights(scored)
        for _ in range(int(np.count_nonzero(fallen))):
            warnings.warn(
                "relation weights are all zero; falling back to uniform",
                RuntimeWarning,
            )
        return ad.matmul(weights, action_features), weights

    def classify(self, features: Tensor) -> Tensor:
        """(B, C_1) pooled features -> (B, K) logits."""
        return ad.affine(features, self.params["head.w"], self.params["head.b"])

    # -- composition ---------------------------------------------------------

    def forward(self, features: np.ndarray) -> ForwardResult:
        """Run every stage of the variant on one sample's node features,
        (3, 31, 2), or on a stacked batch, (B, 3, 31, 2): the result starts
        from the backbone's output and each later stage fills its fields."""
        batched = features.ndim == 4
        out = ForwardResult(node_features=self.backbone(features))
        rows = out.node_features  # the rows the head's input is pooled from
        if self.config.variant != "backbone":
            out.action_features, out.assignment = self.decompose(rows)
            rows = out.action_features
        if self.config.variant == "full":
            pooled, out.weights = self.relate(rows)
            out.recognition_feature = pooled = _per_sample(pooled, batched)
        else:
            pooled = _per_sample(ad.mean_rows(rows), batched)
        out.logits = self.classify(pooled)
        return out


def _per_sample(pooled: Tensor, batched: bool) -> Tensor:
    """(..., B, 1, C) pooled rows of a batch -> (..., B, C), one row per
    sample and any member axes kept; one sample's (..., 1, C) row already
    has that form, B being 1."""
    if not batched:
        return pooled
    return ad.reshape(pooled, pooled.shape[:-2] + pooled.shape[-1:])
