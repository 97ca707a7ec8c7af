"""Gradient-check battery: every tape operation, every loss term, and the
assembled model, against central differences.

The battery is the single source of truth for gradient correctness; both the
command-line `gradcheck` entry point and the test suite run it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckResult, Tensor
from .graph import normalize_adjacency, stack_graphs
from .landmarks import synthesize_dataset
from .losses import (
    LossWeights,
    WeightCenterTable,
    balance_loss,
    classification_loss,
    feature_center_loss,
    total_loss,
    weight_center_loss,
)
from .model import ActionRelationNet, ModelConfig
from .training import release_cycles, sample_graph

DEFAULT_SEEDS = (0, 1, 2, 3, 4)

SMALL_MODEL = ModelConfig(
    variant="full", channels=4, n_actions=2, relation_channels=3, n_classes=3
)

# keep inputs of kinked ops (relu, |.|) at least this far from the kink so a
# +-h probe cannot cross it
KINK_MARGIN = 0.05


def _off_kink(rng: np.random.Generator, shape) -> np.ndarray:
    x = rng.normal(size=shape)
    return x + np.where(x >= 0.0, KINK_MARGIN, -KINK_MARGIN)


def _readout(rng: np.random.Generator, shape):
    """Random linear functional, so output gradients are non-trivial."""
    w = ad.constant(rng.normal(size=shape))

    def out(y: Tensor) -> Tensor:
        return ad.sum_all(ad.mul(y, w))

    return out


# -- random operands: each helper returns a draw(rng) -> array function


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _kinkless(*shape):
    return lambda rng: _off_kink(rng, shape)


def _positive(*shape):
    return lambda rng: rng.uniform(0.2, 1.0, size=shape)


def _labels(k: int, *shape):
    return lambda rng: rng.integers(0, k, size=shape)


def _adjacency(n: int):
    def draw(rng):
        a = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
        return normalize_adjacency(a + a.T)

    return draw


def _op_case(op, wrt: int, *draws):
    """Check d readout(op(*args)) / d args[wrt] with every argument drawn
    at random and all but ``args[wrt]`` held constant. Scalar outputs are
    checked as they are."""

    def build(rng):
        args = [ad.constant(draw(rng)) for draw in draws]
        x = ad.tensor(args[wrt].data)

        def apply(t):
            return op(*args[:wrt], t, *args[wrt + 1 :])

        shape = apply(x).shape
        out = _readout(rng, shape) if shape else (lambda y: y)
        return lambda t: out(apply(t)), x

    return build


def _graph_affine(adj, x, w, b):
    return ad.graph_affine(adj.data, x, w, b)


def _cross_entropy(logits, labels):
    return ad.cross_entropy(logits, labels.data.astype(np.int64))


def _split_around(x, mid):
    """x's first two rows, then mid, then x's other rows."""
    n = x.shape[-2]
    return ad.concat_rows([ad.slice_rows(x, 0, 2), mid, ad.slice_rows(x, 2, n)])


def _dead_middle(x):
    """normalize_columns of a (3, R, C) batch whose middle sample is zeroed:
    it falls back to uniform, passing no gradient, while the others
    normalize."""
    mask = ad.constant(np.array([1.0, 0.0, 1.0])[:, None, None])
    return ad.normalize_columns(ad.mul(x, mask))


def _conv(padding: str):
    return lambda x, w0, w1, w2, b: ad.temporal_conv(x, [w0, w1, w2], b, padding)


def _op_cases() -> dict:
    """Every tape op on one-sample 2-d operands, then on batched ones: a
    2-d operand broadcast over batch axes must get its gradient summed
    over them."""
    n, k, pos = _normal, _kinkless, _positive
    specs = {
        "matmul.lhs": (ad.matmul, 0, n(4, 3), n(3, 5)),
        "matmul.rhs": (ad.matmul, 1, n(4, 3), n(3, 5)),
        "add.lhs": (ad.add, 0, n(3, 4), n(3, 4)),
        "add.scalar_rhs": (ad.add, 1, n(3, 4), n(1, 1)),
        "sub.lhs": (ad.sub, 0, n(3, 4), n(3, 4)),
        "sub.rhs": (ad.sub, 1, n(3, 4), n(3, 4)),
        "mul.lhs": (ad.mul, 0, n(3, 4), n(3, 4)),
        "mul.rhs": (ad.mul, 1, n(3, 4), n(3, 4)),
        "mul.scalar_rhs": (ad.mul, 1, n(3, 4), n(1, 1)),
        "div.lhs": (ad.div, 0, n(3, 4), k(3, 4)),
        "div.rhs": (ad.div, 1, n(3, 4), k(3, 4)),
        "div.scalar_rhs": (ad.div, 1, n(3, 4), k(1, 1)),
        "scale": (lambda x: ad.scale(x, -1.7), 0, n(3, 4)),
        "relu": (ad.relu, 0, k(4, 5)),
        "transpose": (ad.transpose, 0, n(3, 4)),
        "reshape": (lambda x: ad.reshape(x, (2, 6)), 0, n(3, 4)),
        "concat_rows": (_split_around, 0, n(6, 4), n(2, 4)),
        "slice_rows": (lambda x: ad.slice_rows(x, 1, 3), 0, n(5, 4)),
        "softmax_rows": (ad.softmax_rows, 0, n(4, 5)),
        "l1_rowsum": (ad.l1_rowsum, 0, k(4, 5)),
        "normalize_columns": (ad.normalize_columns, 0, pos(5, 2)),
        "sq_frobenius": (ad.sq_frobenius, 0, n(3, 4)),
        "sum_all": (ad.sum_all, 0, n(3, 4)),
        "mean_rows": (ad.mean_rows, 0, n(6, 4)),
        "affine.x": (ad.affine, 0, n(4, 3), n(3, 5), n(1, 5)),
        "affine.w": (ad.affine, 1, n(4, 3), n(3, 5), n(1, 5)),
        "affine.b": (ad.affine, 2, n(4, 3), n(3, 5), n(1, 5)),
        "graph_affine.x": (_graph_affine, 1, _adjacency(5), n(5, 3), n(3, 4), n(1, 4)),
        "graph_affine.w": (_graph_affine, 2, _adjacency(5), n(5, 3), n(3, 4), n(1, 4)),
        "graph_affine.b": (_graph_affine, 3, _adjacency(5), n(5, 3), n(3, 4), n(1, 4)),
        "cross_entropy.logits": (_cross_entropy, 0, n(6, 5), _labels(5, 6)),
        # batched operands
        "matmul.lhs.batched": (ad.matmul, 0, n(2, 4, 3), n(3, 5)),
        "matmul.rhs.batched": (ad.matmul, 1, n(2, 4, 3), n(3, 5)),
        "matmul.both.batched": (ad.matmul, 1, n(2, 4, 3), n(2, 3, 5)),
        "add.broadcast_rhs": (ad.add, 1, n(2, 3, 4), n(3, 4)),
        "sub.broadcast_rhs": (ad.sub, 1, n(2, 3, 4), n(3, 4)),
        "mul.broadcast_rhs": (ad.mul, 1, n(2, 3, 4), n(1, 4)),
        "div.broadcast_lhs": (ad.div, 0, n(3, 1), k(2, 3, 4)),
        "div.broadcast_rhs": (ad.div, 1, n(2, 3, 4), k(2, 1, 4)),
        "scale.batched": (lambda x: ad.scale(x, 0.6), 0, n(2, 3, 4)),
        "relu.batched": (ad.relu, 0, k(2, 3, 4)),
        "transpose.batched": (ad.transpose, 0, n(2, 3, 4)),
        "reshape.batched": (lambda x: ad.reshape(x, (2, -1)), 0, n(2, 3, 4)),
        "concat_rows.batched": (_split_around, 0, n(2, 5, 4), n(2, 2, 4)),
        "slice_rows.batched": (lambda x: ad.slice_rows(x, 1, 3), 0, n(2, 5, 4)),
        "softmax_rows.batched": (ad.softmax_rows, 0, n(2, 3, 4)),
        "l1_rowsum.batched": (ad.l1_rowsum, 0, k(2, 3, 4)),
        "normalize_columns.batched": (ad.normalize_columns, 0, pos(3, 5, 1)),
        "normalize_columns.fallback": (_dead_middle, 0, pos(3, 5, 1)),
        "sq_frobenius.batched": (ad.sq_frobenius, 0, n(2, 3, 4)),
        "sum_all.batched": (ad.sum_all, 0, n(2, 3, 4)),
        "mean_rows.batched": (ad.mean_rows, 0, n(2, 3, 4)),
        "affine.x.batched": (ad.affine, 0, n(2, 3, 4), n(4, 5), n(1, 5)),
        "affine.w.batched": (ad.affine, 1, n(2, 3, 4), n(4, 5), n(1, 5)),
        "affine.b.batched": (ad.affine, 2, n(2, 3, 4), n(4, 5), n(1, 5)),
        "graph_affine.x.batched": (
            _graph_affine, 1, _adjacency(5), n(2, 5, 3), n(3, 4), n(1, 4)
        ),
        "graph_affine.w.batched": (
            _graph_affine, 2, _adjacency(5), n(2, 5, 3), n(3, 4), n(1, 4)
        ),
        "graph_affine.b.batched": (
            _graph_affine, 3, _adjacency(5), n(2, 5, 3), n(3, 4), n(1, 4)
        ),
        "cross_entropy.logits.batched": (
            _cross_entropy, 0, n(2, 3, 4), _labels(4, 2, 3)
        ),
    }
    # temporal_conv over (B, T, R, C) frames: the input, the middle tap and
    # the bias, under both paddings
    for padding in ("same", "valid"):
        for target, wrt in (("x", 0), ("w", 2), ("b", 4)):
            specs[f"temporal_conv.{padding}.{target}"] = (
                _conv(padding), wrt, n(2, 3, 4, 3), n(3, 2), n(3, 2), n(3, 2), n(1, 2)
            )
    return {name: _op_case(*spec) for name, spec in specs.items()}


def _loss_cases() -> dict:
    cases = {}
    n, rows, chans = 4, 6, 3

    def classification(rng):
        labels = rng.integers(0, 5, size=n)
        return (
            lambda x: classification_loss(x, labels),
            ad.tensor(rng.normal(size=(n, 5))),
        )

    def feature_center(rng):
        return feature_center_loss, ad.tensor(rng.normal(size=(n, rows, chans)))

    def weight_center(rng):
        labels = rng.integers(0, 3, size=n)
        table = WeightCenterTable(n_classes=3, n_rows=rows, rate=0.5)
        table.update(rng.dirichlet(np.ones(rows), size=3), [0, 1, 2])
        return (
            lambda x: weight_center_loss(x, labels, table, update=False),
            ad.tensor(rng.normal(size=(n, rows, 1))),
        )

    def balance(rng):
        return balance_loss, ad.tensor(rng.normal(size=(n, rows, 1)))

    cases["loss.classification"] = classification
    cases["loss.feature_center"] = feature_center
    cases["loss.weight_center"] = weight_center
    cases["loss.balance"] = balance
    return cases


@dataclass
class BatteryEntry:
    name: str
    seed: int
    result: GradCheckResult

    @property
    def passed(self) -> bool:
        return self.result.passed


# ops whose derivative jumps where their input crosses zero
KINKED_OPS = ("relu", "l1_rowsum")


def kink_margin(loss: Tensor) -> float:
    """Smallest distance of any rectifier or absolute-value input to its
    kink, found by walking the tape from ``loss`` and picking nodes by
    their op name.

    Central differences are only trustworthy when the +-h probe interval
    stays on one side of every kink, so end-to-end checks must run at a
    point whose margin comfortably exceeds the probe's reach.
    """
    seen: set[int] = set()
    stack = [loss]
    margin = np.inf
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node.op in KINKED_OPS:
            margin = min(margin, float(np.abs(node._parents[0].data).min()))
    return margin


MIN_KINK_MARGIN = 2e-4
_JITTER_ATTEMPTS = 12


def _model_entries(seed: int, h: float, tol: float) -> list[BatteryEntry]:
    """End-to-end check: d(total loss)/d(parameter) for every parameter.

    Central differences are valid only at points where no rectifier input
    sits within the probe's reach of its kink, and zero-initialized biases
    even pin some inputs exactly at it (a dead node row propagates an
    exactly-zero preactivation). The check therefore jitters all parameters
    and accepts the first sufficiently kink-distant point where every
    parameter passes. A wrong backward rule fails at every point, so the
    redraws cannot hide one; they only steer the probe onto valid ground.
    """
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=3, n_classes=3, noise_sigma=0.5, seed=seed
    )
    model = ActionRelationNet(SMALL_MODEL, seed=seed)
    graph = stack_graphs([sample_graph(s, 3.0, model.selection) for s in samples])
    labels = [s.label for s in samples]
    rng = np.random.default_rng(seed)
    table = WeightCenterTable(n_classes=3, n_rows=SMALL_MODEL.n_action_rows)
    table.update(rng.dirichlet(np.ones(SMALL_MODEL.n_action_rows), size=3), [0, 1, 2])
    weights = LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1)

    def objective(_: Tensor) -> Tensor:
        return total_loss(
            model.forward(graph), labels, weights, table=table, update_table=False
        ).total

    baseline = model.params.state_dict()
    entries: list[BatteryEntry] = []
    for attempt in range(_JITTER_ATTEMPTS):
        jitter = np.random.default_rng([seed, attempt])
        for name, p in model.params.items():
            p.data = baseline[name] + jitter.normal(0.0, 0.15, size=p.shape)
        if kink_margin(objective(None)) < MIN_KINK_MARGIN:
            continue
        entries = [
            BatteryEntry(
                name=f"model.full[{name}]",
                seed=seed,
                result=ad.grad_check(objective, model.params[name], h=h, tol=tol),
            )
            for name in model.params.names()
        ]
        if all(e.passed for e in entries):
            return entries
    if entries:
        return entries
    result = GradCheckResult(
        max_rel_err=np.inf,
        passed=False,
        n_coords=0,
        failure="no kink-free check point found",
    )
    return [BatteryEntry(name="model.full[setup]", seed=seed, result=result)]


def run_battery(
    seeds=DEFAULT_SEEDS,
    h: float = 1e-5,
    tol: float = 1e-4,
    include_model: bool = True,
) -> list[BatteryEntry]:
    """Check every case under every seed; model parameters under the first
    two seeds (they dominate runtime and cover every op again)."""
    release_cycles()
    cases = {**_op_cases(), **_loss_cases()}
    entries: list[BatteryEntry] = []
    for index, (name, build) in enumerate(cases.items()):
        for seed in seeds:
            f, x = build(np.random.default_rng([index, seed]))
            entries.append(
                BatteryEntry(name=name, seed=seed, result=ad.grad_check(f, x, h=h, tol=tol))
            )
    if include_model:
        for seed in seeds[:2]:
            entries.extend(_model_entries(seed, h=h, tol=tol))
    return entries


def battery_passed(entries: list[BatteryEntry]) -> bool:
    return all(e.passed for e in entries)


def format_battery(entries: list[BatteryEntry]) -> str:
    """One line per case: worst seed's relative error and status."""
    worst: dict[str, BatteryEntry] = {}
    for e in entries:
        held = worst.get(e.name)
        if held is None or e.result.max_rel_err > held.result.max_rel_err:
            worst[e.name] = e
    lines = []
    for name, e in worst.items():
        status = "pass" if all(
            x.passed for x in entries if x.name == name
        ) else "FAIL"
        lines.append(
            f"{status}  {name:<40} max_rel_err={e.result.max_rel_err:.3e} "
            f"(seed {e.seed}, {e.result.n_coords} coords)"
        )
    n_pass = sum(1 for e in entries if e.passed)
    lines.append(f"{n_pass}/{len(entries)} checks passed")
    return "\n".join(lines)
