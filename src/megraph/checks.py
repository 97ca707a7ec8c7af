"""Gradient-check battery: every tape operation, every loss term, and the
assembled model, against central differences.

The battery is the single source of truth for gradient correctness; both the
command-line `gradcheck` entry point and the test suite run it. Each op and
loss entry takes its analytic gradient from one backward, seeded with a
random readout when the op's output is not a scalar, and evaluates all 2n
+-h probes of its operand as one member stack, which must give the values of
the reference loop of :func:`autodiff.compare_gradient` bit for bit. A
stacked evaluation that raises a shape error or returns the wrong number of
values is a failed entry, not a fallback.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import GradCheckResult, ShapeError, Tensor
from .graph import normalize_adjacency
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

# -- random operands: each helper returns a draw(rng) -> array function


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _labels(k: int, *shape):
    return lambda rng: rng.integers(0, k, size=shape)


def _adjacency(n: int):
    def draw(rng):
        a = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
        return normalize_adjacency(a + a.T)

    return draw


def _members(apply, lead: int = 0, readout: np.ndarray | None = None):
    """Evaluator of all 2n probes in one call: ``apply`` receives them as a
    member stack in front of ``lead`` singleton batch axes, and ``readout``
    (None for an output with one value per member) is taken per member on
    values."""

    def values(probes: np.ndarray) -> np.ndarray:
        stack = probes.reshape(probes.shape[:1] + (1,) * lead + probes.shape[1:])
        y = apply(ad.constant(stack)).data
        if readout is None:
            return y
        return (y * readout).reshape(len(probes), -1).sum(axis=1)

    return values


def _op_case(op, wrt: int, *draws, off_kink: bool = False):
    """Check d readout(op(*args)) / d args[wrt] with every argument drawn
    at random and all but ``args[wrt]`` held constant; the readout is a
    random linear functional, the seed of the analytic side's backward, so
    output gradients are non-trivial. Scalar outputs are checked as they are.

    The probes of ``args[wrt]`` run as one member stack placed in front of
    every batch axis of the output, so ``op`` keeps every leading axis of
    its operands. With ``off_kink``, for an op with a kink (a rectifier or
    an absolute value), the arguments are drawn again, up to
    :data:`_JITTER_ATTEMPTS` times, until :func:`kink_margin` of the output
    puts every input of a kink at least :data:`MIN_KINK_MARGIN` from it, as
    the model check does."""

    def build(rng):
        for _ in range(_JITTER_ATTEMPTS if off_kink else 1):
            args = [ad.constant(draw(rng)) for draw in draws]
            x = ad.tensor(args[wrt].data)

            def apply(t):
                return op(*args[:wrt], t, *args[wrt + 1 :])

            y = apply(ad.tensor(x.data, requires_grad=True) if off_kink else x)
            if not off_kink or kink_margin(y) >= MIN_KINK_MARGIN:
                break
        readout = rng.normal(size=y.shape) if y.shape else None
        return apply, x, _members(apply, max(0, y.ndim - x.ndim), readout), readout

    return build


def _weighted_sum(*factors):
    """weighted_sum of the tensors it is called with, under ``factors``."""
    return lambda *terms: ad.weighted_sum(terms, factors)


def _graph_affine(adj, x, w, b):
    return ad.graph_affine(adj.data, x, w, b)


def _st_conv(adj, x, gc_w, gc_b, tc_w, tc_b, padding):
    return ad.st_conv(adj.data, x, gc_w, gc_b, tc_w, tc_b, padding)


# st_conv's operands after the adjacency, by position: (B, T, R, K) =
# (2, 3, 4, 2) frames, a (2, 3) graph weight and a (3, 3, 2) temporal one;
# beside member stacks of three, one sample's (1, 3, 4, 2) frames
_ST_TARGETS = ("x", "gc.w", "gc.b", "tc.w", "tc.b")
_ST_PLAIN = (
    _normal(2, 3, 4, 2), _normal(2, 3), _normal(1, 3), _normal(3, 3, 2), _normal(1, 2),
)
_ST_STACKED = (
    _normal(1, 3, 4, 2), _normal(3, 1, 1, 2, 3), _normal(3, 1, 1, 1, 3),
    _normal(3, 1, 3, 3, 2), _normal(3, 1, 1, 1, 2),
)


def _st_conv_case(padding: str, wrt: int, stacked=()):
    """st_conv with respect to operand ``wrt`` (0 for x), the weights and
    biases at the ``stacked`` positions drawn as member stacks, every draw
    off the kink."""
    x = (_ST_STACKED if stacked else _ST_PLAIN)[0]
    params = [(_ST_STACKED if i in stacked else _ST_PLAIN)[i] for i in range(1, 5)]
    return _op_case(
        partial(_st_conv, padding=padding), wrt + 1, _adjacency(4), x, *params,
        off_kink=True,
    )


def _slot_weights(scores):
    return ad.slot_weights(scores)[0]


def _cross_entropy(logits, labels):
    return ad.cross_entropy(logits, labels.data.astype(np.int64))


# two (3, C) blocks from five rows: row 2 left out, two zero rows
_ROWS = np.array([[3, -1, 0], [4, 1, -1]])


def _decompose(adj, x, gc_w, gc_b, mix_w, mix_b):
    """decompose over the groups of _ROWS, its slots split (..., G, N_a, C)
    so that a weight's group axis lines up with an axis of the output."""
    out, _ = ad.decompose(x, _ROWS, adj.data, gc_w, gc_b, mix_w, mix_b)
    return ad.reshape(out, out.shape[:-2] + (len(_ROWS), -1, out.shape[-1]))


def _decompose_cases() -> dict:
    """decompose with respect to each operand, every draw off the kink: two
    (5, 3) samples in the groups of _ROWS, per group a (3, 2) graph weight,
    a (2, 2) mixing weight and their biases. "<target>.stacked" takes one
    sample, with the target and the next weight or bias (every one for x)
    drawn as member stacks of three."""
    shapes = ((2, 3, 2), (2, 1, 2), (2, 2, 2), (2, 1, 2))
    cases = {}
    for wrt, target in enumerate(("x", "gc.w", "gc.b", "mix.w", "mix.b")):
        partners = (wrt, wrt % 4 + 1) if wrt else (1, 2, 3, 4)
        for kind, stacked in (("", ()), (".stacked", partners)):
            params = [
                _normal(*((3, 1) if i in stacked else ()), *s)
                for i, s in enumerate(shapes, 1)
            ]
            cases[f"decompose.{target}{kind}"] = _op_case(
                _decompose, wrt + 1, _normal(2, 3, 3), _normal(1 if stacked else 2, 5, 3),
                *params, off_kink=True,
            )
    return cases


def _op_cases() -> dict:
    """Every tape op on one-sample 2-d operands, then on batched ones: a
    2-d operand broadcast over batch axes must get its gradient summed
    over them. The kinked ops' operands are drawn off the kink."""
    n = _normal
    specs = {
        "matmul.lhs": (ad.matmul, 0, n(4, 3), n(3, 5)),
        "matmul.rhs": (ad.matmul, 1, n(4, 3), n(3, 5)),
        "weighted_sum": (_weighted_sum(1.0, -1.7), 0, n(3, 4), n(3, 4)),
        "weighted_sum.broadcast": (_weighted_sum(1.0, -1.7), 1, n(3, 4), n(1, 4)),
        "relu": (ad.relu, 0, n(4, 5)),
        "reshape": (lambda x: ad.reshape(x, x.shape[:-2] + (2, 6)), 0, n(3, 4)),
        "sq_frobenius": (lambda x: ad.sq_frobenius(x, x.ndim - 2), 0, n(3, 4)),
        "mean_rows": (ad.mean_rows, 0, n(6, 4)),
        "slot_weights": (_slot_weights, 0, n(4, 5)),
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
        "weighted_sum.batched": (_weighted_sum(0.6, 1.0), 0, n(2, 3, 4), n(3, 4)),
        "relu.batched": (ad.relu, 0, n(2, 3, 4)),
        "reshape.batched": (lambda x: ad.reshape(x, x.shape[:-3] + (2, -1)), 0, n(2, 3, 4)),
        "sq_frobenius.batched": (lambda x: ad.sq_frobenius(x, x.ndim - 3), 0, n(2, 3, 4)),
        "mean_rows.batched": (ad.mean_rows, 0, n(2, 3, 4)),
        "slot_weights.batched": (_slot_weights, 0, n(2, 3, 4)),
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
    cases = {
        name: _op_case(*spec, off_kink=name.split(".")[0] in KINKED_OPS)
        for name, spec in specs.items()
    }
    for padding in ("same", "valid"):
        for wrt, target in enumerate(_ST_TARGETS):
            cases[f"st_conv.{padding}.{target}"] = _st_conv_case(padding, wrt)
    return {**cases, **_decompose_cases()}


def _stacked_cases() -> dict:
    """Ops whose weight or bias carries a leading member axis of three, each
    with respect to the stacked operand, to x, whose gradient sums over the
    members, and to a 2-d operand beside a stacked one."""
    n = _normal
    specs = {
        "matmul.lhs.stacked": (ad.matmul, 0, n(2, 4, 3), n(3, 1, 3, 5)),
        "matmul.rhs.stacked": (ad.matmul, 1, n(2, 4, 3), n(3, 1, 3, 5)),
    }

    def operands(k, d, w_stacked, b_stacked):
        """(K, D) weight and (1, D) bias draws for a (2, R, K) x; a stacked
        one is (3, 1, K, D) or (3, 1, 1, D)."""
        w = n(3, 1, k, d) if w_stacked else n(k, d)
        return w, n(3, 1, 1, d) if b_stacked else n(1, d)

    for target, wrt, w_stacked, b_stacked in (
        ("x", 0, True, True),
        ("w", 1, True, False),
        ("b", 2, False, True),
        ("w.shared", 1, False, True),
    ):
        specs[f"affine.{target}.stacked"] = (
            ad.affine, wrt, n(2, 3, 4), *operands(4, 5, w_stacked, b_stacked)
        )
        specs[f"graph_affine.{target}.stacked"] = (
            _graph_affine, wrt + 1, _adjacency(5), n(2, 5, 3),
            *operands(3, 4, w_stacked, b_stacked),
        )
    cases = {name: _op_case(*spec) for name, spec in specs.items()}
    # st_conv with member stacks of three: "<target>.stacked" stacks the
    # target and one more operand (every weight and bias for x); ".shared" is
    # a plain target beside a stacked operand, its gradient summed over members
    for padding, target, stacked in (
        ("same", "x", (1, 2, 3, 4)),
        ("valid", "gc.w", (1, 4)),
        ("same", "gc.b", (2, 3)),
        ("valid", "tc.w", (3, 1)),
        ("same", "tc.b", (4, 2)),
        ("valid", "gc.w.shared", (3,)),
    ):
        kind = "" if target.endswith(".shared") else ".stacked"
        wrt = _ST_TARGETS.index(target.removesuffix(".shared"))
        cases[f"st_conv.{padding}.{target}{kind}"] = _st_conv_case(padding, wrt, stacked)
    return cases


def _loss_cases() -> dict:
    """Each loss term with respect to its input. Every term gives one value
    per leading member axis of its input, so its probes run as one stack."""
    n, rows, chans = 4, 6, 3

    def case(draw_term, shape):
        def build(rng):
            f = draw_term(rng)
            return f, ad.tensor(rng.normal(size=shape)), _members(f), None

        return build

    def classification(rng):
        return partial(classification_loss, labels=rng.integers(0, 5, size=n))

    def weight_center(rng):
        labels = rng.integers(0, 3, size=n)
        table = WeightCenterTable(n_classes=3, n_rows=rows, rate=0.5)
        table.update(rng.dirichlet(np.ones(rows), size=3), [0, 1, 2])
        return partial(weight_center_loss, labels=labels, table=table, update=False)

    return {
        "loss.classification": case(classification, (n, 5)),
        "loss.feature_center": case(lambda rng: feature_center_loss, (n, rows, chans)),
        "loss.weight_center": case(weight_center, (n, 1, rows)),
        "loss.balance": case(lambda rng: balance_loss, (n, 1, rows)),
    }


def _centered(batch_axes: int, factor: float):
    """sq_frobenius of x against a constant center, times ``factor``, with one
    sum per (R, C) matrix, or per (B, R, C) batch when ``batch_axes`` is 1.
    Every axis in front is kept, as the losses keep their member axes, so a
    probe stack passes through as one more."""

    def op(x, center):
        return ad.sq_frobenius(x, x.ndim - 2 - batch_axes, center.data, factor)

    return op


def _center_cases() -> dict:
    """sq_frobenius with a center broadcast along rows or along the batch,
    a factor, and member axes that each keep their own sum."""
    n = _normal
    specs = {
        "sq_frobenius.center": (_centered(0, -0.7), 0, n(3, 4), n(1, 4)),
        "sq_frobenius.center.batched": (_centered(1, 0.3), 0, n(2, 3, 4), n(3, 4)),
        "sq_frobenius.members": (_centered(0, 1.6), 0, n(2, 3, 4), n(1, 4)),
    }
    return {name: _op_case(*spec) for name, spec in specs.items()}


def _cases() -> dict:
    """Every op and loss case by name, each a ``build(rng) -> (f, x,
    stacked, readout)``: ``stacked`` evaluates every probe of ``x`` as one
    member stack, and ``readout`` is None for a scalar-valued ``f``."""
    return {**_op_cases(), **_loss_cases(), **_stacked_cases(), **_center_cases()}


def case_rng(name: str, seed: int) -> np.random.Generator:
    """The generator a case draws from under ``seed``, keyed by the case's
    name, so adding or deleting a case leaves every other case's draws."""
    return np.random.default_rng([zlib.crc32(name.encode()), seed])


@dataclass
class BatteryEntry:
    name: str
    seed: int
    result: GradCheckResult

    @property
    def passed(self) -> bool:
        return self.result.passed


# ops whose derivative jumps where their input crosses zero, besides the
# fused st_conv and decompose: their battery cases are drawn off the kink
KINKED_OPS = ("relu", "slot_weights")


def kink_margin(loss: Tensor) -> float:
    """Smallest distance of any rectifier or absolute-value input to its
    kink, found by walking the tape from ``loss``: the ``rectifier_input``
    of every node whose backward rule has one (``relu``, ``st_conv``,
    ``decompose``, ``slot_weights``).

    Central differences are only trustworthy when the +-h probe interval
    stays on one side of every kink, so end-to-end checks must run at a
    point whose margin comfortably exceeds the probe's reach.
    """
    margin = np.inf
    for node in _tape(loss):
        rectifier_input = getattr(node._backward, "rectifier_input", None)
        if rectifier_input is not None:
            margin = min(margin, float(np.abs(rectifier_input()).min()))
    return margin


def _tape(loss: Tensor) -> list[Tensor]:
    """Every node reachable from ``loss`` that a gradient reaches, each once,
    as :func:`~megraph.autodiff.backward` walks them. A ``loss`` no gradient
    reaches, such as one computed under ``ParamStore.frozen()``, recorded no
    tape: reading it raises ValueError."""
    if not (loss.requires_grad or loss._needs):
        raise ValueError("no gradient reaches this loss, so it recorded no tape")
    return ad._tape(loss)


# ops whose weight and bias operands broadcast against their first operand,
# and the axes that operand gains inside first: decompose's a group axis
WEIGHTED_OPS = {"affine": 0, "graph_affine": 0, "st_conv": 0, "decompose": 1}


def _batch_axes(loss: Tensor) -> dict[int, int]:
    """id of every weight and bias on the tape -> the singletons a member stack
    of it needs: how many more axes the operand it meets has."""
    axes = {}
    for node in _tape(loss):
        if node.op in WEIGHTED_OPS:
            x, *operands = node._parents
            for p in operands:
                axes[id(p)] = x.ndim + WEIGHTED_OPS[node.op] - p.ndim
    return axes


MIN_KINK_MARGIN = 2e-4
_JITTER_ATTEMPTS = 48

# most probes of one parameter tensor that a model check stacks into one
# forward: the (3, 4, 4) taps of SMALL_MODEL have 96, and 64-member stacks
# through the whole backbone raised the gradcheck workload's peak RSS by 1 MiB
PROBE_CHUNK = 32


def _model_entries(seed: int, h: float, tol: float) -> list[BatteryEntry]:
    """End-to-end check: d(total loss)/d(parameter) for every parameter.

    Central differences are valid only at points where no rectifier input
    sits within the probe's reach of its kink, and zero-initialized biases
    even pin some inputs exactly at it (a dead node row propagates an
    exactly-zero preactivation). The check therefore jitters all parameters,
    up to :data:`_JITTER_ATTEMPTS` times, and checks every parameter at the
    first point that clears :data:`MIN_KINK_MARGIN`; only about a third of
    the draws do. Those entries stand, passed or not: the draws are chosen
    by the kink margin alone, never by the check's outcome, so a redraw
    cannot hide a wrong backward rule. At that point, one backward over the
    tape the margin was read from gives every parameter's analytic gradient,
    and forwards with the parameters frozen, each stacking up to
    :data:`PROBE_CHUNK` of a tensor's probes on a leading member axis, give
    all of its central differences.
    """
    samples = synthesize_dataset(
        n_subjects=1, samples_per_subject=3, n_classes=3, noise_sigma=0.5, seed=seed
    )
    model = ActionRelationNet(SMALL_MODEL, seed=seed)
    features = sample_graph(samples, 3.0)
    labels = samples.labels
    rng = np.random.default_rng(seed)
    table = WeightCenterTable(n_classes=3, n_rows=SMALL_MODEL.n_action_rows)
    table.update(rng.dirichlet(np.ones(SMALL_MODEL.n_action_rows), size=3), [0, 1, 2])
    weights = LossWeights(feature_center=1.0, weight_center=1.0, balance=0.1)

    def objective(_: Tensor) -> Tensor:
        return total_loss(
            model.forward(features), labels, weights, table=table, update_table=False
        ).total

    def stacked(p: Tensor, batch_axes: int):
        """The objective at every probe of ``p``, ``p`` holding a chunk of the
        probes on a member axis in front of its operand's batch axes."""

        def swapped(stack: Tensor) -> Tensor:
            value = p.data
            p.data = stack.data
            try:
                return objective(p)
            finally:
                p.data = value

        values = _members(swapped, batch_axes)

        def chunked(probes: np.ndarray) -> np.ndarray:
            with model.params.frozen():
                return np.concatenate([
                    values(probes[i : i + PROBE_CHUNK])
                    for i in range(0, len(probes), PROBE_CHUNK)
                ])

        return chunked

    baseline = model.params.flat().copy()
    for attempt in range(_JITTER_ATTEMPTS):
        jitter = np.random.default_rng([seed, attempt])
        model.params.flat()[:] = baseline + jitter.normal(0.0, 0.15, size=baseline.size)
        loss = objective(None)
        if kink_margin(loss) < MIN_KINK_MARGIN:
            continue
        model.params.zero_grad()
        ad.backward(loss)
        batch_axes = _batch_axes(loss)
        return [
            BatteryEntry(
                name=f"model.full[{name}]",
                seed=seed,
                result=ad.compare_gradient(
                    objective, p, p.grad, h=h, tol=tol,
                    stacked=stacked(p, batch_axes[id(p)]),
                ),
            )
            for name, p in model.params.items()
        ]
    result = GradCheckResult.failed(0, "no kink-free check point found")
    return [BatteryEntry(name="model.full[setup]", seed=seed, result=result)]


def run_battery(
    seeds=DEFAULT_SEEDS,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> list[BatteryEntry]:
    """Check every case under every seed; model parameters under the first
    two seeds (they dominate runtime and cover every op again)."""
    release_cycles()
    entries: list[BatteryEntry] = []
    for name, build in _cases().items():
        for seed in seeds:
            f, x, stacked, readout = build(case_rng(name, seed))
            try:
                result = ad.grad_check(
                    f, x, h=h, tol=tol, stacked=stacked, readout=readout
                )
            except ShapeError as exc:
                # an op that cannot take the member stack fails its entry;
                # nothing falls back to the loop
                result = GradCheckResult.failed(x.data.size, str(exc))
            entries.append(BatteryEntry(name=name, seed=seed, result=result))
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
    failed = {e.name for e in entries if not e.passed}
    lines = [
        f"{'FAIL' if name in failed else 'pass'}  {name:<40} max_rel_err="
        f"{e.result.max_rel_err:.3e} (seed {e.seed}, {e.result.n_coords} coords)"
        for name, e in worst.items()
    ]
    n_pass = sum(1 for e in entries if e.passed)
    lines.append(f"{n_pass}/{len(entries)} checks passed")
    return "\n".join(lines)
