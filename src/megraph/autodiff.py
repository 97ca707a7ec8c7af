"""Dense float64 tensors with reverse-mode differentiation.

A small tape: every operation computes its value with numpy and records a
closure mapping the output gradient back to parent gradients. Graphs are
plain DAGs of :class:`Tensor` nodes which `backward` walks once in reverse
topological order. Scalars are 0-d tensors. Every other op works on arrays
of shape ``(..., R, C)``: the last two axes are one sample's matrix, any
leading axes are batch axes, and the one-sample 2-d case is the same code
path. Where a 2-d operand (a weight, a bias, a constant adjacency) meets a
batched one, its gradient is summed over the batch axes. ``st_conv``, one
backbone layer, takes its k temporal taps as one ``(k, K, D)`` weight, one
matrix per frame offset, and works frame-major inside; ``decompose`` takes
one ``(G, K, D)`` weight, one matrix per group of rows.

Weights and biases may also carry a leading member axis: a ``(P, 1..., K, D)``
weight or ``(P, 1..., 1, D)`` bias holds P variants of one parameter, with
one singleton per axis by which the operand it meets outnumbers it, and
its leading axes broadcast against that operand's; a temporal weight's
stack is ``(P, 1..., k, K, D)``, its tap axis standing in for the frame
singleton. One forward then evaluates P members at once, each
bit-identical to a forward with that member alone; the gradient check
uses this to run the probes of a parameter tensor as member stacks.

A node records whether any parent needs a gradient. Only a node that does
keeps its parents and its backward rule, so a graph no gradient can flow
through (a forward with frozen parameters, a constant branch) records no
tape: each activation lives only as long as the caller holds it.
`backward` walks only the nodes that need a gradient, marking them with a
token new to the call, and drops each interior gradient as soon as its
node's rule has used it. Only leaves keep gradients, assigned once the
whole pass has succeeded; a pass cut short by an exception changes none.

Ops do not check their values for NaN or infinity. Divergence is caught
once per step instead: ``losses.total_loss`` rejects a non-finite loss term
and ``params.sgd_step`` a non-finite gradient.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "tensor",
    "constant",
    "backward",
    "grad_check",
    "compare_gradient",
    "GradCheckResult",
    "matmul",
    "weighted_sum",
    "relu",
    "reshape",
    "sq_frobenius",
    "mean_rows",
    "affine",
    "graph_affine",
    "st_conv",
    "decompose",
    "slot_weights",
    "cross_entropy",
]


# glibc mallopt parameters, and the values that keep freed tape arrays in
# the heap: 32 MiB is the largest mmap threshold glibc takes on 64-bit.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 64 << 20
_MMAP_BYTES = 32 << 20


def _keep_heap() -> bool:
    """Keep freed tape memory in the heap for the next step to reuse.

    A training step frees several MiB of activations and gradients, in
    arrays of 190-760 KiB. glibc's dynamic thresholds hand that memory
    back to the OS (heap trim or munmap), and the next step page-faults
    it all back in as zeroed memory. Fixing both thresholds switches that
    off; fixing the trim threshold alone would send every array of
    128 KiB or more through mmap/munmap instead.

    The setting is process-wide and applies only under glibc; it runs once
    when ``megraph`` is imported. Where ``mallopt`` is missing or refuses
    (macOS, musl, Windows, 32-bit glibc) nothing changes and this returns
    False. To observe it, compare ``resource.getrusage(RUSAGE_SELF).ru_minflt``
    before and after a second identical training call: with the setting it
    grows by a handful of faults, without it by hundreds to thousands.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        return bool(
            mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
        )
    except (OSError, AttributeError, TypeError):
        return False


_keep_heap()


class ShapeError(ValueError):
    """Operands do not satisfy an op's shape contract."""


class Tensor:
    """Array value plus an optional gradient accumulator.

    Leaves created with ``requires_grad=True`` accumulate gradients across
    ``backward`` calls until ``grad`` is set back to None, as
    ``ParamStore.zero_grad`` does for every parameter; interior nodes never
    hold one. ``op`` names the operation that made an interior node ("" for
    leaves). An interior node keeps its parents, and with them the tape
    below it, only while a gradient can flow through it.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "op", "_needs", "_parents", "_backward",
        "_mark", "_g",
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = ""
        self._needs = False
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None
        self._mark: object | None = None  # token of the last backward to reach it
        self._g: np.ndarray | None = None  # that backward's gradient sum

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], back, op: str = "") -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out.op = op
    needs = False
    for p in parents:
        needs = needs or p.requires_grad or p._needs
    out._needs = needs
    out._parents = parents if needs else ()
    out._backward = back if needs else None
    out._mark = None
    out._g = None
    return out


def _not_matrix(op: str, shape: tuple[int, ...]) -> ShapeError:
    return ShapeError(f"{op}: expected a (..., R, C) tensor, got shape {shape}")


def _require_matrix(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.data.ndim < 2:
            raise _not_matrix(op, t.data.shape)


def _tape(loss: Tensor) -> list[Tensor]:
    """Every node reachable from ``loss`` that leads to a ``requires_grad``
    leaf, each once and after all of its parents: an iterative post-order
    DFS in which a token new to the call marks each node's first visit."""
    token = object()
    topo: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node._mark is token:
            continue
        node._mark = token
        stack.append((node, True))
        for parent in node._parents:
            if parent._mark is not token and (parent.requires_grad or parent._needs):
                stack.append((parent, False))
    return topo


def backward(loss: Tensor, seed=None) -> None:
    """Add the gradient of a scalar loss to every ``requires_grad`` leaf
    reachable from it. Given a ``seed`` of the loss's shape, the gradient
    propagated is that seed, so each leaf gets the vector-Jacobian product
    of ``seed`` with ``loss``; the seed is copied, so no ``grad`` aliases it.

    Only nodes that lead to such a leaf are visited. Leaf gradients
    accumulate across calls; they change only once the whole pass has
    succeeded.
    """
    if seed is None:
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
        seed = np.ones_like(loss.data)
    else:
        seed = np.array(seed, dtype=np.float64)
        if seed.shape != loss.shape:
            raise ShapeError(f"backward: seed shape {seed.shape} vs loss {loss.shape}")
    if not (loss.requires_grad or loss._needs):
        return

    topo = _tape(loss)
    loss._g = seed
    try:
        for node in reversed(topo):
            g = node._g
            if not node.requires_grad:
                node._g = None  # an interior sum is spent once its rule has run
            if g is None or node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if parent.requires_grad or parent._needs:
                    parent._g = pg if parent._g is None else parent._g + pg
    except BaseException:
        for node in topo:
            node._g = None
        raise

    for node in topo:
        if node.requires_grad and node._g is not None:
            g, node._g = node._g, None
            node.grad = g if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# gradient reductions over batch axes


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` over the axes numpy broadcast it along."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g).reshape(shape)


def _weight_grad(x: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """x^T g summed down to a weight of ``shape``. A 2-d weight whose
    operand has every batch axis of ``g`` takes one flat product."""
    if len(shape) == 2 and x.shape[:-1] == g.shape[:-1]:
        return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return _unbroadcast(x.swapaxes(-1, -2) @ g, shape)


def _bias_grad(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """g summed down to a bias of ``shape``: a (1, D) bias as the product of
    a ones row with g's rows, as st_conv sums its biases."""
    if len(shape) == 2:
        return (_ones(g.size // g.shape[-1]) @ g.reshape(-1, g.shape[-1])).reshape(shape)
    return _unbroadcast(g, shape)


def _transposed(w: np.ndarray) -> np.ndarray:
    """w with its last two axes swapped; a 2-d weight as a contiguous copy,
    which a batched product takes faster and with the same bits."""
    return w.T.copy() if w.ndim == 2 else w.swapaxes(-1, -2)


def _check_bias(op: str, b: Tensor, d: int) -> None:
    if b.data.shape[-2:] != (1, d):
        raise ShapeError(
            f"{op}: bias shape {b.data.shape}, expected (1, {d}) or (P, 1..., 1, {d})"
        )


# ---------------------------------------------------------------------------
# elementwise and structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading axes broadcast as in ``np.matmul``."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise _not_matrix("matmul", sa if len(sa) < 2 else sb)
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul: incompatible shapes {sa} @ {sb}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: batch axes of {sa} and {sb} differ") from None

    def back(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), sa)
        return ga, _weight_grad(a.data, g, sb)

    return _node(out, (a, b), back, "matmul")


def weighted_sum(terms, factors) -> Tensor:
    """The left fold ``((t0 * c0 + t1 * c1) + t2 * c2) + ...`` of tensors
    under numpy broadcasting, with constant, non-differentiated factors; a
    factor of 1.0 passes its term through unscaled. Each term's gradient is
    ``g * c`` summed down to its shape."""
    terms, factors = tuple(terms), tuple(map(float, factors))
    if not terms or len(terms) != len(factors):
        raise ShapeError(f"weighted_sum: {len(terms)} terms, {len(factors)} factors")
    out = None
    for t, c in zip(terms, factors):
        part = t.data if c == 1.0 else t.data * c
        try:
            out = part if out is None else out + part
        except ValueError:
            shapes = ", ".join(str(term.shape) for term in terms)
            raise ShapeError(f"weighted_sum: incompatible shapes {shapes}") from None

    def back(g):
        return tuple(
            _unbroadcast(g if c == 1.0 else g * c, t.shape)
            for t, c in zip(terms, factors)
        )

    return _node(np.asarray(out), terms, back, "weighted_sum")


def relu(a: Tensor) -> Tensor:
    """max(a, 0) with NaN and -0.0 going to +0.0, as ``np.where(a > 0, a, 0.0)``."""
    out = np.fmax(a.data, 0.0)  # fmax(0.0, a) would keep -0.0; maximum keeps NaN

    def back(g):
        return (g * (out > 0),)

    back.rectifier_input = lambda: a.data  # for checks.kink_margin
    return _node(out, (a,), back, "relu")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None

    def back(g):
        return (g.reshape(a.shape),)

    return _node(out, (a,), back, "reshape")


# numpy's reduce over a last axis this short costs more per row than the
# columns it combines, so fewer columns are folded one by one
_FOLD_COLUMNS = 8


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``; 1-7 columns folded with
    ``np.maximum`` from the first, which gives the same bits."""
    if not 0 < a.shape[-1] < _FOLD_COLUMNS:
        return a.max(axis=-1, keepdims=True)
    out = a[..., :1]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j : j + 1])
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``; 1-7 columns folded with ``np.add``
    from the first plus 0.0, as numpy's sum starts from +0.0: the same bits."""
    if not 0 < a.shape[-1] < _FOLD_COLUMNS:
        return a.sum(axis=-1, keepdims=True)
    out = a[..., :1] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j : j + 1]
    return out


def sq_frobenius(
    a: Tensor, keep: int = 0, center: np.ndarray | None = None, factor: float = 1.0
) -> Tensor:
    """``factor`` times the sum of squared entries of ``a - center`` over all
    but the first ``keep`` axes: a 0-d scalar by default, one sum per member
    when ``keep`` axes are members.

    ``center`` is a constant array that broadcasts against ``a`` and
    ``factor`` a constant; neither is differentiated. In numpy terms, with
    ``d = a - center``, the value is ``factor * sum(d * d)`` and the gradient
    ``2 * d`` times ``factor`` and the incoming gradient.
    """
    d = a.data
    if center is not None:
        try:
            d = np.subtract(d, center)
        except ValueError:
            d = None
        if d is None or d.shape != a.shape:
            raise ShapeError(
                f"sq_frobenius: center {np.shape(center)} does not broadcast "
                f"against {a.shape}"
            )
    sq = d * d
    if keep:
        out = sq.reshape(a.shape[:keep] + (-1,)).sum(axis=-1)
    else:
        out = np.asarray(sq.sum())
    c = float(factor)
    if c != 1.0:
        out = out * c

    per_member = out.shape + (1,) * (a.ndim - keep)

    def back(g):
        return (2.0 * d * (g * c).reshape(per_member),)

    return _node(out, (a,), back, "sq_frobenius")


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the row axis with keepdims: (..., R, C) -> (..., 1, C)."""
    _require_matrix("mean_rows", a)
    n = a.shape[-2]
    out = a.data.mean(axis=-2, keepdims=True)

    def back(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _node(out, (a,), back, "mean_rows")


# ---------------------------------------------------------------------------
# fused ops (keep tape graphs small on the hot path)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (..., R, K) x, (K, D) weight and (1, D) bias, either of
    them possibly a member stack."""
    return _affine("affine", None, x, w, b)


def graph_affine(adj: np.ndarray, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """adj @ x @ w + b with a constant (non-differentiated) (R, R) adjacency
    and a (..., R, K) x; w and b as in :func:`affine`."""
    return _affine("graph_affine", adj, x, w, b)


def _affine(op: str, adj: np.ndarray | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """[adj @] x @ w + b, the one body of affine and graph_affine."""
    xs, ws, bs = x.data.shape, w.data.shape, b.data.shape
    if len(xs) < 2:
        raise _not_matrix(op, xs)
    if adj is not None and (adj.ndim != 2 or adj.shape[-1] != xs[-2]):
        raise ShapeError(f"{op}: adjacency {adj.shape} vs features {xs}")
    if len(ws) < 2 or xs[-1] != ws[-2]:
        raise ShapeError(f"{op}: shapes {xs} @ {ws} + {bs}")
    _check_bias(op, b, ws[-1])
    pooled = x.data if adj is None else adj @ x.data
    try:
        out = pooled @ w.data  # + b in place, unless a stacked bias widens it
        out = out + b.data if len(bs) > 2 else np.add(out, b.data, out=out)
    except ValueError:
        raise ShapeError(f"{op}: shapes {xs} @ {ws} + {bs}") from None

    def back(g):
        gx = g @ _transposed(w.data)
        gx = gx if adj is None else adj.T @ gx
        return _unbroadcast(gx, xs), _weight_grad(pooled, g, ws), _bias_grad(g, bs)

    return _node(out, (x, w, b), back, op)


@functools.lru_cache(maxsize=16)
def _check_rows(dtype: str, shape: tuple[int, ...], data: bytes, n: int) -> None:
    """decompose's index check, once per index (given by its bytes) and n."""
    rows = np.frombuffer(data, dtype).reshape(shape)
    bad = rows.ndim != 2 or rows.min(initial=-1) < -1 or rows.max(initial=-1) >= n
    if bad or np.bincount(rows[rows >= 0]).max(initial=0) > 1:
        raise ShapeError(f"decompose: rows {rows.tolist()} not (G, W), unique in [-1, {n})")


def decompose(
    x: Tensor, rows: np.ndarray, adj: np.ndarray,
    gc_w: Tensor, gc_b: Tensor, mix_w: Tensor, mix_b: Tensor,
) -> tuple[Tensor, np.ndarray]:
    """The action decomposition as one node. A constant (G, W) ``rows``
    index lifts the (..., R, C) rows of x into G groups of W rows, xg (-1
    gives a zero padding row; no row is picked twice). Each group's rows
    are assigned to N_a slots by the row softmax of ``relu(adj @ xg @ gc_w
    + gc_b) @ mix_w + mix_b``, with a constant (G, W, W) ``adj`` and (G, K,
    D) weights as in :func:`affine`; its slots are ``assign.T @ xg``. Returns
    the (..., G * N_a, C) slots and the (..., G, W, N_a) assignment, a plain
    array. Padding rows add exact zeros to the slots and take no gradient."""
    _require_matrix("decompose", x, gc_w, mix_w)
    _check_bias("decompose", gc_b, gc_w.shape[-1])
    _check_bias("decompose", mix_b, mix_w.shape[-1])
    real = rows >= 0
    _check_rows(rows.dtype.str, rows.shape, rows.tobytes(), x.shape[-2])
    xg = np.take(x.data, rows, axis=-2)  # (..., G, W, C)
    xg[..., ~real, :] = 0.0
    try:
        pooled = adj @ xg
        pre = pooled @ gc_w.data + gc_b.data
        hidden = np.fmax(pre, 0.0)  # relu's bits
        scores = hidden @ mix_w.data + mix_b.data
        e = np.exp(scores - _row_max(scores))
        assign = e / _row_sum(e)
        out = np.swapaxes(assign, -1, -2) @ xg  # (..., G, N_a, C)
    except ValueError:
        shapes = f"{x.shape}, {adj.shape}, {gc_w.shape}, {mix_w.shape}"
        raise ShapeError(f"decompose: shapes {shapes}") from None

    def back(g):
        g = g.reshape(out.shape)
        g_assign = np.swapaxes(g @ np.swapaxes(xg, -1, -2), -1, -2)
        g_scores = assign * (g_assign - _row_sum(g_assign * assign))
        g_pre = _unbroadcast(g_scores @ _transposed(mix_w.data), hidden.shape)
        g_pre *= hidden > 0
        g_xg = _unbroadcast(assign @ g, xg.shape) + _unbroadcast(
            _transposed(adj) @ (g_pre @ _transposed(gc_w.data)), xg.shape
        )
        gx = np.zeros(x.shape)
        gx[..., rows[real], :] = g_xg[..., real, :]
        return (
            gx, _weight_grad(pooled, g_pre, gc_w.shape), _bias_grad(g_pre, gc_b.shape),
            _weight_grad(hidden, g_scores, mix_w.shape), _bias_grad(g_scores, mix_b.shape),
        )

    # the rectifier's input on the real rows, for checks.kink_margin
    back.rectifier_input = lambda: pre[..., real, :]
    features = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    return _node(features, (x, gc_w, gc_b, mix_w, mix_b), back, "decompose"), assign


def slot_weights(scores: Tensor) -> tuple[Tensor, np.ndarray]:
    """The relation weights as one node: each row's L1 mass over its (R, C)
    matrix's total, as a (..., 1, R) row per matrix. A matrix whose total is
    not positive falls back to uniform, 1 / R, and passes no gradient back;
    the (..., 1, 1) bool mask of those matrices is returned beside the
    weights as a plain array."""
    _require_matrix("slot_weights", scores)
    s = scores.data
    mass = np.abs(s).sum(axis=-1, keepdims=True)  # (..., R, 1)
    total = mass.sum(axis=-2, keepdims=True)
    fallen = total <= 0.0
    safe = np.where(fallen, 1.0, total)
    column = np.where(fallen, 1.0 / s.shape[-2], mass / safe)

    def back(g):
        g = np.swapaxes(g, -1, -2)
        dot = (g * column).sum(axis=-2, keepdims=True)
        return (np.sign(s) * np.where(fallen, 0.0, (g - dot) / safe),)

    # |.| has its kink where a score is zero, for checks.kink_margin
    back.rectifier_input = lambda: s
    return _node(np.swapaxes(column, -1, -2), (scores,), back, "slot_weights"), fallen


def _frames_front(a: np.ndarray, q: int) -> np.ndarray:
    """The (*M, T, ..., R, C) view of a (*M, ..., T, R, C) array, M q axes."""
    n = a.ndim
    return a.transpose((*range(q), n - 3, *range(q, n - 3), n - 2, n - 1))


def _frames_back(a: np.ndarray, q: int) -> np.ndarray:
    """The (*M, ..., T, R, C) view of a (*M, T, ..., R, C) array."""
    n = a.ndim
    return a.transpose((*range(q), *range(q + 1, n - 2), q, n - 2, n - 1))


@functools.lru_cache(maxsize=None)
def _tap_plan(k: int, frames: int, pad: int, t_out: int):
    """st_conv's spans (j, lo, hi, d), tap j taking input frames lo+d:hi+d to
    output frames lo:hi (d = j - pad), and its runs (j, a, c, m, add) forward
    and back: m frames from a times tap j go to m frames from c, added where
    an earlier run wrote. The full-span tap goes first: sums run in tap order."""
    spans = [(j, max(0, pad - j), min(t_out, frames + pad - j), j - pad) for j in range(k)]
    spans = [span for span in spans if span[1] < span[2]]

    def runs(moves, n):
        done, seen = [], set()
        for j, a, c, m in sorted(moves, key=lambda move: move[3] != n):
            for i in range(m):
                if done and done[-1][0] == j and done[-1][4] == (c + i in seen):
                    done[-1][3] += 1
                else:
                    done.append([j, a + i, c + i, 1, c + i in seen])
                seen.add(c + i)
        return done

    moves = [((j, lo + d, lo, hi - lo), (j, lo, lo + d, hi - lo)) for j, lo, hi, d in spans]
    return spans, runs([f for f, _ in moves], t_out), runs([b for _, b in moves], frames)


def _tap_runs(src: np.ndarray, taps: np.ndarray, runs, n: int, frames: int) -> np.ndarray:
    """A new ``frames``-frame array of member rows, n rows a frame, whose frames
    c:c+m get src's frames a:a+m @ taps[..., j, :, :] over the runs."""
    members = tuple(map(max, src.shape[:-2], taps.shape[:-3]))  # the two broadcast
    out = np.empty(members + (frames * n, taps.shape[-1]))
    for j, a, c, m, add in runs:
        part, into = src[..., a * n : (a + m) * n, :], out[..., c * n : (c + m) * n, :]
        if add:
            into += part @ taps[..., j, :, :]
        else:
            np.matmul(part, taps[..., j, :, :], out=into)
    return out


_ones = functools.lru_cache(maxsize=None)(np.ones)  # shared: never written to


def st_conv(
    adj: np.ndarray, x: Tensor, gc_w: Tensor, gc_b: Tensor, tc_w: Tensor, tc_b: Tensor,
    padding: str = "same",
) -> Tensor:
    """One backbone layer as one node: h = ``relu(adj @ x @ gc_w + gc_b)`` on
    each frame of a (..., T, R, K) input, with a constant (R', R) ``adj``,
    then output frame t = ``tc_b + sum_j h[t + j - p] @ tc_w[j]`` for a
    (k, D, E) weight of k taps. ``"same"`` pads p = k // 2 zero frames on
    each side and keeps T frames; ``"valid"`` pads none and keeps T - k + 1.
    A weight or bias may be a (P, 1..., K, D) or (P, 1..., 1, D) member
    stack, with one singleton per axis of x before its last two; the taps'
    stack is (P, 1..., k, D, E), the tap axis standing in for the frames.

    Inside, each array has its frame axis after the member axes a weight
    varies along, (*M, T, ..., R, C), frame-major without members: a member's
    rows are one block, which meets a weight in one product, forward and
    back. The output and the gradient of x are batch-major views of those
    buffers, so two layers hand over their data without a copy.
    """
    xs, gws, gbs = x.data.shape, gc_w.data.shape, gc_b.data.shape
    tws, tbs = tc_w.data.shape, tc_b.data.shape
    if len(xs) < 3:
        raise ShapeError(f"st_conv: expected (..., T, R, K) input, got {xs}")
    if adj.ndim != 2 or adj.shape[1] != xs[-2]:
        raise ShapeError(f"st_conv: adjacency {adj.shape} vs features {xs}")
    if len(gws) < 2 or xs[-1] != gws[-2]:
        raise ShapeError(f"st_conv: shapes {xs} @ {gws} + {gbs}")
    _check_bias("st_conv", gc_b, gws[-1])
    if padding not in ("same", "valid"):
        raise ValueError(f"st_conv: padding must be 'same' or 'valid', got {padding!r}")
    if len(tws) < 3 or tws[-3] < 1:
        raise ShapeError(
            f"st_conv: temporal weight shape {tws}, expected (k, D, E) or "
            "(P, 1..., k, D, E) with k >= 1"
        )
    if tws[-2] != gws[-1]:
        raise ShapeError(f"st_conv: temporal weight {tws} vs graph weight {gws}")
    _check_bias("st_conv", tc_b, tws[-1])
    k, frames = tws[-3], xs[-3]
    pad = k // 2 if padding == "same" else 0
    t_out = frames + 2 * pad - k + 1
    if t_out < 1:
        raise ShapeError(f"st_conv: {k} taps exceed {frames} frames")
    lead, q, aligned = xs[:-3], 0, [()] * 4
    gw, gb, w, tb = gc_w.data, gc_b.data, tc_w.data, tc_b.data
    stacked = [s for s in (gws, gbs, tbs) if len(s) > 2]
    if stacked or len(tws) > 3:
        try:
            if any(s[-3] != 1 for s in stacked):
                raise ValueError
            lead = np.broadcast_shapes(lead, tws[:-3], *(s[:-3] for s in stacked))
        except ValueError:
            raise ShapeError(
                f"st_conv: member axes of {gws}, {gbs}, {tws} or {tbs} vs features {xs}"
            ) from None
        # q member axes, the leading batch axes a weight or bias varies along
        aligned = [((1,) * len(lead) + s[:-3])[len(s[:-3]) :] for s in (gws, gbs, tws, tbs)]
        q = max([i + 1 for axes in aligned for i, n in enumerate(axes) if n > 1], default=0)
        cores = (gws[-2:], gbs[-2:], tws[-3:], tbs[-2:])
        gw, gb, w, tb = (
            p.reshape(axes[:q] + core) for p, axes, core in zip((gw, gb, w, tb), aligned, cores)
        )

    # x with a singleton for each member axis only a weight has, as (*M, T, ..., R, K)
    xf = x.data.reshape((1,) * (len(lead) + 3 - len(xs)) + xs)
    xf = _frames_front(xf, q)
    pooled = adj @ xf
    rest = pooled.shape[q + 1 : -1]  # the batch axes after the members, and the rows
    pooled = pooled.reshape(pooled.shape[:q] + (-1, xs[-1]))
    pre = pooled @ gw
    if not any(t.requires_grad or t._needs for t in (x, gc_w, gc_b, tc_w, tc_b)):
        del pooled  # no tape will read it: free it before the taps run
    pre = pre + gb if gb.ndim > 2 else np.add(pre, gb, out=pre)
    hidden = np.fmax(pre, 0.0, out=pre)  # relu's bits: NaN and -0.0 go to +0.0
    spans, runs, back_runs = _tap_plan(k, frames, pad, t_out)
    n = hidden.shape[-2] // frames  # rows per frame
    out = _tap_runs(hidden, w, runs, n, t_out)
    out = out + tb if tb.ndim > 2 else np.add(out, tb, out=out)

    def back(g):
        gf = _frames_front(g, q)
        gf = gf.reshape(gf.shape[:q] + (-1, tws[-1]))
        w_t = np.ascontiguousarray(np.swapaxes(w, -1, -2))
        g_pre = _unbroadcast(_tap_runs(gf, w_t, back_runs, n, frames), hidden.shape)
        np.multiply(g_pre, hidden > 0, out=g_pre)
        gx = None
        if x.requires_grad or x._needs:  # not for constant input features
            y = g_pre @ _transposed(gw)
            y = adj.T @ y.reshape(y.shape[:q] + (frames,) + rest + xs[-1:])
            gx = _frames_back(_unbroadcast(y, xf.shape), q).reshape(xs)
        g_tw = np.zeros(gf.shape[:-2] + tws[-3:])
        for j, lo, hi, d in spans:
            h = hidden[..., (lo + d) * n : (hi + d) * n, :].swapaxes(-1, -2)
            np.matmul(h, gf[..., lo * n : hi * n, :], out=g_tw[..., j, :, :])
        grads = (
            pooled.swapaxes(-1, -2) @ g_pre, _ones(g_pre.shape[-2]) @ g_pre,
            g_tw, _ones(gf.shape[-2]) @ gf,
        )
        return (gx,) + tuple(
            _unbroadcast(r, axes[:q] + r.shape[q:]).reshape(shape)
            for r, axes, shape in zip(grads, aligned, (gws, gbs, tws, tbs))
        )

    # the rectifier's input, as the forward computed it, for checks.kink_margin
    back.rectifier_input = lambda: pooled @ gw + gb
    out = _frames_back(out.reshape(out.shape[:q] + (t_out,) + rest + tws[-1:]), q)
    return _node(out, (x, gc_w, gc_b, tc_w, tc_b), back, "st_conv")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of (..., N, K) logits against integer
    labels of shape (..., N), over every axis of the labels.

    Logit axes before those are member axes, each member getting its own
    mean: (P, N, K) logits and (N,) labels give P values.
    """
    data, shape = logits.data, logits.data.shape
    if len(shape) < 2:
        raise _not_matrix("cross_entropy", shape)
    y = np.asarray(labels)
    m = len(shape) - 1 - y.ndim
    if y.ndim < 1 or m < 0 or y.shape != shape[m:-1]:
        raise ShapeError(f"cross_entropy: labels shape {y.shape} vs logits {shape}")
    members = shape[:m]
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("cross_entropy: labels must be integers")
    k = shape[-1]
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    n = y.size
    z = data - data.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    picked = log_probs.reshape(-1, n, k)[:, np.arange(n), y.reshape(n)]
    out = (-(picked.sum(axis=-1) / n)).reshape(members)

    def back(g):
        onehot = np.arange(k) == y[..., None]
        per_member = (g / n).reshape(members + (1,) * (y.ndim + 1))
        return ((np.exp(log_probs) - onehot) * per_member,)

    return _node(out, (logits,), back, "cross_entropy")


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckResult:
    """Outcome of one central-difference gradient check."""

    max_rel_err: float
    passed: bool
    n_coords: int
    worst_coord: tuple[int, ...] | None = None
    failure: str | None = None

    @classmethod
    def failed(cls, n_coords: int, failure: str, coord=None) -> GradCheckResult:
        """A check that failed before any finite error could be measured."""
        return cls(np.inf, False, n_coords, coord, failure)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        detail = f"max_rel_err={self.max_rel_err:.3e}"
        if self.failure:
            detail += f" ({self.failure})"
        return f"{status} {detail}"


def grad_check(
    f, x: Tensor, h: float = 1e-5, tol: float = 1e-4, stacked=None, readout=None
) -> GradCheckResult:
    """Compare the tape gradient of ``f`` at ``x`` to central differences, by
    one backward and then :func:`compare_gradient`, which takes the probe
    values from ``stacked`` when given and from the reference loop over
    ``f`` otherwise. ``f`` is scalar-valued, or, given a ``readout`` array
    of its output's shape, checked through the scalar ``sum(f(x) *
    readout)``: the readout is the backward's seed."""
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    was_leaf = x.requires_grad
    x.requires_grad = True
    saved_grad = x.grad
    x.grad = None
    try:
        backward(f(x), readout)
        analytic = x.grad
    finally:
        x.grad = saved_grad
        x.requires_grad = was_leaf
    return compare_gradient(
        f, x, analytic, h=h, tol=tol, stacked=stacked, readout=readout
    )


def compare_gradient(
    f, x: Tensor, analytic, h: float, tol: float, stacked=None, readout=None
) -> GradCheckResult:
    """Compare ``analytic``, the tape gradient at ``x`` (None for zero) of
    scalar-valued ``f``, or of ``sum(f(x) * readout)`` given a ``readout``
    array of ``f``'s output shape, to central differences ``(f(x + h e_i) -
    f(x - h e_i)) / 2h`` of that scalar.

    By default each coordinate in turn is moved to ``x_i + h`` and
    ``x_i - h`` in place and ``f(x)`` evaluated, then restored: the
    reference loop, which a plain :func:`grad_check` uses. ``stacked``, when
    given, takes all 2n probes at once as one ``(2n, *x.shape)`` stack,
    member 2i being ``x + h e_i`` and member 2i + 1 ``x - h e_i``, and
    returns their 2n scalar values from one evaluation, such as an op or a
    forward whose operand carries the stack on a leading member axis; each
    value must be the one the loop would give, and any result other than
    ``(2n,)`` values is a :class:`ShapeError`. The battery in ``checks``
    runs its op, loss and model entries stacked.

    Relative error per coordinate is ``|a - n|`` over one floor per tensor,
    ``min(1, max(max|a|, max|n|, 64 eps max|f| / (h tol)))``: a small
    gradient is judged against the tensor's largest, never more loosely
    than against 1, and the last term, the central differences' round-off
    in the values f, keeps an exactly-zero gradient from failing on noise.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    n = x.data.size

    def non_finite(finite: np.ndarray, what: str) -> GradCheckResult:
        coord = np.unravel_index(int(np.argmin(finite)), x.shape)
        return GradCheckResult.failed(n, f"non-finite {what} at {coord}", coord)

    if analytic is None:
        analytic = np.zeros_like(x.data)
    if not np.all(np.isfinite(analytic)):
        return non_finite(np.isfinite(analytic), "analytic gradient")

    def value() -> float:
        y = f(x).data
        return float(y if readout is None else (y * readout).sum())

    values = np.empty(2 * n)
    if stacked is not None:
        probes = np.repeat(x.data.reshape(1, n), 2 * n, axis=0)
        coords = np.arange(n)
        probes[2 * coords, coords] += h
        probes[2 * coords + 1, coords] -= h
        got = stacked(probes.reshape((2 * n,) + x.shape))
        if np.shape(got) != (2 * n,):
            raise ShapeError(
                f"compare_gradient: stacked must return {(2 * n,)} values, "
                f"got shape {np.shape(got)}"
            )
        values[:] = got
    else:
        for i, coord in enumerate(np.ndindex(x.shape)):
            original = x.data[coord]
            try:
                x.data[coord] = original + h
                values[2 * i] = value()
                x.data[coord] = original - h
                values[2 * i + 1] = value()
            finally:
                x.data[coord] = original
    fp, fm = values[0::2], values[1::2]
    finite = np.isfinite(fp) & np.isfinite(fm)
    if not finite.all():
        return non_finite(finite, "finite-difference value")
    numeric = ((fp - fm) / (2.0 * h)).reshape(x.shape)

    noise = 64.0 * np.finfo(np.float64).eps * np.abs(values).max() / (h * tol)
    floor = min(1.0, max(np.abs(analytic).max(), np.abs(numeric).max(), noise))
    # an all-zero tensor has nothing to compare: its error is 0, not 0 / 0
    rel = np.abs(analytic - numeric) / (floor or 1.0)
    worst = int(np.argmax(rel))
    max_rel = float(rel.reshape(-1)[worst])
    return GradCheckResult(
        max_rel_err=max_rel,
        passed=max_rel <= tol,
        n_coords=n,
        worst_coord=np.unravel_index(worst, x.shape) if n else None,
    )
