"""Dense float64 tensors with reverse-mode differentiation.

A small tape: every operation computes its value with numpy and records a
closure mapping the output gradient back to parent gradients. Graphs are
plain DAGs of :class:`Tensor` nodes which `backward` walks once in reverse
topological order. Scalars are 0-d tensors. Every other op works on arrays
of shape ``(..., R, C)``: the last two axes are one sample's matrix, any
leading axes are batch axes, and the one-sample 2-d case is the same code
path. Where a 2-d operand (a weight, a bias, a constant adjacency) meets a
batched one, its gradient is summed over the batch axes.

Each node records whether any parent needs a gradient; `backward` walks
only those nodes, so constant inputs (keyframes, loss centers) cost
nothing on the way back.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "tensor",
    "constant",
    "backward",
    "grad_check",
    "GradCheckResult",
    "finite_checks",
    "set_check_finite",
    "matmul",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "transpose",
    "reshape",
    "concat_rows",
    "slice_rows",
    "softmax_rows",
    "l1_rowsum",
    "normalize_columns",
    "sq_frobenius",
    "sum_all",
    "mean_rows",
    "affine",
    "graph_affine",
    "temporal_conv",
    "cross_entropy",
]


class ShapeError(ValueError):
    """Operands do not satisfy an op's shape contract."""


_CHECK_FINITE = False


def set_check_finite(enabled: bool) -> bool:
    """Toggle NaN/Inf checking after every op. Returns the previous setting."""
    global _CHECK_FINITE
    previous = _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)
    return previous


@contextlib.contextmanager
def finite_checks():
    """Context manager that enables the per-op NaN/Inf check."""
    previous = set_check_finite(True)
    try:
        yield
    finally:
        set_check_finite(previous)


class Tensor:
    """Array value plus an optional gradient accumulator.

    Leaves created with ``requires_grad=True`` accumulate gradients across
    ``backward`` calls until :meth:`zero_grad`. Interior nodes hold the
    gradient of the most recent backward pass, for inspection, when some
    leaf below them requires one. ``op`` names the operation that made an
    interior node ("" for leaves).
    """

    __slots__ = (
        "data", "grad", "requires_grad", "op", "_needs", "_parents", "_backward"
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = ""
        self._needs = False
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

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
    out._needs = any(p.requires_grad or p._needs for p in parents)
    out._parents = parents
    out._backward = back
    if _CHECK_FINITE and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"{op or 'op'} produced a non-finite value")
    return out


def _require_matrix(op: str, *tensors: Tensor) -> None:
    for t in tensors:
        if t.data.ndim < 2:
            raise ShapeError(f"{op}: expected a (..., R, C) tensor, got shape {t.shape}")


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._needs


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    Only nodes that lead to a ``requires_grad`` leaf are visited. Gradients
    of ``requires_grad`` leaves accumulate across calls; interior nodes are
    overwritten with this call's gradient.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not _needs_grad(loss):
        return

    # Iterative post-order DFS; `seen` marks first visit so each node is
    # appended exactly once, after all of its parents' subtrees.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and _needs_grad(parent):
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not _needs_grad(parent):
                continue
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg

    for node in topo:
        g = grads.get(id(node))
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        else:
            node.grad = g


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


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x^T g summed over the batch axes: the gradient of a 2-d weight."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """g summed over every axis but the last: the gradient of a (1, D) bias."""
    return g.reshape(-1, g.shape[-1]).sum(axis=0, keepdims=True)


def _check_bias(op: str, b: Tensor, d: int) -> None:
    if b.shape != (1, d):
        raise ShapeError(f"{op}: bias shape {b.shape}, expected (1, {d})")


# ---------------------------------------------------------------------------
# elementwise and structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading axes broadcast as in ``np.matmul``."""
    _require_matrix("matmul", a, b)
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(
            f"matmul: batch axes of {a.shape} and {b.shape} differ"
        ) from None

    def back(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.ndim == 2:
            gb = _weight_grad(a.data, g)
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _node(out, (a, b), back, "matmul")


def _pairwise(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _pairwise("add", np.add, a, b)

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), back, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _pairwise("sub", np.subtract, a, b)

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), back, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _pairwise("mul", np.multiply, a, b)

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), back, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _pairwise("div", np.divide, a, b)

    def back(g):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _node(out, (a, b), back, "div")


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a non-differentiated python constant."""
    c = float(factor)
    out = a.data * c

    def back(g):
        return (g * c,)

    return _node(out, (a,), back, "scale")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = np.where(mask, a.data, 0.0)

    def back(g):
        return (g * mask,)

    return _node(out, (a,), back, "relu")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    _require_matrix("transpose", a)
    out = np.swapaxes(a.data, -1, -2)

    def back(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(out, (a,), back, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from None

    def back(g):
        return (g.reshape(a.shape),)

    return _node(out, (a,), back, "reshape")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Join along the row axis (-2); batch axes and columns must match."""
    if not parts:
        raise ShapeError("concat_rows: need at least one tensor")
    _require_matrix("concat_rows", *parts)
    first = parts[0].shape
    for p in parts:
        if p.shape[:-2] != first[:-2] or p.shape[-1] != first[-1]:
            raise ShapeError(f"concat_rows: shape {p.shape} does not stack on {first}")
    boundaries = np.cumsum([p.shape[-2] for p in parts])[:-1]
    out = np.concatenate([p.data for p in parts], axis=-2)

    def back(g):
        return tuple(np.split(g, boundaries, axis=-2))

    return _node(out, tuple(parts), back, "concat_rows")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of the row axis (-2)."""
    _require_matrix("slice_rows", a)
    if not (0 <= start < stop <= a.shape[-2]):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    out = a.data[..., start:stop, :]

    def back(g):
        full = np.zeros_like(a.data)
        full[..., start:stop, :] = g
        return (full,)

    return _node(out, (a,), back, "slice_rows")


def softmax_rows(a: Tensor) -> Tensor:
    _require_matrix("softmax_rows", a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), back, "softmax_rows")


def l1_rowsum(a: Tensor) -> Tensor:
    """Row-wise L1 norm: (..., R, C) -> (..., R, 1)."""
    _require_matrix("l1_rowsum", a)
    out = np.abs(a.data).sum(axis=-1, keepdims=True)

    def back(g):
        return (np.sign(a.data) * g,)

    return _node(out, (a,), back, "l1_rowsum")


def normalize_columns(a: Tensor) -> Tensor:
    """Scale each column of every (R, C) matrix to sum 1 over its rows.

    A column whose sum is not positive becomes uniform, 1 / R, and passes
    no gradient back; the others are ``a / sum``.
    """
    _require_matrix("normalize_columns", a)
    total = a.data.sum(axis=-2, keepdims=True)
    dead = total <= 0.0
    safe = np.where(dead, 1.0, total)
    out = np.where(dead, 1.0 / a.shape[-2], a.data / safe)

    def back(g):
        dot = (g * out).sum(axis=-2, keepdims=True)
        return (np.where(dead, 0.0, (g - dot) / safe),)

    return _node(out, (a,), back, "normalize_columns")


def sq_frobenius(a: Tensor) -> Tensor:
    """Sum of squared entries, as a 0-d scalar."""
    out = np.asarray((a.data * a.data).sum())

    def back(g):
        return (2.0 * a.data * g,)

    return _node(out, (a,), back, "sq_frobenius")


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def back(g):
        return (np.broadcast_to(g, a.shape).astype(np.float64),)

    return _node(out, (a,), back, "sum_all")


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
    """x @ w + b for (..., R, K) x, (K, D) weight and (1, D) bias."""
    _require_matrix("affine", x)
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: shapes {x.shape} @ {w.shape} + {b.shape}")
    _check_bias("affine", b, w.shape[1])
    out = x.data @ w.data + b.data

    def back(g):
        return g @ w.data.T, _weight_grad(x.data, g), _bias_grad(g)

    return _node(out, (x, w, b), back, "affine")


def graph_affine(adj: np.ndarray, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """adj @ x @ w + b with a constant (non-differentiated) (R, R) adjacency
    shared by every matrix of a (..., R, K) x."""
    _require_matrix("graph_affine", x)
    if adj.ndim != 2 or adj.shape[1] != x.shape[-2]:
        raise ShapeError(f"graph_affine: adjacency {adj.shape} vs features {x.shape}")
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"graph_affine: shapes {x.shape} @ {w.shape} + {b.shape}")
    _check_bias("graph_affine", b, w.shape[1])
    pooled = adj @ x.data
    out = pooled @ w.data + b.data

    def back(g):
        return adj.T @ (g @ w.data.T), _weight_grad(pooled, g), _bias_grad(g)

    return _node(out, (x, w, b), back, "graph_affine")


def temporal_conv(
    x: Tensor, taps: Sequence[Tensor], b: Tensor, padding: str = "same"
) -> Tensor:
    """Convolution along the frame axis of a (..., T, R, K) input.

    Output frame t is ``b + sum_k x[t + k - p] @ taps[k]`` with (K, D) taps.
    ``"same"`` pads p = len(taps) // 2 zero frames on each side and keeps T
    frames; ``"valid"`` pads none and keeps T - len(taps) + 1.
    """
    if x.ndim < 3:
        raise ShapeError(f"temporal_conv: expected (..., T, R, K) input, got {x.shape}")
    if padding not in ("same", "valid"):
        raise ValueError(
            f"temporal_conv: padding must be 'same' or 'valid', got {padding!r}"
        )
    k = len(taps)
    if k == 0 or any(w.ndim != 2 or w.shape != taps[0].shape for w in taps):
        raise ShapeError("temporal_conv: need non-empty, equally shaped 2-d taps")
    if taps[0].shape[0] != x.shape[-1]:
        raise ShapeError(f"temporal_conv: taps {taps[0].shape} vs features {x.shape}")
    _check_bias("temporal_conv", b, taps[0].shape[1])
    frames = x.shape[-3]
    pad = k // 2 if padding == "same" else 0
    t_out = frames + 2 * pad - k + 1
    if t_out < 1:
        raise ShapeError(f"temporal_conv: {k} taps exceed {frames} frames")
    # tap j maps input frames lo+d:hi+d onto output frames lo:hi, d = j - pad;
    # the zero padding frames are never materialized
    spans = []
    for j in range(k):
        d = j - pad
        spans.append((max(0, -d), min(t_out, frames - d), d))
    out = np.zeros(x.shape[:-3] + (t_out, x.shape[-2], b.shape[1]))
    for (lo, hi, d), w in zip(spans, taps):
        if lo < hi:
            out[..., lo:hi, :, :] += x.data[..., lo + d : hi + d, :, :] @ w.data
    out += b.data

    def back(g):
        gx = np.zeros_like(x.data)
        gws = []
        for (lo, hi, d), w in zip(spans, taps):
            if lo >= hi:
                gws.append(np.zeros_like(w.data))
                continue
            g_span = g[..., lo:hi, :, :]
            gx[..., lo + d : hi + d, :, :] += g_span @ w.data.T
            gws.append(_weight_grad(x.data[..., lo + d : hi + d, :, :], g_span))
        return (gx, *gws, _bias_grad(g))

    return _node(out, (x, *taps, b), back, "temporal_conv")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of (..., N, K) logits against integer
    labels of shape (..., N)."""
    _require_matrix("cross_entropy", logits)
    y = np.asarray(labels)
    if y.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: labels shape {y.shape} vs logits {logits.shape}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("cross_entropy: labels must be integers")
    k = logits.shape[-1]
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"cross_entropy: label out of range [0, {k})")
    n = y.size
    picks = y[..., None]
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = np.asarray(-np.take_along_axis(log_probs, picks, axis=-1).mean())

    def back(g):
        onehot = np.arange(k) == picks
        return ((np.exp(log_probs) - onehot) * (g / n),)

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

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        detail = f"max_rel_err={self.max_rel_err:.3e}"
        if self.failure:
            detail += f" ({self.failure})"
        return f"{status} {detail}"


def grad_check(f, x: Tensor, h: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare the tape gradient of scalar-valued ``f`` at ``x`` to central
    differences ``(f(x + h e_i) - f(x - h e_i)) / 2h``.

    Relative error per coordinate is ``|a - n| / max(|a|, |n|, 1)``; the floor
    keeps near-zero gradients from inflating rounding noise.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    was_leaf = x.requires_grad
    x.requires_grad = True
    saved_grad = x.grad
    x.grad = None
    try:
        out = f(x)
        if out.data.size != 1:
            raise ShapeError(f"grad_check: f must be scalar-valued, got {out.shape}")
        backward(out)
        analytic = (
            np.zeros_like(x.data) if x.grad is None else np.array(x.grad, copy=True)
        )
    finally:
        x.grad = saved_grad
        x.requires_grad = was_leaf

    if not np.all(np.isfinite(analytic)):
        bad = np.unravel_index(int(np.argmin(np.isfinite(analytic))), x.shape)
        return GradCheckResult(
            max_rel_err=np.inf,
            passed=False,
            n_coords=x.data.size,
            worst_coord=bad,
            failure=f"non-finite analytic gradient at {bad}",
        )

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + h
        fp = float(f(x).data)
        flat[i] = original - h
        fm = float(f(x).data)
        flat[i] = original
        if not (np.isfinite(fp) and np.isfinite(fm)):
            coord = np.unravel_index(i, x.shape)
            return GradCheckResult(
                max_rel_err=np.inf,
                passed=False,
                n_coords=flat.size,
                worst_coord=coord,
                failure=f"non-finite finite-difference value at {coord}",
            )
        num_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    max_rel = float(rel.reshape(-1)[worst])
    return GradCheckResult(
        max_rel_err=max_rel,
        passed=max_rel <= tol,
        n_coords=flat.size,
        worst_coord=np.unravel_index(worst, x.shape) if flat.size else None,
    )
