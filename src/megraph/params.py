"""Named trainable parameters, SGD with momentum, and checkpoint I/O."""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .autodiff import Tensor
from .files import atomic_write_text, decode_float64, encode_float64, read_json

CHECKPOINT_FORMAT = "megraph-params-v2"


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fan-in/fan-out scaled uniform init for 2-d weights."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParamStore:
    """Registry of named parameter tensors over one flat value vector.

    Names are unique and shapes are fixed at creation; iteration follows
    insertion order, which keeps optimizer updates deterministic. Each
    ``.data`` is a view into one float64 vector, kept in that order.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._views: list[np.ndarray] = []  # the .data each parameter holds
        self._flat, self._velocity = np.zeros(0), np.zeros(0)

    def create_many(self, specs) -> list[Tensor]:
        """Create one parameter per ``(name, initial array)`` pair, in order,
        and grow the vectors once."""
        new: dict[str, Tensor] = {}
        for name, init in specs:
            if name in self._params or name in new:
                raise ValueError(f"parameter '{name}' already exists")
            new[name] = Tensor(init, requires_grad=True)
        grown = [t.data.ravel() for t in new.values()]
        self._flat = np.concatenate([self.flat(), *grown])
        self._velocity = np.concatenate([self._velocity, np.zeros(sum(map(len, grown)))])
        self._params.update(new)
        self._views, start = [], 0
        for p in self._params.values():
            self._views.append(self._flat[start : start + p.data.size].reshape(p.shape))
            start += p.data.size
            p.data = self._views[-1]
        return list(new.values())

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def flat(self) -> np.ndarray:
        """The value vector. A ``.data`` rebound to a same-shaped array is
        copied into it and viewed again; any other shape is a ValueError."""
        for (name, p), view in zip(self._params.items(), self._views):
            if p.data is not view:
                if np.shape(p.data) != view.shape:
                    raise ValueError(
                        f"parameter '{name}' has shape {np.shape(p.data)}, "
                        f"expected {view.shape}"
                    )
                view[...], p.data = p.data, view
        return self._flat

    def n_values(self) -> int:
        return self._flat.size

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    @contextmanager
    def frozen(self):
        """Switch every parameter's ``requires_grad`` off inside the block, so
        a forward there records no tape; the flags come back on the way out."""
        params = list(self._params.values())
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the value vector once every entry checks out."""
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(
                f"parameter name mismatch: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        checked = [np.asarray(state[name], dtype=np.float64) for name in self._params]
        for name, values, view in zip(self._params, checked, self._views):
            if values.shape != view.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': checkpoint {values.shape}, "
                    f"expected {view.shape}"
                )
        for p, view, values in zip(self._params.values(), self._views, checked):
            view[...], p.data = values, view


def write_checkpoint(state: dict[str, np.ndarray], path) -> None:
    """Write name -> array values as JSON, each array as the base64 of its
    C-order little-endian float64 bytes, so values round-trip exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "params": {
            name: {
                "shape": list(np.shape(values)),
                "values": encode_float64(values),
            }
            for name, values in state.items()
        },
    }
    atomic_write_text(path, json.dumps(payload))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a :func:`write_checkpoint` file. Any other ``format``, or a
    malformed file, raises ValueError naming the path, and the entry if any."""
    payload = read_json(path)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        found = f" (format {fmt!r})" if isinstance(fmt, str) else ""
        raise ValueError(f"not a parameter checkpoint: {path}{found}")
    if not isinstance(payload.get("params"), dict):
        raise ValueError(f"{path}: checkpoint has no 'params' object")
    return {
        name: _checkpoint_entry(entry, f"{path}: checkpoint entry {name!r}")
        for name, entry in payload["params"].items()
    }


def _checkpoint_entry(entry, where: str) -> np.ndarray:
    if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
        raise ValueError(f"{where} needs 'shape' and 'values'")
    shape = entry["shape"]
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"{where}: shape must be a list of non-negative integers")
    # a copy: callers get writable arrays, not read-only views of the bytes
    values = decode_float64(entry["values"], shape, where).copy()
    if not np.isfinite(values).all():
        raise ValueError(f"{where}: values must be finite")
    return values


def sgd_step(store: ParamStore, lr: float, momentum: float = 0.0) -> None:
    """p <- p - lr * v with v <- momentum * v + grad, as in-place updates of
    the store's value and velocity vectors; zeroes grads afterwards."""
    flat, params = store.flat(), store._params.values()
    g = np.concatenate(
        [np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in params]
    )
    if not np.isfinite(g).all():
        for name, p in store.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise FloatingPointError(
                    f"sgd_step: non-finite gradient for parameter '{name}'"
                )
    store._velocity *= momentum
    store._velocity += g
    flat -= lr * store._velocity
    store.zero_grad()
