"""Named trainable parameters, SGD with momentum, and checkpoint I/O."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor

CHECKPOINT_FORMAT = "megraph-params-v1"


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Fan-in/fan-out scaled uniform init for 2-d weights."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class ParamStore:
    """Registry of named parameter tensors plus per-parameter velocity.

    Names are unique and shapes are fixed at creation; iteration follows
    insertion order, which keeps optimizer updates deterministic.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._velocity: dict[str, np.ndarray] = {}

    def create(
        self,
        name: str,
        shape: tuple[int, ...],
        rng: np.random.Generator | None = None,
        init: str = "glorot",
    ) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter '{name}' already exists")
        if init == "glorot":
            if rng is None:
                raise ValueError("glorot init needs an rng")
            data = glorot_uniform(rng, shape)
        elif init == "zeros":
            data = np.zeros(shape)
        else:
            raise ValueError(f"unknown init '{init}'")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def n_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(
                f"parameter name mismatch: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        for name, values in state.items():
            target = self._params[name]
            values = np.asarray(values, dtype=np.float64)
            if values.shape != target.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': checkpoint {values.shape}, "
                    f"expected {target.data.shape}"
                )
            target.data = values.copy()


def write_checkpoint(state: dict[str, np.ndarray], path) -> None:
    """Write name -> array values as JSON; floats round-trip exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "params": {
            name: {
                "shape": list(np.asarray(values).shape),
                "values": np.asarray(values).ravel().tolist(),
            }
            for name, values in state.items()
        },
    }
    Path(path).write_text(json.dumps(payload))


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a :func:`write_checkpoint` file. A malformed file raises
    ValueError naming the path, and the entry where there is one."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a parameter checkpoint: {path}")
    if not isinstance(payload.get("params"), dict):
        raise ValueError(f"{path}: checkpoint has no 'params' object")
    return {
        name: _checkpoint_entry(entry, f"{path}: checkpoint entry '{name}'")
        for name, entry in payload["params"].items()
    }


def _checkpoint_entry(entry, where: str) -> np.ndarray:
    if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
        raise ValueError(f"{where} needs 'shape' and 'values'")
    shape = entry["shape"]
    if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"{where}: shape must be a list of non-negative integers")
    try:
        values = np.asarray(entry["values"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: values must be a list of numbers") from None
    if values.size != math.prod(shape):
        raise ValueError(f"{where}: {values.size} values do not fill shape {shape}")
    return values.reshape(shape)


def sgd_step(store: ParamStore, lr: float, momentum: float = 0.0) -> None:
    """p <- p - lr * v with v <- momentum * v + grad; zeroes grads afterwards."""
    for name, p in store.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"sgd_step: non-finite gradient for parameter '{name}'"
            )
        v = store._velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = momentum * v + g
        store._velocity[name] = v
        p.data = p.data - lr * v
        p.grad = None
