"""The bits of canonical reports, pinned as data in tests/data/pins.json.

A change that moves one bit of a trained model's report fails here, naming
each pin that moved and its new value. OpenBLAS is built with
DYNAMIC_ARCH, so another CPU core, or another python or numpy, may give
other bits: on a stack whose fingerprint differs from the one the pins were
made on, the test skips and names both fingerprints. It never passes on a
stack it cannot vouch for.
"""

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from megraph.config import ExperimentConfig, OptimizerConfig
from megraph.model import ModelConfig
from megraph.training import run_loso, run_training

PINS = Path(__file__).parent / "data" / "pins.json"
RUNS = {"run_loso": run_loso, "run_training": run_training}


def openblas_config() -> str | None:
    """The loaded OpenBLAS's own description, naming the core it runs on,
    or None when numpy's OpenBLAS cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(ln.split()[-1] for ln in fh if "libscipy_openblas64_" in ln)
        get = ctypes.CDLL(path).scipy_openblas_get_config64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.restype = ctypes.c_char_p
    return get().decode()


def stack() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas_config(),
    }


def digest(run) -> str:
    return hashlib.sha256(json.dumps(run.canonical(), sort_keys=True).encode()).hexdigest()


def test_canonical_reports_keep_their_pinned_bits():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    here = stack()
    if here != pinned["stack"]:
        pytest.skip(f"pins were made on {pinned['stack']}; this stack is {here}")
    moved = []
    for name, want in pinned["pins"].items():
        kind, variant, seed = name.split(".")
        cfg = ExperimentConfig(
            model=ModelConfig(variant=variant),
            optimizer=OptimizerConfig(epochs=3),
            seed=int(seed.removeprefix("seed")),
        )
        got = digest(RUNS[kind](cfg))
        if got != want:
            moved.append(f"{name}: {want} -> {got}")
    if moved:
        pytest.fail("pins moved:\n" + "\n".join(moved))
