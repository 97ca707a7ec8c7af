"""The bits of canonical reports and of one training step, pinned as data
in tests/data/pins.json.

A change that moves one bit of a trained model's report, or of a default
step's logits, loss values or parameter gradients, fails here, naming each
pin that moved and its new value. OpenBLAS is built with
DYNAMIC_ARCH, so another CPU core, or another python or numpy, may give
other bits: on a stack whose fingerprint differs from the one the pins were
made on, the test skips and names both fingerprints. It never passes on a
stack it cannot vouch for.
"""

import ctypes
import hashlib
import json
import platform
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from megraph import autodiff as ad
from megraph.config import ExperimentConfig, OptimizerConfig
from megraph.landmarks import synthesize_dataset
from megraph.losses import LossWeights, WeightCenterTable, for_variant, total_loss
from megraph.model import ActionRelationNet, ModelConfig
from megraph.training import CURVE_COLUMNS, run_loso, run_training, sample_graph

PINS = Path(__file__).parent / "data" / "pins.json"


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


def run_digest(run_fn, variant: str, seed: int) -> str:
    """sha256 of the canonical report of a 3-epoch default ``run_fn`` run."""
    cfg = ExperimentConfig(
        model=ModelConfig(variant=variant),
        optimizer=OptimizerConfig(epochs=3),
        seed=seed,
    )
    canonical = json.dumps(run_fn(cfg).canonical(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def step_digest(variant: str, seed: int) -> str:
    """sha256 over the uint64 bits of one default step on the first 16
    default synthetic samples: the logits, the loss values in CURVE_COLUMNS
    order, then every parameter gradient in store order."""
    samples = synthesize_dataset()[:16]
    model = ActionRelationNet(ModelConfig(variant=variant), seed=seed)
    weights = for_variant(LossWeights(), variant)
    table = WeightCenterTable(5, 9, rate=0.5) if weights.weight_center else None
    result = model.forward(sample_graph(samples, 3.0))
    breakdown = total_loss(result, samples.labels, weights, table, update_table=True)
    ad.backward(breakdown.total)
    values = breakdown.as_dict()
    arrays = [result.logits.data, [values[c] for c in CURVE_COLUMNS if c != "step"]]
    arrays += [p.grad for _, p in model.params.items()]
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes())
    return h.hexdigest()


DIGESTS = {
    "run_loso": partial(run_digest, run_loso),
    "run_training": partial(run_digest, run_training),
    "step": step_digest,
}


def test_canonical_reports_keep_their_pinned_bits():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    here = stack()
    if here != pinned["stack"]:
        pytest.skip(f"pins were made on {pinned['stack']}; this stack is {here}")
    moved = []
    for name, want in pinned["pins"].items():
        kind, variant, seed = name.split(".")
        got = DIGESTS[kind](variant, int(seed.removeprefix("seed")))
        if got != want:
            moved.append(f"{name}: {want} -> {got}")
    if moved:
        pytest.fail("pins moved:\n" + "\n".join(moved))
