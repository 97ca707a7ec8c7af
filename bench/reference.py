"""A fixed reference job that calibrates timings against machine speed.

On a shared machine the same call can take 1x or 2x its usual time
depending on what else the host runs, and those slow phases last seconds
to minutes (the baseline machine, a 2-vCPU VM, behaves so). Running this
job right before and right after each timed call, and dividing the call's
time by the job's, cancels most of that drift. The job depends on nothing in the repository, so a
change to the program cannot change it. Its mix resembles the program's:
Python-level object work plus many small numpy products.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(31, 16))
_W = _RNG.normal(size=(16, 16))
_ADJ = _RNG.normal(size=(31, 31)) / 31.0


def _python_part() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(200_000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1_000_003
    return acc + len(table)


def _numpy_part() -> float:
    x = _X
    for _ in range(4000):
        x = np.maximum(_ADJ @ (x @ _W), 0.0) * 0.01 + _X
    return float(x.sum())


def reference_seconds() -> float:
    """Wall time of one run of the reference job (about 0.1 s unloaded)."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
