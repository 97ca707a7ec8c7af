"""
The reverse-mode tape and its finite-difference referee
=======================================================

Training runs on a small reverse-mode autodiff layer over numpy arrays.
Every operation records how to push gradients back to its inputs; calling
backward() on a scalar walks the tape once in reverse topological order.
Central-difference checking is the independent referee: it never consults
the tape's gradient rules, only re-evaluates the function.
"""

import numpy as np

import megraph.autodiff as ad
from megraph.checks import run_battery, battery_passed, format_battery

rng = np.random.default_rng(0)

# A two-layer computation: h = relu(x @ w1), loss = sum(h @ w2). Only
# leaves marked requires_grad get gradients; backward never visits the
# parts of the tape that lead to constants alone.
x = ad.tensor(rng.normal(size=(4, 3)), requires_grad=True)
w1 = ad.tensor(rng.normal(size=(3, 5)), requires_grad=True)
w2 = ad.tensor(rng.normal(size=(5, 2)), requires_grad=True)
loss = ad.sum_all(ad.matmul(ad.relu(ad.matmul(x, w1)), w2))
print(f"loss: {float(loss.data):.6f}")

loss.backward()
print("gradient shapes:", x.grad.shape, w1.grad.shape, w2.grad.shape)

# The same gradient, measured numerically: nudge one coordinate of w1 by
# +-h and take the slope. The tape's entry should match to ~1e-6.
h = 1e-6
w1_flat = w1.data.ravel()
w1_flat[0] += h
up = float(ad.sum_all(ad.matmul(ad.relu(ad.matmul(x, w1)), w2)).data)
w1_flat[0] -= 2 * h
down = float(ad.sum_all(ad.matmul(ad.relu(ad.matmul(x, w1)), w2)).data)
w1_flat[0] += h
numeric = (up - down) / (2 * h)
print(f"tape grad {w1.grad.ravel()[0]:.8f} vs numeric {numeric:.8f}")

# grad_check automates that over every coordinate and reports the worst
# relative error. Constants are held outside the checked function.
result = ad.grad_check(
    lambda t: ad.sum_all(ad.matmul(ad.relu(ad.matmul(x, t)), w2)), w1
)
print(f"grad_check: passed={result.passed} "
      f"max_rel_err={result.max_rel_err:.3e}")

# The full battery sweeps every operation and loss over five seeds, plus an
# end-to-end check of every model parameter. It is also wired to the CLI as
# `megraph gradcheck`.
entries = run_battery()
print(format_battery(entries).splitlines()[-1])
assert battery_passed(entries)
