"""
The reverse-mode tape and its finite-difference referee
=======================================================

Training runs on a small reverse-mode autodiff layer over numpy arrays.
Every operation records how to push gradients back to its inputs;
ad.backward(loss) walks the tape once in reverse topological order.
Central-difference checking is the independent referee: it never consults
the tape's gradient rules, only re-evaluates the function.
"""

import numpy as np

import megraph.autodiff as ad
from megraph.checks import run_battery, battery_passed, format_battery

rng = np.random.default_rng(0)

# A two-layer classifier: h = relu(x @ w1), logits = h @ w2 + b, and the
# loss is the mean softmax cross-entropy against integer labels. Only
# leaves marked requires_grad get gradients; backward never visits the
# parts of the tape that lead to constants alone.
x = ad.constant(rng.normal(size=(4, 3)))
w1 = ad.tensor(rng.normal(size=(3, 5)), requires_grad=True)
w2 = ad.tensor(rng.normal(size=(5, 2)), requires_grad=True)
b = ad.tensor(np.zeros((1, 2)), requires_grad=True)
labels = np.array([0, 1, 1, 0])


def loss_of(w):
    return ad.cross_entropy(ad.affine(ad.relu(ad.matmul(x, w)), w2, b), labels)


loss = loss_of(w1)
print(f"loss: {float(loss.data):.6f}")

ad.backward(loss)
print("gradient shapes:", w1.grad.shape, w2.grad.shape, b.grad.shape)

# The same gradient, measured numerically: nudge one coordinate of w1 by
# +-h and take the slope. The tape's entry should match to ~1e-6.
h = 1e-6
w1_flat = w1.data.ravel()
w1_flat[0] += h
up = float(loss_of(w1).data)
w1_flat[0] -= 2 * h
down = float(loss_of(w1).data)
w1_flat[0] += h
numeric = (up - down) / (2 * h)
print(f"tape grad {w1.grad.ravel()[0]:.8f} vs numeric {numeric:.8f}")

# grad_check automates that over every coordinate and reports the worst
# relative error. Constants are held outside the checked function.
result = ad.grad_check(loss_of, w1)
print(f"grad_check: passed={result.passed} "
      f"max_rel_err={result.max_rel_err:.3e}")

# A non-scalar output needs a seed of its shape: backward then adds the
# vector-Jacobian product seed . d(out)/d(leaf) to each leaf. For
# h = relu(x @ w1) that is x^T (seed * [h > 0]) for w1.
w1.grad = None
hidden = ad.relu(ad.matmul(x, w1))
seed = rng.normal(size=hidden.shape)
ad.backward(hidden, seed)
vjp = x.data.T @ (seed * (hidden.data > 0))
print(f"seeded backward vs closed form: max |diff| = "
      f"{np.abs(w1.grad - vjp).max():.1e}")

# The full battery sweeps every operation and loss over five seeds, plus an
# end-to-end check of every model parameter. Each op's non-scalar output
# enters its check through a random seed like the one above. It is also
# wired to the CLI as `megraph gradcheck`.
entries = run_battery()
print(format_battery(entries).splitlines()[-1])
assert battery_passed(entries)
