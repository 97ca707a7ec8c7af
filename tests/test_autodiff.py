"""Tape-based reverse-mode differentiation tests.

Forward values are compared against explicit-loop oracles, backward rules
against closed forms and central differences, and the checker itself
against a deliberately wrong gradient (it must fail).
"""

import numpy as np
import pytest

import megraph.autodiff as ad
from megraph.autodiff import ShapeError, Tensor
from megraph.params import ParamStore, read_checkpoint, sgd_step, write_checkpoint


def softmax_rows_oracle(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i] - x[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def cross_entropy_oracle(logits: np.ndarray, labels) -> float:
    p = softmax_rows_oracle(logits)
    total = 0.0
    for i, label in enumerate(labels):
        total -= np.log(p[i, label])
    return total / len(labels)


class TestForwardValues:
    """Each op's output against a plain-numpy or explicit-loop oracle."""

    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = ad.matmul(ad.constant(a), ad.constant(b)).data
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_elementwise_pairs(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 5.0  # keep divisors away from zero
        ta, tb = ad.constant(a), ad.constant(b)
        np.testing.assert_allclose(ad.add(ta, tb).data, a + b)
        np.testing.assert_allclose(ad.sub(ta, tb).data, a - b)
        np.testing.assert_allclose(ad.mul(ta, tb).data, a * b)
        np.testing.assert_allclose(ad.div(ta, tb).data, a / b)

    def test_scalar_operands_broadcast(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        s = ad.constant(2.0)
        np.testing.assert_allclose(ad.add(a, s).data, [[3, 4], [5, 6]])
        np.testing.assert_allclose(ad.mul(s, a).data, [[2, 4], [6, 8]])
        np.testing.assert_allclose(ad.div(a, s).data, [[0.5, 1], [1.5, 2]])

    def test_mismatched_shapes_rejected(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.add(a, b)
        with pytest.raises(ShapeError):
            ad.matmul(a, ad.constant(np.zeros((2, 2))))

    def test_relu_clamps_negatives_only(self):
        x = ad.constant([[-2.0, 0.0, 3.0]])
        np.testing.assert_array_equal(ad.relu(x).data, [[0.0, 0.0, 3.0]])

    def test_transpose_and_slice_round_trip(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        t = ad.constant(x)
        np.testing.assert_array_equal(ad.transpose(ad.transpose(t)).data, x)
        np.testing.assert_array_equal(ad.slice_rows(t, 1, 3).data, x[1:3])

    def test_concat_then_slice_recovers_parts(self):
        rng = np.random.default_rng(42)
        parts = [rng.normal(size=(n, 3)) for n in (2, 1, 4)]
        cat = ad.concat_rows([ad.constant(p) for p in parts])
        assert cat.shape == (7, 3)
        start = 0
        for p in parts:
            stop = start + p.shape[0]
            np.testing.assert_array_equal(
                ad.slice_rows(cat, start, stop).data, p
            )
            start = stop

    def test_softmax_rows_matches_loop_and_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = rng.normal(size=(5, 4)) * rng.uniform(0.1, 50)
            s = ad.softmax_rows(ad.constant(x)).data
            np.testing.assert_allclose(s, softmax_rows_oracle(x), atol=1e-12)
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_rows_shift_invariant(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 4))
        shifted = x + rng.normal(size=(3, 1)) * 100
        a = ad.softmax_rows(ad.constant(x)).data
        b = ad.softmax_rows(ad.constant(shifted)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_reductions_match_loops(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            ad.l1_rowsum(ad.constant(x)).data,
            np.array([[sum(abs(v) for v in row)] for row in x]),
        )
        np.testing.assert_allclose(
            ad.sq_frobenius(ad.constant(x)).data,
            sum(v * v for v in x.ravel()),
        )
        np.testing.assert_allclose(ad.sum_all(ad.constant(x)).data, x.sum())
        np.testing.assert_allclose(
            ad.mean_rows(ad.constant(x)).data,
            x.mean(axis=0, keepdims=True),
        )

    def test_fused_affine_forms(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=(1, 2))
        adj = rng.normal(size=(5, 5))
        tx, tw, tb = ad.constant(x), ad.constant(w), ad.constant(b)
        np.testing.assert_allclose(ad.affine(tx, tw, tb).data, x @ w + b)
        np.testing.assert_allclose(
            ad.graph_affine(adj, tx, tw, tb).data, adj @ x @ w + b
        )

    def test_temporal_conv_matches_loop(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 4, 3))
        taps = [rng.normal(size=(3, 2)) for _ in range(3)]
        b = rng.normal(size=(1, 2))
        args = ([ad.constant(w) for w in taps], ad.constant(b))
        for padding, pad in (("same", 1), ("valid", 0)):
            got = ad.temporal_conv(ad.constant(x), *args, padding).data
            t_out = 3 + 2 * pad - 2
            assert got.shape == (2, t_out, 4, 2)
            for n in range(2):
                for t in range(t_out):
                    want = b.copy()
                    for k in range(3):
                        src = t + k - pad
                        if 0 <= src < 3:
                            want = want + x[n, src] @ taps[k]
                    np.testing.assert_allclose(got[n, t], want, atol=1e-12)

    def test_batched_ops_match_per_matrix_calls(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 5, 4))
        w = ad.constant(rng.normal(size=(4, 2)))
        b = ad.constant(rng.normal(size=(1, 2)))
        adj = rng.normal(size=(5, 5))
        batched = ad.graph_affine(adj, ad.constant(x), w, b).data
        for i in range(3):
            one = ad.graph_affine(adj, ad.constant(x[i]), w, b).data
            np.testing.assert_allclose(batched[i], one, atol=1e-12)
        np.testing.assert_array_equal(
            ad.slice_rows(ad.constant(x), 1, 3).data, x[:, 1:3]
        )
        np.testing.assert_array_equal(
            ad.transpose(ad.constant(x)).data, np.swapaxes(x, 1, 2)
        )

    def test_cross_entropy_matches_loop(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        out = ad.cross_entropy(ad.constant(logits), labels).item()
        np.testing.assert_allclose(
            out, cross_entropy_oracle(logits, labels), atol=1e-12
        )

    def test_cross_entropy_rejects_bad_labels(self):
        logits = ad.constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            ad.cross_entropy(logits, [0.5, 1.5])
        with pytest.raises(ValueError):
            ad.cross_entropy(logits, np.array([0, 3]))

    def test_slice_rows_bounds_checked(self):
        x = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            ad.slice_rows(x, 2, 2)
        with pytest.raises(ShapeError):
            ad.slice_rows(x, 0, 4)


class TestBackwardClosedForms:
    """Hand-derived gradients for a few ops with known closed forms."""

    def test_matmul_gradients(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ad.sum_all(ad.matmul(a, b)).backward()
        g = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)

    def test_relu_masks_gradient(self):
        x = Tensor([[-1.0, 2.0, -3.0, 4.0]], requires_grad=True)
        ad.sum_all(ad.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])

    def test_cross_entropy_gradient_is_prob_minus_onehot(self):
        rng = np.random.default_rng(42)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        ad.cross_entropy(logits, labels).backward()
        p = softmax_rows_oracle(logits.data)
        onehot = np.zeros_like(p)
        onehot[np.arange(4), labels] = 1.0
        np.testing.assert_allclose(logits.grad, (p - onehot) / 4, atol=1e-12)

    def test_reused_tensor_accumulates_within_one_pass(self):
        x = Tensor([[3.0]], requires_grad=True)
        y = ad.add(ad.mul(x, x), x)  # y = x^2 + x, dy/dx = 2x + 1
        ad.sum_all(y).backward()
        np.testing.assert_allclose(x.grad, [[7.0]])

    def test_leaf_grads_accumulate_across_passes(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        ad.sum_all(x).backward()
        ad.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.relu(x).backward()

    def test_weight_gradient_sums_over_batch_axes(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 5, 4))
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ad.sum_all(ad.matmul(ad.constant(x), w)).backward()
        want = sum(x[i].T @ np.ones((5, 2)) for i in range(3))
        np.testing.assert_allclose(w.grad, want, atol=1e-12)
        bias = Tensor(np.zeros((1, 4)), requires_grad=True)
        ad.sum_all(ad.add(ad.constant(x), bias)).backward()
        np.testing.assert_array_equal(bias.grad, np.full((1, 4), 15.0))

    def test_backward_skips_constant_branches(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        c = ad.constant([[3.0, 4.0]])
        scaled = ad.scale(c, 2.0)
        y = ad.sum_all(ad.mul(x, scaled))
        assert not scaled._needs and y._needs
        y.backward()
        np.testing.assert_array_equal(x.grad, [[6.0, 8.0]])
        assert scaled.grad is None and c.grad is None
        # nothing to differentiate: backward is a no-op
        ad.sum_all(scaled).backward()
        assert scaled.grad is None

    def test_nodes_carry_their_op_name(self):
        x = ad.constant(np.ones((2, 2)))
        assert x.op == ""
        assert ad.relu(x).op == "relu"
        assert ad.l1_rowsum(ad.relu(x)).op == "l1_rowsum"

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(4, 3))

        def run():
            x = Tensor(data.copy(), requires_grad=True)
            h = ad.relu(ad.affine(x, w, b))
            ad.cross_entropy(h, np.array([0, 1, 2, 0])).backward()
            return x.grad.copy()

        w = ad.constant(rng.normal(size=(3, 3)))
        b = ad.constant(rng.normal(size=(1, 3)))
        first = run()
        for _ in range(3):
            np.testing.assert_array_equal(run(), first)


class TestGradCheck:
    """The finite-difference checker on smooth ops, plus negative controls."""

    def test_smooth_ops_pass(self):
        rng = np.random.default_rng(42)
        rhs = ad.constant(rng.normal(size=(4, 2)))
        readout = ad.constant(rng.normal(size=(3, 4)))
        cases = {
            "matmul": lambda t: ad.sum_all(ad.matmul(t, rhs)),
            "softmax": lambda t: ad.sum_all(
                ad.mul(ad.softmax_rows(t), readout)
            ),
            "cross_entropy": lambda t: ad.cross_entropy(
                t, np.array([0, 2, 1])
            ),
            "mean": lambda t: ad.sq_frobenius(ad.mean_rows(t)),
        }
        for name, f in cases.items():
            x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            result = ad.grad_check(f, x)
            assert result.passed, f"{name}: {result}"

    def test_wrong_gradient_is_caught(self):
        # Hand-built node whose backward claims 3x when the forward is 2x.
        def buggy_double(t: Tensor) -> Tensor:
            def back(g):
                return (3.0 * g,)

            return ad._node(t.data * 2.0, (t,), back)

        x = Tensor(np.random.default_rng(42).normal(size=(2, 2)))
        result = ad.grad_check(lambda t: ad.sum_all(buggy_double(t)), x)
        assert not result.passed
        assert result.max_rel_err > 0.1

    def test_kink_straddling_probe_is_caught(self):
        # A coordinate exactly at the rectifier kink has no two-sided
        # derivative; the checker must report the disagreement, not hide it.
        x = Tensor([[0.0, 1.0]])
        result = ad.grad_check(lambda t: ad.sum_all(ad.relu(t)), x)
        assert not result.passed
        assert result.worst_coord == (0, 0)

    def test_check_restores_tensor_state(self):
        x = Tensor([[1.0, -2.0]], requires_grad=False)
        x.grad = np.array([[9.0, 9.0]])
        before = x.data.copy()
        ad.grad_check(lambda t: ad.sq_frobenius(t), x)
        np.testing.assert_array_equal(x.data, before)
        np.testing.assert_array_equal(x.grad, [[9.0, 9.0]])
        assert x.requires_grad is False


class TestFiniteChecks:
    def test_non_finite_op_output_raises_when_enabled(self):
        a = ad.constant([[1.0]])
        z = ad.constant([[0.0]])
        with np.errstate(divide="ignore"):
            with ad.finite_checks():
                with pytest.raises(FloatingPointError):
                    ad.div(a, z)
            # disabled again outside the context
            assert np.isinf(ad.div(a, z).data[0, 0])


class TestParamStore:
    def test_create_and_lookup(self):
        rng = np.random.default_rng(42)
        store = ParamStore()
        w = store.create("w", (3, 2), rng=rng)
        b = store.create("b", (1, 2), init="zeros")
        assert store.names() == ["w", "b"]
        assert store["w"] is w
        assert "b" in store and len(store) == 2
        assert store.n_values() == 8
        np.testing.assert_array_equal(b.data, np.zeros((1, 2)))
        with pytest.raises(ValueError):
            store.create("w", (3, 2), rng=rng)

    def test_state_dict_round_trip_and_mismatch(self):
        rng = np.random.default_rng(42)
        store = ParamStore()
        store.create("w", (2, 2), rng=rng)
        state = store.state_dict()
        state["w"][0, 0] = 123.0
        store.load_state_dict(state)
        assert store["w"].data[0, 0] == 123.0
        with pytest.raises(ValueError):
            store.load_state_dict({"other": np.zeros((2, 2))})
        with pytest.raises(ValueError):
            store.load_state_dict({"w": np.zeros((3, 3))})

    def test_checkpoint_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        state = {
            "w": rng.normal(size=(3, 2)),
            "b": np.array([[0.1 + 0.2, 1e-300, -0.0]]),
        }
        path = tmp_path / "ckpt.json"
        write_checkpoint(state, path)
        loaded = read_checkpoint(path)
        assert set(loaded) == {"w", "b"}
        for name in state:
            assert loaded[name].shape == state[name].shape
            np.testing.assert_array_equal(loaded[name], state[name])

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "params": {}}')
        with pytest.raises(ValueError):
            read_checkpoint(path)


class TestSgd:
    def test_momentum_recurrence_matches_manual_update(self):
        store = ParamStore()
        p = store.create("p", (1, 1), init="zeros")
        p.data = np.array([[1.0]])
        lr, mom = 0.1, 0.9

        p.grad = np.array([[2.0]])
        sgd_step(store, lr=lr, momentum=mom)
        v1 = 2.0
        np.testing.assert_allclose(p.data, [[1.0 - lr * v1]])

        p.grad = np.array([[1.0]])
        sgd_step(store, lr=lr, momentum=mom)
        v2 = mom * v1 + 1.0
        np.testing.assert_allclose(p.data, [[1.0 - lr * v1 - lr * v2]])
        assert p.grad is None

    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(42)
        target = rng.normal(size=(2, 3))
        store = ParamStore()
        x = store.create("x", (2, 3), rng=rng)
        for _ in range(200):
            loss = ad.sq_frobenius(ad.sub(x, ad.constant(target)))
            loss.backward()
            sgd_step(store, lr=0.05, momentum=0.9)
        assert np.abs(x.data - target).max() < 1e-3

    def test_non_finite_gradient_names_the_parameter(self):
        store = ParamStore()
        p = store.create("layer.w", (1, 1), init="zeros")
        p.grad = np.array([[np.nan]])
        with pytest.raises(FloatingPointError, match="layer.w"):
            sgd_step(store, lr=0.1)
