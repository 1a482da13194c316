import json

import numpy as np
import pytest

from sacloc.autodiff import (
    AdamState,
    CosineSchedule,
    Tape,
    Tensor,
    adam_step,
    cosine_lr,
    dropout_mask,
    load_checkpoint,
    save_checkpoint,
)
from sacloc.errors import BadCheckpoint, NonScalarLoss, ShapeMismatch, StepOutOfRange
from sacloc.rng import stream


def finite_diff(loss_fn, leaves, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. each leaf tensor."""
    grads = []
    for leaf in leaves:
        flat = leaf.data.ravel()
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2 * step)
        grads.append(g.reshape(leaf.data.shape))
    return grads


def max_rel_err(analytic, numeric):
    return max(
        float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))
        for a, n in zip(analytic, numeric)
    )


class TestForward:
    def test_matmul_identity(self):
        t = Tape()
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = t.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_softmax_symmetric(self):
        t = Tape()
        out = t.masked_row_softmax(Tensor([[0.0, 0.0]]), np.array([[True, True]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_softmax_empty_row_is_zero(self):
        t = Tape()
        out = t.masked_row_softmax(Tensor([[3.0, -1.0]]), np.array([[False, False]]))
        assert np.array_equal(out.data, [[0.0, 0.0]])

    def test_relu(self):
        t = Tape()
        out = t.relu(Tensor([[-1.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 2.0]]

    def test_shape_mismatch_reports_both_shapes(self):
        t = Tape()
        with pytest.raises(ShapeMismatch) as err:
            t.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(err.value)


class TestBackward:
    def test_mean_gradient(self):
        t = Tape()
        x = Tensor(np.arange(4.0), requires_grad=True)
        t.backward(t.mean_all(x))
        assert np.allclose(x.grad, [0.25, 0.25, 0.25, 0.25])

    def test_relu_subgradient(self):
        t = Tape()
        x = Tensor([-1.0, 2.0], requires_grad=True)
        t.backward(t.sum_all(t.relu(x)))
        assert x.grad.tolist() == [0.0, 1.0]

    def test_nonscalar_loss_rejected(self):
        t = Tape()
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NonScalarLoss):
            t.backward(t.relu(x))

    def test_unreachable_leaf_gets_zero_grad(self):
        t = Tape()
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        loss = t.sum_all(t.relu(x))
        _ = t.relu(y)  # on tape, but not feeding the loss
        t.backward(loss)
        assert np.array_equal(y.grad, [0.0, 0.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            t = Tape()
            t.backward(t.sum_all(x))
        assert np.array_equal(x.grad, [2.0, 2.0])


class TestGradientOracle:
    """Analytic gradients vs central finite differences (the independent route)."""

    def test_each_primitive(self):
        rng = stream(0, "fd", "primitives")
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        mask = rng.random((3, 3)) < 0.7
        mask[0] = True  # keep at least one full row

        cases = {
            "matmul": lambda t: t.matmul(a, b),
            "transpose": lambda t: t.transpose(a),
            "add": lambda t: t.add(a, a),
            "add_bias": lambda t: t.add_bias(t.matmul(a, b), bias),
            "mul": lambda t: t.mul(a, a),
            "scale": lambda t: t.scale(a, -1.7),
            "relu": lambda t: t.relu(a),
            "abs": lambda t: t.abs(a),
            "softmax": lambda t: t.masked_row_softmax(t.matmul(a, b), mask),
            "select": lambda t: t.select_rows(a, np.array([0, 2, 2])),
            "concat": lambda t: t.concat_rows([a, t.relu(a)]),
        }
        for name, build in cases.items():
            def loss_fn():
                t = Tape(record=False)
                return float(t.sum_all(t.abs(build(t))).data)

            t = Tape()
            loss = t.sum_all(t.abs(build(t)))
            t.backward(loss)
            leaves = [x for x in (a, b, bias) if x.grad is not None]
            err = max_rel_err([x.grad for x in leaves], finite_diff(loss_fn, leaves))
            assert err < 1e-4, f"{name}: rel err {err}"
            for x in (a, b, bias):
                x.zero_grad()

    def test_random_compositions(self):
        for trial in range(20):
            rng = stream(trial, "fd", "compose")
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            w1 = Tensor(rng.normal(size=(5, 6)) * 0.5, requires_grad=True)
            w2 = Tensor(rng.normal(size=(6, 3)) * 0.5, requires_grad=True)
            bias = Tensor(rng.normal(size=6) * 0.1, requires_grad=True)
            mask = rng.random((4, 4)) < 0.6
            leaves = [x, w1, w2, bias]

            def forward(t):
                h = t.relu(t.add_bias(t.matmul(x, w1), bias))
                attn = t.masked_row_softmax(t.matmul(h, t.transpose(h)), mask)
                out = t.matmul(t.add(h, t.matmul(attn, h)), w2)
                return t.mean_all(t.abs(out))

            def loss_fn():
                return float(forward(Tape(record=False)).data)

            t = Tape()
            t.backward(forward(t))
            err = max_rel_err([l.grad for l in leaves], finite_diff(loss_fn, leaves))
            assert err < 1e-4, f"trial {trial}: rel err {err}"


class TestAdam:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        before = p.data.copy()
        state = AdamState(weight_decay=0.0)
        for _ in range(5):
            adam_step({"p": p}, {"p": np.zeros(3)}, state, lr=0.1)
        assert np.array_equal(p.data, before)

    def test_first_step_unit_gradient(self):
        # t=1: m_hat = g, v_hat = g^2, so the step is ~lr regardless of scale
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam_step({"p": p}, {"p": np.array([1.0])}, AdamState(), lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_decay_only_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        adam_step({"p": p}, {"p": np.array([0.0])},
                  AdamState(weight_decay=1e-4), lr=0.001)
        assert p.data[0] == pytest.approx(1.0 - 1e-7, rel=1e-12)

    def test_lr_zero_leaves_parameters_bitwise(self):
        p = Tensor(np.array([1.5, -2.5]), requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.array([3.0, -1.0])}, AdamState(), lr=0.0)
        assert np.array_equal(p.data, before)

    def test_shape_mismatch(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            adam_step({"p": p}, {"p": np.zeros(4)}, AdamState(), lr=0.1)


class TestCosine:
    def test_endpoints_and_midpoint(self):
        sched = CosineSchedule(base_lr=0.001, total_steps=100, min_lr=0.0)
        assert cosine_lr(sched, 0) == pytest.approx(0.001)
        assert cosine_lr(sched, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(sched, 50) == pytest.approx(0.0005)

    def test_non_increasing(self):
        sched = CosineSchedule(base_lr=0.01, total_steps=37, min_lr=0.001)
        values = [cosine_lr(sched, s) for s in range(38)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        sched = CosineSchedule(base_lr=0.001, total_steps=10)
        with pytest.raises(StepOutOfRange):
            cosine_lr(sched, 11)
        with pytest.raises(StepOutOfRange):
            cosine_lr(sched, -1)


class TestDropout:
    def test_rate_zero_is_ones(self):
        mask = dropout_mask((4, 4), 0.0, stream(0, "d"))
        assert np.array_equal(mask.data, np.ones((4, 4)))

    def test_eval_mode_is_ones(self):
        mask = dropout_mask((4, 4), 0.4, stream(0, "d"), training=False)
        assert np.array_equal(mask.data, np.ones((4, 4)))

    def test_mean_preserved(self):
        mask = dropout_mask((1000, 1000), 0.4, stream(7, "dropout-test"))
        assert abs(mask.data.mean() - 1.0) < 0.01
        kept = mask.data[mask.data > 0]
        assert np.allclose(kept, 1.0 / 0.6)


class TestCheckpoint:
    def _params(self):
        rng = stream(3, "ckpt")
        return rng, {
            "w": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
            "b": Tensor(rng.normal(size=2), requires_grad=True),
        }

    def test_round_trip_bit_exact(self, tmp_path):
        rng, params = self._params()
        adam = AdamState(weight_decay=1e-4, t=7)
        adam.m = {k: rng.normal(size=p.data.shape) for k, p in params.items()}
        adam.v = {k: rng.random(p.data.shape) for k, p in params.items()}
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, adam=adam, step=7, extra={"note": 1})
        loaded, adam2, step, extra = load_checkpoint(path)
        assert step == 7 and extra == {"note": 1}
        for k, p in params.items():
            assert np.array_equal(loaded[k].data, p.data)
            assert np.array_equal(adam2.m[k], adam.m[k])
            assert np.array_equal(adam2.v[k], adam.v[k])
        assert adam2.t == 7 and adam2.weight_decay == 1e-4

    def test_missing_moments_load_as_zeros(self, tmp_path):
        _, params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, adam=AdamState())
        _, adam, _, _ = load_checkpoint(path)
        for k, p in params.items():
            assert np.array_equal(adam.m[k], np.zeros_like(p.data))
            assert np.array_equal(adam.v[k], np.zeros_like(p.data))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"magic": "something-else"}))
        with pytest.raises(BadCheckpoint, match="not a sacloc checkpoint"):
            load_checkpoint(path)

    def test_rejects_truncated_blob(self, tmp_path):
        _, params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(BadCheckpoint, match="truncated") as exc:
            load_checkpoint(path)
        assert exc.value.path == path

    def test_rejects_version_1(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"magic": "sacloc-checkpoint", "version": 1,
                                    "params": {}, "extra": {}, "step": 0}))
        with pytest.raises(BadCheckpoint) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert "checkpoint version 1 is no longer read; rerun `sacloc train`" in str(exc.value)
