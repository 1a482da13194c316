import json
import math
import tracemalloc

import numpy as np
import pytest

from sacloc.autodiff import (
    ADAM_BLOCK,
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
from sacloc.gtmodel import PARAMETER_NAMES, init_model
from sacloc.rng import stream

# a float32 overflow or invalid value in a training step fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


class TestTensor:
    def test_keeps_float32_and_float64_arrays(self):
        for dtype in (np.float32, np.float64):
            a = np.arange(6, dtype=dtype).reshape(2, 3)
            assert Tensor(a).data is a

    @pytest.mark.parametrize("data", [
        np.arange(3), [1, 2, 3], [1.0, 2.0, 3.0], np.arange(3, dtype=np.float16), 2, 2.5])
    def test_anything_else_becomes_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))


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

    def test_second_sweep_overwrites(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for scale in (3.0, 2.0):
            t = Tape()
            t.backward(t.scale(t.sum_all(x), scale))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_shared_swept_gradient_is_not_written_through(self):
        # `add` hands one gradient array to both leaves; a leaf's grad takes a
        # copy, so adding a later contribution in place into one leaf's grad
        # must leave the other's alone
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        t = Tape()
        sq = t.mul(x, x)  # recorded first, so swept after the shared array
        t.backward(t.sum_all(t.add(t.add(x, y), sq)))
        assert not np.shares_memory(x.grad, y.grad)
        assert np.array_equal(x.grad, [3.0, 5.0])
        assert np.array_equal(y.grad, [1.0, 1.0])


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
                x.grad = None

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


class TestMultiHead:
    """The fused-head primitives: gradients against finite differences, and
    the forward against the per-head composition of 2-D primitives."""

    MASKS = {
        "B=1": np.array([[True, False, True, True, False]]),
        "empty row": np.array([[True] * 5, [False] * 5, [True, False, True, False, True]]),
    }

    @pytest.mark.parametrize("case", MASKS)
    def test_attention_gradients(self, case):
        mask = self.MASKS[case]
        rng = stream(1, "fd", "attention", case)
        b, n = mask.shape
        q, k, v = (Tensor(rng.normal(size=(rows, 6)), requires_grad=True)
                   for rows in (b, n, n))
        weights = Tensor(rng.normal(size=(b, 6)))

        def forward(t):
            return t.sum_all(t.mul(t.multi_head_attention(q, k, v, mask, 2), weights))

        t = Tape()
        t.backward(forward(t))
        leaves = [q, k, v]
        numeric = finite_diff(lambda: float(forward(Tape(record=False)).data), leaves)
        err = max_rel_err([x.grad for x in leaves], numeric)
        assert err < 1e-4, f"rel err {err}"
        if case == "empty row":
            assert np.array_equal(q.grad[1], np.zeros(6))

    @pytest.mark.parametrize("b", [1, 3])
    def test_head_mean_gradients(self, b):
        rng = stream(b, "fd", "head-mean")
        x = Tensor(rng.normal(size=(b, 6)), requires_grad=True)
        weights = Tensor(rng.normal(size=(b, 2)))

        def forward(t):
            return t.sum_all(t.mul(t.head_mean(x, 3), weights))

        t = Tape()
        t.backward(forward(t))
        numeric = finite_diff(lambda: float(forward(Tape(record=False)).data), [x])
        assert max_rel_err([x.grad], numeric) < 1e-4

    def test_forward_matches_per_head_composition(self):
        mask = self.MASKS["empty row"]
        rng = stream(2, "attention", "per-head")
        q, k, v = (Tensor(rng.normal(size=(rows, 6))) for rows in (3, 5, 5))
        t = Tape(record=False)
        fused = t.head_mean(t.multi_head_attention(q, k, v, mask, 3), 3).data
        per_head = []
        for cols in (slice(0, 2), slice(2, 4), slice(4, 6)):
            logits = t.scale(t.matmul(Tensor(q.data[:, cols]),
                                      t.transpose(Tensor(k.data[:, cols]))), 2 ** -0.5)
            attn = t.masked_row_softmax(logits, mask)
            per_head.append(t.matmul(attn, Tensor(v.data[:, cols])).data)
        assert np.max(np.abs(fused - np.mean(per_head, axis=0))) <= 1e-15
        assert np.array_equal(fused[1], np.zeros(2))


def folded_adam(p, m, v, g, t, lr, state):
    """The whole-array update `adam_step` evaluates: moments in the dtype of
    `g`, both bias corrections folded into the step size and epsilon, and
    decoupled decay on the float64 master `p` -> (p, m, v)."""
    b1, b2 = state.beta1, state.beta2
    root_bc2 = math.sqrt(1.0 - b2 ** t)
    step = lr * root_bc2 / (1.0 - b1 ** t)
    m = m * b1 + (1.0 - b1) * g
    v = v * b2 + (1.0 - b2) * g * g
    p = p * (1.0 - lr * state.weight_decay) - (m / (np.sqrt(v) + state.eps * root_bc2)) * step
    return p, m, v


def textbook_adam(p, m, v, g, t, lr, state):
    """Bias-corrected AdamW in float64, term by term -> (p, m, v)."""
    b1, b2 = state.beta1, state.beta2
    m = m * b1 + (1.0 - b1) * g
    v = v * b2 + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)
    return p, m, v


class TestAdam:
    def test_blocked_update_matches_textbook_bitwise(self):
        # more than two blocks and a ragged tail
        size = 3 * 23000
        assert 2 * ADAM_BLOCK < size < 3 * ADAM_BLOCK
        rng = stream(4, "adam", "blocks")
        p = rng.normal(size=size)
        ref = p.copy()
        m, v = np.zeros(size, np.float32), np.zeros(size, np.float32)
        state = AdamState(weight_decay=1e-2)
        for t in range(1, 5):
            g = (rng.normal(size=size) * 10.0 ** (t - 2)).astype(np.float32)
            lr = 0.01 / t
            adam_step(p, g, state, lr)
            ref, m, v = folded_adam(ref, m, v, g, t, lr, state)
            assert m.dtype == v.dtype == np.float32 and ref.dtype == np.float64
            assert np.array_equal(p, ref), t
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_flat_update_matches_per_parameter_update(self):
        # the flat pass over a fresh model's parameters (blocks crossing
        # parameter boundaries) equals the update done parameter by parameter
        model = init_model(20, (np.zeros(2), np.ones(2)), hidden=256, n_heads=4, seed=3)
        params = model.parameters()
        assert list(params) == list(PARAMETER_NAMES)
        flat = model.flat
        assert flat.size > 10 * ADAM_BLOCK
        ref = {name: p.data.copy() for name, p in params.items()}
        moments = {name: (np.zeros(a.shape, np.float32), np.zeros(a.shape, np.float32))
                   for name, a in ref.items()}
        state = AdamState(weight_decay=1e-4)
        rng = stream(4, "adam", "flat")
        for t in range(1, 4):
            grads = rng.normal(size=flat.size).astype(np.float32)
            adam_step(flat, grads, state, 1e-3)
            offset = 0
            for name, p in ref.items():
                g = grads[offset:offset + p.size].reshape(p.shape)
                offset += p.size
                ref[name], *moments[name] = folded_adam(p, *moments[name], g, t, 1e-3, state)
            for name, p in params.items():
                assert p.data.tobytes() == ref[name].tobytes(), (t, name)

    def test_float32_moments_track_the_float64_textbook_update(self):
        # the folded float32 update is the textbook float64 AdamW up to
        # float32 rounding: about a dozen roundings of 2**-24 each on a step
        # whose size is lr * |m_hat / sqrt(v_hat)|, at most lr * (1 - b1) /
        # sqrt(1 - b2) ~ 3.2 lr, so each step may drift by 16 * 2**-24 * 3.2
        # lr < 4e-6 lr; random gradients stay near a quarter of that
        size = 2 * ADAM_BLOCK + 123
        rng = stream(4, "adam", "textbook")
        p = rng.normal(size=size)
        ref, m, v = p.copy(), np.zeros(size), np.zeros(size)
        state = AdamState(weight_decay=1e-2)
        drift = 0.0
        for t in range(1, 6):
            g = (rng.normal(size=size) * 10.0 ** (t - 3)).astype(np.float32)
            lr = 0.01 * (1.0 + t % 2) / t
            adam_step(p, g, state, lr)
            ref, m, v = textbook_adam(ref, m, v, g.astype(np.float64), t, lr, state)
            drift += 1e-6 * lr
            assert np.max(np.abs(p - ref)) <= drift, t

    def test_working_copy_is_the_rounded_master(self):
        size = ADAM_BLOCK + 5
        rng = stream(4, "adam", "working")
        p = rng.normal(size=size)
        state = AdamState(weight_decay=1e-3)
        for t in range(1, 4):
            adam_step(p, rng.normal(size=size).astype(np.float32), state, 0.01)
            assert state.working.dtype == np.float32
            assert state.working.tobytes() == p.astype(np.float32).tobytes(), t

    def test_lr_zero_leaves_master_and_working_copy_bitwise(self):
        size = ADAM_BLOCK + 5
        rng = stream(4, "adam", "lr0")
        p = rng.normal(size=size)
        state = AdamState(weight_decay=1e-3)
        adam_step(p, rng.normal(size=size).astype(np.float32), state, 0.01)
        master, working = p.copy(), state.working.copy()
        for _ in range(3):
            adam_step(p, rng.normal(size=size).astype(np.float32), state, 0.0)
            assert p.tobytes() == master.tobytes()
            assert state.working.tobytes() == working.tobytes()

    def test_zero_grad_zero_decay_is_identity(self):
        p = np.array([1.0, -2.0, 3.0])
        before = p.copy()
        state = AdamState(weight_decay=0.0)
        for _ in range(5):
            adam_step(p, np.zeros(3), state, lr=0.1)
        assert np.array_equal(p, before)

    def test_first_step_unit_gradient(self):
        # t=1: m_hat = g, v_hat = g^2, so the step is ~lr regardless of scale
        p = np.array([0.0])
        adam_step(p, np.array([1.0]), AdamState(), lr=0.1)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_decay_only_step(self):
        p = np.array([1.0])
        adam_step(p, np.array([0.0]), AdamState(weight_decay=1e-4), lr=0.001)
        assert p[0] == pytest.approx(1.0 - 1e-7, rel=1e-12)

    def test_lr_zero_leaves_parameters_bitwise(self):
        p = np.array([1.5, -2.5])
        before = p.copy()
        adam_step(p, np.array([3.0, -1.0]), AdamState(), lr=0.0)
        assert np.array_equal(p, before)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            adam_step(np.zeros(3), np.zeros(4), AdamState(), lr=0.1)
        with pytest.raises(ShapeMismatch):  # a (P,) buffer, not a weight
            adam_step(np.zeros((2, 3)), np.zeros((2, 3)), AdamState(), lr=0.1)
        state = AdamState()
        adam_step(np.zeros(3), np.zeros(3), state, lr=0.1)
        with pytest.raises(ShapeMismatch):  # moments of another model
            adam_step(np.zeros(4), np.zeros(4), state, lr=0.1)

    def test_moments_allocated_on_first_step_only(self, monkeypatch):
        p, g = np.ones(6), np.full(6, 0.5)
        state = AdamState()
        assert state.m is None and state.v is None
        adam_step(p, g, state, lr=0.1)
        moments = state.m, state.v
        calls = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(a) or zeros_like(*a, **k))
        adam_step(p, g, state, lr=0.1)
        assert calls == []
        # updated in place, not replaced
        assert state.m is moments[0] and state.v is moments[1]

    def test_scratch_allocated_on_first_step_only(self):
        p, g = np.ones(3 * ADAM_BLOCK), np.full(3 * ADAM_BLOCK, 0.5)
        state = AdamState()
        adam_step(p, g, state, lr=0.1)
        scratch = state.scratch
        assert scratch.shape == (2, ADAM_BLOCK)
        tracemalloc.start()
        try:
            adam_step(p, g, state, lr=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.scratch is scratch
        assert peak < scratch.nbytes // 4


class TestCosine:
    def test_endpoints_and_midpoint(self):
        sched = CosineSchedule(base_lr=0.001, total_steps=100)
        assert cosine_lr(sched, 0) == pytest.approx(0.001)
        assert cosine_lr(sched, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(sched, 50) == pytest.approx(0.0005)

    def test_non_increasing(self):
        sched = CosineSchedule(base_lr=0.01, total_steps=37)
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

    def test_mean_preserved(self):
        mask = dropout_mask((1000, 1000), 0.4, stream(7, "dropout-test"))
        assert abs(mask.data.mean() - 1.0) < 0.01
        kept = mask.data[mask.data > 0]
        assert np.allclose(kept, 1.0 / 0.6)


class TestCheckpoint:
    def _params(self):
        rng = stream(3, "ckpt")
        w, b = rng.normal(size=(3, 2)), rng.normal(size=2)
        return rng, {"w": Tensor(w, requires_grad=True), "b": Tensor(b, requires_grad=True)}

    def test_round_trip_bit_exact(self, tmp_path):
        rng, params = self._params()
        adam = AdamState(weight_decay=1e-4, t=7, m=rng.normal(size=8), v=rng.random(8))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, adam=adam, step=7, extra={"note": 1})
        loaded, adam2, step, extra = load_checkpoint(path)
        assert step == 7 and extra == {"note": 1}
        assert list(loaded) == list(params)
        for k, p in params.items():
            assert np.array_equal(loaded[k].data, p.data)
        # one blob: the parameters back to back, then the moments
        assert loaded["w"].data.base is loaded["b"].data.base is adam2.m.base is adam2.v.base
        assert np.array_equal(adam2.m, adam.m) and np.array_equal(adam2.v, adam.v)
        assert adam2.t == 7 and adam2.weight_decay == 1e-4

    def test_missing_moments_load_as_zeros(self, tmp_path):
        # a state before its first step has no moments yet: they are saved as
        # the zeros `adam_step` would start from
        _, params = self._params()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, adam=AdamState())
        _, adam, _, _ = load_checkpoint(path)
        assert np.array_equal(adam.m, np.zeros(8)) and np.array_equal(adam.v, np.zeros(8))

    def test_moments_of_another_size_rejected(self, tmp_path):
        _, params = self._params()
        with pytest.raises(ShapeMismatch, match="save_checkpoint moments"):
            save_checkpoint(tmp_path / "ckpt.bin", params,
                            adam=AdamState(m=np.zeros(9), v=np.zeros(9)))

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
