"""Tests for the differentiation engine: ops, Adam, gradient checking."""

import numpy as np
import pytest

from multifuture.nn import (
    AdamState,
    LayerParams,
    Tensor,
    adam_step,
    grad_check,
    init_conv,
)
from multifuture.nn import layers, ops


def conv1d_oracle(x, w, b, padding):
    """Direct nested-loop convolution, independent of the engine."""
    c_in, length = x.shape
    c_out, _, kernel = w.shape
    padded = np.zeros((c_in, length + 2 * padding))
    padded[:, padding:padding + length] = x
    l_out = length + 2 * padding - kernel + 1
    out = np.zeros((c_out, l_out))
    for o in range(c_out):
        for t in range(l_out):
            acc = 0.0
            for i in range(c_in):
                for k in range(kernel):
                    acc += w[o, i, k] * padded[i, t + k]
            out[o, t] = acc + b[o]
    return out


def matvec_oracle(w, x, b):
    """Explicit dot products for the linear layer."""
    out = np.zeros(w.shape[0])
    for o in range(w.shape[0]):
        out[o] = sum(w[o, i] * x[i] for i in range(w.shape[1])) + b[o]
    return out


class TestConv1d:
    def test_identity_kernel(self):
        x = Tensor([[1.0, 2.0, 3.0, 4.0]])
        w = Tensor([[[0.0, 1.0, 0.0]]])
        b = Tensor([0.0])
        out = ops.conv1d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data, [[1, 2, 3, 4]])

    def test_summing_kernel(self):
        x = Tensor([[1.0, 1.0, 1.0]])
        w = Tensor([[[1.0, 1.0, 1.0]]])
        b = Tensor([0.0])
        out = ops.conv1d(x, w, b, padding=0)
        np.testing.assert_allclose(out.data, [[3.0]])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 8))
        w = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal(4)
        out = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        assert out.data.shape == (4, 8)
        np.testing.assert_allclose(out.data, conv1d_oracle(x, w, b, 1),
                                   rtol=1e-5, atol=1e-6)

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 2, 10))
        w = rng.standard_normal((4, 2, 3))
        b = rng.standard_normal(4)
        batched = ops.conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        for n in range(3):
            single = ops.conv1d(Tensor(x[n]), Tensor(w), Tensor(b), padding=1)
            np.testing.assert_allclose(batched.data[n], single.data, rtol=1e-6)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            ops.conv1d(Tensor(np.zeros((3, 8))), Tensor(np.zeros((4, 2, 3))))

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError, match="kernel"):
            ops.conv1d(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_layerparams_wrapper(self):
        rng = np.random.default_rng(0)
        params = init_conv("conv", 4, 2, 3, rng)
        x = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
        out = layers.conv1d(x, params, padding=1)
        assert out.data.shape == (4, 8)


class TestRelu:
    def test_forward(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_all_positive_unchanged(self):
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(ops.relu(Tensor(x)).data, x)

    def test_indicator_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        ops.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_subgradient_zero_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        ops.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0])


class TestMaxPool:
    def test_basic(self):
        np.testing.assert_allclose(
            ops.maxpool1d(Tensor([[1.0, 3.0, 2.0, 5.0]])).data, [[3.0, 5.0]])

    def test_odd_length_drops_trailing(self):
        np.testing.assert_allclose(
            ops.maxpool1d(Tensor([[1.0, 2.0, 3.0, 4.0, 9.0]])).data,
            [[2.0, 4.0]])

    def test_tie_routes_to_first(self):
        x = Tensor(np.array([[7.0, 7.0]]), requires_grad=True)
        out = ops.maxpool1d(x)
        np.testing.assert_allclose(out.data, [[7.0]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[1.0, 0.0]])

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="length"):
            ops.maxpool1d(Tensor(np.zeros((1, 1))))


class TestAdaptiveAvgPool:
    def test_mean(self):
        np.testing.assert_allclose(
            ops.adaptive_avgpool1d(Tensor([[2.0, 4.0, 6.0]])).data, [[4.0]])

    def test_length_one_identity(self):
        np.testing.assert_allclose(
            ops.adaptive_avgpool1d(Tensor([[5.0]])).data, [[5.0]])

    def test_shape_contract(self):
        x = Tensor(np.arange(128, dtype=np.float64).reshape(64, 2))
        out = ops.adaptive_avgpool1d(x)
        assert out.data.shape == (64, 1)
        np.testing.assert_allclose(out.data[:, 0], x.data.mean(axis=1))


class TestLinear:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = ops.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x)

    def test_hand_substitution(self):
        out = ops.linear(Tensor([2.0, 3.0]), Tensor([[1.0, 1.0]]), Tensor([1.0]))
        np.testing.assert_allclose(out.data, [6.0])

    def test_against_matvec_oracle(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((5, 7))
        x = rng.standard_normal(7)
        b = rng.standard_normal(5)
        out = ops.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, matvec_oracle(w, x, b), rtol=1e-6)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="features"):
            ops.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))))


class TestSoftmax:
    def test_symmetry(self):
        out = ops.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_stability_no_overflow(self):
        out = ops.softmax(Tensor(np.array([1000.0, 0.0])))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_closed_form_exponentials(self):
        out = ops.softmax(Tensor(np.log([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], rtol=1e-6)

    def test_simplex_property_random(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            out = ops.softmax(Tensor(rng.standard_normal((4, 9)) * 5))
            assert np.all(out.data >= 0)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_saturated_float32_gradient_has_no_subnormals(self):
        # p = (1, e^-87, e^-100, 0) in float32: e^-87 is just above the
        # subnormal range and e^-100 inside it
        h = Tensor(np.ones((1, 2), dtype=np.float32), requires_grad=True)
        w = Tensor(np.array([[0.5, 0.25]] * 4, dtype=np.float32),
                   requires_grad=True)
        b = Tensor(np.array([0.0, -87.0, -100.0, -200.0], dtype=np.float32),
                   requires_grad=True)
        probe = Tensor(np.array([0.0, 1.0, 1.0, 0.0], dtype=np.float32))
        (ops.softmax(ops.linear(h, w, b)) * probe).sum().backward()
        tiny = np.finfo(np.float32).tiny
        for t in (b, w, h):  # the softmax's input and one layer upstream
            assert t.grad.dtype == np.float32
            assert np.all((t.grad == 0) | (np.abs(t.grad) >= tiny))


def _composed_block(x, w, b, padding, pool):
    """relu(conv1d) then pooling on channels-first data: the reference."""
    h = ops.relu(ops.conv1d(x, w, b, padding=padding))
    return ops.maxpool1d(h) if pool == "max" else ops.adaptive_avgpool1d(h)


class TestEncoderBlock:
    @pytest.mark.parametrize("pool", ["max", "mean"])
    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("batch,length", [(1, 5), (3, 21), (2, 8)])
    def test_grad_check(self, pool, kernel, batch, length):
        rng = np.random.default_rng(kernel * 100 + length)
        x = Tensor(rng.standard_normal((batch, length, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, kernel)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
        out_len = length // 2 if pool == "max" else 1
        probe = Tensor(rng.standard_normal((batch, out_len, 4)))

        def closure(x, w, b):
            out = ops.encoder_block(x, w, b, kernel // 2, pool)
            assert out.shape == (batch, out_len, 4)
            return (out * probe).sum()

        assert grad_check(closure, [x, w, b]) < 1e-3

    @pytest.mark.parametrize("pool", ["max", "mean"])
    @pytest.mark.parametrize("kernel,padding,length", [(3, 1, 21), (5, 2, 5),
                                                       (3, 0, 9)])
    def test_matches_composed_ops(self, pool, kernel, padding, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((3, length, 4))
        w = rng.standard_normal((5, 4, kernel))
        b = rng.standard_normal(5)
        fused = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        ref = [Tensor(a.copy(), requires_grad=True)
               for a in (np.ascontiguousarray(x.transpose(0, 2, 1)), w, b)]
        out = ops.encoder_block(*fused, padding, pool)
        out_ref = _composed_block(*ref, padding, pool)
        probe = rng.standard_normal(out.shape)
        (out * Tensor(probe)).sum().backward()
        (out_ref * Tensor(probe.transpose(0, 2, 1))).sum().backward()

        tol = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, out_ref.data.transpose(0, 2, 1),
                                   **tol)
        np.testing.assert_allclose(fused[0].grad,
                                   ref[0].grad.transpose(0, 2, 1), **tol)
        np.testing.assert_allclose(fused[1].grad, ref[1].grad, **tol)
        np.testing.assert_allclose(fused[2].grad, ref[2].grad, **tol)

    def test_tie_routes_to_first(self):
        # identity kernel: the pre-activations are the input itself
        x = Tensor(np.array([[[2.0], [2.0], [1.0], [3.0]]]), requires_grad=True)
        w = Tensor(np.ones((1, 1, 1)), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        out = ops.encoder_block(x, w, b, 0, "max")
        np.testing.assert_array_equal(out.data, [[[2.0], [3.0]]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[[1.0], [0.0], [0.0], [1.0]]])

    def test_negative_window_gets_no_gradient(self):
        x = Tensor(np.array([[[-1.0], [-2.0], [0.5], [-3.0]]]),
                   requires_grad=True)
        w = Tensor(np.ones((1, 1, 1)), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        out = ops.encoder_block(x, w, b, 0, "max")
        np.testing.assert_array_equal(out.data, [[[0.0], [0.5]]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[[0.0], [0.0], [1.0], [0.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", ["max", "mean"])
    def test_dtype_preserved(self, dtype, pool):
        rng = np.random.default_rng(0)
        tensors = [Tensor(rng.standard_normal(shape).astype(dtype),
                          requires_grad=True)
                   for shape in ((2, 10, 3), (4, 3, 3), (4,))]
        out = ops.encoder_block(*tensors, 1, pool)
        assert out.dtype == dtype
        out.sum().backward()
        assert all(t.grad.dtype == dtype for t in tensors)

    def test_bad_arguments_raise(self):
        x = Tensor(np.zeros((1, 4, 2)))
        w, b = Tensor(np.zeros((3, 2, 3))), Tensor(np.zeros(3))
        with pytest.raises(ValueError, match="pool"):
            ops.encoder_block(x, w, b, 1, "sum")
        with pytest.raises(ValueError, match="channels"):
            ops.encoder_block(Tensor(np.zeros((1, 4, 5))), w, b, 1, "max")
        with pytest.raises(ValueError, match="channels"):
            ops.encoder_block(Tensor(np.zeros((4, 2))), w, b, 1, "max")
        with pytest.raises(ValueError, match="at least 2"):
            ops.encoder_block(Tensor(np.zeros((1, 3, 2))), w, b, 0, "max")


class TestTConv1d:
    def test_delta_input_reproduces_kernel(self):
        out = ops.tconv1d(Tensor([[1.0]]), Tensor([[[1.0, 2.0, 3.0]]]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])

    def test_hand_expansion(self):
        out = ops.tconv1d(Tensor([[1.0, 1.0]]), Tensor([[[1.0, 1.0, 1.0]]]))
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 2.0, 1.0]])

    def test_length_formula(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 4)))
        w = Tensor(rng.standard_normal((64, 64, 3)))
        assert ops.tconv1d(x, w).data.shape == (64, 6)


class TestUpsampleNearest:
    def test_factor_two_repeat(self):
        out = ops.upsample_nearest(Tensor([[1.0, 2.0]]), 4)
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 2.0, 2.0]])

    def test_identity(self):
        out = ops.upsample_nearest(Tensor([[1.0, 2.0, 3.0]]), 3)
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]])

    def test_index_mapping(self):
        out = ops.upsample_nearest(Tensor([[1.0, 2.0]]), 3)
        np.testing.assert_allclose(out.data, [[1.0, 1.0, 2.0]])

    def test_shrinking_raises(self):
        with pytest.raises(ValueError, match="out_length"):
            ops.upsample_nearest(Tensor([[1.0, 2.0, 3.0]]), 2)


class TestAdam:
    def _params(self, value):
        weight = Tensor(np.array([value], dtype=np.float64), requires_grad=True)
        return [LayerParams("p", weight)]

    def test_zero_gradient_is_noop(self):
        params = self._params(1.5)
        params[0].weight.grad = np.zeros(1)
        state = AdamState.init(params)
        adam_step(params, state)
        np.testing.assert_allclose(params[0].weight.data, [1.5])
        assert state.step_count == 1

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after bias correction, so the step is
        # lr / (1 + eps) exactly.
        params = self._params(0.0)
        params[0].weight.grad = np.ones(1)
        state = AdamState.init(params)
        adam_step(params, state)
        expected = -1e-3 / (1.0 + 1e-8)
        np.testing.assert_allclose(params[0].weight.data, [expected], rtol=1e-12)

    def test_constant_gradient_monotone(self):
        params = self._params(0.0)
        state = AdamState.init(params)
        previous = 0.0
        for _ in range(10):
            params[0].weight.grad = np.ones(1)
            adam_step(params, state)
            assert params[0].weight.data[0] < previous
            previous = params[0].weight.data[0]

    def test_missing_gradient_raises(self):
        params = self._params(0.0)
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(params, state)

    def test_grads_zeroed_after_step(self):
        params = self._params(0.0)
        params[0].weight.grad = np.ones(1)
        adam_step(params, AdamState.init(params))
        assert params[0].weight.grad is None

    def test_defaults(self):
        state = AdamState.init(self._params(0.0))
        assert (state.learning_rate, state.beta1, state.beta2, state.epsilon) \
            == (1e-3, 0.9, 0.999, 1e-8)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: (t * t).sum(), [x])
        assert err < 1e-6

    def test_relu_at_zero_excluded(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: ops.relu(t).sum(), [x])
        assert err < 1e-6

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda t: t * t, [x])

    @pytest.mark.parametrize("seed", range(10))
    def test_all_ops_randomized(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 12)), requires_grad=True)
        w_c = Tensor(rng.standard_normal((3, 2, 3)) * 0.5, requires_grad=True)
        b_c = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        w_t = Tensor(rng.standard_normal((2, 3, 3)) * 0.5, requires_grad=True)
        w_l = Tensor(rng.standard_normal((4, 6)) * 0.5, requires_grad=True)
        b_l = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
        probe = Tensor(np.array([1.0, 2.0]))

        def closure(x, w_c, b_c, w_t, w_l, b_l):
            h = ops.relu(ops.conv1d(x, w_c, b_c, padding=1))   # (3, 12)
            h = ops.maxpool1d(h)                               # (3, 6)
            h = ops.tconv1d(h, w_t)                            # (2, 8)
            h = ops.upsample_nearest(h, 11)                    # (2, 11)
            pooled = ops.adaptive_avgpool1d(h)                 # (2, 1)
            s = ops.softmax(pooled.reshape(2))
            v = ops.linear(h[:, :3].reshape(6), w_l, b_l)
            return (v * v).mean().sqrt() + (s * probe).sum()

        err = grad_check(closure, [x, w_c, b_c, w_t, w_l, b_l])
        assert err < 1e-3

    def test_full_encoder_loss_gradient(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 16)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((4, 2, 3)) * 0.5, requires_grad=True)
        b1 = Tensor(np.zeros(4), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 4, 3)) * 0.5, requires_grad=True)
        b2 = Tensor(np.zeros(4), requires_grad=True)
        target = rng.standard_normal((4, 1))

        def closure(x, w1, b1, w2, b2):
            h = ops.maxpool1d(ops.relu(ops.conv1d(x, w1, b1, padding=1)))
            h = ops.adaptive_avgpool1d(ops.relu(ops.conv1d(h, w2, b2, padding=1)))
            diff = h - Tensor(target)
            return (diff * diff).mean().sqrt()

        err = grad_check(closure, [x, w1, b1, w2, b2])
        assert err < 1e-3


class TestTensorBasics:
    def test_invalid_backward_on_vector(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_forward_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 16)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3)).astype(np.float32)
        first = ops.conv1d(Tensor(x), Tensor(w), padding=1).data
        second = ops.conv1d(Tensor(x), Tensor(w), padding=1).data
        assert np.array_equal(first, second)

    def test_grad_accumulates_through_shared_node(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x  # x appears twice as parent
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_dtype_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_composition_length_schedule(self):
        # 6 conv/pool blocks + 1 conv/adaptive block: 168 -> ... -> 1
        rng = np.random.default_rng(2)
        h = Tensor(rng.standard_normal((1, 4, 168)).astype(np.float32))
        w_first = Tensor(rng.standard_normal((8, 4, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 8, 3)).astype(np.float32))
        lengths = []
        for block in range(7):
            h = ops.relu(ops.conv1d(h, w_first if block == 0 else w, padding=1))
            h = ops.adaptive_avgpool1d(h) if block == 6 else ops.maxpool1d(h)
            lengths.append(h.shape[-1])
        assert lengths == [84, 42, 21, 10, 5, 2, 1]
