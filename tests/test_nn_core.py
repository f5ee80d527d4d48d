"""Tests for the differentiation engine: ops, Adam, gradient checking."""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multifuture.nn import (
    AdamState,
    LayerParams,
    Tensor,
    adam_step,
    concat,
    grad_check,
    initializer,
    no_grad,
)
from multifuture.model import Forecaster, ModelConfig
from multifuture.nn import layers, ops
from multifuture.nn.tensor import _accumulate, _from_op, capture
from nn_reference import kernel_major_cols


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
        params = initializer(rng)("conv", (4, 2, 3))
        x = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
        out = ops.conv1d(x, params.weight, params.bias, padding=1)
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
            ops.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))),
                       Tensor(np.zeros(2)))


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


def _cell_value(cell):
    """A closure cell's value, or None for a cell not yet assigned."""
    try:
        return cell.cell_contents
    except ValueError:
        return None


def _saved(fn) -> dict:
    """The arrays and tensors a backward closure holds, by name (a name
    that only another branch of the op assigns is left out)."""
    cells = zip(fn.__code__.co_freevars, fn.__closure__)
    return {name: value for name, cell in cells
            if isinstance(value := _cell_value(cell), (np.ndarray, Tensor))}


def _composed_block(x, w, b, padding, pool):
    """relu(conv1d) then pooling on channels-first data: the reference."""
    h = ops.relu(ops.conv1d(x, w, b, padding=padding))
    return ops.maxpool1d(h) if pool == "max" else ops.adaptive_avgpool1d(h)


def _block_params(w, b):
    """A checkpoint-layout ``(c_out, c_in, kernel)`` conv and its bias as
    encoder_block's ``(1, kernel, c_in, c_out)`` weight and ``(1, c_out)``
    bias."""
    return np.ascontiguousarray(w.transpose(2, 1, 0))[None], b[None]


def _laid_out(rng, shape, layout, dtype):
    """A ``shape`` array in ``layout``: C-contiguous, a sliced view (offset
    start, every other channel), a transposed view or one running backwards
    in time."""
    *lead, length, channels = shape
    if layout == "contiguous":
        return rng.standard_normal(shape).astype(dtype)
    if layout == "sliced":
        return rng.standard_normal((*lead, length + 1, 2 * channels)).astype(dtype)[
            ..., 1:, ::2]
    if layout == "transposed":
        return rng.standard_normal((*lead, channels, length)).astype(dtype).swapaxes(-1, -2)
    return rng.standard_normal(shape).astype(dtype)[..., ::-1, :]


def _zero_padded(x, pad):
    xp = np.zeros((*x.shape[:-2], x.shape[-2] + 2 * pad, x.shape[-1]), x.dtype)
    xp[..., pad:pad + x.shape[-2], :] = x
    return xp


def _planned_cols_of(x, pad, kernel):
    """``ops._planned_cols``' columns of ``x`` zero-padded by
    ``ops._padded_input``, and their window-view reference."""
    xp, fill = ops._padded_input(Tensor(x), pad)
    cols, gather = ops._planned_cols(xp, kernel)
    fill()
    gather()
    return cols, kernel_major_cols(_zero_padded(x, pad), kernel)


class TestKernelMajorCols:
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           kernel=st.sampled_from([1, 3, 5]),
           length=st.integers(1, 7),
           pad=st.integers(0, 3),
           channels=st.integers(1, 4),
           layout=st.sampled_from(["contiguous", "sliced", "transposed", "reversed"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150)
    def test_matches_the_window_view_reference(self, lead, kernel, length, pad, channels,
                                               layout, dtype, seed):
        l_out = length + 2 * pad - kernel + 1
        assume(l_out >= 1)
        shape = (*lead, length, channels)  # 3-D or 4-D
        x = _laid_out(np.random.default_rng(seed), shape, layout, dtype)
        assert x.shape == shape
        before = x.copy()
        got, want = _planned_cols_of(x, pad, kernel)
        assert got.shape == want.shape == (*lead[:-1], lead[-1] * l_out, kernel * channels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous  # one row and kernel > 1: no overlapping view
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_planned_cols_follow_their_input(self, rows, kernel):
        # each gather copies the buffer's current values, so a captured step
        # that rewrites the buffer and gathers again sees the new input
        rng = np.random.default_rng(rows * 10 + kernel)
        pad = kernel // 2
        xp = np.zeros((rows, 5 + 2 * pad, 3), np.float32)
        cols, gather = ops._planned_cols(xp, kernel)
        for _ in range(2):
            xp[:, pad:pad + 5] = rng.standard_normal((rows, 5, 3))
            gather()
            want = kernel_major_cols(xp, kernel)
            assert want.any() and cols.tobytes() == want.tobytes()


class TestGatherCols:
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           length=st.integers(1, 6),
           extra=st.integers(0, 20),
           kernel=st.sampled_from([1, 3, 5]),
           channels=st.integers(1, 4),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=150)
    def test_equals_the_columns_of_the_padded_upsampled_input(
            self, lead, length, extra, kernel, channels, dtype, seed):
        # one lead axis is a shared (rows, ...) input, two a per-future one
        x = np.random.default_rng(seed).standard_normal(
            (*lead, length, channels)).astype(dtype)
        out_length, pad = length + extra, kernel // 2
        xp = _zero_padded(np.take(x, ops._nearest(length, out_length), axis=-2), pad)
        want = kernel_major_cols(xp, kernel)
        out = np.full((*lead, out_length, kernel, channels), np.nan, dtype)
        got, gather = ops._gather_cols(x, out)
        gather()
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, out)


class TestEncoderBlock:
    @pytest.mark.parametrize("pool", ["max", "mean"])
    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("batch,length", [(1, 5), (3, 21), (2, 8)])
    def test_grad_check(self, pool, kernel, batch, length):
        rng = np.random.default_rng(kernel * 100 + length)
        x = Tensor(rng.standard_normal((batch, length, 3)), requires_grad=True)
        w, b = (Tensor(a, requires_grad=True) for a in _block_params(
            rng.standard_normal((4, 3, kernel)) * 0.5, rng.standard_normal(4) * 0.1))
        out_len = length // 2 if pool == "max" else 1
        probe = Tensor(rng.standard_normal((batch, out_len, 4)))

        def closure(x, w, b):
            out = ops.encoder_block(x, w, b, pool)
            assert out.shape == (batch, out_len, 4)
            return (out * probe).sum()

        assert grad_check(closure, [x, w, b]) < 1e-3

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_grad_check_of_chained_max_blocks(self, kernel):
        # the second block reads the first's output inside its margins, and
        # both backward passes regather their columns from those buffers
        rng = np.random.default_rng(kernel)
        x = Tensor(rng.standard_normal((3, 12, 2)), requires_grad=True)
        params = [Tensor(a, requires_grad=True)
                  for c_in in (2, 4) for a in _block_params(
                      rng.standard_normal((4, c_in, kernel)) * 0.5,
                      rng.standard_normal(4) * 0.1)]
        probe = Tensor(rng.standard_normal((3, 3, 4)))

        def closure(x, w1, b1, w2, b2):
            h = ops.encoder_block(x, w1, b1, "max")
            out = ops.encoder_block(h, w2, b2, "max")
            assert np.shares_memory(h.data, _saved(out._backward_fn)["xp"])
            return (out * probe).sum()

        assert grad_check(closure, [x, *params]) < 1e-3

    @pytest.mark.parametrize("pool", ["max", "mean"])
    # ``padding`` is the reference conv1d's: kernel // 2, which the fused
    # block takes from its kernel
    @pytest.mark.parametrize("kernel,padding,length", [(3, 1, 21), (5, 2, 5),
                                                       (1, 0, 9)])
    def test_matches_composed_ops(self, pool, kernel, padding, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((3, length, 4))
        w = rng.standard_normal((5, 4, kernel))
        b = rng.standard_normal(5)
        fused = [Tensor(a.copy(), requires_grad=True) for a in (x, *_block_params(w, b))]
        ref = [Tensor(a.copy(), requires_grad=True)
               for a in (np.ascontiguousarray(x.transpose(0, 2, 1)), w, b)]
        out = ops.encoder_block(*fused, pool)
        out_ref = _composed_block(*ref, padding, pool)
        probe = rng.standard_normal(out.shape)
        (out * Tensor(probe)).sum().backward()
        (out_ref * Tensor(probe.transpose(0, 2, 1))).sum().backward()

        tol = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.data, out_ref.data.transpose(0, 2, 1),
                                   **tol)
        np.testing.assert_allclose(fused[0].grad,
                                   ref[0].grad.transpose(0, 2, 1), **tol)
        np.testing.assert_allclose(fused[1].grad[0].transpose(2, 1, 0), ref[1].grad,
                                   **tol)
        np.testing.assert_allclose(fused[2].grad[0], ref[2].grad, **tol)

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_a_block_reads_the_block_below_inside_its_margins(self, padding):
        # a block with the kernel of the block below (kernel 1, 3 or 5) reads
        # its output in place, inside zero margins of kernel // 2; any other
        # block copies it
        rng = np.random.default_rng(padding)
        x = Tensor(rng.standard_normal((2, 12, 3)), requires_grad=True)

        def block_params(c_in, kernel):
            return [Tensor(a, requires_grad=True) for a in _block_params(
                rng.standard_normal((4, c_in, kernel)), rng.standard_normal(4))]

        w1, b1 = block_params(3, 2 * padding + 1)
        same, other = block_params(4, 2 * padding + 1), block_params(4, 5 - 2 * padding)
        h = ops.encoder_block(x, w1, b1, "max")
        rebound = ops.encoder_block(x, w1, b1, "max")
        rebound.data = rebound.data * 2  # no longer the data inside its margins
        for below, (w2, b2) in [(h, same), (h, other), (rebound, same)]:
            got = ops.encoder_block(below, w2, b2, "mean")
            want = ops.encoder_block(Tensor(below.data.copy()), w2, b2, "mean")
            assert got.data.tobytes() == want.data.tobytes()
        assert np.shares_memory(h.data, h._padded)
        assert not h._padded[:, :padding].any()
        assert not h._padded[:, padding + h.shape[1]:].any()
        ops.encoder_block(h, *same, "mean").sum().backward()
        assert x.grad.any() and w1.grad.any()

    def test_tie_routes_to_first(self):
        # identity kernel: the pre-activations are the input itself
        x = Tensor(np.array([[[2.0], [2.0], [1.0], [3.0]]]), requires_grad=True)
        w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        b = Tensor(np.zeros((1, 1)), requires_grad=True)
        out = ops.encoder_block(x, w, b, "max")
        np.testing.assert_array_equal(out.data, [[[2.0], [3.0]]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[[1.0], [0.0], [0.0], [1.0]]])

    def test_negative_window_gets_no_gradient(self):
        x = Tensor(np.array([[[-1.0], [-2.0], [0.5], [-3.0]]]),
                   requires_grad=True)
        w = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        b = Tensor(np.zeros((1, 1)), requires_grad=True)
        out = ops.encoder_block(x, w, b, "max")
        np.testing.assert_array_equal(out.data, [[[0.0], [0.5]]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[[0.0], [0.0], [1.0], [0.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", ["max", "mean"])
    def test_dtype_preserved(self, dtype, pool):
        rng = np.random.default_rng(0)
        tensors = [Tensor(rng.standard_normal(shape).astype(dtype),
                          requires_grad=True)
                   for shape in ((2, 10, 3), (1, 3, 3, 4), (1, 4))]
        out = ops.encoder_block(*tensors, pool)
        assert out.dtype == dtype
        out.sum().backward()
        assert all(t.grad.dtype == dtype for t in tensors)

    def test_bad_arguments_raise(self):
        x = Tensor(np.zeros((1, 4, 2)))
        w, b = Tensor(np.zeros((1, 3, 2, 3))), Tensor(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="weight"):  # checkpoint layout
            ops.encoder_block(x, Tensor(np.zeros((3, 2, 3))), b, "max")
        with pytest.raises(ValueError, match="bias"):
            ops.encoder_block(x, w, Tensor(np.zeros(3)), "max")
        with pytest.raises(ValueError, match="pool"):
            ops.encoder_block(x, w, b, "sum")
        with pytest.raises(ValueError, match="channels"):
            ops.encoder_block(Tensor(np.zeros((1, 4, 5))), w, b, "max")
        with pytest.raises(ValueError, match="channels"):
            ops.encoder_block(Tensor(np.zeros((4, 2))), w, b, "max")
        with pytest.raises(ValueError, match="kernel must be odd"):
            ops.encoder_block(x, Tensor(np.zeros((1, 2, 2, 3))), b, "max")
        with pytest.raises(ValueError, match="at least 2"):
            ops.encoder_block(Tensor(np.zeros((1, 1, 2))), w, b, "max")


def _decoder_chain(x, per_future, out_length):
    """The reference for two stacked_conv layers, one future at a time:
    tconv1d, crop, relu and upsample_nearest, then a padded conv1d, on
    channels-first data.  ``per_future`` holds each future's
    :class:`LayerParams` for the block and for the output conv."""
    blocks, outs = per_future
    futures = []
    for j, (block, output) in enumerate(zip(blocks, outs)):
        h = (x if x.ndim == 3 else x[j]).swapaxes(1, 2)
        crop = block.weight.shape[2] // 2
        h = ops.tconv1d(h, block.weight, block.bias)[:, :, crop:-crop]
        h = ops.upsample_nearest(ops.relu(h), out_length)
        h = ops.conv1d(h, output.weight, output.bias,
                       padding=output.weight.shape[2] // 2)
        h = h.swapaxes(1, 2)
        futures.append(h.reshape(1, *h.shape))
    return concat(futures)


def _stacked(per_future):
    """The case's layers in one parameter table, stored as a tconv decoder
    stores them: the block with reversed kernels, the output conv as it
    is.  The table takes copies of the bundles, so the reference keeps its
    own tensors."""
    served = {p.name: p for layer in per_future for p in layer}
    table = layers.Parameters(lambda name, *_: replace(served[name]))
    blocks, outs = ([table.take(p.name, p.weight.shape) for p in layer]
                    for layer in per_future)
    table.stack(blocks, flip=True)
    table.stack(outs)
    return table


def _stacked_chain(x, table, out_length):
    block_w, block_b, output_w, output_b = table.parameters()
    h = ops.stacked_conv(x, block_w, block_b, relu=True)
    return ops.stacked_conv(h, output_w, output_b, out_length)


def _decoder_case(seed, f, batch, kernel, shared, length=16, channels=3):
    """Input, per-future layers (random non-zero biases) and an output
    probe in which future 0 has no non-zero row and future 1 only some."""
    rng = np.random.default_rng(seed)
    x_shape = (batch, length, channels) if shared else (f, batch, length, channels)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    per_future = []
    for layer, c_out in (("block", channels), ("output", 2)):
        weights = [rng.standard_normal((c_out, channels, kernel)) * 0.5
                   for _ in range(f)]
        biases = [rng.standard_normal(c_out) * 0.1 for _ in range(f)]
        per_future.append([LayerParams(f"{layer}{j}", Tensor(w, requires_grad=True),
                                       Tensor(b, requires_grad=True))
                           for j, (w, b) in enumerate(zip(weights, biases))])
    probe = rng.standard_normal((f, batch, 24, 2))
    probe[0] = 0.0
    probe[1, :batch // 2] = 0.0
    return x, per_future, Tensor(probe)


def _per_future_grads(table):
    """Each bundle's weight and bias gradient in its checkpoint layout, read
    through the same views that name the stored parameters (which this
    overwrites with their gradients)."""
    for t in table.parameters():
        t.data[...] = t.grad
    return [t.data for _, t in table.named_tensors()]


def _normal_table(rng):
    """A parameter table that draws standard-normal weights and biases."""
    return layers.Parameters(lambda name, shape, bias=True: LayerParams(
        name, Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape[:1]))))


class TestParameters:
    def test_a_name_taken_twice_is_rejected(self):
        table = layers.Parameters(initializer(np.random.default_rng(0)))
        table.take("conv", (2, 1, 3))
        with pytest.raises(ValueError, match="'conv' is taken twice"):
            table.take("conv", (2, 1, 3))


class TestStackedConv:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("kernel", [3, 5])
    def test_grad_check(self, kernel, shared):
        x, per_future, probe = _decoder_case(kernel, 3, 2, kernel, shared)
        table = _stacked(per_future)

        def closure(*_):
            return (_stacked_chain(x, table, 24) * probe).sum()

        assert grad_check(closure, [x] + table.parameters()) < 1e-6

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("kernel", [3, 5])
    def test_upsampled_input_grad_check(self, kernel, shared):
        # the input gradient is formed at out_length and folded back to the
        # input length; random non-zero biases keep pre-activations off 0
        rng = np.random.default_rng(20 + kernel)
        x = Tensor(rng.standard_normal((2, 4, 3) if shared else (3, 2, 4, 3)),
                   requires_grad=True)
        table = _normal_table(rng)
        layer = table.stack([table.take(f"p{i}", (2, 3, kernel)) for i in range(3)])
        probe = rng.standard_normal((3, 2, 11, 2))
        probe[1, 0] = 0.0

        def closure(*_):
            return (ops.stacked_conv(x, layer.weight, layer.bias, 11, relu=True)
                    * Tensor(probe)).sum()

        assert grad_check(closure, [x, layer.weight, layer.bias]) < 1e-6

    def test_uneven_groups_give_the_bits_of_one_group(self, monkeypatch):
        # f=12 futures in groups of 7 and 5 (the block) and of 5, 5 and 2
        # (the upsampling output conv), against one group per layer
        groups = []
        kernel_fn = ops._stacked_conv_kernel

        def recording_kernel(cols, weight, *args):
            groups.append(len(weight))
            kernel_fn(cols, weight, *args)

        monkeypatch.setattr(ops, "_stacked_conv_kernel", recording_kernel)
        runs = []
        output_future_bytes = 4 * 24 * 3 * 3 * 8  # batch * out_length * kernel * c_in
        for group_bytes in (1 << 40, 5 * output_future_bytes):
            monkeypatch.setattr(ops, "_GROUP_BYTES", group_bytes)
            x, per_future, probe = _decoder_case(6, 12, 4, 3, shared=False)
            table = _stacked(per_future)
            out = _stacked_chain(x, table, 24)
            (out * probe).sum().backward()
            runs.append([out.data, x.grad] + [t.grad for t in table.parameters()])
        assert groups == [12, 12, 7, 5, 5, 5, 2]
        for one_group, grouped in zip(*runs, strict=True):
            assert one_group.dtype == grouped.dtype == np.float64
            assert np.array_equal(one_group.view(np.int64), grouped.view(np.int64))

    def test_empty_batch_gathers_no_columns(self):
        # a per-future upsampled input with no rows: no group size to divide by
        x, per_future, _ = _decoder_case(6, 12, 0, 3, shared=False)
        out = _stacked_chain(x, _stacked(per_future), 24)
        assert out.shape == (12, 0, 24, 2)

    def test_linear_weights_grad_check(self):
        # (f, out, in) weights act as kernel-1 convs, on a shared length-1
        # input and on a per-future input upsampled from length 2 to 3
        for shared, length, out_length in [(True, 1, None), (False, 2, 3)]:
            rng = np.random.default_rng(1)
            h = Tensor(rng.standard_normal((3, length, 4) if shared
                                           else (2, 3, length, 4)), requires_grad=True)
            table = _normal_table(rng)
            linears = table.stack([table.take(f"linear{i}", (5, 4)) for i in range(2)])
            probe = Tensor(rng.standard_normal((2, 3, out_length or length, 5))
                           * np.array([1.0, 0.0, 1.0])[None, :, None, None])

            def closure(*_):
                return (ops.stacked_conv(h, linears.weight, linears.bias, out_length,
                                         relu=True) * probe).sum()

            assert grad_check(closure, [h, linears.weight, linears.bias]) < 1e-6

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("kernel", [3, 5])
    def test_matches_per_future_reference(self, kernel, shared):
        x, per_future, probe = _decoder_case(10 + kernel, 3, 4, kernel, shared)
        table = _stacked(per_future)
        out = _stacked_chain(x, table, 24)
        (out * probe).sum().backward()
        got = [out.data, x.grad] + _per_future_grads(table)
        x, per_future, probe = _decoder_case(10 + kernel, 3, 4, kernel, shared)
        out = _decoder_chain(x, per_future, 24)
        (out * probe).sum().backward()
        expected = [out.data, x.grad] + [t.grad for layer in per_future
                                         for p in layer for t in (p.weight, p.bias)]
        for a, b in zip(got, expected, strict=True):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_future_without_gradient_does_no_backward_work(self):
        # NaN activations in future 0 would poison every gradient they
        # reach; its zero output gradient must keep them out entirely
        results = []
        for poison in (False, True):
            x, per_future, probe = _decoder_case(3, 3, 4, 3, shared=False)
            table = _stacked(per_future)
            if poison:
                x.data[0] = np.nan
            (_stacked_chain(x, table, 24) * probe).sum().backward()
            results.append([t.grad for t in [x] + table.parameters()])
        clean, poisoned = results
        for got, expected in zip(poisoned, clean):
            assert np.array_equal(got, expected)
        for t in poisoned:
            assert not t[0].any()

    @pytest.mark.parametrize("linear", [False, True])
    def test_future_without_rows_gets_a_zero_gradient_slice(self, linear):
        # the slice Tensor.backward would give an unreached per-future leaf
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        shape = (5, 4) if linear else (5, 4, 3)
        table = _normal_table(rng)
        layer = table.stack([table.take(f"p{i}", shape) for i in range(3)])
        probe = rng.standard_normal((3, 3, 2, 5))
        probe[1] = 0.0
        (ops.stacked_conv(x, layer.weight, layer.bias) * Tensor(probe)).sum().backward()
        for param in (layer.weight, layer.bias):
            assert param.grad.shape == param.shape and param.grad[[0, 2]].all()
            assert np.array_equal(param.grad[1], np.zeros_like(param.grad[1]))

    def test_bad_arguments_raise(self):
        x = Tensor(np.zeros((2, 1, 4, 3)))
        w = Tensor(np.zeros((2, 3, 3, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="channels"):
            ops.stacked_conv(Tensor(np.zeros((2, 1, 4, 5))), w, b)
        with pytest.raises(ValueError, match="channels"):
            ops.stacked_conv(x, Tensor(np.zeros((2, 3, 5))), b)
        with pytest.raises(ValueError, match="input"):
            ops.stacked_conv(Tensor(np.zeros((3, 1, 4, 3))), w, b)
        with pytest.raises(ValueError, match="bias"):
            ops.stacked_conv(x, w, Tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError, match="weight"):
            ops.stacked_conv(x, Tensor(np.zeros((2, 3))), b)
        with pytest.raises(ValueError, match="odd"):
            ops.stacked_conv(x, Tensor(np.zeros((2, 2, 3, 3))), b)
        with pytest.raises(ValueError, match="out_length"):
            ops.stacked_conv(x, w, b, 3)


def _separate_layers(x, layers, out_lengths):
    """:func:`ops.conv_stack`'s layers as one ``stacked_conv`` node each."""
    for i, ((weight, bias), out_length) in enumerate(zip(layers, out_lengths)):
        x = ops.stacked_conv(x, weight, bias, out_length, relu=i < len(layers) - 1)
    return x


class TestConvStack:
    """The tconv decoder's layers as one node, back-propagated on the
    (future, row) pairs that carry gradient."""

    DEAD_ROW = 1  # its input is zero, so future 0's first two ReLUs zero it

    def _case(self, dtype):
        """A tiny tconv decoder's layers and lengths, its ``(batch, 1,
        channels)`` input and an oracle-style output gradient: each row's
        winner only, and future 1 wins no row.  Future 0 wins ``DEAD_ROW``,
        whose first two hidden layers are all zero (negative biases on a
        zero input), so that pair's gradient ends partway down."""
        cfg = ModelConfig(n_p=8, n_h=16, d=2, f=3, channels=4, variant="tconv_decoder")
        decoder = Forecaster(cfg, seed=3, dtype=dtype).members[0].shape_decoder
        layers = [tuple(layer) for layer in decoder.layers]
        rng = np.random.default_rng(5)
        for weight, bias in layers:  # keep every pre-activation off zero
            bias.data[...] = rng.uniform(0.05, 0.2, bias.shape)
        for _, bias in layers[:2]:
            bias.data[0] = -0.05
        h = rng.standard_normal((4, 1, cfg.channels)) * 5
        h[self.DEAD_ROW] = 0.0
        winners = np.array([0, 0, 2, 2])
        probe = rng.standard_normal((cfg.f, 4, cfg.n_h, cfg.d))
        probe *= (np.arange(cfg.f)[:, None] == winners)[:, :, None, None]
        return (Tensor(h.astype(dtype), requires_grad=True), layers,
                [None, *decoder.length_schedule()], Tensor(probe.astype(dtype)))

    def test_the_case_drops_a_live_pair_partway_down(self):
        h, layers, lengths, probe = self._case(np.float64)
        with no_grad():
            for layer, length in zip(layers[:2], lengths):
                h = ops.stacked_conv(h, *layer, length, relu=True)
        second = h.data
        assert not second[0, self.DEAD_ROW].any() and second[0].any()
        assert probe.data[0, self.DEAD_ROW].any()  # a live pair at the output

    def test_grad_check(self):
        h, layers, lengths, probe = self._case(np.float64)

        def closure(*_):
            return (ops.conv_stack(h, layers, lengths) * probe).sum()

        params = [t for layer in layers for t in layer]
        assert grad_check(closure, [h, *params]) < 1e-6

    def test_a_future_without_live_rows_gets_exactly_zero_slices(self):
        h, layers, lengths, probe = self._case(np.float64)
        (ops.conv_stack(h, layers, lengths) * probe).sum().backward()
        for weight, bias in layers:
            for param in (weight, bias):
                assert param.grad.shape == param.shape
                assert not param.grad[1].any() and param.grad[[0, 2]].any()

    def test_gradients_are_the_separate_layers_bits(self):
        runs = []
        for op in (ops.conv_stack, _separate_layers):
            h, layers, lengths, probe = self._case(np.float32)
            out = op(h, layers, lengths)
            (out * probe).sum().backward()
            runs.append([out.data, h.grad] + [t.grad for layer in layers for t in layer])
        for stacked, separate in zip(*runs, strict=True):
            assert stacked.dtype == separate.dtype == np.float32
            assert np.array_equal(stacked.view(np.int32), separate.view(np.int32))

    def test_an_input_without_gradient_leaves_the_weights_their_bits(self):
        # conv_stack, and stacked_conv alone, skip the input gradient of an
        # input that needs none
        grads = []
        for input_grad in (True, False):
            h, layers, lengths, probe = self._case(np.float32)
            h.requires_grad = input_grad
            (ops.conv_stack(h, layers, lengths) * probe).sum().backward()
            stacked = [t.grad for layer in layers for t in layer]
            for t in layers[0]:
                t.grad = None
            ops.stacked_conv(h, *layers[0], relu=True).sum().backward()
            grads.append([g.tobytes() for g in stacked + [t.grad for t in layers[0]]])
            assert (h.grad is not None) == input_grad
        assert grads[0] == grads[1]

    def test_backward_frees_the_hidden_outputs(self):
        h, layers, lengths, probe = self._case(np.float32)
        out = ops.conv_stack(h, layers, lengths)
        fn = out._backward_fn
        cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
        hidden = [weakref.ref(a) for a in cells["hidden"].cell_contents]
        assert len(hidden) == len(layers) - 1 and all(ref() is not None for ref in hidden)
        (out * probe).sum().backward()
        assert all(ref() is None for ref in hidden)

    def test_no_grad_keeps_no_hidden_output(self):
        h, layers, lengths, _ = self._case(np.float32)
        with no_grad():
            out = ops.conv_stack(h, layers, lengths)
        assert out._backward_fn is None and out._parents == ()
        assert out.data.tobytes() == _separate_layers(h, layers, lengths).data.tobytes()


class TestNoGradParity:
    """Under ``no_grad`` an op computes no backward-only state and keeps no
    closure, and its output equals the grad-mode output bit for bit."""

    @staticmethod
    def _check(op, *args):
        graph = op(*args)
        with no_grad():
            plain = op(*args)
        assert graph._backward_fn is not None and graph._parents
        assert plain._backward_fn is None and plain._parents == ()
        assert not plain.requires_grad
        assert plain.dtype == graph.dtype and plain.shape == graph.shape
        assert plain.data.tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("pool", ["max", "mean"])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_encoder_block(self, pool, kernel):
        rng = np.random.default_rng(kernel)
        x = Tensor(rng.standard_normal((2, 9, 3)).astype(np.float32), requires_grad=True)
        w, b = (Tensor(a.astype(np.float32), requires_grad=True) for a in _block_params(
            rng.standard_normal((4, 3, kernel)), rng.standard_normal(4)))
        self._check(ops.encoder_block, x, w, b, pool)

    @pytest.mark.parametrize("out_length", [None, 11])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("shape", [(5, 4), (5, 4, 1), (5, 4, 3)],
                             ids=["linear", "kernel1", "kernel3"])
    def test_stacked_conv(self, shape, shared, out_length):
        rng = np.random.default_rng(len(shape))
        table = _normal_table(rng)
        layer = table.stack([table.take(f"p{i}", shape) for i in range(3)])
        x = Tensor(rng.standard_normal((2, 6, 4) if shared else (3, 2, 6, 4)),
                   requires_grad=True)
        for relu in (False, True):
            self._check(lambda *a: ops.stacked_conv(*a, relu=relu),
                        x, layer.weight, layer.bias, out_length)


class TestStackedMatmul:
    @staticmethod
    def _case(seed):
        """Input, stacked weights and an output probe in which group 1 has
        no non-zero entry and group 2 only some."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 5, 6)), requires_grad=True)
        probe = rng.standard_normal((3, 4, 6))
        probe[1] = 0.0
        probe[2, :2] = 0.0
        return x, weight, Tensor(probe)

    def test_grad_check(self):
        x, weight, probe = self._case(0)

        def closure(*_):
            return (ops.stacked_matmul(x, weight) * probe).sum()

        assert grad_check(closure, [x, weight]) < 1e-6
        # group 1 gets no output gradient, so its weight slice gets an exact zero
        assert not weight.grad[1].any() and not x.grad[1].any()

    def test_matches_per_group_matmul(self):
        x, weight, probe = self._case(1)
        out = ops.stacked_matmul(x, weight)
        (out * probe).sum().backward()
        got = [out.data, x.grad, weight.grad]
        x, weight, probe = self._case(1)
        weights = [Tensor(w, requires_grad=True) for w in weight.data]
        out = concat([(x[g] @ w).reshape(1, 4, 6) for g, w in enumerate(weights)])
        (out * probe).sum().backward()
        expected = [out.data, x.grad, np.stack([w.grad for w in weights])]
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_saturated_softmax_gives_no_subnormal_template_gradient(self):
        # p = (1, e^-87, e^-100, 0) in float32 mixes a bank; e^-87 times
        # the output gradient is subnormal unless flushed
        logits = Tensor(np.array([[[0.0, -87.0, -100.0, -200.0]]], dtype=np.float32),
                        requires_grad=True)
        bank = Tensor(np.full((1, 4, 3), 0.5, dtype=np.float32), requires_grad=True)
        probe = Tensor(np.full((1, 1, 3), 1e-3, dtype=np.float32))
        (ops.stacked_matmul(ops.softmax(logits), bank) * probe).sum().backward()
        tiny = np.finfo(np.float32).tiny
        assert bank.grad.dtype == np.float32
        assert np.all((bank.grad == 0) | (np.abs(bank.grad) >= tiny))
        np.testing.assert_array_equal(bank.grad[0, 0], np.float32(1e-3))

    def test_bad_arguments_raise(self):
        w = Tensor(np.zeros((2, 5, 6)))
        for x, weight in [(np.zeros((3, 4, 5)), w),        # 3 groups, 2 weights
                          (np.zeros((2, 4, 3)), w),        # inner 3 against 5
                          (np.zeros((4, 5)), w),           # no group axis
                          (np.zeros((2, 4, 5)), Tensor(np.zeros((2, 5))))]:
            with pytest.raises(ValueError, match="cannot multiply"):
                ops.stacked_matmul(Tensor(x), weight)


class TestCrossEntropy:
    def test_grad_check(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 3)),
                        requires_grad=True)
        labels = np.array([0, 2, 1, 2])
        assert grad_check(lambda t: ops.cross_entropy(t, labels), [logits]) < 1e-6

    def test_hand_value(self):
        # -log softmax: log(1 + e + e^2) for label 0 of [0, 1, 2], log 3 for
        # any label of a uniform row
        loss = ops.cross_entropy(Tensor(np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])),
                                 [0, 1])
        np.testing.assert_allclose(float(loss.data),
                                   np.log(1 + np.e + np.e ** 2) + np.log(3.0),
                                   rtol=1e-12)

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError, match="2-D"):
            ops.cross_entropy(Tensor(np.zeros(3)), [0])
        with pytest.raises(ValueError, match="one integer per batch row"):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1, 2])


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


class TestGraphRelease:
    """backward() releases the graph it walks: each step of training holds
    one graph, not the last step's as well."""

    @staticmethod
    def _block_graph():
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 8, 3)), requires_grad=True)
        w, b = (Tensor(a, requires_grad=True)
                for a in _block_params(rng.standard_normal((4, 3, 3)),
                                       rng.standard_normal(4)))
        hidden = ops.encoder_block(x, w, b, "max")
        return (x, w, b), hidden, (hidden * hidden).sum()

    def test_a_non_leaf_drops_its_gradient(self):
        _, hidden, loss = self._block_graph()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert hidden._parents == () and loss._parents == ()

    def test_leaves_keep_their_gradients(self):
        leaves, _, loss = self._block_graph()
        loss.backward()
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
            assert np.any(leaf.grad != 0)

    def test_the_arrays_an_op_saved_are_freed(self):
        _, hidden, loss = self._block_graph()
        right_wins = weakref.ref(_saved(hidden._backward_fn)["right_wins"])
        assert right_wins() is not None
        loss.backward()
        assert right_wins() is None

    def test_encoder_blocks_save_no_im2col_columns(self):
        # each block's backward regathers its (rows, kernel * c_in) columns
        # from the padded input the graph holds anyway
        cfg = ModelConfig(n_p=32, n_h=8, d=2, f=2, n_s=2, channels=4)
        windows = np.random.default_rng(0).standard_normal((3, cfg.n_p, cfg.d))
        loss = Forecaster(cfg, seed=0).forward_tensors(windows).futures.sum()
        blocks, work, seen = [], [loss], set()
        while work:
            node = work.pop()
            if id(node) not in seen:
                seen.add(id(node))
                work.extend(node._parents)
                if node._backward_fn is not None and (
                        node._backward_fn.__qualname__ == "encoder_block.<locals>.bwd"):
                    blocks.append(_saved(node._backward_fn))
        assert len(blocks) == 2 * cfg.encoder_blocks  # both towers
        for saved in blocks:
            _, kernel, c_in, c_out = saved["weight"].shape
            assert kernel * c_in != c_out
            assert all(a.shape[-1] != kernel * c_in for a in saved.values()), \
                {name: a.shape for name, a in saved.items()}

    def test_a_relu_layer_saves_no_mask(self):
        # stacked_conv's ReLU backward reads its output on the winning rows
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4, 6)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        out = ops.stacked_conv(x, w, b, relu=True)
        assert all(a.dtype != bool for a in _saved(out._backward_fn).values()
                   if isinstance(a, np.ndarray))

    def test_a_second_backward_raises(self):
        _, hidden, loss = self._block_graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            (hidden * 2.0).sum().backward()  # a new graph on a released node


class TestAdam:
    def _params(self, value):
        return [Tensor(np.array([value], dtype=np.float64), requires_grad=True)]

    def test_zero_gradient_is_noop(self):
        params = self._params(1.5)
        params[0].grad = np.zeros(1)
        state = AdamState.init(params)
        adam_step(params, state)
        np.testing.assert_allclose(params[0].data, [1.5])
        assert state.step_count == 1

    def test_first_step_hand_value(self):
        # m_hat = v_hat = 1 after bias correction, so the step is
        # lr / (1 + eps) exactly.
        params = self._params(0.0)
        params[0].grad = np.ones(1)
        state = AdamState.init(params)
        adam_step(params, state)
        expected = -1e-3 / (1.0 + 1e-8)
        np.testing.assert_allclose(params[0].data, [expected], rtol=1e-12)

    def test_constant_gradient_monotone(self):
        params = self._params(0.0)
        state = AdamState.init(params)
        previous = 0.0
        for _ in range(10):
            params[0].grad = np.ones(1)
            adam_step(params, state)
            assert params[0].data[0] < previous
            previous = params[0].data[0]

    def test_missing_gradient_raises(self):
        params = self._params(0.0)
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(params, state)

    def test_state_of_other_parameters_rejected(self):
        params = self._params(0.0)
        params[0].grad = np.ones(1)
        state = AdamState.init(params)
        with pytest.raises(ValueError, match="parameter list does not match"):
            adam_step(params + self._params(1.0), state)
        wider = [Tensor(np.zeros(2), requires_grad=True)]
        wider[0].grad = np.ones(2)
        with pytest.raises(ValueError, match="state shapes do not match"):
            adam_step(wider, state)
        assert state.step_count == 0 and params[0].data[0] == 0.0

    def test_a_frozen_tensor_is_left_alone(self):
        params = self._params(0.0) + [Tensor(np.array([2.0]))]
        params[0].grad = np.ones(1)
        adam_step(params, AdamState.init(params))
        assert params[0].data[0] < 0 and params[1].data[0] == 2.0

    def test_grads_zeroed_after_step(self):
        params = self._params(0.0)
        params[0].grad = np.ones(1)
        adam_step(params, AdamState.init(params))
        assert params[0].grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_the_textbook_update_bit_for_bit(self, dtype):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (7,), (2, 2, 5)]
        params = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                  for s in shapes]
        expected = [p.data.copy() for p in params]
        m, v = [np.zeros_like(e) for e in expected], [np.zeros_like(e) for e in expected]
        state = AdamState.init(params)
        b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
        for step in range(1, 5):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            adam_step(params, state)
            for e, mi, vi, g in zip(expected, m, v, grads):
                mi *= b1
                mi += (1.0 - b1) * g
                vi *= b2
                vi += (1.0 - b2) * (g * g)
                e -= lr * (mi / (1.0 - b1 ** step)) / (
                    np.sqrt(vi / (1.0 - b2 ** step)) + eps)
            for p, e in zip(params, expected):
                assert p.data.tobytes() == e.tobytes()
        assert [buf.shape for buf in state.scratch.values()] == [(2, 20)]

    def test_defaults(self):
        state = AdamState.init(self._params(0.0))
        assert (state.learning_rate, state.beta1, state.beta2, state.epsilon) \
            == (1e-3, 0.9, 0.999, 1e-8)


class TestGradCheck:
    def test_inputs_must_be_tensors(self):
        with pytest.raises(TypeError, match="inputs must be Tensors"):
            grad_check(lambda t: t.sum(), [np.ones(2)])

    def test_quadratic_is_exact(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: (t * t).sum(), [x])
        assert err < 1e-6

    def test_relu_at_zero_excluded(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        err = grad_check(lambda t: ops.relu(t).sum(), [x])
        assert err < 1e-6

    def test_a_gradient_two_percent_off_fails(self):
        # sin's backward scaled by 1.02 (and, as a control, unscaled) on a
        # smooth function with no kink for the filter to skip
        x = Tensor(np.linspace(-1.0, 1.0, 7), requires_grad=True)
        probe = Tensor(np.linspace(1.0, 2.0, 7))

        def sine(scale):
            def op(t):
                def bwd(g):
                    _accumulate(t, scale * g * np.cos(t.data), owned=True)

                return _from_op(np.sin(t.data), (t,), bwd)

            return lambda t: (op(t) * probe).sum()

        assert grad_check(sine(1.0), [x]) < 1e-6
        assert grad_check(sine(1.02), [x]) > 1e-3

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

    def test_concat_skips_graph_behind_zero_piece(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]), requires_grad=True)
        scaled_b = b * 3.0
        joined = concat([a * 2.0, scaled_b])
        np.testing.assert_array_equal(joined.data, [[2, 4], [9, 12], [15, 18]])
        (joined * Tensor(np.array([[1.0], [0.0], [0.0]]))).sum().backward()
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])
        assert scaled_b.grad is None  # its backward closure never ran
        np.testing.assert_array_equal(b.grad, np.zeros((2, 2)))
        assert concat([a]) is a

    def test_swapaxes_gradient(self):
        x = Tensor(np.arange(6.0).reshape(1, 2, 3), requires_grad=True)
        probe = Tensor(np.arange(6.0).reshape(3, 2, 1) + 1)
        assert grad_check(lambda t: (t.swapaxes(0, 2) * probe).sum(), [x]) < 1e-9

    def test_reference_ops_take_their_documented_arguments(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        assert repr(x) == "Tensor(shape=(2, 3), requires_grad=True)"
        (x @ np.ones((3, 1))).reshape((2,)).sum().backward()  # an array operand
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        x.grad = None
        (x.sum(axis=0) * Tensor(np.array([1.0, 2.0, 3.0]))).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1, 2, 3], [1, 2, 3]])
        with pytest.raises(ValueError, match="matmul expects 2-D operands"):
            x @ Tensor(np.ones(3))
        with pytest.raises(ValueError, match=r"expected 2-D or 3-D input, got shape \(1, 1, 2, 3\)"):
            ops.conv1d(Tensor(np.ones((1, 1, 2, 3))), Tensor(np.ones((1, 2, 1))))

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


class TestCapture:
    def test_replayed_steps_recompute_the_outputs(self):
        # a reshape is a view of its input; a swapaxes that copies records a
        # step; a rebound weight is read through its tensor
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 4, 5)))

        def forward(x):
            return ops.softmax(ops.stacked_matmul(x, w).reshape(2, 15)).swapaxes(0, 1)

        with capture() as recorded:
            out = forward(x)
        new = rng.standard_normal(x.shape)
        x.data[...] = new
        w.data = w.data * 2
        for step in recorded.steps:
            step()
        with no_grad():
            want = forward(Tensor(new))
        assert len(recorded.steps) == 3
        assert out.data.tobytes() == want.data.tobytes()

    def test_an_array_without_a_recorded_step_raises(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((1, 3)))
        with capture():
            with pytest.raises(RuntimeError, match="without a recorded step"):
                concat([a, b])
            with pytest.raises(RuntimeError, match="without a recorded step"):
                a + b
        assert (a + b).shape == (2, 3)  # outside capture, as before

    def test_the_union_encoder_is_not_captured_silently(self):
        # the max-pool blocks over overlapping windows run outside any op's
        # step, so a replay would reuse their input to the last block
        model = Forecaster(ModelConfig(n_p=8, n_h=4, d=2, f=2, n_s=2, channels=2), seed=0)
        series = np.random.default_rng(0).standard_normal((11, 2)).astype(np.float32)
        windows = np.lib.stride_tricks.sliding_window_view(series, 8, axis=0).swapaxes(1, 2)
        assert windows.shape == (4, 8, 2)
        with capture(), pytest.raises(RuntimeError, match="without a recorded step"):
            model.forward_tensors(windows)
