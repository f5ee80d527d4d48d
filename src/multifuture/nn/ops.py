"""Differentiable neural-network operations.

The models pass each op the stored tensors of a
:class:`~multifuture.nn.layers.StackedLayer`: one layer of ``g`` bundles,
already in the layout the op's GEMM reads, so no call copies a weight.
The encoders run :func:`encoder_block`, conv1d + ReLU + pooling fused
into one op on channels-last ``(batch, length, channels)`` data with a
hand-written backward pass.  Fusing keeps one intermediate and one
backward closure per block instead of three, which is what keeps full
training runs at desk scale.  Every decoder runs all of its futures at
once on a leading axis: :func:`stacked_conv` runs one layer per future as
one batched GEMM (the tconv decoder's layers and, as kernel-1
convolutions, every linear map), and :func:`stacked_matmul` mixes the
bank decoders' templates.  Their backward passes skip what gets no
gradient, so under an oracle loss only each row's winning future does
backward work.

The forward arithmetic of :func:`encoder_block`, :func:`stacked_conv`,
:func:`softmax` and :func:`stacked_matmul` is one step per call, run by
``nn.tensor._run``: it fills the op's im2col columns and runs the op's
private kernel on buffers the op allocated, reading each weight through
its tensor.  :class:`~multifuture.nn.tensor.capture` records the steps,
and a model serves one window by replaying those of its own forward pass
(``multifuture.model``), bit-identical to the ops and without a tensor,
closure or argument check per layer.

:func:`encoder_block` reads its input inside zero margins: a max-pool
block writes its output into such a buffer, which a next block with the
same kernel reads in place, and any other input is copied into one.
The im2col columns are copied from a read-only window view of that
buffer, built from its strides (:func:`_planned_cols`);
``sliding_window_view``'s argument checks cost more than a batch-1 GEMM.
The graph holds that buffer anyway, so the backward pass copies the
columns again instead of keeping them, ``kernel`` times the input's size.
:func:`stacked_conv` upsamples its input before it convolves, so a
layer's nearest upsampling, zero padding and im2col window are one
``np.take`` of the layer below's output (:func:`_gather_cols`), run on
groups of whole futures whose columns fit ``_GROUP_BYTES``; a
C-contiguous kernel-1 input without upsampling is its own columns.  When
an op's output will keep no backward closure (under
:class:`~multifuture.nn.tensor.no_grad`, or when no input requires grad:
the predicate ``_from_op`` applies), the op computes none of the masks
only its backward pass reads, so a batch served through the ops pays for
little beyond the forward arithmetic.

A no-grad batch of windows that overlap in one series skips
:func:`encoder_block` for an encoder's max-pool blocks:
:func:`_union_max_blocks` runs them on the union of the windows' rows
(the "fragments" of dense max-pooling CNN scanning; Giusti et al.,
"Fast Image Scanning with Deep Max-Pooling Convolutional Neural
Networks", ICIP 2013).  Each block is one gather of im2col columns from
a table of distinct rows, one GEMM plus the bias, two gathers, a max and
a ReLU (:func:`_union_block_kernel`), on index maps that
:func:`_union_plan` caches per shape.  It adds no arithmetic of its own,
so its output is bit-identical to the block-by-block pass.

The reference ops (:func:`conv1d`, :func:`tconv1d`, :func:`relu`,
:func:`maxpool1d`, :func:`adaptive_avgpool1d`, :func:`linear`,
:func:`upsample_nearest` and the tensor ``@``) take
checkpoint-layout weights on channels-first ``(channels, length)`` or
``(batch, channels, length)`` data; the fused and stacked ops are tested
against them.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .tensor import Tensor, _accumulate, _builds_graph, _from_op, _run

__all__ = [
    "relu",
    "softmax",
    "conv1d",
    "tconv1d",
    "maxpool1d",
    "adaptive_avgpool1d",
    "encoder_block",
    "stacked_conv",
    "stacked_matmul",
    "linear",
    "upsample_nearest",
    "cross_entropy",
]


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); subgradient 0 at exactly zero."""
    mask = x.data > 0
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        _accumulate(x, g * mask, owned=True)

    return _from_op(out_data, (x,), bwd)


def _flush_tiny(grad: np.ndarray) -> np.ndarray:
    """``grad`` with its entries below ``tiny / eps`` in magnitude zeroed.

    Saturated softmax probabilities give gradients at the edge of the
    subnormal range, and subnormal operands slow down every GEMM they
    reach.  The threshold (about 1e-31 in float32) is far too small to move
    an Adam step; flushing only below ``tiny`` would let subnormals
    reappear one layer upstream.
    """
    finfo = np.finfo(grad.dtype)
    grad[np.abs(grad) < finfo.tiny / finfo.eps] = 0
    return grad


def _softmax_kernel(x: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    """:func:`softmax`'s arithmetic into ``out`` (shaped like ``x``), with
    ``rows`` (``x``'s shape, last axis 1) holding each row's maximum, then
    its sum."""
    np.maximum.reduce(x, axis=-1, keepdims=True, out=rows)
    np.subtract(x, rows, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=-1, keepdims=True, out=rows)
    np.divide(out, rows, out=out)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    out_data = np.empty_like(x.data)
    _run(partial(_softmax_kernel, x.data, out_data, np.empty((*x.shape[:-1], 1), x.dtype)),
         out_data)

    def bwd(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(x, _flush_tiny(out_data * (g - inner)), owned=True)

    return _from_op(out_data, (x,), bwd)


def _batched(x: Tensor, expected_ndim: int):
    """Return (array viewed with a batch axis, had_batch flag)."""
    if x.data.ndim == expected_ndim:
        return x.data, True
    if x.data.ndim == expected_ndim - 1:
        return x.data[None], False
    raise ValueError(
        f"expected {expected_ndim - 1}-D or {expected_ndim}-D input, "
        f"got shape {x.data.shape}"
    )


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           padding: int = 0) -> Tensor:
    """1-D cross-correlation, stride 1, symmetric zero padding.

    ``x`` is ``(channels_in, length)`` or ``(batch, channels_in, length)``;
    ``weight`` is ``(channels_out, channels_in, kernel)``.  The output
    length is ``length + 2*padding - kernel + 1``.
    """
    xd, batched = _batched(x, 3)
    n, c_in, length = xd.shape
    c_out, w_cin, kernel = weight.data.shape
    if c_in != w_cin:
        raise ValueError(
            f"input has {c_in} channels but weight expects {w_cin}"
        )
    l_out = length + 2 * padding - kernel + 1
    if l_out < 1:
        raise ValueError(
            f"kernel {kernel} too large for length {length} with padding {padding}"
        )
    if padding:
        xp = np.zeros((n, c_in, length + 2 * padding), dtype=xd.dtype)
        xp[:, :, padding:padding + length] = xd
    else:
        xp = xd
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)
    cols = windows.transpose(1, 3, 0, 2).reshape(c_in * kernel, n * l_out)
    w2 = weight.data.reshape(c_out, c_in * kernel)
    out = (w2 @ cols).reshape(c_out, n, l_out).transpose(1, 0, 2)
    out = np.ascontiguousarray(out)
    if bias is not None:
        out += bias.data[None, :, None]

    def bwd(g):
        gd = g if batched else g[None]
        g2 = np.ascontiguousarray(gd.transpose(1, 0, 2)).reshape(c_out, n * l_out)
        if weight.requires_grad:
            _accumulate(weight, (g2 @ cols.T).reshape(c_out, c_in, kernel),
                        owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gd.sum(axis=(0, 2)), owned=True)
        if x.requires_grad:
            dcols = (w2.T @ g2).reshape(c_in, kernel, n, l_out)
            dxp = np.zeros((n, c_in, length + 2 * padding), dtype=xd.dtype)
            for k in range(kernel):
                dxp[:, :, k:k + l_out] += dcols[:, k].transpose(1, 0, 2)
            dx = dxp[:, :, padding:padding + length] if padding else dxp
            _accumulate(x, dx if batched else dx[0], owned=not padding)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out if batched else out[0], parents, bwd)


def _flip_kernel(weight: Tensor) -> Tensor:
    """Reverse a conv weight along its kernel axis (differentiable)."""
    out_data = np.ascontiguousarray(weight.data[:, :, ::-1])

    def bwd(g):
        _accumulate(weight, np.ascontiguousarray(g[:, :, ::-1]))

    return _from_op(out_data, (weight,), bwd)


def tconv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Transposed 1-D convolution, stride 1, no padding.

    Output length is ``length + kernel - 1``.  ``weight`` uses the same
    ``(channels_out, channels_in, kernel)`` layout as :func:`conv1d`; the
    operation is realized as a full cross-correlation with the
    kernel-reversed weight, which also supplies the backward pass.
    """
    kernel = weight.data.shape[2]
    return conv1d(x, _flip_kernel(weight), bias, padding=kernel - 1)


def maxpool1d(x: Tensor) -> Tensor:
    """Max pooling with window 2 and stride 2; odd trailing element dropped.

    Gradient routes to the argmax of each window, first index on ties.
    """
    xd, batched = _batched(x, 3)
    n, c, length = xd.shape
    if length < 2:
        raise ValueError(f"maxpool1d needs length >= 2, got {length}")
    l_out = length // 2
    left = xd[:, :, 0:2 * l_out:2]
    right = xd[:, :, 1:2 * l_out:2]
    right_wins = (right > left).astype(xd.dtype)  # strict: ties take the left
    out = np.where(right_wins.astype(bool), right, left)

    def bwd(g):
        gd = g if batched else g[None]
        dx = np.zeros_like(xd)
        odd = dx[:, :, 1:2 * l_out:2]
        np.multiply(gd, right_wins, out=odd)
        np.subtract(gd, odd, out=dx[:, :, 0:2 * l_out:2])
        _accumulate(x, dx if batched else dx[0], owned=True)

    return _from_op(out if batched else out[0], (x,), bwd)


def adaptive_avgpool1d(x: Tensor) -> Tensor:
    """Single-window average pooling: ``(..., channels, L) -> (..., channels, 1)``."""
    xd, batched = _batched(x, 3)
    length = xd.shape[2]
    out = xd.mean(axis=2, keepdims=True)

    def bwd(g):
        gd = g if batched else g[None]
        dx = np.broadcast_to(gd / length, xd.shape)
        _accumulate(x, dx if batched else dx[0])

    return _from_op(out if batched else out[0], (x,), bwd)


def _no_gather() -> None:
    """The gather of columns that are a view of their input."""


def _padded_input(x: Tensor, pad: int):
    """``x``'s ``(..., rows, length, channels)`` data inside a buffer with
    ``pad`` zero time steps of margin on each side, and the function that
    copies it there.  That buffer is the one :func:`encoder_block` wrote
    ``x`` into when its margin is ``pad`` and ``x`` still holds that data:
    nothing copies then."""
    xp = getattr(x, "_padded", None)
    *lead, length, channels = x.shape
    if xp is not None and x.data.base is xp and xp.shape[-2] == length + 2 * pad:
        return xp, _no_gather
    xp = np.zeros((*lead, length + 2 * pad, channels), x.dtype)
    return xp, partial(np.copyto, xp[..., pad:pad + length, :], x.data)


def _planned_cols(xp: np.ndarray, kernel: int):
    """The C-contiguous ``(..., rows * l_out, kernel * channels)`` im2col of
    C-contiguous padded ``(..., rows, l_out + kernel - 1, channels)`` data
    ``xp`` (row ``(i, t)`` is ``xp[..., i, t:t+kernel, :]``), and the
    function that copies it there from a window view built from ``xp``'s
    strides.  For a kernel of 1 it is a view of ``xp`` and the function does
    nothing.  A larger kernel's window view never reshapes to the columns as
    a view: for several rows the reshape copies, and for one row it is a
    view with overlapping rows, which ``np.matmul`` copies on every call.
    """
    *lead, rows, padded_length, channels = xp.shape
    l_out = padded_length - kernel + 1
    if kernel == 1:
        return xp.reshape(*lead, rows * l_out, channels), _no_gather
    *outer, time_step, channel_step = xp.strides
    windows = np.ndarray((*lead, rows, l_out, kernel, channels), xp.dtype, xp, 0,
                         (*outer, time_step, time_step, channel_step))
    windows.flags.writeable = False
    cols = np.empty((*lead, rows * l_out, kernel * channels), xp.dtype)
    return cols, partial(np.copyto, cols.reshape(windows.shape), windows)


def _kernel_major_uncols(dcols: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_planned_cols`' columns for ``(rows, length, kernel,
    channels)`` column gradients: the padded ``(rows, length + kernel - 1,
    channels)`` input gradient."""
    rows, length, kernel, channels = dcols.shape
    dxp = np.zeros((rows, length + kernel - 1, channels), dtype=dcols.dtype)
    for k in range(kernel):
        dxp[:, k:k + length] += dcols[:, :, k]
    return dxp


def _encoder_block_kernel(cols: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                          buffers: tuple) -> None:
    """:func:`encoder_block`'s arithmetic into ``buffers``, ``(z, gemm_out,
    pairs, scratch, out)``.

    The ``(batch, l_conv, c_out)`` ``z``, through its ``(batch * l_conv,
    c_out)`` view ``gemm_out``, gets the convolution of the ``(batch *
    l_conv, kernel * c_in)`` im2col columns with the ``(1, kernel, c_in,
    c_out)`` ``weight``, plus ``bias``.  With ``pairs``, ``z``'s even and
    odd steps (max pooling), ``scratch`` gets the larger of each pair and
    ``out`` its ReLU; without, ``scratch`` gets the ReLU of ``z`` and
    ``out`` its mean over time.
    """
    z, gemm_out, pairs, scratch, out = buffers
    np.matmul(cols, weight.reshape(cols.shape[1], -1), out=gemm_out)
    gemm_out += bias
    if pairs is not None:
        # Max-pool before the ReLU: max commutes with a monotone function.
        np.maximum(*pairs, out=scratch)
        np.maximum(scratch, 0, out=out)
    else:
        np.maximum(z, 0, out=scratch)
        # np.mean's arithmetic, without its Python-level dispatch: the sum,
        # then a division by the count as an intp
        np.add.reduce(scratch, axis=1, keepdims=True, out=out)
        np.true_divide(out, np.intp(z.shape[1]), out=out, casting="unsafe")


def encoder_block(x: Tensor, weight: Tensor, bias: Tensor, pool: str) -> Tensor:
    """Fused conv1d + ReLU + pooling on channels-last data.

    ``x`` is ``(batch, length, channels_in)``; ``weight`` is one layer in
    :func:`stacked_conv`'s ``(1, kernel, channels_in, channels_out)``
    layout, with an odd kernel, and ``bias`` is ``(1, channels_out)``.  The
    convolution (stride 1, zero padding ``kernel // 2``) is
    length-preserving.  ``pool="max"`` returns ``(batch, length // 2,
    channels_out)`` and equals ``maxpool1d(relu(conv1d(...)))``: an odd
    trailing element is dropped and ties route the gradient to the first
    index.  ``pool="mean"`` returns ``(batch, 1, channels_out)`` and equals
    ``adaptive_avgpool1d(relu(conv1d(...)))``.
    """
    xd, wd = x.data, weight.data
    if xd.ndim != 3:
        raise ValueError(
            f"expected (batch, length, channels) input, got shape {xd.shape}")
    if wd.ndim != 4 or wd.shape[0] != 1 or bias.shape != (1, wd.shape[-1]):
        raise ValueError(f"expected a (1, kernel, c_in, c_out) weight and a (1, c_out) "
                         f"bias, got shapes {wd.shape} and {bias.shape}")
    n, length, c_in = xd.shape
    _, kernel, w_cin, c_out = wd.shape
    if c_in != w_cin:
        raise ValueError(
            f"input has {c_in} channels but weight expects {w_cin}"
        )
    if pool not in ("max", "mean"):
        raise ValueError(f"pool must be 'max' or 'mean', got {pool!r}")
    if kernel % 2 == 0:
        raise ValueError(f"kernel must be odd, got {kernel}")
    min_length = 2 if pool == "max" else 1
    if length < min_length:
        raise ValueError(f"{pool} pooling needs a length of at least {min_length}, "
                         f"got {length}")
    padding = kernel // 2
    xp, fill = _padded_input(x, padding)
    cols, gather = _planned_cols(xp, kernel)
    dtype, half = np.result_type(xd, wd), length // 2
    z = np.empty((n, length, c_out), dtype)
    if pool == "max":
        pairs = z[:, 0:2 * half:2], z[:, 1:2 * half:2]
        scratch = np.empty((n, half, c_out), dtype)
        # the pooled ReLU goes inside the margins a next block pads with
        padded = np.zeros((n, half + 2 * padding, c_out), dtype)
        out = padded[:, padding:padding + half]
    else:
        pairs, scratch, padded = None, np.empty_like(z), None
        out = np.empty((n, 1, c_out), dtype)
    buffers = z, z.reshape(n * length, c_out), pairs, scratch, out

    def step():
        fill()
        gather()
        _encoder_block_kernel(cols, weight.data, bias.data, buffers)

    _run(step, out)
    parents = (x, weight, bias)
    bwd = None
    if _builds_graph(parents):  # otherwise no backward-only state
        # Only what costs more than a copy to rebuild is saved: the
        # backward regathers the columns from ``xp``, which the graph holds
        # anyway (the block below's output, or block 0's small copy), and a
        # max-pool block reads its ReLU mask off ``out``.
        w2 = wd.reshape(kernel * c_in, c_out)
        if pool == "max":
            left, right = pairs
            right_wins = right > left  # strict: ties take the left
        else:
            active = z > 0

        def bwd(g):
            if pool == "max":
                g_act = g * (out > 0)  # out > 0 exactly where max(left, right) > 0
                gz = np.zeros((n, length, c_out), dtype=g_act.dtype)
                odd = gz[:, 1:2 * half:2]
                np.multiply(g_act, right_wins, out=odd)
                np.subtract(g_act, odd, out=gz[:, 0:2 * half:2])
            else:
                gz = (g / length) * active
            g2 = gz.reshape(n * length, c_out)
            if weight.requires_grad:
                cols, gather = _planned_cols(xp, kernel)
                gather()
                _accumulate(weight, (cols.T @ g2).reshape(wd.shape), owned=True)
                del cols, gather
            if bias.requires_grad:
                _accumulate(bias, g2.sum(axis=0, keepdims=True), owned=True)
            if x.requires_grad:
                dxp = _kernel_major_uncols((g2 @ w2.T).reshape(n, length, kernel, c_in))
                dx = dxp[:, padding:padding + length] if padding else dxp
                _accumulate(x, dx, owned=True)

    result = _from_op(out, parents, bwd)
    result._padded = padded
    return result


class _UnionBlock(NamedTuple):
    """One max-pool encoder block of a :class:`_UnionPlan`: index maps over
    the block's distinct conv rows and distinct pooled outputs."""

    cols: np.ndarray   # (conv rows, kernel): each conv row's im2col taps, as value-table rows
    left: np.ndarray   # (pooled rows,): the conv row in each pooled output's left place
    right: np.ndarray  # (pooled rows,): the conv row in its right place


class _UnionPlan(NamedTuple):
    """The index maps of :func:`_union_max_blocks`, made by :func:`_union_plan`."""

    rows: int                        # the series rows the windows cover
    blocks: tuple[_UnionBlock, ...]  # the max-pool blocks, in order
    last: np.ndarray                 # (batch, length): each window's input to the last block


def _own_keys(shared: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``keys`` (non-negative) where ``shared``, elsewhere a negative key of
    the window's own row, unique to it."""
    return np.where(shared, keys, -1 - np.arange(keys.size).reshape(keys.shape))


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For ``(batch, length)`` keys: the index of each key among the
    distinct keys, shaped like ``keys``, and the window and row of each
    distinct key's first occurrence."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return (inverse.reshape(keys.shape), *np.divmod(first, keys.shape[1]))


@lru_cache(maxsize=32)
def _union_plan(batch: int, step: int, length: int, kernel: int,
                blocks: int) -> _UnionPlan:
    """The union plan of ``batch`` windows of ``length`` rows, window ``i``
    at row ``i * step`` of one series (``0 <= step < length``), through
    ``blocks`` max-pool encoder blocks of an odd ``kernel``.

    A block reads a value table: its distinct input rows, then one zero row
    for the padding.  Block 0's table is the series rows.  At block ``b``
    a conv row ``t`` of the window starting at ``start`` is keyed by
    ``start + (t << b)`` when every input it reads is shared, that is, in
    the window and itself keyed so.  Windows that agree on such a key agree
    on every input the row reads, so the row is computed once.  A row that
    reads padding, or an own input next to a window edge, is the window's
    own.  A pooled output is shared, keyed by its left conv row, when both
    its conv rows are.  The distinct pooled outputs are the next block's
    table.  Each block has at least one window's conv rows, so at least two.
    The arrays are read-only; the plan is cached, since it depends on the
    shapes alone.
    """
    pad = kernel // 2
    starts = np.arange(batch)[:, None] * step
    table = starts + np.arange(length)  # each window's input rows, as table rows
    n_rows = rows = (batch - 1) * step + length
    shared = np.ones(length, bool)
    plan = []
    for b in range(blocks):
        n_conv, half = length - length % 2, length // 2  # the conv rows the pool reads
        taps = np.arange(n_conv)[:, None] + np.arange(kernel) - pad
        inside = (taps >= 0) & (taps < length)
        taps = np.clip(taps, 0, length - 1)
        conv_shared = (inside & shared[taps]).all(axis=1)
        conv_keys = _own_keys(conv_shared, starts + (np.arange(n_conv) << b))
        conv, window, row = _distinct(conv_keys)
        cols = np.where(inside[row], table[window[:, None], taps[row]], n_rows)
        shared = conv_shared[0::2] & conv_shared[1::2]
        table, window, row = _distinct(_own_keys(shared, conv_keys[:, 0::2]))
        plan.append(_UnionBlock(cols, conv[window, 2 * row], conv[window, 2 * row + 1]))
        n_rows, length = len(window), half
    for array in (table, *(a for block in plan for a in block)):
        array.flags.writeable = False
    return _UnionPlan(rows, tuple(plan), table)


def _union_block_kernel(values: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                        block: _UnionBlock) -> np.ndarray:
    """One max-pool block on the union: :func:`_encoder_block_kernel`'s
    arithmetic on each distinct conv row of the ``(rows + 1, c_in)`` value
    table ``values`` (its last row zero), and the next block's table.

    Every conv row gets the same dot products, bias add, max and ReLU as in
    a per-window pass, and the GEMM has at least two rows: a one-row product
    takes another BLAS path, and on OpenBLAS's SkylakeX (AVX-512) sgemm
    kernel a row's bits do not depend on the row count from two rows up.
    On its Haswell (AVX2) kernel they do (ROADMAP item 16).
    """
    cols = values.take(block.cols, axis=0)  # (conv rows, kernel, c_in)
    z = np.matmul(cols.reshape(len(cols), -1), weight.reshape(-1, weight.shape[-1]))
    z += bias
    out = np.empty((len(block.left) + 1, z.shape[1]), z.dtype)
    out[-1] = 0
    pooled = out[:-1]
    # Max-pool before the ReLU, as the per-window kernel does.
    np.maximum(z.take(block.left, axis=0), z.take(block.right, axis=0), out=pooled)
    np.maximum(pooled, 0, out=pooled)
    return out


def _union_max_blocks(x: np.ndarray, step: int, convs) -> np.ndarray:
    """The input to an encoder's last block, ``(batch, length, channels)``,
    from its max-pool blocks ``convs`` run on the union of ``x``'s windows.

    ``x`` is ``(batch, length, c_in)``, window ``i`` at row ``i * step`` of
    one series (``0 <= step < length``, checked by the caller), so rows
    that the strides place at the same bytes hold the same values.  The
    output equals that of :func:`encoder_block` run block by block on each
    window, bit for bit.
    """
    batch, length, c_in = x.shape
    plan = _union_plan(batch, step, length, convs[0].weight.shape[1], len(convs))
    values = np.zeros((plan.rows + 1, c_in), x.dtype)
    values[:-1] = np.lib.stride_tricks.as_strided(x, (plan.rows, c_in), x.strides[1:],
                                                  writeable=False)
    for block, conv in zip(plan.blocks, convs):
        values = _union_block_kernel(values, conv.weight.data, conv.bias.data, block)
    return values.take(plan.last, axis=0)


def _stacked_gemm_weight(weight: np.ndarray) -> np.ndarray:
    """A :func:`stacked_conv` weight as its GEMM's ``(f, kernel * c_in,
    c_out)`` operand, a view."""
    if weight.ndim == 3:  # a linear map, stored (f, c_out, c_in)
        return weight.swapaxes(1, 2)
    return weight.reshape(len(weight), -1, weight.shape[3])


def _nearest(length: int, out_length: int) -> np.ndarray:
    """The input time step that nearest upsampling to ``out_length`` reads
    at each output step."""
    return (np.arange(out_length) * length) // out_length


# The most bytes of im2col columns that :func:`stacked_conv` gathers at
# once.  Its forward pass gathers and multiplies whole futures in groups
# whose columns fit here, so a group's columns are still in cache when
# its GEMM reads them; a future larger than this is a group of its own.
# Measured on a 2-vCPU VM (numpy 2.4, BLAS at 1 thread): budgets of 512
# KiB, 1 MiB and 4 MiB gave the f=12 tconv_decoder training step within 2%
# of each other, while all futures in one group made it about 6% slower
# and its peak resident size about 10 MB higher.
_GROUP_BYTES = 1 << 20


@cache
def _gather_index(length: int, out_length: int, kernel: int) -> np.ndarray:
    """The read-only ``(out_length, kernel)`` map from each im2col tap of an
    input nearest-upsampled from ``length`` to ``out_length`` and zero-padded
    by ``kernel // 2`` to the input step it reads.  A tap that falls in the
    padding reads the nearest edge step instead; :func:`_gather_cols`
    zeroes it."""
    pad = kernel // 2
    steps = np.arange(out_length)[:, None] + np.arange(kernel) - pad
    index = _nearest(length, out_length)[np.clip(steps, 0, out_length - 1)]
    index.flags.writeable = False
    return index


def _gather_cols(x: np.ndarray, out: np.ndarray):
    """im2col of ``(..., rows, length, channels)`` data, nearest-upsampled
    to ``out_length`` and zero-padded by ``kernel // 2``, in one gather.

    ``out`` is ``(..., rows, out_length, kernel, channels)``.  Returns the
    ``(..., rows * out_length, kernel * channels)`` columns, a view of
    ``out``, and a function that gathers into ``out`` the values that
    :func:`_planned_cols` gives of that padded, upsampled input.
    """
    *lead, rows, out_length, kernel, channels = out.shape
    index = _gather_index(x.shape[-2], out_length, kernel)
    pad = kernel // 2
    # tap k reads left padding in its first pad - k steps, tap kernel-1-k
    # right padding in its last
    taps = ([out[..., :pad - k, k, :] for k in range(pad)]
            + [out[..., max(out_length - pad + k, 0):, kernel - 1 - k, :]
               for k in range(pad)])

    def gather():
        # the index is in range, so "clip" only spares take's buffered copy
        np.take(x, index, axis=-2, out=out, mode="clip")
        for tap in taps:
            tap.fill(0)

    return out.reshape(*lead, rows * out_length, kernel * channels), gather


def _stacked_conv_kernel(cols: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                         relu: bool, gemm_out: np.ndarray) -> None:
    """:func:`stacked_conv`'s arithmetic into ``gemm_out``, the ``(f, batch *
    length, c_out)`` view of its output: the convolution of the im2col
    columns of the shared or per-future input with the stored ``weight``,
    plus ``bias``, then a ReLU in place if ``relu``."""
    np.matmul(cols, _stacked_gemm_weight(weight), out=gemm_out)
    gemm_out += bias[:, None, :]
    if relu:
        np.maximum(gemm_out, 0, out=gemm_out)


def stacked_conv(x: Tensor, weight: Tensor, bias: Tensor,
                 out_length: int | None = None, *, relu: bool = False) -> Tensor:
    """One convolution layer per future, run as batched GEMMs.

    ``weight`` holds every future's weight, in the layout the GEMM reads:
    ``(f, kernel, channels_in, channels_out)`` for a convolution with an
    odd kernel, where ``weight[j, k, c, o]`` multiplies input channel ``c``
    at offset ``k - kernel // 2``, or ``(f, channels_out, channels_in)``
    for linear maps (a kernel of 1), read through a transposed view.
    ``bias`` is ``(f, channels_out)``.  ``x`` is channels-last
    ``(f, batch, length, channels_in)``, or ``(batch, length, channels_in)``
    fed to every future.  Future ``j`` upsamples its input to
    ``out_length`` (default ``length``; nearest, so index ``t`` reads
    ``floor(t * length / out_length)``), then runs a length-preserving
    cross-correlation (zero padding ``kernel // 2``) plus its bias, then a
    ReLU if ``relu``.  The output is ``(f, batch, out_length,
    channels_out)``.  A weight stored with reversed kernels makes the
    convolution :func:`tconv1d` cropped by ``kernel // 2`` at both ends.

    A layer with a kernel above 1 or an upsampling gathers its im2col
    columns straight from ``x`` with one ``np.take`` through a cached index
    map (:func:`_gather_cols`), so upsampling, padding and the im2col
    window cost one copy.  A per-future input is gathered and multiplied
    in groups of whole futures whose columns fit ``_GROUP_BYTES``; a shared
    one is gathered once.  A kernel-1 layer without upsampling reads its
    input as its columns.

    The backward pass keeps only the (future, row) pairs whose output
    gradient is not all zero, and runs one GEMM per future that has any
    for its weight and input gradients.  A future with none gets an
    exactly-zero slice of the weight and bias gradients, so under an
    oracle loss only the winning decoder of each row does backward work.
    This relies only on each output row reading its own input row, never
    on the loss.  The input gradient of those rows is formed at
    ``out_length`` (col2im), the duplicated steps of the upsampling are
    summed back to ``length`` and the rows are scattered into the input's
    gradient.  A shared input adds the futures' gradients one at a time, in
    order, as ``f`` separate layers would.
    """
    xd, wd = x.data, weight.data
    f = wd.shape[0]
    linear = wd.ndim == 3
    if wd.ndim not in (3, 4):
        raise ValueError(f"expected an (f, c_out, c_in) or (f, kernel, c_in, c_out) "
                         f"weight, got shape {wd.shape}")
    c_out, kernel = (wd.shape[1], 1) if linear else (wd.shape[3], wd.shape[1])
    if bias.shape != (f, c_out):
        raise ValueError(f"expected a ({f}, {c_out}) bias, got shape {bias.shape}")
    shared = xd.ndim == 3
    if xd.ndim not in (3, 4) or (not shared and xd.shape[0] != f):
        raise ValueError(f"expected (batch, length, channels) or ({f}, batch, "
                         f"length, channels) input, got shape {xd.shape}")
    n, length, c_in = xd.shape[-3:]
    if c_in != wd.shape[2]:
        raise ValueError(f"input has {c_in} channels but weight expects {wd.shape[2]}")
    if kernel % 2 == 0:
        raise ValueError(f"kernel must be odd, got {kernel}")
    out_length = length if out_length is None else out_length
    if out_length < length:
        raise ValueError(f"out_length {out_length} smaller than input length {length}")
    pad = kernel // 2
    w2 = _stacked_gemm_weight(wd)
    gathered = kernel > 1 or out_length != length or not xd.flags.c_contiguous

    def cols_buffer(rows):
        """A buffer for the gathered columns of ``(..., rows, length, c_in)``
        input rows, or None if their columns are a view of them."""
        if gathered:
            return np.empty((*rows.shape[:-2], out_length, kernel, c_in), xd.dtype)
        return None

    def cols_of(rows, out):
        """The im2col columns of input rows, gathered into the leading rows
        of ``out`` by the function returned with them."""
        if not gathered:  # C-contiguous rows are their own columns
            return rows.reshape(*rows.shape[:-3], rows.shape[-3] * length, c_in), _no_gather
        return _gather_cols(rows, out[:len(rows)])

    future_bytes = n * out_length * kernel * c_in * xd.itemsize
    step = f if shared or not gathered else max(1, _GROUP_BYTES // max(future_bytes, 1))
    # The columns are allocated before the output, as a plain
    # ``np.matmul(cols, w2)`` does; allocating the output first made this op
    # up to twice as slow at f=12 and a batch of 28.
    buffer = cols_buffer(xd if shared else xd[:step])
    z = np.empty((f, n, out_length, c_out), np.result_type(xd, wd))
    gemm_out = z.reshape(f, n * out_length, c_out)

    # the step holds each group's columns and gather as a default, so a
    # recorded step keeps the buffer and otherwise it is freed with the step
    def forward(groups=[(*cols_of(xd if shared else xd[group], buffer), group)
                        for group in (slice(lo, lo + step) for lo in range(0, f, step))]):
        for cols, gather, group in groups:
            gather()
            _stacked_conv_kernel(cols, weight.data[group], bias.data[group], relu,
                                 gemm_out[group])

    _run(forward, z)
    del buffer, forward
    parents = (x, weight, bias)

    def bwd(g):
        fi, ri = np.nonzero(g.any(axis=(2, 3)))  # (future, row) pairs, by future
        gz = g[fi, ri]
        if relu:
            # the ReLU ran in place, and z > 0 exactly where its input was
            gz *= z[fi, ri] > 0
        rows = xd[ri] if shared else xd[fi, ri]
        cols, gather = cols_of(rows, cols_buffer(rows))
        gather()
        dw, db = np.zeros_like(wd), np.zeros_like(bias.data)
        dw2 = dw.swapaxes(1, 2) if linear else dw.reshape(w2.shape)
        dcols = np.empty_like(cols) if x.requires_grad else None
        futures, starts = np.unique(fi, return_index=True)
        ends = [*starts[1:], fi.size]
        for j, lo, hi in zip(futures, starts, ends):
            gj = gz[lo:hi].reshape(-1, c_out)
            dw2[j] = cols[lo * out_length:hi * out_length].T @ gj
            db[j] = gj.sum(axis=0)
            if dcols is not None:
                np.matmul(gj, w2[j].T, out=dcols[lo * out_length:hi * out_length])
        _accumulate(weight, dw, owned=True)
        _accumulate(bias, db, owned=True)
        if dcols is None:
            return
        dxp = _kernel_major_uncols(dcols.reshape(fi.size, out_length, kernel, c_in))
        drows = dxp[:, pad:pad + out_length]
        if out_length != length:  # each input step sums the steps it fed
            folds = np.flatnonzero(np.diff(_nearest(length, out_length), prepend=-1))
            drows = np.add.reduceat(drows, folds, axis=1)
        for lo, hi in zip(starts, ends) if shared else [(0, fi.size)]:
            dx = np.zeros_like(xd)
            dx[(ri[lo:hi],) if shared else (fi, ri)] = drows[lo:hi]
            _accumulate(x, dx, owned=True)

    return _from_op(z, parents, bwd)


def _stacked_matmul_kernel(x: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """:func:`stacked_matmul`'s arithmetic into ``out``."""
    np.matmul(x, w, out=out)


def stacked_matmul(x: Tensor, weight: Tensor) -> Tensor:
    """``x[g] @ weight[g]`` for every group ``g``, as one batched GEMM of a
    ``(groups, rows, inner)`` input and a ``(groups, inner, cols)`` weight.

    The backward pass skips the groups whose output gradient is all zero,
    leaving their weight-gradient slices exactly zero, and flushes tiny
    weight gradients as :func:`softmax` does.
    """
    xd, w = x.data, weight.data
    if xd.ndim != 3 or w.ndim != 3 or xd.shape[::2] != w.shape[:2]:
        raise ValueError(f"cannot multiply a {xd.shape} input by {len(w)} "
                         f"weights of shape {w.shape[1:]}")

    def bwd(g):
        active = np.flatnonzero(g.any(axis=(1, 2)))
        if x.requires_grad:
            dx = np.zeros_like(xd)
            dx[active] = np.matmul(g[active], w[active].swapaxes(1, 2))
            _accumulate(x, dx, owned=True)
        dw = np.zeros_like(w)
        dw[active] = _flush_tiny(np.matmul(xd[active].swapaxes(1, 2), g[active]))
        _accumulate(weight, dw, owned=True)

    out = np.empty((len(w), xd.shape[1], w.shape[2]), np.result_type(xd, w))
    _run(lambda: _stacked_matmul_kernel(xd, weight.data, out), out)
    return _from_op(out, (x, weight), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``weight @ x + bias`` with ``weight`` of shape (out, in).

    ``x`` may be ``(in,)`` or ``(batch, in)``.
    """
    xd, batched = _batched(x, 2)
    if xd.shape[1] != weight.data.shape[1]:
        raise ValueError(
            f"input has {xd.shape[1]} features but weight expects "
            f"{weight.data.shape[1]}"
        )
    out = xd @ weight.data.T + bias.data

    def bwd(g):
        gd = g if batched else g[None]
        if weight.requires_grad:
            _accumulate(weight, gd.T @ xd, owned=True)
        if bias.requires_grad:
            _accumulate(bias, gd.sum(axis=0), owned=True)
        if x.requires_grad:
            dx = gd @ weight.data
            _accumulate(x, dx if batched else dx[0], owned=batched)

    return _from_op(out if batched else out[0], (x, weight, bias), bwd)


def upsample_nearest(x: Tensor, out_length: int) -> Tensor:
    """Nearest-neighbor upsampling along the last axis.

    Output index ``t`` reads input index ``floor(t * length / out_length)``.
    """
    length = x.data.shape[-1]
    if out_length < length:
        raise ValueError(
            f"out_length {out_length} smaller than input length {length}"
        )
    idx = (np.arange(out_length) * length) // out_length
    out_data = x.data[..., idx]

    def bwd(g):
        dx = np.zeros_like(x.data)
        flat = dx.reshape(-1, length)
        gflat = g.reshape(-1, out_length)
        np.add.at(flat.T, idx, gflat.T)
        _accumulate(x, dx, owned=True)

    return _from_op(np.ascontiguousarray(out_data), (x,), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Summed cross-entropy of ``(batch, classes)`` logits vs integer labels."""
    labels = np.asarray(labels)
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {z.shape}")
    if labels.shape != (z.shape[0],):
        raise ValueError("labels must be one integer per batch row")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_probs = shifted - np.log(e.sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = -log_probs[rows, labels].sum()

    def bwd(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        _accumulate(logits, g * p)

    return _from_op(np.asarray(loss, dtype=z.dtype), (logits,), bwd)
