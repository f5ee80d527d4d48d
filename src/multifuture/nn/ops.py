"""Differentiable neural-network operations.

Every function here takes plain :class:`~multifuture.nn.tensor.Tensor`
weights; the :class:`~multifuture.nn.layers.LayerParams` wrappers in
:mod:`multifuture.nn.layers` are the parameter-bundle entry points used by
the models.

The reference convolution and pooling ops accept either an unbatched
``(channels, length)`` input or a batched ``(batch, channels, length)``
one, and the convolution is lowered to a single GEMM over an im2col
matrix.  The encoders use :func:`encoder_block` instead: one op for
conv1d + ReLU + pooling on channels-last ``(batch, length, channels)``
data, with a hand-written backward pass.  Fusing the three keeps one
intermediate and one backward closure per block instead of three, which
is what keeps full training runs at desk scale.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _accumulate, _from_op

__all__ = [
    "relu",
    "softmax",
    "conv1d",
    "tconv1d",
    "maxpool1d",
    "adaptive_avgpool1d",
    "encoder_block",
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


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    # Saturated probabilities give gradients in or just above the subnormal
    # range; one multiplication by a weight below 1 upstream makes them
    # subnormal, and subnormal operands slow down every GEMM they reach.
    # Gradients below tiny/eps (about 1e-31 in float32) are flushed to
    # zero: far too small to move an Adam step, and flushing only below
    # tiny would let the subnormals reappear one layer upstream.
    finfo = np.finfo(x.data.dtype)
    flush_below = finfo.tiny / finfo.eps

    def bwd(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        gx = out_data * (g - inner)
        gx[np.abs(gx) < flush_below] = 0
        _accumulate(x, gx, owned=True)

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


def encoder_block(x: Tensor, weight: Tensor, bias: Tensor, padding: int,
                  pool: str) -> Tensor:
    """Fused conv1d + ReLU + pooling on channels-last data.

    ``x`` is ``(batch, length, channels_in)``; ``weight`` and ``bias`` are
    laid out as for :func:`conv1d`.  The convolution (stride 1, symmetric
    zero padding) has ``l_conv = length + 2*padding - kernel + 1`` outputs.
    ``pool="max"`` returns ``(batch, l_conv // 2, channels_out)`` and equals
    ``maxpool1d(relu(conv1d(...)))``: an odd trailing element is dropped
    and ties route the gradient to the first index.  ``pool="mean"``
    returns ``(batch, 1, channels_out)`` and equals
    ``adaptive_avgpool1d(relu(conv1d(...)))``.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ValueError(
            f"expected (batch, length, channels) input, got shape {xd.shape}")
    n, length, c_in = xd.shape
    c_out, w_cin, kernel = weight.data.shape
    if c_in != w_cin:
        raise ValueError(
            f"input has {c_in} channels but weight expects {w_cin}"
        )
    if pool not in ("max", "mean"):
        raise ValueError(f"pool must be 'max' or 'mean', got {pool!r}")
    l_conv = length + 2 * padding - kernel + 1
    min_conv = 2 if pool == "max" else 1
    if l_conv < min_conv:
        raise ValueError(
            f"kernel {kernel} and padding {padding} leave {l_conv} conv outputs "
            f"from length {length}; {pool} pooling needs at least {min_conv}"
        )
    if padding:
        xp = np.zeros((n, length + 2 * padding, c_in), dtype=xd.dtype)
        xp[:, padding:padding + length] = xd
    else:
        xp = xd
    # Kernel-major im2col: row (i, t) is the contiguous run xp[i, t:t+kernel].
    windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=1)
    cols = windows.swapaxes(2, 3).reshape(n * l_conv, kernel * c_in)
    w2 = weight.data.transpose(2, 1, 0).reshape(kernel * c_in, c_out)
    z = (cols @ w2).reshape(n, l_conv, c_out)
    z += bias.data

    if pool == "max":
        # Max-pool before the ReLU: max commutes with a monotone function.
        half = l_conv // 2
        left = z[:, 0:2 * half:2]
        right = z[:, 1:2 * half:2]
        right_wins = right > left  # strict: ties take the left
        pooled = np.maximum(left, right)
        active = pooled > 0
        out = np.maximum(pooled, 0)
    else:
        active = z > 0
        out = np.maximum(z, 0).mean(axis=1, keepdims=True)

    def bwd(g):
        if pool == "max":
            g_act = g * active
            gz = np.zeros((n, l_conv, c_out), dtype=g_act.dtype)
            odd = gz[:, 1:2 * half:2]
            np.multiply(g_act, right_wins, out=odd)
            np.subtract(g_act, odd, out=gz[:, 0:2 * half:2])
        else:
            gz = (g / l_conv) * active
        g2 = gz.reshape(n * l_conv, c_out)
        if weight.requires_grad:
            dw = (cols.T @ g2).reshape(kernel, c_in, c_out).transpose(2, 1, 0)
            _accumulate(weight, np.ascontiguousarray(dw), owned=True)
        if bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0), owned=True)
        if x.requires_grad:
            dcols = (g2 @ w2.T).reshape(n, l_conv, kernel, c_in)
            dxp = np.zeros(xp.shape, dtype=xd.dtype)
            for k in range(kernel):
                dxp[:, k:k + l_conv] += dcols[:, :, k]
            dx = dxp[:, padding:padding + length] if padding else dxp
            _accumulate(x, dx, owned=True)

    return _from_op(out, (x, weight, bias), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``weight @ x + bias`` with ``weight`` of shape (out, in).

    ``x`` may be ``(in,)`` or ``(batch, in)``.
    """
    xd, batched = _batched(x, 2)
    if xd.shape[1] != weight.data.shape[1]:
        raise ValueError(
            f"input has {xd.shape[1]} features but weight expects "
            f"{weight.data.shape[1]}"
        )
    out = xd @ weight.data.T
    if bias is not None:
        out = out + bias.data

    def bwd(g):
        gd = g if batched else g[None]
        if weight.requires_grad:
            _accumulate(weight, gd.T @ xd, owned=True)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gd.sum(axis=0), owned=True)
        if x.requires_grad:
            dx = gd @ weight.data
            _accumulate(x, dx if batched else dx[0], owned=batched)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out if batched else out[0], parents, bwd)


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
