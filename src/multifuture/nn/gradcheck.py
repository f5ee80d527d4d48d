"""Finite-difference verification of reverse-mode gradients.

Central differences in float64 are compared coordinate-by-coordinate with
the gradients produced by ``backward()``.  A coordinate with a
nondifferentiable point (a ReLU threshold, a max-pool tie) within one step
of it makes the central difference meaningless there.  Such a point bends
the function, so its two one-sided differences disagree: the coordinate
is skipped when they disagree beyond a bound scaled to their size, and
everywhere else the comparison is exact up to truncation error.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["grad_check", "GradCheck"]


class GradCheck(float):
    """The worst relative error :func:`grad_check` found, with the share of
    coordinates it skipped as nondifferentiable in ``skipped``."""

    skipped: float


def grad_check(op_closure, inputs) -> GradCheck:
    """Return the worst relative error between AD and FD gradients.

    ``op_closure`` maps the given tensors to a scalar loss and is invoked
    repeatedly while the tensors' buffers are perturbed in place, so it must
    be deterministic.  Differences use the step ``h = 1e-4``.  The error at
    each coordinate is ``|g_ad - g_fd| / max(1, |g_fd|)``, with ``g_fd`` the
    central difference.  A coordinate is skipped when its one-sided
    differences ``d+`` and ``d-`` differ by more than ``1e-3`` times the
    larger of ``|d+|``, ``|d-|`` and ``1e-6``.  One kink within the step
    moves the central difference from the one-sided slope at the point by
    half that difference, so a kept coordinate's kink adds at most
    ``5e-4`` of its slope; the floor keeps coordinates whose differences
    are at the level of float64 rounding.  Run with float64 inputs: float32
    cannot reach meaningful tolerances.
    """
    h, disagreement, floor = 1e-4, 1e-3, 1e-6
    inputs = list(inputs)
    for t in inputs:
        if not isinstance(t, Tensor):
            raise TypeError("inputs must be Tensors")
        t.grad = None
    loss = op_closure(*inputs)
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward()
    f0 = float(loss.data)
    analytic = [
        np.zeros_like(t.data, dtype=np.float64) if t.grad is None
        else np.asarray(t.grad, dtype=np.float64)
        for t in inputs
    ]

    max_err, skipped, total = 0.0, 0, 0
    for t, g_ad in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        total += flat.size
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = float(op_closure(*inputs).data)
            flat[i] = original - h
            f_minus = float(op_closure(*inputs).data)
            flat[i] = original
            d_plus, d_minus = (f_plus - f0) / h, (f0 - f_minus) / h
            if abs(d_plus - d_minus) > disagreement * max(abs(d_plus), abs(d_minus), floor):
                skipped += 1
                continue
            g_fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_fd))
            if err > max_err:
                max_err = err
    result = GradCheck(max_err)
    result.skipped = skipped / max(total, 1)
    return result
