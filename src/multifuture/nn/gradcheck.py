"""Finite-difference verification of reverse-mode gradients.

Central differences in float64 are compared coordinate-by-coordinate with
the gradients produced by ``backward()``.  Coordinates sitting within one
step of a nondifferentiable point (a ReLU threshold, a max-pool tie) make
the central difference meaningless, so they are detected through the
second difference and excluded; everywhere else the comparison is exact up
to truncation error.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["grad_check"]


def grad_check(op_closure, inputs) -> float:
    """Return the worst relative error between AD and FD gradients.

    ``op_closure`` maps the given tensors to a scalar loss and is invoked
    repeatedly while the tensors' buffers are perturbed in place, so it must
    be deterministic.  Central differences use the step ``h = 1e-4``.  The
    error at each coordinate is ``|g_ad - g_fd| / max(1, |g_fd|)``; a
    coordinate whose second difference exceeds ``kink_threshold = 10``
    (rescaled by ``h**2``) is treated as nondifferentiable and skipped.  Run with float64 inputs: float32
    cannot reach meaningful tolerances.
    """
    h, kink_threshold = 1e-4, 10.0
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

    max_err = 0.0
    for t, g_ad in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = float(op_closure(*inputs).data)
            flat[i] = original - h
            f_minus = float(op_closure(*inputs).data)
            flat[i] = original
            if abs(f_plus - 2.0 * f0 + f_minus) / (h * h) > kink_threshold:
                continue
            g_fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_fd))
            if err > max_err:
                max_err = err
    return max_err
