"""Adam optimizer with bias correction and the default hyperparameters.

It steps a plain list of tensors, such as a model's ``parameters()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the step counter.

    ``scratch`` holds, per dtype, the two buffers :func:`adam_step` computes
    in, each as large as the largest moment of that dtype; the first step
    allocates them.
    """

    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    learning_rate: float = 1e-3
    scratch: dict = field(default_factory=dict, repr=False, compare=False)
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    @classmethod
    def init(cls, params: list[Tensor], learning_rate: float = 1e-3) -> "AdamState":
        return cls(
            step_count=0,
            first_moment=[np.zeros_like(t.data) for t in params],
            second_moment=[np.zeros_like(t.data) for t in params],
            learning_rate=learning_rate,
        )


def adam_step(params: list[Tensor], state: AdamState) -> AdamState:
    """One in-place Adam update over ``params``; gradients are consumed.

    Every trainable tensor must carry a populated gradient.  After the
    update all gradients are zeroed and ``step_count`` is incremented.
    Each tensor's update runs the ufuncs of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2`` and ``p -= lr m_hat / (sqrt(v_hat) + eps)``
    in that order, into the two scratch buffers instead of temporaries.
    """
    if len(params) != len(state.first_moment):
        raise ValueError("parameter list does not match optimizer state")
    for t, m in zip(params, state.first_moment):
        if m.shape != t.data.shape:
            raise ValueError("optimizer state shapes do not match parameters")
        if t.requires_grad and t.grad is None:
            raise ValueError("missing gradient on a trainable parameter")

    state.step_count += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.step_count
    bias2 = 1.0 - b2 ** state.step_count
    for t, m, v in zip(params, state.first_moment, state.second_moment):
        if not t.requires_grad:
            continue
        g = t.grad
        a, b = _scratch(state, m)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=a)
        v *= b2
        v += np.multiply(1.0 - b2, np.multiply(g, g, out=a), out=a)
        m_hat = np.divide(m, bias1, out=a)
        v_hat = np.divide(v, bias2, out=b)
        step = np.multiply(state.learning_rate, m_hat, out=a)
        denom = np.add(np.sqrt(v_hat, out=b), state.epsilon, out=b)
        t.data -= np.divide(step, denom, out=a)
        t.grad = None
    return state


def _scratch(state: AdamState, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two scratch arrays of ``m``'s shape and dtype, views of ``state.scratch``."""
    buf = state.scratch.get(m.dtype)
    if buf is None:
        size = max(x.size for x in state.first_moment if x.dtype == m.dtype)
        buf = state.scratch[m.dtype] = np.empty((2, size), m.dtype)
    return buf[0, :m.size].reshape(m.shape), buf[1, :m.size].reshape(m.shape)
