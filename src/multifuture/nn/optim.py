"""Adam optimizer with bias correction and the default hyperparameters.

It steps a plain list of tensors, such as a model's ``parameters()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step"]


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the step counter."""

    step_count: int
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    learning_rate: float = 1e-3
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
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        t.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
        t.grad = None
    return state
