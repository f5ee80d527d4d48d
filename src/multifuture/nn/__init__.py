"""Minimal reverse-mode differentiation engine and optimizer.

The differentiable operations are in :mod:`multifuture.nn.ops`.
"""

from .gradcheck import grad_check
from .layers import LayerParams, initializer
from .optim import AdamState, adam_step
from .tensor import Tensor, concat, no_grad

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "LayerParams",
    "initializer",
    "AdamState",
    "adam_step",
    "grad_check",
]
