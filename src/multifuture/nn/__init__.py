"""Minimal reverse-mode differentiation engine and optimizer."""

from .gradcheck import grad_check
from .layers import LayerParams, initializer
from .ops import (
    adaptive_avgpool1d,
    conv1d,
    cross_entropy,
    encoder_block,
    linear,
    maxpool1d,
    relu,
    softmax,
    stacked_conv,
    tconv1d,
    upsample_nearest,
)
from .optim import AdamState, adam_step
from .tensor import Tensor, concat, no_grad, stack

__all__ = [
    "Tensor",
    "stack",
    "concat",
    "no_grad",
    "LayerParams",
    "conv1d",
    "tconv1d",
    "linear",
    "relu",
    "softmax",
    "maxpool1d",
    "adaptive_avgpool1d",
    "encoder_block",
    "stacked_conv",
    "upsample_nearest",
    "cross_entropy",
    "initializer",
    "AdamState",
    "adam_step",
    "grad_check",
]
