"""Minimal reverse-mode differentiation engine and optimizer."""

from .gradcheck import grad_check
from .layers import LayerParams, conv1d, init_conv, init_linear, linear, tconv1d
from .ops import (
    adaptive_avgpool1d,
    cross_entropy,
    encoder_block,
    maxpool1d,
    relu,
    softmax,
    upsample_nearest,
)
from .optim import AdamState, adam_step
from .tensor import Tensor, no_grad, stack

__all__ = [
    "Tensor",
    "stack",
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
    "upsample_nearest",
    "cross_entropy",
    "init_conv",
    "init_linear",
    "AdamState",
    "adam_step",
    "grad_check",
]
