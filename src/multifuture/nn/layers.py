"""Named parameter bundles.

A :class:`LayerParams` couples a weight tensor (and optional bias) with the
stable name used for optimizer bookkeeping and checkpoint serialization.
Conv-style weights are ``(out_channels, in_channels, kernel)``; linear
weights are ``(out_features, in_features)``.  Models apply them with the
:mod:`~multifuture.nn.ops` functions, ``ops.linear(x, p.weight, p.bias)``,
and get them from a ``take(name, shape, bias=True)`` callable such as
:func:`initializer`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = ["LayerParams", "Take", "initializer"]


@dataclass
class LayerParams:
    """A named weight/bias pair; names must be unique within a model."""

    name: str
    weight: Tensor
    bias: Tensor | None = None

    def tensors(self) -> list[Tensor]:
        return [self.weight] if self.bias is None else [self.weight, self.bias]

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [(f"{self.name}.weight", self.weight)]
        if self.bias is not None:
            out.append((f"{self.name}.bias", self.bias))
        return out


# take(name, shape, bias=True): where a module constructor gets each parameter.
Take = Callable[..., LayerParams]


def initializer(rng: np.random.Generator, dtype=np.float32) -> Take:
    """A ``take(name, shape, bias=True)`` that draws fresh parameters.

    With ``bias`` the weight is uniform in +-sqrt(1/fan_in), where fan_in
    is ``prod(shape[1:])`` (in_channels * kernel for a conv, in_features
    for a linear map), plus a zero bias over ``shape[0]``.  Without it the
    weight is a bias-free N(0, 0.1) bank.  Draws follow the call order.
    """
    def take(name: str, shape: tuple[int, ...], bias: bool = True) -> LayerParams:
        if not bias:
            bank = rng.normal(0.0, 0.1, size=shape).astype(dtype)
            return LayerParams(name, Tensor(bank, requires_grad=True))
        bound = float(np.sqrt(1.0 / math.prod(shape[1:])))
        weight = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return LayerParams(name, Tensor(weight, requires_grad=True),
                           Tensor(np.zeros(shape[0], dtype=dtype), requires_grad=True))
    return take
