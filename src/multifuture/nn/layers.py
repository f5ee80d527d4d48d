"""Named parameter bundles.

A :class:`LayerParams` couples a weight tensor (and optional bias) with the
stable name used for checkpoint serialization.  Conv-style weights are
``(out_channels, in_channels, kernel)``; linear weights are
``(out_features, in_features)``.  Modules get them from a
``take(name, shape, bias=True)`` callable such as :func:`initializer`,
one per name in checkpoint order.

The encoders and the expert head apply their :class:`LayerParams` as they
are (``ops.encoder_block(x, p.weight, p.bias, ...)``).  A decoder runs one
layer of all its futures as one op, so :func:`stack` joins that layer's
per-future bundles into a :class:`StackedLayer`: one ``(f, ...)`` weight
tensor, stored in the layout :func:`~multifuture.nn.ops.stacked_conv` or
:func:`~multifuture.nn.ops.stacked_matmul` reads, and one ``(f, c_out)``
bias.  A decoder's layers form one :class:`StackedGroup`, whose
``tensors()`` the optimizer steps and whose ``named_tensors()`` lists
per-future views under the checkpoint names.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Tensor

__all__ = ["LayerParams", "StackedLayer", "StackedGroup", "Take", "initializer",
           "stack"]


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


@dataclass
class StackedLayer:
    """One layer of every future, as one weight tensor and one bias.

    Slice ``g`` of ``weight`` (and of ``bias``) is the parameter named
    ``names[g]``.  A linear weight or a template bank is stored as the
    ``(g, rows, cols)`` stack of the per-future matrices; a conv weight as
    ``(g, kernel, c_in, c_out)``, the layout the GEMM reads, with its
    kernel reversed if ``flipped``.
    """

    names: tuple[str, ...]
    weight: Tensor
    bias: Tensor | None
    flipped: bool = False

    def slice(self, g: int) -> LayerParams:
        """Parameter ``g`` as views of the stacks in its checkpoint layout;
        writing into them writes into the stacks."""
        weight = self.weight.data[g]
        if weight.ndim == 3:  # (kernel, c_in, c_out) -> (c_out, c_in, kernel)
            weight = (weight[::-1] if self.flipped else weight).transpose(2, 1, 0)
        grad = self.weight.requires_grad
        return LayerParams(self.names[g], Tensor(weight, requires_grad=grad),
                           None if self.bias is None
                           else Tensor(self.bias.data[g], requires_grad=grad))


def stack(params: list[LayerParams], flip: bool = False) -> StackedLayer:
    """Join one layer's per-future bundles into a :class:`StackedLayer`;
    ``flip`` reverses the kernels of conv weights."""
    weight = np.stack([p.weight.data for p in params])
    if weight.ndim == 4:  # (g, c_out, c_in, kernel) -> (g, kernel, c_in, c_out)
        weight = np.ascontiguousarray(
            (weight[..., ::-1] if flip else weight).transpose(0, 3, 2, 1))
    bias = (None if params[0].bias is None else
            Tensor(np.stack([p.bias.data for p in params]), requires_grad=True))
    return StackedLayer(tuple(p.name for p in params),
                        Tensor(weight, requires_grad=True), bias,
                        flip and weight.ndim == 4)


class StackedGroup(NamedTuple):
    """A decoder's layers for ``futures`` futures, as one parameter group.

    ``name`` is the decoder's, without a member prefix; each slice keeps
    its own checkpoint name.  Future ``i`` owns the ``i``-th equal run of
    each layer's slices.
    ``named_tensors()`` lists them future by future, each future's layers
    in order, which is the checkpoint order of per-future decoders.
    """

    name: str
    layers: list[StackedLayer]
    futures: int

    def tensors(self) -> list[Tensor]:
        return [t for layer in self.layers for t in (layer.weight, layer.bias)
                if t is not None]

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for i in range(self.futures):
            for layer in self.layers:
                per_future = len(layer.names) // self.futures
                for g in range(i * per_future, (i + 1) * per_future):
                    out.extend(layer.slice(g).named_tensors())
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
