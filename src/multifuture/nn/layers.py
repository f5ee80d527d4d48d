"""A model's parameter table.

Module constructors call :meth:`Parameters.take` for each parameter
bundle, in checkpoint order.  The table gets the bundle, in checkpoint
layout (conv weights ``(c_out, c_in, kernel)``), from its source, such as
:func:`initializer` or a checkpoint reader, and records it.
:meth:`Parameters.stack` then copies one layer's bundles (one per future
for a decoder layer, one for an encoder block or the expert's head) into
a :class:`StackedLayer` in the layout its op's GEMM reads: conv weights
``(g, kernel, c_in, c_out)``, linear maps and banks ``(g, rows, cols)``,
biases ``(g, c_out)``.  Each recorded bundle is rebound to views of its
slice, so the stored tensors are the only copy.  ``parameters()`` lists
the stored tensors the optimizer steps; ``named_tensors()`` the recorded
``(name, view)`` pairs in take order, which is the checkpoint order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor import Tensor

__all__ = ["LayerParams", "StackedLayer", "Parameters", "Take", "initializer"]


@dataclass
class LayerParams:
    """A named weight/bias bundle in checkpoint layout."""

    name: str
    weight: Tensor
    bias: Tensor | None = None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [(f"{self.name}.weight", self.weight)]
        if self.bias is not None:
            out.append((f"{self.name}.bias", self.bias))
        return out


class StackedLayer(NamedTuple):
    """One layer of ``g`` bundles: a ``(g, ...)`` weight in its GEMM's
    layout and a ``(g, c_out)`` bias (``None`` for template banks)."""

    weight: Tensor
    bias: Tensor | None


# take(name, shape, bias=True): where a parameter table gets each bundle.
Take = Callable[..., LayerParams]


class Parameters:
    """Every parameter of one model, stored once (module docstring)."""

    def __init__(self, source: Take):
        self._source = source
        self._bundles: dict[str, LayerParams] = {}
        self._stored: list[Tensor] = []

    def take(self, name: str, shape: tuple[int, ...], bias: bool = True) -> LayerParams:
        """Bundle ``name`` of weight ``shape`` (plus a bias over ``shape[0]``
        if ``bias``) from the source, recorded in take order."""
        if name in self._bundles:
            raise ValueError(f"parameter {name!r} is taken twice")
        self._bundles[name] = bundle = self._source(name, shape, bias)
        return bundle

    def stack(self, bundles: Sequence[LayerParams], flip: bool = False) -> StackedLayer:
        """Copy one layer's bundles into its stored tensors; ``flip``
        reverses the kernels of conv weights.  Each bundle then holds views
        of its slice, in checkpoint layout."""
        weight = np.stack([p.weight.data for p in bundles])
        if weight.ndim == 4:  # (g, c_out, c_in, kernel) -> (g, kernel, c_in, c_out)
            weight = np.ascontiguousarray(
                (weight[..., ::-1] if flip else weight).transpose(0, 3, 2, 1))
        bias = None if bundles[0].bias is None else np.stack([p.bias.data for p in bundles])
        for g, p in enumerate(bundles):
            view = weight[g]
            if view.ndim == 3:  # (kernel, c_in, c_out) -> (c_out, c_in, kernel)
                view = (view[::-1] if flip else view).transpose(2, 1, 0)
            p.weight = Tensor(view)
            p.bias = None if bias is None else Tensor(bias[g])
        layer = StackedLayer(Tensor(weight, requires_grad=True),
                             None if bias is None else Tensor(bias, requires_grad=True))
        self._stored.extend(t for t in layer if t is not None)
        return layer

    def parameters(self) -> list[Tensor]:
        return list(self._stored)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [pair for p in self._bundles.values() for pair in p.named_tensors()]


def initializer(rng: np.random.Generator, dtype=np.float32) -> Take:
    """A ``take(name, shape, bias=True)`` that draws fresh parameters.

    With ``bias`` the weight is uniform in +-sqrt(1/fan_in), where fan_in
    is ``prod(shape[1:])`` (in_channels * kernel for a conv, in_features
    for a linear map), plus a zero bias over ``shape[0]``.  Without it the
    weight is a bias-free N(0, 0.1) bank.  Draws follow the call order.
    """
    def take(name: str, shape: tuple[int, ...], bias: bool = True) -> LayerParams:
        if not bias:
            return LayerParams(name, Tensor(rng.normal(0.0, 0.1, size=shape).astype(dtype)))
        bound = float(np.sqrt(1.0 / math.prod(shape[1:])))
        weight = rng.uniform(-bound, bound, size=shape).astype(dtype)
        return LayerParams(name, Tensor(weight), Tensor(np.zeros(shape[0], dtype=dtype)))
    return take
