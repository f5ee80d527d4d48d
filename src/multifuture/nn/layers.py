"""Named parameter bundles.

A :class:`LayerParams` couples a weight tensor (and optional bias) with the
stable name used for optimizer bookkeeping and checkpoint serialization.
Conv-style weights are ``(out_channels, in_channels, kernel)``; linear
weights are ``(out_features, in_features)``.  Models apply them with the
:mod:`~multifuture.nn.ops` functions, ``ops.linear(x, p.weight, p.bias)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = ["LayerParams", "init_conv", "init_linear"]


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


def _init_fan_in(name: str, shape: tuple[int, ...], fan_in: int,
                 rng: np.random.Generator, dtype) -> LayerParams:
    """Weights drawn uniform in +-sqrt(1/fan_in), zero bias over ``shape[0]``."""
    bound = float(np.sqrt(1.0 / fan_in))
    weight = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return LayerParams(name, Tensor(weight, requires_grad=True),
                       Tensor(np.zeros(shape[0], dtype=dtype), requires_grad=True))


def init_conv(name: str, out_channels: int, in_channels: int, kernel: int,
              rng: np.random.Generator, dtype=np.float32) -> LayerParams:
    """Conv weights drawn uniform in +-sqrt(1/fan_in), zero bias."""
    return _init_fan_in(name, (out_channels, in_channels, kernel),
                        in_channels * kernel, rng, dtype)


def init_linear(name: str, out_features: int, in_features: int,
                rng: np.random.Generator, dtype=np.float32) -> LayerParams:
    """Linear weights drawn uniform in +-sqrt(1/fan_in), zero bias."""
    return _init_fan_in(name, (out_features, in_features), in_features,
                        rng, dtype)
