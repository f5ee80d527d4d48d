"""The dual shape/scale forecaster and its ablation variants.

The model predicts ``f`` candidate futures for the next ``n_h`` hours from
the last ``n_p`` hours of a ``d``-feature series.  A shape sub-network
synthesizes scale-free trajectories as convex combinations of learned
template banks; a scale sub-network predicts a per-dimension multiplier and
offset; the final futures are ``scale_mul * shape + scale_add`` (see
:func:`combine`), one multiplier and offset per (future, feature) row.

Variants:

``full``
    Separate shape and scale encoders, ``f`` bank decoders + ``f`` scale
    decoders.  ``one_loss`` shares this architecture (it only changes the
    training loss).
``shared_encoder``
    A single encoder feeds both decoder ensembles.
``non_separated``
    A single encoder with bank decoders whose templates synthesize the
    futures directly in raw units (unit multiplier, zero offset).
``tconv_decoder``
    Shape decoders replaced by a deep transposed-convolution stack; one
    :class:`TConvShapeDecoder` runs the ``f`` stacks as one batched op per
    layer.
``model_ensemble``
    ``f`` independent single-future copies of the full network.

All six are one network wired by a routing table built in
:class:`Forecaster`'s constructor, the only code that reads the variant.
Row ``i`` of the table is future ``i``: ``shape_encoders[i]`` feeds
``shape_decoders[i]`` and ``scale_encoders[i]`` feeds ``scale_decoders[i]``.
A shared encoder sits in several rows and runs once per forward pass, and
so does the ``tconv_decoder`` shape decoder, which sits in every row and
returns all ``f`` futures.  Every shape decoder returns the futures of its
rows on a leading axis (a bank decoder returns one), and the forward pass
joins them in row order; ``non_separated`` has no scale decoders (``None``)
and gets the unit multiplier and zero offset instead.  The stacks over
futures are recombined once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import ops
from .nn.layers import LayerParams, Take, initializer
from .nn.tensor import Tensor, concat, no_grad, stack

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "FutureSet",
    "check_windows",
    "Forecaster",
    "ExpertClassifier",
    "shape_encoder_forward",
    "shape_decoder_forward",
    "scale_forward",
    "combine",
    "count_parameters",
    "ParameterCount",
    "encoder_length_schedule",
]

VARIANTS = (
    "full",
    "shared_encoder",
    "non_separated",
    "one_loss",
    "tconv_decoder",
    "model_ensemble",
)

_TCONV_BLOCKS = 5


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``n_p``/``n_h`` are the input/output horizons in hours, ``d`` the
    feature count, ``f`` the number of futures, ``n_s`` the number of
    templates per shape bank.  ``kernel`` is odd, so padding ``kernel // 2``
    keeps convolutions length-preserving.
    """

    n_p: int = 168
    n_h: int = 24
    d: int = 4
    f: int = 3
    n_s: int = 32
    channels: int = 64
    kernel: int = 3
    variant: str = "full"

    def __post_init__(self):
        if self.n_p < 2:
            raise ValueError(f"n_p must be >= 2, got {self.n_p}")
        for name in ("n_h", "d", "f", "n_s", "channels", "kernel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd, got {self.kernel}")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.variant == "tconv_decoder" and self.n_h < 2 ** (_TCONV_BLOCKS - 1):
            raise ValueError(
                f"tconv_decoder needs n_h >= {2 ** (_TCONV_BLOCKS - 1)}, got {self.n_h}"
            )

    @property
    def encoder_blocks(self) -> int:
        return int(math.floor(math.log2(self.n_p)))


def encoder_length_schedule(n_p: int) -> list[int]:
    """Sequence lengths after each encoder block (the last one is 1)."""
    blocks = int(math.floor(math.log2(n_p)))
    lengths = []
    length = n_p
    for _ in range(blocks - 1):
        length //= 2
        lengths.append(length)
    lengths.append(1)
    return lengths


@dataclass
class FutureSet:
    """One window's predictions.

    ``futures`` and ``shape_preds`` are ``(f, d, n_h)``; the scale arrays
    are ``(f, d)``.  ``activations`` is ``(f, d, n_s)`` for bank-based
    variants and ``None`` for the transposed-convolution decoder, which has
    no template mixture to report.
    """

    futures: np.ndarray
    shape_preds: np.ndarray
    scale_mul: np.ndarray
    scale_add: np.ndarray
    activations: np.ndarray | None = None

    @property
    def f(self) -> int:
        return self.futures.shape[0]

    def validate(self) -> None:
        atol = 1e-6
        recombined = combine(self.shape_preds, self.scale_mul, self.scale_add)
        if not np.allclose(self.futures, recombined, atol=atol, rtol=0):
            raise ValueError("futures do not equal scale_mul*shape + scale_add")
        if self.activations is not None:
            sums = self.activations.sum(axis=-1)
            if np.any(self.activations < -atol) or np.any(np.abs(sums - 1) > atol):
                raise ValueError("activations are not on the probability simplex")


def check_windows(inputs, n_p: int, d: int, dtype, single: bool = False) -> np.ndarray:
    """One ``(n_p, d)`` window or, unless ``single``, a ``(batch, n_p, d)``
    batch as a ``(batch, n_p, d)`` array of ``dtype``, finite after the cast.
    """
    arr = np.asarray(inputs, dtype=dtype)
    if arr.shape[-2:] != (n_p, d) or arr.ndim not in ((2,) if single else (2, 3)):
        raise ValueError(f"expected a ({n_p}, {d}) window, got shape {np.shape(inputs)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"({n_p}, {d}) input window holds non-finite values "
                         f"in {np.dtype(dtype).name}")
    return arr.reshape(-1, n_p, d)


class ConvEncoder:
    """Conv/ReLU/MaxPool blocks ending in Conv/ReLU/AdaptiveAvgPool.

    There are ``floor(log2(n_p))`` blocks, each one fused
    :func:`~multifuture.nn.ops.encoder_block` on channels-last
    ``(batch, length, channels)`` data.  Padding keeps convolutions
    length-preserving so only the max pooling halves the sequence, and the
    last block's mean pool collapses whatever length remains to 1.
    """

    def __init__(self, name: str, config: ModelConfig, take: Take):
        self.name = name
        self.padding = config.kernel // 2
        in_channels = [config.d] + [config.channels] * (config.encoder_blocks - 1)
        self.convs = [take(f"{name}.conv{b}", (config.channels, in_ch, config.kernel))
                      for b, in_ch in enumerate(in_channels)]

    def forward(self, x: Tensor) -> Tensor:
        """(batch, n_p, d) -> (batch, channels)."""
        h = x
        last = len(self.convs) - 1
        for b, conv in enumerate(self.convs):
            h = ops.encoder_block(h, conv.weight, conv.bias, self.padding,
                                  "mean" if b == last else "max")
        return h.reshape(h.shape[0], h.shape[2])

    def layer_params(self) -> list[LayerParams]:
        return list(self.convs)


class BankShapeDecoder:
    """Softmax-regression mixture over per-feature template banks.

    Bank ``j`` is a bias-free :class:`LayerParams` whose ``weight`` holds
    the ``(n_s, n_h)`` templates: each row is a candidate trajectory of
    the output horizon's length.
    """

    def __init__(self, name: str, config: ModelConfig, take: Take):
        self.name = name
        self.regressors = [take(f"{name}.regressor{j}", (config.n_s, config.channels))
                           for j in range(config.d)]
        self.banks = [take(f"{name}.bank{j}", (config.n_s, config.n_h), bias=False)
                      for j in range(config.d)]

    def forward(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, channels) -> shape prediction (1, batch, d, n_h),
        activations (1, batch, d, n_s): one future."""
        alphas, acts = [], []
        for reg, bank in zip(self.regressors, self.banks):
            r = ops.softmax(ops.linear(h, reg.weight, reg.bias))
            alphas.append(r @ bank.weight)
            acts.append(r)
        alpha, act = stack(alphas, axis=1), stack(acts, axis=1)
        return alpha.reshape(1, *alpha.shape), act.reshape(1, *act.shape)

    def layer_params(self) -> list[LayerParams]:
        return self.regressors + self.banks


class TConvShapeDecoder:
    """Deep alternative decoder for all ``f`` futures at once:
    Linear -> [TConv, ReLU, Upsample] x 5 -> Conv.

    The linear output is treated as ``channels`` channels of length 1; each
    block's transposed convolution is cropped back to its input length
    (transposed padding ``kernel // 2``) so the upsampling alone drives the
    1 -> 2 -> 4 -> 8 -> 16 -> n_h progression, with the last upsample forced
    to the output horizon.  Every layer runs as one
    :func:`~multifuture.nn.ops.stacked_conv` over a leading future axis, on
    channels-last data; the transposed convolutions run as the equal
    kernel-reversed "same" convolutions.  Each future keeps its own
    parameters, named ``{name}{i}.input_linear``, ``{name}{i}.tconv{b}`` and
    ``{name}{i}.output_conv`` and drawn future by future.
    """

    def __init__(self, name: str, config: ModelConfig, take: Take):
        self.name = name
        self.n_h = config.n_h
        c, k = config.channels, config.kernel
        per_future = [[take(f"{name}{i}.input_linear", (c, c)),
                       *[take(f"{name}{i}.tconv{b}", (c, c, k))
                         for b in range(_TCONV_BLOCKS)],
                       take(f"{name}{i}.output_conv", (config.d, c, k))]
                      for i in range(config.f)]
        # layers[l][i] is future i's layer l
        self.layers = [list(layer) for layer in zip(*per_future)]

    def length_schedule(self) -> list[int]:
        lengths = [1]
        for _ in range(_TCONV_BLOCKS - 1):
            lengths.append(lengths[-1] * 2)
        lengths.append(self.n_h)
        return lengths

    def forward(self, h: Tensor) -> tuple[Tensor, None]:
        """(batch, channels) -> shape predictions (f, batch, d, n_h)."""
        z = h.reshape(h.shape[0], 1, h.shape[1])
        *hidden, output = [([p.weight for p in layer], [p.bias for p in layer])
                           for layer in self.layers]
        # a linear layer is a kernel-1 conv, so flipping leaves it as it is
        for (weights, biases), length in zip(hidden, self.length_schedule()):
            z = ops.stacked_conv(z, weights, biases, length, flip=True, relu=True)
        alpha = ops.stacked_conv(z, *output)  # (f, batch, n_h, d)
        return alpha.swapaxes(2, 3), None

    def layer_params(self) -> list[LayerParams]:
        return [p for future in zip(*self.layers) for p in future]


class ScaleDecoder:
    """Linear map from the encoder vector to d (multiplier, offset) pairs."""

    def __init__(self, name: str, config: ModelConfig, take: Take):
        self.name = name
        self.d = config.d
        self.linear = take(f"{name}.linear", (2 * config.d, config.channels))

    def forward(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, channels) -> multiplier (batch, d), offset (batch, d)."""
        out = ops.linear(h, self.linear.weight, self.linear.bias)
        return out[:, :self.d], out[:, self.d:]

    def layer_params(self) -> list[LayerParams]:
        return [self.linear]


class _ForwardTensors(NamedTuple):
    """Graph-connected outputs of one batched forward pass, stacked over futures."""

    futures: Tensor             # (f, batch, d, n_h)
    shape_preds: Tensor         # (f, batch, d, n_h)
    scale_mul: Tensor           # (f, batch, d)
    scale_add: Tensor           # (f, batch, d)
    activations: Tensor | None  # (f, batch, d, n_s), None for tconv decoders


class Forecaster:
    """A configured multi-future model.

    Every parameter comes from ``take``: by default
    :func:`~multifuture.nn.initializer` seeded by ``seed``, while
    :func:`~multifuture.persistence.load` passes a checkpoint reader.
    ``shape_encoders``, ``scale_encoders``, ``shape_decoders`` and
    ``scale_decoders`` are the columns of the routing table described in
    the module docstring.  ``parameters()`` lists modules in construction
    order, so RNG draws and checkpoint layout follow from the configuration.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32,
                 take: Take | None = None):
        self.config = config
        self.dtype = np.dtype(dtype).type
        self.model_id = f"{config.variant}_f{config.f}"
        take = take or initializer(np.random.default_rng(seed), dtype)
        self._modules: list = []  # construction order = parameter order

        def build(cls, name):
            module = cls(name, config, take)
            self._modules.append(module)
            return module

        f, variant = config.f, config.variant
        if variant == "model_ensemble":
            rows = [(build(ConvEncoder, f"member{i}.shape_encoder"),
                     build(ConvEncoder, f"member{i}.scale_encoder"),
                     build(BankShapeDecoder, f"member{i}.shape_decoder0"),
                     build(ScaleDecoder, f"member{i}.scale_decoder0"))
                    for i in range(f)]
        else:
            if variant in ("shared_encoder", "non_separated"):
                shape_encoder = scale_encoder = build(ConvEncoder, "encoder")
            else:  # full, one_loss, tconv_decoder
                shape_encoder = build(ConvEncoder, "shape_encoder")
                scale_encoder = build(ConvEncoder, "scale_encoder")
            shape_decoders = (
                [build(TConvShapeDecoder, "shape_decoder")] * f
                if variant == "tconv_decoder"
                else [build(BankShapeDecoder, f"shape_decoder{i}") for i in range(f)])
            scale_decoders = (
                [None] * f if variant == "non_separated"
                else [build(ScaleDecoder, f"scale_decoder{i}") for i in range(f)])
            rows = [(shape_encoder, scale_encoder, shape_dec, scale_dec)
                    for shape_dec, scale_dec in zip(shape_decoders, scale_decoders)]
        (self.shape_encoders, self.scale_encoders,
         self.shape_decoders, self.scale_decoders) = map(list, zip(*rows))

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[LayerParams]:
        """All trainable parameter bundles in a stable, serializable order."""
        out = [p for module in self._modules for p in module.layer_params()]
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ValueError("parameter names are not unique within the model")
        return out

    def shape_banks(self) -> list[LayerParams]:
        return [bank for dec in self.shape_decoders
                if isinstance(dec, BankShapeDecoder) for bank in dec.banks]

    # -- forward passes -------------------------------------------------

    def forward_tensors(self, inputs: np.ndarray) -> _ForwardTensors:
        """Batched forward pass returning graph-connected tensors.

        ``inputs`` is ``(batch, n_p, d)`` (or a single ``(n_p, d)`` window).
        """
        return self._forward(Tensor(check_windows(
            inputs, self.config.n_p, self.config.d, self.dtype)))

    def _forward(self, x: Tensor) -> _ForwardTensors:
        """Forward pass from a validated ``(batch, n_p, d)`` tensor."""
        hidden = {m: m.forward(x) for m in self._modules
                  if isinstance(m, ConvEncoder)}
        shapes, acts = zip(*(dec.forward(hidden[enc]) for enc, dec in dict.fromkeys(
            zip(self.shape_encoders, self.shape_decoders))))
        shape_preds = concat(shapes)
        if self.scale_decoders[0] is None:  # raw-unit shapes
            ones = np.ones((self.config.f, x.shape[0], self.config.d), self.dtype)
            mul, add = Tensor(ones), Tensor(np.zeros_like(ones))
        else:
            muls, adds = zip(*(dec.forward(hidden[enc]) for enc, dec in zip(
                self.scale_encoders, self.scale_decoders)))
            mul, add = stack(muls), stack(adds)
        return _ForwardTensors(combine(shape_preds, mul, add), shape_preds,
                               mul, add, None if acts[0] is None else concat(acts))

    def predict_batch(self, windows: np.ndarray) -> list[FutureSet]:
        """Predict one future set per window of a ``(batch, n_p, d)`` stack.

        The whole stack goes through one no-grad forward pass; the outputs
        are cast to float64 and recombined once, and window ``i``'s
        ``FutureSet`` holds slices of those arrays.  A single ``(n_p, d)``
        window gives a list of one.
        """
        with no_grad():
            fwd = self.forward_tensors(windows)
        # (f, batch, ...) -> (batch, f, ...), so each window's slice is contiguous
        shape_preds, scale_mul, scale_add = (
            np.ascontiguousarray(t.data.swapaxes(0, 1), dtype=np.float64)
            for t in (fwd.shape_preds, fwd.scale_mul, fwd.scale_add))
        futures = combine(shape_preds, scale_mul, scale_add)
        activations = ([None] * len(futures) if fwd.activations is None else
                       np.ascontiguousarray(fwd.activations.data.swapaxes(0, 1),
                                            dtype=np.float64))
        return [FutureSet(*arrays) for arrays in zip(
            futures, shape_preds, scale_mul, scale_add, activations)]

    def predict_futures(self, window: np.ndarray) -> FutureSet:
        """Predict the future set for one ``(n_p, d)`` input window."""
        window = check_windows(window, self.config.n_p, self.config.d,
                               self.dtype, single=True)
        return self.predict_batch(window)[0]


class ExpertClassifier:
    """Predicts which of the f futures will fit best, from the input alone.

    Same convolutional encoder as the shape sub-network plus a linear +
    softmax head over the future indices.
    """

    dtype = np.float32

    def __init__(self, config: ModelConfig, seed: int = 0, take: Take | None = None):
        self.config = config
        take = take or initializer(np.random.default_rng(seed), self.dtype)
        self.encoder = ConvEncoder("encoder", config, take)
        self.head = take("head", (config.f, config.channels))

    def parameters(self) -> list[LayerParams]:
        return self.encoder.layer_params() + [self.head]

    def forward_logits(self, inputs: np.ndarray) -> Tensor:
        x = check_windows(inputs, self.config.n_p, self.config.d, self.dtype)
        return ops.linear(self.encoder.forward(Tensor(x)), self.head.weight,
                          self.head.bias)

    def predict_proba(self, window: np.ndarray) -> np.ndarray:
        """Probability over the f futures for one (n_p, d) window."""
        window = check_windows(window, self.config.n_p, self.config.d,
                               self.dtype, single=True)
        with no_grad():
            logits = self.forward_logits(window)
        return ops.softmax(logits).data[0].astype(np.float64)


# -- standalone operation entry points ---------------------------------------


def shape_encoder_forward(model: Forecaster, window: np.ndarray) -> np.ndarray:
    """Run the first future's shape encoder on one (n_p, d) window; returns h."""
    x = check_windows(window, model.config.n_p, model.config.d, model.dtype)
    with no_grad():
        return model.shape_encoders[0].forward(Tensor(x)).data[0].copy()


def shape_decoder_forward(model: Forecaster, h: np.ndarray,
                          decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply shape decoder ``decoder_index`` to a hidden vector.

    Returns ``(shape_prediction (d, n_h), activations (d, n_s))`` so the
    prediction can be re-derived externally from the activations and the
    banks alone.
    """
    decoder = model.shape_decoders[decoder_index]
    if not isinstance(decoder, BankShapeDecoder):
        raise ValueError("decoder does not expose template activations")
    with no_grad():
        alpha, r = decoder.forward(Tensor(np.asarray(h, dtype=model.dtype)[None]))
    return alpha.data[0, 0].copy(), r.data[0, 0].copy()


def scale_forward(model: Forecaster, window: np.ndarray,
                  decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale sub-network output (multiplier, offset) for one future.

    ``non_separated`` models report the unit multiplier and zero offset.
    """
    with no_grad():
        fwd = model.forward_tensors(window)
    return (fwd.scale_mul.data[decoder_index, 0].copy(),
            fwd.scale_add.data[decoder_index, 0].copy())


def combine(shape_pred, scale_mul, scale_add):
    """Futures ``scale_mul * shape_pred + scale_add``, one multiplier and
    offset per trajectory.

    ``shape_pred`` is ``(..., n_h)`` and the scale arrays are ``(...)``
    with the same leading axes, for example ``(d,)``, ``(f, d)`` or
    ``(f, batch, d)``.  Works on arrays and on tensors.
    """
    return (scale_mul.reshape(*scale_mul.shape, 1) * shape_pred
            + scale_add.reshape(*scale_add.shape, 1))


class ParameterCount(NamedTuple):
    total: int
    encoder: int
    decoder: int


def count_parameters(model) -> ParameterCount:
    """Trainable scalar counts, split between encoders and decoders."""
    total = encoder = decoder = 0
    for p in model.parameters():
        n = sum(t.size for t in p.tensors() if t.requires_grad)
        total += n
        if "encoder" in p.name:
            encoder += n
        else:
            decoder += n
    return ParameterCount(total, encoder, decoder)
