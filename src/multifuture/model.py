"""The dual shape/scale forecaster and its ablation variants.

The model predicts ``f`` candidate futures for the next ``n_h`` hours from
the last ``n_p`` hours of a ``d``-feature series.  A shape sub-network
synthesizes scale-free trajectories as convex combinations of learned
template banks; a scale sub-network predicts a per-dimension multiplier and
offset; the final futures are ``scale_mul * shape + scale_add`` row by row.

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
    Shape decoders replaced by a deep transposed-convolution stack.
``model_ensemble``
    ``f`` independent single-future copies of the full network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nn import layers, ops
from .nn.layers import LayerParams
from .nn.tensor import Tensor, no_grad, stack

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "ShapeBank",
    "FutureSet",
    "Forecaster",
    "ExpertClassifier",
    "model_forward",
    "expert_classifier_forward",
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
    templates per shape bank.
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


class ShapeBank:
    """Learnable templates for one (future, feature) pair.

    ``templates`` is ``(n_s, n_h)``: each row is a candidate trajectory of
    the same length as the output horizon.
    """

    def __init__(self, name: str, templates: Tensor):
        self.name = name
        self.templates = templates

    def as_params(self) -> LayerParams:
        return LayerParams(self.name, self.templates)


@dataclass
class FutureSet:
    """One forward pass worth of predictions.

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

    def validate(self, atol: float = 1e-6) -> None:
        recombined = (
            self.scale_mul[:, :, None] * self.shape_preds
            + self.scale_add[:, :, None]
        )
        if not np.allclose(self.futures, recombined, atol=atol, rtol=0):
            raise ValueError("futures do not equal scale_mul*shape + scale_add")
        if self.activations is not None:
            sums = self.activations.sum(axis=-1)
            if np.any(self.activations < -atol) or np.any(np.abs(sums - 1) > atol):
                raise ValueError("activations are not on the probability simplex")


class ConvEncoder:
    """Conv/ReLU/MaxPool blocks ending in Conv/ReLU/AdaptiveAvgPool.

    There are ``floor(log2(n_p))`` blocks, each one fused
    :func:`~multifuture.nn.ops.encoder_block` on channels-last
    ``(batch, length, channels)`` data.  Padding keeps convolutions
    length-preserving so only the max pooling halves the sequence, and the
    last block's mean pool collapses whatever length remains to 1.
    """

    def __init__(self, name: str, config: ModelConfig,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.padding = config.kernel // 2
        self.convs: list[LayerParams] = []
        in_ch = config.d
        for b in range(config.encoder_blocks):
            self.convs.append(
                layers.init_conv(f"{name}.conv{b}", config.channels, in_ch,
                                 config.kernel, rng, dtype)
            )
            in_ch = config.channels

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
    """Softmax-regression mixture over per-feature template banks."""

    def __init__(self, name: str, config: ModelConfig,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.regressors = [
            layers.init_linear(f"{name}.regressor{j}", config.n_s,
                               config.channels, rng, dtype)
            for j in range(config.d)
        ]
        self.banks = [
            ShapeBank(
                f"{name}.bank{j}",
                Tensor(rng.normal(0.0, 0.1, size=(config.n_s, config.n_h))
                       .astype(dtype), requires_grad=True),
            )
            for j in range(config.d)
        ]

    def forward(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, channels) -> shape prediction (batch, d, n_h), activations (batch, d, n_s)."""
        alphas, acts = [], []
        for reg, bank in zip(self.regressors, self.banks):
            r = ops.softmax(layers.linear(h, reg))
            alphas.append(r @ bank.templates)
            acts.append(r)
        return stack(alphas, axis=1), stack(acts, axis=1)

    def layer_params(self) -> list[LayerParams]:
        out = list(self.regressors)
        out.extend(bank.as_params() for bank in self.banks)
        return out


class TConvShapeDecoder:
    """Deep alternative decoder: Linear -> [TConv, ReLU, Upsample] x 5 -> Conv.

    The linear output is treated as 64 channels of length 1; each block's
    transposed convolution is cropped back to its input length (transposed
    padding 1) so the upsampling alone drives the 1 -> 2 -> 4 -> 8 -> 16 ->
    n_h progression, with the last upsample forced to the output horizon.
    """

    def __init__(self, name: str, config: ModelConfig,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.n_h = config.n_h
        self.padding = config.kernel // 2
        self.input_linear = layers.init_linear(
            f"{name}.input_linear", config.channels, config.channels, rng, dtype)
        self.tconvs = [
            layers.init_conv(f"{name}.tconv{k}", config.channels,
                             config.channels, config.kernel, rng, dtype)
            for k in range(_TCONV_BLOCKS)
        ]
        self.output_conv = layers.init_conv(
            f"{name}.output_conv", config.d, config.channels, config.kernel,
            rng, dtype)

    def length_schedule(self) -> list[int]:
        lengths = [1]
        for _ in range(_TCONV_BLOCKS - 1):
            lengths.append(lengths[-1] * 2)
        lengths.append(self.n_h)
        return lengths

    def forward(self, h: Tensor) -> tuple[Tensor, None]:
        """(batch, channels) -> shape prediction (batch, d, n_h)."""
        z = ops.relu(layers.linear(h, self.input_linear))
        z = z.reshape(z.shape[0], z.shape[1], 1)
        schedule = self.length_schedule()[1:]
        crop = self.padding  # transposed padding: keeps tconv length-neutral
        for tconv, target in zip(self.tconvs, schedule):
            z = layers.tconv1d(z, tconv)
            if crop:
                z = z[:, :, crop:-crop]
            z = ops.upsample_nearest(ops.relu(z), target)
        alpha = layers.conv1d(z, self.output_conv, padding=self.padding)
        return alpha, None

    def layer_params(self) -> list[LayerParams]:
        return [self.input_linear, *self.tconvs, self.output_conv]


class ScaleDecoder:
    """Linear map from the encoder vector to d (multiplier, offset) pairs."""

    def __init__(self, name: str, config: ModelConfig,
                 rng: np.random.Generator, dtype):
        self.name = name
        self.d = config.d
        self.linear = layers.init_linear(f"{name}.linear", 2 * config.d,
                                         config.channels, rng, dtype)

    def forward(self, h: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, channels) -> multiplier (batch, d), offset (batch, d)."""
        out = layers.linear(h, self.linear)
        return out[:, :self.d], out[:, self.d:]

    def layer_params(self) -> list[LayerParams]:
        return [self.linear]


class _EnsembleMember:
    """One single-future copy of the full network (model-ensemble scheme)."""

    def __init__(self, name: str, config: ModelConfig,
                 rng: np.random.Generator, dtype):
        self.shape_encoder = ConvEncoder(f"{name}.shape_encoder", config, rng, dtype)
        self.scale_encoder = ConvEncoder(f"{name}.scale_encoder", config, rng, dtype)
        self.shape_decoder = BankShapeDecoder(f"{name}.shape_decoder0", config,
                                              rng, dtype)
        self.scale_decoder = ScaleDecoder(f"{name}.scale_decoder0", config,
                                          rng, dtype)

    def layer_params(self) -> list[LayerParams]:
        return (self.shape_encoder.layer_params()
                + self.scale_encoder.layer_params()
                + self.shape_decoder.layer_params()
                + self.scale_decoder.layer_params())


class _ForwardTensors(NamedTuple):
    """Graph-connected per-future outputs of one batched forward pass."""

    futures: list[Tensor]       # f tensors of (batch, d, n_h)
    shape_preds: list[Tensor]   # f tensors of (batch, d, n_h)
    scale_mul: list            # f of (batch, d) Tensor, or None
    scale_add: list
    activations: list          # f of (batch, d, n_s) Tensor, or None


class Forecaster:
    """A configured multi-future model; weights are seeded at construction."""

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32,
                 model_id: str | None = None):
        self.config = config
        self.dtype = np.dtype(dtype).type
        self.model_id = model_id or f"{config.variant}_f{config.f}"
        rng = np.random.default_rng(seed)

        self.members: list[_EnsembleMember] = []
        self.shape_encoder = self.scale_encoder = None
        self.shape_decoders: list = []
        self.scale_decoders: list[ScaleDecoder] = []

        variant = config.variant
        if variant == "model_ensemble":
            self.members = [
                _EnsembleMember(f"member{i}", config, rng, dtype)
                for i in range(config.f)
            ]
        elif variant in ("shared_encoder", "non_separated"):
            self.shape_encoder = ConvEncoder("encoder", config, rng, dtype)
            self.scale_encoder = self.shape_encoder
            self.shape_decoders = [
                BankShapeDecoder(f"shape_decoder{i}", config, rng, dtype)
                for i in range(config.f)
            ]
            if variant == "shared_encoder":
                self.scale_decoders = [
                    ScaleDecoder(f"scale_decoder{i}", config, rng, dtype)
                    for i in range(config.f)
                ]
        else:  # full, one_loss, tconv_decoder
            self.shape_encoder = ConvEncoder("shape_encoder", config, rng, dtype)
            self.scale_encoder = ConvEncoder("scale_encoder", config, rng, dtype)
            decoder_cls = (TConvShapeDecoder if variant == "tconv_decoder"
                           else BankShapeDecoder)
            self.shape_decoders = [
                decoder_cls(f"shape_decoder{i}", config, rng, dtype)
                for i in range(config.f)
            ]
            self.scale_decoders = [
                ScaleDecoder(f"scale_decoder{i}", config, rng, dtype)
                for i in range(config.f)
            ]

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[LayerParams]:
        """All trainable parameter bundles in a stable, serializable order."""
        if self.members:
            out = []
            for member in self.members:
                out.extend(member.layer_params())
        else:
            out = self.shape_encoder.layer_params()
            if self.scale_encoder is not self.shape_encoder:
                out.extend(self.scale_encoder.layer_params())
            for dec in self.shape_decoders:
                out.extend(dec.layer_params())
            for dec in self.scale_decoders:
                out.extend(dec.layer_params())
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ValueError("parameter names are not unique within the model")
        return out

    def shape_banks(self) -> list[ShapeBank]:
        banks = []
        if self.members:
            for member in self.members:
                banks.extend(member.shape_decoder.banks)
        else:
            for dec in self.shape_decoders:
                if isinstance(dec, BankShapeDecoder):
                    banks.extend(dec.banks)
        return banks

    # -- forward passes -------------------------------------------------

    def _as_batch(self, inputs: np.ndarray) -> Tensor:
        arr = np.asarray(inputs, dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None]
        if arr.ndim != 3 or arr.shape[1:] != (self.config.n_p, self.config.d):
            raise ValueError(
                f"expected input of shape ({self.config.n_p}, {self.config.d}),"
                f" got {np.asarray(inputs).shape}"
            )
        return Tensor(arr)

    def forward_tensors(self, inputs: np.ndarray) -> _ForwardTensors:
        """Batched forward pass returning graph-connected tensors.

        ``inputs`` is ``(batch, n_p, d)`` (or a single ``(n_p, d)`` window).
        """
        x = self._as_batch(inputs)
        cfg = self.config
        futures, shapes, muls, adds, acts = [], [], [], [], []

        if cfg.variant == "model_ensemble":
            for member in self.members:
                hs = member.shape_encoder.forward(x)
                hc = member.scale_encoder.forward(x)
                alpha, r = member.shape_decoder.forward(hs)
                mul, add = member.scale_decoder.forward(hc)
                n = alpha.shape[0]
                fut = (mul.reshape(n, cfg.d, 1) * alpha
                       + add.reshape(n, cfg.d, 1))
                futures.append(fut)
                shapes.append(alpha)
                muls.append(mul)
                adds.append(add)
                acts.append(r)
            return _ForwardTensors(futures, shapes, muls, adds, acts)

        hs = self.shape_encoder.forward(x)
        hc = hs if self.scale_encoder is self.shape_encoder \
            else self.scale_encoder.forward(x)
        for i in range(cfg.f):
            alpha, r = self.shape_decoders[i].forward(hs)
            shapes.append(alpha)
            acts.append(r)
            if cfg.variant == "non_separated":
                futures.append(alpha)
                muls.append(None)
                adds.append(None)
            else:
                mul, add = self.scale_decoders[i].forward(hc)
                n = alpha.shape[0]
                futures.append(mul.reshape(n, cfg.d, 1) * alpha
                               + add.reshape(n, cfg.d, 1))
                muls.append(mul)
                adds.append(add)
        return _ForwardTensors(futures, shapes, muls, adds, acts)

    def predict_futures(self, window: np.ndarray) -> FutureSet:
        """Predict the future set for one ``(n_p, d)`` input window."""
        window = np.asarray(window)
        if window.ndim != 2:
            raise ValueError(f"expected a single (n_p, d) window, got {window.shape}")
        cfg = self.config
        with no_grad():
            fwd = self.forward_tensors(window)
        shape_preds = np.stack(
            [t.data[0].astype(np.float64) for t in fwd.shape_preds])
        if cfg.variant == "non_separated":
            scale_mul = np.ones((cfg.f, cfg.d))
            scale_add = np.zeros((cfg.f, cfg.d))
        else:
            scale_mul = np.stack(
                [t.data[0].astype(np.float64) for t in fwd.scale_mul])
            scale_add = np.stack(
                [t.data[0].astype(np.float64) for t in fwd.scale_add])
        futures = scale_mul[:, :, None] * shape_preds + scale_add[:, :, None]
        activations = None
        if fwd.activations[0] is not None:
            activations = np.stack(
                [t.data[0].astype(np.float64) for t in fwd.activations])
        return FutureSet(futures, shape_preds, scale_mul, scale_add, activations)


class ExpertClassifier:
    """Predicts which of the f futures will fit best, from the input alone.

    Same convolutional encoder as the shape sub-network plus a linear +
    softmax head over the future indices.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype).type
        rng = np.random.default_rng(seed)
        self.encoder = ConvEncoder("encoder", config, rng, dtype)
        self.head = layers.init_linear("head", config.f, config.channels,
                                       rng, dtype)

    def parameters(self) -> list[LayerParams]:
        return self.encoder.layer_params() + [self.head]

    def forward_logits(self, inputs: np.ndarray) -> Tensor:
        arr = np.asarray(inputs, dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None]
        return layers.linear(self.encoder.forward(Tensor(arr)), self.head)

    def predict_proba(self, window: np.ndarray) -> np.ndarray:
        """Probability over the f futures for one (n_p, d) window."""
        window = np.asarray(window)
        if window.ndim != 2:
            raise ValueError(f"expected a single (n_p, d) window, got {window.shape}")
        with no_grad():
            logits = self.forward_logits(window)
        return ops.softmax(logits).data[0].astype(np.float64)


# -- standalone operation entry points ---------------------------------------


def shape_encoder_forward(model: Forecaster, window: np.ndarray) -> np.ndarray:
    """Run the shape encoder on one (n_p, d) window; returns the h vector."""
    with no_grad():
        x = model._as_batch(np.asarray(window))
        encoder = (model.members[0].shape_encoder if model.members
                   else model.shape_encoder)
        return encoder.forward(x).data[0].copy()


def shape_decoder_forward(model: Forecaster, h: np.ndarray,
                          decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply shape decoder ``decoder_index`` to a hidden vector.

    Returns ``(shape_prediction (d, n_h), activations (d, n_s))`` so the
    prediction can be re-derived externally from the activations and the
    banks alone.
    """
    decoder = (model.members[decoder_index].shape_decoder if model.members
               else model.shape_decoders[decoder_index])
    if not isinstance(decoder, BankShapeDecoder):
        raise ValueError("decoder does not expose template activations")
    with no_grad():
        alpha, r = decoder.forward(Tensor(np.asarray(h, dtype=model.dtype)[None]))
    return alpha.data[0].copy(), r.data[0].copy()


def scale_forward(model: Forecaster, window: np.ndarray,
                  decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale sub-network output (multiplier, offset) for one future."""
    if model.config.variant == "non_separated":
        d = model.config.d
        return np.ones(d), np.zeros(d)
    with no_grad():
        x = model._as_batch(np.asarray(window))
        if model.members:
            member = model.members[decoder_index]
            h = member.scale_encoder.forward(x)
            mul, add = member.scale_decoder.forward(h)
        else:
            h = model.scale_encoder.forward(x)
            mul, add = model.scale_decoders[decoder_index].forward(h)
    return mul.data[0].copy(), add.data[0].copy()


def combine(shape_pred: np.ndarray, scale_mul: np.ndarray,
            scale_add: np.ndarray) -> np.ndarray:
    """Row j of the result is ``scale_mul[j] * shape_pred[j] + scale_add[j]``."""
    shape_pred = np.asarray(shape_pred)
    return (np.asarray(scale_mul)[:, None] * shape_pred
            + np.asarray(scale_add)[:, None])


def model_forward(window: np.ndarray, model: Forecaster) -> FutureSet:
    """Predict the full future set for one (n_p, d) window."""
    return model.predict_futures(window)


def expert_classifier_forward(window: np.ndarray,
                              classifier: ExpertClassifier) -> np.ndarray:
    """Probabilities over the f futures for one (n_p, d) window."""
    return classifier.predict_proba(window)


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
