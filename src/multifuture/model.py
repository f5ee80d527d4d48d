"""The dual shape/scale forecaster and its ablation variants.

The model predicts ``f`` candidate futures for the next ``n_h`` hours from
the last ``n_p`` hours of a ``d``-feature series.  A shape sub-network
synthesizes scale-free trajectories as convex combinations of learned
template banks; a scale sub-network predicts a per-dimension multiplier and
offset; the final futures are ``scale_mul * shape + scale_add`` (see
:func:`combine`), one multiplier and offset per (future, feature) row.

Variants:

``full``
    Separate shape and scale encoders, a bank decoder and a scale decoder
    over all ``f`` futures.  ``one_loss`` shares this architecture (it only
    changes the training loss).
``shared_encoder``
    A single encoder feeds both decoders.
``non_separated``
    A single encoder with bank decoders whose templates synthesize the
    futures directly in raw units (unit multiplier, zero offset).
``tconv_decoder``
    Shape decoders replaced by a deep transposed-convolution stack; one
    :class:`TConvShapeDecoder` runs the ``f`` stacks as one batched op per
    layer.
``model_ensemble``
    ``f`` independent single-future copies of the full network.

All six are a list of :class:`Member` networks, built in
:class:`Forecaster`'s constructor and :meth:`Member.from_config`, the only
model code that reads the variant (``training.train`` and the CLI's config
overrides read it too, to train ``one_loss`` with gamma 0).  A member is a
shape encoder, a scale encoder (the same object for ``shared_encoder`` and
``non_separated``), one shape decoder and one scale decoder (``None`` for
``non_separated``, which gets the unit multiplier and zero offset
instead).  Each decoder runs all of its member's futures at
once and returns them on a leading axis.  ``model_ensemble`` has ``f``
single-future members with ``member{i}.`` parameter names; the other
variants have one member.  The forward pass joins the members' outputs in
order.  Every module takes and stores its
parameters in the model's one :class:`~multifuture.nn.layers.Parameters`.

Each module writes its forward pass once, through the ops.  A no-grad
pass over exactly one window replays the ops' steps that
:class:`~multifuture.nn.tensor.capture` recorded the first time the
model served a window (:meth:`Forecaster._serve`).  Batches and every
pass that builds a graph run the ops, with one exception: a no-grad
batch of windows that overlap in one series, such as
:func:`~multifuture.evaluation.evaluate_rolling`'s chunks, runs each
encoder's max-pool blocks once per distinct row of the windows' union
(:class:`ConvEncoder`), bit-identical to the ops.  The joined outputs
recombine into futures only where those are read
(:attr:`_ForwardTensors.futures`, read by the losses); prediction
recombines in float64 instead.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from dataclasses import dataclass, replace
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .nn import ops
from .nn.layers import Parameters, Take, initializer
from .nn.tensor import Tensor, _from_op, capture, concat, is_grad_enabled, no_grad

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
_hints = functools.cache(get_type_hints)  # resolving string annotations is slow


def _as_number(tp, name: str, value):
    """The one rule for a config's or an argument's numbers: ``value`` as a
    field of type ``tp`` holds it.  ``int`` takes a count (a Python or numpy
    integer) and ``float`` a real (a finite Python or numpy number) as a plain
    ``int`` or ``float``, never a bool; ``X | None`` and a tuple (given as a
    tuple or list) apply that to their items, and any other type, such as
    ``str`` or a dataclass, takes an instance of it."""
    if tp in (int, float):
        return (_as_count if tp is int else _as_real)(name, value)
    args = get_args(tp)
    if isinstance(tp, types.UnionType):
        return None if value is None else _as_number(args[0], name, value)
    if get_origin(tp) is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(_as_number(args[0], f"{name}[{i}]", v) for i, v in enumerate(value))
    if not isinstance(value, tp):
        raise ValueError(f"{name} must be a {tp.__name__}, got {value!r}")
    return value


def _as_count(name: str, value) -> int:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_real(name: str, value) -> float:
    # math.isfinite overflows on a Python int beyond the float range
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and (abs(value) <= sys.float_info.max if isinstance(value, int)
                 else math.isfinite(value))):
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_numbers(config) -> None:
    """Store each field of dataclass ``config`` as :func:`_as_number` gives it."""
    for name, tp in _hints(type(config)).items():
        object.__setattr__(config, name, _as_number(tp, name, getattr(config, name)))


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
        _check_numbers(self)
        for name in ("n_p", "n_h", "d", "f", "n_s", "channels", "kernel"):
            value, least = getattr(self, name), 2 if name == "n_p" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
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


def _window_step(windows, n_p: int) -> int | None:
    """The step ``s`` when ``windows`` is an array of two or more ``n_p``-row
    windows whose strides put window ``i`` at row ``i * s`` of one buffer,
    with ``0 <= s < n_p``, else None.  Element ``(i, t, j)`` then lies at
    the same bytes as ``(i', t', j)`` whenever ``i * s + t == i' * s + t'``.
    """
    if not isinstance(windows, np.ndarray) or windows.ndim != 3 or len(windows) < 2:
        return None
    window_stride, row_stride = windows.strides[:2]
    if row_stride == 0 or window_stride % row_stride:
        return None
    step = window_stride // row_stride
    return step if 0 <= step < n_p == windows.shape[1] else None


def check_windows(inputs, n_p: int, d: int, dtype, single: bool = False) -> np.ndarray:
    """One ``(n_p, d)`` window or, unless ``single``, a ``(batch, n_p, d)``
    batch as a ``(batch, n_p, d)`` array of ``dtype``, finite after the cast.

    Windows that overlap in one series (:func:`_window_step`) keep that
    layout: the cast copies each series row once, into a read-only view
    with the same overlap, which :meth:`ConvEncoder.forward` detects.
    """
    step = None if single else _window_step(inputs, n_p)
    try:
        if step is not None and inputs.shape[2] == d:
            as_strided = np.lib.stride_tricks.as_strided
            rows = np.asarray(as_strided(inputs, ((len(inputs) - 1) * step + n_p, d),
                                         inputs.strides[1:], writeable=False),
                              dtype=dtype)
            arr = as_strided(rows, inputs.shape, (step * rows.strides[0], *rows.strides),
                             writeable=False)
        else:
            arr = rows = np.asarray(inputs, dtype=dtype)
    except (TypeError, ValueError):  # not numbers, or a ragged nesting
        raise ValueError(f"expected a ({n_p}, {d}) window, got {type(inputs).__name__} "
                         f"that numpy cannot convert to {np.dtype(dtype).name}") from None
    if arr.shape[-2:] != (n_p, d) or arr.ndim not in ((2,) if single else (2, 3)):
        raise ValueError(f"expected a ({n_p}, {d}) window, got shape {np.shape(inputs)}")
    if not np.isfinite(rows).all():
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

    A no-grad pass over windows that overlap in one series (their strides
    say so: :func:`_window_step`) runs the max-pool blocks once per
    distinct row of the windows' union (``ops._union_max_blocks``, the
    "fragments" of dense max-pooling CNN scanning), then the last block on
    each window, bit-identical to the block-by-block pass.
    """

    def __init__(self, name: str, config: ModelConfig, table: Parameters):
        self.length = config.n_p
        in_channels = [config.d] + [config.channels] * (config.encoder_blocks - 1)
        self.convs = [table.stack([table.take(f"{name}.conv{b}",
                                              (config.channels, in_ch, config.kernel))])
                      for b, in_ch in enumerate(in_channels)]

    def forward(self, x: Tensor) -> Tensor:
        """(batch, n_p, d) -> (batch, 1, channels)."""
        *blocks, last = self.convs
        step = (_window_step(x.data, self.length) if blocks and not is_grad_enabled()
                else None)
        if step is not None:
            x = _from_op(ops._union_max_blocks(x.data, step, blocks), (x,), None)
        else:
            for conv in blocks:
                x = ops.encoder_block(x, conv.weight, conv.bias, "max")
        return ops.encoder_block(x, last.weight, last.bias, "mean")


class BankShapeDecoder:
    """Softmax-regression mixtures over per-feature template banks, for all
    ``f`` futures at once.

    Future ``i``'s feature ``j`` has a regressor and a bias-free bank named
    ``{name}{i}.regressor{j}`` and ``{name}{i}.bank{j}``, slice ``i * d + j``
    of ``regressors`` and of ``banks``; a bank holds ``n_s`` templates of
    length ``n_h``.  The ``f * d`` regressors run as one kernel-1
    :func:`~multifuture.nn.ops.stacked_conv` and the mixtures as one
    :func:`~multifuture.nn.ops.stacked_matmul`.
    """

    def __init__(self, name: str, config: ModelConfig, table: Parameters):
        self.d = config.d
        per_future = [([table.take(f"{name}{i}.regressor{j}", (config.n_s, config.channels))
                        for j in range(config.d)],
                       [table.take(f"{name}{i}.bank{j}", (config.n_s, config.n_h),
                                   bias=False)
                        for j in range(config.d)])
                      for i in range(config.f)]  # drawn future by future
        self.regressors, self.banks = (table.stack([p for future in layer for p in future])
                                       for layer in zip(*per_future))

    def forward(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, 1, channels) -> shape predictions (f, batch, d, n_h),
        activations (f, batch, d, n_s)."""
        logits = ops.stacked_conv(z, self.regressors.weight, self.regressors.bias)
        g = len(logits.data)  # f * d; sized explicitly, so an empty batch reshapes
        r = ops.softmax(logits.reshape(g, z.shape[0], logits.shape[-1]))
        alpha = ops.stacked_matmul(r, self.banks.weight)
        return tuple(t.reshape(g // self.d, self.d, *t.shape[1:]).swapaxes(1, 2)
                     for t in (alpha, r))


class TConvShapeDecoder:
    """Deep alternative decoder for all ``f`` futures at once:
    Linear -> [TConv, ReLU, Upsample] x 5 -> Conv.

    The linear output is treated as ``channels`` channels of length 1; each
    block's transposed convolution is cropped back to its input length
    (transposed padding ``kernel // 2``) so the upsampling alone drives the
    1 -> 2 -> 4 -> 8 -> 16 -> n_h progression, with the last upsample forced
    to the output horizon.  Every layer runs as one
    :func:`~multifuture.nn.ops.stacked_conv` over a leading future axis, on
    channels-last data, and the seven as one
    :func:`~multifuture.nn.ops.conv_stack` node, whose backward pass runs
    on the (future, row) pairs that won; the transposed convolutions run as
    the equal kernel-reversed "same" convolutions.  Each upsampling runs in
    the layer above it: ``stacked_conv`` upsamples its input, so
    ``tconv{b}`` reads the layer below upsampled to ``length_schedule()[b]``
    and the output conv reads it upsampled to ``n_h``, which takes the
    upsampling, padding and im2col of a layer in one gather.  Each future
    has its own parameters, named ``{name}{i}.input_linear``,
    ``{name}{i}.tconv{b}`` and ``{name}{i}.output_conv`` and drawn future by
    future; ``layers[l]`` stores layer ``l`` of every future as one tensor.
    """

    def __init__(self, name: str, config: ModelConfig, table: Parameters):
        self.n_h = config.n_h
        c, k = config.channels, config.kernel
        per_future = [[table.take(f"{name}{i}.input_linear", (c, c)),
                       *[table.take(f"{name}{i}.tconv{b}", (c, c, k))
                         for b in range(_TCONV_BLOCKS)],
                       table.take(f"{name}{i}.output_conv", (config.d, c, k))]
                      for i in range(config.f)]
        *hidden, output = zip(*per_future)
        # layers[l] is layer l of every future; the hidden layers' kernels
        # are stored reversed (a linear map has none to reverse)
        self.layers = ([table.stack(layer, flip=True) for layer in hidden]
                       + [table.stack(output)])

    def length_schedule(self) -> list[int]:
        return [2 ** b for b in range(_TCONV_BLOCKS)] + [self.n_h]

    def forward(self, z: Tensor) -> tuple[Tensor, None]:
        """(batch, 1, channels) -> shape predictions (f, batch, d, n_h)."""
        # tconv b upsamples its input to length_schedule()[b], the output conv to n_h
        alpha = ops.conv_stack(z, self.layers, [None, *self.length_schedule()])
        return alpha.swapaxes(2, 3), None  # (f, batch, n_h, d) -> (f, batch, d, n_h)


class ScaleDecoder:
    """Linear maps from the encoder vector to d (multiplier, offset) pairs,
    one per future, named ``{name}{i}.linear`` and run as one kernel-1
    :func:`~multifuture.nn.ops.stacked_conv`."""

    def __init__(self, name: str, config: ModelConfig, table: Parameters):
        self.d = config.d
        self.linears = table.stack([table.take(f"{name}{i}.linear",
                                               (2 * config.d, config.channels))
                                    for i in range(config.f)])

    def forward(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """(batch, 1, channels) -> multiplier (f, batch, d), offset (f, batch, d)."""
        out = ops.stacked_conv(z, self.linears.weight, self.linears.bias)
        return out[:, :, 0, :self.d], out[:, :, 0, self.d:]


class Member(NamedTuple):
    """One encoder-decoder network of a :class:`Forecaster` (module docstring)."""

    shape_encoder: ConvEncoder
    scale_encoder: ConvEncoder
    shape_decoder: BankShapeDecoder | TConvShapeDecoder
    scale_decoder: ScaleDecoder | None

    @classmethod
    def from_config(cls, config: ModelConfig, table: Parameters,
                    prefix: str = "") -> Member:
        """``config.variant``'s network, its parameter names prefixed with
        ``prefix``; takes parameters in checkpoint order."""
        if config.variant in ("shared_encoder", "non_separated"):
            shape_encoder = scale_encoder = ConvEncoder(prefix + "encoder", config, table)
        else:
            shape_encoder = ConvEncoder(prefix + "shape_encoder", config, table)
            scale_encoder = ConvEncoder(prefix + "scale_encoder", config, table)
        decoder = (TConvShapeDecoder if config.variant == "tconv_decoder"
                   else BankShapeDecoder)
        return cls(shape_encoder, scale_encoder,
                   decoder(prefix + "shape_decoder", config, table),
                   None if config.variant == "non_separated"
                   else ScaleDecoder(prefix + "scale_decoder", config, table))

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor | None, Tensor, Tensor]:
        """(batch, n_p, d) -> shapes, activations, multipliers and offsets.

        ``Tensor.backward`` runs the branch built last first.  Separate
        encoders build the scale branch first, so the backward pass finishes
        the shape branch, and frees its decoder's arrays, before it starts
        the scale encoder.  A shared encoder is one node whose gradient sums
        the shape decoder's futures after the scale decoder's.
        """
        if self.scale_encoder is not self.shape_encoder:
            scale = self.scale_decoder.forward(self.scale_encoder.forward(x))
            return *self.shape_decoder.forward(self.shape_encoder.forward(x)), *scale
        h = self.shape_encoder.forward(x)
        shapes, acts = self.shape_decoder.forward(h)
        if self.scale_decoder is None:  # raw-unit shapes
            ones = np.ones(shapes.shape[:3], shapes.dtype)
            return shapes, acts, Tensor(ones), Tensor(np.zeros_like(ones))
        return shapes, acts, *self.scale_decoder.forward(h)


class _ForwardTensors(NamedTuple):
    """Graph-connected outputs of one batched forward pass, stacked over futures."""

    shape_preds: Tensor         # (f, batch, d, n_h)
    scale_mul: Tensor           # (f, batch, d)
    scale_add: Tensor           # (f, batch, d)
    activations: Tensor | None  # (f, batch, d, n_s), None for tconv decoders

    @property
    def futures(self) -> Tensor:
        """The ``(f, batch, d, n_h)`` futures, recombined on each read: only
        the losses read them, and prediction recombines in float64."""
        return combine(self.shape_preds, self.scale_mul, self.scale_add)

    @classmethod
    def join(cls, outputs) -> _ForwardTensors:
        """The members' :meth:`Member.forward` outputs, their futures
        joined in order."""
        shapes, acts, muls, adds = zip(*outputs)
        return cls(concat(shapes), concat(muls), concat(adds),
                   None if acts[0] is None else concat(acts))


class Forecaster:
    """A configured multi-future model.

    Every parameter comes from ``take``: by default
    :func:`~multifuture.nn.initializer` seeded by ``seed``, while
    :func:`~multifuture.persistence.load` passes a checkpoint reader.
    ``members`` lists the networks described in the module docstring.
    They take their parameters in construction order, so RNG draws and
    checkpoint layout follow from the configuration.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32,
                 take: Take | None = None):
        self.config = config
        self.dtype = np.dtype(dtype).type
        self.model_id = f"{config.variant}_f{config.f}"
        self.table = Parameters(take or initializer(np.random.default_rng(seed), dtype))
        # serving plans not in use, each (window, steps, outputs) (see _serve)
        self._plans: list[tuple] = []
        if config.variant != "model_ensemble":
            self.members = [Member.from_config(config, self.table)]
        else:  # f single-future members
            self.members = [Member.from_config(replace(config, f=1), self.table,
                                               f"member{i}.")
                            for i in range(config.f)]

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> list[Tensor]:
        """The stored tensors the optimizer steps."""
        return self.table.parameters()

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Every parameter's ``(name, view)`` pair in checkpoint order."""
        return self.table.named_tensors()

    def shape_banks(self) -> list[tuple[str, Tensor]]:
        """Every bank's ``(name, view)`` pair, in checkpoint order."""
        return [(name, t) for name, t in self.named_tensors() if ".bank" in name]

    # -- forward passes -------------------------------------------------

    def forward_tensors(self, inputs: np.ndarray,
                        single: bool = False) -> _ForwardTensors:
        """Batched forward pass returning graph-connected tensors.

        ``inputs`` is ``(batch, n_p, d)`` or a single ``(n_p, d)`` window;
        ``single`` rejects a batch.  This is the one place the forward pass
        runs :func:`check_windows`.  A no-grad pass over one window is
        served by :meth:`_serve`; every other pass runs the ops.
        """
        x = Tensor(check_windows(inputs, self.config.n_p, self.config.d, self.dtype,
                                 single))
        if len(x.data) == 1 and not is_grad_enabled():
            return self._serve(x)
        return self._forward(x)

    def _serve(self, x: Tensor) -> _ForwardTensors:
        """The no-grad forward pass of one validated window, bit-identical
        to the ops': copies of the outputs of a plan, the members' forward
        passes captured on the plan's own window and replayed on this one.

        Plans not in use wait in the model's pool; a call takes one and
        puts it back, and captures another when none is free, so threads
        serving at once never share buffers.
        """
        try:
            window, steps, outputs = self._plans.pop()
        except IndexError:
            window = np.array(x.data, order="C")  # the input the steps read
            with capture() as recorded:
                outputs = [m.forward(Tensor(window)) for m in self.members]
            steps = recorded.steps
        else:
            np.copyto(window, x.data)
            for step in steps:
                step()
        try:
            return _ForwardTensors.join(
                [None if t is None else Tensor(t.data.copy()) for t in out]
                for out in outputs)
        finally:
            self._plans.append((window, steps, outputs))

    def _forward(self, x: Tensor) -> _ForwardTensors:
        """Forward pass of the ops from a validated ``(batch, n_p, d)`` tensor."""
        return _ForwardTensors.join(m.forward(x) for m in self.members)

    def predict_batch(self, windows: np.ndarray) -> list[FutureSet]:
        """Predict one future set per window of a ``(batch, n_p, d)`` stack.

        The whole stack goes through one no-grad forward pass; the outputs
        are cast to float64 and recombined once, and window ``i``'s
        ``FutureSet`` holds slices of those arrays.  A single ``(n_p, d)``
        window gives a list of one.
        """
        with no_grad():
            return self._future_sets(self.forward_tensors(windows))

    def predict_futures(self, window: np.ndarray) -> FutureSet:
        """Predict the future set for one ``(n_p, d)`` input window."""
        with no_grad():
            return self._future_sets(self.forward_tensors(window, single=True))[0]

    @staticmethod
    def _future_sets(fwd: _ForwardTensors) -> list[FutureSet]:
        """One float64 ``FutureSet`` per window of a forward pass's outputs."""
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


class ExpertClassifier:
    """Predicts which of the f futures will fit best, from the input alone.

    Same convolutional encoder as the shape sub-network plus a linear +
    softmax head over the future indices, run as a kernel-1
    :func:`~multifuture.nn.ops.stacked_conv`.
    """

    dtype = np.float32

    def __init__(self, config: ModelConfig, seed: int = 0, take: Take | None = None):
        self.config = config
        self.table = Parameters(take or initializer(np.random.default_rng(seed),
                                                    self.dtype))
        self.encoder = ConvEncoder("encoder", config, self.table)
        self.head = self.table.stack([self.table.take("head", (config.f, config.channels))])

    def parameters(self) -> list[Tensor]:
        return self.table.parameters()

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return self.table.named_tensors()

    def forward_logits(self, inputs: np.ndarray, single: bool = False) -> Tensor:
        """(batch, n_p, d) windows -> (batch, f) logits; ``single`` takes one
        (n_p, d) window and rejects a batch."""
        x = check_windows(inputs, self.config.n_p, self.config.d, self.dtype, single)
        h = self.encoder.forward(Tensor(x))
        return ops.stacked_conv(h, self.head.weight, self.head.bias).reshape(
            len(x), self.config.f)

    def predict_proba(self, window: np.ndarray) -> np.ndarray:
        """Probability over the f futures for one (n_p, d) window."""
        with no_grad():
            logits = self.forward_logits(window, single=True)
        return ops.softmax(logits).data[0].astype(np.float64)


# -- standalone operation entry points ---------------------------------------


def shape_encoder_forward(model: Forecaster, window: np.ndarray) -> np.ndarray:
    """Run the first future's shape encoder on one (n_p, d) window; returns h."""
    x = check_windows(window, model.config.n_p, model.config.d, model.dtype)
    with no_grad():
        return model.members[0].shape_encoder.forward(Tensor(x)).data[0, 0].copy()


def _check_future(model: Forecaster, decoder_index: int) -> None:
    if not 0 <= _as_count("decoder_index", decoder_index) < model.config.f:
        raise ValueError(f"decoder_index {decoder_index} is outside "
                         f"[0, {model.config.f})")


def shape_decoder_forward(model: Forecaster, h: np.ndarray,
                          decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Apply shape decoder ``decoder_index`` to a hidden vector.

    Returns ``(shape_prediction (d, n_h), activations (d, n_s))`` so the
    prediction can be re-derived externally from the activations and the
    banks alone.
    """
    _check_future(model, decoder_index)
    # every member holds the same number of consecutive futures
    member, index = divmod(decoder_index, model.config.f // len(model.members))
    decoder = model.members[member].shape_decoder
    if not isinstance(decoder, BankShapeDecoder):
        raise ValueError("decoder does not expose template activations")
    with no_grad():
        alpha, r = decoder.forward(Tensor(np.asarray(h, dtype=model.dtype)[None, None]))
    return alpha.data[index, 0].copy(), r.data[index, 0].copy()


def scale_forward(model: Forecaster, window: np.ndarray,
                  decoder_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale sub-network output (multiplier, offset) for one future.

    ``non_separated`` models report the unit multiplier and zero offset.
    """
    _check_future(model, decoder_index)
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
    total = sum(t.size for t in model.parameters())
    encoder = sum(t.size for name, t in model.named_tensors() if "encoder" in name)
    return ParameterCount(total, encoder, total - encoder)
