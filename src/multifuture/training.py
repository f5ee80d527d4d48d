"""Oracle-loss training.

The loss for one instance is ``RMSE(truth, best_future) + gamma *
NRMSE(truth, best_shape)``, where "best" is the future whose shape
prediction has the lowest NRMSE against the ground truth (the oracle
index).  Each instance in a mini-batch routes its own gradient to its own
best decoder; the per-instance losses are summed and one Adam update is
applied per iteration.

Here and in evaluation, every ``(input, target)`` window is cut from the
validated view :func:`_series_windows` (the sampler's :class:`_WindowPool`
builds that view of each usable series, checked once per training run),
and every window is scored by the one oracle rule :func:`_score`: the
loss, the expert's labels, rolling evaluation and :func:`oracle_index`
take their errors and winners from it.
"""

from __future__ import annotations

import csv
import ctypes
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ExpertClassifier, Forecaster, FutureSet, ModelConfig
from .model import _as_count, _check_numbers
from .nn import ops
from .nn.optim import AdamState, adam_step
from .nn.tensor import Tensor, no_grad
from .persistence import _write_atomic

__all__ = [
    "TrainConfig",
    "LossRecord",
    "TrainingDiverged",
    "ZNORM_EPSILON",
    "z_normalize",
    "rmse",
    "nrmse",
    "window_rmse",
    "oracle_index",
    "compute_loss",
    "sample_minibatch",
    "train",
    "train_expert",
    "write_loss_trace",
]


# The floor on a window's standard deviation when it is z-normalized: a
# flat window normalizes to zeros instead of dividing by zero.
ZNORM_EPSILON = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite.

    The reported terms mask every future's error by whether it won, so a
    non-finite error in any future stops training (NaN times 0 is NaN),
    whether or not that future won a row.
    """


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 1.0
    n_iter: int = 2000
    batch_size: int = 64
    seed: int = 0
    learning_rate: float = 1e-3

    def __post_init__(self):
        _check_numbers(self)
        if self.n_iter < 0 or self.batch_size < 1:
            raise ValueError("n_iter must be >= 0 and batch_size >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class LossRecord:
    iteration: int
    total_loss: float
    rmse_term: float
    nrmse_term: float
    oracle_index_histogram: list[int]


def z_normalize(series, axis: int = 0) -> np.ndarray:
    """Subtract the mean and divide by the population std, floored at
    :data:`ZNORM_EPSILON`.

    The statistics are taken along ``axis`` (the time axis: 0 for
    time-major ``(n, d)`` series, -1 for feature-major ``(d, n_h)``
    prediction windows), independently per feature dimension.
    """
    arr = np.asarray(series, dtype=np.float64)
    mean = arr.mean(axis=axis, keepdims=True)
    std = arr.std(axis=axis, keepdims=True)
    return (arr - mean) / np.maximum(std, ZNORM_EPSILON)


def rmse(pred, truth) -> float:
    """Root mean squared error over all entries: :func:`window_rmse` of the
    two arrays viewed as one row each."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(window_rmse(pred.reshape(1, -1), truth.reshape(1, -1)))


def nrmse(shape_pred, truth) -> float:
    """RMSE between a shape prediction and the z-normalized ground truth.

    Both arguments are feature-major ``(d, n_h)``; only the truth is
    normalized (per dimension, along time).
    """
    truth = np.asarray(truth, dtype=np.float64)
    return rmse(shape_pred, z_normalize(truth, axis=-1))


def window_rmse(pred, truth):
    """RMSE over the last two axes, one value per leading index.

    ``truth`` is ``(d, n_h)`` or ``(batch, d, n_h)`` and broadcasts against
    the trailing axes of ``pred`` (for example ``(f, d, n_h)`` or
    ``(f, batch, d, n_h)``).  An array ``pred`` gives an array, computed in
    the inputs' dtype; a :class:`~multifuture.nn.tensor.Tensor` gives a
    tensor in its dtype, connected to its graph.
    """
    if not isinstance(pred, Tensor):
        pred = np.asarray(pred)
    truth = np.asarray(truth)
    if truth.ndim < 2 or pred.shape[pred.ndim - truth.ndim:] != truth.shape:
        raise ValueError(
            f"truth {truth.shape} does not match the trailing axes of "
            f"predictions {pred.shape}")
    diff = pred - truth
    mean_square = (diff * diff).mean(axis=(-2, -1))
    return mean_square.sqrt() if isinstance(mean_square, Tensor) else np.sqrt(mean_square)


def _score(futures, shape_preds, truth):
    """The oracle rule for ``(f, ..., d, n_h)`` futures and shape predictions
    against a ``(..., d, n_h)`` truth array, z-normalized along time in its own
    dtype: the per-future ``(f, ...)`` RMSEs and NRMSEs, and the 0-based
    ``(...)`` oracle, the future of least NRMSE with ties to the lowest index.
    Arrays give arrays and tensors tensors, as in :func:`window_rmse`."""
    rmse_rows = window_rmse(futures, truth)
    nrmse_rows = window_rmse(shape_preds, z_normalize(truth, axis=-1).astype(truth.dtype))
    errors = nrmse_rows.data if isinstance(nrmse_rows, Tensor) else nrmse_rows
    return rmse_rows, nrmse_rows, errors.argmin(axis=0)


def oracle_index(future_set: FutureSet, truth) -> int:
    """1-based index of the future whose shape best matches the truth.

    The choice is made on shape predictions only; ties break toward the
    lowest index.
    """
    truth = np.asarray(truth, dtype=np.float64)
    return int(_score(future_set.futures, future_set.shape_preds, truth)[2]) + 1


def compute_loss(future_set: FutureSet, truth, i_oc: int,
                 gamma: float = 1.0) -> LossRecord:
    """Evaluate the oracle loss of a prediction set at a given index."""
    if not 1 <= _as_count("i_oc", i_oc) <= future_set.f:
        raise ValueError(f"i_oc {i_oc} out of range [1..{future_set.f}]")
    truth = np.asarray(truth, dtype=np.float64)
    rmses, nrmses, _ = _score(future_set.futures, future_set.shape_preds, truth)
    r, n = float(rmses[i_oc - 1]), float(nrmses[i_oc - 1])
    histogram = [0] * future_set.f
    histogram[i_oc - 1] = 1
    return LossRecord(
        iteration=0,
        total_loss=r + gamma * n,
        rmse_term=r,
        nrmse_term=n,
        oracle_index_histogram=histogram,
    )


def _series_values(series) -> np.ndarray:
    values = getattr(series, "values", series)
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"series values must be 2-D (n, d), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("series holds non-finite values")
    return arr


def _check_horizons(n_p, n_h) -> None:
    for name, hours in (("n_p", n_p), ("n_h", n_h)):
        if _as_count(name, hours) < 1:
            raise ValueError(f"{name} must be a positive integer, got {hours!r}")


def _series_windows(values: np.ndarray, n_p: int, n_h: int) -> np.ndarray:
    """Every ``n_p + n_h``-hour window of ``values``, a series checked by
    :func:`_series_values`, as the read-only ``(starts, d, n_p + n_h)``
    view: window ``w`` is hours ``w .. w + n_p + n_h - 1``, the first
    ``n_p`` its input and the rest its target."""
    _check_horizons(n_p, n_h)
    if len(values) < n_p + n_h:
        raise ValueError(f"series of {len(values)} hours is shorter than "
                         f"n_p + n_h = {n_p + n_h}")
    return np.lib.stride_tricks.sliding_window_view(values, n_p + n_h, axis=0)


class _WindowPool:
    """The time-major ``(starts, n_p + n_h, d)`` window views of every series
    in a pool that is at least ``n_p + n_h`` hours long, each series
    converted and checked once; :func:`sample_minibatch` draws from it."""

    def __init__(self, series, n_p: int, n_h: int):
        _check_horizons(n_p, n_h)
        pool = series if isinstance(series, (list, tuple)) else [series]
        hours = n_p + n_h
        self.views = [_series_windows(v, n_p, n_h).swapaxes(1, 2)
                      for v in map(_series_values, pool) if len(v) >= hours]
        if not self.views:
            raise ValueError(f"series too short: need at least {hours} hours")


def sample_minibatch(series, n_p: int, n_h: int, n_b: int,
                     rng: np.random.Generator):
    """Draw (inputs, targets) windows uniformly with replacement.

    ``series`` is one series or a sequence of them (windows never span
    series boundaries, and a series shorter than ``n_p + n_h`` is skipped).
    The target window starts immediately after the input window.  Returns
    ``(n_b, n_p, d)`` inputs and ``(n_b, n_h, d)`` targets.  Training
    passes a :class:`_WindowPool` of the same horizons, built once per run,
    so its series are not checked again on every call.
    """
    if _as_count("n_b", n_b) < 0:
        raise ValueError(f"n_b must be >= 0, got {n_b}")
    pool = series if isinstance(series, _WindowPool) else _WindowPool(series, n_p, n_h)
    views = pool.views
    which = (np.zeros(n_b, dtype=int) if len(views) == 1
             else rng.integers(0, len(views), size=n_b))
    rows = [views[k][rng.integers(0, len(views[k]))] for k in which]
    batch = np.stack(rows) if rows else np.empty((0, *views[0].shape[1:]))
    return batch[:, :n_p], batch[:, n_p:]


def _oracle_batch_loss(fwd, truth, gamma: float, iteration: int):
    """A forward pass's oracle loss against the ``(batch, d, n_h)`` truth:
    the loss tensor, which routes each row to its winning future only, and
    the iteration's :class:`LossRecord`."""
    rmse_rows, nrmse_rows, i_oc = _score(fwd.futures, fwd.shape_preds, truth)
    winners = np.arange(len(rmse_rows.data))[:, None] == i_oc  # one-hot
    mask = Tensor(winners.astype(truth.dtype))

    loss = (mask * rmse_rows).sum()
    if gamma != 0.0:
        loss = loss + gamma * (mask * nrmse_rows).sum()
    # Per-future float32 sums added in future order; a non-finite
    # error in any future, winning or not, makes the total non-finite.
    rmse_term = sum(map(float, (rmse_rows.data * winners).sum(axis=1)), 0.0)
    nrmse_term = sum(map(float, (nrmse_rows.data * winners).sum(axis=1)), 0.0)
    return loss, LossRecord(iteration, rmse_term + gamma * nrmse_term, rmse_term,
                            nrmse_term, winners.sum(axis=1).tolist())


def _pin_allocator() -> None:
    """Keep the memory a training step frees in the process.

    Each backward pass frees its whole graph, and glibc would then trim its
    heap and return large blocks to the system, so the next forward pass
    would fault the same pages in again.  Serving every block under 32 MiB
    from the heap, and trimming only past 256 MiB free at its top, keeps
    them.  This only changes where memory comes from, never a value.  It
    does nothing where the C library or its ``mallopt`` cannot be found.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's ceiling for its dynamic one
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _fit(series, params, config: ModelConfig, train_config: TrainConfig,
         seed: int, loss_of):
    """Step Adam on ``loss_of(inputs, truth) -> (loss, total)`` over seeded
    mini-batches, with float32 ``(batch, d, n_h)`` truth; yield after each
    step, or raise :class:`TrainingDiverged` on a non-finite total.  Each
    step's backward pass releases its graph (see :meth:`Tensor.backward`),
    so a step holds one graph; :func:`_pin_allocator` runs first."""
    _pin_allocator()
    pool = _WindowPool(series, config.n_p, config.n_h)
    state = AdamState.init(params, learning_rate=train_config.learning_rate)
    rng = np.random.default_rng(seed)
    for iteration in range(train_config.n_iter):
        inputs, targets = sample_minibatch(
            pool, config.n_p, config.n_h, train_config.batch_size, rng)
        truth = np.ascontiguousarray(targets.transpose(0, 2, 1), dtype=np.float32)
        loss, total = loss_of(inputs, truth)
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"non-finite loss {total} at iteration {iteration} (seed={seed})")
        loss.backward()
        adam_step(params, state)
        yield


def train(series, model_config: ModelConfig, train_config: TrainConfig,
          progress: Callable[[LossRecord], None] | None = None,
          ) -> tuple[Forecaster, list[LossRecord]]:
    """Run the mini-batch oracle-loss training loop.

    Returns the trained model and one loss record per iteration.  The
    whole run is a deterministic function of (series, configs).
    """
    model = Forecaster(model_config, seed=train_config.seed)
    gamma = 0.0 if model_config.variant == "one_loss" else train_config.gamma
    trace: list[LossRecord] = []

    def loss_of(inputs, truth):
        loss, record = _oracle_batch_loss(
            model.forward_tensors(inputs), truth, gamma, len(trace))
        trace.append(record)
        return loss, record.total_loss

    for _ in _fit(series, model.parameters(), model_config, train_config,
                  train_config.seed, loss_of):
        if progress is not None:
            progress(trace[-1])
    return model, trace


def train_expert(series, model: Forecaster,
                 train_config: TrainConfig | None = None) -> ExpertClassifier:
    """Fit an expert classifier against the trained model's oracle indices.

    Every sampled window gets labeled with the model's oracle future index
    for the window that actually followed, and the classifier is optimized
    with cross-entropy on those labels.  With ``f == 1`` the untrained
    classifier is already exact, so it is returned as-is.

    The classifier has the model's configuration.  Its seed is the training
    seed plus one, so its weights do not replay the forecaster's
    initialization stream.
    """
    train_config = train_config or TrainConfig()
    seed = train_config.seed + 1
    classifier = ExpertClassifier(model.config, seed=seed)
    if model.config.f == 1:
        return classifier

    def loss_of(inputs, truth):
        with no_grad():
            fwd = model.forward_tensors(inputs)
        labels = _score(fwd.futures.data, fwd.shape_preds.data, truth)[2]
        loss = ops.cross_entropy(classifier.forward_logits(inputs), labels)
        return loss, float(loss.data)

    for _ in _fit(series, classifier.parameters(), model.config, train_config,
                  seed, loss_of):
        pass
    return classifier


def write_loss_trace(trace: Sequence[LossRecord], path) -> None:
    """Write a loss trace as CSV: iteration,total,rmse,nrmse,oracle_histogram.

    Rows end in the csv module's CRLF, and the file is replaced atomically.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["iteration", "total", "rmse", "nrmse", "oracle_histogram"])
    for rec in trace:
        writer.writerow([
            rec.iteration,
            f"{rec.total_loss:.17g}",
            f"{rec.rmse_term:.17g}",
            f"{rec.nrmse_term:.17g}",
            "|".join(str(c) for c in rec.oracle_index_histogram),
        ])
    _write_atomic(path, text.getvalue().encode())
