"""Rolling evaluation, oracle metrics, and the classical baselines.

The test protocol predicts every ``n_h`` hours: the test span is covered by
non-overlapping ``n_h``-hour target windows, each predicted from the
``n_p`` hours immediately before it.  Oracle metrics take, per window, the
minimum error over the predicted futures; the plain ``rmse``/``nrmse``
fields report the fixed policy of always using the first future (for
single-future models the two coincide).

Test and training windows are cut from one validated view and scored by one
rule, so a window's errors and oracle index are the ones the training loss
gives it, and a non-finite or too-short series raises ``ValueError``
rather than giving NaN metrics.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import MultivariateSeries
from .model import FutureSet, _as_real, check_windows
from .training import ZNORM_EPSILON, _score, _series_values, _series_windows, z_normalize

__all__ = [
    "WindowRecord",
    "EvalReport",
    "evaluate_rolling",
    "NearestNeighborBaseline",
    "RidgeBaseline",
    "compare",
    "ComparisonTable",
]


@dataclass
class WindowRecord:
    window_index: int
    start_hour: int                      # offset of the target window in the test span
    oracle_index: int                    # 1-based, chosen on shape NRMSE
    rmse_per_future: list[float]
    nrmse_per_future: list[float]


@dataclass
class EvalReport:
    """Aggregated metrics over the rolling windows of one test span."""

    model_id: str
    f: int
    n_p: int
    n_h: int
    d: int
    rmse: float
    nrmse: float
    oracle_rmse: float
    oracle_nrmse: float
    per_window: list[WindowRecord] = field(default_factory=list)

    @property
    def n_windows(self) -> int:
        return len(self.per_window)

    def to_json(self) -> str:
        payload = {
            "model_id": self.model_id,
            "f": self.f,
            "n_p": self.n_p,
            "n_h": self.n_h,
            "d": self.d,
            "n_windows": self.n_windows,
            # plain metrics follow future 1; oracle metrics take the
            # per-window min; everything is averaged over windows
            "aggregation": "mean over windows; rmse/nrmse fix future 1; "
                           "oracle_* take the per-window minimum",
            "rmse": self.rmse,
            "nrmse": self.nrmse,
            "oracle_rmse": self.oracle_rmse,
            "oracle_nrmse": self.oracle_nrmse,
            "per_window": [asdict(w) for w in self.per_window],
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["window_index", "start_hour", "oracle_index",
                         "best_rmse", "best_nrmse", "rmse_per_future",
                         "nrmse_per_future"])
        for w in self.per_window:
            writer.writerow([
                w.window_index, w.start_hour, w.oracle_index,
                f"{min(w.rmse_per_future):.17g}",
                f"{min(w.nrmse_per_future):.17g}",
                "|".join(f"{v:.17g}" for v in w.rmse_per_future),
                "|".join(f"{v:.17g}" for v in w.nrmse_per_future),
            ])
        return buf.getvalue()


# Windows per forward pass: training's batch size.  Chunking bounds the
# memory of one pass over a long test span.
_EVAL_BATCH = 64


def evaluate_rolling(predictor, test: MultivariateSeries, n_p: int, n_h: int,
                     collect_predictions: bool = False):
    """Evaluate a predictor over all rolling windows of a test series.

    ``predictor`` needs ``predict_batch((batch, n_p, d) array) ->
    list[FutureSet]`` and a ``model_id`` attribute; the forecaster and both
    baselines qualify.  Windows go to ``predict_batch`` in chunks of at
    most 64, each a view of the series, window ``w`` at row ``w * n_h``;
    the forecaster then runs its encoders' max-pool blocks on the union of
    a chunk's windows, which overlap when ``n_h < n_p`` (see
    :class:`~multifuture.model.ConvEncoder`).  With ``collect_predictions``
    the return value is
    ``(report, predictions)`` where predictions is a list of per-window
    ``(truth (d, n_h), FutureSet)`` pairs.  A non-finite test span, or
    one shorter than ``n_p + n_h`` hours, raises ``ValueError``.
    """
    # Window w is hours w * n_h .. w * n_h + n_p + n_h - 1; (windows, d, n_p + n_h)
    spans = _series_windows(_series_values(test), n_p, n_h)[::n_h]
    inputs = spans[:, :, :n_p].swapaxes(1, 2)                    # (windows, n_p, d)
    truth = spans[:, :, n_p:]                                    # (windows, d, n_h)
    future_sets = [fs for start in range(0, len(spans), _EVAL_BATCH)
                   for fs in predictor.predict_batch(
                       inputs[start:start + _EVAL_BATCH])]
    futures = np.stack([fs.futures for fs in future_sets], axis=1)  # (f, windows, d, n_h)
    shape_preds = np.stack([fs.shape_preds for fs in future_sets], axis=1)
    rmses, nrmses, oracle = _score(futures, shape_preds, truth)  # (f, windows), (windows,)
    records = [WindowRecord(w, w * n_h + n_p, i + 1, r, n) for w, (i, r, n) in
               enumerate(zip(oracle.tolist(), rmses.T.tolist(), nrmses.T.tolist()))]

    report = EvalReport(
        model_id=getattr(predictor, "model_id", predictor.__class__.__name__),
        f=len(rmses),
        n_p=n_p,
        n_h=n_h,
        d=spans.shape[1],
        rmse=float(rmses[0].mean()),
        nrmse=float(nrmses[0].mean()),
        oracle_rmse=float(rmses.min(axis=0).mean()),
        oracle_nrmse=float(nrmses.min(axis=0).mean()),
        per_window=records,
    )
    if collect_predictions:
        return report, list(zip(truth, future_sets))
    return report


# -- baselines ----------------------------------------------------------------


def _future_sets(preds: np.ndarray) -> list[FutureSet]:
    """Wrap raw ``(batch, d, n_h)`` predictions as one-future sets.

    Each future keeps its prediction bit-exactly in raw units; the shape
    prediction is its per-dimension z-normalization, so the scale pair
    (std, mean) satisfies the combine identity up to rounding.  The
    statistics are taken over the whole stack at once: numpy reduces each
    window's rows of the stack in the order it reduces the window alone.
    """
    futures = preds.copy()  # C order; the caller may write to its array later
    shapes = z_normalize(preds, axis=2)
    scale_mul = np.maximum(preds.std(axis=2), ZNORM_EPSILON)
    scale_add = preds.mean(axis=2)
    return [FutureSet(futures[i:i + 1], shapes[i:i + 1], scale_mul[i:i + 1],
                      scale_add[i:i + 1]) for i in range(len(preds))]


def _normalized_rows(windows: np.ndarray) -> np.ndarray:
    """:func:`~multifuture.training.z_normalize` of ``(starts, d, n_p)``
    windows along time, as ``(d, starts, n_p)`` rows, each window's sums
    taken one hour after the other.

    This is the arithmetic of numpy's ``mean`` and ``std`` in the order
    numpy itself uses on a sliding-window view with ``d >= 2``, whose
    strided time axis it sums element by element.  Here the order is the
    rule for every ``d``: the sums run over ``(starts, d)`` accumulators,
    one hourly slice at a time, with no strided reduction and no
    full-size temporary.
    """
    starts, d, n_p = windows.shape
    hours = windows.transpose(2, 0, 1)                  # (n_p, starts, d)
    total = hours[0].copy()   # numpy's sum starts from the first term
    for hour in hours[1:]:
        total += hour
    mean = total / n_p
    centered = np.empty_like(mean)
    sq = np.zeros_like(mean)  # +0.0 plus a square is the square
    for hour in hours:
        np.subtract(hour, mean, out=centered)
        np.multiply(centered, centered, out=centered)
        sq += centered
    std = np.sqrt(sq / n_p)
    rows = np.empty((d, starts, n_p))
    np.subtract(windows.transpose(1, 0, 2), mean.T[:, :, None], out=rows)
    rows /= np.maximum(std, ZNORM_EPSILON).T[:, :, None]
    return rows


# Unit roundoff of float64 (round to nearest): every basic operation and
# sqrt is exact up to a relative error of at most this.
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: the relative error bound of a
    product of ``k`` roundings, or of a float sum of ``k + 1`` terms of one sign."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


class NearestNeighborBaseline:
    """Predict the continuation of the training subsequence nearest in shape.

    The query and every candidate window are z-normalized per dimension;
    a start's distance is the sum over dimensions of the Euclidean
    distances of the normalized rows, and the continuation is returned in
    raw units.  Ties keep the earliest window.  Each stored window's mean
    and std are summed one hour after the other, for every ``d``; for
    ``d >= 2`` that is the order of ``z_normalize`` on the sliding-window
    view, so the stored bits are that call's.

    The scan is exact: it picks the start that the full scan
    ``sqrt(((windows - query) ** 2).sum(time)).sum(dims)`` over every
    normalized window picks, bit for bit, in two steps per query.

    1. **Bound every start.**  For a stored row ``a`` and the query row
       ``q`` of one dimension, both of length ``n = n_p``,
       ``e = (|a|^2 - 2 a.q) + |q|^2``, with ``|a|^2`` computed once and
       every ``a.q`` from one matmul.  In IEEE float64 with unit roundoff
       ``u = 2^-53`` and ``gamma_k = k u / (1 - k u)``, three inner
       products (any summation order, fused or not) and two roundings put
       ``e`` within ``gamma_{n+2} (|a| + |q|)^2`` of the exact ``|a - q|^2``,
       and the full scan's own float sum ``s`` of squared differences
       (three roundings per term, ``n - 1`` additions) is within
       ``gamma_{n+2} |a - q|^2 <= gamma_{n+2} (|a| + |q|)^2`` of it as well.
       ``delta = gamma_{2n+8} (|a| + |q|)^2``, evaluated in float64 from the
       computed norms, exceeds their sum plus the roundings of ``delta``
       and of ``e -/+ delta`` (for ``n`` far below 10^7), so
       ``max(e - delta, 0) <= s <= e + delta`` holds for the computed
       values.  Correctly rounded ``sqrt`` is monotone, and a float sum of
       ``d`` non-negative terms is within a factor ``1 +/- gamma_{d-1}`` of
       the exact sum in any order.  So the lower bound
       ``sum_dims sqrt(max(e - delta, 0))`` and the upper bound
       ``sum_dims sqrt(e + delta)`` bracket the full scan's distance up to
       a factor ``(1 + gamma_{d-1}) / (1 - gamma_{d-1})`` each, and every
       start whose lower bound is at most ``1 + 4 gamma_{d+1}`` times the
       smallest upper bound is a candidate.  That includes every start at
       the full scan's minimum.
    2. **Recheck the candidates.**  Their stored rows, normalized in time
       order, are gathered back into the full scan's memory layout,
       time-major ``(n_p, d)`` per start as in the sliding-window view,
       and the full scan's expression runs on them alone.  The layout
       matters: numpy sums a strided time axis one element after the other
       but a contiguous one pairwise, and the two differ in the last bit
       for a large share of rows.  In the time-major layout every
       candidate's distance is the full scan's, and the argmin over the
       candidates in start order is the full scan's start.

    A query costs one ``(d, starts, n_p) @ (d, n_p, 1)`` product and a
    few ``(d, starts)`` arrays; nearly always one start is rechecked.
    """

    model_id = "nearest_neighbor"

    def __init__(self, train: MultivariateSeries, n_p: int, n_h: int):
        windows = _series_windows(_series_values(train), n_p, n_h)  # (starts, d, n_p + n_h)
        self.n_p = n_p
        self.n_h = n_h
        # (starts, d, n_h), copied because the caller may write to its array
        # later; time-major, as in the view, so each continuation's statistics
        # are summed in the same order.
        self._continuations = windows[:, :, n_p:].swapaxes(1, 2).copy().swapaxes(1, 2)
        # The full scan's normalized values, stored row-major per dimension
        # for the matmul: (d, starts, n_p).
        self._rows = _normalized_rows(windows[:, :, :n_p])
        self._row_sq = np.einsum("dsn,dsn->ds", self._rows, self._rows)
        self._row_norms = np.sqrt(self._row_sq)

    def _candidates(self, query: np.ndarray) -> np.ndarray:
        """Ascending starts whose lower bound on the full scan's distance to
        the normalized ``(d, n_p)`` query is within the smallest upper bound."""
        dots = np.matmul(self._rows, query[:, :, None])[:, :, 0]   # (d, starts)
        query_sq = np.einsum("dn,dn->d", query, query)[:, None]
        e = self._row_sq - 2 * dots + query_sq
        delta = _gamma(2 * self.n_p + 8) * (self._row_norms + np.sqrt(query_sq)) ** 2
        lower = np.sqrt(np.maximum(e - delta, 0)).sum(axis=0)
        upper = np.sqrt(e + delta).sum(axis=0)
        slack = 1 + 4 * _gamma(len(query) + 1)
        return np.flatnonzero(lower <= upper.min() * slack)

    def _recheck(self, query: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The full scan's distances of ``starts``, bit-identical."""
        rows = np.ascontiguousarray(
            self._rows[:, starts].transpose(1, 2, 0)).transpose(0, 2, 1)
        sq = np.subtract(rows, query)
        np.square(sq, out=sq)
        return np.sqrt(sq.sum(axis=2)).sum(axis=1)

    def predict_futures(self, window: np.ndarray) -> FutureSet:
        window = check_windows(window, self.n_p, len(self._rows),
                               np.float64, single=True)[0]
        query = z_normalize(window, axis=0).T  # (d, n_p)
        starts = self._candidates(query)
        best = int(starts[np.argmin(self._recheck(query, starts))])
        return _future_sets(self._continuations[best:best + 1])[0]

    def predict_batch(self, windows: np.ndarray) -> list[FutureSet]:
        """One future set per window of a ``(batch, n_p, d)`` stack.

        Each window is one :meth:`predict_futures` call: its bound is one
        matrix-vector product over every stored start and its recheck
        touches a few starts, so there is no full-size work left to share.
        ``perfbench``'s trace counts one ``predict_futures`` span per
        evaluated window.
        """
        windows = check_windows(windows, self.n_p, len(self._rows), np.float64)
        return [self.predict_futures(w) for w in windows]


class RidgeBaseline:
    """One closed-form ridge regressor per output coordinate.

    Input windows are flattened time-major to ``n_p * d`` feature vectors;
    with the default 168 x 4 input and 24 x 4 output this is the classic
    96-model multi-output linear baseline.  The intercept column is not
    penalized, so in the infinite-regularization limit the predictions
    collapse to the per-coordinate training means.
    """

    model_id = "ridge"

    def __init__(self, train: MultivariateSeries, n_p: int, n_h: int,
                 lam: float = 1.0):
        if _as_real("lam", lam) <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        # Time-major (windows, n_p + n_h, d); only x and y are allocated.
        windows = _series_windows(_series_values(train), n_p, n_h).swapaxes(1, 2)
        n_windows, _, self.d = windows.shape
        self.n_p = n_p
        self.n_h = n_h
        x = np.empty((n_windows, 1 + n_p * self.d))
        x[:, 0] = 1.0
        x[:, 1:] = windows[:, :n_p].reshape(n_windows, -1)
        y = windows[:, n_p:].reshape(n_windows, -1).copy()
        gram = x.T @ x
        diagonal = np.arange(1, x.shape[1])  # the intercept is not penalized
        gram[diagonal, diagonal] += lam
        self.coefficients = np.linalg.solve(gram, x.T @ y)

    def predict_futures(self, window: np.ndarray) -> FutureSet:
        """The future set of one ``(n_p, d)`` window: its batch of one."""
        return self.predict_batch(check_windows(
            window, self.n_p, self.d, np.float64, single=True))[0]

    def predict_batch(self, windows: np.ndarray) -> list[FutureSet]:
        """One future set per window of a ``(batch, n_p, d)`` stack, from
        one GEMM."""
        windows = check_windows(windows, self.n_p, self.d, np.float64)
        features = np.empty((len(windows), self.coefficients.shape[0]))
        features[:, 0] = 1.0
        features[:, 1:] = windows.reshape(len(windows), self.n_p * self.d)
        raw = (features @ self.coefficients).reshape(-1, self.n_h, self.d)
        return _future_sets(raw.swapaxes(1, 2))


# -- method comparison ---------------------------------------------------------

_METRICS = ("rmse", "nrmse", "oracle_rmse", "oracle_nrmse")


@dataclass
class ComparisonTable:
    """Per-method metric table with the per-metric best marked."""

    rows: list[dict]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["model_id", *(_METRICS),
                         *(f"best_{m}" for m in _METRICS)])
        for row in self.rows:
            writer.writerow([
                row["model_id"],
                *(f"{row[m]:.17g}" for m in _METRICS),
                *(int(row[f"best_{m}"]) for m in _METRICS),
            ])
        return buf.getvalue()

    def to_text(self) -> str:
        header = ["method"] + list(_METRICS)
        lines = []
        body = []
        for row in self.rows:
            cells = [row["model_id"]]
            for m in _METRICS:
                mark = "*" if row[f"best_{m}"] else " "
                cells.append(f"{row[m]:.4f}{mark}")
            body.append(cells)
        widths = [max(len(r[i]) for r in [header] + body)
                  for i in range(len(header))]
        for cells in [header] + body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines) + "\n"


def compare(reports: list[EvalReport]) -> ComparisonTable:
    """Tabulate reports that share a protocol; lowest value per metric wins."""
    if not reports:
        raise ValueError("no reports to compare")
    first = reports[0]
    for rep in reports[1:]:
        if (rep.n_p, rep.n_h, rep.d, rep.n_windows) != \
                (first.n_p, first.n_h, first.d, first.n_windows):
            raise ValueError(
                f"incompatible report {rep.model_id!r}: protocol "
                f"(n_p, n_h, d, windows) differs")
    rows = []
    for rep in reports:
        rows.append({"model_id": rep.model_id,
                     **{m: getattr(rep, m) for m in _METRICS}})
    for m in _METRICS:
        best = min(row[m] for row in rows)
        for row in rows:
            row[f"best_{m}"] = row[m] == best
    return ComparisonTable(rows)
