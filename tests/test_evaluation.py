"""Tests for rolling evaluation, oracle metrics, and the baselines."""

import json
import tracemalloc

import numpy as np
import pytest
from nn_reference import full_scan, full_scan_distances

from multifuture.data import GeneratorConfig, generate
from multifuture.evaluation import (
    EvalReport,
    NearestNeighborBaseline,
    RidgeBaseline,
    WindowRecord,
    compare,
    evaluate_rolling,
)
from multifuture.model import (
    VARIANTS,
    ExpertClassifier,
    Forecaster,
    FutureSet,
    ModelConfig,
)
from multifuture.nn import Tensor, ops
from multifuture.training import (
    ZNORM_EPSILON,
    TrainConfig,
    nrmse,
    oracle_index,
    rmse,
    sample_minibatch,
    train,
    window_rmse,
    z_normalize,
)

# Batched and single-window forwards differ only in float32 GEMM rounding.
# Over 28 windows, the six variants and five seeds, the largest measured
# gap was 0.25 float32 eps of max(|value|, 1); this bound allows 4.
BATCH_TOL = 4 * np.finfo(np.float32).eps


class StubPredictor:
    """Emits fixed futures so window accounting is easy to verify."""

    model_id = "stub"

    def __init__(self, futures):
        self._futures = np.asarray(futures, dtype=np.float64)

    def predict_futures(self, window):
        f, d, n_h = self._futures.shape
        mean = self._futures.mean(axis=2)
        std = np.maximum(self._futures.std(axis=2), 1e-8)
        shapes = (self._futures - mean[:, :, None]) / std[:, :, None]
        return FutureSet(std[:, :, None] * shapes + mean[:, :, None],
                         shapes, std, mean)

    def predict_batch(self, windows):
        return [self.predict_futures(w) for w in windows]


def _scores(pred, truth, wrap):
    """``window_rmse`` of ``wrap(pred)`` as a list; a tensor result is unwrapped."""
    errors = window_rmse(wrap(pred), truth)
    return (errors.data if isinstance(errors, Tensor) else errors).tolist()


def per_window_report(predictor, test, n_p, n_h, wrap=np.asarray):
    """Reference: the rolling evaluation as one predict_futures call per window,
    with each window's predictions scored as ``wrap(predictions)``."""
    values = test.values
    records = []
    for w in range((len(values) - n_p) // n_h):
        start = w * n_h
        futures = predictor.predict_futures(values[start:start + n_p])
        truth = values[start + n_p:start + n_p + n_h].T
        rmses = _scores(futures.futures, truth, wrap)
        nrmses = _scores(futures.shape_preds, z_normalize(truth, axis=-1), wrap)
        records.append(WindowRecord(w, start + n_p, int(np.argmin(nrmses)) + 1,
                                    rmses, nrmses))
    return EvalReport(
        predictor.model_id, len(records[0].rmse_per_future), n_p, n_h,
        values.shape[1],
        rmse=float(np.mean([w.rmse_per_future[0] for w in records])),
        nrmse=float(np.mean([w.nrmse_per_future[0] for w in records])),
        oracle_rmse=float(np.mean([min(w.rmse_per_future) for w in records])),
        oracle_nrmse=float(np.mean([min(w.nrmse_per_future) for w in records])),
        per_window=records)


def nn_oracle(train_values, query, n_p, n_h, epsilon=1e-8):
    """Completely naive scan: z-normalize per window, euclid, first-best."""
    best_dist = np.inf
    best_start = -1
    for start in range(len(train_values) - n_p - n_h + 1):
        window = train_values[start:start + n_p]
        dist = 0.0
        for j in range(train_values.shape[1]):
            a = window[:, j]
            b = query[:, j]
            az = (a - a.mean()) / max(a.std(), epsilon)
            bz = (b - b.mean()) / max(b.std(), epsilon)
            dist += np.sqrt(((az - bz) ** 2).sum())
        if dist < best_dist:
            best_dist = dist
            best_start = start
    return train_values[best_start + n_p:best_start + n_p + n_h].T


def ridge_oracle(train_values, n_p, n_h, lam):
    """Independent per-coordinate normal-equations solve on centered data."""
    d = train_values.shape[1]
    n_windows = len(train_values) - n_p - n_h + 1
    x = np.stack([train_values[w:w + n_p].reshape(-1)
                  for w in range(n_windows)])
    y = np.stack([train_values[w + n_p:w + n_p + n_h].reshape(-1)
                  for w in range(n_windows)])
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    gram_inv = np.linalg.inv(xc.T @ xc + lam * np.eye(x.shape[1]))
    coefs = np.empty((x.shape[1], y.shape[1]))
    for k in range(y.shape[1]):  # one solve per output coordinate
        coefs[:, k] = gram_inv @ (xc.T @ (y[:, k] - y_mean[k]))
    intercept = y_mean - x_mean @ coefs
    return coefs, intercept


@pytest.fixture(scope="module")
def month_series():
    return generate(GeneratorConfig(n_hours=720, seed=0))


class TestEvaluateRolling:
    def test_seven_windows_for_seven_days(self, month_series):
        # 168h warm-up + 7*24h of evaluated span
        test = month_series.slice(720 - 336, 720)
        stub = StubPredictor(np.zeros((1, 4, 24)) + 1.0)
        report = evaluate_rolling(stub, test, 168, 24)
        assert report.n_windows == 7
        starts = [w.start_hour for w in report.per_window]
        assert starts == [168, 192, 216, 240, 264, 288, 312]

    def test_single_future_oracle_equals_plain(self, month_series):
        test = month_series.slice(720 - 336, 720)
        stub = StubPredictor(np.random.default_rng(0).uniform(
            0.5, 2.0, size=(1, 4, 24)))
        report = evaluate_rolling(stub, test, 168, 24)
        assert report.oracle_rmse == pytest.approx(report.rmse)
        assert report.oracle_nrmse == pytest.approx(report.nrmse)

    def test_oracle_equals_exhaustive_min(self, month_series):
        test = month_series.slice(720 - 336, 720)
        rng = np.random.default_rng(1)
        stub = StubPredictor(rng.uniform(0.2, 2.5, size=(4, 4, 24)))
        report = evaluate_rolling(stub, test, 168, 24)
        for w, record in enumerate(report.per_window):
            start = w * 24
            truth = test.values[start + 168:start + 192].T
            fs = stub.predict_futures(None)
            expected_r = min(rmse(fs.futures[j], truth) for j in range(4))
            expected_n = min(nrmse(fs.shape_preds[j], truth) for j in range(4))
            assert min(record.rmse_per_future) == pytest.approx(expected_r)
            assert min(record.nrmse_per_future) == pytest.approx(expected_n)
            assert record.oracle_index == oracle_index(fs, truth)
        assert report.oracle_rmse == pytest.approx(
            np.mean([min(w.rmse_per_future) for w in report.per_window]))

    def test_oracle_dominance_and_monotonicity(self, month_series):
        test = month_series.slice(720 - 336, 720)
        rng = np.random.default_rng(2)
        stub = StubPredictor(rng.uniform(0.2, 2.5, size=(5, 4, 24)))
        report = evaluate_rolling(stub, test, 168, 24)
        f = 5
        for fixed in range(f):
            fixed_policy = np.mean(
                [w.rmse_per_future[fixed] for w in report.per_window])
            assert report.oracle_rmse <= fixed_policy + 1e-12
        # truncation to the first k futures is non-increasing in k
        prev = np.inf
        for k in range(1, f + 1):
            truncated = np.mean(
                [min(w.nrmse_per_future[:k]) for w in report.per_window])
            assert truncated <= prev + 1e-12
            prev = truncated

    def test_too_short_test_raises(self, month_series):
        with pytest.raises(ValueError, match="shorter"):
            evaluate_rolling(StubPredictor(np.ones((1, 4, 24))),
                             month_series.slice(0, 100), 168, 24)

    def test_exact_minimum_span_gives_one_window(self, month_series):
        test = month_series.slice(0, 192)  # exactly n_p + n_h
        report = evaluate_rolling(StubPredictor(np.ones((1, 4, 24))),
                                  test, 168, 24)
        assert report.n_windows == 1


class TestBatchedServing:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_28_window_batch_matches_per_window(self, variant):
        cfg = ModelConfig(n_p=48, n_h=24, f=3, n_s=8, channels=16,
                          variant=variant)
        model = Forecaster(cfg, seed=1)
        windows = np.random.default_rng(7).standard_normal((28, 48, 4)) * 3 + 5
        batched = model.predict_batch(windows)
        assert len(batched) == 28
        for window, fs in zip(windows, batched):
            single = model.predict_futures(window)
            for name in ("futures", "shape_preds", "scale_mul", "scale_add",
                         "activations"):
                if getattr(single, name) is None:
                    assert getattr(fs, name) is None
                    continue
                np.testing.assert_allclose(getattr(fs, name), getattr(single, name),
                                           rtol=BATCH_TOL, atol=BATCH_TOL)
            fs.validate()

    def test_nearest_neighbor_report_equals_per_window(self, month_series):
        train, test = month_series.slice(0, 480), month_series.slice(480, 720)
        baseline = NearestNeighborBaseline(train, 72, 24)
        report, predictions = evaluate_rolling(baseline, test, 72, 24,
                                               collect_predictions=True)
        # window_rmse on tensors gives the bits it gives on arrays
        for wrap in (np.asarray, Tensor):
            assert report.to_json() == \
                per_window_report(baseline, test, 72, 24, wrap).to_json()
        for w, (truth, fs) in enumerate(predictions):
            start = w * 24 + 72
            single = baseline.predict_futures(test.values[start - 72:start])
            assert np.array_equal(truth, test.values[start:start + 24].T)
            assert np.array_equal(fs.futures, single.futures)

    def test_ridge_report_matches_per_window(self, month_series):
        train, test = month_series.slice(0, 480), month_series.slice(480, 720)
        baseline = RidgeBaseline(train, 72, 24)
        report = evaluate_rolling(baseline, test, 72, 24)
        expected = per_window_report(baseline, test, 72, 24)
        assert [w.oracle_index for w in report.per_window] == \
            [w.oracle_index for w in expected.per_window]
        for got, want in zip(report.per_window, expected.per_window):
            np.testing.assert_allclose(got.rmse_per_future, want.rmse_per_future,
                                       rtol=1e-12)

    def test_forward_passes_are_chunks_of_64(self, monkeypatch):
        n_p, n_h, n_windows = 16, 8, 130
        series = generate(GeneratorConfig(n_hours=n_p + n_h * n_windows, seed=1))
        model = Forecaster(ModelConfig(n_p=n_p, n_h=n_h, n_s=4, channels=8), seed=0)
        forward = Forecaster.forward_tensors
        batches = []

        def counting_forward(self, inputs):
            batches.append(len(inputs))
            return forward(self, inputs)

        with monkeypatch.context() as patch:
            patch.setattr(Forecaster, "forward_tensors", counting_forward)
            report = evaluate_rolling(model, series, n_p, n_h)
        assert batches == [64, 64, 2]  # ceil(130 / 64) passes
        expected = per_window_report(model, series, n_p, n_h)
        assert report.n_windows == expected.n_windows == n_windows
        for got, want in zip(report.per_window, expected.per_window):
            assert (got.window_index, got.start_hour, got.oracle_index) == \
                (want.window_index, want.start_hour, want.oracle_index)
            np.testing.assert_allclose(got.rmse_per_future, want.rmse_per_future,
                                       rtol=BATCH_TOL)
            np.testing.assert_allclose(got.nrmse_per_future, want.nrmse_per_future,
                                       rtol=BATCH_TOL)
        for metric in ("rmse", "nrmse", "oracle_rmse", "oracle_nrmse"):
            assert getattr(report, metric) == pytest.approx(
                getattr(expected, metric), rel=BATCH_TOL)

    def test_chunks_run_the_encoders_on_the_union(self, monkeypatch):
        n_p, n_h, n_windows = 16, 8, 70
        series = generate(GeneratorConfig(n_hours=n_p + n_h * n_windows, seed=1))
        config = ModelConfig(n_p=n_p, n_h=n_h, n_s=4, channels=8)
        model = Forecaster(config, seed=0)
        plan, plans = ops._union_plan, []
        monkeypatch.setattr(ops, "_union_plan",
                            lambda *args: plans.append(args) or plan(*args))

        class Copying:  # the same model, on stacked copies of the windows
            model_id = model.model_id

            def predict_batch(self, windows):
                return model.predict_batch(np.ascontiguousarray(windows))

        expected = evaluate_rolling(Copying(), series, n_p, n_h)
        assert not plans
        report = evaluate_rolling(model, series, n_p, n_h)
        blocks = config.encoder_blocks - 1
        # both encoder towers of each chunk: 64 windows, then 6
        assert plans == [(64, n_h, n_p, config.kernel, blocks)] * 2 + \
            [(6, n_h, n_p, config.kernel, blocks)] * 2
        assert report.to_json() == expected.to_json()


class TestNearestNeighbor:
    def test_exact_match_returns_continuation(self, month_series):
        values = month_series.values
        query = values[100:100 + 168]
        pred = NearestNeighborBaseline(month_series, 168, 24) \
            .predict_futures(query).futures[0]
        np.testing.assert_allclose(pred, values[268:292].T, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_scan(self, month_series, seed):
        rng = np.random.default_rng(seed)
        n_p, n_h = 72, 24
        query = rng.standard_normal((n_p, 4)) + month_series.values[:n_p]
        baseline = NearestNeighborBaseline(month_series, n_p, n_h)
        pred = baseline.predict_futures(query).futures[0]
        np.testing.assert_allclose(
            pred, nn_oracle(month_series.values, query, n_p, n_h), atol=1e-9)

    def test_constant_query_tie_breaks_first(self):
        values = np.ones((60, 2))
        baseline = NearestNeighborBaseline(values, 12, 6)
        values_series = baseline.predict_futures(np.ones((12, 2)))
        np.testing.assert_allclose(values_series.futures[0], np.ones((2, 6)))

    def test_deterministic(self, month_series):
        query = month_series.values[5:5 + 96]
        a = NearestNeighborBaseline(month_series, 96, 24).predict_futures(query)
        b = NearestNeighborBaseline(month_series, 96, 24).predict_futures(query)
        assert np.array_equal(a.futures, b.futures)

    def test_insufficient_history_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            NearestNeighborBaseline(np.ones((30, 2)), 24, 12)

    def test_later_writes_to_the_history_do_not_change_the_fit(self, month_series):
        # the served set is the continuation as the history held it at fit
        # time, normalized bit for bit as the history's own (d, n_h) view is
        values = month_series.values.copy()
        query = values[100:148].copy()
        baseline = NearestNeighborBaseline(values, 48, 24)
        truth = values[148:172].T
        want = truth.copy(), z_normalize(truth, axis=1)
        values[:] = 7.0
        served = baseline.predict_futures(query)
        np.testing.assert_array_equal(served.futures[0], want[0])
        np.testing.assert_array_equal(served.shape_preds[0], want[1])

    @pytest.mark.parametrize("fit", [
        lambda values: NearestNeighborBaseline(values, 12, 6),
        lambda values: RidgeBaseline(values, 12, 6),
        lambda values: train(values, ModelConfig(n_p=12, n_h=6, d=2, n_s=4, channels=4),
                             TrainConfig(n_iter=1, batch_size=2)),
    ], ids=["nearest_neighbor", "ridge", "train"])
    def test_non_finite_history_raises(self, fit):
        values = np.ones((60, 2))
        values[7, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit(values)

    # Adversarial cases for the bound-then-recheck scan: each must pick the
    # loop-built scan's and the vectorised full scan's window exactly.

    @staticmethod
    def _check_against_full_scans(values, query, n_p, n_h):
        baseline = NearestNeighborBaseline(values, n_p, n_h)
        pred = baseline.predict_futures(query).futures[0]
        assert np.array_equal(pred, nn_oracle(values, query, n_p, n_h))
        assert np.array_equal(pred, full_scan(values, query, n_p, n_h))
        return baseline, pred

    def test_duplicated_windows_tie_and_the_earliest_wins(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((120, 3))
        values[70:82] = values[20:32]     # the same input window, other continuations
        query = values[20:32] + 0.05 * rng.standard_normal((12, 3))
        distances = full_scan_distances(values, query, 12, 6)
        assert distances[20] == distances[70] == distances.min()
        baseline, pred = self._check_against_full_scans(values, query, 12, 6)
        assert np.array_equal(pred, values[32:38].T)
        normalized = z_normalize(query, axis=0).T
        assert {20, 70} <= set(baseline._candidates(normalized).tolist())

    @pytest.mark.parametrize("query_kind", ["flat", "noisy"])
    def test_stretches_with_std_below_epsilon(self, query_kind):
        # Normalized rows of a near-constant stretch are about 1e-3 instead
        # of unit variance, so |a|^2 is far from n_p.
        rng = np.random.default_rng(2)
        values = rng.standard_normal((150, 2))
        values[40:100] = 5.0 + 1e-11 * rng.standard_normal((60, 2))
        values[60:75] = 5.0               # exactly constant inside it
        baseline = NearestNeighborBaseline(values, 16, 4)
        assert baseline._row_sq.min() < 1e-4
        query = (values[45:61] + 1e-11 * rng.standard_normal((16, 2))
                 if query_kind == "flat" else rng.standard_normal((16, 2)))
        self._check_against_full_scans(values, query, 16, 4)

    def test_query_equidistant_from_two_starts(self):
        # +/-1 windows with as many of each sign normalize exactly to
        # themselves; a and b each swap one (+1, -1) pair of the query, so
        # both are exactly sqrt(8) away from it.
        rng = np.random.default_rng(0)
        query = rng.permutation(np.repeat([1.0, -1.0], 16))
        up, down = np.flatnonzero(query > 0), np.flatnonzero(query < 0)
        a, b = query.copy(), query.copy()
        a[[up[0], down[0]]] = a[[down[0], up[0]]]
        b[[up[1], down[1]]] = b[[down[1], up[1]]]
        values = np.concatenate([rng.standard_normal(40), a, rng.standard_normal(40),
                                 b, rng.standard_normal(40)])[:, None]
        distances = full_scan_distances(values, query[:, None], 32, 8)
        assert distances[40] == distances[112] == distances.min() == np.sqrt(8.0)
        _, pred = self._check_against_full_scans(values, query[:, None], 32, 8)
        assert np.array_equal(pred, values[72:80].T)

    @pytest.mark.parametrize("start", [0, 37, 480])
    def test_query_equal_to_a_training_window(self, month_series, start):
        # The distance is 0, so e - delta is negative at that start.
        values = month_series.values
        query = values[start:start + 72].copy()
        assert full_scan_distances(values, query, 72, 24)[start] == 0.0
        _, pred = self._check_against_full_scans(values, query, 72, 24)
        assert np.array_equal(pred, values[start + 72:start + 96].T)

    def test_prunes_to_few_candidates_in_small_memory(self):
        # The bench's split at n_p=168: 649 training starts, 28 held-out
        # windows.  A bound that fell back to the full scan would recheck
        # all 649 starts and allocate a (649, 4, 168) float64 temporary,
        # 3.5 MB; one candidate was rechecked per query on seeds 1-5.
        series = generate(GeneratorConfig(n_hours=1512, seed=1))
        baseline = NearestNeighborBaseline(series.slice(0, 840), 168, 24)
        held_out = series.values[672:]
        counts, peaks = [], []
        for start in range(0, len(held_out) - 168, 24):
            window = held_out[start:start + 168]
            counts.append(len(baseline._candidates(z_normalize(window, axis=0).T)))
            tracemalloc.start()
            try:
                baseline.predict_futures(window)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(counts) == 28
        assert max(counts) <= 2
        assert max(peaks) < 0.5e6

    def test_fit_peak_memory_is_what_it_keeps(self):
        # The bench's split at n_p=168: 649 training starts.  The stored rows
        # are written once, with no full-size temporary beside them.
        series = generate(GeneratorConfig(n_hours=1512, seed=1)).slice(0, 840)
        tracemalloc.start()
        try:
            baseline = NearestNeighborBaseline(series, 168, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(value.nbytes for value in vars(baseline).values()
                   if isinstance(value, np.ndarray))
        assert baseline._rows.shape == (4, 649, 168)
        assert peak < kept + 1e6


class TestRidge:
    def test_recovers_linear_relation(self):
        # next values are an exact linear map of the window
        rng = np.random.default_rng(0)
        n = 400
        t = np.arange(n)
        values = np.stack([np.sin(2 * np.pi * t / 24),
                           np.cos(2 * np.pi * t / 24)], axis=1)
        model = RidgeBaseline(values, n_p=48, n_h=12, lam=1e-8)
        errors = []
        for start in range(0, 300, 17):
            pred = model.predict_futures(values[start:start + 48]).futures[0]
            truth = values[start + 48:start + 60].T
            errors.append(rmse(pred, truth))
        assert np.mean(errors) < 1e-4

    def test_coefficients_match_normal_equations_oracle(self, month_series):
        n_p, n_h, lam = 24, 6, 1.0
        values = month_series.values[:240]
        model = RidgeBaseline(values, n_p, n_h, lam)
        coefs, intercept = ridge_oracle(values, n_p, n_h, lam)
        np.testing.assert_allclose(model.coefficients[1:], coefs, atol=1e-6)
        np.testing.assert_allclose(model.coefficients[0], intercept, atol=1e-6)

    def test_coefficients_equal_loop_built_solve(self, month_series):
        n_p, n_h, lam = 24, 6, 1.0
        values = month_series.values[:240]
        n_windows = len(values) - n_p - n_h + 1
        x = np.empty((n_windows, 1 + n_p * 4))
        y = np.empty((n_windows, n_h * 4))
        x[:, 0] = 1.0
        for w in range(n_windows):
            x[w, 1:] = values[w:w + n_p].reshape(-1)
            y[w] = values[w + n_p:w + n_p + n_h].reshape(-1)
        penalty = lam * np.eye(x.shape[1])
        penalty[0, 0] = 0.0
        expected = np.linalg.solve(x.T @ x + penalty, x.T @ y)
        assert np.array_equal(RidgeBaseline(values, n_p, n_h, lam).coefficients,
                              expected)

    def test_infinite_lambda_predicts_training_means(self, month_series):
        n_p, n_h = 24, 6
        values = month_series.values[:240]
        model = RidgeBaseline(values, n_p, n_h, lam=1e12)
        n_windows = len(values) - n_p - n_h + 1
        y = np.stack([values[w + n_p:w + n_p + n_h].reshape(-1)
                      for w in range(n_windows)])
        pred = model.predict_futures(values[:n_p]).futures[0]
        np.testing.assert_allclose(pred.T.reshape(-1), y.mean(axis=0),
                                   rtol=1e-4, atol=1e-6)

    def test_lambda_must_be_positive(self, month_series):
        for lam, problem in ((0.0, "positive"), (np.nan, "a finite number"),
                             (np.inf, "a finite number")):
            with pytest.raises(ValueError, match=f"^lam must be {problem}"):
                RidgeBaseline(month_series, 24, 6, lam=lam)

    def test_future_set_contract(self, month_series):
        model = RidgeBaseline(month_series, n_p=48, n_h=24)
        fs = model.predict_futures(month_series.values[:48])
        fs.validate()
        assert fs.futures.shape == (1, 4, 24)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("n_h", [1, 24, 200])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_batch_future_sets_equal_the_per_window_expressions(self, d, n_h, batch):
        # Each window's statistics, as one window's (d, n_h) time-major slice
        # of the batch's prediction gives them alone.
        n_p = 8
        rng = np.random.default_rng(d * n_h + batch)
        model = RidgeBaseline(rng.standard_normal((n_p + n_h + 40, d)), n_p, n_h)
        windows = 1e3 + rng.standard_normal((batch, n_p, d))
        features = np.hstack([np.ones((batch, 1)), windows.reshape(batch, -1)])
        raw = (features @ model.coefficients).reshape(batch, n_h, d)
        future_sets = model.predict_batch(windows)
        assert len(future_sets) == batch
        for fs, pred in zip(future_sets, raw.swapaxes(1, 2)):
            want = FutureSet(
                futures=pred[None].copy(),
                shape_preds=z_normalize(pred, axis=1)[None],
                scale_mul=np.maximum(pred.std(axis=1), ZNORM_EPSILON)[None],
                scale_add=pred.mean(axis=1)[None])
            for name in ("futures", "shape_preds", "scale_mul", "scale_add"):
                got, expected = getattr(fs, name), getattr(want, name)
                assert got.shape == expected.shape
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), name

    def test_default_horizons_are_canonical(self, month_series):
        model = RidgeBaseline(month_series, 168, 24)
        # 168 x 4 flattened input (plus intercept), 96 output coordinates
        assert model.coefficients.shape == (1 + 672, 96)


_N_P, _N_H = 16, 8
_NAN_WINDOW = np.ones((_N_P, 4))
_NAN_WINDOW[5, 1] = np.nan


@pytest.mark.parametrize("make,predict", [
    (lambda s: Forecaster(ModelConfig(n_p=_N_P, n_h=_N_H, n_s=4, channels=8)),
     "predict_futures"),
    (lambda s: ExpertClassifier(ModelConfig(n_p=_N_P, n_h=_N_H, channels=8)),
     "predict_proba"),
    (lambda s: NearestNeighborBaseline(s, _N_P, _N_H), "predict_futures"),
    (lambda s: RidgeBaseline(s, _N_P, _N_H), "predict_futures"),
], ids=["forecaster", "expert_classifier", "nearest_neighbor", "ridge"])
@pytest.mark.parametrize("window,problem", [
    (_NAN_WINDOW, "non-finite"),
    (np.ones((_N_P, 3)), "got shape"),
    (np.ones((2, _N_P, 4)), "got shape"),
], ids=["nan", "wrong_d", "batch"])
def test_every_predictor_rejects_a_bad_window(month_series, make, predict,
                                              window, problem):
    predictor = make(month_series)
    with pytest.raises(ValueError, match=rf"\({_N_P}, 4\).*{problem}"):
        getattr(predictor, predict)(window)


@pytest.mark.parametrize("make", [
    lambda s: Forecaster(ModelConfig(n_p=_N_P, n_h=_N_H, n_s=4, channels=8)),
    lambda s: NearestNeighborBaseline(s, _N_P, _N_H),
    lambda s: RidgeBaseline(s, _N_P, _N_H),
], ids=["forecaster", "nearest_neighbor", "ridge"])
@pytest.mark.parametrize("windows,problem", [
    (np.stack([np.ones((_N_P, 4)), _NAN_WINDOW]), "non-finite"),
    (np.ones((3, _N_P, 3)), "got shape"),
], ids=["nan", "wrong_d"])
def test_every_batch_predictor_rejects_a_bad_window(month_series, make,
                                                    windows, problem):
    with pytest.raises(ValueError, match=rf"\({_N_P}, 4\).*{problem}"):
        make(month_series).predict_batch(windows)


@pytest.mark.parametrize("make", [
    lambda s: NearestNeighborBaseline(s, _N_P, _N_H),
    lambda s: RidgeBaseline(s, _N_P, _N_H),
], ids=["nearest_neighbor", "ridge"])
def test_every_baseline_predicts_no_future_sets_for_an_empty_batch(month_series, make):
    assert make(month_series).predict_batch(np.empty((0, _N_P, 4))) == []


@pytest.mark.parametrize("consume", [
    lambda s, n_p, n_h: sample_minibatch(s, n_p, n_h, 4, np.random.default_rng(0)),
    lambda s, n_p, n_h: evaluate_rolling(StubPredictor(np.ones((1, 4, 8))), s, n_p, n_h),
    lambda s, n_p, n_h: NearestNeighborBaseline(s, n_p, n_h),
    lambda s, n_p, n_h: RidgeBaseline(s, n_p, n_h),
], ids=["sample_minibatch", "evaluate_rolling", "nearest_neighbor", "ridge"])
@pytest.mark.parametrize("n_p,n_h,name", [
    (16, 0, "n_h"), (16, -3, "n_h"), (0, 8, "n_p"), (2.5, 8, "n_p"),
])
def test_every_window_consumer_rejects_a_bad_horizon(month_series, consume,
                                                     n_p, n_h, name):
    problem = "an integer" if n_p == 2.5 else "a positive integer"
    with pytest.raises(ValueError, match=f"{name} must be {problem}"):
        consume(month_series, n_p, n_h)


_SMALL = ModelConfig(n_p=16, n_h=8, d=4, f=2, n_s=2, channels=4)
_PREDICTORS = {
    "forecaster": lambda series: Forecaster(_SMALL).predict_futures,
    "expert": lambda series: ExpertClassifier(_SMALL).predict_proba,
    "nearest_neighbor": lambda series: NearestNeighborBaseline(series, 16, 8).predict_futures,
    "ridge": lambda series: RidgeBaseline(series, 16, 8).predict_futures,
}


@pytest.mark.parametrize("predictor", _PREDICTORS)
@pytest.mark.parametrize("window", [
    {}, np.full((16, 4), {}, dtype=object), [[1.0] * 4, [1.0]],
], ids=["dict", "object_array", "ragged"])
def test_a_window_numpy_cannot_convert_raises_a_value_error(month_series, predictor,
                                                             window):
    predict = _PREDICTORS[predictor](month_series)
    with pytest.raises(ValueError, match=r"^expected a \(16, 4\) window, got "):
        predict(window)


def test_report_json_bytes():
    record = WindowRecord(window_index=0, start_hour=4, oracle_index=2,
                          rmse_per_future=[1.5, 0.5], nrmse_per_future=[0.75, 0.25])
    report = EvalReport("stub", f=2, n_p=4, n_h=3, d=1, rmse=0.5, nrmse=0.25,
                        oracle_rmse=0.125, oracle_nrmse=0.0625, per_window=[record])
    expected = {
        "model_id": "stub", "f": 2, "n_p": 4, "n_h": 3, "d": 1, "n_windows": 1,
        "aggregation": "mean over windows; rmse/nrmse fix future 1; "
                       "oracle_* take the per-window minimum",
        "rmse": 0.5, "nrmse": 0.25, "oracle_rmse": 0.125, "oracle_nrmse": 0.0625,
        "per_window": [{"window_index": 0, "start_hour": 4, "oracle_index": 2,
                        "rmse_per_future": [1.5, 0.5],
                        "nrmse_per_future": [0.75, 0.25]}],
    }
    assert report.to_json() == json.dumps(expected, indent=2)


class TestCompare:
    def _report(self, model_id, seed, month_series):
        test = month_series.slice(720 - 336, 720)
        rng = np.random.default_rng(seed)
        stub = StubPredictor(rng.uniform(0.2, 2.5, size=(2, 4, 24)))
        report = evaluate_rolling(stub, test, 168, 24)
        report.model_id = model_id
        return report

    def test_single_report_table(self, month_series):
        table = compare([self._report("only", 0, month_series)])
        assert len(table.rows) == 1
        assert all(table.rows[0][f"best_{m}"] for m in
                   ("rmse", "nrmse", "oracle_rmse", "oracle_nrmse"))

    def test_best_marking_matches_argmin(self, month_series):
        reports = [self._report(f"m{k}", k, month_series) for k in range(3)]
        table = compare(reports)
        for metric in ("rmse", "nrmse", "oracle_rmse", "oracle_nrmse"):
            values = [row[metric] for row in table.rows]
            marked = [row[f"best_{metric}"] for row in table.rows]
            assert marked[int(np.argmin(values))]

    def test_csv_and_text_layouts(self, month_series):
        table = compare([self._report(f"m{k}", k, month_series)
                         for k in range(2)])
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0].startswith(
            "model_id,rmse,nrmse,oracle_rmse,oracle_nrmse")
        text = table.to_text()
        assert "method" in text and "m0" in text and "m1" in text

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports to compare"):
            compare([])

    def test_incompatible_reports_rejected(self, month_series):
        a = self._report("a", 0, month_series)
        b = self._report("b", 1, month_series)
        b.n_p = 24
        with pytest.raises(ValueError, match="incompatible"):
            compare([a, b])
