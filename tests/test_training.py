"""Tests for normalization, the oracle loss, batching, and the train loop."""

import hashlib
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifuture import training
from multifuture.data import GeneratorConfig, RegimeSpec, generate
from multifuture.evaluation import RidgeBaseline
from multifuture.model import Forecaster, FutureSet, ModelConfig
from multifuture.training import (
    LossRecord,
    TrainConfig,
    TrainingDiverged,
    compute_loss,
    nrmse,
    oracle_index,
    rmse,
    sample_minibatch,
    train,
    train_expert,
    window_rmse,
    write_loss_trace,
    z_normalize,
)

SMALL_MODEL = dict(n_p=16, n_h=8, d=4, f=2, n_s=4, channels=8)


def random_future_set(rng, f, d, n_h):
    shapes = rng.standard_normal((f, d, n_h))
    mul = rng.uniform(0.5, 2.0, size=(f, d))
    add = rng.standard_normal((f, d))
    futures = mul[:, :, None] * shapes + add[:, :, None]
    return FutureSet(futures, shapes, mul, add)


class TestZNormalize:
    def test_hand_computation(self):
        out = z_normalize(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_constant_dimension_floors_to_zero(self):
        out = z_normalize(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_allclose(out, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        once = z_normalize(x)
        twice = z_normalize(once)
        np.testing.assert_allclose(once, twice, atol=1e-6)

    def test_population_std(self):
        # ddof=0: [0, 2] has std 1, not sqrt(2)
        out = z_normalize(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])

    def test_axis_selects_time_direction(self):
        x = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])  # (d, n_h)
        out = z_normalize(x, axis=-1)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)


class TestRmse:
    def test_zero_on_equal(self):
        x = np.ones((3, 4))
        assert rmse(x, x) == 0.0

    def test_unit_error(self):
        assert rmse(np.zeros((2, 2)), np.ones((2, 2))) == 1.0

    def test_hand_sum_of_squares(self):
        pred = np.zeros((2, 2))
        truth = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert rmse(pred, truth) == pytest.approx(2.5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("truth_shape", [(2, 7), (8,)])
    def test_truth_off_the_trailing_axes_raises(self, truth_shape):
        with pytest.raises(ValueError, match=r"does not match the trailing axes of "
                                             r"predictions \(3, 2, 8\)"):
            window_rmse(np.zeros((3, 2, 8)), np.zeros(truth_shape))


class TestNrmse:
    def test_zero_when_shape_matches_znorm(self):
        rng = np.random.default_rng(1)
        truth = rng.standard_normal((2, 10))
        assert nrmse(z_normalize(truth, axis=-1), truth) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computation(self):
        # z-normalized [1,2,3] has unit variance, so zeros predict RMSE 1
        assert nrmse(np.zeros((1, 3)), np.array([[1.0, 2.0, 3.0]])) \
            == pytest.approx(1.0)

    @given(
        a=st.floats(min_value=0.01, max_value=10.0),
        b=st.floats(min_value=-100.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal((2, 12))
        truth = rng.standard_normal((2, 12)) * 3 + 1
        assert nrmse(pred, a * truth + b) == pytest.approx(
            nrmse(pred, truth), abs=1e-6)


class TestOracleIndex:
    def test_single_future(self):
        rng = np.random.default_rng(0)
        fs = random_future_set(rng, 1, 2, 8)
        assert oracle_index(fs, rng.standard_normal((2, 8))) == 1

    def test_exact_shape_match_wins(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((2, 8)) * 4 + 2
        fs = random_future_set(rng, 3, 2, 8)
        fs.shape_preds[1] = z_normalize(truth, axis=-1)
        assert oracle_index(fs, truth) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        f = int(rng.integers(1, 17))
        fs = random_future_set(rng, f, 3, 6)
        truth = rng.standard_normal((3, 6))
        best = min(range(f),
                   key=lambda j: nrmse(fs.shape_preds[j], truth))
        assert oracle_index(fs, truth) == best + 1

    def test_tie_breaks_low(self):
        rng = np.random.default_rng(3)
        fs = random_future_set(rng, 3, 2, 8)
        fs.shape_preds[2] = fs.shape_preds[0]
        truth = rng.standard_normal((2, 8))
        errors = [nrmse(fs.shape_preds[j], truth) for j in range(3)]
        if min(errors) == errors[0]:
            assert oracle_index(fs, truth) == 1


class TestComputeLoss:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(4)
        truth = rng.standard_normal((2, 8))
        shapes = np.stack([z_normalize(truth, axis=-1)])
        mul = truth.std(axis=1)[None]
        add = truth.mean(axis=1)[None]
        futures = mul[:, :, None] * shapes + add[:, :, None]
        fs = FutureSet(futures, shapes, mul, add)
        record = compute_loss(fs, truth, 1)
        assert record.total_loss == pytest.approx(0.0, abs=1e-9)

    def test_gamma_zero_is_rmse_only(self):
        rng = np.random.default_rng(5)
        fs = random_future_set(rng, 2, 2, 8)
        truth = rng.standard_normal((2, 8))
        record = compute_loss(fs, truth, 1, gamma=0.0)
        assert record.total_loss == pytest.approx(record.rmse_term)

    def test_additivity(self):
        rng = np.random.default_rng(6)
        fs = random_future_set(rng, 2, 2, 8)
        truth = rng.standard_normal((2, 8))
        record = compute_loss(fs, truth, 2, gamma=1.0)
        assert record.total_loss == pytest.approx(
            record.rmse_term + record.nrmse_term, abs=1e-9)

    def test_out_of_range_index_raises(self):
        rng = np.random.default_rng(7)
        fs = random_future_set(rng, 2, 2, 8)
        with pytest.raises(ValueError, match="out of range"):
            compute_loss(fs, rng.standard_normal((2, 8)), 3)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_decomposition_property(self, gamma, seed):
        rng = np.random.default_rng(seed)
        fs = random_future_set(rng, 3, 2, 6)
        truth = rng.standard_normal((2, 6))
        i_oc = oracle_index(fs, truth)
        record = compute_loss(fs, truth, i_oc, gamma=gamma)
        assert record.total_loss == pytest.approx(
            record.rmse_term + gamma * record.nrmse_term, rel=1e-9, abs=1e-9)


def _batch_of(n_b):
    return sample_minibatch(np.ones((30, 2)), 16, 8, n_b, np.random.default_rng(0))


def _loss_at(i_oc):
    rng = np.random.default_rng(7)
    return compute_loss(random_future_set(rng, 2, 2, 8), rng.standard_normal((2, 8)), i_oc)


_COUNTS = [
    *((ModelConfig, name, valid) for name, valid in
      (("n_p", 16), ("n_h", 24), ("d", 4), ("f", 3), ("n_s", 32), ("channels", 8),
       ("kernel", 3))),
    *((TrainConfig, name, valid) for name, valid in
      (("n_iter", 2), ("batch_size", 4), ("seed", 0))),
    *((GeneratorConfig, name, valid) for name, valid in (("n_hours", 48), ("seed", 0))),
    (_loss_at, "i_oc", 1),
    (_batch_of, "n_b", 4),
]


@pytest.mark.parametrize("owner,name,valid", _COUNTS,
                         ids=[f"{owner.__name__}.{name}" for owner, name, _ in _COUNTS])
@pytest.mark.parametrize("bad", [lambda v: v + 0.5, float, str, bool],
                         ids=["fraction", "float", "str", "bool"])
def test_a_non_integer_count_raises_a_value_error_naming_it(owner, name, valid, bad):
    owner(**{name: np.int64(valid)})  # a numpy integer is an integer
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        owner(**{name: bad(valid)})


def _ridge(lam):
    return RidgeBaseline(np.ones((40, 2)), 8, 4, lam=lam)


_REALS = [
    *((TrainConfig, name, valid) for name, valid in
      (("gamma", 1.0), ("learning_rate", 1e-3))),
    *((GeneratorConfig, name, valid) for name, valid in
      (("daily_amp", 0.6), ("weekly_amp", 0.25), ("noise_std", 0.05),
       ("regime_switch_prob", 0.3))),
    *((RegimeSpec, name, valid) for name, valid in
      (("amplitude", 1.0), ("phase_hours", 0.0))),
    (_ridge, "lam", 1.0),
]


@pytest.mark.parametrize("owner,name,valid", _REALS,
                         ids=[f"{owner.__name__}.{name}" for owner, name, _ in _REALS])
@pytest.mark.parametrize("bad", [str, bool, lambda v: np.nan, lambda v: np.inf,
                                 lambda v: -np.inf],
                         ids=["str", "bool", "nan", "inf", "-inf"])
def test_a_non_real_raises_a_value_error_naming_it(owner, name, valid, bad):
    owner(**{name: np.float32(valid)})  # a numpy number is a real
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got"):
        owner(**{name: bad(valid)})


class TestOracleMinMonotonicity:
    def test_subset_never_beats_superset(self):
        rng = np.random.default_rng(8)
        fs = random_future_set(rng, 6, 2, 8)
        truth = rng.standard_normal((2, 8))
        errors = [nrmse(fs.shape_preds[j], truth) for j in range(6)]
        for k in range(1, 7):
            assert min(errors[:k]) >= min(errors)
        mins = [min(errors[:k]) for k in range(1, 7)]
        assert all(a >= b for a, b in zip(mins, mins[1:]))


class TestSampleMinibatch:
    def test_no_windows_is_an_empty_batch(self):
        inputs, targets = sample_minibatch(np.ones((30, 2)), 16, 8, 0,
                                           np.random.default_rng(0))
        assert (inputs.dtype, inputs.shape) == (np.float64, (0, 16, 2))
        assert (targets.dtype, targets.shape) == (np.float64, (0, 8, 2))

    def test_a_one_dimensional_series_is_named(self):
        with pytest.raises(ValueError, match=r"series values must be 2-D \(n, d\), got \(30,\)"):
            sample_minibatch(np.ones(30), 16, 8, 1, np.random.default_rng(0))

    def test_a_negative_batch_size_is_named(self):
        with pytest.raises(ValueError, match="^n_b must be >= 0, got -1"):
            _batch_of(-1)

    def test_single_window_series(self):
        values = np.arange(48.0).reshape(24, 2)
        rng = np.random.default_rng(0)
        inputs, targets = sample_minibatch(values, 16, 8, 5, rng)
        for row in range(5):
            np.testing.assert_array_equal(inputs[row], values[:16])
            np.testing.assert_array_equal(targets[row], values[16:24])

    def test_alignment_contract(self):
        rng = np.random.default_rng(1)
        values = np.arange(400.0).reshape(200, 2)
        inputs, targets = sample_minibatch(values, 16, 8, 32, rng)
        for row in range(32):
            start = int(inputs[row, 0, 0] // 2)
            np.testing.assert_array_equal(
                targets[row], values[start + 16:start + 24])

    def test_determinism_under_seed(self):
        values = np.random.default_rng(2).standard_normal((100, 3))
        a = sample_minibatch(values, 10, 5, 8, np.random.default_rng(7))
        b = sample_minibatch(values, 10, 5, 8, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            sample_minibatch(np.zeros((10, 2)), 16, 8, 4,
                             np.random.default_rng(0))

    def test_multi_series_pool(self):
        rng = np.random.default_rng(3)
        pool = [np.full((30, 2), 1.0), np.full((30, 2), 2.0)]
        inputs, _ = sample_minibatch(pool, 16, 8, 64, rng)
        seen = {inputs[row, 0, 0] for row in range(64)}
        assert seen == {1.0, 2.0}

    @pytest.mark.parametrize("n_p,n_h,name", [(2.5, 8, "n_p"), (0, 8, "n_p"),
                                              (16, -1, "n_h")])
    def test_bad_horizon_named_before_the_length_filter(self, n_p, n_h, name):
        # every series is too short for any horizon, so only the horizon check
        # can name the problem
        problem = "an integer" if n_p == 2.5 else "a positive integer"
        with pytest.raises(ValueError, match=f"{name} must be {problem}"):
            sample_minibatch(np.ones((5, 2)), n_p, n_h, 4, np.random.default_rng(0))

    def test_each_series_is_checked_once_per_call(self, monkeypatch):
        checked = _count_calls(monkeypatch, "_series_values")
        pool = [np.ones((30, 2)), np.ones((10, 2)), np.ones((30, 2))]
        sample_minibatch(pool, 16, 8, 4, np.random.default_rng(0))
        assert len(checked) == 3


def _count_calls(monkeypatch, name):
    """Replace ``training.<name>`` by a wrapper that records each call's
    first argument; returns the list it appends to."""
    calls, original = [], getattr(training, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(training, name, counted)
    return calls


def _tiny_series(seed=0, hours=240):
    return generate(GeneratorConfig(n_hours=hours, seed=seed))


class TestTrain:
    def test_the_pool_is_checked_once_per_run(self, monkeypatch):
        series = _tiny_series()
        model, _ = train(series, ModelConfig(**SMALL_MODEL),
                         TrainConfig(n_iter=3, batch_size=4, seed=0))
        checked = _count_calls(monkeypatch, "_series_values")
        train(series, ModelConfig(**SMALL_MODEL), TrainConfig(n_iter=3, batch_size=4))
        train_expert(series, model, TrainConfig(n_iter=3, batch_size=4))
        assert len(checked) == 2 and all(s is series for s in checked)

    def test_zero_iterations_returns_initialized_model(self):
        model, trace = train(_tiny_series(), ModelConfig(**SMALL_MODEL),
                             TrainConfig(n_iter=0, seed=0))
        assert trace == []
        assert isinstance(model, Forecaster)

    def test_deterministic_trace(self):
        cfg = ModelConfig(**SMALL_MODEL)
        tcfg = TrainConfig(n_iter=8, batch_size=8, seed=3)
        series = _tiny_series()
        _, trace_a = train(series, cfg, tcfg)
        _, trace_b = train(series, cfg, tcfg)
        assert [r.total_loss for r in trace_a] == [r.total_loss for r in trace_b]
        assert [r.oracle_index_histogram for r in trace_a] \
            == [r.oracle_index_histogram for r in trace_b]

    def test_loss_record_decomposition(self):
        cfg = ModelConfig(**SMALL_MODEL)
        _, trace = train(_tiny_series(), cfg,
                         TrainConfig(n_iter=5, batch_size=8, seed=0))
        for rec in trace:
            assert rec.total_loss == pytest.approx(
                rec.rmse_term + 1.0 * rec.nrmse_term, abs=1e-6)
            assert sum(rec.oracle_index_histogram) == 8

    def test_one_loss_variant_forces_gamma_zero(self):
        cfg = ModelConfig(**SMALL_MODEL, variant="one_loss")
        _, trace = train(_tiny_series(), cfg,
                         TrainConfig(n_iter=3, batch_size=8, seed=0))
        for rec in trace:
            assert rec.total_loss == pytest.approx(rec.rmse_term, abs=1e-9)

    def test_loss_decreases_on_short_run(self):
        cfg = ModelConfig(**SMALL_MODEL)
        _, trace = train(_tiny_series(), cfg,
                         TrainConfig(n_iter=150, batch_size=16, seed=0))
        first = np.mean([r.total_loss for r in trace[:20]])
        last = np.mean([r.total_loss for r in trace[-20:]])
        assert last < first

    def test_float32_overflow_raises_diverged_at_first_iteration(self):
        # inputs fit float32, but squared errors near 1e60 overflow to inf
        series = np.random.default_rng(0).uniform(1e30, 2e30, size=(64, 4))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="at iteration 0 "):
            train(series, ModelConfig(**SMALL_MODEL),
                  TrainConfig(n_iter=3, batch_size=4, seed=0))

    @pytest.mark.parametrize("trainer", ["train", "train_expert"])
    def test_exploding_step_raises_diverged_naming_iteration_and_seed(self, trainer):
        # iteration 0 is finite; its 1e20-sized Adam step makes iteration 1's
        # loss NaN in either trainer
        series = _tiny_series()
        cfg = ModelConfig(**SMALL_MODEL)
        exploding = TrainConfig(n_iter=3, batch_size=4, seed=0, learning_rate=1e20)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            if trainer == "train":
                train(series, cfg, exploding)
            else:
                model, _ = train(series, cfg, TrainConfig(n_iter=2, batch_size=4, seed=0))
                train_expert(series, model, exploding)
        message = str(err.value)
        assert "at iteration 1 " in message
        assert "non-finite loss nan" in message
        # the expert's classifier is seeded with the training seed plus one
        assert f"seed={0 if trainer == 'train' else 1}" in message

    @pytest.mark.parametrize("field", ["gamma", "learning_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_a_non_finite_value(self, field, value):
        # rejected up front, not blamed on the model as a non-finite loss
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("variant", ["shared_encoder", "non_separated",
                                         "model_ensemble"])
    def test_variants_train(self, variant):
        cfg = ModelConfig(**SMALL_MODEL, variant=variant)
        model, trace = train(_tiny_series(), cfg,
                             TrainConfig(n_iter=3, batch_size=4, seed=0))
        assert len(trace) == 3
        fs = model.predict_futures(_tiny_series().values[:16])
        fs.validate()


class TestTrainingMemory:
    CONFIG = dict(n_p=32, n_h=16, d=4, f=3, n_s=4, channels=8)
    BATCH = 32

    def test_a_step_holds_one_graph(self):
        # Two peaks, each above the memory in use when tracing started, as
        # tools/ab.py's step_peak_mb reads them.  Training: tracing starts
        # before iteration 2 and the peak is iteration 3's, so what iteration
        # 2 left alive counts too.  Reference: one minibatch sampled from the
        # same pool and one forward plus backward of a fresh model.  Adam's
        # moments and scratch exist before either trace starts.  With the
        # last step's graph still alive the ratio is about 1.5.
        cfg, series = ModelConfig(**self.CONFIG), _tiny_series()
        tcfg = TrainConfig(n_iter=4, batch_size=self.BATCH, seed=0)
        train(series, cfg, replace(tcfg, n_iter=1))  # warm every cache first
        pool = training._WindowPool(series, cfg.n_p, cfg.n_h)
        model = Forecaster(cfg, seed=0)
        peaks = []

        def progress(record):
            if record.iteration == 1:
                tracemalloc.start()
            elif record.iteration == 2:
                tracemalloc.reset_peak()
            elif record.iteration == 3:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        tracemalloc.start()
        try:
            inputs, targets = sample_minibatch(pool, cfg.n_p, cfg.n_h, self.BATCH,
                                               np.random.default_rng(0))
            truth = np.ascontiguousarray(targets.transpose(0, 2, 1), dtype=np.float32)
            training._oracle_batch_loss(model.forward_tensors(inputs), truth,
                                        1.0, 0)[0].backward()
            one_step = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del model, inputs, targets, truth
            train(series, cfg, tcfg, progress)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 1.25 * one_step, (peaks[0] / one_step, peaks, one_step)


class TestAllocatorPin:
    class _Libc:
        def __init__(self):
            self.calls = []

        def mallopt(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_pins_the_mmap_and_trim_thresholds(self, monkeypatch):
        libc = self._Libc()
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
        train(_tiny_series(), ModelConfig(**SMALL_MODEL),
              TrainConfig(n_iter=1, batch_size=4))
        assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("libc", [OSError, object()], ids=["no_libc", "no_mallopt"])
    def test_is_a_silent_noop_without_mallopt(self, monkeypatch, libc):
        def cdll(name):
            if libc is OSError:
                raise OSError("libc not found")
            return libc

        monkeypatch.setattr(training.ctypes, "CDLL", cdll)
        assert training._pin_allocator() is None
        _, trace = train(_tiny_series(), ModelConfig(**SMALL_MODEL),
                         TrainConfig(n_iter=2, batch_size=4))
        assert len(trace) == 2


class TestTrainExpert:
    def test_single_future_trivial(self):
        cfg = ModelConfig(**{**SMALL_MODEL, "f": 1})
        model, _ = train(_tiny_series(), cfg, TrainConfig(n_iter=2, batch_size=4, seed=0))
        clf = train_expert(_tiny_series(), model,
                           train_config=TrainConfig(n_iter=50, seed=0))
        np.testing.assert_allclose(
            clf.predict_proba(_tiny_series().values[:16]), [1.0])

    def test_parameters_and_probabilities_pinned(self):
        # seed-0 classifier bits after 12 steps against a 4-step f=3 model
        series = _tiny_series()
        model, _ = train(series, ModelConfig(**{**SMALL_MODEL, "f": 3}),
                         TrainConfig(n_iter=4, batch_size=8, seed=0))
        clf = train_expert(series, model,
                           train_config=TrainConfig(n_iter=12, batch_size=8, seed=0))
        digest = hashlib.sha256()
        for name, t in clf.named_tensors():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        digest.update(np.ascontiguousarray(
            clf.predict_proba(series.values[:16]), dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "1a42937b877c80942931b4a0a28ba3c3543a769c960fc9286b18c7c7f7122519")

    def test_learns_persistent_regimes(self):
        # switching is rare, so the current regime (visible in the input)
        # predicts the next day's best-fitting future
        gen = GeneratorConfig(n_hours=1440, seed=4, regime_switch_prob=0.1,
                              noise_std=0.05)
        series = generate(gen)
        cfg = ModelConfig(n_p=48, n_h=24, d=4, f=2, n_s=8, channels=16)
        tcfg = TrainConfig(n_iter=250, batch_size=32, seed=0)
        model, _ = train(series, cfg, tcfg)
        clf = train_expert(series, model, train_config=TrainConfig(
            n_iter=250, batch_size=32, seed=0))

        # held-out windows from a longer run of the same process
        held = generate(GeneratorConfig(n_hours=2400, seed=77,
                                        regime_switch_prob=0.1,
                                        noise_std=0.05))
        hits = 0
        total = 0
        for start in range(0, len(held) - 72, 24):
            window = held.values[start:start + 48]
            truth = held.values[start + 48:start + 72].T
            fs = model.predict_futures(window)
            label = oracle_index(fs, truth)
            pred = int(np.argmax(clf.predict_proba(window))) + 1
            hits += (pred == label)
            total += 1
        assert hits / total > 0.6


class TestLossTraceCsv:
    def test_round_trip_columns(self, tmp_path):
        records = [LossRecord(0, 1.5, 1.0, 0.5, [3, 1]),
                   LossRecord(1, 1.25, 0.75, 0.5, [2, 2])]
        path = tmp_path / "trace.csv"
        write_loss_trace(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,total,rmse,nrmse,oracle_histogram"
        assert lines[1].split(",")[-1] == "3|1"
        assert float(lines[2].split(",")[1]) == 1.25

    def test_crlf_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_loss_trace([LossRecord(0, 1.5, 1.0, 0.5, [3, 1])], path)
        assert path.read_bytes() == (
            b"iteration,total,rmse,nrmse,oracle_histogram\r\n0,1.5,1,0.5,3|1\r\n")

    def test_failed_write_keeps_previous_file(self, tmp_path, fail_mid_write):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"previous")
        with pytest.raises(OSError, match="mid-write"):
            write_loss_trace([LossRecord(0, 1.5, 1.0, 0.5, [3, 1])], path)
        assert path.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["trace.csv"]
