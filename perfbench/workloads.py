"""The benchmark's workloads and the pipeline each of them runs.

Every workload runs the same closed-loop pipeline with one caller in one
process, on a generated merchant series whose first five weeks train and
whose last four weeks are held out:

``phase.setup``      generate the series, CSV round trip, checkpoint round
                     trip of a fresh forecaster (the deployed model), one
                     CLI ``predict``;
``phase.train``      ``train()`` at batch 64, with serving work run between
                     iterations:
``phase.predict``    single-window ``predict_futures`` of the deployed
                     model over the held-out rolling windows,
``phase.evaluate``   ``evaluate_rolling`` of the deployed model,
``phase.baselines``  fit plus ``evaluate_rolling`` of the nearest-neighbour
                     and ridge baselines, and further set-ups;
``phase.publish``    checkpoint round trip of the trained model;
``phase.quality``    ``evaluate_rolling`` of the trained model.

The workloads differ in the model and in how the run's time is split
between training and serving; the reasons are recorded in
``BENCHMARK.json``.  Work is sized from ``--seconds`` with fixed
per-second rates, so the same arguments always do the same work and give
the same outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from datetime import timedelta

import numpy as np

from multifuture import cli, data, evaluation, model, persistence, training
from tracer import ALL_OPS

SERIES_HOURS = 1512          # nine weeks of hourly data
TRAIN_HOURS = 840            # five weeks train; four weeks are held out
WARMUP_HOURS = 168
BATCH_SIZE = 64
TRAIN_SEED = 0               # the reference run's training seed
SETUP_REPEATS = 10
BASELINE_REPEATS_PER_S = 1.0
ROUND_TRIP_WINDOWS = 8
# The trained model's held-out oracle NRMSE must be at least this share
# below the untrained deployed model's, or the run fails: a change that
# stops training from learning is refused even when the quality metric
# stays within its bound.  An untrained model reads about 1.0; twelve
# iterations (the fewest a run makes) already gain about 1%.
QUALITY_MARGIN = 0.005


@dataclass(frozen=True)
class Workload:
    """A model plus the work per second of ``--seconds`` in each phase.

    The rates are constants, chosen so that one run at the commit that
    introduced the benchmark takes about ``--seconds`` of timed work on a
    2-vCPU x86 VM; they are never measured at run time.
    """

    name: str
    model: model.ModelConfig
    train_iters: float
    predict_calls: float
    evaluate_repeats: float

    def sizes(self, seconds: int) -> dict[str, int]:
        return {
            "n_iter": max(12, round(self.train_iters * seconds)),
            "setup_repeats": SETUP_REPEATS,
            "predict_calls": max(20, round(self.predict_calls * seconds)),
            "evaluate_repeats": max(3, round(self.evaluate_repeats * seconds)),
            "baseline_repeats": max(3, round(BASELINE_REPEATS_PER_S * seconds)),
        }


WORKLOADS = {
    w.name: w for w in (
        Workload("train_reference", model.ModelConfig(),
                 train_iters=8.0, predict_calls=20.0, evaluate_repeats=1.25),
        Workload("train_tconv_f12",
                 model.ModelConfig(variant="tconv_decoder", f=12),
                 train_iters=2.4, predict_calls=5.0, evaluate_repeats=0.6),
        Workload("forecast", model.ModelConfig(),
                 train_iters=1.5, predict_calls=250.0, evaluate_repeats=1.25),
    )
}


@dataclass
class PassResult:
    """Timings, outputs and failure counts of one pass of the pipeline."""

    sizes: dict[str, int]
    setup_s: list[float] = field(default_factory=list)
    phase_s: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    iter_s: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    quality: float = math.nan
    untrained_quality: float = math.nan
    predict_s: list[float] = field(default_factory=list)
    n_windows: int = 0
    evaluate_s: list[float] = field(default_factory=list)
    baseline_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    loss_digest: str = ""
    prediction_digest: str = ""

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _future_set_ok(fs: model.FutureSet) -> bool:
    arrays = [fs.futures, fs.shape_preds, fs.scale_mul, fs.scale_add]
    if fs.activations is not None:
        arrays.append(fs.activations)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return False
    try:
        fs.validate()
    except ValueError:
        return False
    return True


def _same_future_sets(a: model.FutureSet, b: model.FutureSet) -> bool:
    pairs = [(a.futures, b.futures), (a.shape_preds, b.shape_preds),
             (a.scale_mul, b.scale_mul), (a.scale_add, b.scale_add)]
    if (a.activations is None) != (b.activations is None):
        return False
    if a.activations is not None:
        pairs.append((a.activations, b.activations))
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def _round_trip_ok(original, reloaded, windows) -> bool:
    return all(_same_future_sets(original.predict_futures(w),
                                 reloaded.predict_futures(w)) for w in windows)


def _digest_future_set(h, fs: model.FutureSet) -> None:
    for a in (fs.futures, fs.shape_preds, fs.scale_mul, fs.scale_add):
        h.update(np.ascontiguousarray(a).tobytes())


def _setup(workload: Workload, seed: int, tracer, workdir: str, result: PassResult):
    """Generate and round-trip the inputs; return the series and the served model."""
    series = tracer.call("data.generate", data.generate,
                         data.GeneratorConfig(n_hours=SERIES_HOURS, seed=seed))
    csv_path = os.path.join(workdir, "series.csv")
    tracer.call("data.save_csv", data.save_csv, series, csv_path)
    loaded_series = tracer.call("data.load_csv", data.load_csv, csv_path)
    result.check(np.array_equal(series.values, loaded_series.values),
                 "CSV round trip changed the series")

    fresh = model.Forecaster(workload.model, seed=TRAIN_SEED)
    checkpoint = os.path.join(workdir, "deployed")
    tracer.call("persistence.save", persistence.save, fresh, checkpoint)
    deployed = tracer.call("persistence.load", persistence.load, checkpoint)
    n_p = workload.model.n_p
    result.check(_round_trip_ok(fresh, deployed, [loaded_series.values[-n_p:]]),
                 "deployed checkpoint round trip is not bit-identical")

    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call("cli.predict", cli.main, [
            "predict", "--checkpoint", checkpoint, "--input", csv_path,
            "--out", os.path.join(workdir, "predict")])
    result.check(code == 0, "CLI predict exited non-zero")
    return loaded_series, deployed


def run_pipeline(workload: Workload, seed: int, seconds: int, tracer,
                 workdir: str) -> PassResult:
    """Run the workload once: set up, then train while serving.

    Serving work (predictions, rolling evaluations and baselines, all on
    the deployed checkpoint) runs in slices between training iterations,
    spread evenly over the run, so that every metric samples the whole
    run and not one short stretch of a machine whose speed drifts.  The
    time a slice takes is excluded from the iteration it follows.  After
    training, the trained model is published through a checkpoint round
    trip and evaluated once for quality.
    """
    sizes = workload.sizes(seconds)
    result = PassResult(sizes)
    cfg = workload.model
    n_p, n_h = cfg.n_p, cfg.n_h
    clock = time.perf_counter
    pass_start = clock()

    @contextlib.contextmanager
    def phase(name):
        start = clock()
        with tracer.span(name):
            yield
        result.phase_s[name] = result.phase_s.get(name, 0.0) + clock() - start

    def setup(_=None):
        start = clock()
        with phase("phase.setup"):
            outputs = _setup(workload, seed, tracer, workdir, result)
        result.setup_s.append(clock() - start)
        return outputs

    series, deployed = setup()
    boundary = series.start_timestamp + timedelta(hours=TRAIN_HOURS)
    train_split, test_split = data.split_by_date(series, boundary, WARMUP_HOURS)
    held_out = test_split.values
    windows = [held_out[s:s + n_p] for s in range(len(held_out) - n_p - n_h + 1)]
    digest = hashlib.sha256()

    def evaluate(predictor):
        """Evaluate on the held-out span; return the report and its time."""
        start = clock()
        report, predictions = tracer.call(
            "evaluation.evaluate_rolling", evaluation.evaluate_rolling,
            predictor, test_split, n_p, n_h, collect_predictions=True)
        elapsed = clock() - start
        result.n_windows = report.n_windows
        errors = [e for w in report.per_window
                  for e in w.rmse_per_future + w.nrmse_per_future]
        errors_ok = all(map(math.isfinite, errors))
        for _, future_set in predictions:
            if result.check(errors_ok and _future_set_ok(future_set),
                            f"invalid {report.model_id} window"):
                _digest_future_set(digest, future_set)
        return report, elapsed

    def predict(k):
        with phase("phase.predict"):
            start = clock()
            try:
                future_set = deployed.predict_futures(windows[k % len(windows)])
            except Exception as exc:  # a raising prediction is a failed operation
                result.check(False, f"predict_futures raised {exc!r}")
                return
            result.predict_s.append(clock() - start)
            if result.check(_future_set_ok(future_set), "invalid predicted FutureSet"):
                _digest_future_set(digest, future_set)

    def evaluate_deployed(_):
        with phase("phase.evaluate"):
            report, elapsed = evaluate(deployed)
            result.untrained_quality = report.oracle_nrmse
            result.evaluate_s.append(elapsed)

    def baselines(_):
        elapsed = 0.0  # fits plus evaluations, without the output checks
        with phase("phase.baselines"):
            for cls in (evaluation.NearestNeighborBaseline,
                        evaluation.RidgeBaseline):
                start = clock()
                baseline = cls(train_split, n_p, n_h)
                elapsed += clock() - start + evaluate(baseline)[1]
        result.baseline_s.append(elapsed)

    slices = {"setup_repeats": setup, "predict_calls": predict,
              "evaluate_repeats": evaluate_deployed, "baseline_repeats": baselines}
    done = dict.fromkeys(slices, 0)
    done["setup_repeats"] = 1

    def serve(fraction: float) -> None:
        """Catch up with the share ``fraction`` of every kind of serving work."""
        for kind, work in slices.items():
            target = round(sizes[kind] * fraction)
            for k in range(done[kind], target):
                work(k)
            done[kind] = max(done[kind], target)

    def progress(record):
        nonlocal resume
        result.iter_s.append(clock() - resume)
        result.records.append(record)
        serve(len(result.records) / sizes["n_iter"])
        resume = clock()

    train_config = training.TrainConfig(
        n_iter=sizes["n_iter"], batch_size=BATCH_SIZE, seed=TRAIN_SEED)
    with phase("phase.train"):
        resume = clock()
        trained, _ = tracer.call("training.train", training.train, train_split,
                                 cfg, train_config, progress)
    losses = np.array([[r.total_loss, r.rmse_term, r.nrmse_term]
                       for r in result.records])
    for iteration, row in enumerate(losses):
        result.check(bool(np.isfinite(row).all()),
                     f"non-finite loss at iteration {iteration}")
    hist = np.array([r.oracle_index_histogram for r in result.records])
    result.loss_digest = hashlib.sha256(
        losses.tobytes() + hist.astype(np.int64).tobytes()).hexdigest()

    with phase("phase.publish"):
        checkpoint = os.path.join(workdir, "trained")
        persistence.save(trained, checkpoint)
        served = persistence.load(checkpoint)
        result.check(_round_trip_ok(trained, served, windows[:ROUND_TRIP_WINDOWS]),
                     "trained checkpoint round trip is not bit-identical")
    with phase("phase.quality"):
        result.quality = evaluate(served)[0].oracle_nrmse
    result.check(result.quality <= (1 - QUALITY_MARGIN) * result.untrained_quality,
                 f"trained oracle NRMSE {result.quality:.4f} is not {QUALITY_MARGIN:.1%} "
                 f"below the untrained model's {result.untrained_quality:.4f}")
    result.prediction_digest = digest.hexdigest()
    result.wall_s = clock() - pass_start
    return result


# -- metrics -----------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1e3


def tail(values: list[float]) -> float:
    """The highest order statistic with ten samples beyond it (or the maximum)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(result: PassResult, peak_rss_mb: float) -> dict:
    """``{metric: (value, unit, samples)}`` from an untraced pass."""
    windows = result.n_windows
    n_iter = result.sizes["n_iter"]
    return {
        "setup_s": (statistics.median(result.setup_s), "s", len(result.setup_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "train_windows_per_s": (n_iter * BATCH_SIZE / sum(result.iter_s), "1/s",
                                n_iter),
        "train_iter_ms_p50": (_ms(statistics.median(result.iter_s)), "ms", n_iter),
        "quality_oracle_nrmse": (result.quality, "nrmse", windows),
        "predict_ms_p50": (_ms(statistics.median(result.predict_s)), "ms",
                           len(result.predict_s)),
        "evaluate_windows_per_s": (windows / statistics.median(result.evaluate_s),
                                   "1/s", windows * len(result.evaluate_s)),
        "baseline_windows_per_s": (2 * windows / statistics.median(result.baseline_s),
                                   "1/s", 2 * windows * len(result.baseline_s)),
    }


# nn.ops rows present in every workload's training phase; the others
# (tconv1d, upsample_nearest, softmax, matmul, cross_entropy) are in the
# trace report only, because a workload without them would read zero.
PER_ITER_OPS = ("conv1d", "maxpool1d", "relu", "linear", "adaptive_avgpool1d")
COMPUTED_OPS = ("conv1d", "linear")
MODEL_SPANS = ("model.encoder", "model.shape_decoder", "model.scale_decoder")
SETUP_SPANS = ("data.generate", "data.save_csv", "data.load_csv",
               "persistence.save", "persistence.load", "cli.predict")


def op_table(table, counters, phase: str, per: int) -> dict:
    """Every op's per-unit figures in one phase, for the trace report."""
    rows = {}
    for op in ALL_OPS:
        name = f"nn.ops.{op}"
        c = counters.get(phase, {})
        rows[op] = {
            "calls": table.count[(phase, name)] / per,
            "fwd_ms": _ms(table.self_time[(phase, name)] / per),
            "fwd_total_ms": _ms(table.total[(phase, name)] / per),
            "bwd_ms": _ms(table.self_time[(phase, name + ".bwd")] / per),
            "gflop_computed": (c.get(f"{op}.fwd_flop", 0.0)
                               + c.get(f"{op}.bwd_flop", 0.0)) / per / 1e9,
            "mb_computed": (c.get(f"{op}.fwd_bytes", 0.0)
                            + c.get(f"{op}.bwd_bytes", 0.0)) / per / 1e6,
        }
    return rows


def per_layer(untraced: PassResult, traced: PassResult, table, counters) -> dict:
    """``{metric: (value, unit, samples)}`` from a traced pass.

    Training figures are per iteration, prediction figures per
    ``predict_futures`` call, evaluation figures per window or call, and
    set-up figures per set-up repeat.
    """
    n_iter = traced.sizes["n_iter"]
    calls = len(traced.predict_s)
    out = {}
    train_ops = op_table(table, counters, "phase.train", n_iter)
    for op in PER_ITER_OPS:
        row = train_ops[op]
        out[f"nn.ops.{op}.fwd_ms"] = (row["fwd_ms"], "ms", n_iter)
        out[f"nn.ops.{op}.bwd_ms"] = (row["bwd_ms"], "ms", n_iter)
        out[f"nn.ops.{op}.calls"] = (row["calls"], "count", n_iter)
    for op in COMPUTED_OPS:
        out[f"nn.ops.{op}.gflop_computed"] = (train_ops[op]["gflop_computed"],
                                             "GFLOP", n_iter)
        out[f"nn.ops.{op}.mb_computed"] = (train_ops[op]["mb_computed"], "MB", n_iter)

    def per_iter(value):
        return (_ms(value / n_iter), "ms", n_iter)

    train = "phase.train"
    for name in MODEL_SPANS:
        out[f"{name}.ms"] = per_iter(table.total[(train, name)]
                                     + table.owned[(train, name)])
    out["nn.tensor.backward.self_ms"] = per_iter(
        table.self_time[(train, "nn.tensor.backward")])
    out["nn.optim.adam_step.ms"] = per_iter(table.total[(train, "nn.optim.adam_step")])
    out["training.sample_minibatch.ms"] = per_iter(
        table.total[(train, "training.sample_minibatch")])
    out["training.train.self_ms"] = per_iter(table.self_time[(train, "training.train")])
    f = len(traced.records[0].oracle_index_histogram)
    winning = [sum(1 for c in r.oracle_index_histogram if c > 0) / f
               for r in traced.records]
    out["training.oracle.winning_share"] = (statistics.fmean(winning), "ratio", n_iter)
    out["training.iter_ms_tail"] = (_ms(tail(untraced.iter_s)), "ms",
                                    len(untraced.iter_s))

    predict = "phase.predict"
    out["model.forward_tensors.ms"] = (
        _ms(table.total[(predict, "model.forward_tensors")] / calls), "ms", calls)
    out["forecast.predict_ms_tail"] = (_ms(tail(untraced.predict_s)), "ms",
                                       len(untraced.predict_s))
    predict_ops = op_table(table, counters, predict, calls)
    out["predict.nn_ops.fwd_ms"] = (
        sum(row["fwd_ms"] for row in predict_ops.values()), "ms", calls)
    out["predict.nn_ops.calls"] = (
        sum(row["calls"] for row in predict_ops.values()), "count", calls)

    windows = traced.n_windows * len(traced.evaluate_s)
    out["evaluation.evaluate_rolling.self_ms"] = (
        _ms(table.self_time[("phase.evaluate", "evaluation.evaluate_rolling")]
            / windows), "ms", windows)
    for name in ("evaluation.nearest_neighbor.predict", "evaluation.ridge.fit"):
        n = table.count[("phase.baselines", name)]
        out[f"{name}_ms"] = (_ms(table.total[("phase.baselines", name)] / n), "ms", n)

    for name in SETUP_SPANS:
        n = table.count[("phase.setup", name)]
        out[f"{name}.ms"] = (_ms(table.total[("phase.setup", name)] / n), "ms", n)

    out["trace.overhead_share"] = (traced.wall_s / untraced.wall_s - 1, "ratio", 1)
    out["trace.unattributed_share"] = (table.unattributed_share(), "ratio", 1)
    return out
