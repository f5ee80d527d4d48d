"""Command-line pipeline: generate, train, evaluate, predict, ablate.

Every command reads a JSON run configuration (strictly validated: unknown
and repeated keys are rejected), applies any flag overrides, and echoes the
effective configuration into its output directory so results can be
reproduced exactly.  Artifacts are written atomically; exit status is nonzero exactly
when a command fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import timedelta
from itertools import product

import numpy as np

from . import persistence
from .data import (
    GeneratorConfig,
    MultivariateSeries,
    generate,
    load_csv,
    save_csv,
    split_by_date,
)
from .evaluation import (
    NearestNeighborBaseline,
    RidgeBaseline,
    compare,
    evaluate_rolling,
)
from .model import (
    VARIANTS,
    ExpertClassifier,
    Forecaster,
    ModelConfig,
    _check_numbers,
    count_parameters,
)
from .training import TrainConfig, train, write_loss_trace

__all__ = ["main", "RunConfig", "CliError"]

DATA_ROOT_ENV = "MULTIFUTURE_DATA_ROOT"

_ABLATION_VARIANTS = ("full", "non_separated", "shared_encoder", "one_loss",
                      "tconv_decoder")
_SCALABILITY_FUTURES = (1, 3, 12)


class CliError(ValueError):
    """User-facing configuration or invocation error."""


@dataclass(frozen=True)
class PathsSection:
    data_dir: str | None = None
    checkpoint_dir: str = "runs/train"
    report_dir: str = "runs/report"


@dataclass(frozen=True)
class SplitSection:
    train_hours: int = 552          # 23 days

    __post_init__ = _check_numbers


@dataclass(frozen=True)
class DataSection:
    merchants: int = 4
    merchant: str = "merchant_0000"
    scope: str = "merchant"  # or "category": sample windows across all merchants

    def __post_init__(self):
        _check_numbers(self)
        if self.scope not in ("merchant", "category"):
            raise ValueError(f"scope must be merchant|category, got {self.scope!r}")
        if self.merchants < 1:
            raise ValueError("merchants must be >= 1")


@dataclass(frozen=True)
class _DatasetFile:
    merchant_id: str
    file: str
    seed: int


@dataclass(frozen=True)
class _DatasetManifest:  # dataset_manifest.json, as `generate` writes it
    files: tuple[_DatasetFile, ...]
    generator: GeneratorConfig

    def __post_init__(self):
        if not self.files:
            raise ValueError("files lists no merchant")


@dataclass
class RunConfig:
    """The validated contents of a run-configuration file."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    paths: PathsSection = field(default_factory=PathsSection)
    split: SplitSection = field(default_factory=SplitSection)
    data: DataSection = field(default_factory=DataSection)

    @classmethod
    def from_payload(cls, payload) -> "RunConfig":
        return persistence.from_payload(cls, payload, "config", CliError)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_payload(persistence._read_json(
            path, CliError, f"config file not found: {path}"))

    def data_dir(self) -> str:
        if self.paths.data_dir:
            return self.paths.data_dir
        return os.environ.get(DATA_ROOT_ENV, "data")


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    model = config.model
    trainc = config.train
    gen = config.generator
    if getattr(args, "futures", None) is not None:
        model = replace(model, f=args.futures)
    if getattr(args, "variant", None) is not None:
        model = replace(model, variant=args.variant)
    if getattr(args, "seed", None) is not None:
        if args.command == "generate":
            gen = replace(gen, seed=args.seed)
        else:
            trainc = replace(trainc, seed=args.seed)
    if model.variant == "one_loss":
        trainc = replace(trainc, gamma=0.0)
    return replace(config, model=model, train=trainc, generator=gen)


# -- output helpers -----------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    persistence._write_atomic(path, text.encode())


def _echo_config(config: RunConfig, out_dir: str) -> None:
    persistence._write_json(os.path.join(out_dir, "effective_config.json"), config)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


# -- data loading --------------------------------------------------------------


def _load_training_series(config: RunConfig) -> list[MultivariateSeries]:
    """The merchant's series, or every generated merchant's in category scope."""
    data_dir = config.data_dir()
    if config.data.scope == "category":
        manifest_path = os.path.join(data_dir, "dataset_manifest.json")
        manifest = persistence._read_json(
            manifest_path, CliError,
            f"category scope needs {manifest_path} (run `generate` first)")
        files = persistence.from_payload(_DatasetManifest, manifest,
                                         "dataset_manifest", CliError).files
        sources = [(os.path.join(data_dir, entry.file), entry.merchant_id)
                   for entry in files]
    else:
        path = os.path.join(data_dir, f"{config.data.merchant}.csv")
        if not os.path.exists(path):
            raise CliError(f"no data for {config.data.merchant!r} at {path}")
        sources = [(path, config.data.merchant)]
    series = [load_csv(path, merchant_id) for path, merchant_id in sources]
    for (path, _), s in zip(sources, series):
        if s.d != config.model.d:
            raise CliError(f"config.model.d is {config.model.d} but {path} "
                           f"has {s.d} features")
    return series


def _merchant_series(config: RunConfig, command: str) -> MultivariateSeries:
    if config.data.scope == "category":
        raise CliError(f"{command} runs on a single merchant; set data.scope=merchant")
    return _load_training_series(config)[0]


def _train_test_split(series: MultivariateSeries, config: RunConfig):
    # n_p warm-up hours make the first scored target start at the boundary.
    boundary = series.start_timestamp + timedelta(hours=config.split.train_hours)
    return split_by_date(series, boundary, warmup_hours=config.model.n_p)


# -- commands -------------------------------------------------------------------


def cmd_generate(config: RunConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for index in range(config.data.merchants):
        merchant_id = f"merchant_{index:04d}"
        seed = config.generator.seed + index
        gcfg = replace(config.generator, seed=seed, merchant_id=merchant_id)
        series = generate(gcfg)
        filename = f"{merchant_id}.csv"
        save_csv(series, os.path.join(out_dir, filename))
        entries.append(_DatasetFile(merchant_id, filename, seed))
        _say(f"wrote {filename} ({len(series)} hours)")
    persistence._write_json(os.path.join(out_dir, "dataset_manifest.json"),
                            _DatasetManifest(tuple(entries), config.generator))
    _echo_config(config, out_dir)
    print(out_dir)
    return 0


def cmd_train(config: RunConfig, out_dir: str) -> int:
    split = [_train_test_split(s, config)[0] for s in _load_training_series(config)]

    def progress(record):
        if record.iteration % 200 == 0:
            _say(f"iter {record.iteration}: loss {record.total_loss:.4f}")

    start = time.perf_counter()
    model, trace = train(split, config.model, config.train, progress=progress)
    wall = time.perf_counter() - start

    os.makedirs(out_dir, exist_ok=True)
    checkpoint_dir = os.path.join(out_dir, "checkpoint")
    persistence.save(model, checkpoint_dir, training_seed=config.train.seed)
    write_loss_trace(trace, os.path.join(out_dir, "loss_trace.csv"))
    counts = count_parameters(model)
    summary = {
        "model_id": model.model_id,
        "variant": config.model.variant,
        "seed": config.train.seed,
        "iterations": len(trace),
        "final_loss": trace[-1].total_loss if trace else None,
        "first_loss": trace[0].total_loss if trace else None,
        "parameter_count": counts._asdict(),
        "wall_time_s": wall,
    }
    persistence._write_json(os.path.join(out_dir, "run_summary.json"), summary)
    _echo_config(config, out_dir)
    _say(f"trained {model.model_id} in {wall:.1f}s "
         f"({counts.total} parameters)")
    print(checkpoint_dir)
    return 0


def _predictions_csv(report, predictions, feature_names) -> str:
    lines = []
    f = report.f
    header = ["window", "hour"]
    for name in feature_names:
        header.append(f"{name}_truth")
        header.extend(f"{name}_future_{j + 1}" for j in range(f))
    lines.append(",".join(header))
    for record, (truth, futures) in zip(report.per_window, predictions):
        for k in range(report.n_h):
            row = [str(record.window_index), str(record.start_hour + k)]
            for j_feat in range(truth.shape[0]):
                row.append(f"{truth[j_feat, k]:.17g}")
                row.extend(f"{futures.futures[j, j_feat, k]:.17g}"
                           for j in range(f))
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_evaluate(config: RunConfig, checkpoint: str | None, baseline: str | None,
                 out_dir: str) -> int:
    if (checkpoint is None) == (baseline is None):
        raise CliError("evaluate needs exactly one of --checkpoint and --baseline")
    train_split, test_split = _train_test_split(
        _merchant_series(config, "evaluate"), config)
    n_p, n_h = config.model.n_p, config.model.n_h

    if baseline == "nn":
        predictor = NearestNeighborBaseline(train_split, n_p, n_h)
    elif baseline == "ridge":
        predictor = RidgeBaseline(train_split, n_p, n_h)
    else:
        predictor = persistence.load(checkpoint)
        if not isinstance(predictor, Forecaster):
            raise CliError("checkpoint does not hold a forecaster")
        if (predictor.config.n_p, predictor.config.n_h) != (n_p, n_h):
            raise CliError(
                f"checkpoint horizons ({predictor.config.n_p}, "
                f"{predictor.config.n_h}) do not match config ({n_p}, {n_h})")

    report, predictions = evaluate_rolling(
        predictor, test_split, n_p, n_h, collect_predictions=True)
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "report.json"), report.to_json() + "\n")
    _write_text(os.path.join(out_dir, "report.csv"), report.to_csv())
    _write_text(os.path.join(out_dir, "predictions.csv"),
                _predictions_csv(report, predictions, test_split.feature_names))
    _echo_config(config, out_dir)
    _say(f"{report.model_id}: oracle_rmse {report.oracle_rmse:.4f} "
         f"oracle_nrmse {report.oracle_nrmse:.4f} over {report.n_windows} windows")
    print(os.path.join(out_dir, "report.json"))
    return 0


def cmd_predict(checkpoint: str, input_csv: str, expert: str | None,
                out_dir: str) -> int:
    model = persistence.load(checkpoint)
    if not isinstance(model, Forecaster):
        raise CliError("checkpoint does not hold a forecaster")
    if expert is not None:
        classifier = persistence.load(expert)
        if not isinstance(classifier, ExpertClassifier):
            raise CliError("expert checkpoint does not hold an expert classifier")
        ours, theirs = vars(model.config), vars(classifier.config)
        differ = [f"{k}={theirs[k]!r} (forecaster: {ours[k]!r})"
                  for k in ours if theirs[k] != ours[k]]
        if differ:
            raise CliError(f"expert checkpoint config differs from the "
                           f"forecaster's: {', '.join(differ)}")
    series = load_csv(input_csv)
    n_p, n_h = model.config.n_p, model.config.n_h
    if len(series) < n_p:
        raise CliError(f"{input_csv} has {len(series)} hours; the checkpoint "
                       f"needs at least n_p = {n_p}")
    window = series.values[-n_p:]
    futures = model.predict_futures(window)
    os.makedirs(out_dir, exist_ok=True)

    f, d = futures.f, series.d
    # One row per (future, feature, hour), in that order, formatted at once.
    blocks = product(range(1, f + 1), series.feature_names)
    labels = ((k, name, j) for j, name in blocks for k in range(1, n_h + 1))
    per_hour = (np.broadcast_to(a[..., None], (f, d, n_h))
                for a in (futures.scale_mul, futures.scale_add))
    columns = [a.ravel().tolist() for a in (futures.futures, futures.shape_preds, *per_hour)]
    rows = [(*label, *cells) for label, cells in zip(labels, zip(*columns))]
    _write_text(os.path.join(out_dir, "futures.csv"),
                "hour,feature,future,value,shape,scale_mul,scale_add\n"
                + "".join("%d,%s,%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows))

    if futures.activations is not None:
        n_s = futures.activations.shape[2]
        r = futures.activations.reshape(f * d, n_s)
        # The three largest mixture weights' indices; fewer repeat the last.
        top = np.argsort(-r, axis=-1)[:, [min(k, n_s - 1) for k in range(3)]]
        header = ",".join(["future,feature,top_1,top_2,top_3",
                           *(f"r_{k}" for k in range(n_s))])
        row_format = "%d,%s,%d,%d,%d" + ",%.17g" * n_s + "\n"
        rows = [(*label, *t, *w) for label, t, w in zip(
            product(range(1, f + 1), series.feature_names), top.tolist(), r.tolist())]
        activations = header + "\n" + "".join(row_format % row for row in rows)
    else:
        activations = "future,feature\n"  # tconv decoder: no template mixture
    _write_text(os.path.join(out_dir, "activations.csv"), activations)

    if expert is not None:
        probs = classifier.predict_proba(window)
        prob_lines = ["future,probability"]
        prob_lines.extend(f"{j + 1},{p:.17g}" for j, p in enumerate(probs))
        _write_text(os.path.join(out_dir, "expert_probabilities.csv"),
                    "\n".join(prob_lines) + "\n")

    run_info = {
        "checkpoint": checkpoint, "input": input_csv,
        "model_id": model.model_id, "n_p": n_p, "n_h": n_h,
        "futures": futures.f, "expert": expert,
    }
    persistence._write_json(os.path.join(out_dir, "effective_config.json"), run_info)
    print(os.path.join(out_dir, "futures.csv"))
    return 0


def cmd_ablate(config: RunConfig, scalability: bool, out_dir: str) -> int:
    train_split, test_split = _train_test_split(
        _merchant_series(config, "ablate"), config)

    if scalability:
        rows = ["scheme,f,params_total,params_encoder,params_decoder,sec_per_iter"]
        for scheme in ("full", "model_ensemble"):
            for f in _SCALABILITY_FUTURES:
                model_cfg = replace(config.model, variant=scheme, f=f)
                start = time.perf_counter()
                model, trace = train(train_split, model_cfg, config.train)
                wall = time.perf_counter() - start
                counts = count_parameters(model)
                per_iter = wall / max(len(trace), 1)
                rows.append(f"{scheme},{f},{counts.total},{counts.encoder},"
                            f"{counts.decoder},{per_iter:.6f}")
                _say(f"{scheme} f={f}: {counts.total} params, "
                     f"{per_iter * 1e3:.1f} ms/iter")
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "scalability.csv"),
                    "\n".join(rows) + "\n")
        _echo_config(config, out_dir)
        print(os.path.join(out_dir, "scalability.csv"))
        return 0

    reports = []
    for variant in _ABLATION_VARIANTS:
        model_cfg = replace(config.model, variant=variant)
        model, _ = train(train_split, model_cfg, config.train)
        report = evaluate_rolling(model, test_split, model_cfg.n_p, model_cfg.n_h)
        report.model_id = variant
        reports.append(report)
        _say(f"{variant}: oracle_rmse {report.oracle_rmse:.4f} "
             f"oracle_nrmse {report.oracle_nrmse:.4f}")
    table = compare(reports)
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "comparison.csv"), table.to_csv())
    _write_text(os.path.join(out_dir, "comparison.txt"), table.to_text())
    _echo_config(config, out_dir)
    print(os.path.join(out_dir, "comparison.csv"))
    return 0


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifuture",
        description="Multi-future transaction-series forecasting pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic merchant CSVs")
    gen.add_argument("--config", required=True)
    gen.add_argument("--seed", type=int, help="override the generator seed")
    gen.add_argument("--out", help="output directory (default: data dir)")

    tr = sub.add_parser("train", help="train a forecaster")
    tr.add_argument("--config", required=True)
    tr.add_argument("--seed", type=int, help="override the training seed")
    tr.add_argument("--futures", type=int, help="override the number of futures")
    tr.add_argument("--variant", choices=list(VARIANTS))
    tr.add_argument("--out", help="output directory (default: paths.checkpoint_dir)")

    ev = sub.add_parser("evaluate", help="rolling evaluation on the test split")
    ev.add_argument("--config", required=True)
    ev.add_argument("--checkpoint")
    ev.add_argument("--baseline", choices=["nn", "ridge"])
    ev.add_argument("--out", help="output directory (default: paths.report_dir)")

    pr = sub.add_parser("predict", help="predict futures from a CSV history")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--input", required=True, help="series CSV with >= n_p hours")
    pr.add_argument("--expert", help="expert-classifier checkpoint directory")
    pr.add_argument("--out", default="runs/predict")

    ab = sub.add_parser("ablate", help="train and compare the ablation variants")
    ab.add_argument("--config", required=True)
    ab.add_argument("--seed", type=int, help="override the training seed")
    ab.add_argument("--scalability", action="store_true",
                    help="sweep f over 1/3/12 for full vs model_ensemble")
    ab.add_argument("--out", help="output directory (default: paths.report_dir)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args.checkpoint, args.input, args.expert, args.out)
        config = _apply_overrides(RunConfig.from_file(args.config), args)
        if args.command == "generate":
            return cmd_generate(config, args.out or config.data_dir())
        if args.command == "train":
            return cmd_train(config, args.out or config.paths.checkpoint_dir)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.checkpoint, args.baseline,
                                args.out or config.paths.report_dir)
        return cmd_ablate(config, args.scalability,
                          args.out or config.paths.report_dir)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
