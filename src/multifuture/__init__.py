"""Multi-future, multi-horizon forecasting of multivariate transaction series."""

__version__ = "0.1.0"

from .data import (
    GeneratorConfig,
    MultivariateSeries,
    RegimeSpec,
    generate,
    load_csv,
    sample_continuations,
    save_csv,
    split_by_date,
)
from .evaluation import (
    EvalReport,
    NearestNeighborBaseline,
    RidgeBaseline,
    compare,
    evaluate_rolling,
)
from .model import (
    ExpertClassifier,
    Forecaster,
    FutureSet,
    ModelConfig,
    count_parameters,
)
from .persistence import load, load_shape_banks, save, save_shape_banks
from .training import (
    LossRecord,
    TrainConfig,
    compute_loss,
    nrmse,
    oracle_index,
    rmse,
    sample_minibatch,
    train,
    train_expert,
    z_normalize,
)

__all__ = [
    "__version__",
    "ModelConfig",
    "Forecaster",
    "FutureSet",
    "ExpertClassifier",
    "count_parameters",
    "TrainConfig",
    "LossRecord",
    "train",
    "train_expert",
    "z_normalize",
    "rmse",
    "nrmse",
    "oracle_index",
    "compute_loss",
    "sample_minibatch",
    "MultivariateSeries",
    "GeneratorConfig",
    "RegimeSpec",
    "generate",
    "sample_continuations",
    "load_csv",
    "save_csv",
    "split_by_date",
    "EvalReport",
    "evaluate_rolling",
    "NearestNeighborBaseline",
    "RidgeBaseline",
    "compare",
    "save",
    "load",
    "save_shape_banks",
    "load_shape_banks",
]
