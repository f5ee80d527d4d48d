"""The benchmark tracer's patch points exist and are restored after a run.

``perfbench/tracer.py`` wraps named functions, methods and module globals
of ``multifuture`` from outside.  Renaming or deleting one of them breaks
``perfbench/run.py --trace 1``, and so does a serving path that stops
calling a wrapped method; these tests make both a tier-1 failure.
"""

import importlib.util
from pathlib import Path

import numpy as np

from multifuture.data import GeneratorConfig, generate
from multifuture.evaluation import NearestNeighborBaseline, evaluate_rolling
from multifuture.model import Forecaster, ModelConfig

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCH_POINTS = 26


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_point_and_uninstall_restores_it():
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        replaced = [owner.__dict__[attr] is not original
                    for owner, attr, original in patches]
    finally:
        tracer.uninstall()
    assert len(patches) == PATCH_POINTS
    assert all(replaced)
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
    assert tracer._patches == []


def test_traced_serving_records_the_spans_the_report_divides_by():
    # The trace report divides by the count of nearest-neighbour predict
    # spans in the baselines phase, one per evaluated window, and by
    # forward passes per prediction.
    series = generate(GeneratorConfig(n_hours=240, seed=0))
    baseline = NearestNeighborBaseline(series.slice(0, 160), 16, 8)
    model = Forecaster(ModelConfig(n_p=16, n_h=8, n_s=4, channels=8), seed=0)
    tracer = _load_tracer_module().Tracer()
    tracer.install()
    try:
        report = evaluate_rolling(baseline, series.slice(160, 240), 16, 8)
        evaluated = [span[0] for span in tracer.spans]
        model.predict_futures(np.ones((16, 4)))
        predicted = [span[0] for span in tracer.spans[len(evaluated):]]
    finally:
        tracer.uninstall()
    assert evaluated.count("evaluation.nearest_neighbor.predict") == report.n_windows
    assert predicted.count("model.forward_tensors") == 1
