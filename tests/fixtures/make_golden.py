"""Generate the golden behaviour fixture used by ``tests/test_golden.py``.

Trains every variant for a few iterations on a generated series and stores,
in one ``golden.npz``: the loss trace, the oracle-win histograms, the
``FutureSet`` arrays on fixed windows and the SHA-256 of the trained
parameters (names plus float32 bytes, in ``named_tensors()`` order).  The
trained ``full`` model is also saved as a checkpoint under ``golden_full/``
so a test can show that a checkpoint written by this code keeps loading and
predicting bit-exactly.

Regenerate (only when behaviour is meant to change) with::

    PYTHONPATH=src python tests/fixtures/make_golden.py [VARIANT ...]

Named variants are retrained and every other entry of ``golden.npz`` is
kept as it is; ``golden_full/`` is rewritten only when ``full`` is named.
With no variant named, everything is regenerated.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np

from multifuture import persistence
from multifuture.data import GeneratorConfig, generate
from multifuture.model import VARIANTS, ModelConfig
from multifuture.training import TrainConfig, train

FIXTURES = Path(__file__).resolve().parent
GOLDEN_NPZ = FIXTURES / "golden.npz"
GOLDEN_CHECKPOINT = FIXTURES / "golden_full"

SERIES = GeneratorConfig(n_hours=480, seed=7)
TRAIN = TrainConfig(n_iter=40, batch_size=16, seed=3)
WINDOW_STARTS = (0, 101, 250, 400)


def model_config(variant: str) -> ModelConfig:
    return ModelConfig(n_p=48, channels=16, f=3, variant=variant)


def windows(config: ModelConfig) -> list[np.ndarray]:
    values = generate(SERIES).values
    return [values[s:s + config.n_p] for s in WINDOW_STARTS]


def parameter_digest(model) -> str:
    h = hashlib.sha256()
    for name, tensor in model.named_tensors():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    return h.hexdigest()


def prediction_arrays(model, config: ModelConfig, prefix: str) -> dict:
    out = {}
    for k, window in enumerate(windows(config)):
        fs = model.predict_futures(window)
        out[f"{prefix}.window{k}.futures"] = fs.futures
        out[f"{prefix}.window{k}.shape_preds"] = fs.shape_preds
        out[f"{prefix}.window{k}.scale_mul"] = fs.scale_mul
        out[f"{prefix}.window{k}.scale_add"] = fs.scale_add
        if fs.activations is not None:
            out[f"{prefix}.window{k}.activations"] = fs.activations
    return out


def golden_run(variant: str):
    """Train one variant; return (trained model, arrays keyed by name)."""
    config = model_config(variant)
    model, trace = train(generate(SERIES), config, TRAIN)
    out = {
        f"{variant}.losses": np.array(
            [[r.total_loss, r.rmse_term, r.nrmse_term] for r in trace]),
        f"{variant}.histograms": np.array(
            [r.oracle_index_histogram for r in trace]),
        f"{variant}.parameter_sha256": np.array(parameter_digest(model)),
    }
    out.update(prediction_arrays(model, config, variant))
    return model, out


def main(variants: list[str]) -> None:
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        raise SystemExit(f"unknown variants {unknown}; expected some of {VARIANTS}")
    kept = {}
    if variants:
        with np.load(GOLDEN_NPZ) as npz:
            kept = {key: npz[key] for key in npz.files}
    arrays = {}
    for variant in VARIANTS:
        if variants and variant not in variants:
            arrays.update((key, value) for key, value in kept.items()
                          if key.startswith(variant + "."))
            continue
        model, out = golden_run(variant)
        arrays.update(out)
        if variant == "full":
            shutil.rmtree(GOLDEN_CHECKPOINT, ignore_errors=True)
            persistence.save(model, GOLDEN_CHECKPOINT,
                             training_seed=TRAIN.seed)
    np.savez_compressed(GOLDEN_NPZ, **arrays)


if __name__ == "__main__":
    main(sys.argv[1:])
