"""SHA-256 pins of the bytes the set-up path writes.

The generator's series, the CSV writer's files, the Monte-Carlo
continuations and the files ``predict`` writes are pinned here to the
digests they had before any of them was vectorized, so that a faster
implementation has to reproduce every byte.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from multifuture.cli import main
from multifuture.data import GeneratorConfig, generate, sample_continuations, save_csv

GOLDEN_CHECKPOINT = Path(__file__).resolve().parent / "fixtures" / "golden_full"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (1, "663d70de52e82cb2da097b910c7da1a9ea2d0beed2c0238c31f62d45c5cbe5bf"),
    (2, "630437cf6c9b0dd0d1c1e7c4de4e654028ada33631b528d66f07968a38064bc3"),
    (3, "b75653b470d7410f0edd7a758039c73b04e744096d3cb1b67a3cdd7d7e627828"),
])
def test_generated_csv_bytes(tmp_path, seed, digest):
    path = tmp_path / "series.csv"
    save_csv(generate(GeneratorConfig(n_hours=1512, seed=seed)), path)
    assert _sha256(path.read_bytes()) == digest


def test_continuation_bits():
    history, futures = sample_continuations(
        GeneratorConfig(seed=5, regime_switch_prob=0.5), 168, 24, 16)
    assert futures.shape == (16, 24, 4)
    assert _sha256(np.ascontiguousarray(history.values, "<f8").tobytes()) == (
        "1d4afc01617a0cb878dd1ee00e18b9b7a8a00f55566ff7b314f8d27252afa7e2")
    assert _sha256(np.ascontiguousarray(futures, "<f8").tobytes()) == (
        "c0ce2143dcd852e76897d335e24c6b43193a11bb17524396e9d4775a8c0e0118")


def test_predict_output_bytes(tmp_path):
    csv_path = tmp_path / "input.csv"
    save_csv(generate(GeneratorConfig(n_hours=96, seed=11)), csv_path)
    out = tmp_path / "predict"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", "--checkpoint", str(GOLDEN_CHECKPOINT),
                     "--input", str(csv_path), "--out", str(out)]) == 0
    assert _sha256((out / "futures.csv").read_bytes()) == (
        "06b44691149f80e134917b273443462b8a18a6484341ea181dff4b326b65ada1")
    assert _sha256((out / "activations.csv").read_bytes()) == (
        "ed734648e52eb95d4f71823ff51e612ac053fb8be67f4200a027d218017914de")
