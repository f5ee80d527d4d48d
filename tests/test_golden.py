"""Bit-exact comparison against the committed golden fixture.

The fixture (``tests/fixtures/golden.npz`` and ``golden_full/``) was made by
``tests/fixtures/make_golden.py``.  Any change to what training or
prediction computes, however small, fails here; there is no tolerance.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from multifuture import persistence
from multifuture.model import VARIANTS

_PATH = Path(__file__).resolve().parent / "fixtures" / "make_golden.py"
_SPEC = importlib.util.spec_from_file_location("make_golden", _PATH)
make_golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(make_golden)


@pytest.fixture(scope="module")
def golden():
    with np.load(make_golden.GOLDEN_NPZ) as npz:
        return {key: npz[key] for key in npz.files}


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matches_golden(golden, variant):
    _, arrays = make_golden.golden_run(variant)
    expected = {k: v for k, v in golden.items() if k.startswith(variant + ".")}
    assert sorted(arrays) == sorted(expected)
    for key, value in arrays.items():
        assert np.array_equal(value, expected[key]), key


def test_golden_checkpoint_loads_bit_exact(golden):
    model = persistence.load(make_golden.GOLDEN_CHECKPOINT)
    manifest = json.loads(
        (make_golden.GOLDEN_CHECKPOINT / persistence.MANIFEST_NAME).read_text())
    names = [name for name, _ in model.named_tensors()]
    assert names == [entry["name"] for entry in manifest["parameters"]]
    assert make_golden.parameter_digest(model) == str(
        golden["full.parameter_sha256"])
    predictions = make_golden.prediction_arrays(
        model, make_golden.model_config("full"), "full")
    for key, value in predictions.items():
        assert np.array_equal(value, golden[key]), key


def test_make_golden_regenerates_only_named_variants(tmp_path, monkeypatch):
    committed = make_golden.GOLDEN_NPZ
    npz = tmp_path / "golden.npz"
    npz.write_bytes(committed.read_bytes())
    monkeypatch.setattr(make_golden, "GOLDEN_NPZ", npz)
    monkeypatch.setattr(make_golden, "GOLDEN_CHECKPOINT", tmp_path / "golden_full")
    monkeypatch.setattr(make_golden, "golden_run",
                        lambda variant: (None, {f"{variant}.losses": np.zeros(2)}))
    make_golden.main(["one_loss"])
    with np.load(committed) as before, np.load(npz) as after:
        kept = [key for key in before.files if not key.startswith("one_loss.")]
        assert sorted(after.files) == sorted(kept + ["one_loss.losses"])
        for key in kept:
            assert after[key].dtype == before[key].dtype
            assert np.array_equal(after[key], before[key]), key
        assert np.array_equal(after["one_loss.losses"], np.zeros(2))
    assert not (tmp_path / "golden_full").exists()
    with pytest.raises(SystemExit, match="unknown"):
        make_golden.main(["nope"])
