"""Checkpoint round-trip, validation, and scoped bank loading."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from multifuture import model as model_module
from multifuture.model import (
    ExpertClassifier,
    Forecaster,
    ModelConfig,
    count_parameters,
    shape_decoder_forward,
)
from multifuture.persistence import (
    BLOB_NAME,
    CheckpointError,
    MANIFEST_NAME,
    _read_manifest,
    load,
    load_shape_banks,
    save,
    save_shape_banks,
)

CFG = ModelConfig(n_p=16, n_h=8, d=2, f=2, n_s=4, channels=8)
GOLDEN_CHECKPOINT = Path(__file__).parent / "fixtures" / "golden_full"


def _window(seed=0):
    return np.random.default_rng(seed).standard_normal((16, 2))


class TestRoundTrip:
    def test_save_load_save_bit_identical_blob(self, tmp_path):
        model = Forecaster(CFG, seed=1)
        first = tmp_path / "a"
        second = tmp_path / "b"
        save(model, first)
        save(load(first), second)
        assert (first / BLOB_NAME).read_bytes() == (second / BLOB_NAME).read_bytes()

    def test_predictions_bit_exact(self, tmp_path):
        model = Forecaster(CFG, seed=2)
        save(model, tmp_path / "ckpt")
        loaded = load(tmp_path / "ckpt")
        for seed in range(10):
            window = _window(seed)
            assert np.array_equal(model.predict_futures(window).futures,
                                  loaded.predict_futures(window).futures)

    def test_numpy_counts_round_trip(self, tmp_path):
        config = ModelConfig(**{k: np.int64(v) if isinstance(v, int) else v
                                for k, v in asdict(CFG).items()})
        model = Forecaster(config, seed=2)
        save(model, tmp_path / "ckpt", training_seed=np.int64(3))
        loaded = load(tmp_path / "ckpt")
        assert loaded.config == config == CFG
        assert _read_manifest(tmp_path / "ckpt").training_seed == 3
        window = _window()
        assert np.array_equal(model.predict_futures(window).futures,
                              loaded.predict_futures(window).futures)

    def test_manifest_parameter_count_matches(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_NAME).read_text())
        total = sum(int(np.prod(p["shape"])) for p in manifest["parameters"])
        assert total == count_parameters(model).total

    def test_blob_size_is_4n(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / BLOB_NAME).read_bytes()
        assert len(blob) == 4 * count_parameters(model).total

    def test_expert_classifier_round_trip(self, tmp_path):
        clf = ExpertClassifier(CFG, seed=3)
        save(clf, tmp_path / "expert")
        loaded = load(tmp_path / "expert")
        assert isinstance(loaded, ExpertClassifier)
        window = _window(4)
        assert np.array_equal(clf.predict_proba(window),
                              loaded.predict_proba(window))

    def test_load_draws_nothing_and_copies_the_blob(self, tmp_path, monkeypatch):
        models = [Forecaster(CFG, seed=1),
                  Forecaster(replace(CFG, n_h=16, variant="tconv_decoder"), seed=1),
                  ExpertClassifier(CFG, seed=2)]
        for i, model in enumerate(models):
            save(model, tmp_path / str(i))

        def no_draws(*args):
            raise AssertionError("load asked for fresh random weights")

        monkeypatch.setattr(model_module, "initializer", no_draws)
        for i, model in enumerate(models):
            loaded = load(tmp_path / str(i))
            assert type(loaded) is type(model)
            for (name, t), (loaded_name, u) in zip(
                    model.named_tensors(), loaded.named_tensors(), strict=True):
                assert name == loaded_name
                assert np.array_equal(t.data, u.data)
            for t, u in zip(model.parameters(), loaded.parameters(), strict=True):
                assert np.array_equal(t.data, u.data)
                # a fresh float32 array: writable, not a view of the blob
                assert u.data.dtype == np.float32 and u.requires_grad
                assert u.data.flags.writeable and u.data.base is None

    def test_golden_checkpoint_resaves_to_its_bytes(self, tmp_path):
        def manifest_lines(directory):
            return [line for line in (directory / MANIFEST_NAME).read_text().splitlines()
                    if '"created_utc"' not in line]

        stored = json.loads((GOLDEN_CHECKPOINT / MANIFEST_NAME).read_text())
        save(load(GOLDEN_CHECKPOINT), tmp_path,
             training_seed=stored["training_seed"])
        assert manifest_lines(tmp_path) == manifest_lines(GOLDEN_CHECKPOINT)
        assert ((tmp_path / BLOB_NAME).read_bytes()
                == (GOLDEN_CHECKPOINT / BLOB_NAME).read_bytes())

    def test_tconv_checkpoint_pinned(self, tmp_path):
        # blob bytes and manifest layout of a seed-0 tconv_decoder f=3
        # checkpoint, pinned before its decoder layers were stacked
        config = replace(CFG, f=3, n_h=16, variant="tconv_decoder")
        save(Forecaster(config, seed=0), tmp_path)
        layout = [(p["name"], p["shape"], p["offset_bytes"]) for p in
                  json.loads((tmp_path / MANIFEST_NAME).read_text())["parameters"]]
        assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == (
            "69339347cf3afb026de1de6f44152e86530dd04f78d1371a79c6d29cfc1041f5")
        assert hashlib.sha256((tmp_path / BLOB_NAME).read_bytes()).hexdigest() == (
            "55e9e553a99e6c64bdf8ee8a8a6a44f86d818ddb15e8cd616ec42a2dba7db572")

    @pytest.mark.parametrize("kind", ["forecaster", "expert_classifier",
                                      "shape_banks"])
    def test_manifest_bytes_equal_asdict_of_its_dataclass(self, tmp_path, kind):
        if kind == "expert_classifier":
            save(ExpertClassifier(CFG, seed=2), tmp_path, training_seed=3)
        elif kind == "shape_banks":
            save_shape_banks(Forecaster(CFG, seed=2), tmp_path)
        else:
            save(Forecaster(CFG, seed=2), tmp_path, training_seed=3)
        manifest = _read_manifest(tmp_path)
        assert manifest.kind == kind
        assert ((tmp_path / MANIFEST_NAME).read_text()
                == json.dumps(asdict(manifest), indent=2) + "\n")

    @pytest.mark.parametrize("variant", ["shared_encoder", "non_separated",
                                         "model_ensemble"])
    def test_variants_round_trip(self, tmp_path, variant):
        cfg = ModelConfig(n_p=16, n_h=8, d=2, f=2, n_s=4, channels=8,
                          variant=variant)
        model = Forecaster(cfg, seed=5)
        save(model, tmp_path / "v")
        loaded = load(tmp_path / "v")
        window = _window(1)
        assert np.array_equal(model.predict_futures(window).futures,
                              loaded.predict_futures(window).futures)


class TestValidation:
    def test_truncated_blob_reports_sizes(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        blob_path = tmp_path / "ckpt" / BLOB_NAME
        blob = blob_path.read_bytes()
        blob_path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match=r"truncated.*\d+ bytes"):
            load(tmp_path / "ckpt")

    def test_unknown_version_rejected(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format_version"):
            load(tmp_path / "ckpt")

    def test_shape_field_corruption_detected(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["parameters"][3]["shape"][0] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load(tmp_path / "ckpt")

    def test_every_single_byte_shape_corruption_detected(self, tmp_path):
        # flip each digit character of each shape field in turn
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        original = manifest_path.read_text()
        manifest = json.loads(original)
        for p_idx, entry in enumerate(manifest["parameters"]):
            for s_idx in range(len(entry["shape"])):
                corrupted = json.loads(original)
                corrupted["parameters"][p_idx]["shape"][s_idx] += 1
                manifest_path.write_text(json.dumps(corrupted))
                with pytest.raises(CheckpointError):
                    load(tmp_path / "ckpt")
        manifest_path.write_text(original)
        load(tmp_path / "ckpt")  # restored manifest still loads

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load(tmp_path)

    @pytest.mark.parametrize("corrupt,field", [
        (lambda m: m["config"].update(extra=1), "extra"),
        (lambda m: m["config"].update(n_p="16"), "n_p"),
        (lambda m: m.pop("config"), "config"),
        (lambda m: m.pop("parameters"), "parameters"),
        (lambda m: m["parameters"][2].pop("name"), "name"),
    ], ids=["extra_config_key", "string_n_p", "no_config", "no_parameters",
            "entry_without_name"])
    def test_malformed_manifest_names_the_field(self, tmp_path, corrupt, field):
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        corrupt(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            load(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit,message", [
        ({"f": 1}, "'shape_decoder1.regressor0.weight' is not part of the full "
                   "architecture"),
        ({"f": 3}, "no parameter 'shape_decoder2.regressor0.weight'"),
        ({"n_s": 5}, r"'shape_decoder0.regressor0.weight' has shape \(4, 8\), "
                     r"expected \(5, 8\)"),
    ], ids=["fewer_futures", "more_futures", "more_templates"])
    def test_edited_config_names_the_parameter(self, tmp_path, edit, message):
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(edit)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=message):
            load(tmp_path / "ckpt")

    def test_top_level_variant_must_match_config(self, tmp_path):
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["variant"] = "model_ensemble"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="variant 'model_ensemble' "
                                                  "contradicts config.variant 'full'"):
            load(tmp_path / "ckpt")
        manifest["variant"] = ""  # the field is optional
        manifest_path.write_text(json.dumps(manifest))
        assert load(tmp_path / "ckpt").config == CFG

    def test_inflated_channels_rejected_before_allocation(self, tmp_path):
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["channels"] = 600
        manifest_path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError,
                               match=r"'shape_encoder.conv0.weight' has shape "
                                     r"\(8, 2, 3\), expected \(600, 2, 3\)"):
                load(tmp_path / "ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_even_kernel_rejected(self, tmp_path):
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["kernel"] = 4
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError,
                           match="manifest.config: kernel must be odd, got 4"):
            load(tmp_path / "ckpt")

    def test_non_finite_parameter_named(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_NAME).read_text())
        entry = manifest["parameters"][3]
        blob_path = tmp_path / "ckpt" / BLOB_NAME
        blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4").copy()
        blob[entry["offset_bytes"] // 4 + 1] = np.nan
        blob_path.write_bytes(blob.tobytes())
        with pytest.raises(CheckpointError,
                           match=f"'{entry['name']}' holds non-finite"):
            load(tmp_path / "ckpt")

    def test_float64_model_not_saved(self, tmp_path):
        model = Forecaster(CFG, seed=0, dtype=np.float64)
        with pytest.raises(CheckpointError, match="float64.*float32"):
            save(model, tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

    def test_offset_gap_rejected(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["parameters"][1]["offset_bytes"] += 4
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="contiguous"):
            load(tmp_path / "ckpt")

    def test_duplicate_parameter_name_rejected(self, tmp_path):
        # The repeated entry's bytes are appended, so offsets and the blob
        # length stay consistent; only the repeated name is wrong.
        save(Forecaster(CFG, seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_NAME
        blob_path = tmp_path / "ckpt" / BLOB_NAME
        manifest = json.loads(manifest_path.read_text())
        blob = blob_path.read_bytes()
        first = dict(manifest["parameters"][0], offset_bytes=len(blob))
        manifest["parameters"].append(first)
        manifest_path.write_text(json.dumps(manifest))
        blob_path.write_bytes(
            blob + np.full(int(np.prod(first["shape"])), 7.0, "<f4").tobytes())
        with pytest.raises(CheckpointError,
                           match=f"'{first['name']}' is listed twice"):
            load(tmp_path / "ckpt")


class TestShapeBankFiles:
    def test_bank_load_replaces_banks_only(self, tmp_path):
        donor = Forecaster(CFG, seed=10)
        receiver = Forecaster(CFG, seed=20)
        window = _window(0)
        before = receiver.predict_futures(window)

        save_shape_banks(donor, tmp_path / "banks")
        load_shape_banks(receiver, tmp_path / "banks")

        donor_banks = [b.data for _, b in donor.shape_banks()]
        receiver_banks = [b.data for _, b in receiver.shape_banks()]
        for a, b in zip(donor_banks, receiver_banks):
            assert np.array_equal(a, b)
        # non-bank parameters untouched: encoder output identical
        after = receiver.predict_futures(window)
        np.testing.assert_array_equal(before.activations, after.activations)

    @pytest.mark.parametrize("variant", ["full", "model_ensemble"])
    def test_loaded_banks_are_the_banks_the_model_mixes(self, tmp_path, variant):
        config = replace(CFG, f=3, variant=variant)
        donor = Forecaster(config, seed=10)
        save_shape_banks(donor, tmp_path / "banks")
        stored = [bank.data.astype(np.float64) for _, bank in donor.shape_banks()]
        receiver = Forecaster(config, seed=20)
        load_shape_banks(receiver, tmp_path / "banks")
        h = np.random.default_rng(0).standard_normal(config.channels)

        def assert_mixes_stored_banks(model):
            for i in range(config.f):
                alpha, r = shape_decoder_forward(model, h, i)
                for j in range(config.d):
                    np.testing.assert_allclose(
                        alpha[j], r[j] @ stored[i * config.d + j], rtol=1e-5, atol=1e-6)

        assert_mixes_stored_banks(receiver)
        save(receiver, tmp_path / "ckpt")
        assert_mixes_stored_banks(load(tmp_path / "ckpt"))

    def test_bank_file_rejected_by_plain_load(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save_shape_banks(model, tmp_path / "banks")
        with pytest.raises(CheckpointError, match="shape-bank"):
            load(tmp_path / "banks")

    def test_unknown_bank_rejected(self, tmp_path):
        save_shape_banks(Forecaster(CFG, seed=0), tmp_path / "banks")
        smaller = Forecaster(ModelConfig(n_p=16, n_h=8, d=2, f=1, n_s=4,
                                         channels=8), seed=0)
        with pytest.raises(CheckpointError,
                           match="no shape bank named 'shape_decoder1.bank0.weight'"):
            load_shape_banks(smaller, tmp_path / "banks")

    def test_bank_shape_mismatch_rejected(self, tmp_path):
        save_shape_banks(Forecaster(CFG, seed=0), tmp_path / "banks")
        wider = Forecaster(ModelConfig(n_p=16, n_h=8, d=2, f=2, n_s=5,
                                       channels=8), seed=0)
        with pytest.raises(CheckpointError, match=r"bank0.weight' has shape \(4, 8\)"):
            load_shape_banks(wider, tmp_path / "banks")

    def test_failed_bank_load_changes_no_bank(self, tmp_path):
        # The last bank's shape is transposed: same byte count, wrong shape.
        save_shape_banks(Forecaster(CFG, seed=10), tmp_path / "banks")
        manifest_path = tmp_path / "banks" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["parameters"][-1]["shape"].reverse()
        manifest_path.write_text(json.dumps(manifest))
        receiver = Forecaster(CFG, seed=20)
        before = [bank.data.copy() for _, bank in receiver.shape_banks()]
        with pytest.raises(CheckpointError, match=r"has shape \(8, 4\)"):
            load_shape_banks(receiver, tmp_path / "banks")
        for old, (_, bank) in zip(before, receiver.shape_banks()):
            assert np.array_equal(old, bank.data)

    def test_model_checkpoint_rejected_by_bank_load(self, tmp_path):
        model = Forecaster(CFG, seed=0)
        save(model, tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="shape_banks"):
            load_shape_banks(model, tmp_path / "ckpt")
