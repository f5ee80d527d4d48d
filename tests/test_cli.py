"""End-to-end CLI tests: every command on a desk-scale configuration."""

import csv
import json
import os
import re

import pytest

from multifuture.cli import main
from multifuture.data import load_csv

SMALL_CONFIG = {
    "model": {"n_p": 48, "n_h": 24, "d": 4, "f": 2, "n_s": 8, "channels": 16},
    "train": {"n_iter": 30, "batch_size": 16, "seed": 0},
    "generator": {"n_hours": 720, "seed": 0},
    "paths": {},
    "split": {"train_hours": 552},
    "data": {"merchants": 2, "merchant": "merchant_0000"},
}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = dict(SMALL_CONFIG)
    config["paths"] = {"data_dir": str(tmp_path / "data"),
                       "checkpoint_dir": str(tmp_path / "run"),
                       "report_dir": str(tmp_path / "report")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return tmp_path, str(path)


def _generate(workdir):
    tmp_path, config = workdir
    assert main(["generate", "--config", config]) == 0
    return tmp_path / "data"


class TestGenerate:
    def test_writes_csvs_and_manifest(self, workdir):
        data_dir = _generate(workdir)
        files = sorted(os.listdir(data_dir))
        assert "merchant_0000.csv" in files
        assert "merchant_0001.csv" in files
        assert "dataset_manifest.json" in files
        manifest = json.loads((data_dir / "dataset_manifest.json").read_text())
        assert len(manifest["files"]) == 2
        assert manifest["files"][1]["seed"] == 1

    def test_manifest_bytes(self, workdir):
        data_dir = _generate(workdir)
        expected = {
            "files": [
                {"merchant_id": "merchant_0000", "file": "merchant_0000.csv",
                 "seed": 0},
                {"merchant_id": "merchant_0001", "file": "merchant_0001.csv",
                 "seed": 1},
            ],
            "generator": {
                "n_hours": 720, "seed": 0, "daily_amp": 0.6,
                "weekly_amp": 0.25, "noise_std": 0.05,
                "regimes": [{"amplitude": 1.0, "phase_hours": 0.0},
                            {"amplitude": 2.0, "phase_hours": 6.0}],
                "regime_switch_prob": 0.3,
                "base_levels": [1.5, 0.7, 1.0, 0.9],
                "merchant_id": "merchant_0000",
            },
        }
        assert (data_dir / "dataset_manifest.json").read_text() \
            == json.dumps(expected, indent=2) + "\n"

    def test_rerun_byte_identical(self, workdir):
        tmp_path, config = workdir
        main(["generate", "--config", config])
        first = (tmp_path / "data" / "merchant_0000.csv").read_bytes()
        main(["generate", "--config", config])
        assert (tmp_path / "data" / "merchant_0000.csv").read_bytes() == first

    def test_generated_files_pass_validation(self, workdir):
        data_dir = _generate(workdir)
        series = load_csv(data_dir / "merchant_0000.csv")
        series.validate()
        assert len(series) == 720

    def test_bad_config_key_rejected(self, workdir):
        tmp_path, config = workdir
        payload = json.loads(open(config).read())
        payload["generator"]["typo_key"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["generate", "--config", str(bad)]) == 1


class TestTrain:
    def test_writes_checkpoint_trace_and_summary(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        assert main(["train", "--config", config]) == 0
        run = tmp_path / "run"
        assert (run / "checkpoint" / "manifest.json").exists()
        assert (run / "checkpoint" / "params.f32").exists()
        assert (run / "effective_config.json").exists()
        summary = json.loads((run / "run_summary.json").read_text())
        assert summary["iterations"] == 30
        assert summary["parameter_count"]["total"] > 0
        with open(run / "loss_trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "total", "rmse", "nrmse",
                           "oracle_histogram"]
        assert len(rows) == 31

    def test_one_loss_variant_echoes_gamma_zero(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        out = tmp_path / "oneloss"
        assert main(["train", "--config", config, "--variant", "one_loss",
                     "--out", str(out)]) == 0
        echoed = json.loads((out / "effective_config.json").read_text())
        assert echoed["train"]["gamma"] == 0.0
        assert echoed["model"]["variant"] == "one_loss"

    def test_futures_flag_changes_decoder_count(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        totals = {}
        for f in (2, 4):
            out = tmp_path / f"f{f}"
            assert main(["train", "--config", config, "--futures", str(f),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "run_summary.json").read_text())
            totals[f] = summary["parameter_count"]
        per_decoder = (totals[4]["decoder"] - totals[2]["decoder"]) // 2
        assert totals[4]["decoder"] == totals[2]["decoder"] + 2 * per_decoder
        assert totals[4]["encoder"] == totals[2]["encoder"]

    def test_missing_data_fails_nonzero(self, workdir):
        _, config = workdir
        assert main(["train", "--config", config]) == 1

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "--baseline", "nn"],
                                         ["ablate"]], ids=["train", "evaluate", "ablate"])
    def test_rejected_input_creates_no_output_directory(self, workdir, capsys, command):
        tmp_path, config = workdir
        out = tmp_path / "out"
        assert main([*command, "--config", config, "--out", str(out)]) == 1
        assert "error: no data for 'merchant_0000'" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateAndPredict:
    @pytest.fixture()
    def trained(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        main(["train", "--config", config])
        return tmp_path, config, str(tmp_path / "run" / "checkpoint")

    def test_evaluate_outputs(self, trained):
        tmp_path, config, checkpoint = trained
        assert main(["evaluate", "--config", config,
                     "--checkpoint", checkpoint]) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["f"] == 2
        assert report["n_windows"] == 7
        with open(tmp_path / "report" / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 7 * 24  # windows x n_h
        header = rows[0]
        assert header[:2] == ["window", "hour"]
        assert "approved_count_truth" in header
        assert "approved_count_future_2" in header

    def test_evaluate_rejects_checkpoint_with_baseline(self, workdir, capsys):
        tmp_path, config = workdir
        out = tmp_path / "both"
        assert main(["evaluate", "--config", config, "--checkpoint",
                     str(tmp_path / "run" / "checkpoint"), "--baseline", "nn",
                     "--out", str(out)]) == 1
        assert ("error: evaluate needs exactly one of --checkpoint and --baseline"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_baseline_reports_same_schema(self, trained):
        tmp_path, config, _ = trained
        for name in ("nn", "ridge"):
            out = tmp_path / f"report_{name}"
            assert main(["evaluate", "--config", config, "--baseline", name,
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["f"] == 1
            assert report["oracle_rmse"] == pytest.approx(report["rmse"])

    def test_predict_outputs_reconstruct(self, trained):
        tmp_path, config, checkpoint = trained
        input_csv = tmp_path / "data" / "merchant_0000.csv"
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", checkpoint,
                     "--input", str(input_csv), "--out", str(out)]) == 0
        with open(out / "futures.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4 * 24  # f x d x n_h
        for row in rows:
            value = float(row["value"])
            rebuilt = (float(row["scale_mul"]) * float(row["shape"])
                       + float(row["scale_add"]))
            assert value == pytest.approx(rebuilt, abs=1e-6)
        with open(out / "activations.csv") as fh:
            act_rows = list(csv.DictReader(fh))
        assert len(act_rows) == 2 * 4  # f x d
        for row in act_rows:
            weights = [float(v) for k, v in row.items() if k.startswith("r_")]
            assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    def test_predict_needs_enough_history(self, trained, capsys):
        tmp_path, config, checkpoint = trained
        short = tmp_path / "short.csv"
        full = (tmp_path / "data" / "merchant_0000.csv").read_text().splitlines()
        short.write_text("\n".join(full[:20]) + "\n")
        capsys.readouterr()
        assert main(["predict", "--checkpoint", checkpoint,
                     "--input", str(short), "--out", str(tmp_path / "p2")]) == 1
        assert (f"error: {short} has 19 hours; the checkpoint needs at least "
                "n_p = 48") in capsys.readouterr().err
        assert not (tmp_path / "p2").exists()
        assert main(["predict", "--checkpoint", checkpoint, "--input",
                     str(tmp_path / "missing.csv"), "--out", str(tmp_path / "p3")]) == 1
        assert not (tmp_path / "p3").exists()

    def test_predict_with_expert_probabilities(self, trained):
        tmp_path, config, checkpoint = trained
        from multifuture import load, load_csv, save, train_expert
        from multifuture.training import TrainConfig

        model = load(checkpoint)
        series = load_csv(tmp_path / "data" / "merchant_0000.csv")
        clf = train_expert(series, model, train_config=TrainConfig(
            n_iter=5, batch_size=8, seed=0))
        save(clf, tmp_path / "expert")
        out = tmp_path / "pred_expert"
        assert main(["predict", "--checkpoint", checkpoint,
                     "--input", str(tmp_path / "data" / "merchant_0000.csv"),
                     "--expert", str(tmp_path / "expert"),
                     "--out", str(out)]) == 0
        with open(out / "expert_probabilities.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["future"] for r in rows] == ["1", "2"]
        total = sum(float(r["probability"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_predict_rejects_expert_of_another_config(self, trained, capsys):
        tmp_path, config, checkpoint = trained
        from dataclasses import replace

        from multifuture import ExpertClassifier, load, save

        other = replace(load(checkpoint).config, f=3)
        save(ExpertClassifier(other, seed=0), tmp_path / "expert_f3")
        out = tmp_path / "pred_mismatch"
        capsys.readouterr()
        assert main(["predict", "--checkpoint", checkpoint,
                     "--input", str(tmp_path / "data" / "merchant_0000.csv"),
                     "--expert", str(tmp_path / "expert_f3"),
                     "--out", str(out)]) == 1
        assert "f=3 (forecaster: 2)" in capsys.readouterr().err
        assert not (out / "futures.csv").exists()

    def test_train_artifacts_deterministic(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        assert main(["train", "--config", config, "--out", str(out_a)]) == 0
        assert main(["train", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "loss_trace.csv").read_bytes() \
            == (out_b / "loss_trace.csv").read_bytes()
        assert (out_a / "checkpoint" / "params.f32").read_bytes() \
            == (out_b / "checkpoint" / "params.f32").read_bytes()
        assert (out_a / "effective_config.json").read_bytes() \
            == (out_b / "effective_config.json").read_bytes()


class TestAblate:
    def test_five_variant_rows(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        payload = json.loads(open(config).read())
        payload["train"]["n_iter"] = 4
        payload["model"]["n_h"] = 24
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(payload))
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(fast), "--out", str(out)]) == 0
        with open(out / "comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["model_id"] for r in rows] == [
            "full", "non_separated", "shared_encoder", "one_loss",
            "tconv_decoder"]

    def test_scalability_sweep(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        payload = json.loads(open(config).read())
        payload["train"]["n_iter"] = 2
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(payload))
        out = tmp_path / "scal"
        assert main(["ablate", "--config", str(fast), "--scalability",
                     "--out", str(out)]) == 0
        with open(out / "scalability.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 2 schemes x f in {1, 3, 12}
        full = {int(r["f"]): r for r in rows if r["scheme"] == "full"}
        ens = {int(r["f"]): r for r in rows if r["scheme"] == "model_ensemble"}
        # decoder parameters linear in f for both schemes
        for scheme in (full, ens):
            d1, d3, d12 = (int(scheme[f]["params_decoder"]) for f in (1, 3, 12))
            per_decoder = (d3 - d1) // 2
            assert d3 == d1 + 2 * per_decoder
            assert d12 == d1 + 11 * per_decoder
        for f in (3, 12):
            assert int(full[f]["params_total"]) < int(ens[f]["params_total"])


class TestConfigValidation:
    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": {}}))
        assert main(["generate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("section,key,value,message", [
        ("generator", "regimes", 5, "config.generator field 'regimes' must be a list"),
        ("generator", "base_levels", 5,
         "config.generator field 'base_levels' must be a list"),
        ("model", "f", 3.5, "config.model field 'f' must be an integer"),
        ("train", "n_iter", 2.5, "config.train field 'n_iter' must be an integer"),
        ("generator", "n_hours", 1000.0,
         "config.generator field 'n_hours' must be an integer"),
        ("split", "warmup_hours", "a", "config.split has unknown field 'warmup_hours'"),
        ("train", "znorm_epsilon", 1e-8, "config.train has unknown field 'znorm_epsilon'"),
        ("paths", "data_dir", 5, "config.paths field 'data_dir' must be a string"),
        ("generator", "regimes", [{"amplitude": 1}, {"amplitude": "x"}],
         r"config.generator.regimes\[1\] field 'amplitude' must be a finite number"),
        ("train", "learning_rate", -0.001,
         "config.train: learning_rate must be positive, got -0.001"),
        ("train", "learning_rate", 0.0,
         "config.train: learning_rate must be positive, got 0.0"),
        ("train", "gamma", -1.0, "config.train: gamma must be >= 0, got -1.0"),
    ])
    def test_wrongly_typed_value_names_the_field(self, workdir, capsys, section,
                                                 key, value, message):
        tmp_path, config = workdir
        payload = json.loads(open(config).read())
        payload[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train", "--config", str(bad)]) == 1
        assert re.search(f"error: {message}", capsys.readouterr().err)

    @staticmethod
    def _train_on_manifest(workdir, capsys, manifest: str) -> list[str]:
        """``main train``'s stderr lines in category scope, after writing
        ``manifest`` as the generated data's dataset manifest."""
        tmp_path, config = workdir
        data_dir = _generate(workdir)
        (data_dir / "dataset_manifest.json").write_text(manifest)
        payload = json.loads(open(config).read())
        payload["data"]["scope"] = "category"
        category = tmp_path / "category.json"
        category.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["train", "--config", str(category)]) == 1
        return capsys.readouterr().err.splitlines()

    def test_dataset_manifest_without_files(self, workdir, capsys):
        assert "error: dataset_manifest field 'files' is missing" \
            in self._train_on_manifest(workdir, capsys, '{"generator": {}}')

    def test_dataset_manifest_listing_no_files(self, workdir, capsys):
        assert self._train_on_manifest(workdir, capsys, '{"files": [], "generator": {}}') \
            == ["error: dataset_manifest: files lists no merchant"]

    def test_even_kernel_rejected(self, workdir, capsys):
        tmp_path, config = workdir
        _generate(workdir)
        payload = json.loads(open(config).read())
        payload["model"].update(kernel=4, variant="tconv_decoder")
        bad = tmp_path / "even_kernel.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["train", "--config", str(bad)]) == 1
        assert "error: config.model: kernel must be odd, got 4" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["evaluate", "--baseline", "ridge"]],
                             ids=["train", "evaluate_baseline"])
    def test_model_d_must_match_the_csv(self, workdir, capsys, command):
        tmp_path, config = workdir
        data_dir = _generate(workdir)
        payload = json.loads(open(config).read())
        payload["model"]["d"] = 3
        bad = tmp_path / "d3.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main([*command, "--config", str(bad)]) == 1
        assert (f"error: config.model.d is 3 but {data_dir / 'merchant_0000.csv'} "
                "has 4 features") in capsys.readouterr().err
        assert not (tmp_path / "report" / "report.json").exists()

    def test_integer_in_float_field_trains_identically(self, workdir):
        tmp_path, config = workdir
        _generate(workdir)
        payload = json.loads(open(config).read())
        traces = []
        for gamma in (1.0, 1):
            payload["train"]["gamma"] = gamma
            path = tmp_path / "gamma.json"
            path.write_text(json.dumps(payload))
            out = tmp_path / f"gamma_{type(gamma).__name__}"
            assert main(["train", "--config", str(path), "--out", str(out)]) == 0
            traces.append((out / "loss_trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_missing_config_file(self):
        assert main(["generate", "--config", "/nonexistent/c.json"]) == 1

    def test_env_var_data_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MULTIFUTURE_DATA_ROOT", str(tmp_path / "envdata"))
        config = dict(SMALL_CONFIG)
        config["paths"] = {}
        config["data"] = {"merchants": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main(["generate", "--config", str(path)]) == 0
        assert (tmp_path / "envdata" / "merchant_0000.csv").exists()
