"""The A/B tool's summary of its rounds (``tools/ab.py``)."""

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _row(predict_ms, windows_per_s, failed=0):
    return {"predict_ms_p50": predict_ms, "evaluate_windows_per_s": windows_per_s,
            "failed": failed, "attempted": 100}


def test_summary_reports_quartiles_and_rounds_won():
    rows = {"parent": [_row(0.40, 3000), _row(0.50, 3100), _row(0.60, 3200),
                       _row(0.45, 3000)],  # a round cut short is left out
            "change": [_row(0.30, 3000), _row(0.35, 2900), _row(0.62, 3300, failed=1)]}
    lines = [ab.summarize(name, better, {side: [row[name] for row in rows[side]]
                                         for side in ab.SIDES})
             for name, better in (("predict_ms_p50", "lower"),
                                  ("evaluate_windows_per_s", "higher"))]
    assert lines + ab.operations(rows) == [
        # inclusive quartiles; the ratios' median is 0.75, the medians' ratio 0.7
        "predict_ms_p50: parent 0.5 [0.45, 0.55]  change 0.35 [0.325, 0.485]"
        "  change won 2/3  change / parent median 0.750 (min 0.700, max 1.033)",
        "evaluate_windows_per_s: parent 3100 [3050, 3150]  change 3000 [2950, 3150]"
        "  change won 1/3"  # a tie counts for neither side
        "  change / parent median 1.000 (min 0.935, max 1.031)",
        "parent: 0 failed of 300 operations",
        "change: 1 failed of 300 operations",
    ]


def test_summary_of_no_complete_round():
    rows = {"parent": [_row(0.4, 3000)], "change": []}
    assert ab.summarize("predict_ms_p50", "lower",
                        {"parent": [0.4], "change": []}) == "predict_ms_p50: no complete round"
    assert ab.operations(rows) == ["parent: 0 failed of 0 operations",
                                   "change: 0 failed of 0 operations"]


def test_train_rounds_read_the_step_time_and_the_peak_of_one_traced_step(capsys):
    # both sides are this checkout; one round of full f=3 at batch 64
    assert ab.main([str(ab.ROOT), str(ab.ROOT), "train", "--rounds", "1",
                    "--variant", "full", "--f", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(line.split(": ", 1)[1]) for line in lines[:2]]
    assert [line.split(":")[0] for line in lines] == [
        "round 0 parent", "round 0 change", "train_ms", "step_peak_mb"]
    for row in rows:
        assert set(row) == {"train_ms", "step_peak_mb"}
        # an encoder block saves no im2col columns: about 29 MiB if it did
        assert 0 < row["step_peak_mb"] <= 17 and row["train_ms"] > 0
    assert not tracemalloc.is_tracing()


def test_tconv_train_rounds_peak_below_the_dense_decoder_backward(capsys):
    # tconv_decoder f=12 at batch 64; 22.6 MiB while the decoder's backward
    # held its dense layer outputs through the encoders' backward
    assert ab.main([str(ab.ROOT), str(ab.ROOT), "train", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[:2]:
        assert 0 < json.loads(line.split(": ", 1)[1])["step_peak_mb"] <= 18


def test_bits_mode_reads_no_difference_between_a_checkout_and_itself(capsys, monkeypatch):
    monkeypatch.setattr(ab, "BITS_MODEL", dict(n_p=16, n_h=16, n_s=4, channels=4))
    monkeypatch.setattr(ab, "BATCH_SIZE", 8)
    assert ab.main([str(ab.ROOT), str(ab.ROOT), "bits"]) == 0
    kernel, header, *rows, total = capsys.readouterr().out.splitlines()
    assert kernel.startswith("BLAS kernel: ") and header.split() == [
        "case", "arrays", "equal", "differ", "max", "rel", "dev"]
    assert [row.rsplit(None, 4)[0] for row in rows] == [
        f"{variant} f={f}" for variant, f in ab.BITS_CASES]
    for row in rows + [total]:
        arrays, equal, differ, worst = row.split()[-4:]
        assert int(arrays) == int(equal) > 0 and differ == worst == "0"


def test_bits_comparison_counts_each_kind_of_difference():
    a = np.array([1.0, -2.0, 4.0], np.float32)
    parent = {"same": a, "moved": a, "cast": a, "reshaped": a, "gone": a}
    change = {"same": a.copy(), "moved": a + np.float32([0, 0, 1e-3]),
              "cast": a.astype(np.float64), "reshaped": a[:2], "new": a}
    equal, differ, worst = ab.compare_bits(parent, change)
    assert (equal, differ) == (1, 5)
    assert worst == pytest.approx(1e-3 / 4, rel=1e-3)
    # a signed zero is a difference of bits, with no deviation
    assert ab.compare_bits({"z": np.zeros(1)}, {"z": -np.zeros(1)}) == (0, 1, 0.0)
