"""The A/B driver's summary of logged benchmark runs (``tools/ab_pairs.py``)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "predict_ms_p50", "better": "lower"},
              {"name": "evaluate_windows_per_s", "better": "higher"}]


def _line(side, pair, predict_ms, windows_per_s, failed=0):
    return {"side": side, "pair": pair, "seed": 7 + pair, "result": {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"predict_ms_p50": {"value": predict_ms, "unit": "ms"},
                    "evaluate_windows_per_s": {"value": windows_per_s, "unit": "1/s"}}}}


def test_summary_reports_quartiles_and_pairs_won():
    lines = [_line("parent", 0, 0.40, 3000), _line("change", 0, 0.30, 3000),
             _line("change", 1, 0.35, 2900), _line("parent", 1, 0.50, 3100),
             _line("parent", 2, 0.60, 3200), _line("change", 2, 0.62, 3300, failed=1),
             _line("parent", 3, 0.45, 3000)]  # a pair cut short is left out
    assert ab_pairs.summarize(lines, END_TO_END) == [
        "3 complete pairs",
        "predict_ms_p50: parent 0.5 [0.45, 0.55]  change 0.35 [0.325, 0.485]"
        "  change won 2/3",
        "evaluate_windows_per_s: parent 3100 [3050, 3150]  change 3000 [2950, 3150]"
        "  change won 1/3",  # a tie counts for neither side
        "parent: 0 failed of 300 operations",
        "change: 1 failed of 300 operations",
    ]


def test_summary_of_no_complete_pair():
    assert ab_pairs.summarize([_line("parent", 0, 0.4, 3000)], END_TO_END) == [
        "0 complete pairs",
        "parent: 0 failed of 0 operations",
        "change: 0 failed of 0 operations",
    ]
