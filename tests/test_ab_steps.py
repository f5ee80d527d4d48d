"""The in-process A/B timer's summary of its rounds (``tools/ab_steps.py``)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_steps.py"
_SPEC = importlib.util.spec_from_file_location("ab_steps", _PATH)
ab_steps = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_steps)


def test_summary_reports_medians_and_the_median_ratio():
    times = {"parent": [0.100, 0.080, 0.120, 0.090],
             "change": [0.090, 0.080, 0.096, 0.099, 0.050]}  # a round cut short
    assert ab_steps.summarize(times) == [
        "4 rounds",
        "parent: median 95 ms",
        "change: median 93 ms",
        # ratios 0.9, 1.0, 0.8, 1.1: the median of the ratios, not of the
        # medians' ratio
        "change / parent: median 0.950 (min 0.800, max 1.100)",
    ]
