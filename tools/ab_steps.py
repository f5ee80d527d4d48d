"""In-process A/B timing of two checkouts, alternated round by round.

Usage, from anywhere::

    python3 tools/ab_steps.py PARENT CHANGE train [--variant V] [--f F]
    python3 tools/ab_steps.py PARENT CHANGE predict --windows 28
    python3 tools/ab_steps.py PARENT CHANGE evaluate

Each checkout's ``src/multifuture`` is linked into a temporary directory
under its own package name (``ab_parent``, ``ab_change``) and both are
imported into this one process.  A round times each side once, and the
side that runs first flips every round, so a slow phase of the machine
hits both sides alike; process-level pairs (``tools/ab_pairs.py``) cannot
share a phase that way.  What a round times:

``train``     one public ``train`` call of ``ITERS`` + 1 iterations at
              batch 64, timed per iteration through its ``progress``
              callback; the first iteration is dropped and the round reads
              the median of the rest.
``predict``   the median of ``CALLS`` ``predict_batch`` calls on a stacked
              copy of the first ``--windows`` windows of the held-out span.
``evaluate``  one ``evaluate_rolling`` call over the held-out span.

The held-out span is the benchmark's (``perfbench/workloads.py``): the
series after ``TRAIN_HOURS``, split by ``data.split_by_date`` with a
``WARMUP_HOURS`` warm-up, which gives 28 rolling windows at the default
horizons.

Each side builds its own series and untrained model from seed ``SEED``
(the generator is bit-identical across checkouts that pin it).  The script
prints, per side, the median time, and the median over rounds of the
change's time divided by the parent's.  Pin the BLAS thread count in the
environment (for example ``OPENBLAS_NUM_THREADS=1``) as for any timing.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SERIES_HOURS = 1512
TRAIN_HOURS = 840
WARMUP_HOURS = 168
BATCH_SIZE = 64
ITERS = 5  # timed training iterations a round
CALLS = 20  # predict_batch calls a round
SEED = 0


def import_checkouts(checkouts: dict[str, Path], links: Path) -> dict:
    """Each checkout's ``multifuture`` package, imported as ``ab_<side>``
    through a link in ``links``; the package imports itself relatively."""
    sys.path.insert(0, str(links))
    packages = {}
    for side, checkout in checkouts.items():
        (links / f"ab_{side}").symlink_to(checkout / "src" / "multifuture",
                                          target_is_directory=True)
        packages[side] = importlib.import_module(f"ab_{side}")
    return packages


def make_timer(mf, args):
    """A function that runs one round of ``args.mode`` on package ``mf`` and
    returns its time in seconds."""
    series = mf.data.generate(mf.data.GeneratorConfig(n_hours=SERIES_HOURS,
                                                      seed=SEED))
    config = mf.ModelConfig(variant=args.variant, f=args.f)
    train_split = series.values[:TRAIN_HOURS]
    if args.mode == "train":
        train_config = mf.TrainConfig(n_iter=ITERS + 1, batch_size=BATCH_SIZE,
                                      seed=SEED)

        def round_():
            stamps = [time.perf_counter()]
            mf.train(train_split, config, train_config,
                     lambda _: stamps.append(time.perf_counter()))
            return statistics.median(b - a for a, b in zip(stamps[1:], stamps[2:]))

        return round_
    model = mf.Forecaster(config, seed=SEED)
    boundary = series.start_timestamp + timedelta(hours=TRAIN_HOURS)
    test = mf.data.split_by_date(series, boundary, WARMUP_HOURS)[1]
    if args.mode == "evaluate":
        def round_():
            start = time.perf_counter()
            mf.evaluate_rolling(model, test, config.n_p, config.n_h)
            return time.perf_counter() - start

        return round_
    windows = np.stack([test.values[s:s + config.n_p] for s in range(args.windows)])

    def round_():
        times = []
        for _ in range(CALLS):
            start = time.perf_counter()
            model.predict_batch(windows)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return round_


def summarize(times: dict[str, list[float]]) -> list[str]:
    """Report lines for ``{side: [seconds per round]}``: each side's median
    in ms, then the median over rounds of change / parent."""
    rounds = min(len(times[side]) for side in SIDES)
    ratios = [c / p for p, c in zip(times["parent"][:rounds], times["change"][:rounds])]
    lines = [f"{rounds} rounds"]
    lines += [f"{side}: median {statistics.median(times[side][:rounds]) * 1e3:.4g} ms"
              for side in SIDES]
    lines.append(f"change / parent: median {statistics.median(ratios):.3f} "
                 f"(min {min(ratios):.3f}, max {max(ratios):.3f})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("mode", choices=("train", "predict", "evaluate"))
    parser.add_argument("--variant", default="tconv_decoder")
    parser.add_argument("--f", type=int, default=12)
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--windows", type=int, default=28, help="predict: batch size")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="ab_steps_") as links:
        packages = import_checkouts(checkouts, Path(links))
        timers = {side: make_timer(packages[side], args) for side in SIDES}
        for side in SIDES:  # warm both sides before the first timed round
            timers[side]()
        times = {side: [] for side in SIDES}
        for r in range(args.rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                times[side].append(timers[side]())
            print(f"round {r}: " + "  ".join(f"{side} {times[side][-1] * 1e3:.4g} ms"
                                             for side in SIDES), flush=True)
    print("\n".join(summarize(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
