"""A/B runs of two checkouts, alternated round by round.

Usage, from anywhere::

    python3 tools/ab.py PARENT CHANGE pairs WORKLOAD [--first-seed S]
    python3 tools/ab.py PARENT CHANGE train [--variant V] [--f F]   (default tconv_decoder, f=12)
    python3 tools/ab.py PARENT CHANGE predict [--windows W]
    python3 tools/ab.py PARENT CHANGE evaluate

Every mode runs ``--rounds`` rounds of :func:`alternate` and reports each
metric through :func:`summarize`.

``pairs WORKLOAD`` runs ``perfbench/run.py --workload WORKLOAD --seed S+r
--seconds T --trace 0`` in round ``r``, each side with its checkout's own
``perfbench/run.py``; ``T`` is ``BENCHMARK.json``'s ``run_seconds``.  It
appends every result line, with its side, round and seed, to
``.bench_out/ab.jsonl`` beside this file's checkout, reports each side's
failed and attempted operations (:func:`operations`), then the
end-to-end metrics of ``BENCHMARK.json``.

The other modes import both checkouts' ``src/multifuture`` into this one
process, as packages ``ab_parent`` and ``ab_change``, so a slow phase of
the machine hits both sides alike; separate processes cannot share a
phase that way.  Each side builds its own series and untrained model from
seed ``SEED`` (the generator is bit-identical across checkouts that pin
it) and runs once before the first round.  The two sides also share one
C allocator: settings one side makes (training pins glibc's mmap and
trim thresholds) hold for the other side too, and what one side frees
shapes the heap the other allocates from.  So judge memory, page faults
and any allocator effect with ``pairs``, whose sides are separate
processes.  A round reads, in ms:

``train``     one public ``train`` call of ``ITERS`` + 2 iterations at
              batch 64, timed per iteration through its ``progress``
              callback; the first iteration is dropped and the round reads
              the median of the next ``ITERS``.  The last iteration is
              untimed: ``tracemalloc`` traces it alone, and the round also
              reads its peak as ``step_peak_mb`` (MiB), the most memory the
              step allocated above what was in use just before it.
``predict``   the median of ``CALLS`` ``predict_batch`` calls on a stacked
              copy of the first ``--windows`` windows of the held-out span.
``evaluate``  one ``evaluate_rolling`` call over the held-out span.

The held-out span is the benchmark's (``perfbench/workloads.py``): the
series after ``TRAIN_HOURS``, split by ``data.split_by_date`` with a
``WARMUP_HOURS`` warm-up, which gives 28 rolling windows at the default
horizons.  Pin the BLAS thread count in the environment (for example
``OPENBLAS_NUM_THREADS=1``) as for any timing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".bench_out" / "ab.jsonl"
SIDES = ("parent", "change")
SERIES_HOURS = 1512
TRAIN_HOURS = 840
WARMUP_HOURS = 168
BATCH_SIZE = 64
ITERS = 5  # timed training iterations a round
CALLS = 20  # predict_batch calls a round
SEED = 0


def alternate(rounds: int, run) -> dict[str, list[dict]]:
    """``{side: [run(side, r) for each round r]}``: round ``r`` runs each
    side once, the parent first in even rounds and the change first in odd
    ones.  ``run`` returns a ``{metric: value}`` row, printed as it comes."""
    rows = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            rows[side].append(run(side, r))
            print(f"round {r} {side}: {json.dumps(rows[side][-1])}", flush=True)
    return rows


def _complete(rows: dict[str, list]) -> dict[str, list]:
    """Each side's values of the rounds both sides finished."""
    rounds = min(len(rows[side]) for side in SIDES)
    return {side: rows[side][:rounds] for side in SIDES}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(name: str, better: str, values: dict[str, list[float]]) -> str:
    """The report line of metric ``name`` for ``{side: [value per round]}``:
    each side's median [q1, q3], the rounds in which the change was better
    (``better`` is ``"higher"`` or ``"lower"``; ties count for neither
    side), and the median, min and max of the per-round change / parent
    ratios.  A round that only one side finished is left out."""
    parent, change = _complete(values).values()
    if not parent:
        return f"{name}: no complete round"
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change)]
    cells = ["{} {:.4g} [{:.4g}, {:.4g}]".format(side, *_quartiles(side_values))
             for side, side_values in zip(SIDES, (parent, change))]
    return (f"{name}: {'  '.join(cells)}  change won {won}/{len(parent)}  "
            f"change / parent median {statistics.median(ratios):.3f} "
            f"(min {min(ratios):.3f}, max {max(ratios):.3f})")


def operations(rows: dict[str, list[dict]]) -> list[str]:
    """Each side's failed and attempted operations over the rounds both
    sides finished, from ``pairs`` rows."""
    return [f"{side}: {sum(r['failed'] for r in side_rows)} failed of "
            f"{sum(r['attempted'] for r in side_rows)} operations"
            for side, side_rows in _complete(rows).items()]


def benchmark_row(side: str, r: int, checkout: Path, workload: str, seed: int,
                  seconds: int) -> dict:
    """The metrics' values and the failed and attempted operations of one
    untraced benchmark run of ``seconds`` in ``checkout``, logged as
    ``side``'s run in round ``r``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run in {checkout} (seed {seed}) failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    LOG.parent.mkdir(exist_ok=True)
    with LOG.open("a") as log:
        log.write(json.dumps({"side": side, "round": r, "seed": seed, "workload": workload,
                              "checkout": str(checkout), "result": result}) + "\n")
    return {**{name: metric["value"] for name, metric in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"]}


def import_checkout(side: str, checkout: Path):
    """The checkout's ``multifuture`` package, imported as ``ab_<side>``; the
    package imports itself relatively."""
    root = checkout / "src" / "multifuture"
    spec = importlib.util.spec_from_file_location(
        f"ab_{side}", root / "__init__.py", submodule_search_locations=[str(root)])
    package = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def make_round(mf, args):
    """A function that runs one round of ``args.mode`` on package ``mf`` and
    returns its row, ``{metric: value}``."""
    series = mf.data.generate(mf.data.GeneratorConfig(n_hours=SERIES_HOURS,
                                                      seed=SEED))
    config = mf.ModelConfig(variant=args.variant, f=args.f)
    train_split = series.values[:TRAIN_HOURS]
    if args.mode == "train":
        train_config = mf.TrainConfig(n_iter=ITERS + 2, batch_size=BATCH_SIZE,
                                      seed=SEED)

        def round_():
            stamps, peak = [time.perf_counter()], []

            def progress(record):
                if record.iteration <= ITERS:
                    stamps.append(time.perf_counter())
                    if record.iteration == ITERS:  # trace the last step only
                        tracemalloc.start()
                else:
                    peak.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            mf.train(train_split, config, train_config, progress)
            return {"train_ms": 1e3 * statistics.median(
                        b - a for a, b in zip(stamps[1:], stamps[2:])),
                    "step_peak_mb": peak[0] / 2 ** 20}

        return round_
    model = mf.Forecaster(config, seed=SEED)
    boundary = series.start_timestamp + timedelta(hours=TRAIN_HOURS)
    test = mf.data.split_by_date(series, boundary, WARMUP_HOURS)[1]
    if args.mode == "evaluate":
        calls, work = 1, lambda: mf.evaluate_rolling(model, test, config.n_p, config.n_h)
    else:
        windows = np.stack([test.values[s:s + config.n_p] for s in range(args.windows)])
        calls, work = CALLS, lambda: model.predict_batch(windows)

    def round_():
        times = []
        for _ in range(calls):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        return {f"{args.mode}_ms": 1e3 * statistics.median(times)}

    return round_


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("mode", choices=("pairs", "train", "predict", "evaluate"))
    parser.add_argument("workload", nargs="?", help="pairs: the benchmark workload")
    parser.add_argument("--rounds", type=int, default=16)
    parser.add_argument("--first-seed", type=int, default=1, help="pairs: round 0's seed")
    parser.add_argument("--variant", default="tconv_decoder")
    parser.add_argument("--f", type=int, default=12)
    parser.add_argument("--windows", type=int, default=28, help="predict: batch size")
    args = parser.parse_args(argv)
    if (args.mode == "pairs") != (args.workload is not None):
        parser.error("pairs takes a WORKLOAD, and no other mode does")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.mode == "pairs":
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = [(metric["name"], metric["better"]) for metric in benchmark["end_to_end"]]
        rows = alternate(args.rounds, lambda side, r: benchmark_row(
            side, r, checkouts[side], args.workload, args.first_seed + r,
            benchmark["run_seconds"]))
        print("\n".join(operations(rows)))
    else:
        rounds = {side: make_round(import_checkout(side, checkouts[side]), args)
                  for side in SIDES}
        # warm both sides before the first timed round
        warm = {side: rounds[side]() for side in SIDES}
        metrics = [(name, "lower") for name in warm["parent"]]
        rows = alternate(args.rounds, lambda side, r: rounds[side]())
    for name, better in metrics:
        print(summarize(name, better, {side: [row[name] for row in rows[side]]
                                       for side in SIDES}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
