"""Alternating A/B runs of one benchmark workload on two checkouts.

Usage, from anywhere::

    python3 tools/ab_pairs.py PARENT CHANGE WORKLOAD FIRST_SEED PAIRS

Pair ``i`` runs ``perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+i
--seconds 25 --trace 0`` in each checkout, each with that checkout's own
``perfbench/run.py``; the parent runs first in even pairs and the change
in odd ones.  Every result line is appended, with its side, pair and
seed, to ``.bench_out/ab_pairs.jsonl`` beside this file's checkout.  At
the end the script prints, per side, the median [q1, q3] of each
end-to-end metric of ``BENCHMARK.json`` and the number of pairs the
change won (ties count for neither side), plus the failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".bench_out" / "ab_pairs.jsonl"
SIDES = ("parent", "change")
SECONDS = 25


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line (the last line of standard output) of one untraced run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"run in {checkout} (seed {seed}) failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(lines: list[dict], end_to_end: list[dict]) -> list[str]:
    """Report lines for logged runs: per metric, each side's median [q1, q3]
    and the pairs in which the change was better, by the metric's
    ``better`` direction; then each side's failed and attempted operations.

    ``lines`` are log entries ``{"side", "pair", "seed", "result"}``;
    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{"name", "better"}``.
    """
    by_pair = {side: {line["pair"]: line["result"] for line in lines
                      if line["side"] == side} for side in SIDES}
    pairs = sorted(by_pair["parent"].keys() & by_pair["change"].keys())
    out = [f"{len(pairs)} complete pairs"]
    for metric in end_to_end if pairs else []:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [by_pair[side][p]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        cells = ["{} {:.4g} [{:.4g}, {:.4g}]".format(side, *_quartiles(values[side]))
                 for side in SIDES]
        out.append(f"{name}: {'  '.join(cells)}  change won {won}/{len(pairs)}")
    for side in SIDES:
        results = [by_pair[side][p] for p in pairs]
        out.append(f"{side}: {sum(r['failed'] for r in results)} failed of "
                   f"{sum(r['attempted'] for r in results)} operations")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("first_seed", type=int)
    parser.add_argument("pairs", type=int)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    LOG.parent.mkdir(exist_ok=True)
    lines = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            line = {"side": side, "pair": pair, "seed": seed, "workload": args.workload,
                    "checkout": str(checkouts[side]),
                    "result": run_once(checkouts[side], args.workload, seed)}
            with LOG.open("a") as log:
                log.write(json.dumps(line) + "\n")
            lines.append(line)
            print(f"pair {pair} seed {seed} {side}: "
                  + json.dumps({k: v["value"] for k, v in line["result"]["metrics"].items()}),
                  flush=True)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(lines, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
