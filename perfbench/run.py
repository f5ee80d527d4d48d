"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_reference --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the pipeline once, untraced, and reports the end-to-end
metrics.  ``--trace 1`` runs a one-second warm-up, then the pipeline
untraced and traced, checks that both passes computed bit-identical losses
and predictions, and reports the per-layer metrics.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (versions, BLAS, seed, sample counts).  Both are also
written to ``.bench_out/`` with the per-phase span tables, and a traced
run writes its raw spans there too.

The program under test is imported from ``src/`` of the checkout this
file sits in; the run fails if it is not there.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported: one thread keeps the
# arithmetic order, and so the outputs, fixed, and leaves the second core
# to the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # not a clone: don't ask an enclosing repo
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of every file under src/multifuture, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "multifuture").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_record(args, numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _import_program():
    if not (SRC / "multifuture" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'multifuture'} "
                         "is missing")
    sys.path.insert(0, str(SRC))
    import multifuture

    if Path(multifuture.__file__).resolve().parent != (SRC / "multifuture").resolve():
        raise SystemExit(f"error: imported multifuture from {multifuture.__file__}, "
                         f"not from {SRC}")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import numpy

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; expected "
                         f"one of {sorted(workloads.WORKLOADS)}")
    record = _run_record(args, numpy)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    report: dict = {"record": record}
    try:
        passes = []
        if args.trace == 1:
            # A one-second warm-up pays the process's first-run costs (page
            # faults, cold caches, allocator growth), so that the untraced
            # and the traced pass below both start warm.
            passes.append(workloads.run_pipeline(workload, args.seed, 1,
                                                 tracing.NullTracer(), str(workdir)))
        untraced = workloads.run_pipeline(workload, args.seed, args.seconds,
                                          tracing.NullTracer(), str(workdir))
        passes.append(untraced)
        if args.trace == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = workloads.end_to_end(untraced, peak_rss_mb)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = workloads.run_pipeline(workload, args.seed, args.seconds,
                                                tracer, str(workdir))
            finally:
                tracer.uninstall()
            passes.append(traced)
            traced.check(traced.loss_digest == untraced.loss_digest,
                         "traced loss trace differs from the untraced one")
            traced.check(traced.prediction_digest == untraced.prediction_digest,
                         "traced predictions differ from the untraced ones")
            table = tracing.SpanTable(tracer.spans)
            metrics = workloads.per_layer(untraced, traced, table, tracer.counters)
            report["ops_per_iteration"] = workloads.op_table(
                table, tracer.counters, "phase.train", traced.sizes["n_iter"])
            report["ops_per_predict"] = workloads.op_table(
                table, tracer.counters, "phase.predict", len(traced.predict_s))
            report["spans"] = table.as_rows()
            tracing.write_spans(tracer.spans, OUT_DIR / f"{stem}.spans.csv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record["sizes"] = untraced.sizes
    record["oracle_nrmse"] = {"trained": untraced.quality,
                              "untrained": untraced.untrained_quality}
    record["phase_s"] = [p.phase_s for p in passes]
    record["samples"] = {name: samples for name, (_, _, samples) in metrics.items()}
    record["failures"] = [f for p in passes for f in p.failures]
    record["failed_share"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    report["result"] = result
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
