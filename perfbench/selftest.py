"""Self-tests of the benchmark: ``python3 perfbench/selftest.py`` from the repo root.

They check the tracer's self-time arithmetic on a synthetic span tree,
that ``BENCHMARK.json`` and ``run.py`` agree on workload and metric names
and units, that a tiny run of ``run.py`` passes its correctness gate
traced and untraced, and that the gate fails a model that does not learn.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """Returns the given instants in order."""

    def __init__(self, instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


class SpanArithmetic(unittest.TestCase):
    def test_self_time_excludes_direct_children_only(self):
        # phase.a [0, 10] > train [1, 9] > op [2, 5] > inner [3, 4]
        #                                 > op.bwd [6, 8], owned by model.x
        # phase.b [10, 13] > phase.c [11, 12] (a nested phase)
        tracer = tracing.Tracer(clock=FakeClock(
            [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 10, 11, 12, 13]))
        a = tracer.open("phase.a")
        train = tracer.open("train")
        op = tracer.open("op")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(op)
        bwd = tracer.open("op.bwd", owner="model.x")
        tracer.close(bwd)
        tracer.close(train)
        tracer.close(a)
        b = tracer.open("phase.b")
        c = tracer.open("phase.c")
        tracer.close(c)
        tracer.close(b)

        table = tracing.SpanTable(tracer.spans)
        self.assertEqual(table.total[("phase.a", "train")], 8)
        self.assertEqual(table.self_time[("phase.a", "train")], 8 - 3 - 2)
        self.assertEqual(table.self_time[("phase.a", "op")], 3 - 1)
        self.assertEqual(table.self_time[("phase.a", "inner")], 1)
        self.assertEqual(table.self_time[("phase.a", "phase.a")], 10 - 8)
        self.assertEqual(table.owned[("phase.a", "model.x")], 2)
        self.assertEqual(table.count[("phase.a", "op")], 1)
        # a nested phase owns its own spans and leaves its parent's self time
        self.assertEqual(table.self_time[("phase.b", "phase.b")], 3 - 1)
        self.assertEqual(table.self_time[("phase.c", "phase.c")], 1)
        self.assertAlmostEqual(table.unattributed_share(), (2 + 2 + 1) / 13)

    def test_spans_must_close_in_order(self):
        tracer = tracing.Tracer(clock=FakeClock(range(10)))
        outer = tracer.open("outer")
        tracer.open("inner")
        with self.assertRaises(RuntimeError):
            tracer.close(outer)

    def test_install_and_uninstall_restore_every_attribute(self):
        from multifuture import training
        from multifuture.nn import ops, tensor

        before = (ops.conv1d, ops._from_op, tensor._from_op, training.adam_step,
                  tensor.Tensor.__dict__["backward"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(ops.conv1d, before[0])
            self.assertIs(training.adam_step.__wrapped__, before[3])
        finally:
            tracer.uninstall()
        after = (ops.conv1d, ops._from_op, tensor._from_op, training.adam_step,
                 tensor.Tensor.__dict__["backward"])
        for old, new in zip(before, after):
            self.assertIs(old, new)


class BenchmarkSpec(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for metric in SPEC[key]:
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in SPEC["end_to_end"])},
                      SPEC["end_to_end"])

    def test_workloads_match_the_runner(self):
        import workloads

        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(workloads.WORKLOADS))


class TinyRun(unittest.TestCase):
    """One-second runs: the gate holds and the metrics match BENCHMARK.json."""

    def _check(self, result: dict, key: str):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_run(self):
        self._check(_run("train_reference", 0), "end_to_end")

    def test_traced_run_reproduces_the_untraced_run(self):
        self._check(_run("forecast", 1), "per_layer")

    def test_gate_fails_a_model_that_does_not_learn(self):
        import workloads
        from multifuture import training

        real_step = training.adam_step

        def frozen_step(params, state):
            state.learning_rate = 0.0
            return real_step(params, state)

        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as workdir, \
                mock.patch.object(training, "adam_step", frozen_step):
            result = workloads.run_pipeline(workloads.WORKLOADS["forecast"], 7, 1,
                                            tracing.NullTracer(), workdir)
        self.assertEqual(result.quality, result.untrained_quality)
        self.assertEqual(result.failed, 1, result.failures)
        self.assertIn("untrained", result.failures[0])


if __name__ == "__main__":
    unittest.main()
