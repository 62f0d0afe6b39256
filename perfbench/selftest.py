"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

The smoke test starts the benchmark once per workload with a one-second
loop, so the whole file takes about half a minute.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mpmath  # noqa: E402

import agflab.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class Workloads(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for name in workloads.WORKLOADS:
            first = list(islice(workloads.ops(name, 7), 40))
            self.assertEqual(first, list(islice(workloads.ops(name, 7), 40)))
            self.assertNotEqual(first, list(islice(workloads.ops(name, 8), 40)))

    def test_seq_sizes_stay_in_range(self):
        sizes = [int(a[3]) for a in islice(workloads.ops("seq", 3), 160)]
        self.assertGreaterEqual(min(sizes), workloads.SEQ_N_MIN)
        self.assertLessEqual(max(sizes), workloads.SEQ_N_MAX)

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.BENCHMARKED))


class Checks(unittest.TestCase):
    def capture(self, argv) -> str:
        out = io.StringIO()
        with redirect_stdout(out):
            self.assertEqual(agflab.cli.main(argv), 0)
        return out.getvalue()

    def test_limit_check_rejects_a_wrong_value(self):
        argv = ["limit", "e", "0", "--n-base", "64", "--depth", "4"]
        checks.check_limit(argv, self.capture(argv))
        with self.assertRaises(checks.CheckFailed):
            checks.check_limit(argv, "0.3679 ± 0.00e+00\n")

    def test_seq_check_rejects_changed_rows(self):
        argv = ["seq", "pi", "1/2", "40"]
        rows = self.capture(argv).split("\n")
        checks.check_seq(argv, "\n".join(rows))
        shifted = [f"{n}\t{checks.Fraction(row.split()[1]) + (n > 2)}"
                   for n, row in enumerate(rows[:-1], start=1)]
        for bad in (rows[1:], ["1\t1"] + rows[1:], shifted + [""]):
            with self.assertRaises(checks.CheckFailed):
                checks.check_seq(argv, "\n".join(bad))

    def test_grid_check_rejects_changed_values(self):
        argv = next(workloads.ops("agf-grid", 5))
        out = self.capture(argv)
        checks.check_grid(argv, out)
        rows = list(csv.reader(io.StringIO(out)))
        for row in rows[1:]:
            if row[5] != "pole":
                row[5] = repr(float(row[5]) * (1 + 1e-9))
        bad = io.StringIO()
        csv.writer(bad).writerows(rows)
        with self.assertRaises(checks.CheckFailed):
            checks.check_grid(argv, bad.getvalue())


class Loop(unittest.TestCase):
    def probe(self) -> speed.Probe:
        probe = speed.Probe()
        probe.samples = [speed.REFERENCE_S] * speed.MIN_SAMPLES
        return probe

    def fake_main(self, action):
        original = agflab.cli.main
        self.addCleanup(setattr, agflab.cli, "main", original)
        agflab.cli.main = action

    def test_dps_leak_is_counted_not_raised(self):
        self.addCleanup(setattr, mpmath.mp, "dps", 15)

        def leak(argv):
            mpmath.mp.dps = 20
            print('{"pass": true}')
            return 0

        self.fake_main(leak)
        loop = worker.Loop("verify", self.probe())
        *_, ok = loop.op(["verify", "all"])
        self.assertTrue(ok)
        self.assertEqual(loop.dps_leaks, 1)

    def test_uncaught_error_is_a_failed_op(self):
        def overflow(argv):
            raise OverflowError("complex exponentiation")

        self.fake_main(overflow)
        loop = worker.Loop("agf-grid", self.probe())
        *_, ok = loop.op(["agf", "g", "0+800i"])
        self.assertFalse(ok)
        self.assertEqual(list(loop.failures),
                         ["uncaught OverflowError: complex exponentiation"])


class Speed(unittest.TestCase):
    def test_rescale_takes_out_sampling_time_and_speed(self):
        probe = speed.Probe()
        probe.samples = [2 * speed.REFERENCE_S] * 5  # the machine at half speed
        mark = probe.mark()
        probe.samples += [2 * speed.REFERENCE_S] * 10
        self.assertAlmostEqual(probe.rescale(mark, 1 + 20 * speed.REFERENCE_S), 0.5)

    def test_probe_samples_until_stopped(self):
        probe = speed.Probe()
        probe.start()
        try:
            end = perf_counter() + 5 * speed.PERIOD_S
            while perf_counter() < end:
                pass
        finally:
            probe.stop()
        taken = probe.mark()
        self.assertGreaterEqual(taken, 2)
        end = perf_counter() + 3 * speed.PERIOD_S
        while perf_counter() < end:
            pass
        self.assertEqual(probe.mark(), taken)


class Tracing(unittest.TestCase):
    def test_spans_cover_import_sites_and_restore(self):
        original = agflab.cli.estimate_connection_constant
        spans = tracer.Tracer()
        restore = tracer.install(spans)
        try:
            self.assertIsNot(agflab.cli.estimate_connection_constant, original)
            spans.op_id = 0
            with redirect_stdout(io.StringIO()):
                agflab.cli.main(["limit", "e", "1", "--n-base", "64", "--depth", "3"])
        finally:
            restore()
        self.assertIs(agflab.cli.estimate_connection_constant, original)
        m = tracer.layer_metrics(spans, [1.0])
        self.assertEqual(m["connection.estimates"], 1)
        self.assertEqual(m["holonomic.steps.double"], 512)
        self.assertEqual(m["connection.samples_per_step"], 4 / 512)
        col = spans.columns()
        root = list(col["parent"]).index(-1)
        self.assertEqual(col["names"][col["name"][root]], "cli.main")
        total = col["end"][root] - col["start"][root]
        self.assertAlmostEqual(sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS),
                               total, delta=1e-9)


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_end_to_end_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", "1", "--seconds", "1", "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT, timeout=180)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                for metric, unit in run.END_TO_END:
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertTrue(any(line.split()[:1] == [metric] and unit in line.split()
                                        for line in lines[:-1]), metric)


if __name__ == "__main__":
    unittest.main()
