#!/usr/bin/env python3
"""Self-test for run.py (stdlib unittest), driven against a stub drbench.

The stub is a small script that answers drbench's command line with a
result line whose fingerprint, timings and failure mode the test picks
through environment variables, so aggregation, output checking,
failure accounting and compare verdicts are all exercised without a
simulator build.

    python3 bench/suite/run_test.py
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

STUB = r'''#!/usr/bin/env python3
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
mode = os.environ.get("STUB_MODE", "ok")
if mode == "crash":
    sys.exit(3)
if mode == "fatal":
    print("fatal: something broke", file=sys.stderr)
# Alternate two timings per call so the per-step minimum is predictable:
# best of [2, 2] and [3, 1] is [2, 1].
counter = os.path.join(os.environ["STUB_DIR"], "calls")
calls = int(open(counter).read()) if os.path.exists(counter) else 0
open(counter, "w").write(str(calls + 1))
traced = "--trace" in args
if "--threads" in args:
    advance = [2.0, 8.0]
elif traced:
    advance = [1.0, 4.0]
    with open(args["--trace"], "w") as fh:
        json.dump({"traceEvents": [{"name": "run", "dur": 5.0,
                                    "args": {"span": 1, "parent": 0}}]}, fh)
else:
    advance = [2.0, 2.0] if calls % 2 == 0 else [3.0, 1.0]
seed = int(args["--seed"])
print(json.dumps({
    "workload": args["--workload"], "seed": seed, "traced": traced,
    "fingerprint": "%016x" % (seed if mode != "mismatch" else os.getpid()),
    "outputs": {"sim.gpu_ipc": 1.5}, "cycles": 1000,
    "setup_s": 0.01, "peak_rss_mb": 9.0,
    "advance_ms": advance, "other_ms": [10.0],
    "counts": {"gpu.instructions": 100.0},
    "host": {"core.advance_s": sum(advance), "noc.tick_ns": 20.0}}))
'''


class Stub:
    """A temp dir with the stub drbench; run.py's trace and golden paths
    are pointed into it."""

    def __init__(self, mode="ok"):
        self.mode = mode

    def __enter__(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = os.path.join(self.tmp.name, "drbench")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(STUB)
        os.chmod(self.path, os.stat(self.path).st_mode | stat.S_IXUSR)
        self.saved = (run.TRACE_DIR, run.GOLDEN_PATH,
                      os.environ.get("STUB_MODE"))
        run.TRACE_DIR = os.path.join(self.tmp.name, "trace")
        run.GOLDEN_PATH = os.path.join(self.tmp.name, "golden.json")
        with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump({"seed": 42, "workloads": {}}, fh)
        os.environ["STUB_MODE"] = self.mode
        os.environ["STUB_DIR"] = self.tmp.name
        return self

    def __exit__(self, *exc):
        run.TRACE_DIR, run.GOLDEN_PATH, mode = self.saved
        if mode is None:
            os.environ.pop("STUB_MODE", None)
        else:
            os.environ["STUB_MODE"] = mode
        self.tmp.cleanup()
        return False

    def main(self, *args):
        """run.main() with the stub; returns (exit code, last stdout line
        parsed as JSON, or None)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = run.main(["--drbench", self.path, *args])
        lines = out.getvalue().strip().splitlines()
        try:
            return rc, json.loads(lines[-1])
        except (IndexError, ValueError):
            return rc, None


class AggregationTest(unittest.TestCase):
    def test_summarize_median_and_quartiles(self):
        s = run.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual(s["median"], 3.0)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["n"], 5)

    def test_summarize_single_value(self):
        s = run.summarize([2.5])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]),
                         (2.5, 2.5, 2.5, 1))

    def test_run_keeps_each_steps_fastest_repeat(self):
        with Stub() as stub:
            rc, result = stub.main("--workload", "noc_uniform", "--seed",
                                   "7", "--seconds", "1")
        self.assertEqual(rc, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(metrics), set(run.END_TO_END))
        # advance steps at their fastest: 2 + 1 ms, plus 10 ms other.
        self.assertAlmostEqual(metrics["wall_s"], 0.013)
        self.assertAlmostEqual(metrics["sim_cycles_per_s"], 1000 / 0.003)
        self.assertEqual(metrics["setup_s"], 0.01)
        self.assertEqual(result["metrics"]["wall_s"]["unit"], "s")

    def test_traced_run_reports_every_per_layer_metric(self):
        with Stub() as stub:
            rc, result = stub.main("--workload", "chiplet256_dr_t4",
                                   "--seed", "7", "--seconds", "1",
                                   "--trace", "1")
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertEqual(metrics["gpu.instructions"], 100.0)
        self.assertEqual(metrics["noc.tick_ns"], 20.0)
        # Layers the workload does not exercise read 0.
        self.assertEqual(metrics["mem.delegations"], 0.0)
        self.assertEqual(metrics["core.chunk_ms_p50"], 1.0)
        self.assertEqual(metrics["core.chunk_ms_p95"], 4.0)
        # The counterpart runs --threads 1, which the stub makes 2x slower.
        self.assertEqual(metrics["core.threads_slowdown"], 0.5)
        # Traced best of [1, 4] + 10 against untraced [2, 1] + 10.
        self.assertAlmostEqual(metrics["trace_overhead"], 15 / 13 - 1)

    def test_self_times_subtract_direct_children(self):
        events = [
            {"name": "run", "dur": 100.0, "args": {"span": 1, "parent": 0}},
            {"name": "advance", "dur": 30.0,
             "args": {"span": 2, "parent": 1}},
            {"name": "advance", "dur": 50.0,
             "args": {"span": 3, "parent": 1}},
            {"name": "tick", "dur": 20.0, "args": {"span": 4, "parent": 3}},
        ]
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as fh:
            json.dump({"traceEvents": events}, fh)
        try:
            totals = run.self_times(fh.name)
        finally:
            os.unlink(fh.name)
        self.assertAlmostEqual(totals["run"], 0.020)
        self.assertAlmostEqual(totals["advance"], 0.060)
        self.assertAlmostEqual(totals["tick"], 0.020)


class FailureTest(unittest.TestCase):
    def test_fingerprint_mismatch_fails_the_run(self):
        with Stub(mode="mismatch") as stub:
            rc, result = stub.main("--workload", "paper_dr", "--seed", "7",
                                   "--seconds", "1")
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(result["metrics"], {})

    def test_golden_mismatch_fails_seed_42(self):
        with Stub() as stub:
            with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
                json.dump({"seed": 42, "workloads": {"paper_dr": {
                    "fingerprint": "0000000000000001",
                    "outputs": {"sim.gpu_ipc": 1.25}}}}, fh)
            rc, result = stub.main("--workload", "paper_dr", "--seconds",
                                   "0.1")
        self.assertEqual(rc, 1)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_crashing_drbench_fails_the_run(self):
        with Stub(mode="crash") as stub:
            rc, result = stub.main("--workload", "figure_sweep", "--seed",
                                   "7", "--seconds", "0.1")
        self.assertEqual(rc, 1)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertFalse(result["correct"])

    def test_fatal_on_stderr_fails_the_run(self):
        with Stub(mode="fatal") as stub:
            rc, result = stub.main("--workload", "paper_dr", "--seed", "7",
                                   "--seconds", "0.1")
        self.assertEqual(rc, 1)
        self.assertEqual(result["failed"], 1)

    def test_suite_counts_failures_and_exits_non_zero(self):
        with Stub(mode="crash") as stub:
            out = os.path.join(stub.tmp.name, "results.json")
            rc, _ = stub.main("--repeats", "1", "--seed", "7", "--seconds",
                              "0.1", "--out", out)
            with open(out, encoding="utf-8") as fh:
                data = json.load(fh)
        self.assertEqual(rc, 1)
        for entry in data["workloads"].values():
            self.assertEqual((entry["attempted"], entry["failed"]), (1, 1))
            self.assertEqual(entry["runs"], [None])


class InputTest(unittest.TestCase):
    def rejects(self, *args):
        with Stub() as stub:
            rc, result = stub.main(*args)
        self.assertEqual(rc, 2, args)
        self.assertIsNone(result)

    def test_unknown_workload(self):
        self.rejects("--workload", "nonesuch", "--seed", "1")

    def test_seed_must_be_whole(self):
        for bad in ("4x", "-1", "+5", " 5", "1_0", "2.0", ""):
            self.rejects("--workload", "paper_dr", "--seed", bad)

    def test_repeats_must_be_whole_and_positive(self):
        for bad in ("0", "3x", "-2"):
            self.rejects("--repeats", bad)

    def test_seconds_and_trace_values(self):
        self.rejects("--workload", "paper_dr", "--seconds", "0")
        self.rejects("--workload", "paper_dr", "--trace", "2")

    def test_unexpected_argument(self):
        self.rejects("--workload", "paper_dr", "--bogus")


def run_set(values_by_metric, failed=0, attempted=10):
    """A results file with one workload whose runs carry the values."""
    n = len(next(iter(values_by_metric.values())))
    runs = [{name: vals[i] for name, vals in values_by_metric.items()}
            for i in range(n)]
    return {"workloads": {"paper_dr": {
        "attempted": attempted, "failed": failed, "runs": runs}}}


def steady(value, spread=0.002):
    return [value * (1 + spread * ((i % 3) - 1)) for i in range(10)]


class CompareTest(unittest.TestCase):
    def verdicts(self, parent, change):
        with contextlib.redirect_stdout(io.StringIO()):
            return run.compare(parent, change)

    def base(self, wall):
        return {"wall_s": wall, "sim_cycles_per_s": steady(1000.0),
                "setup_s": steady(0.001), "peak_rss_mb": steady(9.0)}

    def test_win(self):
        v = self.verdicts(run_set(self.base(steady(2.0))),
                          run_set(self.base(steady(1.6))))
        self.assertEqual(v[("wall_s", "paper_dr")][0], "gain")
        self.assertEqual(v[("setup_s", "paper_dr")][0], "no regression")
        self.assertEqual(v[("error_rate", "paper_dr")][0], "no regression")

    def test_regression(self):
        worse = 2.0 * (1 + 2 * run.END_TO_END["wall_s"]["bound"])
        v = self.verdicts(run_set(self.base(steady(2.0))),
                          run_set(self.base(steady(worse))))
        self.assertEqual(v[("wall_s", "paper_dr")][0], "regression")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.exit_code(v), 1)

    def test_unresolved_when_spread_exceeds_bound(self):
        v = self.verdicts(run_set(self.base(steady(2.0, spread=0.5))),
                          run_set(self.base(steady(2.1, spread=0.5))))
        self.assertEqual(v[("wall_s", "paper_dr")][0], "unresolved")

    def test_same_numbers_claim_no_gain(self):
        v = self.verdicts(run_set(self.base(steady(2.0))),
                          run_set(self.base(steady(2.0))))
        self.assertTrue(all(verdict == "no regression"
                            for verdict, _ in v.values()))

    def test_error_rate_compared_as_share(self):
        v = self.verdicts(run_set(self.base(steady(2.0))),
                          run_set(self.base(steady(2.0)), failed=1,
                                  attempted=20))
        self.assertEqual(v[("error_rate", "paper_dr")][0], "regression")


if __name__ == "__main__":
    unittest.main(verbosity=2)
