#!/usr/bin/env python3
"""Self-test for run_sweep.py (stdlib unittest; wired into ctest).

The property that matters is shard-count independence: the combined
bench_output.txt must be byte-identical whatever -j is, because
EXPERIMENTS.md is regenerated from it and any nondeterminism there
would masquerade as a simulation result change. The tests drive
run_sweep.main() against a fake build tree of executable stub benches
whose completion order is deliberately scrambled with sleeps.
"""

import contextlib
import io
import os
import stat
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run_sweep  # noqa: E402


def write_bench(bench_dir, name, body):
    path = os.path.join(bench_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR | stat.S_IXGRP
             | stat.S_IXOTH)


class FakeBuild:
    """Temp build tree with stub benches; completion order is scrambled
    (later names finish first) so interleaving bugs would show. The
    sweep sees `cpus` CPUs and DR_NOC_THREADS=`threads`, whatever the
    host and the calling environment say."""

    def __init__(self, fail=(), cpus=8, threads="1"):
        self.fail = fail
        self.cpus = cpus
        self.threads = threads

    def __enter__(self):
        self.tmp = tempfile.TemporaryDirectory()
        bench_dir = os.path.join(self.tmp.name, "build", "bench")
        os.makedirs(bench_dir)
        delays = {"alpha": 0.3, "bravo": 0.15, "charlie": 0.0}
        for name, delay in delays.items():
            lines = [f"sleep {delay}\n"] if delay else []
            for i in range(5):
                lines.append(f"echo {name} line {i}\n")
            if name in self.fail:
                lines.append("exit 3\n")
            write_bench(bench_dir, name, "".join(lines))
        write_bench(bench_dir, "perf_kernel",
                    "echo perf_kernel must not run\nexit 9\n")
        return self

    def __exit__(self, *exc):
        self.tmp.cleanup()
        return False

    def run(self, jobs, out_name, benches=()):
        out_dir = os.path.join(self.tmp.name, out_name)
        argv = ["-j", str(jobs),
                "-b", os.path.join(self.tmp.name, "build"),
                "-o", out_dir] + list(benches)
        with mock.patch.object(run_sweep, "host_cpus",
                               return_value=self.cpus), \
                mock.patch.dict(os.environ,
                                {"DR_NOC_THREADS": self.threads}):
            rc = run_sweep.main(argv)
        combined = os.path.join(out_dir, "bench_output.txt")
        data = b""
        if os.path.exists(combined):
            with open(combined, "rb") as fh:
                data = fh.read()
        return rc, data


class ShardIndependenceTest(unittest.TestCase):
    def test_combined_log_bytes_identical_across_jobs(self):
        with FakeBuild() as fb:
            rc1, serial = fb.run(1, "out_j1")
            rc4, sharded = fb.run(4, "out_j4")
        self.assertEqual(rc1, 0)
        self.assertEqual(rc4, 0)
        self.assertGreater(len(serial), 0)
        self.assertEqual(serial, sharded,
                         "combined log depends on shard count")

    def test_combined_log_is_alphabetical_concatenation(self):
        with FakeBuild() as fb:
            rc, data = fb.run(4, "out")
        self.assertEqual(rc, 0)
        text = data.decode()
        self.assertLess(text.index("alpha line 0"),
                        text.index("bravo line 0"))
        self.assertLess(text.index("bravo line 4"),
                        text.index("charlie line 0"))

    def test_perf_kernel_excluded_by_default(self):
        with FakeBuild() as fb:
            rc, data = fb.run(2, "out")
        self.assertEqual(rc, 0)
        self.assertNotIn(b"perf_kernel", data)

    def test_explicit_selection_runs_only_named(self):
        with FakeBuild() as fb:
            rc, data = fb.run(2, "out", benches=["bravo"])
        self.assertEqual(rc, 0)
        self.assertIn(b"bravo line 0", data)
        self.assertNotIn(b"alpha", data)


class OversubscriptionTest(unittest.TestCase):
    def run_with(self, jobs, cpus, threads):
        out = io.StringIO()
        with FakeBuild(cpus=cpus, threads=threads) as fb, \
                contextlib.redirect_stdout(out):
            rc, data = fb.run(jobs, "out")
        self.assertEqual(rc, 0)
        self.assertIn(b"charlie line 4", data)
        return out.getvalue()

    def test_jobs_lowered_to_fit_threads_on_cpus(self):
        log = self.run_with(jobs=4, cpus=4, threads="2")
        self.assertIn("lowering -j 4 to 2", log)
        self.assertIn("2 concurrent", log)

    def test_more_threads_than_cpus_runs_one_job(self):
        log = self.run_with(jobs=3, cpus=4, threads="8")
        self.assertIn("lowering -j 3 to 1", log)
        self.assertIn("1 concurrent", log)

    def test_jobs_that_fit_are_kept_silently(self):
        log = self.run_with(jobs=2, cpus=4, threads="2")
        self.assertNotIn("lowering", log)
        self.assertIn("2 concurrent", log)


class FailurePropagationTest(unittest.TestCase):
    def test_failing_bench_fails_the_sweep(self):
        with FakeBuild(fail={"bravo"}) as fb:
            rc, data = fb.run(4, "out")
        self.assertEqual(rc, 1)
        # Logs of the failing bench are still collected.
        self.assertIn(b"bravo line 4", data)

    def test_unknown_bench_rejected(self):
        with FakeBuild() as fb:
            with self.assertRaises(SystemExit):
                fb.run(1, "out", benches=["nonesuch"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
