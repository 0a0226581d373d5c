#!/usr/bin/env python3
"""Smoke test for run_perf_kernel.sh and bench/perf_kernel (stdlib
unittest; wired into ctest).

Usage: run_perf_kernel_test.py BUILD_DIR

Runs the script once, without a baseline, at a short horizon and checks
the shape of what it writes: every column, the summary keys in their
order and the host block. Statistics do not depend on the thread count,
so the columns that differ only in threads must deliver the same
packets. Wall-clock numbers are not checked.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = "build"

SUMMARY_KEYS = [
    "uniform_cycles_per_sec",
    "hotspot_cycles_per_sec",
    "vnet_uniform_cycles_per_sec",
    "vnet_hotspot_cycles_per_sec",
    "chiplet_uniform_cycles_per_sec",
    "uniform_r10_threads1_cycles_per_sec",
    "uniform_r10_threads2_cycles_per_sec",
    "uniform_r10_threads4_cycles_per_sec",
    "e2e_hetero_threads1_cycles_per_sec",
    "e2e_hetero_threads4_cycles_per_sec",
    "e2e_hetero_sharedL1_threads1_cycles_per_sec",
    "e2e_hetero_sharedL1_threads4_cycles_per_sec",
    "peak_rss_kb",
]


class PerfKernelSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "smoke.json")
            env = dict(os.environ, DR_BENCH_CYCLES="2000")
            subprocess.run(
                [os.path.join(TOOLS, "run_perf_kernel.sh"), BUILD_DIR, out],
                env=env, check=True)
            with open(out) as f:
                cls.result = json.load(f)

    def delivered(self, pattern, rate, threads):
        rows = [r["packets_delivered"] for r in self.result["workloads"]
                if r["pattern"] == pattern and r["rate"] == rate
                and r["threads"] == threads]
        self.assertEqual(len(rows), 1, (pattern, rate, threads))
        return rows[0]

    def test_every_column(self):
        self.assertEqual(len(self.result["workloads"]), 15)

    def test_summary_keys_in_order(self):
        self.assertEqual(list(self.result["summary"]), SUMMARY_KEYS)

    def test_host_block(self):
        host = self.result["host"]
        self.assertGreaterEqual(host["cores"], 1)
        self.assertIn("loadavg_1min", host)

    def test_threads_do_not_change_statistics(self):
        uniform = {self.delivered("uniform", 0.1, t) for t in (1, 2, 4)}
        self.assertEqual(len(uniform), 1, uniform)
        for name in ("e2e_hetero", "e2e_hetero_sharedL1"):
            self.assertEqual(self.delivered(name, 0.0, 1),
                             self.delivered(name, 0.0, 4), name)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        BUILD_DIR = sys.argv.pop(1)
    unittest.main()
