#!/usr/bin/env python3
"""Sharded bench sweep runner.

Runs the paper's bench binaries as concurrent processes with a bounded
job pool, cutting full EXPERIMENTS.md regeneration wall-clock by
roughly the machine's core count. Each bench is a self-contained,
deterministically-seeded simulation, so process-level sharding cannot
change any number — only the wall clock.

Usage:
    tools/run_sweep.py [-j JOBS] [-b BUILD_DIR] [-o OUT_DIR] [bench ...]

With no bench names, every binary under BUILD_DIR/bench is swept except
`perf_kernel` (a wall-clock measurement: running it while the sweep
loads every core would corrupt its cycles/sec figures — run it alone
via tools/run_perf_kernel.sh). Per-bench stdout+stderr goes to
OUT_DIR/<bench>.txt; after all benches finish, the per-bench logs are
concatenated in deterministic (alphabetical) order into
OUT_DIR/bench_output.txt, byte-identical to a `for b in build/bench/*`
serial sweep's tee output modulo interleaving.

Environment (DR_BENCH_CYCLES, DR_BENCH_CPUS, DR_NOC_THREADS, ...) is
passed through to every bench. Each bench runs DR_NOC_THREADS spinning
threads, and a descheduled one stalls every cycle of its simulation, so
the sweep lowers -j until jobs x DR_NOC_THREADS fits the CPUs this
process may run on, and says so. Exit status is non-zero if any bench
fails, with the failing benches listed.
"""

import argparse
import os
import subprocess
import sys
import threading
import time

EXCLUDED_BY_DEFAULT = {"perf_kernel"}


def host_cpus():
    """CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def noc_threads():
    """Threads each bench runs: DR_NOC_THREADS, unset meaning 1. A value
    that is not a whole number is left for every bench to reject."""
    try:
        return max(1, int(os.environ.get("DR_NOC_THREADS", "1")))
    except ValueError:
        return 1


def discover(build_dir):
    bench_dir = os.path.join(build_dir, "bench")
    if not os.path.isdir(bench_dir):
        sys.exit(f"run_sweep: {bench_dir} not found (build the benches)")
    names = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if (os.path.isfile(path) and os.access(path, os.X_OK)
                and not name.startswith(".")
                and not name.endswith((".cmake", ".txt"))):
            names.append(name)
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run bench binaries concurrently with a bounded pool")
    parser.add_argument("-j", "--jobs", type=int, default=host_cpus(),
                        help="max concurrent benches (default: host CPUs; "
                             "lowered so jobs x DR_NOC_THREADS fits them)")
    parser.add_argument("-b", "--build-dir", default="build",
                        help="build tree containing bench/ (default: build)")
    parser.add_argument("-o", "--out-dir", default="sweep_output",
                        help="per-bench log directory (default: sweep_output)")
    parser.add_argument("benches", nargs="*",
                        help="bench names to run (default: all but "
                             + ", ".join(sorted(EXCLUDED_BY_DEFAULT)))
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    cpus, threads = host_cpus(), noc_threads()
    fit = max(1, cpus // threads)
    if args.jobs > fit:
        print(f"run_sweep: lowering -j {args.jobs} to {fit}: {fit} jobs x "
              f"DR_NOC_THREADS={threads} fits {cpus} CPUs", flush=True)
        args.jobs = fit

    available = discover(args.build_dir)
    if args.benches:
        unknown = [b for b in args.benches if b not in available]
        if unknown:
            sys.exit(f"run_sweep: unknown benches {unknown}; "
                     f"available: {available}")
        selected = list(args.benches)
    else:
        selected = [b for b in available if b not in EXCLUDED_BY_DEFAULT]
    if not selected:
        sys.exit("run_sweep: nothing to run")

    os.makedirs(args.out_dir, exist_ok=True)

    pool = threading.Semaphore(args.jobs)
    lock = threading.Lock()
    failures = []
    timings = {}

    def run_one(name):
        log_path = os.path.join(args.out_dir, name + ".txt")
        binary = os.path.join(args.build_dir, "bench", name)
        start = time.monotonic()
        with open(log_path, "w") as log:
            proc = subprocess.run([binary], stdout=log,
                                  stderr=subprocess.STDOUT)
        elapsed = time.monotonic() - start
        with lock:
            timings[name] = elapsed
            status = "ok" if proc.returncode == 0 else (
                f"FAILED (exit {proc.returncode})")
            if proc.returncode != 0:
                failures.append(name)
            done = len(timings)
            print(f"run_sweep: [{done}/{len(selected)}] {name}: {status} "
                  f"({elapsed:.1f}s)", flush=True)
        pool.release()

    sweep_start = time.monotonic()
    print(f"run_sweep: {len(selected)} benches, {args.jobs} concurrent, "
          f"logs in {args.out_dir}/", flush=True)
    threads = []
    for name in selected:
        pool.acquire()
        t = threading.Thread(target=run_one, args=(name,))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()

    # Deterministic combined log: alphabetical, independent of the
    # completion order above.
    combined = os.path.join(args.out_dir, "bench_output.txt")
    with open(combined, "w") as out:
        for name in sorted(selected):
            with open(os.path.join(args.out_dir, name + ".txt")) as log:
                out.write(log.read())
    total = time.monotonic() - sweep_start
    serial = sum(timings.values())
    print(f"run_sweep: wall {total:.1f}s for {serial:.1f}s of bench time "
          f"({serial / total if total > 0 else 1:.1f}x), "
          f"combined log: {combined}")

    if failures:
        print(f"run_sweep: FAILED: {sorted(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
