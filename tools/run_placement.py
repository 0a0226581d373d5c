#!/usr/bin/env python3
"""Deterministic memory-node placement search (ISSUE 9).

Sweeps a deterministic family of memory-controller/LLC attach
placements (rows, columns, diagonal, perimeter, center block, uniform
grids — the shapes the placement literature ranks) for the configured
chip, running each candidate as a `drsim` subprocess with
`--set mem.placement=...`, and emits a ranked report ordered by GPU
IPC. Candidate generation is a pure function of the chip shape, every
simulation is deterministically seeded, and the report is assembled in
a fixed order after all runs finish, so the report bytes are identical
for every shard count: `-j` only changes the wall clock, exactly like
build/bench/figures.

Usage:
    tools/run_placement.py [-j JOBS] [--drsim PATH] [-o REPORT]
                           [--gpu NAME] [--cpu NAME]
                           [--config FILE] [--set KEY=VALUE ...]

The chip shape (mesh width/height, memory-node count) is read back
from `drsim --dump-config` under the same --config/--set overrides, so
the candidates always match the swept configuration.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time


def chip_shape(drsim, passthrough):
    """Read (width, height, memNodes) from drsim's effective config."""
    cmd = [drsim, "--dump-config"] + passthrough
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run_placement: '{' '.join(cmd)}' failed")
    values = {}
    for line in proc.stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    try:
        return (int(values["noc.meshWidth"]),
                int(values["noc.meshHeight"]),
                int(values["mem.numNodes"]))
    except (KeyError, ValueError):
        sys.exit("run_placement: could not read noc.meshWidth / "
                 "noc.meshHeight / mem.numNodes from --dump-config")


def spread(count, extent):
    """`count` distinct evenly spaced indices in [0, extent)."""
    return [int((i + 0.5) * extent / count) for i in range(count)]


def factor_pairs(m):
    """All (gx, gy) with gx * gy == m, ascending gx."""
    return [(gx, m // gx) for gx in range(1, m + 1) if m % gx == 0]


def candidates(width, height, mem_nodes):
    """Deterministic named placement family for a width x height chip.

    A pure function of the chip shape: same inputs, same candidates,
    same order. Shapes whose tiles would collide (e.g. a row placement
    with more memory nodes than columns) are dropped.
    """
    out = []
    seen = set()

    def add(name, tiles):
        key = tuple(sorted(tiles))
        if (len(set(key)) == mem_nodes and key not in seen
                and all(0 <= t < width * height for t in key)):
            seen.add(key)
            out.append((name, key))

    for label, row in (("top", 0), ("mid", height // 2),
                       ("bottom", height - 1)):
        add(f"row-{label}",
            [row * width + x for x in spread(mem_nodes, width)])
    for label, col in (("left", 0), ("mid", width // 2),
                       ("right", width - 1)):
        add(f"col-{label}",
            [y * width + col for y in spread(mem_nodes, height)])
    add("diagonal",
        [y * width + x for y, x in zip(spread(mem_nodes, height),
                                       spread(mem_nodes, width))])

    perimeter = ([x for x in range(width)]
                 + [y * width + (width - 1) for y in range(1, height)]
                 + [(height - 1) * width + x
                    for x in range(width - 2, -1, -1)]
                 + [y * width for y in range(height - 2, 0, -1)])
    if mem_nodes <= len(perimeter):
        add("perimeter", [perimeter[i]
                          for i in spread(mem_nodes, len(perimeter))])

    for gx, gy in factor_pairs(mem_nodes):
        add(f"grid-{gx}x{gy}",
            [y * width + x
             for y in spread(gy, height) for x in spread(gx, width)])

    side = 1
    while side * side < mem_nodes:
        side += 1
    x0 = max(0, (width - side) // 2)
    y0 = max(0, (height - side) // 2)
    add("center-block",
        [(y0 + i // side) * width + x0 + i % side
         for i in range(mem_nodes)])
    return out


def run_candidate(drsim, passthrough, gpu, cpu, tiles):
    """One placement run; returns (gpuIpc, memBlockingRate) or None."""
    placement = ",".join(str(t) for t in tiles)
    cmd = [drsim, "--gpu", gpu, "--cpu", cpu, "--stats", "json",
           "--set", f"mem.placement={placement}"] + passthrough
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    try:
        stats = json.loads(proc.stdout)
        return (float(stats["sim.gpuIpc"]),
                float(stats["sim.memBlockingRate"]))
    except (ValueError, KeyError):
        return None


def format_report(shape, gpu, cpu, tiles_by_name, results):
    """Ranked report text; a pure function of the result map, so the
    bytes cannot depend on completion order or shard count."""
    width, height, mem_nodes = shape
    lines = [f"== placement search: {width}x{height} mesh, "
             f"{mem_nodes} memory nodes, gpu={gpu} cpu={cpu} ==",
             f"{'rank':<5} {'placement':<14} {'gpuIpc':>8} "
             f"{'memBlock':>9}  tiles"]
    ranked = sorted(results.items(),
                    key=lambda kv: (-kv[1][0], kv[0]))
    for rank, (name, (ipc, blocking)) in enumerate(ranked, start=1):
        tiles = ",".join(str(t) for t in tiles_by_name[name])
        lines.append(f"{rank:<5} {name:<14} {ipc:>8.3f} "
                     f"{blocking:>9.3f}  {tiles}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Deterministic sharded memory-placement search")
    parser.add_argument("-j", "--jobs", type=int,
                        default=os.cpu_count() or 1,
                        help="max concurrent runs (default: host cores)")
    parser.add_argument("--drsim", default="build/tools/drsim",
                        help="simulator binary (default: "
                             "build/tools/drsim)")
    parser.add_argument("-o", "--output", default="placement_report.txt",
                        help="ranked report path (default: "
                             "placement_report.txt)")
    parser.add_argument("--gpu", default="HS", help="GPU benchmark")
    parser.add_argument("--cpu", default="bodytrack",
                        help="CPU benchmark")
    parser.add_argument("--config", help="config file passed to drsim")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="config override passed to drsim "
                             "(repeatable)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    passthrough = []
    if args.config:
        passthrough += ["--config", args.config]
    for kv in args.overrides:
        passthrough += ["--set", kv]

    shape = chip_shape(args.drsim, passthrough)
    family = candidates(*shape)
    if not family:
        sys.exit("run_placement: no placement fits "
                 f"{shape[0]}x{shape[1]} with {shape[2]} memory nodes")
    tiles_by_name = dict(family)

    pool = threading.Semaphore(args.jobs)
    lock = threading.Lock()
    results = {}
    failures = []

    def run_one(name, tiles):
        stats = run_candidate(args.drsim, passthrough, args.gpu,
                              args.cpu, tiles)
        with lock:
            if stats is None:
                failures.append(name)
            else:
                results[name] = stats
            done = len(results) + len(failures)
            print(f"run_placement: [{done}/{len(family)}] {name}",
                  flush=True)
        pool.release()

    start = time.monotonic()
    print(f"run_placement: {len(family)} candidates on a "
          f"{shape[0]}x{shape[1]} chip, {args.jobs} concurrent",
          flush=True)
    threads = []
    for name, tiles in family:
        pool.acquire()
        t = threading.Thread(target=run_one, args=(name, tiles))
        t.start()
        threads.append(t)
    for t in threads:
        t.join()

    if failures:
        print(f"run_placement: FAILED: {sorted(failures)}",
              file=sys.stderr)
        return 1

    report = format_report(shape, args.gpu, args.cpu, tiles_by_name,
                           results)
    with open(args.output, "w", encoding="utf-8") as out:
        out.write(report)
    print(report, end="")
    print(f"run_placement: {time.monotonic() - start:.1f}s, "
          f"report: {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
