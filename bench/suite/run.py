#!/usr/bin/env python3
"""Benchmark runner for the simulator (see README.md beside this file).

Every mode first builds drbench into build-bench/ at the repository root
(a standalone CMake project: bench/suite/CMakeLists.txt).

A *run* measures one workload for about --seconds seconds: it launches
a fixed number of drbench processes (--seconds / 4.5) one at a time,
each simulating the workload once with --seed.
drbench times every advance() chunk and every other call of the
simulation; the run keeps each timed step's fastest repeat, so wall_s
and sim_cycles_per_s describe the simulation with host contention
filtered out. Every process's fingerprint is checked: against
golden.json for seed 42, else against the run's first process.

  run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      One run. Prints one JSON line last: {"correct", "attempted",
      "failed", "metrics"}, the metrics being the end-to-end ones
      (trace 0) or the per-layer ones (trace 1).
  run.py [--repeats N] [--seed N] [--seconds S] [--trace] [--out FILE]
      N runs of every workload, round-robin; with --trace, then one
      traced run per workload. Prints median, quartiles and n per
      (metric, workload) and writes FILE (default build-bench/results.json).
  run.py compare PARENT.json CHANGE.json
      Verdict per (metric, workload): gain, regression, unresolved or
      no regression.
  run.py pairs PARENT_DRBENCH CHANGE_DRBENCH [--repeats N] [--seed N]
               [--seconds S] [--out-dir DIR]
      Runs two drbench binaries in parent/change pairs, alternating which
      goes first, writes DIR/parent.json and DIR/change.json and compares
      them.
  run.py golden
      Rewrites golden.json from seed 42 of every workload, run with
      --unchunked. Only a change that means to alter simulated results
      runs this.

--drbench PATH runs an already-built drbench instead of building one.
Exit status is non-zero when the build fails, an argument is malformed,
a run fails its check, or compare finds a regression.
"""

import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build-bench")
DRBENCH = os.path.join(BUILD_DIR, "drbench")
TRACE_DIR = os.path.join(BUILD_DIR, "trace")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 42
# Each workload is sized so one process takes about this long.
PROCESS_SECONDS = 4.5
# A process is killed, and fails, after this long.
PROCESS_TIMEOUT_S = 120
# Traced counterpart processes: the flags they add to the workload and
# the per-layer metric they feed.
COUNTERPARTS = {
    "chiplet256_dr_t4": (["--threads", "1"], "core.threads_slowdown"),
    "paper_lowload": (["--idle-skip", "0"], "core.idle_skip_speedup"),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


class UsageError(Exception):
    pass


def whole(text, name, minimum=0):
    """A whole number written as digits only (no sign, blanks or '_')."""
    if not re.fullmatch(r"[0-9]+", text):
        raise UsageError(f"{name} '{text}' is not a whole number")
    value = int(text)
    if not minimum <= value < 2 ** 64:
        raise UsageError(f"{name} '{text}' is out of range "
                         f"[{minimum}, 2^64)")
    return value


def positive_seconds(text):
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text) or float(text) <= 0:
        raise UsageError(f"--seconds '{text}' is not a positive number")
    return float(text)


def workload_name(text):
    if text not in WORKLOADS:
        raise UsageError(f"unknown workload '{text}'")
    return text


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build and provenance

def build():
    """Configure (once) and build drbench; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "drbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False).returncode
        except OSError as err:
            rc = err
        if rc != 0:
            log(f"run.py: build failed ({rc}): " + " ".join(cmd))
            sys.exit(2)


def compiler():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt"),
                  encoding="utf-8") as fh:
            path = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", fh.read(),
                             re.M).group(1)
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, check=False).stdout
    except (OSError, AttributeError):
        return "unknown"
    return out.splitlines()[0] if out else path


def commit():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(load_before):
    """Host, compiler and commit. Flags (does not refuse) a set started
    while the 1-min loadavg exceeded half the cores. The loadavg after a
    set includes the set's own load (chiplet256_dr_t4 runs 4 threads), so
    it is recorded but not judged."""
    nproc = os.cpu_count() or 1
    load_after = os.getloadavg()[0]
    loaded = load_before > nproc / 2
    if loaded:
        log(f"run.py: WARNING: 1-min loadavg {load_before:.2f} exceeded "
            f"half of {nproc} cores when the set started; it was measured "
            "on a loaded host")
    return {"nproc": nproc, "loadavg_before": load_before,
            "loadavg_after": load_after, "loaded": loaded,
            "compiler": compiler(), "commit": commit()}


# ---------------------------------------------------------------------
# Processes and checks

def launch(binary, workload, seed, extra=()):
    """One drbench process. Returns its parsed result plus "ok", "error"
    and "elapsed"; a crash, timeout or fatal/panic is a failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"ok": False, "elapsed": time.monotonic() - start,
                "error": f"timed out after {PROCESS_TIMEOUT_S}s"}
    except OSError as err:
        return {"ok": False, "elapsed": 0.0, "error": str(err)}
    result = {}
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    elif re.search(r"^(fatal|panic):", proc.stderr, re.M):
        error = "fatal/panic on stderr"
    else:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "no JSON result on stdout"
    if error and proc.stderr.strip():
        error += ": " + proc.stderr.strip().splitlines()[-1]
    result.update(ok=error is None, error=error,
                  elapsed=time.monotonic() - start)
    return result


def golden(workload):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def check(result, reference):
    """Fails `result` unless its fingerprint matches `reference` (None:
    nothing to match yet) and every checked output is a positive finite
    number. Returns the reference for the later processes."""
    if not result["ok"]:
        return reference
    bad = [k for k, v in result["outputs"].items()
           if not (isinstance(v, (int, float)) and math.isfinite(v)
                   and v > 0)]
    if bad:
        result["ok"] = False
        result["error"] = "non-positive checked outputs: " + ", ".join(bad)
        return reference
    if reference is None:
        return {"fingerprint": result["fingerprint"],
                "outputs": result["outputs"]}
    if result["fingerprint"] != reference["fingerprint"]:
        diffs = [f"{k}: expected {reference['outputs'].get(k)!r}, "
                 f"got {v!r}" for k, v in result["outputs"].items()
                 if reference["outputs"].get(k) != v]
        result["ok"] = False
        result["error"] = "fingerprint mismatch (" + ("; ".join(diffs) or (
            f"{reference['fingerprint']} expected, "
            f"{result['fingerprint']} got")) + ")"
    return reference


# ---------------------------------------------------------------------
# One run

def repeats_for(seconds):
    """Processes per run. The per-step minimum falls as repeats are
    added, so every run of a given length repeats equally often; each
    process is sized to about PROCESS_SECONDS on the host in README.md."""
    return max(2, round(seconds / PROCESS_SECONDS))


def measure(binary, workload, seed, seconds, traced, ref):
    """One run: repeats_for(seconds) processes of `seed`, one at a time.

    Traced, half as many rounds each run an untraced process, a traced
    one and the workload's counterpart, if it has one.
    `ref` holds the reference fingerprint under "ref" and persists
    across the runs of one seed. Stops at the first failure."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, workload + ".json")
    flags, counter_metric = COUNTERPARTS.get(workload, ((), None))
    run = {"attempted": 0, "failed": 0, "plain": [], "traced": [],
           "counterpart": []}
    if seed == GOLDEN_SEED and "ref" not in ref:
        ref["ref"] = golden(workload)

    def step(kind, extra=()):
        result = launch(binary, workload, seed, extra)
        run["attempted"] += 1
        ref["ref"] = check(result, ref.get("ref"))
        if not result["ok"]:
            run["failed"] += 1
            log(f"run.py: FAILED {workload} seed {seed} ({kind}): "
                f"{result['error']}")
        else:
            run[kind].append(result)
        return result["ok"]

    repeats = repeats_for(seconds)
    for _ in range(max(2, repeats // 2) if traced else repeats):
        if not step("plain"):
            break
        if not traced:
            continue
        if not step("traced", ["--trace", trace_path]):
            break
        if counter_metric and not step(
                "counterpart", ["--trace", os.path.join(
                    TRACE_DIR, workload + "-counterpart.json"), *flags]):
            break
    return run


def best_of(results, key):
    """Each timed step's minimum over the processes, summed (ms)."""
    steps = [r[key] for r in results]
    if len({len(s) for s in steps}) != 1:
        raise ValueError(f"processes timed different numbers of {key} "
                         "steps")
    return sum(min(column) for column in zip(*steps))


def composite(results):
    """wall_s and sim_cycles_per_s of repeats of one simulation: every
    timed step at its fastest, which filters out host contention."""
    advance = best_of(results, "advance_ms")
    wall = advance + best_of(results, "other_ms")
    return {"wall_s": wall / 1e3,
            "sim_cycles_per_s": results[0]["cycles"] / (advance / 1e3)}


def end_to_end(run):
    plain = run["plain"]
    out = composite(plain)
    out["setup_s"] = statistics.median(r["setup_s"] for r in plain)
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    return out


def percentile(values, pct):
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[max(1, math.ceil(len(values) * pct / 100)) - 1]


def per_layer(run):
    """Per-layer metrics of a traced run. Simulated counts repeat
    exactly; host times are medians over the traced processes; chunk
    percentiles pool every chunk they timed. A metric the workload does
    not exercise reads 0 (README.md)."""
    traced = run["traced"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in traced[0]["counts"].items() if k in out})
    for name in traced[0]["host"]:
        if name in out:
            out[name] = statistics.median(r["host"][name] for r in traced)
    chunks = [ms for r in traced for ms in r["advance_ms"]]
    out["core.chunk_ms_p50"] = percentile(chunks, 50)
    out["core.chunk_ms_p95"] = percentile(chunks, 95)
    out["core.chunks"] = float(len(chunks))
    if run["counterpart"]:
        # threads 4 (main) / threads 1; idle skip off (counterpart) / on.
        main = best_of(traced, "advance_ms")
        other = best_of(run["counterpart"], "advance_ms")
        name = COUNTERPARTS[traced[0]["workload"]][1]
        out[name] = (main / other if name == "core.threads_slowdown"
                     else other / main)
    out["trace_overhead"] = (composite(traced)["wall_s"] /
                             composite(run["plain"])["wall_s"] - 1.0)
    return out


def self_times(path):
    """Self time per span name in ms: each span's duration minus the
    durations of its direct children."""
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        children[parent] = children.get(parent, 0.0) + e["dur"]
    totals = {}
    for e in events:
        own = e["dur"] - children.get(e["args"]["span"], 0.0)
        totals[e["name"]] = totals.get(e["name"], 0.0) + own / 1e3
    return totals


# ---------------------------------------------------------------------
# Sets of runs

def summarize(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def record(entry, run):
    """Adds one untraced run to a workload's entry in a result set."""
    entry["attempted"] += run["attempted"]
    entry["failed"] += run["failed"]
    entry["runs"].append(None if run["failed"] else end_to_end(run))


def run_set(binary, seed, seconds, repeats, traced):
    """`repeats` runs of every workload, round-robin so slow host drift
    hits every workload evenly; with `traced`, one traced run each."""
    refs = {w: {} for w in WORKLOADS}
    out = {w: {"attempted": 0, "failed": 0, "runs": []} for w in WORKLOADS}
    for rep in range(repeats):
        for w in WORKLOADS:
            run = measure(binary, w, seed, seconds, False, refs[w])
            record(out[w], run)
            log(f"run.py: [{rep + 1}/{repeats}] {w}: "
                f"{'FAILED' if run['failed'] else 'ok'}, "
                f"{len(run['plain'])} processes")
    # Twice the run length, so that the per-layer ratios compare more
    # repeats.
    for w in WORKLOADS if traced else ():
        run = measure(binary, w, seed, 2 * seconds, True, refs[w])
        out[w]["attempted"] += run["attempted"]
        out[w]["failed"] += run["failed"]
        if not run["failed"]:
            out[w]["layers"] = per_layer(run)
            out[w]["self_ms"] = self_times(
                os.path.join(TRACE_DIR, w + ".json"))
    for entry in out.values():
        ok = [r for r in entry["runs"] if r]
        entry["summary"] = {name: summarize([r[name] for r in ok])
                            for name in END_TO_END} if ok else {}
    return out


def fmt(value):
    return f"{value:.6g}"


def print_set(workloads):
    print(f"{'workload':<18} {'metric':<17} {'unit':<9} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}")
    for w, entry in workloads.items():
        for name, s in entry["summary"].items():
            print(f"{w:<18} {name:<17} {END_TO_END[name]['unit']:<9} "
                  f"{fmt(s['median']):>12} {fmt(s['q1']):>12} "
                  f"{fmt(s['q3']):>12} {s['n']:>3}")
        rate = entry["failed"] / max(1, entry["attempted"])
        print(f"{w:<18} {'error_rate':<17} {'share':<9} {fmt(rate):>12} "
              f"{'':>12} {'':>12} {entry['attempted']:>3}")
    for w, entry in workloads.items():
        if "layers" not in entry:
            continue
        print(f"\n{w}: per-layer metrics (traced run)")
        for name, value in entry["layers"].items():
            print(f"  {name:<28} {fmt(value):>14} {PER_LAYER[name]['unit']}")
        print(f"{w}: self time per span, ms (last traced process)")
        for name, ms in sorted(entry["self_ms"].items(),
                               key=lambda kv: -kv[1]):
            print(f"  {name:<28} {ms:>14.3f}")


# ---------------------------------------------------------------------
# Compare

def verdict(metric, parent, change):
    """Verdict for one (metric, workload) from runs paired in order."""
    n = min(len(parent), len(change))
    if n == 0:
        return "unresolved", "no runs to pair"
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    p, c = summarize(parent), summarize(change)
    wins = sum(better(cv, pv) for pv, cv in zip(parent[:n], change[:n]))
    worse = (c["median"] - p["median"]) / p["median"] * (1 if lower else -1)
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (p, c))
    detail = (f"parent {fmt(p['median'])} [{fmt(p['q1'])}, "
              f"{fmt(p['q3'])}], change {fmt(c['median'])} "
              f"[{fmt(c['q1'])}, {fmt(c['q3'])}], change wins {wins}/{n}, "
              f"worse by {worse:+.1%}, spread {spread:.1%}")
    if (10 * wins >= 9 * n and better(c["median"], p["median"])
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "gain", detail
    if spread > metric["bound"] and not all(
            better(cv, pv) for cv in change for pv in parent):
        return "unresolved", detail
    if worse > metric["bound"]:
        return "regression", detail
    return "no regression", detail


def compare(parent, change):
    """Prints and returns a verdict per (metric, workload)."""
    verdicts = {}
    for w in WORKLOADS:
        pw, cw = parent["workloads"].get(w), change["workloads"].get(w)
        if not pw or not cw:
            continue
        for name, metric in END_TO_END.items():
            verdicts[(name, w)] = verdict(
                metric, [r[name] for r in pw["runs"] if r],
                [r[name] for r in cw["runs"] if r])
        # error_rate: failed share of attempted processes, bound 0.
        pr = pw["failed"] / max(1, pw["attempted"])
        cr = cw["failed"] / max(1, cw["attempted"])
        verdicts[("error_rate", w)] = (
            "regression" if cr > pr else "gain" if cr < pr else
            "no regression",
            f"parent {pr:.1%} of {pw['attempted']}, "
            f"change {cr:.1%} of {cw['attempted']}")
    for (name, w), (v, detail) in verdicts.items():
        print(f"{w:<18} {name:<17} {v:<14} {detail}")
    return verdicts


def write_golden(binary):
    data = {"seed": GOLDEN_SEED, "workloads": {}}
    for w in WORKLOADS:
        result = launch(binary, w, GOLDEN_SEED, ["--unchunked"])
        reference = check(result, None)
        if not result["ok"]:
            log(f"run.py: {w}: {result['error']}")
            return 1
        data["workloads"][w] = reference
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    log(f"run.py: wrote {GOLDEN_PATH}")
    return 0


def run_pairs(parent_bin, change_bin, seed, seconds, repeats, out_dir):
    sides = {"parent": parent_bin, "change": change_bin}
    sets = {s: {"seed": seed, "seconds": seconds, "repeats": repeats,
                "drbench": b, "workloads": {
                    w: {"attempted": 0, "failed": 0, "runs": []}
                    for w in WORKLOADS}} for s, b in sides.items()}
    refs = {s: {w: {} for w in WORKLOADS} for s in sides}
    load_before = os.getloadavg()[0]
    for rep in range(repeats):
        for w in WORKLOADS:
            order = ("parent", "change") if rep % 2 == 0 else (
                "change", "parent")
            for side in order:
                record(sets[side]["workloads"][w],
                       measure(sides[side], w, seed, seconds, False,
                               refs[side][w]))
    os.makedirs(out_dir, exist_ok=True)
    prov = provenance(load_before)
    for side, data in sets.items():
        data["provenance"] = prov
        with open(os.path.join(out_dir, side + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return sets["parent"], sets["change"]


# ---------------------------------------------------------------------
# Command line

def take(argv, name, default, parse):
    """Removes `name VALUE` from argv and returns parse(VALUE)."""
    if name not in argv:
        return default
    i = argv.index(name)
    if i + 1 >= len(argv):
        raise UsageError(f"missing value for {name}")
    value = argv[i + 1]
    del argv[i:i + 2]
    return parse(value)


def take_flag(argv, name):
    if name in argv:
        argv.remove(name)
        return True
    return False


def no_more(argv):
    if argv:
        raise UsageError("unexpected arguments: " + " ".join(argv))


def exit_code(verdicts):
    return 1 if any(v == "regression" for v, _ in verdicts.values()) else 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    mode = argv.pop(0) if argv[:1] in (
        ["compare"], ["pairs"], ["golden"]) else "run"
    try:
        seed = take(argv, "--seed", GOLDEN_SEED, lambda t: whole(t, "--seed"))
        seconds = take(argv, "--seconds", float(SPEC["run_seconds"]),
                       positive_seconds)
        repeats = take(argv, "--repeats", 10 if mode == "pairs" else 5,
                       lambda t: whole(t, "--repeats", 1))
        if mode == "compare":
            if len(argv) != 2:
                raise UsageError("usage: run.py compare PARENT.json "
                                 "CHANGE.json")
            sets = []
            for path in argv:
                with open(path, encoding="utf-8") as fh:
                    sets.append(json.load(fh))
            return exit_code(compare(*sets))
        if mode == "pairs":
            out_dir = take(argv, "--out-dir",
                           os.path.join(BUILD_DIR, "pairs"), str)
            if len(argv) != 2:
                raise UsageError("usage: run.py pairs PARENT_DRBENCH "
                                 "CHANGE_DRBENCH [--repeats N] [--seed N] "
                                 "[--seconds S] [--out-dir DIR]")
            return exit_code(compare(*run_pairs(
                argv[0], argv[1], seed, seconds, repeats, out_dir)))
        drbench = take(argv, "--drbench", None, str)
        workload = take(argv, "--workload", None, workload_name)
        if workload is not None:
            traced = take(argv, "--trace", "0", str)
            if traced not in ("0", "1"):
                raise UsageError(f"--trace '{traced}' is not 0 or 1")
            traced = traced == "1"
        else:
            traced = take_flag(argv, "--trace")
            out_path = take(argv, "--out", os.path.join(
                BUILD_DIR, "results.json"), str)
        no_more(argv)
    except UsageError as err:
        log(f"run.py: {err}")
        log("run.py: workloads: " + ", ".join(WORKLOADS) +
            "; --seed/--repeats take whole numbers, --seconds a positive "
            "number, --trace 0 or 1")
        return 2
    except (OSError, ValueError) as err:
        log(f"run.py: {err}")
        return 2

    load_before = os.getloadavg()[0]
    if drbench is None:
        build()
        drbench = DRBENCH
    if mode == "golden":
        return write_golden(drbench)

    if workload is not None:
        run = measure(drbench, workload, seed, seconds, traced, {})
        metrics = {}
        if not run["failed"]:
            values = per_layer(run) if traced else end_to_end(run)
            defs = PER_LAYER if traced else END_TO_END
            metrics = {name: {"value": values[name], "unit": m["unit"]}
                       for name, m in defs.items()}
        log(f"run.py: {workload} seed {seed}: {run['attempted']} processes"
            f", {len(run['plain'])} measured")
        log("run.py: provenance " + json.dumps(provenance(load_before)))
        print(json.dumps({"correct": run["failed"] == 0,
                          "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": metrics}))
        return 1 if run["failed"] else 0

    out = {"seed": seed, "seconds": seconds, "repeats": repeats,
           "workloads": run_set(drbench, seed, seconds, repeats, traced)}
    out["provenance"] = provenance(load_before)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print_set(out["workloads"])
    print(f"\nresults: {out_path}")
    return 1 if any(e["failed"] for e in out["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
