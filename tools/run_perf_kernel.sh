#!/bin/sh
# Run the NoC kernel-performance benchmark and emit BENCH_noc_kernel.json.
#
# Usage:
#   tools/run_perf_kernel.sh [BUILD_DIR] [OUTPUT_JSON] [BASELINE_JSON]
#
#   BUILD_DIR      build tree containing bench/perf_kernel (default: build)
#   OUTPUT_JSON    where to write the result (default: BENCH_noc_kernel.json)
#   BASELINE_JSON  optional committed baseline; when given, exit non-zero
#                  if any gated cycles/sec summary (uniform, hotspot,
#                  vnet_uniform, vnet_hotspot, chiplet_uniform) regressed
#                  by more than
#                  DR_PERF_REGRESSION_PCT percent (default 20).
#
# The emitted JSON is annotated with host provenance (core count, 1-min
# loadavg) so committed baselines stay comparable across machines. Every
# column pins its own thread count, so DR_NOC_THREADS has no effect.
# Writing a *baseline* (an output named like the committed
# BENCH_noc_kernel.json) is refused on a visibly loaded machine — 1-min
# loadavg above cores/2 — or on a host with fewer cores than the bench's
# widest thread-scaling column (4); set DR_BENCH_FORCE=1 to override.
#
# When BASELINE_JSON is given, the gate also checks end-to-end thread
# scaling on hosts with >= 4 cores: e2e_hetero threads4 must beat
# threads1 by DR_PERF_E2E_MIN_SPEEDUP (default 1.5x).
#
# DR_BENCH_CYCLES scales the measured horizon as for every bench binary.
set -eu

BUILD_DIR="${1:-build}"
OUTPUT="${2:-BENCH_noc_kernel.json}"
BASELINE="${3:-}"
BIN="$BUILD_DIR/bench/perf_kernel"

if [ ! -x "$BIN" ]; then
    echo "run_perf_kernel: $BIN not found (build the 'perf_kernel' target)" >&2
    exit 2
fi

CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
LOADAVG="$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)"

# The widest thread-scaling column the bench runs (uniform_r10_threads4
# and e2e_hetero_threads4). A baseline measured on a host with fewer
# cores than that time-slices the domain workers, so its threads>1
# columns record slowdown, not scaling.
THREADS_NEEDED=4

# A baseline measured while the machine was busy — or with fewer cores
# than the bench's widest thread column — undercuts every future
# comparison against it. Refuse unless explicitly forced.
case "$OUTPUT" in
*BENCH_noc_kernel.json)
    if [ "${DR_BENCH_FORCE:-0}" != "1" ] && [ "$CORES" -lt "$THREADS_NEEDED" ]; then
        echo "run_perf_kernel: refusing to write baseline $OUTPUT:" \
             "host has $CORES cores but the thread-scaling columns need" \
             "$THREADS_NEEDED; measure on a >=${THREADS_NEEDED}-core host" \
             "or set DR_BENCH_FORCE=1" >&2
        exit 3
    fi
    if [ "${DR_BENCH_FORCE:-0}" != "1" ] &&
       awk -v l="$LOADAVG" -v c="$CORES" 'BEGIN { exit !(l > c / 2) }'; then
        echo "run_perf_kernel: refusing to write baseline $OUTPUT:" \
             "1-min loadavg $LOADAVG exceeds half the $CORES host cores;" \
             "measure on an idle machine or set DR_BENCH_FORCE=1" >&2
        exit 3
    fi
    ;;
esac

"$BIN" > "$OUTPUT.tmp"

# Annotate with host provenance so the numbers can be judged later.
python3 - "$OUTPUT.tmp" "$OUTPUT" "$CORES" "$LOADAVG" <<'EOF'
import json
import sys

tmp_path, out_path, cores, loadavg = sys.argv[1:5]
with open(tmp_path) as f:
    result = json.load(f)
result["host"] = {
    "cores": int(cores),
    "loadavg_1min": float(loadavg),
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
EOF
rm -f "$OUTPUT.tmp"
echo "run_perf_kernel: wrote $OUTPUT (host: $CORES cores, loadavg $LOADAVG)"

if [ -z "$BASELINE" ]; then
    exit 0
fi
if [ ! -f "$BASELINE" ]; then
    echo "run_perf_kernel: baseline $BASELINE not found" >&2
    exit 2
fi

python3 - "$OUTPUT" "$BASELINE" "${DR_PERF_REGRESSION_PCT:-20}" <<'EOF'
import json
import os
import sys

current_path, baseline_path, threshold_pct = sys.argv[1:4]
threshold = float(threshold_pct)

with open(current_path) as f:
    current = json.load(f)
with open(baseline_path) as f:
    baseline = json.load(f)

# The committed baseline stores an "after" section (see EXPERIMENTS.md);
# a raw perf_kernel emission stores "summary" only.
base_summary = baseline.get("after", baseline)["summary"]
cur_summary = current["summary"]

# Gate every throughput summary both sides know about — the legacy
# uniform/hotspot metrics and the vnet workloads alike. Thread-scaling
# columns are machine-dependent (core count), so they are reported in
# the JSON but not gated.
gated = [
    "uniform_cycles_per_sec",
    "hotspot_cycles_per_sec",
    "vnet_uniform_cycles_per_sec",
    "vnet_hotspot_cycles_per_sec",
    "chiplet_uniform_cycles_per_sec",
]
failed = False
for key in gated:
    if key not in base_summary or key not in cur_summary:
        print(f"run_perf_kernel: {key}: not in both summaries, skipped")
        continue
    cur = cur_summary[key]
    base = base_summary[key]
    delta_pct = 100.0 * (cur - base) / base
    print(f"run_perf_kernel: {key} {cur:.0f} vs baseline "
          f"{base:.0f} ({delta_pct:+.1f}%)")
    if cur < base * (1.0 - threshold / 100.0):
        print(f"run_perf_kernel: {key}: REGRESSION beyond "
              f"{threshold:.0f}% threshold", file=sys.stderr)
        failed = True

# End-to-end thread-scaling gate: on a host with enough cores for the
# widest thread column, the 4-thread whole-system run must beat the
# 1-thread run by DR_PERF_E2E_MIN_SPEEDUP (default 1.5x). Skipped on
# narrower hosts, where the workers time-slice and scaling is
# meaningless.
min_speedup = float(os.environ.get("DR_PERF_E2E_MIN_SPEEDUP", "1.5"))
host_cores = current.get("host", {}).get("cores", 0)
# The shared DC-L1 column pair exercises the staged slice-port path
# (DESIGN.md §14); it is gated by the same speedup floor because the
# per-core banking exists precisely so that organization scales.
for prefix in ("e2e_hetero", "e2e_hetero_sharedL1"):
    t1 = cur_summary.get(f"{prefix}_threads1_cycles_per_sec", 0.0)
    t4 = cur_summary.get(f"{prefix}_threads4_cycles_per_sec", 0.0)
    if t1 <= 0.0 or t4 <= 0.0:
        continue
    if host_cores >= 4:
        speedup = t4 / t1
        print(f"run_perf_kernel: {prefix} 4-thread speedup "
              f"{speedup:.2f}x (threads1 {t1:.0f}, threads4 {t4:.0f} "
              f"cycles/sec)")
        if speedup < min_speedup:
            print(f"run_perf_kernel: {prefix} scaling REGRESSION: "
                  f"{speedup:.2f}x < required {min_speedup:.2f}x",
                  file=sys.stderr)
            failed = True
    else:
        print(f"run_perf_kernel: {prefix} scaling gate skipped "
              f"(host has {host_cores} cores, need >= 4)")

if failed:
    sys.exit(1)
EOF
