#!/usr/bin/env bash
#
# bench_to_json.sh — capture the repo's performance baseline as JSON.
#
# Runs the google-benchmark microbenchmarks (ns/op) plus wall-clock
# timings of the two heaviest figure artifacts at 1 and N worker
# threads, and merges everything into one JSON document.
#
# Reproduce the committed baseline with:
#
#   cmake --preset release && cmake --build build-release -j
#   tools/bench_to_json.sh build-release BENCH_perf.json
#
# Usage: tools/bench_to_json.sh [BUILD_DIR] [OUTPUT_JSON] [THREADS]
#   BUILD_DIR    defaults to build-release (fall back to build)
#   OUTPUT_JSON  defaults to BENCH_perf.json
#   THREADS      defaults to the machine's hardware concurrency
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build-release}
[ -d "$BUILD_DIR" ] || BUILD_DIR=build
OUT=${2:-BENCH_perf.json}
THREADS=${3:-$(nproc)}

MICRO="$BUILD_DIR/bench/micro_policies"
FIG09A="$BUILD_DIR/bench/fig09a_aor_vs_charge_time"
FIG13="$BUILD_DIR/bench/fig13_charging_comparison"
REGION="$BUILD_DIR/bench/region_scale"
for bin in "$MICRO" "$FIG09A" "$FIG13" "$REGION"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin not built (build $BUILD_DIR first)" >&2
        exit 1
    fi
done

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Three repetitions, median kept: single-shot numbers on a loaded
# build host swing +/-10% and trip the CI ratio gate spuriously.
echo "[bench_to_json] micro_policies (google-benchmark)..." >&2
"$MICRO" --benchmark_format=json \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="$TMP/micro.json" \
    --benchmark_out_format=json >&2

# Wall-clock one artifact run; prints seconds with ms resolution.
wall() {
    local start end
    start=$(date +%s%N)
    "$@" > /dev/null 2> /dev/null
    end=$(date +%s%N)
    awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f", (e - s) / 1e9 }'
}

echo "[bench_to_json] fig09a wall time (1 vs $THREADS threads)..." >&2
F9_T1=$(wall "$FIG09A" --threads 1)
F9_TN=$(wall "$FIG09A" --threads "$THREADS")
echo "[bench_to_json] fig13 wall time (1 vs $THREADS threads)..." >&2
F13_T1=$(wall "$FIG13" --threads 1)
F13_TN=$(wall "$FIG13" --threads "$THREADS")

# Region-scale benchmark: the binary times itself (1 vs THREADS
# workers), checks determinism, and reports wall/RSS/efficiency in a
# JSON side file merged below. Gated by check_region_scaling.py in CI.
echo "[bench_to_json] region_scale (1 vs $THREADS threads)..." >&2
"$REGION" --threads "$THREADS" --perf-json "$TMP/region.json" \
    > /dev/null 2> /dev/null

python3 - "$TMP/micro.json" "$OUT" "$TMP/region.json" <<EOF
import json, platform, sys

with open(sys.argv[1]) as f:
    micro = json.load(f)
with open(sys.argv[3]) as f:
    region = json.load(f)

# Repetition aggregates are named "<bench>_median"; fall back to the
# raw iteration rows if the benchmark binary emitted no aggregates.
rows = [(b["name"][: -len("_median")], b)
        for b in micro["benchmarks"] if b["name"].endswith("_median")]
if not rows:
    rows = [(b["name"], b) for b in micro["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"]

doc = {
    "schema": "dcbatt-bench-v1",
    "host": {
        "machine": platform.machine(),
        "hardware_threads": $(nproc),
        "build_dir": "$BUILD_DIR",
    },
    # A benchmark registered with MeasureProcessCPUTime() alone (its
    # name ends in /process_time) is recorded in process CPU time, the
    # quantity it asks for; every other one in wall time.
    "micro_ns_per_op": {
        name: b["cpu_time" if name.endswith("/process_time")
                else "real_time"]
        * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[b["time_unit"]]
        for name, b in rows
    },
    "artifact_wall_seconds": {
        "fig09a_aor_vs_charge_time": {"threads_1": $F9_T1,
                                      "threads_$THREADS": $F9_TN},
        "fig13_charging_comparison": {"threads_1": $F13_T1,
                                      "threads_$THREADS": $F13_TN},
    },
    "region_scale": region,
}

with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"[bench_to_json] wrote {sys.argv[2]}", file=sys.stderr)
EOF
