#!/usr/bin/env bash
# Golden-artifact gate: regenerate the five figure artifacts and the
# two region runs that CI pins and diff them against tests/golden/. Every
# run is --threads 1; the artifacts are deterministic, so any diff is
# a real behavioural change, not noise.
#
# Usage: tools/check_golden.sh [--build-dir DIR] [--update]
#   --build-dir DIR  where the bench/ and tools/ binaries live
#                    (default: build)
#   --update         rewrite tests/golden/ from the current binaries
#                    instead of diffing (use after an intentional
#                    output change; commit the result)
#
# Exits nonzero if a binary is missing, fails to run, or its output
# differs from the committed golden copy.

set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
UPDATE=0
while [ "$#" -gt 0 ]; do
    case "$1" in
      --build-dir) BUILD_DIR=$2; shift 2 ;;
      --update) UPDATE=1; shift ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

GOLDEN_DIR=tests/golden

# golden-name:binary:extra-args, the binary relative to the build
# tree. fig09a gets a short horizon so the gate stays fast; the
# full-horizon run is the bench's own business. region_4x64_6h is a
# small 4-MSB scenario with every outage in its second hour; every
# rack sits at its clamp, so nothing is capped. region_4x64_3h_binding
# loads each MSB to ~0.43 MW under a 1.68 MW region budget with all
# outages at once: the split binds, every rack is capped at some
# point, and P1/P2 SLAs are missed, so grants and capping are pinned.
ARTIFACTS=(
    "fig09a_aor_vs_charge_time:bench/fig09a_aor_vs_charge_time:--years 2000"
    "fig13_charging_comparison:bench/fig13_charging_comparison:"
    "fig14_sla_vs_power_limit:bench/fig14_sla_vs_power_limit:"
    "fig15_priority_distributions:bench/fig15_priority_distributions:"
    "ablation_ordering:bench/ablation_ordering:"
    "region_4x64_6h:tools/dcbatt_region:--msbs 4 --racks-per-msb 64 --duration-hours 6 --first-outage-hours 1"
    "region_4x64_3h_binding:tools/dcbatt_region:--msbs 4 --racks-per-msb 64 --mean-mw-per-msb 0.4267 --duration-hours 3 --first-outage-hours 1 --stagger-seconds 0 --coordination-seconds 3 --budget-mw 1.68"
)

FAILURES=()
for spec in "${ARTIFACTS[@]}"; do
    name=${spec%%:*}
    rest=${spec#*:}
    binary=$BUILD_DIR/${rest%%:*}
    extra=${rest#*:}
    golden=$GOLDEN_DIR/$name.txt
    if [ ! -x "$binary" ]; then
        echo "MISSING  $binary (build the '$BUILD_DIR' tree first)" >&2
        FAILURES+=("$name: binary missing")
        continue
    fi
    # shellcheck disable=SC2086  # $extra is intentionally word-split
    if ! "$binary" --threads 1 $extra > "/tmp/golden_$name.txt" \
            2> "/tmp/golden_$name.stderr"; then
        echo "RUNFAIL  $name" >&2
        sed 's/^/    /' "/tmp/golden_$name.stderr" >&2
        FAILURES+=("$name: run failed")
        continue
    fi
    if [ "$UPDATE" -eq 1 ]; then
        mkdir -p "$GOLDEN_DIR"
        cp "/tmp/golden_$name.txt" "$golden"
        echo "UPDATED  $golden"
    elif [ ! -f "$golden" ]; then
        echo "MISSING  $golden (run with --update to create)" >&2
        FAILURES+=("$name: golden missing")
    elif ! diff -u "$golden" "/tmp/golden_$name.txt" \
            > "/tmp/golden_$name.diff"; then
        echo "DIFF     $name (first 20 lines of the unified diff;" \
             "full diff: /tmp/golden_$name.diff)" >&2
        head -n 20 "/tmp/golden_$name.diff" >&2
        diff_lines=$(wc -l < "/tmp/golden_$name.diff")
        if [ "$diff_lines" -gt 20 ]; then
            echo "    ... ($((diff_lines - 20)) more diff lines)" >&2
        fi
        FAILURES+=("$name: output changed")
    else
        echo "OK       $name"
    fi
done

if [ "${#FAILURES[@]}" -gt 0 ]; then
    echo
    echo "Golden-artifact check FAILED:" >&2
    printf '  %s\n' "${FAILURES[@]}" >&2
    echo "If the change is intentional:" \
         "tools/check_golden.sh --update && git add tests/golden" >&2
    exit 1
fi
[ "$UPDATE" -eq 1 ] || echo "All golden artifacts match."
