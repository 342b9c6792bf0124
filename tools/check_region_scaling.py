#!/usr/bin/env python3
"""Gate the region engine's thread-scaling efficiency and memory bound.

Reads the ``region_scale`` section of BENCH_perf.json (written by
bench/region_scale via tools/bench_to_json.sh, or a raw --perf-json
side file passed directly) and fails when:

  * the N-lane scaling efficiency falls below the committed floor; or
  * peak RSS exceeds the bound implied by --max-rss-mib (if given).

Efficiency is speedup / ceiling. When the file records
``ceiling_speedup`` (region_scale's probe: N one-lane runs at once,
their throughput over one run's), that is the ceiling: what this host
gives N independent copies of the same work, memory bandwidth and
shared cores included. Otherwise the ceiling is usable_cores =
min(threads, --cores), so oversubscribing lanes does not fail the gate.

The floor is deliberately conservative: the per-MSB shards share a
coordination barrier once per simulated minute, so perfect linearity
is impossible, but a healthy build clears 0.55 of the ceiling with
room to spare.

Usage:
  tools/check_region_scaling.py [BENCH_perf.json]
      [--floor 0.55] [--cores N] [--max-rss-mib MB] [--summary PATH]

--summary appends a Markdown table (for $GITHUB_STEP_SUMMARY).
Exit codes: 0 ok, 1 gate failed, 2 input missing/malformed.
"""

import argparse
import json
import os
import sys


def fail(msg: str) -> None:
    print(f"check_region_scaling: FAIL: {msg}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", nargs="?", default="BENCH_perf.json")
    parser.add_argument("--floor", type=float, default=0.55,
                        help="minimum scaling efficiency (default 0.55)")
    parser.add_argument("--cores", type=int, default=0,
                        help="physical cores available (default: "
                             "hardware_threads recorded in the JSON, "
                             "else os.cpu_count())")
    parser.add_argument("--max-rss-mib", type=float, default=0.0,
                        help="fail if peak RSS exceeds this (0 = off)")
    parser.add_argument("--summary", default="",
                        help="append a Markdown summary table here")
    args = parser.parse_args()

    try:
        with open(args.bench_json) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.bench_json}: {e}")
        return 2

    # Accept either the merged BENCH_perf.json or a raw region side
    # file from `region_scale --perf-json`.
    region = doc.get("region_scale", doc)
    required = ("wall_seconds", "threads", "scaling_efficiency",
                "peak_rss_mib")
    missing = [k for k in required if k not in region]
    if missing:
        fail(f"{args.bench_json} has no region_scale data "
             f"(missing {', '.join(missing)}); "
             "regenerate with tools/bench_to_json.sh")
        return 2

    threads = int(region["threads"])
    cores = args.cores or int(region.get("hardware_threads", 0)) \
        or os.cpu_count() or 1
    walls = region["wall_seconds"]
    wall_1 = float(walls.get("threads_1", 0.0))
    wall_n = float(walls.get(f"threads_{threads}", 0.0))
    speedup = wall_1 / wall_n if wall_n > 0 else 0.0
    ceiling = float(region.get("ceiling_speedup", 0.0))
    if ceiling > 0:
        basis = f"/{ceiling:.2f}x probe ceiling"
    else:
        ceiling = max(1, min(threads, cores))
        basis = f"/{ceiling} usable cores"
    efficiency = speedup / ceiling
    rss = float(region["peak_rss_mib"])

    rows = [
        ("MSBs x racks",
         f"{region.get('msbs', '?')} x {region.get('racks', '?')}"),
        ("wall lanes=1", f"{wall_1:.2f} s"),
        (f"wall lanes={threads}", f"{wall_n:.2f} s"),
        ("speedup", f"{speedup:.2f}x"),
        (f"efficiency ({basis})", f"{efficiency:.2f}"),
        ("efficiency floor", f"{args.floor:.2f}"),
        ("peak RSS", f"{rss:.1f} MiB"),
    ]
    for name, value in rows:
        print(f"  {name:<34} {value}")

    if args.summary:
        with open(args.summary, "a") as f:
            f.write("### Region thread-scaling gate\n\n")
            f.write("| metric | value |\n|---|---|\n")
            for name, value in rows:
                f.write(f"| {name} | {value} |\n")
            f.write("\n")

    ok = True
    if efficiency < args.floor:
        fail(f"scaling efficiency {efficiency:.2f} below the "
             f"committed floor {args.floor:.2f} "
             f"(speedup {speedup:.2f}x, ceiling {basis[1:]})")
        ok = False
    if args.max_rss_mib > 0 and rss > args.max_rss_mib:
        fail(f"peak RSS {rss:.1f} MiB exceeds bound "
             f"{args.max_rss_mib:.1f} MiB — streaming window "
             "eviction may be broken")
        ok = False
    if ok:
        print("check_region_scaling: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
