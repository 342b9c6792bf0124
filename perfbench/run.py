#!/usr/bin/env python3
"""Run one dcbatt benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
simulator library and the benchmark program (perfbench/CMakeLists.txt)
under .bench_build/; later runs rebuild only what changed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics. The line before it is the run manifest (build, dispatch,
threads, seed, source revision) and any failed check. See
perfbench/BASELINE.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dcbatt_perfbench")

# The seed used while developing; claims are confirmed on the held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20201017

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Rounding allowance on the traced run's ledger shares.
LEDGER_TOL = 1e-9


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        try:
            proc = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step), 3)


def git_revision():
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_revision():
    """Git revision when available, and a hash of the built sources."""
    revision = git_revision()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return revision, digest.hexdigest()


def run_benchmark(workload, seed, seconds, trace, shrink=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if shrink:
        cmd.append("--shrink")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload, 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode), 4)
    return json.loads(lines[-1])


def expected_metrics(definition, trace):
    return definition["per_layer" if trace else "end_to_end"]


def select_metrics(definition, trace, produced):
    """The metrics BENCHMARK.json names, in its order, units checked."""
    metrics = {}
    for spec in expected_metrics(definition, trace):
        got = produced.get(spec["name"])
        if got is None:
            fail("metric %s missing from dcbatt_perfbench" % spec["name"], 5)
        if got["unit"] != spec["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]), 5)
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def self_test(definition):
    """Shrunken workloads: digests, failures and metric coverage."""
    problems = []
    for workload in [w["name"] for w in definition["workloads"]]:
        for trace in (0, 1):
            out = run_benchmark(workload, DEFAULT_SEED, 1, trace, shrink=True)
            tag = "%s --trace %d" % (workload, trace)
            if not out["correct"] or out["failed"] != 0:
                problems.append("%s: %s" % (tag, out["problems"]))
            metrics = select_metrics(definition, trace, out["metrics"])
            if trace:
                if metrics["harness_digest_match"]["value"] != 1:
                    problems.append(tag + ": harness digest != engine")
                # unattributed_frac is the remainder of the ledger, so the
                # shares always sum to 1. Double counting across spans or
                # lanes, or too large a wait, shows instead as a share
                # outside [0, 1]: named self time plus waiting must not
                # exceed the traced lane time.
                shares = {k: v["value"] for k, v in metrics.items()
                          if k.endswith("_frac")
                          and k != "trace_overhead_frac"}
                outside = sorted(k for k, v in shares.items()
                                 if not -LEDGER_TOL <= v <= 1 + LEDGER_TOL)
                if outside:
                    problems.append("%s: shares outside [0, 1]: %s"
                                    % (tag, outside))
                covered = metrics["wait_frac"]["value"] + sum(
                    v for k, v in shares.items() if k.endswith(".self_frac"))
                if covered > 1 + LEDGER_TOL:
                    problems.append("%s: self time + wait = %r of lane time"
                                    % (tag, covered))
            else:
                zero = [k for k, v in metrics.items() if not v["value"] > 0]
                if zero:
                    problems.append("%s: zero metrics %s" % (tag, zero))
            print("%-28s %d metrics, digest=%s" % (
                tag, len(metrics), out["manifest"].get("sim_digest", "-")))
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    definition = load_definition()
    build()
    if args.self_test:
        sys.exit(self_test(definition))

    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    seconds = args.seconds or definition["run_seconds"]
    out = run_benchmark(args.workload, args.seed, seconds, args.trace)
    metrics = select_metrics(definition, args.trace, out["metrics"])

    manifest = dict(out["manifest"])
    manifest["git_revision"], manifest["source_sha256"] = source_revision()
    manifest["held_out_seed"] = HELD_OUT_SEED
    print(json.dumps({"manifest": manifest, "problems": out["problems"]}))
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
