#!/usr/bin/env python3
"""Runs one workload of the wharf benchmark from the root of a checkout.

    python3 wharfbench/run.py --workload analyze_stream --seed 1 --seconds 10 --trace 0

Builds the library, the `wharf` CLI and the harness from source into
$CARGO_TARGET_DIR (default .bench_build) on first use, then runs the
harness and passes its output through; the last line is the result
object.  With --trace 1 the spans of the traced run are written to
<build dir>/traces/<workload>-<seed>.jsonl.  See wharfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("analyze_stream", "saturation", "search_hill", "serve_sessions")
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"wharfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds; all build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "engine", "engine.hpp")):
        fail(f"no wharf sources under {root}/src")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "wharfbench")
    build(root, build_dir)

    with open(os.path.join(HERE, "pinned_digests.json")) as f:
        pinned = json.load(f)
    command = [
        os.path.join(build_dir, "wharfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--wharf", os.path.join(build_dir, "wharf"),
    ]
    if pinned.get(args.workload):
        command += ["--expect-digest", pinned[args.workload]]
    if args.trace:
        traces = os.path.join(root, target, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")]
    # Own process group, so a timeout also stops a spawned server.
    harness = subprocess.Popen(command, start_new_session=True)
    try:
        code = harness.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        fail("harness timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
