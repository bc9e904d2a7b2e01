#!/usr/bin/env python3
"""Self-test of the wharf benchmark at a tiny size.

    python3 wharfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and
traced, and asserts that each run is correct, fails
no op, and reports every named metric with a finite value and its unit.
"""

import json
import math
import os
import subprocess
import sys


def run(workload, trace):
    command = [sys.executable, "wharfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{workload}: {metric['name']} missing"
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
                assert got["unit"] == metric["unit"], (metric, got)
            assert len(result["metrics"]) == len(spec[section]), sorted(result["metrics"])
            print(f"ok  {workload:15s} trace={trace}  {len(result['metrics'])} metrics")


if __name__ == "__main__":
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    main()
