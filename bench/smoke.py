"""Self-test of the benchmark: every workload, shrunken, through run.py.

    python3 bench/smoke.py

For each workload and both trace modes it checks that the last line of
output is the result object, that every metric BENCHMARK.json names for
that mode is reported with its unit, and that every correctness check
passed.  It then repeats one traced run with the same seed, which must
record identical checked statistics, and runs once more with a second
seed.  Exits 1 on the first failure.  Not collected by pytest: it takes
about two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{workload} seed {seed}: checks failed\n{proc.stdout}")
    return result


def checked_values(workload, seed, trace):
    with open(os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return [value for _, _, value, _ in json.load(fh)["checks"]]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run(workload, 1, trace)["metrics"]
            for metric in spec[group]:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    raise AssertionError(
                        f"{workload} trace {trace}: {metric['name']} reported as {got}")
                if not isinstance(got["value"], (int, float)):
                    raise AssertionError(f"{metric['name']} is not a number: {got}")
            print(f"ok {workload} trace {trace}: {len(spec[group])} metrics")
    first = checked_values("levy-tanh", 1, 1)
    run("levy-tanh", 1, 1)
    if checked_values("levy-tanh", 1, 1) != first:
        raise AssertionError("same seed gave different checked statistics")
    print("ok levy-tanh: same seed, same checked statistics")
    run("levy-tanh", 2, 1)
    print("ok levy-tanh: second seed passes every gate")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
