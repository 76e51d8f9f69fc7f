"""Benchmark entry point: run one workload of slowfast and print its metrics.

    python3 bench/run.py --workload levy-tanh --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; ``slowfast`` is imported from its ``src``.
Every workload run is its own child process (``child.py``) with BLAS
threads pinned to 1.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(median over five fresh processes), wall time per workload run (median
over the runs that fit in ``--seconds``), path-steps per second and peak
RSS.  ``--trace 1`` measures the per-layer metrics from a traced child that
alternates untraced and traced runs, plus ``<module>.import_s`` from
``python -X importtime`` in a fresh process.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with provenance, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("weak-limit", "levy-tanh"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="'smoke' shrinks the workloads for a quick self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        return left


def _child(args, deadline, extra=()):
    """Start child.py; return (spawn wall-clock time, its JSON result)."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--src", SRC, *extra]
    spawned = time.time()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times(deadline):
    """Cumulative import seconds per slowfast module from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import slowfast, slowfast.cli"],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    out = {f"{mod}.import_s": found.get(f"slowfast.{mod}", 0.0)
           for mod in tracing.MODULES}
    out["slowfast.import_s"] = found.get("slowfast", 0.0)
    return out


def _provenance():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "src_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


def _checks(result):
    """Every check of every run, the no-divergence gates and, with two or
    more runs, the same-seed-same-statistics gate.  A traced run must also
    count exactly the path-steps the workload declares."""
    checks = []
    if "traced_path_steps" in result:
        checks.append(("declared-path-steps",
                       result["traced_path_steps"] == result["path_steps"],
                       result["traced_path_steps"], result["path_steps"]))
    for i, run in enumerate(result["runs"]):
        checks += [(f"run{i}.{name}", ok, value, tol)
                   for name, ok, value, tol in run["checks"]]
        checks.append((f"run{i}.no-diverged-paths", run["diverged"] == 0,
                       run["diverged"], 0))
    # compared as text, so that NaN statistics compare equal
    stats = [json.dumps(run["stats"]) for run in result["runs"]]
    if len(stats) > 1:
        same = all(s == stats[0] for s in stats)
        checks.append(("same-seed-same-statistics", same, len(stats), 0))
    return checks


def main(argv=None):
    args = _parse(argv)
    # a terminated benchmark raises SystemExit, so that subprocess.run kills
    # the child it is waiting for before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "slowfast", "__init__.py")):
        print(f"no slowfast package under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    try:
        if args.trace:
            imports = _import_times(deadline)
            spans = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
            os.makedirs(OUT, exist_ok=True)
            spawned, result = _child(args, deadline, ("--spans-out", spans))
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                spawned, ready = _child(args, deadline, ("--setup-only",))
                setups.append(ready["ready"] - spawned)
            spawned, result = _child(args, deadline)
            setups.append(result["ready"] - spawned)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = _checks(result)
    failed = sum(not ok for _, ok, _, _ in checks)
    paths = sum(r["paths"] for r in result["runs"])
    diverged = sum(r["diverged"] for r in result["runs"])
    walls = [r["wall_s"] for r in result["runs"] if not r["traced"]]
    wall = statistics.median(walls)

    if args.trace:
        traced = statistics.median(r["wall_s"] for r in result["runs"] if r["traced"])
        metrics = dict(result["layers"], **imports)
        metrics["model.validate_s"] = result["validate_s"]
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - wall
        metrics["trace.covered_share"] = result["covered_share"]
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    prov = dict(_provenance(), **result["versions"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "seconds": args.seconds, "provenance": prov,
              "path_steps": result["path_steps"], "metrics": metrics,
              "checks": checks, "paths": paths, "diverged": diverged,
              "run_walls_s": [r["wall_s"] for r in result["runs"]],
              "run_cpu_s": [r["cpu_s"] for r in result["runs"]],
              "setup_samples_s": None if args.trace else setups}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"scale {args.scale}: {len(result['runs'])} runs of "
          f"{result['path_steps']} path-steps")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, ok, value, tol in checks:
        if not ok:
            print(f"FAIL {name} {value:.6g} {tol:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"path_steps_per_s {result['path_steps'] / wall:.6g} path-steps/s")
    print(f"check_fail_share {failed / len(checks):.6g} ({failed}/{len(checks)} checks)")
    print(f"diverged_share {diverged / max(paths, 1):.6g} ({diverged}/{paths} paths)")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _layer_unit(name):
    if name.endswith("_share"):
        return "share"
    if name.endswith("_per_s"):
        return "path-steps/s"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
