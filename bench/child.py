"""One benchmark process: set up one workload, run it, report as JSON.

Started by ``run.py`` with ``slowfast`` importable from the checkout's
``src``.  The last line of standard output is one JSON object.

``--setup-only`` stops once the workload is ready and reports the wall-clock
time of that moment, from which the parent takes ``setup_s``.  Otherwise the
workload runs repeatedly with the same seed until another run would end
after ``--seconds``; with ``--trace 1`` untraced and traced runs alternate,
starting untraced, and at least one of each is made.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy
import scipy
import slowfast

from tracing import Recorder
from workloads import WORKLOADS


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out", help="file for the spans of the last traced run")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _run_once(work, state, traced):
    rec = Recorder(timing=traced).install()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        outcome = work.run(state)
    finally:
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        rec.uninstall()
    return {"wall_s": wall, "cpu_s": cpu, "traced": traced, "paths": rec.paths,
            "diverged": rec.diverged, "checks": outcome.checks,
            "stats": outcome.stats, "recorder": rec}


def main(argv=None):
    args = _parse(argv)
    src = os.path.realpath(args.src)
    if not os.path.realpath(slowfast.__file__).startswith(src + os.sep):
        print(f"slowfast imported from {slowfast.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    params = work.params[args.scale]

    setup_rec = Recorder(timing=True).install() if args.trace else None
    try:
        state = work.setup(args.seed, params)
    finally:
        if setup_rec is not None:
            setup_rec.uninstall()
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    runs = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(_run_once(work, state, traced))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall_s"] for r in runs)
        enough = len(runs) >= (2 if args.trace else 1)
        if enough and elapsed + typical > args.seconds:
            break

    result = {
        "ready": ready,
        "path_steps": work.path_steps(params),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "runs": [{k: v for k, v in r.items() if k != "recorder"} for r in runs],
    }
    if args.trace:
        traced = [r for r in runs if r["traced"]]
        layers = [r["recorder"].layer_metrics() for r in traced]
        result["layers"] = {k: statistics.median(d[k] for d in layers)
                            for k in layers[0]}
        result["covered_share"] = statistics.median(
            r["recorder"].covered_s() / r["wall_s"] for r in traced)
        result["validate_s"] = setup_rec.validate_s()
        counts = traced[-1]["recorder"].counts
        result["traced_path_steps"] = sum(v for k, v in counts.items()
                                          if k.endswith(".path_steps"))
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in traced[-1]["recorder"].spans:
                    fh.write(json.dumps(dict(zip(("id", "parent", "name", "start",
                                                  "end"), span))) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
