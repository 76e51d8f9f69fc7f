"""Both benchmark workloads at smoke scale, in this process.

Loads ``bench/workloads.py`` and ``bench/tracing.py`` as they are and runs
each workload once untraced and once traced, with the checks of
``bench/run.py``: every workload check passes, no path diverges, a traced
run counts exactly the path-steps the workload declares, and both runs of
one seed give the same statistics.  The recorder wraps the simulators by
name and binds their arguments by name, so a rename it depends on fails
here.  ``bench/smoke.py`` runs the same workloads in subprocesses through
``bench/run.py``.
"""

import importlib.util
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while they are created
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("tracing"), _load("workloads")


@pytest.mark.parametrize("name", ["weak-limit", "levy-tanh"])
def test_workload_passes_at_smoke_scale(bench, name):
    tracing, workloads = bench
    work = workloads.WORKLOADS[name]
    params = work.params["smoke"]
    state = work.setup(1, params)
    stats = []
    for timing in (False, True):
        rec = tracing.Recorder(timing=timing).install()
        try:
            outcome = work.run(state)
        finally:
            rec.uninstall()
        failed = [check for check in outcome.checks if not check[1]]
        assert outcome.checks and not failed, failed
        assert rec.paths > 0 and rec.diverged == 0
        stats.append(outcome.stats)
    traced_steps = sum(v for k, v in rec.counts.items() if k.endswith(".path_steps"))
    assert traced_steps == work.path_steps(params)
    assert set(rec.layer_metrics()) >= {f"{m}.self_s" for m in tracing.MODULES}
    assert repr(stats[0]) == repr(stats[1])
