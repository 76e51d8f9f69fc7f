"""Spans and counters recorded from the benchmark's own files.

No source file of ``slowfast`` is edited.  For a run, ``install`` wraps the
public functions of each module and rebinds every name that refers to one,
in every ``slowfast`` module and in the package namespace, so calls between
modules (``averaging`` -> ``noise.rescale_fast``, ``deviation`` ->
``integrator.frozen_fast_batch``) and inside a module pass through the
wrappers.  ``uninstall`` restores the originals.

Two levels:

* ``timing=False`` wraps only the simulators and counts the paths they
  return and how many diverged, at the outermost simulator call.  Untimed
  runs use it, so ``diverged_share`` is measured with tracing off; it adds
  one Python call per simulator call (at most a few hundred per run).
* ``timing=True`` also records one span per call (name, start, end,
  parent) and, for the per-step boundaries ``DriftFn.__call__`` and
  ``AveragedDrift.__call__``, per-module call counts and times instead of
  spans.  A module's self time is the time inside its spans and counters
  minus the time of the spans and counters nested in them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "model", "exprlang", "noise", "integrator", "averaging",
           "manifold", "deviation", "harness")

# public functions called once per step or per expression node: their time
# stays with the caller, whose drift counters already bound it
PER_STEP = {"exprlang.eval_ast", "integrator.apply_noise", "integrator.step"}


def _steps(t_end, dt):
    # the step count of slowfast.integrator.make_grid
    return int(round(t_end / dt)) if t_end > 0 else 0


def _bad_rows(arr):
    arr = np.asarray(arr)
    return int(np.sum(~np.all(np.isfinite(arr.reshape(arr.shape[0], -1)), axis=1)))


def _traj(a, r):
    x = r[0] if isinstance(r, tuple) else r
    return 1, int(x.diverged), len(x.grid) - 1


def _frozen_batch(a, r):
    return r.shape[1], _bad_rows(r[-1]), (r.shape[0] - 1) * r.shape[1]


def _coupled(a, r):
    count = len(r[0])
    return count, int(np.sum(r[2])), _steps(a["t_end"], a["dt"]) * count


def _limit(a, r):
    return len(r), _bad_rows(r), _steps(a["t_end"], a["dt"]) * len(r)


def _tracking(a, r):
    return 2, 2 * int(not np.all(np.isfinite(r.gap))), 2 * (len(r.times) - 1)


# simulator -> (args, result) -> (paths, diverged paths, path-steps).  Paths
# count at the outermost simulator call; path-steps count where the stepping
# loop ran, that is at a simulator that called no other simulator.
SIMULATORS = {
    "integrator.simulate_slow_fast": _traj,
    "integrator.simulate_frozen_fast": _traj,
    "integrator.frozen_fast_batch": _frozen_batch,
    "averaging.simulate_averaged": _traj,
    "averaging.coupled_error_batch": _coupled,
    "deviation.simulate_deviation": _traj,
    "deviation.limit_marginal_samples": _limit,
    "manifold.tracking_check": _tracking,
}


def _count_substream(rec, r):
    rec.count("noise.substreams")


def _count_noise(rec, r):
    rec.count("noise.draws", r.d_brownian.size + len(r.jump_events) * r.n)
    rec.count("noise.jump_events", len(r.jump_events))


def _count_kernel(rec, r):
    rec.count("deviation.kernel_lags", len(r.lags))


def _count_solve(rec, r):
    rec.count("manifold.solves")
    rec.count("manifold.sweeps", r.iterations)
    rec.count("manifold.unconverged", int(not r.converged))


def _count_compare(rec, r):
    rec.count("harness.compare_samples", r.n_a + r.n_b)


def _count_ensemble(rec, r):
    rec.count("harness.ensemble_paths", r.n_paths)


# function -> (recorder, result) -> None: work counters read off results
COUNTERS = {
    "noise.substream": _count_substream,
    "noise.sample_increments": _count_noise,
    "deviation.autocovariance_kernel": _count_kernel,
    "manifold.lyapunov_perron_solve": _count_solve,
    "harness.two_sample_compare": _count_compare,
    "harness.run_ensemble": _count_ensemble,
}


class Recorder:
    """Spans, per-module self times and counters of one traced run."""

    def __init__(self, timing):
        self.timing = timing
        self.spans = []               # (id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counted_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.paths = 0
        self.diverged = 0
        self.sim_depth = 0
        self.sim_calls = 0
        self.root = [0.0, -1, ""]     # [time of nested calls, span id, module]
        self.stack = [self.root]
        self._ids = itertools.count()
        self._patches = []

    def count(self, key, amount=1):
        self.counts[key] += int(amount)

    def covered_s(self):
        """Time of the spans and counters called directly from the benchmark."""
        return self.root[0]

    # -- wrapping ----------------------------------------------------------

    def _enter(self, module, span=True):
        # a counted call is no span: what it calls nests under its caller's span
        frame = [0.0, next(self._ids) if span else self.stack[-1][1], module]
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, module, start):
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - start
        parent[0] += dur
        self.self_s[module] += dur - frame[0]
        if parent[2] != module:
            self.inclusive_s[module] += dur
        return parent, end

    def _span(self, fn, module, qualname):
        simulate = SIMULATORS.get(qualname)
        sig = inspect.signature(fn) if simulate is not None else None
        counter = COUNTERS.get(qualname)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if simulate is not None:
                rec.sim_depth += 1
                rec.sim_calls += 1
                calls_before = rec.sim_calls
            if rec.timing:
                frame, start = rec._enter(module)
            try:
                result = fn(*args, **kwargs)
            finally:
                if rec.timing:
                    parent, end = rec._exit(frame, module, start)
                    rec.spans.append((frame[1], parent[1], qualname, start, end))
                if simulate is not None:
                    rec.sim_depth -= 1
            if simulate is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                paths, bad, steps = simulate(bound.arguments, result)
                if rec.sim_depth == 0:
                    rec.paths += paths
                    rec.diverged += bad
                if rec.timing and rec.sim_calls == calls_before:
                    rec.count(f"{module}.path_steps", steps)
                    rec.count(f"{module}.diverged", bad)
            if rec.timing:
                if counter is not None:
                    counter(rec, result)
                rec.count(f"{module}.calls")
            return result

        return wrapper

    def _counted_call(self, original, module_of):
        rec = self

        def __call__(obj, *args):
            module = module_of(obj)
            frame, start = rec._enter(module, span=False)
            try:
                return original(obj, *args)
            finally:
                _, end = rec._exit(frame, module, start)
                rec.counts[f"{module}.counted_calls"] += 1
                rec.counted_s[module] += end - start

        return __call__

    def install(self):
        """Wrap and rebind; returns self so a run can ``uninstall`` later."""
        mods = {name: importlib.import_module(f"slowfast.{name}") for name in MODULES}
        namespaces = [vars(m) for m in mods.values()] + [vars(sys.modules["slowfast"])]
        wrapped = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                qualname = f"{name}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qualname in PER_STEP):
                    continue
                if not self.timing and qualname not in SIMULATORS:
                    continue
                wrapped[id(obj)] = (obj, self._span(obj, name, qualname))
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = hit[1]
        if self.timing:
            drift_cls = mods["model"].DriftFn
            fbar_cls = mods["averaging"].AveragedDrift
            for cls, module_of in (
                    (drift_cls, lambda d: "exprlang" if d.kind == "expr" else "model"),
                    (fbar_cls, lambda d: "averaging")):
                original = cls.__call__
                self._patches.append((cls, "__call__", original))
                setattr(cls, "__call__", self._counted_call(original, module_of))
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics named in BENCHMARK.json (time in seconds)."""
        c, counted_s = self.counts, self.counted_s
        integ_s = self.inclusive_s["integrator"]
        out = {
            "noise.calls": c["noise.calls"],
            "noise.substreams": c["noise.substreams"],
            "noise.draws": c["noise.draws"],
            "noise.jump_events": c["noise.jump_events"],
            "integrator.path_steps": c["integrator.path_steps"],
            "integrator.path_steps_per_s": (c["integrator.path_steps"] / integ_s
                                            if integ_s > 0 else 0.0),
            "integrator.diverged": c["integrator.diverged"],
            "model.drift_calls": c["model.counted_calls"],
            "model.drift_s": counted_s["model"],
            "exprlang.eval_calls": c["exprlang.counted_calls"],
            "exprlang.eval_s": counted_s["exprlang"],
            "averaging.path_steps": c["averaging.path_steps"],
            "averaging.fbar_calls": c["averaging.counted_calls"],
            "averaging.fbar_s": counted_s["averaging"],
            "deviation.kernel_lags": c["deviation.kernel_lags"],
            "deviation.path_steps": c["deviation.path_steps"],
            "manifold.solves": c["manifold.solves"],
            "manifold.sweeps": c["manifold.sweeps"],
            "manifold.unconverged": c["manifold.unconverged"],
            "harness.compare_samples": c["harness.compare_samples"],
            "harness.ensemble_paths": c["harness.ensemble_paths"],
        }
        for module in MODULES:
            out[f"{module}.self_s"] = self.self_s[module]
        return out

    def validate_s(self):
        return sum(end - start for _, _, name, start, end in self.spans
                   if name == "model.validate_model")
