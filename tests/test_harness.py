import os
import signal
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import harness
from slowfast.harness import (fit_exp_rate, fit_loglog_rate, ks_critical_value,
                              run_ensemble, two_sample_compare)


def test_constant_task_all_equal():
    ens = run_ensemble(lambda rng, i: 7.0, 50, master_seed=0)
    assert np.all(ens.outputs == 7.0)
    assert ens.diverged == 0


def test_worker_count_invariance():
    def task(rng, i):
        return rng.normal(size=3)

    a = run_ensemble(task, 64, master_seed=5, workers=1)
    b = run_ensemble(task, 64, master_seed=5, workers=8)
    assert np.array_equal(a.outputs, b.outputs)


@settings(max_examples=30, deadline=None)
@given(n_paths=st.integers(1, 40), workers=st.integers(1, 4))
def test_worker_count_invariance_any_size(n_paths, workers):
    def task(rng, i):
        return rng.normal(size=2) + i

    serial = run_ensemble(task, n_paths, master_seed=3, workers=1)
    threaded = run_ensemble(task, n_paths, master_seed=3, workers=workers)
    assert np.array_equal(serial.outputs, threaded.outputs)


def test_normal_sampler_mean():
    ens = run_ensemble(lambda rng, i: rng.normal(), 10000, master_seed=11)
    se = ens.outputs.std(ddof=1) / 100.0
    assert abs(ens.outputs.mean()) <= 3 * se


def test_diverged_paths_counted_and_excluded():
    def task(rng, i):
        return np.nan if i % 4 == 0 else 1.0

    ens = run_ensemble(task, 100, master_seed=0)
    assert ens.diverged == 25
    assert ens.warning
    assert len(ens.clean()) == 75


def test_two_sample_identical_passes():
    x = np.random.default_rng(0).normal(size=500)
    rep = two_sample_compare(x, x)
    assert rep.cdf_distance[0] == 0.0
    assert rep.passed


def test_two_sample_same_distribution_passes():
    rng = np.random.default_rng(12)
    rep = two_sample_compare(rng.normal(size=10000), rng.normal(size=10000))
    assert rep.passed


def test_two_sample_detects_mean_shift():
    rng = np.random.default_rng(1)
    rep = two_sample_compare(rng.normal(size=10000),
                             rng.normal(0.5, 1.0, size=10000))
    assert not rep.passed
    assert rep.cdf_distance[0] > rep.critical_value


def test_two_sample_symmetric_distance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=400)
    b = rng.normal(0.2, 1.3, size=300)
    assert (two_sample_compare(a, b).cdf_distance[0]
            == two_sample_compare(b, a).cdf_distance[0])


def test_two_sample_degenerate_short_circuits():
    a = np.full(50, 3.0)
    rep = two_sample_compare(a, np.full(80, 3.0))
    assert rep.degenerate
    assert rep.passed
    rep2 = two_sample_compare(a, np.full(80, 4.0))
    assert not rep2.passed


def test_two_sample_multidimensional():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4000, 2))
    b = rng.normal(size=(4000, 2))
    rep = two_sample_compare(a, b)
    assert rep.cdf_distance.shape == (2,)
    assert rep.passed


def test_two_sample_rejects_empty():
    with pytest.raises(ValueError):
        two_sample_compare(np.array([]), np.array([1.0]))


def test_ks_critical_value_at_1pct():
    # c(0.01) = sqrt(-0.5 ln 0.005) = 1.6276
    assert ks_critical_value(0.01, 10000, 10000) == pytest.approx(
        1.6276 * np.sqrt(2.0 / 10000.0), rel=1e-3)


def test_loglog_identity_slope():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_loglog_rate(xs, xs)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_loglog_exact_cube_root():
    xs = np.array([2.0 ** -k for k in range(4, 11)])
    fit = fit_loglog_rate(xs, xs ** (1.0 / 3.0))
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fit.ci_low == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_loglog_noisy_power_law_against_polyfit():
    rng = np.random.default_rng(0)
    xs = np.array([2.0 ** -k for k in range(1, 11)])
    ys = 3.0 * xs ** 0.5 * np.exp(rng.normal(0.0, 0.05, size=len(xs)))
    fit = fit_loglog_rate(xs, ys)
    # independent oracle: closed-form regression via polyfit
    slope_ref = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert fit.slope == pytest.approx(slope_ref, abs=1e-12)
    assert fit.ci_low <= 0.5 <= fit.ci_high


def test_loglog_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_loglog_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog_rate([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0))
def test_loglog_recovers_arbitrary_exponent(p):
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_loglog_rate(xs, xs ** p)
    assert fit.slope == pytest.approx(p, abs=1e-9)


def test_fit_exp_rate():
    ts = np.linspace(0.0, 3.0, 40)
    fit = fit_exp_rate(ts, 5.0 * np.exp(-1.7 * ts))
    assert fit.slope == pytest.approx(1.7, abs=1e-10)


def test_ensemble_csv_export(tmp_path):
    ens = run_ensemble(lambda rng, i: rng.normal(size=2), 5, master_seed=1)
    path = tmp_path / "ens.csv"
    ens.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "path,out1,out2"
    assert len(rows) == 6
    assert float(rows[1].split(",")[1]) == ens.outputs[0, 0]


def test_two_sample_report_json_round_trip():
    import json
    rng = np.random.default_rng(4)
    rep = two_sample_compare(rng.normal(size=200), rng.normal(size=300))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["n_a"] == 200 and blob["n_b"] == 300
    assert isinstance(blob["passed"], bool)


# --- batches split across forked worker processes -------------------------

class WorkerError(Exception):
    pass


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its pickled args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _rows(start, count):
    """Rows of paths [start, start+count): a (count, 2) array and a (count,) one."""
    index = np.arange(start, start + count)
    return np.column_stack([index, -index]).astype(float), index


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3, 10])
def test_split_ranges_are_joined_in_path_order(forks, count):
    got = harness._split_paths(_rows, 5, count, 1)
    assert forks.call_count == min(4, count) - 1
    for g, r in zip(got, _rows(5, count)):
        assert np.array_equal(g, r)
    assert np.array_equal(harness._split_paths(lambda s, c: _rows(s, c)[0], 0, 7, 1),
                          _rows(0, 7)[0])
    _no_children_left()


def _unpicklable():
    exc = WorkerError("holds a lambda")
    exc.hook = lambda: None
    return exc


@pytest.mark.parametrize("make, expected, match", [
    (lambda: WorkerError("path 6 failed"), WorkerError, "path 6 failed"),
    (lambda: ValueError("bad range"), ValueError, "bad range"),
    (_unpicklable, RuntimeError, r"paths \[\d+, \d+\) failed: WorkerError"),
    (lambda: TwoArgError(1, 2), RuntimeError, r"failed: TwoArgError"),
], ids=["own-type", "builtin-type", "unpicklable", "not-rebuildable"])
def test_worker_exception_reaches_the_caller(forks, make, expected, match):
    def run(start, count):
        if start != 0:
            raise make()
        return _rows(start, count)

    with pytest.raises(expected, match=match):
        harness._split_paths(run, 0, 8, 1)
    assert forks.call_count == 3
    _no_children_left()


def test_failing_caller_range_still_reaps_every_worker(forks):
    def run(start, count):
        if start == 0:
            raise WorkerError("the caller's own range")
        return _rows(start, count)

    with pytest.raises(WorkerError, match="own range"):
        harness._split_paths(run, 0, 8, 1)
    _no_children_left()


def test_killed_worker_is_a_runtime_error(forks):
    def run(start, count):
        if start == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        return _rows(start, count)

    with pytest.raises(RuntimeError, match=rf"paths \[6, 8\) was killed by signal "
                                           rf"{int(signal.SIGKILL)}"):
        harness._split_paths(run, 0, 8, 1)
    _no_children_left()


def test_no_fork_below_the_floor_or_beside_another_thread():
    def run(start, count):
        return _rows(start, count)

    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        # 2 paths x 1000 steps are far below the default floor
        got = harness._split_paths(run, 0, 2, 1000)
        assert np.array_equal(got[0], _rows(0, 2)[0])
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10.0,))
        other.start()
        try:
            with mock.patch.object(harness, "SPLIT_PATH_STEPS", 0):
                got = harness._split_paths(run, 3, 9, 1000)
        finally:
            release.set()
            other.join(10.0)
        assert not other.is_alive()
    assert np.array_equal(got[1], _rows(3, 9)[1])
