"""Ensemble execution and the statistics backing every verification claim.

Tasks run one per path, in path order, each on a substream derived from
(master_seed, index, role).  Batched simulators split by path too:
``_split_paths`` cuts a large batch of paths into one contiguous range per
usable CPU, runs all but the first in forked worker processes, and joins
the rows in path order, which are the rows of one run bit for bit.
Distribution comparison is the per-coordinate two-sample sup-CDF distance
with the asymptotic critical value c(alpha) * sqrt((n+m)/(n*m)) plus 3-SE
moment gates; rate fitting is least squares on log-log points with a
t-based confidence interval on the slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .noise import ROLE_TASK, substream


@dataclass
class Ensemble:
    task_id: str
    n_paths: int
    outputs: np.ndarray          # (N, ...) per-path outputs, diverged rows NaN
    diverged: int
    master_seed: int


def run_ensemble(task, n_paths, master_seed, task_id="task"):
    """Run ``task(rng, index)`` once per path on its ``ROLE_TASK`` substream."""
    if n_paths < 1:
        raise ValueError("need at least one path")
    outputs = np.stack([np.asarray(task(substream(master_seed, i, ROLE_TASK), i),
                                   dtype=float) for i in range(n_paths)])
    flat = outputs.reshape(n_paths, -1)
    diverged = int(np.sum(~np.all(np.isfinite(flat), axis=1)))
    return Ensemble(task_id, n_paths, outputs, diverged, master_seed)


# path-steps (paths x steps) from which a batch is split across worker
# processes: forking and pickling the rows take about 10 ms, under 1% of a
# batch this size
SPLIT_PATH_STEPS = 10**7


def _split_paths(run, start, count, steps):
    """``run(start, count)``, the arrays (or tuple of arrays) of paths
    [start, start+count) stepped ``steps`` times, one row per path.

    A batch of at least ``SPLIT_PATH_STEPS`` path-steps is cut into one
    contiguous range per usable CPU.  This process runs the first range and
    a forked child each other one, which sends its rows back pickled down a
    pipe; the rows are joined in path order.  Each path draws from its own
    substreams and is stepped on its own, so the rows are those of one run.
    A process with other threads never forks, since the child could wait
    forever on a lock one of them held.  A worker's exception is raised
    here, a worker killed by a signal raises RuntimeError, and no worker
    outlives the call.
    """
    # needed only where a batch may split
    import os
    import pickle
    import threading

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count)
    if (count * steps < SPLIT_PATH_STEPS or workers < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return run(start, count)
    edges = [start + count * w // workers for w in range(workers + 1)]
    (lo0, hi0), *others = zip(edges[:-1], edges[1:])
    children, payloads = [], []          # (pid, read end), sent bytes
    try:
        for lo, hi in others:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                for fd in [read] + [r for _, r in children]:
                    os.close(fd)
                _worker(run, lo, hi - lo, write)
            children.append((pid, read))
            os.close(write)
        parts = [run(lo0, hi0 - lo0)]
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for _, read in children:
            os.close(read)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for (lo, hi), status, data in zip(others, statuses, payloads):
        if os.WIFSIGNALED(status):
            raise RuntimeError(f"the worker for paths [{lo}, {hi}) was killed by "
                               f"signal {os.WTERMSIG(status)}")
        value = pickle.loads(data)
        if os.WEXITSTATUS(status) != 0:
            if isinstance(value, BaseException):
                raise value
            raise RuntimeError(f"the worker for paths [{lo}, {hi}) failed: {value}")
        parts.append(value)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(cols) for cols in zip(*parts))
    return np.concatenate(parts)


def _worker(run, start, count, fd):
    """A forked worker's whole life: send ``run(start, count)`` pickled down
    the pipe ``fd``, or the exception it raised (its repr when that does not
    pickle), and exit, 0 on success, without returning into the caller."""
    import os
    import pickle

    code = 1
    try:
        try:
            result, code = run(start, count), 0
        except BaseException as exc:     # the caller raises it
            result = exc
        try:
            data = pickle.dumps(result)
            if code:
                pickle.loads(data)       # an exception the caller cannot rebuild
        except Exception:
            data, code = pickle.dumps(repr(result)), 1
        with open(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(code)


def ks_critical_value(alpha, n, m):
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return c * np.sqrt((n + m) / (n * m))


def _var_se(x):
    # standard error of the sample variance, fourth-moment based
    n = len(x)
    c = x - x.mean()
    m2 = np.mean(c ** 2)
    m4 = np.mean(c ** 4)
    return float(np.sqrt(max(m4 - m2 ** 2, 0.0) / n))


@dataclass
class TwoSampleReport:
    n_a: int
    n_b: int
    mean_diff: np.ndarray
    mean_se: np.ndarray
    var_diff: np.ndarray
    var_se: np.ndarray
    cdf_distance: np.ndarray      # per coordinate
    critical_value: float
    alpha: float
    degenerate: bool
    passed: bool


def two_sample_compare(a, b, alpha=0.01):
    """Compare two samples coordinate-wise: sup-CDF distance + moment gates.

    ``passed`` requires every coordinate's CDF distance below the critical
    value and mean/variance differences within 3 standard errors.  Samples
    that are degenerate on both sides (zero variance) short-circuit to the
    moment comparison alone.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T if np.ndim(a) == 1 else np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float).T).T if np.ndim(b) == 1 else np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share the coordinate dimension")
    na, nb = len(a), len(b)
    d = a.shape[1]

    va, vb = a.var(axis=0, ddof=1) if na > 1 else np.zeros(d), b.var(axis=0, ddof=1) if nb > 1 else np.zeros(d)
    mean_diff = a.mean(axis=0) - b.mean(axis=0)
    mean_se = np.sqrt(va / na + vb / nb)
    var_diff = va - vb
    var_se = np.array([np.sqrt(_var_se(a[:, j]) ** 2 + _var_se(b[:, j]) ** 2)
                       for j in range(d)])

    degenerate = bool(np.all(va == 0) and np.all(vb == 0))
    if degenerate:
        distance = np.zeros(d)
    else:
        # the asymptotic method returns the exact statistic; "exact" rounds it
        distance = np.array([stats.ks_2samp(a[:, j], b[:, j], method="asymp").statistic
                             for j in range(d)])
    crit = ks_critical_value(alpha, na, nb)

    moments_ok = (np.all(np.abs(mean_diff) <= 3 * mean_se)
                  and np.all(np.abs(var_diff) <= 3 * var_se))
    passed = bool(moments_ok and (degenerate or np.all(distance < crit)))
    return TwoSampleReport(na, nb, mean_diff, mean_se, var_diff, var_se,
                           distance, float(crit), alpha, degenerate, passed)


@dataclass
class RateFit:
    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float


def _linreg(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    dof = n - 2
    if dof > 0:
        s2 = np.sum(resid ** 2) / dof
        se = np.sqrt(s2 / sxx)
        half = stats.t.ppf(0.975, dof) * se
    else:
        se, half = 0.0, 0.0
    return RateFit(float(slope), float(intercept), float(se),
                   float(slope - half), float(slope + half))


def fit_loglog_rate(xs, ys):
    """Least-squares slope of log y against log x with a 95% CI."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive inputs")
    return _linreg(np.log(xs), np.log(ys))


def fit_exp_rate(ts, values):
    """Fitted decay rate r of values ~ C * exp(-r t); returns a RateFit on r."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise ValueError("exponential fit needs strictly positive values")
    fit = _linreg(ts, np.log(values))
    return RateFit(-fit.slope, fit.intercept, fit.stderr, -fit.ci_high, -fit.ci_low)
