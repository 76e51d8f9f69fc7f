"""Averaged equation construction and the strong-convergence experiment.

The averaged drift integrates the slow nonlinearity against the invariant
law of the frozen-fast process; numerically it is realized three ways:

* exactly, when the drift ignores the fast variable;
* in closed form, when both nonlinearities are linear/constant (the frozen
  fast process is then linear with a computable stationary mean);
* by ergodic time averages on a user-declared grid with multilinear
  interpolation otherwise.

Mixing diagnostics fit the decay rate of |E f(x, y_x(t)) - fbar(x)| and
report it next to the rate 2*(gamma_b - 6 L_g^2) implied by the declared
constants.  That declared rate can exceed the true relaxation rate (additive
noise relaxes at gamma_b), so it is reported, never asserted.

The strong-error experiment couples the full and averaged slow equations on
identical slow increments and fits the log-log rate of the mean square sup
error as epsilon shrinks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .harness import _split_paths, fit_exp_rate, fit_loglog_rate
from .integrator import (DivergedError, _check_stable, _euler, _trajectory,
                         default_step, frozen_fast_batch, make_grid)
from .model import _lin, _lin_plus, has_slow_noise
from .noise import ROLE_FAST, ROLE_SLOW, _path_increments, substream

# batch means behind the standard error of ``estimate_fbar``
FBAR_BATCHES = 16
# time between the points of the relaxation curve of ``mixing_diagnostic``
CURVE_STEP = 0.05
# the one rule for the block size delta of ``strong_error_experiment``
DELTA_RULE = "eps**(2/3)"


class AveragedDrift:
    """Averaged slow drift fbar(x), vectorized over (..., n).

    ``_add(d, x)`` adds fbar(x) into the float buffer d in place, the
    stepping kernel's form (``DriftFn._add`` without the fast argument).
    """

    def __init__(self, n, kind, fn, deriv_matrix=None, table=None):
        self.n = n
        self.kind = kind               # zero | y-independent | linear | tabulated
        self._fn = fn
        self._add = lambda d, x: np.add(d, fn(x), out=d)
        self.deriv_matrix = deriv_matrix   # constant Jacobian when known
        self.table = table

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AveragedModel:
    """Slow equation with the fast variable averaged out."""

    a: np.ndarray
    fbar: AveragedDrift
    sigma1: object
    jump_slow: object
    x0: np.ndarray

    @property
    def n(self):
        return self.a.shape[0]


@dataclass
class FbarEstimate:
    value: np.ndarray
    stderr: np.ndarray


def estimate_fbar(m, x, burn_in=None, horizon=60.0, dt=0.005, rng=None):
    """Ergodic estimate of the averaged drift at each point of ``x`` (..., n).

    Time-averages f(x, y_x(s)) over s in [burn_in, horizon] along one
    frozen-fast path per point; the standard error comes from
    ``FBAR_BATCHES`` batch means.  The paths are one ``frozen_fast_batch``
    run drawn from ``rng`` in turn, so point i equals the i-th of successive
    single-point calls.  The default burn-in is 10/gamma_b, the safe linear
    relaxation scale.
    """
    if burn_in is None:
        burn_in = 10.0 / m.gamma_b
    if not horizon > burn_in:
        raise ValueError("horizon must exceed burn_in")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != m.n:
        raise ValueError(f"points must have shape (..., {m.n})")
    points = x.reshape(-1, m.n)
    grid = make_grid(horizon, dt)
    ys = frozen_fast_batch(m, points, m.y0, len(grid) - 1, dt, rng, len(points))
    if not np.all(np.isfinite(ys[-1])):          # NaN after a divergence
        raise DivergedError("frozen-fast path diverged during fbar estimation")
    window = ys[grid >= burn_in]
    # one contiguous (T, n) block per point: its sums run as a lone point's do
    vals = np.ascontiguousarray(
        m.f(np.broadcast_to(points, window.shape), window).transpose(1, 0, 2))
    bm = np.stack([b.mean(axis=1) for b in np.array_split(vals, FBAR_BATCHES, axis=1)],
                  axis=1)
    stderr = bm.std(axis=1, ddof=1) / np.sqrt(FBAR_BATCHES)
    return FbarEstimate(vals.mean(axis=1).reshape(x.shape), stderr.reshape(x.shape))


def build_averaged(m, table_axes=None, rng=None, horizon=60.0, dt=0.005):
    """Construct the averaged model for ``m``.

    Picks the exact shortcut when the drift ignores the fast variable, the
    closed form when both nonlinearities are linear families, and otherwise
    tabulates ergodic estimates on ``table_axes`` (a sequence of 1-D node
    arrays, one per dimension).
    """
    n = m.n
    mode = _auto_mode(m)

    if mode == "zero":
        fbar = AveragedDrift(n, "zero", lambda x: np.zeros(x.shape[:-1] + (n,)),
                             deriv_matrix=np.zeros((n, n)))
    elif mode == "y-independent":
        fbar = AveragedDrift(n, "y-independent",
                             lambda x: m.f(x, np.zeros_like(x)))
    elif mode == "linear":
        fx, fy, cf = _linear_parts(m.f)
        gx, gy, cg = _linear_parts(m.g)
        core = m.b + gy
        if np.max(np.linalg.eigvals(core).real) >= 0:
            raise ValueError("frozen-fast linear drift is not stable; "
                             "no stationary mean exists")
        m_x = -np.linalg.solve(core, gx)      # stationary mean slope
        m_c = -np.linalg.solve(core, cg)
        jac = fx + fy @ m_x
        shift = fy @ m_c + cf

        def fn(x):
            return _lin(jac, x) + shift

        fbar = AveragedDrift(n, "linear", fn, deriv_matrix=jac)
    else:
        if table_axes is None or rng is None:
            raise ValueError("tabulated averaging needs table_axes and rng")
        axes = [np.asarray(ax, dtype=float) for ax in table_axes]
        for ax in axes:
            if ax.ndim != 1 or len(ax) < 2 or np.any(np.diff(ax) <= 0):
                raise ValueError("each table axis needs two or more strictly "
                                 "increasing nodes")
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        values = estimate_fbar(m, nodes, horizon=horizon, dt=dt, rng=rng).value
        fbar = AveragedDrift(n, "tabulated", _multilinear(axes, values),
                             table=(axes, values))

    return AveragedModel(m.a, fbar, m.sigma1, m.jump_slow, m.x0)


def _multilinear(axes, values):
    """Interpolant of ``values`` (*node counts, n) on the grid of ``axes``:
    multilinear in each cell, linear past the edge cells, NaN where a
    coordinate is NaN.  It gives the bits of scipy's
    ``RegularGridInterpolator(axes, values, bounds_error=False,
    fill_value=None)``, whose cell, weights and order of sum it takes."""
    n = values.shape[-1]
    # coordinate-major, so that each corner's values and weights multiply
    # along the points
    table = np.ascontiguousarray(values.reshape(-1, n).T)
    strides = np.cumprod([1] + [len(ax) for ax in axes[:0:-1]])[::-1]
    # a point's cell along an axis is the count of inner nodes at or below
    # it: the cell below the first node extrapolates from the first cell,
    # the one past the last node from the last cell
    cells = [(ax[1:-1], ax, np.diff(ax), stride) for ax, stride in zip(axes, strides)]
    corners = list(itertools.product((0, 1), repeat=len(axes)))
    offsets = np.array([np.dot(c, strides) for c in corners])[:, None]

    def fn(x):
        cols = x.reshape(-1, len(axes)).T.copy()
        base, weights = 0, []
        for (inner, ax, width, stride), xd in zip(cells, cols):
            i = np.searchsorted(inner, xd, side="right")
            y = (xd - ax[i]) / width[i]
            base = base + i * stride
            weights.append((1 - y, y))
        at_corners = np.take(table, base + offsets, axis=1)
        value = 0.0
        for k, corner in enumerate(corners):
            weight = weights[0][corner[0]]
            for w, c in zip(weights[1:], corner[1:]):
                weight = weight * w[c]
            value = value + at_corners[:, k] * weight
        value[:, np.isnan(cols).any(axis=0)] = np.nan
        return np.ascontiguousarray(value.T).reshape(x.shape[:-1] + (n,))

    return fn


def _auto_mode(m):
    """The averaging mode ``build_averaged`` picks for ``m``: every mode but
    'tabulated' is closed form."""
    if m.f.kind == "zero":
        return "zero"
    if not m.f.depends_on_y:
        return "y-independent"
    if m.f.kind in ("linear", "constant", "zero") and \
            m.g.kind in ("linear", "constant", "zero"):
        return "linear"
    return "tabulated"


def _linear_parts(drift):
    n = drift.n
    if drift.kind == "zero":
        return np.zeros((n, n)), np.zeros((n, n)), np.zeros(n)
    if drift.kind == "constant":
        return np.zeros((n, n)), np.zeros((n, n)), drift.payload["const"]
    if drift.kind == "linear":
        p = drift.payload
        return p["fx"], p["fy"], p["const"]
    raise ValueError("drift is not in the linear family")


@dataclass
class MixingReport:
    eta_declared: float           # 2*(gamma_b - 6 L_g^2) from declared constants
    eta_empirical: float          # fitted decay rate of |E f - fbar|
    times: np.ndarray
    deviations: np.ndarray
    noise_floor: np.ndarray
    n_paths: int


def mixing_diagnostic(m, x, y_list, t_end, dt, n_paths, rng, fbar_value=None):
    """Estimate the relaxation of E f(x, y_x(t)) toward fbar(x).

    ``n_paths`` paths from each start of ``y_list`` form one
    ``frozen_fast_batch`` run, drawn from ``rng`` start by start; at each
    curve point, every ``CURVE_STEP`` in time, the first start with the
    largest deviation is reported.  Returns both the fitted empirical rate
    and the rate implied by the declared constants; points whose deviation
    sits below the Monte-Carlo noise floor (or is non-positive) are skipped
    by the fit.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths for the mixing diagnostic")
    if m.g.lip is None:
        raise ValueError("mixing diagnostic needs a declared or analytic L_g")
    x = np.asarray(x, dtype=float)
    eta_declared = 2.0 * (m.gamma_b - 6.0 * m.g.lip ** 2)

    if fbar_value is None:
        if _auto_mode(m) != "tabulated":
            fbar_value = build_averaged(m).fbar(x)
        else:
            fbar_value = estimate_fbar(m, x, rng=rng).value

    starts = np.asarray(y_list, dtype=float).reshape(-1, m.n)
    steps = int(round(t_end / dt))
    sample_steps = np.arange(0, steps + 1, max(int(round(CURVE_STEP / dt)), 1))
    times = sample_steps * dt
    ys = frozen_fast_batch(m, x, np.repeat(starts, n_paths, axis=0), steps, dt, rng,
                           len(starts) * n_paths)
    curve = ys[sample_steps].reshape(len(sample_steps), len(starts), n_paths, m.n)
    fv = m.f(np.broadcast_to(x, curve.shape), curve)
    dev = np.linalg.norm(fv.mean(axis=2) - fbar_value, axis=-1)     # (times, starts)
    floor = np.linalg.norm(fv.std(axis=2, ddof=1), axis=-1) / np.sqrt(n_paths)
    # a NaN or zero deviation never wins; with no winner both stay 0
    dev = np.where(dev > 0, dev, 0.0)
    pick = (np.arange(len(sample_steps)), dev.argmax(axis=1))
    best_dev = dev[pick]
    floors = np.where(best_dev > 0, floor[pick], 0.0)

    usable = best_dev > np.maximum(3.0 * floors, 1e-14)
    if usable.sum() >= 3:
        fit = fit_exp_rate(times[usable], best_dev[usable])
        eta_empirical = fit.slope
    else:
        eta_empirical = float("nan")
    return MixingReport(eta_declared, eta_empirical, times, best_dev, floors,
                        n_paths)


def simulate_averaged(am, t_end, dt, incr):
    """Integrate the averaged slow equation against a given increment stream.

    Passing the slow stream of a coupled run realizes the pathwise coupling
    the strong-error comparison requires.
    """
    grid = make_grid(t_end, dt)
    if len(incr.grid) != len(grid) or not np.allclose(incr.grid, grid):
        raise ValueError("increment stream grid does not match (t_end, dt)")
    run = _averaged_run(am, am.x0, grid, dt,
                        (am.sigma1, incr.d_brownian + incr.d_jump))
    return _trajectory(grid, run.path[0], run.diverged_at)


def _averaged_run(am, x0, grid, dt, noise):
    """Averaged slow equation from x0 (..., n) along ``make_grid``'s grid
    under one ``_euler`` noise term; records the full path."""
    averaged = _lin_plus(am.a, am.fbar._add)

    def drift(k, s, d):
        averaged(d[0], s[0], s[0])

    return _euler((x0,), drift, (dt,), (noise,), grid, dt, path=True)


def _increment_blocks(m, grid, master_seed, start, count):
    """Fast and slow increments (steps, count, n) of paths start..start+count-1,
    each from its own substreams; the slow block is None without slow noise."""
    d_fast = _path_increments(m.n, grid, count,
                              lambda i: substream(master_seed, start + i, ROLE_FAST),
                              jump=m.jump_fast, speed=1.0 / m.epsilon)
    return d_fast, _slow_increments(m, grid, master_seed, start, count)


def _slow_increments(m, grid, master_seed, start, count):
    """Slow increments (steps, count, n) of paths start..start+count-1, each
    from its own slow substream; None without slow noise.  ``m`` is a
    SlowFastModel or an AveragedModel."""
    if not has_slow_noise(m):
        return None
    return _path_increments(m.n, grid, count,
                            lambda i: substream(master_seed, start + i, ROLE_SLOW),
                            jump=m.jump_slow)


def coupled_error_batch(m, am, t_end, dt, master_seed, start, count, *, _sup=True):
    """Vectorized coupled full/averaged runs for paths [start, start+count).

    Per path the slow and fast streams come from the path's own substreams,
    so each path sees the noise of a standalone single-path run on the same
    coordinates; at n = 1 it is bit-identical to that run, while for n > 1
    the block matmuls may round differently in the last bits.  Returns (sup
    |x_eps - x|^2 over the grid, x_eps(T) - x(T), diverged mask), the first
    two NaN on diverged paths.  With ``_sup=False`` the sup is not recorded
    and reads NaN.  A large batch runs in forked worker processes, a
    contiguous range of paths each, to the same rows (``_split_paths``).
    """
    grid = make_grid(t_end, dt)
    _check_stable(grid, dt, m.epsilon)
    return _split_paths(
        lambda lo, k: _coupled_range(m, am, grid, dt, master_seed, lo, k, _sup),
        start, count, len(grid) - 1)


def _coupled_range(m, am, grid, dt, master_seed, start, count, sup):
    """``coupled_error_batch`` of paths [start, start+count) on its checked
    grid, in this process; without ``sup`` the sup reads NaN."""
    d_fast, d_slow = _increment_blocks(m, grid, master_seed, start, count)

    slow, fast = _lin_plus(m.a, m.f._add), _lin_plus(m.b, m.g._add)
    averaged = _lin_plus(am.a, am.fbar._add)

    def drift(k, s, d):
        x, y, xa = s
        slow(d[0], x, x, y)
        fast(d[1], y, x, y)
        averaged(d[2], xa, xa)

    def gap_sq(s):
        diff = s[0] - s[2]
        diff *= diff
        # a sum over one coordinate is that coordinate
        return diff[:, 0] if m.n == 1 else np.sum(diff, axis=-1)

    x0, y0 = (np.broadcast_to(v, (count, m.n)) for v in (m.x0, m.y0))
    ds = None if d_slow is None else (m.sigma1, d_slow)
    run = _euler((x0, y0, x0), drift,
                 (dt, dt / m.epsilon, dt), (ds, (m.sigma2, d_fast), ds),
                 grid, dt, sup=gap_sq if sup else None)
    x, _, xa = run.state
    return run.sup if sup else np.full(count, np.nan), x - xa, run.diverged


@dataclass
class RateReport:
    epsilons: np.ndarray
    delta_rule: str
    deltas: np.ndarray
    errors: np.ndarray            # E sup |x_eps - x|^2 per epsilon
    stderrs: np.ndarray
    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    n_paths: int
    diverged: np.ndarray
    flagged: list = field(default_factory=list)


def strong_error_experiment(m, epsilons, delta_rule, t_end, n_paths,
                            master_seed, am=None):
    """Monte-Carlo strong error of the averaged approximation across epsilons.

    For each epsilon the full and averaged slow equations share the slow
    increments path by path, stepped at ``default_step(t_end, eps)``; the
    fitted log-log slope of
    E sup_{t<=T} |x_eps - x|^2 against epsilon is the reported rate.  The
    block size delta = eps**(2/3) (``delta_rule`` names it, or is None)
    enters only through the recorded theoretical bound epsilon/delta, not
    the simulation itself.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(np.diff(epsilons) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    if n_paths < 100:
        raise ValueError("need at least 100 paths per epsilon")
    if delta_rule not in (None, DELTA_RULE):
        raise ValueError(f"unknown delta_rule {delta_rule!r}; the one rule is "
                         f"{DELTA_RULE!r}")
    if am is None:
        am = build_averaged(m)

    errors = np.empty(len(epsilons))
    stderrs = np.empty(len(epsilons))
    diverged = np.zeros(len(epsilons), dtype=int)
    deltas = np.array([e ** (2.0 / 3.0) for e in epsilons])
    for j, eps in enumerate(epsilons):
        sup, _, _ = coupled_error_batch(m.with_epsilon(eps), am, t_end,
                                        default_step(t_end, eps), master_seed, 0,
                                        n_paths)
        vals = sup[np.isfinite(sup)]                 # diverged paths are NaN
        errors[j] = vals.mean()
        stderrs[j] = vals.std(ddof=1) / np.sqrt(len(vals))
        diverged[j] = n_paths - len(vals)
    flagged = [float(e) for e, d in zip(epsilons, diverged)
               if d > 0.05 * n_paths]
    if np.all(errors > 0):
        fit = fit_loglog_rate(epsilons, errors)
        slope, intercept = fit.slope, fit.intercept
        ci_low, ci_high = fit.ci_low, fit.ci_high
    else:
        # degenerate coupling (errors at machine zero): no rate to fit
        slope = intercept = ci_low = ci_high = float("nan")
    return RateReport(epsilons, DELTA_RULE, deltas, errors, stderrs,
                      slope, intercept, ci_low, ci_high,
                      n_paths, diverged, flagged)

