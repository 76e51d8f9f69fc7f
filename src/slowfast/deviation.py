"""Normal-deviation limit: fluctuation kernel, limit SDE, and diagnostics.

The rescaled fluctuation (x_eps - x)/sqrt(eps) converges weakly to the
linear SDE

    d theta = A theta dt + J(x(t)) theta dt + sqrt(Htilde(x(t))) dW'

where J is the Jacobian of the averaged drift and Htilde integrates the
stationary autocovariance of f(x, .) along the fast invariant state:
Htilde_ij = int_0^inf (H_ij(s) + H_ji(s)) ds, symmetrized so the square root
exists.  The driving W' is taken independent of the slow noise: the limit
fluctuation originates in the fast noise.

The limit SDE is stepped along carrier states of the averaged equation:
``simulate_deviation`` along a given carrier path, and
``limit_marginal_samples`` steps carrier and theta together, one batch for
all its paths.  ``DeviationModel`` holds the coefficients, evaluated
batched over the carrier's rows.

The stationary fast state inside the kernel is realized by the long-run
frozen-fast process, estimated over independent replicas.  Residual
diagnostics couple the true system with a run started on the manifold (the
frozen-fast stationary value realized by a burn-in with its own substream)
so that exponential tracking makes the residual O(sqrt(eps)) per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import _increment_blocks, _slow_increments, coupled_error_batch
from .integrator import (DivergedError, _check_stable, _euler, _frozen_fast_run,
                         _trajectory, frozen_fast_batch, make_grid)
from .model import _finite, _lin, _value_into
from .noise import CHUNK_STEPS, ROLE_BURN, ROLE_DEV, _path_increments, _substreams
from .harness import _split_paths, _var_se, two_sample_compare

# central-difference step of ``fbar_derivative``
FD_STEP = 1e-5
# the longest dot product that OpenBLAS takes on one thread (its x86_64
# ddot); a longer one is split across its threads, with bits that depend on
# their count
_DOT_PIECE = 10000


@dataclass
class KernelEstimate:
    """Lagged autocovariance of the centered slow drift at a frozen point."""

    x: np.ndarray
    lags: np.ndarray              # (L+1,) lag times, starting at 0
    h: np.ndarray                 # (L+1, n, n)
    stderr: np.ndarray
    s_max: float
    decayed: bool
    stderr_widened: bool
    fbar_used: np.ndarray
    n_replicas: int


def autocovariance_kernel(m, x, lags, burn_in, horizon, dt, rng, n_replicas=24):
    """Estimate H(s) = E[(f(x, y(s)) - fbar)(f(x, y(0)) - fbar)^T] at ``x``.

    Stationarity is realized by burn-in of the frozen-fast process; the
    estimate pools independent replicas, whose spread provides the standard
    error.  Requires a finite x, one lag or more, a finite burn_in >= 0,
    horizon - burn_in >= 50 * max(lags), so each replica holds enough
    decorrelated windows, and every lag a whole number of steps dt (within
    1e-9 of one, relative).  A replica that diverges raises DivergedError.

    The values of f are written over the window rows of the frozen-fast
    paths, (T, P, n) for T window steps and P replicas, a noise chunk at a
    time, and centred there.  Each replica is then copied coordinate-major,
    (n, T), contiguous along time, and each lag l is one (n, T - l) by
    (T - l, n) product in BLAS: 2 n^2 (T - l) flops, with no copy of the
    window beyond one replica's.  At n = 1 it is a dot product, taken in
    pieces so that its bits do not depend on the BLAS thread count.
    """
    x = _finite(np.atleast_1d(np.asarray(x, dtype=float)), "kernel point x")
    lags = np.asarray(sorted(lags), dtype=float)
    if len(lags) == 0:
        raise ValueError("the lag set is empty: need one lag or more")
    if lags[0] < 0:
        raise ValueError("lags must be nonnegative")
    if not 0 <= burn_in < np.inf:
        raise ValueError(f"burn_in must be nonnegative and finite, not {burn_in}")
    if horizon - burn_in < 50.0 * max(lags[-1], dt):
        raise ValueError("window too short: need horizon - burn_in >= 50*max(lags)")
    if n_replicas < 2:
        raise ValueError(f"need n_replicas >= 2 for a standard error, not {n_replicas}")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, not {dt}")
    steps_per_lag = lags / dt
    whole = np.round(steps_per_lag)
    off = ~(np.abs(steps_per_lag - whole) <= 1e-9 * steps_per_lag)
    if np.any(off):
        raise ValueError(f"lag {lags[off][0]:g} is not a whole number of steps "
                         f"dt={dt:g}")
    lag_idx = whole.astype(int)
    n = m.n
    steps = int(round(horizon / dt))
    first = int(round(burn_in / dt))
    window = frozen_fast_batch(m, x, m.y0, steps, dt, rng, n_replicas)[first:]
    if not np.all(np.isfinite(window[-1])):          # NaN after a divergence
        raise DivergedError("frozen-fast replica diverged during kernel estimation")
    t_len = len(window)
    for lo in range(0, t_len, CHUNK_STEPS):
        rows = window[lo:lo + CHUNK_STEPS]
        rows[...] = m.f(np.broadcast_to(x, rows.shape), rows)
    fbar = window.mean(axis=(0, 1))
    window -= fbar

    # f(x, y(t+s)) against f(x, y(t)), summed over t within each replica
    sums = np.empty((len(lags), n_replicas, n, n))
    for p in range(n_replicas):
        cp = np.ascontiguousarray(window[:, p].T)                # (n, T)
        for k, li in enumerate(lag_idx):
            if n == 1:
                # pieces of at most _DOT_PIECE terms, each one BLAS dot on
                # one thread, added left to right: the bits of any thread count
                a, b = cp[0, li:], cp[0, :t_len - li]
                sums[k, p] = sum(np.dot(a[i:i + _DOT_PIECE], b[i:i + _DOT_PIECE])
                                 for i in range(0, len(a), _DOT_PIECE))
            else:
                np.matmul(cp[:, li:], cp[:, :t_len - li].T, out=sums[k, p])
    h = np.empty((len(lags), n, n))
    se = np.empty((len(lags), n, n))
    for k, li in enumerate(lag_idx):
        per_rep = sums[k] / (t_len - li)
        h[k] = per_rep.mean(axis=0)
        se[k] = per_rep.std(axis=0, ddof=1) / np.sqrt(n_replicas)

    widened = n_replicas < 8
    if widened:
        se = 2.0 * se
    # decay criterion: the top decile of lags sits at the noise floor
    tail = max(1, len(lags) // 10)
    decayed = bool(np.mean(np.abs(h[-tail:])) <= 3.0 * np.mean(se[-tail:]) + 1e-300)
    return KernelEstimate(x, lags, h, se, float(lags[-1]), decayed, widened,
                          fbar, n_replicas)


def diffusion_matrix(kernel):
    """Integrated symmetrized kernel, clipped to the PSD cone.

    Refuses kernels that have not decayed below their noise floor by the
    last lag: the integral would be truncation-dominated.
    """
    if not kernel.decayed:
        raise ValueError(
            "kernel has not decayed below the noise floor by "
            f"s_max={kernel.s_max}; extend the lags or the horizon")
    sym = kernel.h + np.transpose(kernel.h, (0, 2, 1))
    htilde = np.trapezoid(sym, kernel.lags, axis=0)
    htilde = 0.5 * (htilde + htilde.T)
    w, q = np.linalg.eigh(htilde)
    out = (q * np.clip(w, 0.0, None)) @ q.T
    return 0.5 * (out + out.T)


def fbar_derivative(am, x):
    """Jacobian of the averaged drift at ``x`` (n,), or at each row of x
    (..., n) as (..., n, n).

    Uses the exact matrix when the averaged drift is linear, otherwise
    central differences of step ``FD_STEP``, every column at every row in
    one pair of ``fbar`` calls.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[-1]
    if am.fbar.deriv_matrix is not None:
        return np.array(np.broadcast_to(am.fbar.deriv_matrix, x.shape + (n,)), dtype=float)
    if FD_STEP < 1e3 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(x)))):
        raise ValueError(f"x is too large for the difference step {FD_STEP:g}: "
                         "central differences would cancel")
    # row j of the last two axes is fbar at x + FD_STEP e_j, less at x - FD_STEP e_j
    shifts, at = FD_STEP * np.eye(n), x[..., None, :]
    diff = am.fbar(at + shifts) - am.fbar(at - shifts)
    return np.swapaxes(diff, -1, -2) / (2.0 * FD_STEP)


def matrix_sqrt_psd(matrix):
    """Symmetric PSD square root S with S @ S.T = matrix, by eigendecomposition.

    Non-finite entries and eigenvalues below -1e-10 mean the input is not a
    covariance and are rejected; small negative values are clipped to zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix has non-finite entries")
    scale = max(float(np.max(np.abs(matrix))), 1.0)
    if np.max(np.abs(matrix - matrix.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    w, q = np.linalg.eigh(matrix)
    if np.min(w) < -1e-10 * scale:
        raise ValueError(f"matrix has eigenvalue {np.min(w):.3g} below -1e-10")
    return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T


def _matvec(mat, v):
    """mat v over the leading axes of v: one (n, n) matrix, or one per row."""
    if mat.ndim == 2:
        return _lin(mat, v)
    return (mat @ v[..., None])[..., 0]


class DeviationModel:
    """Coefficients of the limit SDE: drift Jacobian and diffusion matrix.

    ``fbar_deriv`` and ``htilde`` may be constant matrices or callables of
    one slow state.  ``_drift_into`` and ``noise`` take slow states batched
    over leading axes and evaluate a callable once per row; they are the
    only readers of the coefficient kind.
    """

    def __init__(self, a, fbar_deriv, htilde):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.n = self.a.shape[0]
        self.deriv_const, self.htilde_const = (
            None if callable(coef) else self._square(name, coef)
            for name, coef in (("fbar_deriv", fbar_deriv), ("htilde", htilde)))
        self._deriv = fbar_deriv if callable(fbar_deriv) else self.deriv_const
        if callable(htilde):
            self._sqrt = lambda x: matrix_sqrt_psd(htilde(x))
        else:
            self._sqrt = matrix_sqrt_psd(self.htilde_const)

    def _square(self, name, coef):
        """A constant coefficient as an n x n float matrix, or ValueError."""
        coef = np.atleast_2d(np.asarray(coef, dtype=float))
        if coef.shape != (self.n, self.n):
            raise ValueError(f"{name} must be {self.n} x {self.n} for a model of "
                             f"dimension {self.n}, not of shape {coef.shape}")
        return coef

    def _at(self, coef, x):
        """A coefficient at slow states x (..., n): the constant (n, n)
        matrix, or the callable evaluated once per distinct row, (..., n, n);
        paths that share a carrier share its evaluations.  A callable with a
        true ``rows`` attribute takes all distinct rows (k, n) in one call."""
        if not callable(coef):
            return coef
        x = np.asarray(x, dtype=float)
        rows, where = np.unique(x.reshape(-1, self.n), axis=0, return_inverse=True)
        mats = coef(rows) if getattr(coef, "rows", False) else [coef(r) for r in rows]
        mats = np.reshape(mats, (-1, self.n, self.n))
        return mats[where.reshape(-1)].reshape(x.shape[:-1] + (self.n, self.n))

    def _drift_into(self, d, theta, x):
        """Complete A theta + J(x) theta, for fluctuations theta (..., n) along
        slow states x, in the float buffer d that holds A theta."""
        np.add(d, _matvec(self._at(self._deriv, x), theta), out=d)

    def noise(self, dw, x):
        """sqrt(Htilde(x)) dw for Brownian increments dw (..., n)."""
        return _matvec(self._at(self._sqrt, x), dw)


def build_deviation_model(am, htilde, x=None):
    """Assemble the limit-SDE coefficients from an averaged model and a
    diffusion matrix; the drift Jacobian is taken at ``x``, or at each
    carrier state when ``x`` is None and the averaged drift is not linear."""
    if am.fbar.deriv_matrix is not None or x is not None:
        deriv = fbar_derivative(am, am.x0 if x is None else x)
    else:
        def deriv(xv):
            return fbar_derivative(am, xv)
        deriv.rows = True
    return DeviationModel(am.a, deriv, htilde)


def simulate_deviation(dm, x_path, t_end, dt, rng):
    """Integrate the limit SDE along a realized averaged path, theta(0) = 0."""
    grid = make_grid(t_end, dt)
    if x_path.grid[-1] < t_end - 1e-12:
        raise ValueError("carrier path does not cover [0, t_end]")
    dw = _path_increments(dm.n, grid, [rng])
    # left-endpoint state of the carrier path at every step
    idx = np.clip(np.searchsorted(x_path.grid, grid[:-1] + 1e-12, side="right") - 1,
                  0, len(x_path.grid) - 1)
    x_at = x_path.states[idx, None]
    run = _euler((np.zeros((1, dm.n)),), (dm.a,),
                 lambda k, s, d: dm._drift_into(d[0], s[0], x_at[k]), (dt,),
                 (lambda k, s: dm.noise(dw[k], x_at[k]),), grid, dt, path=True)
    return _trajectory(grid, run.path[0][:, 0], run.diverged_at[0])


def _manifold_started_inputs(m, t_end, dt, master_seed, start, count):
    """Fast/slow increments plus a manifold start per path.

    The manifold start is the frozen-fast stationary value at x0, realized
    by a burn-in of 10 epsilon / gamma_b (ten fast relaxation times) on the
    path's own burn substream; all paths burn in as one batch.
    """
    grid = make_grid(t_end, dt)
    _check_stable(grid, dt, m.epsilon)
    burn_steps = max(int(round(10.0 * m.epsilon / m.gamma_b / dt)), 1)
    d_fast, d_slow = _increment_blocks(m, grid, master_seed, start, count)
    scale = 1.0 / m.epsilon
    burn = _substreams(master_seed, start, count, ROLE_BURN)
    d_burn = _path_increments(m.n, dt * np.arange(burn_steps + 1), burn,
                              jump=m.jump_fast, speed=scale)
    x0, y0 = (np.broadcast_to(v, d_burn.shape[1:]) for v in (m.x0, m.y0))
    # the burn-in steps the frozen-fast equation at the fast rate dt / epsilon
    h = dt * scale
    y_h0 = _frozen_fast_run(m, x0, y0, h * np.arange(burn_steps + 1), h,
                            d_burn).state[0]
    return grid, d_fast, d_slow, y_h0


@dataclass
class Theta2Report:
    mean_sup_sq: float
    stderr: float
    epsilon: float
    n_paths: int
    n_diverged: int


def residual_theta2(m, epsilon, t_end, dt, n_paths, master_seed,
                    y_on_manifold=False):
    """Monte-Carlo estimate of E sup_t |theta2|^2.

    theta2 integrates A theta2 + (f(x, y) - f(x_h, y_h)) / sqrt(eps) where
    (x_h, y_h) is the same system started on the manifold and driven by the
    same noise.  ``y_on_manifold`` starts the true path on the manifold too,
    which collapses the residual to zero exactly.
    """
    me = m.with_epsilon(epsilon)
    grid, d_fast, d_slow, y_h0 = _manifold_started_inputs(
        me, t_end, dt, master_seed, 0, n_paths)
    n = me.n
    root = math.sqrt(epsilon)
    # f is needed alone for theta2, so the slow drifts add a value of it
    fx, fxh = np.empty((2, n_paths, n))

    def drift(k, s, d):
        x, xh, y, yh = s[1], s[2], s[3], s[4]
        _value_into(fx, me.f._add, x, y)
        _value_into(fxh, me.f._add, xh, yh)
        d[1] += fx
        d[2] += fxh
        me.g._add(d[3], x, y)
        me.g._add(d[4], xh, yh)
        np.subtract(fx, fxh, out=fx)
        np.divide(fx, root, out=fx)
        d[0] += fx

    x0 = np.broadcast_to(me.x0, (n_paths, n))
    y0 = y_h0 if y_on_manifold else np.broadcast_to(me.y0, (n_paths, n))
    ds = None if d_slow is None else (me.sigma1, d_slow)
    df = (me.sigma2, d_fast)
    run = _euler((np.zeros((n_paths, n)), x0, x0, y0, y_h0),
                 (me.a, me.a, me.a, me.b, me.b), drift,
                 (dt, dt, dt, dt / epsilon, dt / epsilon), (None, ds, ds, df, df),
                 grid, dt, sup=lambda k, s: np.sum(s[0] * s[0], axis=-1))
    alive = ~run.diverged
    vals = run.sup[alive]
    if len(vals) == 0:
        raise RuntimeError("all residual paths diverged")
    return Theta2Report(float(vals.mean()),
                        float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0,
                        epsilon, n_paths, int((~alive).sum()))


def simulate_truncated_deviation(m, am, epsilon, radius, t_end, dt, master_seed,
                                 path_index=0, return_drive=False):
    """Gated fluctuation: d theta1 = A theta1 dt + q(theta1) drive dt.

    The drive is (f(x_h, y_h) - fbar(x_avg)) / sqrt(eps) along a manifold-
    started run coupled to the averaged path; the gate q is 1 inside the ball
    |theta1| <= K and 0 outside, evaluated at the step's start.  The
    ``radius`` K is a positive float; inf gives the ungated process.
    """
    radius = float(radius)
    if not radius > 0:
        raise ValueError(f"truncation radius must be positive, not {radius}")
    me = m.with_epsilon(epsilon)
    grid, d_fast, d_slow, y_h0 = _manifold_started_inputs(
        me, t_end, dt, master_seed, path_index, 1)
    n = me.n
    steps = len(grid) - 1
    drives = np.empty((steps, 1, n))
    gates = np.empty(steps)
    root = math.sqrt(epsilon)
    fxh, fb = np.empty((2, 1, n))

    def drift(k, s, d):
        theta1, xh, yh, xa = s[0], s[1], s[2], s[3]
        _value_into(fxh, me.f._add, xh, yh)
        _value_into(fb, am.fbar._add, xa)
        drive = drives[k]
        np.subtract(fxh, fb, out=drive)
        drive /= root
        gate = 1.0 if float(np.linalg.norm(theta1)) <= radius else 0.0
        gates[k] = gate
        d[0] += gate * drive
        d[1] += fxh
        me.g._add(d[2], xh, yh)
        d[3] += fb

    ds = None if d_slow is None else (me.sigma1, d_slow)
    run = _euler((np.zeros((1, n)), me.x0, y_h0, am.x0), (me.a, me.a, me.b, am.a), drift,
                 (dt, dt, dt / epsilon, dt), (None, ds, (me.sigma2, d_fast), ds),
                 grid, dt, path=True)
    traj = _trajectory(grid, run.path[0][:, 0], run.diverged_at[0])
    if return_drive:
        return traj, {"drive": drives[:, 0], "gate": gates}
    return traj


@dataclass
class WeakLimitReport:
    epsilon: float
    n_paths: int
    mean_diff: np.ndarray
    var_diff: np.ndarray
    cdf_distance: np.ndarray
    critical_value: float
    theta_mean: np.ndarray
    theta_var: np.ndarray
    theta_mean_se: np.ndarray
    theta_var_se: np.ndarray
    diverged_eps: int             # coupled paths left out
    diverged_limit: int           # limit SDE paths left out
    passed: bool


def _drop_diverged(samples):
    """Finite rows of (paths, n) samples, and how many rows were dropped."""
    alive = np.all(np.isfinite(samples), axis=1)     # diverged paths are NaN
    return samples[alive], int((~alive).sum())


def rescaled_fluctuation_samples(m, am, t_end, dt, n_paths, master_seed):
    """Samples of (x_eps(T) - x(T)) / sqrt(eps) over coupled path pairs,
    without the diverged ones, and their count."""
    _, diff_t, _ = coupled_error_batch(m, am, t_end, dt, master_seed, 0, n_paths,
                                       _sup=False)
    return _drop_diverged(diff_t / math.sqrt(m.epsilon))


def limit_marginal_samples(dm, am, t_end, dt, n_paths, master_seed):
    """Samples of theta(T) from the limit SDE, one substream per path.

    One batched run steps the averaged carrier and theta together: every
    path's carrier starts at the averaged start and moves on the path's slow
    substream, and theta rides it on the path's deviation substream.  So row
    i equals ``simulate_deviation`` along path i's carrier with
    ``substream(master_seed, i, ROLE_DEV)``.  A large batch runs in forked
    worker processes, a contiguous range of paths each, to the same rows
    (``_split_paths``).  Diverged paths are NaN.
    """
    grid = make_grid(t_end, dt)
    return _split_paths(
        lambda lo, k: _limit_range(dm, am, grid, dt, master_seed, lo, k),
        0, n_paths, len(grid) - 1)


def _limit_range(dm, am, grid, dt, master_seed, start, count):
    """``limit_marginal_samples`` rows of paths [start, start+count), in this
    process."""
    n = dm.n
    d_slow = _slow_increments(am, grid, master_seed, start, count)
    dw = _path_increments(n, grid, _substreams(master_seed, start, count, ROLE_DEV))

    def drift(k, s, d):
        am.fbar._add(d[0], s[0])
        dm._drift_into(d[1], s[1], s[0])

    x0 = np.broadcast_to(am.x0, (count, n))
    run = _euler((x0, np.zeros((count, n))), (am.a, dm.a), drift, (dt, dt),
                 (None if d_slow is None else (am.sigma1, d_slow),
                  lambda k, s: dm.noise(dw[k], s[0])), grid, dt)
    return run.state[1]


def weak_limit_report(m, am, dm, t_end, dt, n_paths, master_seed,
                      dt_limit=None, alpha=0.01):
    """Desk-scale weak-convergence check of the rescaled fluctuation marginal.

    Compares the empirical law of (x_eps(T) - x(T)) / sqrt(eps) against
    samples of the limit SDE marginal: CDF distance at level alpha plus
    moment gates.  Diverged paths of either side are left out and counted,
    and any of them fails the check; fewer than 2 finite samples on a side
    raise DivergedError.
    """
    theta_eps, div_eps = rescaled_fluctuation_samples(m, am, t_end, dt, n_paths,
                                                      master_seed)
    dt_limit = dt_limit if dt_limit is not None else min(10 * dt, 1e-3)
    theta_lim, div_lim = _drop_diverged(limit_marginal_samples(
        dm, am, t_end, dt_limit, n_paths, master_seed + 1))
    if min(len(theta_eps), len(theta_lim)) < 2:
        raise DivergedError(
            f"{div_eps} of {n_paths} coupled paths and {div_lim} of {n_paths} "
            f"limit paths diverged, leaving fewer than 2 finite samples on a side")
    cmp = two_sample_compare(theta_eps, theta_lim, alpha=alpha)
    var = theta_eps.var(axis=0, ddof=1)
    var_se = np.array([_var_se(col) for col in theta_eps.T])
    return WeakLimitReport(
        m.epsilon, n_paths, cmp.mean_diff, cmp.var_diff, cmp.cdf_distance,
        cmp.critical_value, theta_eps.mean(axis=0), var,
        theta_eps.std(axis=0, ddof=1) / np.sqrt(len(theta_eps)), var_se,
        div_eps, div_lim, cmp.passed and div_eps == 0 and div_lim == 0)
