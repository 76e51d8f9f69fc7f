"""Normal-deviation limit: fluctuation kernel, limit SDE, and diagnostics.

The rescaled fluctuation (x_eps - x)/sqrt(eps) converges weakly to the
linear SDE

    d theta = A theta dt + J(x(t)) theta dt + sqrt(Htilde(x(t))) dW'

where J is the Jacobian of the averaged drift and Htilde integrates the
stationary autocovariance of f(x, .) along the fast invariant state:
Htilde_ij = int_0^inf (H_ij(s) + H_ji(s)) ds, symmetrized so the square root
exists.  The driving W' is taken independent of the slow noise: the limit
fluctuation originates in the fast noise.  The matrix-valued drift reading
(adding J(x) itself rather than J(x) theta) is exposed behind
``literal_drift`` for comparison; both coincide whenever the averaged drift
is constant.

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

from .averaging import _increment_blocks, simulate_averaged
from .integrator import (_euler, _trajectory, _write_csv, apply_noise,
                         frozen_fast_batch, make_grid)
from .model import has_slow_noise
from .noise import ROLE_BURN, ROLE_DEV, ROLE_SLOW, sample_increments, substream
from .harness import _var_se, two_sample_compare


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

    def to_csv(self, path):
        n = self.h.shape[-1]
        names = [f"H_{i+1}{j+1}" for i in range(n) for j in range(n)]
        errs = [f"stderr_{i+1}{j+1}" for i in range(n) for j in range(n)]
        rows = np.column_stack([self.lags, self.h.reshape(-1, n * n),
                                self.stderr.reshape(-1, n * n)])
        _write_csv(path, ",".join(["s"] + names + errs), rows)


def autocovariance_kernel(m, x, lags, burn_in, horizon, dt, rng, n_replicas=24):
    """Estimate H(s) = E[(f(x, y(s)) - fbar)(f(x, y(0)) - fbar)^T] at ``x``.

    Stationarity is realized by burn-in of the frozen-fast process; the
    estimate pools independent replicas, whose spread provides the standard
    error.  Requires horizon - burn_in >= 50 * max(lags) so each replica
    holds enough decorrelated windows.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lags = np.asarray(sorted(lags), dtype=float)
    if lags[0] < 0:
        raise ValueError("lags must be nonnegative")
    if horizon - burn_in < 50.0 * max(lags[-1], dt):
        raise ValueError("window too short: need horizon - burn_in >= 50*max(lags)")
    n = m.n
    steps = int(round(horizon / dt))
    ys = frozen_fast_batch(m, x, m.y0, steps, dt, rng, n_replicas)
    first = int(round(burn_in / dt))
    window = ys[first:]                       # (T, P, n)
    xb = np.broadcast_to(x, window.shape)
    f_vals = m.f(xb, window)
    fbar = f_vals.mean(axis=(0, 1))
    centered = f_vals - fbar                  # (T, P, n)

    lag_idx = np.round(lags / dt).astype(int)
    h = np.empty((len(lags), n, n))
    se = np.empty((len(lags), n, n))
    t_len = centered.shape[0]
    for k, li in enumerate(lag_idx):
        lead = centered[li:]                  # f(x, y(t+s))
        base = centered[:t_len - li]
        per_rep = np.einsum("tpi,tpj->pij", lead, base) / (t_len - li)
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


def fbar_derivative(am, x, fd_step=1e-5):
    """Jacobian of the averaged drift at ``x``.

    Uses the exact matrix when the averaged drift is linear, otherwise
    central differences column by column.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(x)
    if am.fbar.deriv_matrix is not None:
        return np.array(am.fbar.deriv_matrix, dtype=float)
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    if fd_step < 1e3 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(x)))):
        raise ValueError("fd_step too small: central differences would cancel")
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = fd_step
        jac[:, j] = (am.fbar(x + e) - am.fbar(x - e)) / (2.0 * fd_step)
    return jac


def matrix_sqrt_psd(matrix):
    """Symmetric PSD square root S with S @ S.T = matrix, by eigendecomposition.

    Eigenvalues below -1e-10 mean the input is not a covariance and are
    rejected; small negative values are clipped to zero.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    scale = max(float(np.max(np.abs(matrix))), 1.0)
    if np.max(np.abs(matrix - matrix.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    w, q = np.linalg.eigh(matrix)
    if np.min(w) < -1e-10 * scale:
        raise ValueError(f"matrix has eigenvalue {np.min(w):.3g} below -1e-10")
    return (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T


class DeviationModel:
    """Coefficients of the limit SDE: drift Jacobian and diffusion matrix.

    ``fbar_deriv`` and ``htilde`` may be constant matrices or callables of
    the slow state; square roots are cached per evaluation point.
    """

    def __init__(self, a, fbar_deriv, htilde, literal_drift=False):
        self.a = np.atleast_2d(np.asarray(a, dtype=float))
        self.n = self.a.shape[0]
        self._deriv = fbar_deriv
        self._htilde = htilde
        self.literal_drift = bool(literal_drift)
        self._sqrt_cache = {}
        self.deriv_const = (np.atleast_2d(np.asarray(fbar_deriv, dtype=float))
                            if not callable(fbar_deriv) else None)
        self.htilde_const = (np.atleast_2d(np.asarray(htilde, dtype=float))
                             if not callable(htilde) else None)
        if self.htilde_const is not None:
            self.sqrt_const = matrix_sqrt_psd(self.htilde_const)
        else:
            self.sqrt_const = None

    def deriv(self, x):
        if self.deriv_const is not None:
            return self.deriv_const
        return np.atleast_2d(np.asarray(self._deriv(x), dtype=float))

    def htilde(self, x):
        if self.htilde_const is not None:
            return self.htilde_const
        return np.atleast_2d(np.asarray(self._htilde(x), dtype=float))

    def sqrt_htilde(self, x):
        if self.sqrt_const is not None:
            return self.sqrt_const
        key = np.asarray(x, dtype=float).tobytes()
        cached = self._sqrt_cache.get(key)
        if cached is None:
            cached = matrix_sqrt_psd(self.htilde(x))
            if len(self._sqrt_cache) < 4096:
                self._sqrt_cache[key] = cached
        return cached

    def to_json(self):
        return {
            "a": self.a.tolist(),
            "fbar_deriv": self.deriv_const.tolist() if self.deriv_const is not None else "callable",
            "htilde": self.htilde_const.tolist() if self.htilde_const is not None else "callable",
            "literal_drift": self.literal_drift,
        }


def build_deviation_model(am, kernel_or_htilde, x=None, fd_step=1e-5,
                          literal_drift=False):
    """Assemble the limit-SDE coefficients from an averaged model and either
    a KernelEstimate or an explicit diffusion matrix."""
    if isinstance(kernel_or_htilde, KernelEstimate):
        htilde = diffusion_matrix(kernel_or_htilde)
        if x is None:
            x = kernel_or_htilde.x
    else:
        htilde = np.atleast_2d(np.asarray(kernel_or_htilde, dtype=float))
    if am.fbar.deriv_matrix is not None:
        deriv = np.array(am.fbar.deriv_matrix, dtype=float)
    elif x is not None:
        deriv = fbar_derivative(am, x, fd_step=fd_step)
    else:
        deriv = lambda xv: fbar_derivative(am, xv, fd_step=fd_step)
    return DeviationModel(am.a, deriv, htilde, literal_drift=literal_drift)


def simulate_deviation(dm, x_path, t_end, dt, rng, literal_drift=None):
    """Integrate the limit SDE along a realized averaged path, theta(0) = 0."""
    literal = dm.literal_drift if literal_drift is None else literal_drift
    grid = make_grid(t_end, dt)
    if x_path.grid[-1] < t_end - 1e-12:
        raise ValueError("carrier path does not cover [0, t_end]")
    steps = len(grid) - 1
    n = dm.n
    a_t = dm.a.T
    dw = rng.normal(0.0, math.sqrt(dt), size=(steps, n))
    # left-endpoint state of the carrier path at every step, resolved once
    idx = np.clip(np.searchsorted(x_path.grid, grid[:-1] + 1e-12, side="right") - 1,
                  0, len(x_path.grid) - 1)
    x_at = x_path.states[idx]
    ones = np.ones(n)

    def drift(k, s):
        jac = dm.deriv(x_at[k])
        return (s[0] @ a_t + (jac @ ones if literal else jac @ s[0]),)

    run = _euler((np.zeros(n),), drift, (dt,),
                 (lambda k, s: dm.sqrt_htilde(x_at[k]) @ dw[k],), steps, path=True)
    meta = {"process": "deviation", "dt": dt, "literal_drift": literal}
    return _trajectory(grid, run.path[0], meta, run.diverged_at)


@dataclass
class TruncationSpec:
    """Gating radius for the truncated fluctuation; inf disables the gate."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("truncation radius must be positive")


def _manifold_started_inputs(m, t_end, dt, master_seed, start, count,
                             burn_time=None):
    """Fast/slow increments plus a manifold start per path.

    The manifold start is the frozen-fast stationary value at x0, realized
    by a burn-in at the fast timescale on the path's own burn substream.
    """
    grid = make_grid(t_end, dt)
    if burn_time is None:
        burn_time = 10.0 * m.epsilon / m.gamma_b
    burn_steps = max(int(round(burn_time / dt)), 1)
    d_fast, d_slow = _increment_blocks(m, grid, master_seed, start, count)
    y_h0 = np.empty((count, m.n))
    for i in range(count):
        burn_rng = substream(master_seed, start + i, ROLE_BURN)
        burn = frozen_fast_batch(m, m.x0, m.y0, burn_steps, dt, burn_rng, 1,
                                 fast_rate=True)
        y_h0[i] = burn[-1, 0]
    return grid, d_fast, d_slow, y_h0


@dataclass
class Theta2Report:
    mean_sup_sq: float
    stderr: float
    epsilon: float
    n_paths: int
    n_diverged: int

    def to_json(self):
        return {"mean_sup_sq": self.mean_sup_sq, "stderr": self.stderr,
                "epsilon": self.epsilon, "n_paths": self.n_paths,
                "n_diverged": self.n_diverged}


def residual_theta2(m, epsilon, t_end, dt, n_paths, master_seed,
                    burn_time=None, y_on_manifold=False):
    """Monte-Carlo estimate of E sup_t |theta2|^2.

    theta2 integrates A theta2 + (f(x, y) - f(x_h, y_h)) / sqrt(eps) where
    (x_h, y_h) is the same system started on the manifold and driven by the
    same noise.  ``y_on_manifold`` starts the true path on the manifold too,
    which collapses the residual to zero exactly.
    """
    me = m.with_epsilon(epsilon)
    if dt > epsilon / 10 + 1e-15:
        raise ValueError("dt violates the stability guard dt <= epsilon/10")
    grid, d_fast, d_slow, y_h0 = _manifold_started_inputs(
        me, t_end, dt, master_seed, 0, n_paths, burn_time=burn_time)
    n = me.n
    a_t, b_t = me.a.T, me.b.T
    root = math.sqrt(epsilon)

    def drift(k, s):
        theta2, x, xh, y, yh = s
        fx, fxh = me.f(x, y), me.f(xh, yh)
        return (theta2 @ a_t + (fx - fxh) / root, x @ a_t + fx, xh @ a_t + fxh,
                y @ b_t + me.g(x, y), yh @ b_t + me.g(xh, yh))

    x0 = np.broadcast_to(me.x0, (n_paths, n))
    y0 = y_h0 if y_on_manifold else np.broadcast_to(me.y0, (n_paths, n))
    ds = None if d_slow is None else (me.sigma1, d_slow)
    df = (me.sigma2, d_fast)
    run = _euler((np.zeros((n_paths, n)), x0, x0, y0, y_h0), drift,
                 (dt, dt, dt, dt / epsilon, dt / epsilon), (None, ds, ds, df, df),
                 len(grid) - 1, sup=lambda s: np.sum(s[0] * s[0], axis=-1))
    alive = ~run.diverged
    vals = run.sup[alive]
    if len(vals) == 0:
        raise RuntimeError("all residual paths diverged")
    return Theta2Report(float(vals.mean()),
                        float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0,
                        epsilon, n_paths, int((~alive).sum()))


def simulate_truncated_deviation(m, am, epsilon, trunc, t_end, dt, master_seed,
                                 path_index=0, burn_time=None,
                                 return_drive=False):
    """Gated fluctuation: d theta1 = A theta1 dt + q(theta1) drive dt.

    The drive is (f(x_h, y_h) - fbar(x_avg)) / sqrt(eps) along a manifold-
    started run coupled to the averaged path; the gate q is 1 inside the ball
    |theta1| <= K and 0 outside, evaluated at the step's start.  ``trunc``
    may be a TruncationSpec, a positive float (inf allowed), or None for the
    ungated process.
    """
    if not isinstance(trunc, TruncationSpec):
        trunc = TruncationSpec(math.inf if trunc is None else float(trunc))
    radius = trunc.k
    me = m.with_epsilon(epsilon)
    if dt > epsilon / 10 + 1e-15:
        raise ValueError("dt violates the stability guard dt <= epsilon/10")
    grid, d_fast, d_slow, y_h0 = _manifold_started_inputs(
        me, t_end, dt, master_seed, path_index, 1, burn_time=burn_time)
    n = me.n
    steps = len(grid) - 1
    a_t, b_t = me.a.T, me.b.T
    drives = np.empty((steps, n))
    gates = np.empty(steps)
    root = math.sqrt(epsilon)

    def drift(k, s):
        theta1, xh, yh, xa = s
        fxh = me.f(xh, yh)
        fb = am.fbar(xa)
        drive = (fxh - fb) / root
        gate = 1.0 if float(np.linalg.norm(theta1)) <= radius else 0.0
        drives[k] = drive
        gates[k] = gate
        return (theta1 @ a_t + gate * drive, xh @ a_t + fxh,
                yh @ b_t + me.g(xh, yh), xa @ a_t + fb)

    ds = None if d_slow is None else (me.sigma1, d_slow[:, 0])
    run = _euler((np.zeros(n), me.x0, y_h0[0], am.x0), drift,
                 (dt, dt, dt / epsilon, dt), (None, ds, (me.sigma2, d_fast[:, 0]), ds),
                 steps, path=True)
    traj = _trajectory(grid, run.path[0], {"process": "truncated-deviation",
                                           "k": radius, "epsilon": epsilon},
                       run.diverged_at)
    if return_drive:
        return traj, {"drive": drives, "gate": gates}
    return traj


def simulate_corrected(am, dm, epsilon, t_end, dt, rng, seed_tag=None):
    """Averaged slow equation plus the sqrt(eps)-scaled fluctuation noise.

    The correction's Brownian motion is independent of the slow noise (child
    streams: slow first, then the correction).  epsilon = 0 reproduces the
    plain averaged path for the same generator state.
    """
    c_slow, c_dev = rng.spawn(2)
    grid = make_grid(t_end, dt)
    n = am.n
    incr = sample_increments(n, grid, c_slow, jump=am.jump_slow)
    steps = len(grid) - 1
    dw = c_dev.normal(0.0, math.sqrt(dt), size=(steps, n))
    d_slow = incr.d_brownian + incr.d_jump
    a_t = am.a.T
    root = math.sqrt(epsilon)

    def noise(k, s):
        return (apply_noise(am.sigma1, d_slow[k])
                + root * (dm.sqrt_htilde(s[0]) @ dw[k]))

    run = _euler((am.x0,), lambda k, s: (s[0] @ a_t + am.fbar(s[0]),), (dt,),
                 (noise,), steps, path=True)
    meta = {"process": "corrected", "epsilon": epsilon, "dt": dt, "seed": seed_tag}
    return _trajectory(grid, run.path[0], meta, run.diverged_at)


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
    passed: bool

    def to_json(self):
        return {"epsilon": self.epsilon, "n_paths": self.n_paths,
                "mean_diff": self.mean_diff.tolist(),
                "var_diff": self.var_diff.tolist(),
                "cdf_distance": self.cdf_distance.tolist(),
                "critical_value": self.critical_value,
                "theta_mean": self.theta_mean.tolist(),
                "theta_var": self.theta_var.tolist(),
                "pass": bool(self.passed)}


def rescaled_fluctuation_samples(m, am, t_end, dt, n_paths, master_seed,
                                 batch=2000):
    """Samples of (x_eps(T) - x(T)) / sqrt(eps) over coupled path pairs."""
    from .averaging import coupled_error_batch
    out = np.empty((n_paths, m.n))
    for s in range(0, n_paths, batch):
        c = min(batch, n_paths - s)
        _, diff_t, _ = coupled_error_batch(m, am, t_end, dt, master_seed, s, c)
        out[s:s + c] = diff_t / math.sqrt(m.epsilon)
    alive = np.all(np.isfinite(out), axis=1)         # diverged paths are NaN
    return out[alive], int((~alive).sum())


def limit_marginal_samples(dm, am, t_end, dt, n_paths, master_seed):
    """Samples of theta(T) from the limit SDE, one substream per path.

    When the averaged equation is deterministic (no slow noise), all paths
    share its single realized trajectory and the stepping vectorizes; with
    slow noise each path rides its own averaged realization.
    """
    n = dm.n
    grid = make_grid(t_end, dt)
    steps = len(grid) - 1
    deterministic_x = not has_slow_noise(am)
    if deterministic_x and dm.htilde_const is not None and dm.deriv_const is not None:
        dw = np.empty((steps, n_paths, n))
        for i in range(n_paths):
            dw[:, i, :] = substream(master_seed, i, ROLE_DEV).normal(
                0.0, math.sqrt(dt), size=(steps, n))
        a_t = dm.a.T
        j_t = dm.deriv_const.T
        return _euler((np.zeros((n_paths, n)),),
                      lambda k, s: (s[0] @ a_t + s[0] @ j_t,), (dt,),
                      ((dm.sqrt_const, dw),), steps).state[0]
    zero = sample_increments(n, grid, substream(master_seed, 0, ROLE_SLOW),
                             jump=am.jump_slow)
    samples = np.empty((n_paths, n))
    for i in range(n_paths):
        slow = sample_increments(n, grid, substream(master_seed, i, ROLE_SLOW),
                                 jump=am.jump_slow) if not deterministic_x else zero
        x_path = simulate_averaged(am, t_end, dt, slow)
        traj = simulate_deviation(dm, x_path, t_end, dt,
                                  substream(master_seed, i, ROLE_DEV))
        samples[i] = traj.states[-1]
    return samples


def weak_limit_report(m, am, dm, t_end, dt, n_paths, master_seed,
                      dt_limit=None, alpha=0.01, batch=2000):
    """Desk-scale weak-convergence check of the rescaled fluctuation marginal.

    Compares the empirical law of (x_eps(T) - x(T)) / sqrt(eps) against
    samples of the limit SDE marginal: CDF distance at level alpha plus
    moment gates.
    """
    theta_eps, n_div = rescaled_fluctuation_samples(m, am, t_end, dt, n_paths,
                                                    master_seed, batch=batch)
    dt_limit = dt_limit if dt_limit is not None else min(10 * dt, 1e-3)
    theta_lim = limit_marginal_samples(dm, am, t_end, dt_limit, n_paths,
                                       master_seed + 1)
    cmp = two_sample_compare(theta_eps, theta_lim, alpha=alpha)
    var = theta_eps.var(axis=0, ddof=1)
    var_se = np.array([_var_se(col) for col in theta_eps.T])
    return WeakLimitReport(
        m.epsilon, n_paths, cmp.mean_diff, cmp.var_diff, cmp.cdf_distance,
        cmp.critical_value, theta_eps.mean(axis=0), var,
        theta_eps.std(axis=0, ddof=1) / np.sqrt(len(theta_eps)), var_se,
        cmp.passed)
