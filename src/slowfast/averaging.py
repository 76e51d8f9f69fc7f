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
error as epsilon shrinks; block-averaging auxiliaries support the same
construction at fixed block size delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .harness import fit_exp_rate, fit_loglog_rate
from .integrator import (DivergedError, _euler, _nan_after_divergence,
                         _trajectory, _write_csv, frozen_fast_batch, make_grid,
                         simulate_frozen_fast)
from .model import has_slow_noise
from .noise import (ROLE_FAST, ROLE_SLOW, rescale_fast, sample_increments,
                    substream)


class AveragedDrift:
    """Averaged slow drift fbar(x), vectorized over (..., n)."""

    def __init__(self, n, kind, fn, deriv_matrix=None, table=None):
        self.n = n
        self.kind = kind               # zero | y-independent | linear | tabulated
        self._fn = fn
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


def estimate_fbar(m, x, burn_in=None, horizon=60.0, dt=0.005, rng=None,
                  n_batches=16):
    """Ergodic estimate of the averaged drift at ``x``.

    Time-averages f(x, y_x(s)) over s in [burn_in, horizon] along one
    frozen-fast path; the standard error comes from batch means.  The default
    burn-in is 10/gamma_b, the safe linear relaxation scale.
    """
    if burn_in is None:
        burn_in = 10.0 / m.gamma_b
    if not horizon > burn_in:
        raise ValueError("horizon must exceed burn_in")
    traj = simulate_frozen_fast(m, x, m.y0, horizon, dt, rng=rng)
    if traj.diverged:
        raise DivergedError("frozen-fast path diverged during fbar estimation")
    keep = traj.grid >= burn_in
    vals = m.f(np.broadcast_to(np.asarray(x, float), traj.states[keep].shape),
               traj.states[keep])
    value = vals.mean(axis=0)
    batches = np.array_split(vals, n_batches, axis=0)
    bm = np.stack([b.mean(axis=0) for b in batches])
    stderr = bm.std(axis=0, ddof=1) / np.sqrt(len(batches))
    return FbarEstimate(value, stderr)


def build_averaged(m, mode="auto", table_axes=None, rng=None, burn_in=None,
                   horizon=60.0, dt=0.005):
    """Construct the averaged model for ``m``.

    ``mode='auto'`` picks the exact shortcut when the drift ignores the fast
    variable, the closed form when both nonlinearities are linear families,
    and otherwise tabulates ergodic estimates on ``table_axes`` (a sequence
    of 1-D node arrays, one per dimension).
    """
    n = m.n
    if mode == "auto":
        if m.f.kind == "zero":
            mode = "zero"
        elif not m.f.depends_on_y:
            mode = "y-independent"
        elif m.f.kind in ("linear", "constant", "zero") and \
                m.g.kind in ("linear", "constant", "zero"):
            mode = "linear"
        else:
            mode = "tabulated"

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
            return x @ jac.T + shift

        fbar = AveragedDrift(n, "linear", fn, deriv_matrix=jac)
    elif mode == "tabulated":
        if table_axes is None or rng is None:
            raise ValueError("tabulated averaging needs table_axes and rng")
        axes = [np.asarray(ax, dtype=float) for ax in table_axes]
        shape = tuple(len(ax) for ax in axes)
        values = np.empty(shape + (n,))
        for idx in np.ndindex(shape):
            node = np.array([axes[d][idx[d]] for d in range(n)])
            values[idx] = estimate_fbar(m, node, burn_in=burn_in,
                                        horizon=horizon, dt=dt, rng=rng).value
        interp = RegularGridInterpolator(axes, values, bounds_error=False,
                                         fill_value=None)

        def fn(x):
            flat = x.reshape(-1, n)
            return interp(flat).reshape(x.shape[:-1] + (n,))

        fbar = AveragedDrift(n, "tabulated", fn, table=(axes, values))
    else:
        raise ValueError(f"unknown averaging mode {mode!r}")

    return AveragedModel(m.a, fbar, m.sigma1, m.jump_slow, m.x0)


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


def check_fbar_lipschitz(am, m, box=None, samples=400, rng=None):
    """Coarse guard: sampled Lipschitz constant of fbar against
    L_f * (1 + L_g / (gamma_b - L_g))."""
    rng = np.random.default_rng(0) if rng is None else rng
    n = am.n
    if box is None:
        box = (np.full(n, -2.0), np.full(n, 2.0))
    if m.f.lip is None or m.g.lip is None:
        return None
    p = rng.uniform(box[0], box[1], size=(samples, n))
    q = rng.uniform(box[0], box[1], size=(samples, n))
    num = np.linalg.norm(am.fbar(p) - am.fbar(q), axis=-1)
    den = np.linalg.norm(p - q, axis=-1)
    mask = den > 0
    estimate = float(np.max(num[mask] / den[mask])) if np.any(mask) else 0.0
    guard = m.f.lip * (1.0 + m.g.lip / (m.gamma_b - m.g.lip))
    return estimate, guard, estimate <= guard * 1.05 + 1e-12


@dataclass
class MixingReport:
    eta_declared: float           # 2*(gamma_b - 6 L_g^2) from declared constants
    eta_empirical: float          # fitted decay rate of |E f - fbar|
    times: np.ndarray
    deviations: np.ndarray
    noise_floor: np.ndarray
    n_paths: int

    def to_json(self):
        return {"eta_declared": self.eta_declared,
                "eta_empirical": self.eta_empirical,
                "n_paths": self.n_paths,
                "curve": [{"t": float(t), "deviation": float(d)}
                          for t, d in zip(self.times, self.deviations)]}

    def curve_to_csv(self, path):
        _write_csv(path, "t,deviation", np.column_stack([self.times, self.deviations]))


def mixing_diagnostic(m, x, y_list, t_end, dt, n_paths, rng, curve_step=0.05,
                      fbar_value=None):
    """Estimate the relaxation of E f(x, y_x(t)) toward fbar(x).

    Returns both the fitted empirical rate and the rate implied by the
    declared constants; points whose deviation sits below the Monte-Carlo
    noise floor (or is non-positive) are skipped by the fit.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths for the mixing diagnostic")
    if m.g.lip is None:
        raise ValueError("mixing diagnostic needs a declared or analytic L_g")
    x = np.asarray(x, dtype=float)
    eta_declared = 2.0 * (m.gamma_b - 6.0 * m.g.lip ** 2)

    if fbar_value is None:
        closed_form = (not m.f.depends_on_y
                       or (m.f.kind in ("linear", "constant", "zero")
                           and m.g.kind in ("linear", "constant", "zero")))
        if closed_form:
            fbar_value = build_averaged(m).fbar(x)
        else:
            fbar_value = estimate_fbar(m, x, rng=rng).value

    steps = int(round(t_end / dt))
    stride = max(int(round(curve_step / dt)), 1)
    sample_steps = list(range(0, steps + 1, stride))
    times = np.array([k * dt for k in sample_steps])

    best_dev = np.zeros(len(sample_steps))
    floors = np.zeros(len(sample_steps))
    for y0 in y_list:
        ys = frozen_fast_batch(m, x, np.asarray(y0, float), steps, dt, rng, n_paths)
        xb = np.broadcast_to(x, (n_paths, m.n))
        dev = np.empty(len(sample_steps))
        floor = np.empty(len(sample_steps))
        for j, k in enumerate(sample_steps):
            fv = m.f(xb, ys[k])
            mean_f = fv.mean(axis=0)
            dev[j] = np.linalg.norm(mean_f - fbar_value)
            floor[j] = np.linalg.norm(fv.std(axis=0, ddof=1)) / np.sqrt(n_paths)
        keep = dev > best_dev
        best_dev = np.where(keep, dev, best_dev)
        floors = np.where(keep, floor, floors)

    usable = best_dev > np.maximum(3.0 * floors, 1e-14)
    if usable.sum() >= 3:
        fit = fit_exp_rate(times[usable], best_dev[usable])
        eta_empirical = fit.slope
    else:
        eta_empirical = float("nan")
    return MixingReport(eta_declared, eta_empirical, times, best_dev, floors,
                        n_paths)


def simulate_averaged(am, t_end, dt, incr, x0=None, seed_tag=None):
    """Integrate the averaged slow equation against a given increment stream.

    Passing the slow stream of a coupled run realizes the pathwise coupling
    the strong-error comparison requires.
    """
    grid = make_grid(t_end, dt)
    if len(incr.grid) != len(grid) or not np.allclose(incr.grid, grid):
        raise ValueError("increment stream grid does not match (t_end, dt)")
    a_t = am.a.T
    run = _euler((am.x0 if x0 is None else x0,),
                 lambda k, s: (s[0] @ a_t + am.fbar(s[0]),), (dt,),
                 ((am.sigma1, incr.d_brownian + incr.d_jump),), len(grid) - 1,
                 path=True)
    meta = {"process": "averaged", "dt": dt, "seed": seed_tag}
    return _trajectory(grid, run.path[0], meta, run.diverged_at)


def simulate_auxiliary(m, delta, t_end, dt, rng, return_true=False):
    """Block-frozen auxiliary pair (x_hat, y_hat) on blocks of length delta.

    Within block [k*delta, (k+1)*delta) the auxiliary fast state restarts
    from the true fast state at the block boundary and evolves with the slow
    argument frozen at x(k*delta); the auxiliary slow state integrates the
    drift evaluated on the frozen argument and the auxiliary fast state.
    All four states share one noise realization.
    """
    if not 0 < delta <= t_end:
        raise ValueError("need 0 < delta <= t_end")
    if dt > m.epsilon / 10 + 1e-15:
        raise ValueError("dt violates the stability guard dt <= epsilon/10")
    grid = make_grid(t_end, dt)
    n = m.n
    slow = sample_increments(n, grid, rng, jump=m.jump_slow)
    fast = rescale_fast(n, m.epsilon, grid, rng, jump=m.jump_fast)
    d_slow = slow.d_brownian + slow.d_jump
    d_fast = fast.d_brownian + fast.d_jump
    steps = len(grid) - 1
    blocks = np.floor(grid[:-1] / delta + 1e-12)
    bounds = [0] + (np.flatnonzero(np.diff(blocks)) + 1).tolist() + [steps]
    a_t, b_t = m.a.T, m.b.T

    def drift(k, s):
        x, y, xh, yh = s
        return (x @ a_t + m.f(x, y), y @ b_t + m.g(x, y),
                xh @ a_t + m.f(x_frozen, yh), yh @ b_t + m.g(x_frozen, yh))

    # each block restarts y_hat from y and freezes the slow argument at x
    path = tuple(np.empty((steps + 1, n)) for _ in range(4))
    x, y, xh = m.x0, m.y0, m.x0
    for start, end in zip(bounds[:-1], bounds[1:]):
        x_frozen = x
        noise = ((m.sigma1, d_slow[start:end]), (m.sigma2, d_fast[start:end])) * 2
        run = _euler((x, y, xh, y), drift, (dt, dt / m.epsilon) * 2, noise,
                     end - start, path=True)
        for full, part in zip(path, run.path):
            full[start:end + 1] = part
        x, y, xh = (part[-1] for part in run.path[:3])
    at = _nan_after_divergence(path)
    xs, ys, xh, yh = path
    meta = {"process": "auxiliary", "delta": delta, "dt": dt}
    out = (_trajectory(grid, xh, dict(meta, component="x_hat"), at),
           _trajectory(grid, yh, dict(meta, component="y_hat"), at))
    if return_true:
        return out + (_trajectory(grid, xs, dict(meta, component="x"), at),
                      _trajectory(grid, ys, dict(meta, component="y"), at))
    return out


def _increment_blocks(m, grid, master_seed, start, count):
    """Fast and slow increments (steps, count, n) of paths start..start+count-1,
    each from its own substreams; the slow block is None without slow noise."""
    n = m.n
    steps = len(grid) - 1
    d_fast = np.empty((steps, count, n))
    d_slow = np.empty((steps, count, n)) if has_slow_noise(m) else None
    for i in range(count):
        fast = rescale_fast(n, m.epsilon, grid,
                            substream(master_seed, start + i, ROLE_FAST),
                            jump=m.jump_fast)
        d_fast[:, i, :] = fast.d_brownian + fast.d_jump
        if d_slow is not None:
            slow = sample_increments(n, grid,
                                     substream(master_seed, start + i, ROLE_SLOW),
                                     jump=m.jump_slow)
            d_slow[:, i, :] = slow.d_brownian + slow.d_jump
    return d_fast, d_slow


def coupled_error_batch(m, am, t_end, dt, master_seed, start, count):
    """Vectorized coupled full/averaged runs for paths [start, start+count).

    Per path the slow and fast streams come from the path's own substreams,
    so each path sees the noise of a standalone single-path run on the same
    coordinates; at n = 1 it is bit-identical to that run, while for n > 1
    the block matmuls may round differently in the last bits.  Returns
    (sup |x_eps - x|^2 over the grid, x_eps(T) - x(T), diverged mask), the
    first two NaN on diverged paths.
    """
    n = m.n
    grid = make_grid(t_end, dt)
    d_fast, d_slow = _increment_blocks(m, grid, master_seed, start, count)
    a_t, b_t = m.a.T, m.b.T

    def drift(k, s):
        x, y, xa = s
        return x @ a_t + m.f(x, y), y @ b_t + m.g(x, y), xa @ a_t + am.fbar(xa)

    def gap_sq(s):
        diff = s[0] - s[2]
        return np.sum(diff * diff, axis=-1)

    x0 = np.broadcast_to(m.x0, (count, n))
    ds = None if d_slow is None else (m.sigma1, d_slow)
    run = _euler((x0, np.broadcast_to(m.y0, (count, n)), x0), drift,
                 (dt, dt / m.epsilon, dt), (ds, (m.sigma2, d_fast), ds),
                 len(grid) - 1, sup=gap_sq)
    x, _, xa = run.state
    return run.sup, x - xa, run.diverged


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

    def to_json(self):
        return {"epsilons": self.epsilons.tolist(),
                "delta_rule": self.delta_rule,
                "deltas": self.deltas.tolist(),
                "errors": self.errors.tolist(),
                "stderrs": self.stderrs.tolist(),
                "slope": self.slope,
                "intercept": self.intercept,
                "ci": [self.ci_low, self.ci_high],
                "n_paths": self.n_paths,
                "diverged": self.diverged.tolist(),
                "flagged": self.flagged}

    def curve_to_csv(self, path):
        _write_csv(path, "epsilon,error,stderr",
                   np.column_stack([self.epsilons, self.errors, self.stderrs]))


def strong_error_experiment(m, epsilons, delta_rule, t_end, n_paths,
                            master_seed, am=None, batch=512):
    """Monte-Carlo strong error of the averaged approximation across epsilons.

    For each epsilon the full and averaged slow equations share the slow
    increments path by path; the fitted log-log slope of
    E sup_{t<=T} |x_eps - x|^2 against epsilon is the reported rate.  The
    block size delta enters only through the recorded theoretical bound
    epsilon/delta, not the simulation itself.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    if np.any(np.diff(epsilons) >= 0):
        raise ValueError("epsilons must be strictly decreasing")
    if n_paths < 100:
        raise ValueError("need at least 100 paths per epsilon")
    if am is None:
        am = build_averaged(m)
    rule = delta_rule if callable(delta_rule) else (lambda e: e ** (2.0 / 3.0))
    rule_name = delta_rule if isinstance(delta_rule, str) else "eps**(2/3)"

    errors = np.empty(len(epsilons))
    stderrs = np.empty(len(epsilons))
    diverged = np.zeros(len(epsilons), dtype=int)
    deltas = np.array([rule(e) for e in epsilons])
    for j, eps in enumerate(epsilons):
        me = m.with_epsilon(eps)
        dt = eps / 10.0
        sup_all = np.empty(n_paths)
        for s in range(0, n_paths, batch):
            c = min(batch, n_paths - s)
            sup_all[s:s + c], _, _ = coupled_error_batch(me, am, t_end, dt,
                                                         master_seed, s, c)
        vals = sup_all[np.isfinite(sup_all)]         # diverged paths are NaN
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
    return RateReport(epsilons, rule_name, deltas, errors, stderrs,
                      slope, intercept, ci_low, ci_high,
                      n_paths, diverged, flagged)

