"""Random slow-manifold machinery.

Works on the slow-timescale form of the system, where the slow equation
carries an epsilon factor and the fast equation runs at rate one.  The
random manifold is the graph u0 -> h(omega, u0) obtained as the fixed point
of the integral map

    u(t) = e^{eps A t} u0 + eps * int_0^t e^{eps A (t-s)} f(u + eta, v + xi) ds
    v(t) = int_{-T}^t e^{B (t-s)} g(u + eta, v + xi) ds

on exponentially weighted functions of t <= 0, with eta and xi the
stationary solutions of the linear equations, realized as truncated
stochastic convolutions of two-sided noise paths.  Written with the kernel
e^{B(t-s)}, t >= s, every integrand decays for Hurwitz matrices; the naive
reading with e^{Bs} on s <= 0 diverges and is rejected outright.

The map contracts in the weighted norm with factor

    rho(eps) = eps L_f / (gamma - eps gamma_a') + L_g / (gamma_b - gamma)

for gamma inside the admissible band (eps gamma_a', gamma_b - L_g); the
solver refuses to run when rho >= 1.  Quadrature samples the nonlinearities
at left endpoints and integrates the exponential kernel exactly per cell, so
the error is O(grid_step) in the drift variation and the constant-drift case
is exact up to tail truncation.

One noise realization is frozen per solve; statistics over the random graph
come from independent realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.signal import lfilter

from .harness import fit_exp_rate
from .integrator import _euler, _write_csv, apply_noise
from .model import decay_rate, has_slow_noise
from .noise import sample_two_sided


def _phi1(matrix, dt):
    """Integral of the matrix exponential over one cell: int_0^dt e^{M u} du."""
    matrix = np.atleast_2d(matrix)
    if np.max(np.abs(matrix)) * dt < 1e-14:
        return dt * np.eye(matrix.shape[0])
    return np.linalg.solve(matrix, expm(matrix * dt) - np.eye(matrix.shape[0]))


def _gammas(m, gamma_a_rev=None):
    ga = decay_rate(m.a)
    gb = decay_rate(m.b)
    ga_rev = ga if gamma_a_rev is None else float(gamma_a_rev)
    return ga, ga_rev, gb


def _lipschitz_pair(m):
    if m.f.lip is None or m.g.lip is None:
        raise ValueError("manifold machinery needs declared or analytic "
                         "Lipschitz constants on f and g")
    return m.f.lip, m.g.lip


def default_gamma(m):
    """Center of the admissible weight band."""
    _, _, gb = _gammas(m)
    _, lg = _lipschitz_pair(m)
    return 0.5 * (gb - lg)


def contraction_factors(m, epsilon, gamma, gamma_a_rev=None):
    """Contraction factor of the fixed-point map and its tracking variant.

    rho_hat adds the feedback of the graph's Lipschitz constant and governs
    the tracking estimate; rho >= 1 is returned as-is and rejected by the
    solver, not here.
    """
    lf, lg = _lipschitz_pair(m)
    _, ga_rev, gb = _gammas(m, gamma_a_rev)
    if not (epsilon * ga_rev < gamma < gb - lg):
        raise ValueError(
            f"gamma={gamma} outside the admissible band "
            f"({epsilon * ga_rev}, {gb - lg})")
    rho = epsilon * lf / (gamma - epsilon * ga_rev) + lg / (gb - gamma)
    if rho < 1.0:
        lip = lg / (gb - gamma) / (1.0 - rho)
        rho_hat = rho + epsilon * lg * lip / (gamma - epsilon * ga_rev)
    else:
        rho_hat = float("inf")
    return float(rho), float(rho_hat)


@dataclass
class FrozenStationaryPaths:
    """Stationary forcing paths eta, xi realized on one grid straddling 0."""

    grid: np.ndarray          # [-t_neg, t_pos], uniform
    eta: np.ndarray           # (len, n)
    xi: np.ndarray
    step: float
    index0: int               # position of time 0

    @property
    def t_neg(self):
        return -float(self.grid[0])

    def window_neg(self, t_neg):
        i0 = self.index0 - int(round(t_neg / self.step))
        if i0 < 0:
            raise ValueError("requested window exceeds the sampled path")
        sl = slice(i0, self.index0 + 1)
        return self.grid[sl], self.eta[sl], self.xi[sl]

    def window_pos(self, t_end):
        i1 = self.index0 + int(round(t_end / self.step))
        if i1 >= len(self.grid):
            raise ValueError("requested window exceeds the sampled path")
        sl = slice(self.index0, i1 + 1)
        return self.grid[sl], self.eta[sl], self.xi[sl]


def sample_stationary_paths(m, epsilon, t_neg, t_pos, grid_step, rng):
    """Sample frozen eta/xi paths for one noise realization.

    The fast path xi draws from its own child stream first, so it is
    invariant under changes of epsilon with a fixed seed.  Both paths start
    from 0 at -t_neg, which truncates the stationary convolution tail; choose
    t_neg a multiple of 5 over the decay rate.
    """
    n = m.n
    c_xi, c_eta = rng.spawn(2)
    steps_neg = int(round(t_neg / grid_step))
    steps_pos = int(round(t_pos / grid_step))
    grid = grid_step * np.arange(-steps_neg, steps_pos + 1)

    fast = sample_two_sided(n, t_neg, t_pos, grid_step, c_xi, jump=m.jump_fast)
    xi = _convolve_path(m.b, grid_step, fast.increments(), m.sigma2)

    if not has_slow_noise(m):
        eta = np.zeros((len(grid), n))
    else:
        slow = sample_two_sided(n, t_neg, t_pos, grid_step, c_eta,
                                jump=m.jump_slow, var_scale=epsilon,
                                rate_scale=epsilon)
        eta = _convolve_path(epsilon * m.a, grid_step, slow.increments(), m.sigma1)
    return FrozenStationaryPaths(grid, eta, xi, grid_step, steps_neg)


def _convolve_path(kernel_matrix, dt, increments, sigma):
    """Stationary convolution values along the grid via the one-step recurrence
    value_{k+1} = e^{K dt} value_k + sigma * increment_k, started from 0."""
    kernel_matrix = np.atleast_2d(kernel_matrix)
    return _forward_recurrence(expm(kernel_matrix * dt), np.eye(len(kernel_matrix)),
                               apply_noise(sigma, increments))


@dataclass(frozen=True)
class StationarySolutionSpec:
    """Which linear stationary convolution to evaluate, and how far back.

    ``which``: 'slow_scaled' (kernel eps*A against the eps-scaled slow noise),
    'fast' (kernel B against the unscaled fast noise), or 'fast_rescaled'
    (kernel B/eps against noise at rate 1/eps, the fast stationary state of
    the original timescale; its marginal matches 'fast').
    """

    which: str
    matrix: np.ndarray
    sigma: object
    jump: object
    epsilon: float
    t_neg: float
    grid_step: float


def stationary_solution(spec, rng):
    """Evaluate the truncated stationary convolution along a sampled path.

    Returns (grid on [-t_neg, 0], path values, value at 0).  A kernel whose
    integrand grows backward in time means the sign convention is wrong and
    is rejected.
    """
    matrix = np.atleast_2d(np.asarray(spec.matrix, dtype=float))
    n = matrix.shape[0]
    if spec.which == "slow_scaled":
        kernel = spec.epsilon * matrix
        var_scale = rate_scale = spec.epsilon
    elif spec.which == "fast":
        kernel = matrix
        var_scale = rate_scale = 1.0
    elif spec.which == "fast_rescaled":
        if not spec.epsilon > 0:
            raise ValueError("fast_rescaled needs epsilon > 0")
        kernel = matrix / spec.epsilon
        var_scale = rate_scale = 1.0 / spec.epsilon
    else:
        raise ValueError(f"unknown stationary solution kind {spec.which!r}")

    rate = decay_rate(kernel)
    if rate <= 0:
        raise ValueError("stationary convolution diverges: kernel is not "
                         "Hurwitz under the decaying sign convention")
    if spec.t_neg < 5.0 / rate:
        raise ValueError(f"t_neg={spec.t_neg} too short; need >= {5.0 / rate}")

    path = sample_two_sided(n, spec.t_neg, 0.0, spec.grid_step, rng,
                            jump=spec.jump, var_scale=var_scale,
                            rate_scale=rate_scale)
    values = _convolve_path(kernel, spec.grid_step, path.increments(), spec.sigma)
    return path.negative.grid, values, values[-1]


@dataclass
class WeightedFunctionGrid:
    """Pair of functions on [-t_neg, 0] measured in the e^{gamma t} sup norm."""

    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    gamma: float


@dataclass
class ManifoldSolution:
    """Converged fixed point of the graph map for one noise realization."""

    u0: np.ndarray
    epsilon: float
    gamma: float
    profile: WeightedFunctionGrid
    h_value: np.ndarray
    rho: float
    rho_hat: float
    lip_bound: float
    iterations: int
    residuals: list = field(default_factory=list)
    t_neg: float = 0.0
    converged: bool = True

    def residual_ratios(self, floor=1e-13):
        rs = [r for r in self.residuals if r > floor]
        return [rs[i + 1] / rs[i] for i in range(len(rs) - 1)]

    def to_json(self):
        return {"u0": self.u0.tolist(), "epsilon": self.epsilon,
                "gamma": self.gamma, "h_value": self.h_value.tolist(),
                "rho": self.rho, "rho_hat": self.rho_hat,
                "lip_bound": self.lip_bound, "iterations": self.iterations,
                "residuals": self.residuals, "t_neg": self.t_neg,
                "converged": self.converged}

    def profile_to_csv(self, path):
        n = self.profile.u.shape[-1]
        header = ("t," + ",".join(f"u{i+1}" for i in range(n)) + ","
                  + ",".join(f"v{i+1}" for i in range(n)))
        _write_csv(path, header,
                   np.column_stack([self.profile.grid, self.profile.u, self.profile.v]))


def _forward_recurrence(e_mat, c_mat, drive):
    """w_0 = 0;  w_{k+1} = E w_k + C drive_k."""
    n = drive.shape[-1]
    out = np.zeros((len(drive) + 1, n))
    if n == 1:
        d = float(np.atleast_2d(e_mat)[0, 0])
        g = float(np.atleast_2d(c_mat)[0, 0])
        if len(drive):
            out[1:, 0] = lfilter([g], [1.0, -d], drive[:, 0])
    else:
        for k in range(len(drive)):
            out[k + 1] = out[k] @ e_mat.T + drive[k] @ c_mat.T
    return out


def _backward_recurrence(e_mat, c_mat, drive, terminal):
    """w_last = terminal;  w_j = E w_{j+1} - C drive_j, j descending."""
    n = drive.shape[-1]
    out = np.zeros((len(drive) + 1, n))
    out[-1] = terminal
    if n == 1:
        d = float(np.atleast_2d(e_mat)[0, 0])
        g = float(np.atleast_2d(c_mat)[0, 0])
        mlen = len(drive)
        if mlen:
            rev = drive[::-1, 0]
            z = lfilter([-g], [1.0, -d], rev)
            ks = np.arange(1, mlen + 1)
            w_rev = (d ** ks) * terminal[0] + z
            out[:-1, 0] = w_rev[::-1]
    else:
        for j in range(len(drive) - 1, -1, -1):
            out[j] = out[j + 1] @ e_mat.T - drive[j] @ c_mat.T
    return out


def _sweep_operators(m, epsilon, step, frozen_u):
    """Per-cell propagators of the fast forward and the slow backward sweep."""
    ops = [expm(m.b * step), _phi1(m.b, step)]
    if not frozen_u:
        ops += [expm(-epsilon * m.a * step), epsilon * _phi1(-epsilon * m.a, step)]
    return ops


def _sweep(m, ops, u0, u, v, eta_w, xi_w):
    """One application of the graph map; a frozen slow profile stays put."""
    v_new = _forward_recurrence(ops[0], ops[1], m.g(u + eta_w, v + xi_w)[:-1])
    if len(ops) == 2:
        return u, v_new
    return _backward_recurrence(ops[2], ops[3], m.f(u + eta_w, v + xi_w)[:-1], u0), v_new


def _weighted_gap(weight, du, dv):
    """|du| + |dv| in the e^{gamma t} weighted sup norm."""
    return (float(np.max(weight * np.linalg.norm(du, axis=-1)))
            + float(np.max(weight * np.linalg.norm(dv, axis=-1))))


def lyapunov_perron_solve(m, epsilon, u0, gamma=None, grid_step=0.005,
                          tol=1e-9, max_iter=200, rng=None, t_neg=None,
                          paths=None, gamma_a_rev=None, frozen_u=False):
    """Iterate the graph map to its fixed point for one noise realization.

    ``paths`` may carry pre-sampled stationary forcing (frozen across
    iterations and reusable across solves); otherwise it is sampled from
    ``rng``.  ``frozen_u`` pins the slow argument at ``u0``, which is the
    epsilon = 0 solve behind the asymptotic graph.
    """
    n = m.n
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    lf, lg = _lipschitz_pair(m)
    ga, ga_rev, gb = _gammas(m, gamma_a_rev)
    if gamma is None:
        gamma = 0.5 * (gb - lg)
    rho, rho_hat = contraction_factors(m, epsilon, gamma, gamma_a_rev=ga_rev)
    if rho >= 1.0:
        raise ValueError(f"contraction factor rho={rho:.4g} >= 1; "
                         "the fixed-point map is not a contraction")
    lip_bound = lg / (gb - gamma) / (1.0 - rho)

    if t_neg is None:
        t_neg = max(5.0 / gb, 5.0 / max(gb - gamma, gamma)) if paths is None \
            else paths.t_neg
    if paths is None:
        if rng is None:
            raise ValueError("need rng or pre-sampled paths")
        paths = sample_stationary_paths(m, epsilon, t_neg, 0.0, grid_step, rng)
    if abs(paths.step - grid_step) > 1e-12:
        raise ValueError("paths grid step does not match grid_step")
    ts, eta_w, xi_w = paths.window_neg(t_neg)

    ops = _sweep_operators(m, epsilon, grid_step, frozen_u)
    if not frozen_u:
        if n == 1:
            u = np.exp(epsilon * float(m.a[0, 0]) * ts)[:, None] * u0
        else:
            u = np.stack([u0 @ expm(epsilon * m.a * t).T for t in ts])
    else:
        u = np.broadcast_to(u0, (len(ts), n)).copy()
    v = np.zeros((len(ts), n))
    weight = np.exp(gamma * ts)

    residuals = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        u_new, v_new = _sweep(m, ops, u0, u, v, eta_w, xi_w)
        res = _weighted_gap(weight, u_new - u, v_new - v)
        residuals.append(res)
        u, v = u_new, v_new
        if res < tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(f"fixed-point iteration did not converge in "
                           f"{max_iter} sweeps (last residual {residuals[-1]:.3g})")

    profile = WeightedFunctionGrid(ts, u, v, gamma)
    return ManifoldSolution(u0, epsilon, gamma, profile, v[-1].copy(), rho,
                            rho_hat, lip_bound, iterations, residuals,
                            t_neg, converged)


def reapply_sweep(m, sol, paths, frozen_u=False):
    """Residual of one extra sweep applied to a converged solution."""
    ts, eta_w, xi_w = paths.window_neg(sol.t_neg)
    u, v = sol.profile.u, sol.profile.v
    ops = _sweep_operators(m, sol.epsilon, paths.step, frozen_u)
    u_new, v_new = _sweep(m, ops, sol.u0, u, v, eta_w, xi_w)
    return _weighted_gap(np.exp(sol.gamma * ts), u_new - u, v_new - v)


def asymptotic_manifold_h0(m, u0, grid_step=0.005, t_neg=None, rng=None,
                           paths=None, gamma=None, tol=1e-9):
    """Graph value of the frozen-slow (epsilon = 0) manifold at ``u0``."""
    sol = lyapunov_perron_solve(m, 0.0, u0, gamma=gamma, grid_step=grid_step,
                                tol=tol, rng=rng, t_neg=t_neg, paths=paths,
                                frozen_u=True)
    return sol.h_value


@dataclass
class TrackingReport:
    times: np.ndarray
    gap: np.ndarray               # |u - u'| + |v - v'|
    envelope: np.ndarray
    rate_fitted: float
    gamma: float
    rho: float
    rho_hat: float
    under_envelope: bool

    def to_json(self):
        return {"rate_fitted": self.rate_fitted, "gamma": self.gamma,
                "rho": self.rho, "rho_hat": self.rho_hat,
                "under_envelope": bool(self.under_envelope),
                "curve": [{"t": float(t), "gap": float(d), "envelope": float(e)}
                          for t, d, e in zip(self.times, self.gap, self.envelope)]}


def tracking_check(m, epsilon, ic_on, ic_off, t_end, dt, rng=None, gamma=None,
                   paths=None, gamma_a_rev=None):
    """Gap decay between two solutions of the transformed pathwise system.

    Both initial conditions evolve under the same frozen stationary forcing;
    the report carries the fitted decay rate of |u-u'| + |v-v'| and the
    envelope e^{-gamma t} |v0 - v0'| / (1 - rho).
    """
    _, lg = _lipschitz_pair(m)
    ga, ga_rev, gb = _gammas(m, gamma_a_rev)
    if gamma is None:
        gamma = 0.5 * (gb - lg)
    rho, rho_hat = contraction_factors(m, epsilon, gamma, gamma_a_rev=ga_rev)

    if paths is None:
        spin = 5.0 / gb
        if has_slow_noise(m) and epsilon > 0:
            spin = max(spin, 5.0 / (epsilon * ga))
        paths = sample_stationary_paths(m, epsilon, spin, t_end, dt, rng)
    ts, eta_w, xi_w = paths.window_pos(t_end)

    u = np.vstack([ic_on[0], ic_off[0]]).astype(float)
    v = np.vstack([ic_on[1], ic_off[1]]).astype(float)
    dv0 = float(np.linalg.norm(v[0] - v[1]))

    a_t, b_t = m.a.T, m.b.T

    def drift(k, s):
        u, v = s
        arg = (u + eta_w[k], v + xi_w[k])
        return epsilon * (u @ a_t) + epsilon * m.f(*arg), v @ b_t + m.g(*arg)

    us, vs = _euler((u, v), drift, (dt, dt), (None, None), len(ts) - 1,
                    path=True).path
    gaps = (np.linalg.norm(us[:, 0] - us[:, 1], axis=-1)
            + np.linalg.norm(vs[:, 0] - vs[:, 1], axis=-1))

    envelope = np.exp(-gamma * ts) * dv0 / (1.0 - rho)
    positive = gaps > max(gaps[0] * 1e-12, 1e-300)
    if positive.sum() >= 3 and gaps[0] > 0:
        rate = fit_exp_rate(ts[positive], gaps[positive]).slope
    else:
        rate = float("nan")
    under = bool(np.all(gaps <= envelope + 1e-12)) if dv0 > 0 else bool(np.all(gaps <= 1e-12))
    return TrackingReport(ts, gaps, envelope, rate, gamma, rho, rho_hat, under)
