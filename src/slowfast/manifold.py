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

Each sweep runs two one-step recurrences along the grid, one code path for
every dimension: the drive term C drive_k is one matmul over the whole grid
and the E w_k products are a doubling prefix scan of ceil(log2 M) whole-grid
matmuls, not M per-point steps.  The backward recurrence is the forward one
on the reversed drive.  The first slow profile e^{eps A t} u0 is the
backward slow recurrence run on a zero drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .harness import fit_exp_rate
from .integrator import _euler, apply_noise
from .model import _finite, _rates, _value_into, decay_rate, has_slow_noise
from .noise import _required, sample_increments

# sweeps ``lyapunov_perron_solve`` makes before it gives up and raises
MAX_SWEEPS = 200


def _phi1(matrix, dt):
    """Integral of the matrix exponential over one cell: int_0^dt e^{M u} du."""
    matrix = np.atleast_2d(matrix)
    if np.max(np.abs(matrix)) * dt < 1e-14:
        return dt * np.eye(matrix.shape[0])
    return np.linalg.solve(matrix, expm(matrix * dt) - np.eye(matrix.shape[0]))


def _lipschitz_pair(m):
    if m.f.lip is None or m.g.lip is None:
        raise ValueError("manifold machinery needs declared or analytic "
                         "Lipschitz constants on f and g")
    return m.f.lip, m.g.lip


def default_gamma(m):
    """Center of the admissible weight band."""
    _, lg = _lipschitz_pair(m)
    return 0.5 * (m.gamma_b - lg)


def contraction_factors(m, epsilon, gamma):
    """Contraction factor of the fixed-point map and its tracking variant.

    rho_hat adds the feedback of the graph's Lipschitz constant and governs
    the tracking estimate; rho >= 1 is returned as-is and rejected by the
    solver, not here.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    lf, lg = _lipschitz_pair(m)
    _, ga_rev, gb = _rates(m)
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

    def window(self, t0, t1):
        """Grid, eta and xi on [t0, t1], rounded to whole steps."""
        i0, i1 = (self.index0 + int(round(t / self.step)) for t in (t0, t1))
        if i0 < 0 or i1 >= len(self.grid):
            raise ValueError("requested window exceeds the sampled path")
        sl = slice(i0, i1 + 1)
        return self.grid[sl], self.eta[sl], self.xi[sl]


def sample_stationary_paths(m, epsilon, t_neg, t_pos, grid_step, rng):
    """Sample frozen eta/xi paths for one noise realization.

    Each path integrates two-sided noise, whose segments on [-t_neg, 0]
    (drawn first) and [0, t_pos] are independent and meet at 0 at time 0,
    as stationary convolutions need.  The fast path xi draws from its own
    child stream first, so it is invariant under changes of epsilon with a
    fixed seed.  Both paths start from 0 at -t_neg, which truncates the
    stationary convolution tail; choose t_neg a multiple of 5 over the decay
    rate.  The horizons are rounded to whole steps, and the noise is drawn
    on the grid returned.  A kernel that does not decay is refused: B
    always, A when slow noise is drawn at a positive epsilon (at epsilon 0
    the slow kernel is the identity).
    """
    if not (0 <= t_neg < np.inf and 0 <= t_pos < np.inf):
        raise ValueError(f"horizons must be nonnegative and finite, not {t_neg}, {t_pos}")
    if not 0 < grid_step < np.inf:
        raise ValueError(f"grid_step must be positive and finite, not {grid_step}")
    if decay_rate(m.b) <= 0:
        raise ValueError("fast matrix B is not Hurwitz: the stationary xi diverges")
    slow_noise = has_slow_noise(m)
    if slow_noise and epsilon > 0 and decay_rate(m.a) <= 0:
        raise ValueError("slow matrix A is not Hurwitz: the stationary eta diverges")
    c_xi, c_eta = _required(rng).spawn(2)
    steps_neg = int(round(t_neg / grid_step))
    steps_pos = int(round(t_pos / grid_step))
    grid = grid_step * np.arange(-steps_neg, steps_pos + 1)
    t_neg, t_pos = steps_neg * grid_step, steps_pos * grid_step

    def two_sided(gen, jump, speed=1.0):
        """Summed increments on ``grid``, the negative segment drawn first."""
        rows = []
        for t0, t1, steps in ((-t_neg, 0.0, steps_neg), (0.0, t_pos, steps_pos)):
            seg = np.append(t0 + grid_step * np.arange(steps), t1)
            incr = sample_increments(m.n, seg, gen, jump=jump, speed=speed)
            rows.append(incr.d_brownian + incr.d_jump)
        return np.concatenate(rows)

    xi = _convolve_path(m.b, grid_step, two_sided(c_xi, m.jump_fast), m.sigma2)
    if not slow_noise:
        eta = np.zeros((len(grid), m.n))
    else:
        eta = _convolve_path(epsilon * m.a, grid_step,
                             two_sided(c_eta, m.jump_slow, epsilon), m.sigma1)
    return FrozenStationaryPaths(grid, eta, xi, grid_step, steps_neg)


def _convolve_path(kernel_matrix, dt, increments, sigma):
    """Stationary convolution values along the grid via the one-step recurrence
    value_{k+1} = e^{K dt} value_k + sigma * increment_k, started from 0."""
    kernel_matrix = np.atleast_2d(kernel_matrix)
    return _recurrence(expm(kernel_matrix * dt), np.eye(len(kernel_matrix)),
                       apply_noise(sigma, increments), 0.0)


@dataclass
class ManifoldSolution:
    """Converged fixed point of the graph map for one noise realization: the
    profiles u and v on the grid [-t_neg, 0], measured in the e^{gamma t}
    sup norm."""

    u0: np.ndarray
    epsilon: float
    gamma: float
    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    h_value: np.ndarray
    rho: float
    rho_hat: float
    lip_bound: float
    iterations: int
    residuals: list = field(default_factory=list)
    converged: bool = True

    @property
    def t_neg(self):
        """The window solved on, [-t_neg, 0]: the requested one rounded to
        whole grid steps and cut to the sampled paths."""
        return -float(self.grid[0])

    def residual_ratios(self, floor=1e-13):
        rs = [r for r in self.residuals if r > floor]
        return [rs[i + 1] / rs[i] for i in range(len(rs) - 1)]


def _scan(out, e_mat):
    """w_0 = out[0];  w_k = E w_{k-1} + out[k], written over ``out`` by a
    doubling prefix scan (Blelloch, CMU-CS-90-190, 1990): after the pass at
    span s, row k sums its last 2s terms, so ceil(log2 len) passes finish."""
    p, s = e_mat.T.copy(), 1
    while s < len(out):
        out[s:] += out[:-s] @ p
        p, s = p @ p, 2 * s


def _recurrence(e_mat, c_mat, drive, start):
    """w_0 = start;  w_{k+1} = E w_k + C drive_k."""
    out = np.empty((len(drive) + 1, drive.shape[-1]))
    out[0] = start
    out[1:] = drive @ c_mat.T
    _scan(out, e_mat)
    return out


def _sweep_operators(m, epsilon, step):
    """Per-cell propagators of the fast forward and the slow backward sweep."""
    return (expm(m.b * step), _phi1(m.b, step),
            expm(-epsilon * m.a * step), epsilon * _phi1(-epsilon * m.a, step))


def _sweep(m, ops, u0, u, v, eta_w, xi_w):
    """One application of the graph map."""
    v_new = _recurrence(ops[0], ops[1], m.g(u + eta_w, v + xi_w)[:-1], 0.0)
    # w_last = u0;  w_j = E w_{j+1} - C f_j, run forward on the reversed drive
    f_rev = m.f(u + eta_w, v + xi_w)[:-1][::-1]
    return _recurrence(ops[2], -ops[3], f_rev, u0)[::-1], v_new


def _weighted_gap(weight, du, dv):
    """|du| + |dv| in the e^{gamma t} weighted sup norm."""
    return (float(np.max(weight * np.linalg.norm(du, axis=-1)))
            + float(np.max(weight * np.linalg.norm(dv, axis=-1))))


def lyapunov_perron_solve(m, epsilon, u0, gamma=None, grid_step=0.005,
                          tol=1e-9, rng=None, t_neg=None, paths=None):
    """Iterate the graph map to its fixed point for one noise realization.

    ``paths`` may carry pre-sampled stationary forcing (frozen across
    iterations and reusable across solves); otherwise it is sampled from
    ``rng``.  At epsilon = 0 the slow profile stays at ``u0`` (the slow
    propagator is the identity, the slow drive 0): the asymptotic graph.
    A non-finite ``u0``, and a window [-t_neg, 0] that rounds to no grid
    step, are refused.
    """
    u0 = _finite(np.atleast_1d(np.asarray(u0, dtype=float)), "u0")
    _, lg = _lipschitz_pair(m)
    gb = m.gamma_b
    if gamma is None:
        gamma = default_gamma(m)
    rho, rho_hat = contraction_factors(m, epsilon, gamma)
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
    ts, eta_w, xi_w = paths.window(-t_neg, 0.0)
    if len(ts) < 2:
        raise ValueError(f"t_neg={t_neg} holds no step of grid_step={grid_step}")

    ops = _sweep_operators(m, epsilon, grid_step)
    v = np.zeros((len(ts), m.n))
    # rows e^{eps A t} u0: the backward slow recurrence on a zero drive
    u = _recurrence(ops[2], -ops[3], v[:-1], u0)[::-1]
    weight = np.exp(gamma * ts)

    residuals = []
    converged = False
    iterations = 0
    for iterations in range(1, MAX_SWEEPS + 1):
        u_new, v_new = _sweep(m, ops, u0, u, v, eta_w, xi_w)
        res = _weighted_gap(weight, u_new - u, v_new - v)
        residuals.append(res)
        u, v = u_new, v_new
        if res < tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(f"fixed-point iteration did not converge in "
                           f"{MAX_SWEEPS} sweeps (last residual {residuals[-1]:.3g})")

    return ManifoldSolution(u0, epsilon, gamma, ts, u, v, v[-1].copy(), rho,
                            rho_hat, lip_bound, iterations, residuals, converged)


def reapply_sweep(m, sol, paths):
    """Residual of one extra sweep applied to a converged solution."""
    ts, eta_w, xi_w = paths.window(-sol.t_neg, 0.0)
    ops = _sweep_operators(m, sol.epsilon, paths.step)
    u_new, v_new = _sweep(m, ops, sol.u0, sol.u, sol.v, eta_w, xi_w)
    return _weighted_gap(np.exp(sol.gamma * ts), u_new - sol.u, v_new - sol.v)


def asymptotic_manifold_h0(m, u0, grid_step=0.005, t_neg=None, rng=None,
                           paths=None, tol=1e-9):
    """Graph value of the asymptotic manifold at ``u0``: the epsilon = 0 solve."""
    return lyapunov_perron_solve(m, 0.0, u0, grid_step=grid_step, tol=tol, rng=rng,
                                 t_neg=t_neg, paths=paths).h_value


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


def tracking_check(m, epsilon, ic_on, ic_off, t_end, dt, rng):
    """Gap decay between two solutions of the transformed pathwise system.

    Both initial conditions evolve under the same stationary forcing, sampled
    from ``rng``; at the weight ``default_gamma(m)`` the report carries the
    fitted decay rate of |u-u'| + |v-v'| and the envelope
    e^{-gamma t} |v0 - v0'| / (1 - rho).  A diverged run, whose gap
    goes non-finite, reports a NaN rate and is not under the envelope.
    """
    ga, _, gb = _rates(m)
    gamma = default_gamma(m)
    rho, rho_hat = contraction_factors(m, epsilon, gamma)

    spin = 5.0 / gb
    if has_slow_noise(m) and epsilon > 0:
        spin = max(spin, 5.0 / (epsilon * ga))
    paths = sample_stationary_paths(m, epsilon, spin, t_end, dt, rng)
    ts, eta_w, xi_w = paths.window(0.0, t_end)

    u = np.vstack([ic_on[0], ic_off[0]]).astype(float)
    v = np.vstack([ic_on[1], ic_off[1]]).astype(float)
    dv0 = float(np.linalg.norm(v[0] - v[1]))

    fu = np.empty_like(u)

    def drift(k, s, d):
        arg = (s[0] + eta_w[k], s[1] + xi_w[k])
        d[0] *= epsilon
        _value_into(fu, m.f._add, *arg)
        np.multiply(fu, epsilon, out=fu)
        d[0] += fu
        m.g._add(d[1], *arg)

    us, vs = _euler((u, v), (m.a, m.b), drift, (dt, dt), (None, None), ts, dt,
                    path=True).path
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = (np.linalg.norm(us[:, 0] - us[:, 1], axis=-1)
                + np.linalg.norm(vs[:, 0] - vs[:, 1], axis=-1))

    envelope = np.exp(-gamma * ts) * dv0 / (1.0 - rho)
    positive = gaps > max(gaps[0] * 1e-12, 1e-300)
    if np.all(np.isfinite(gaps)) and positive.sum() >= 3 and gaps[0] > 0:
        rate = fit_exp_rate(ts[positive], gaps[positive]).slope
    else:
        rate = float("nan")
    under = bool(np.all(gaps <= envelope + 1e-12)) if dv0 > 0 else bool(np.all(gaps <= 1e-12))
    return TrackingReport(ts, gaps, envelope, rate, gamma, rho, rho_hat, under)
