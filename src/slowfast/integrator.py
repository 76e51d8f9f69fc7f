"""Explicit jump-diffusion time stepping and the core process simulators.

Every simulator is one explicit Euler-Maruyama step on a stacked state, one
(..., n) block per component (slow, fast, averaged, fluctuation, ...):

    s_c <- s_c + drift_c(s) * h_c + sigma_c (dW + dJ)

with h_c = dt, or dt / epsilon for a fast component, and dJ compensated.  A
leading path axis steps a batch of paths at once (the vectorised ensemble
scheme of Higham, SIAM Review 43(3):525, 2001).  The private kernel
``_euler`` owns the time loop, the noise term and the recorders (final
state, running sup, full path); a simulator supplies its drift, step factors
and noise.  Jumps break the smoothness higher-order schemes need, and every
claim verified downstream is a weak or strong limit, so the explicit scheme
is the right tool.  The coupled simulator enforces ``dt <= epsilon / 10``
because the fast drift scales like 1/epsilon.

A non-finite value stays non-finite under the step, so divergence is read
once, after the loop, from every component of the final state.  Single-path
trajectories keep their first non-finite row as computed (``diverged_at``)
and NaN after it; batched recorders return NaN on diverged paths, which
ensemble statistics exclude and count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .noise import rescale_fast, sample_increments


class DivergedError(RuntimeError):
    """Raised when a simulation required to stay finite diverges."""


@dataclass
class Trajectory:
    """One realized path: time grid plus states, with provenance tags."""

    grid: np.ndarray                 # (M+1,)
    states: np.ndarray               # (M+1, n)
    meta: dict = field(default_factory=dict)
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def n(self):
        return self.states.shape[-1]

    def to_csv(self, path_or_buf, label="x"):
        header = "t," + ",".join(f"{label}{i + 1}" for i in range(self.n))
        _write_csv(path_or_buf, header, np.column_stack([self.grid, self.states]))


def _write_csv(path_or_buf, header, rows):
    """Comma-separated rows at full double precision under one header line."""
    np.savetxt(path_or_buf, rows, fmt="%.17g", delimiter=",", header=header,
               comments="")


def make_grid(t_end, dt):
    if t_end < 0 or dt <= 0:
        raise ValueError("need t_end >= 0 and dt > 0")
    m = int(round(t_end / dt)) if t_end > 0 else 0
    grid = dt * np.arange(m + 1)
    if m > 0:
        grid[-1] = t_end
    return grid


def apply_noise(sigma, incr):
    """Apply a scalar or matrix amplitude to an increment (..., n)."""
    if np.ndim(sigma) == 0:
        return sigma * incr
    return incr @ np.asarray(sigma).T


class _Run(NamedTuple):
    state: list                   # final components, NaN on diverged paths
    diverged: np.ndarray          # bool over the path axes
    sup: np.ndarray | None        # running max of ``sup``, NaN on diverged paths
    path: tuple | None            # per component (steps+1, ..., n)
    diverged_at: np.ndarray | None    # first non-finite path row, -1 if none


def _finite_rows(parts):
    """Over the leading axes: every coordinate of every component is finite."""
    return np.logical_and.reduce([np.all(np.isfinite(p), axis=-1) for p in parts])


def _nan_after_divergence(path):
    """NaN every row after a path's first non-finite row, in place; returns
    that row's index per path, -1 where the path stays finite."""
    bad = ~_finite_rows(path)
    for rows in path:
        rows[1:][bad[:-1]] = np.nan
    return np.where(bad.any(axis=0), bad.argmax(axis=0), -1)


def _euler(state, drift, factors, noise, steps, sup=None, path=False):
    """Advance a stacked state by ``steps`` explicit Euler steps.

    ``state`` holds one (..., n) array per component, and ``drift(k, s)``
    returns one drift per component for step k.  Component c moves by
    ``drift * factors[c]`` plus its noise term ``noise[c]``: None, a pair
    ``(sigma, increments)`` adding ``apply_noise(sigma, increments[k])``, or
    a function ``(k, s) -> array`` for noise drawn per step or scaled by the
    state.  ``sup(s)`` maps a state to one value per path, whose running max
    over the grid is recorded; ``path=True`` records every state.
    """
    terms = [t if t is None or callable(t) else _scaled(*t) for t in noise]
    s = [np.array(c, dtype=float) for c in state]
    rows = None
    if path:
        rows = tuple(np.empty((steps + 1,) + c.shape) for c in s)
        for r, c in zip(rows, s):
            r[0] = c
    best = None if sup is None else sup(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            d = drift(k, s)
            w = [None if t is None else t(k, s) for t in terms]
            s = [c + dc * h if wc is None else c + dc * h + wc
                 for c, dc, h, wc in zip(s, d, factors, w)]
            if rows is not None:
                for r, c in zip(rows, s):
                    r[k + 1] = c
            if sup is not None:
                best = np.maximum(best, sup(s))
    diverged = ~_finite_rows(s)
    if np.any(diverged):
        s = [np.where(diverged[..., None], np.nan, c) for c in s]
        if best is not None:
            best = np.where(diverged, np.nan, best)
    at = None if rows is None else _nan_after_divergence(rows)
    return _Run(s, diverged, best, rows, at)


def _scaled(sigma, increments):
    return lambda k, s: apply_noise(sigma, increments[k])


def _trajectory(grid, states, meta, diverged_at):
    """Single-path Trajectory flagged from its first non-finite row (-1: none)."""
    at = int(diverged_at)
    return Trajectory(grid, states, meta, at >= 0, at if at >= 0 else None)


def simulate_slow_fast(m, t_end, dt, rng=None, slow_incr=None, fast_incr=None,
                       seed_tag=None):
    """Simulate the coupled system on [0, t_end]; returns (x, y) trajectories.

    Increments may be injected (for coupling experiments); otherwise the slow
    stream is drawn first and the fast stream second from ``rng``.
    """
    if dt > m.epsilon / 10 + 1e-15:
        raise ValueError(
            f"dt={dt} violates the stability guard dt <= epsilon/10 = {m.epsilon / 10}")
    grid = make_grid(t_end, dt)
    n = m.n
    if slow_incr is None:
        slow_incr = sample_increments(n, grid, rng, jump=m.jump_slow)
    if fast_incr is None:
        fast_incr = rescale_fast(n, m.epsilon, grid, rng, jump=m.jump_fast)
    a_t, b_t = m.a.T, m.b.T

    def drift(k, s):
        x, y = s
        return x @ a_t + m.f(x, y), y @ b_t + m.g(x, y)

    noise = ((m.sigma1, slow_incr.d_brownian + slow_incr.d_jump),
             (m.sigma2, fast_incr.d_brownian + fast_incr.d_jump))
    run = _euler((m.x0, m.y0), drift, (dt, dt / m.epsilon), noise, len(grid) - 1,
                 path=True)
    meta = {"process": "slow-fast", "epsilon": m.epsilon, "dt": dt, "seed": seed_tag}
    xs, ys = run.path
    return (_trajectory(grid, xs, dict(meta, component="x"), run.diverged_at),
            _trajectory(grid, ys, dict(meta, component="y"), run.diverged_at))


def simulate_frozen_fast(m, x_frozen, y0, t_end, dt, rng=None, incr=None,
                         seed_tag=None):
    """Fast equation with the slow state frozen, at the fast equation's own
    timescale (no 1/epsilon)."""
    grid = make_grid(t_end, dt)
    x_frozen = np.asarray(x_frozen, dtype=float)
    if incr is None:
        incr = sample_increments(m.n, grid, rng, jump=m.jump_fast)
    b_t = m.b.T
    run = _euler((y0,), lambda k, s: (s[0] @ b_t + m.g(x_frozen, s[0]),), (dt,),
                 ((m.sigma2, incr.d_brownian + incr.d_jump),), len(grid) - 1,
                 path=True)
    meta = {"process": "frozen-fast", "x_frozen": x_frozen.tolist(), "dt": dt,
            "seed": seed_tag}
    return _trajectory(grid, run.path[0], meta, run.diverged_at)


def frozen_fast_batch(m, x_frozen, y0, steps, dt, rng, n_paths, fast_rate=False):
    """Batched frozen-fast stepping; returns states (steps+1, n_paths, n).

    ``fast_rate=True`` runs at the rescaled timescale (drift / epsilon, noise
    variance dt/epsilon), which is the regime the coupled system's fast
    component lives in.
    """
    n = m.n
    scale = 1.0 / m.epsilon if fast_rate else 1.0
    x_frozen = np.broadcast_to(np.asarray(x_frozen, dtype=float), (n_paths, n))
    b_t = m.b.T
    std = np.sqrt(dt * scale)
    rate = 0.0 if m.jump_fast is None else m.jump_fast.intensity * scale

    def noise(k, s):
        incr = rng.normal(0.0, std, size=(n_paths, n))
        if rate > 0:
            counts = rng.poisson(rate * dt, size=(n_paths, 1))
            # lump per-step event sizes; exact event times are irrelevant here
            sizes = np.zeros((n_paths, n))
            active = counts[:, 0] > 0
            if np.any(active):
                total = int(counts.sum())
                draws = m.jump_fast.size_dist.sample(rng, (total, n))
                pos = 0
                for i in np.nonzero(active)[0]:
                    c = int(counts[i, 0])
                    sizes[i] = draws[pos:pos + c].sum(axis=0)
                    pos += c
            incr = incr + sizes - rate * m.jump_fast.mean_size * dt
        return apply_noise(m.sigma2, incr)

    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (n_paths, n))
    run = _euler((y0,), lambda k, s: (s[0] @ b_t + m.g(x_frozen, s[0]),),
                 (dt * scale,), (noise,), steps, path=True)
    return run.path[0]
