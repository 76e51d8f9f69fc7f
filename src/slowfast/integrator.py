"""Explicit jump-diffusion time stepping and the core process simulators.

Every simulator is one explicit Euler-Maruyama step on a stacked state, one
(..., n) block per component (slow, fast, averaged, fluctuation, ...):

    s_c <- s_c + (A_c s_c + F_c(s)) * h_c + sigma_c (dW + dJ)

with h_c = dt, or dt / epsilon for a fast component, and dJ compensated.
When dt does not divide the horizon, ``make_grid`` stretches or shortens
the last step to end on it, and that step's h_c follows (``_stretch``);
``default_step`` picks a step under the guard below whose grid divides the
horizon.  A leading path axis steps a batch of paths at once (the vectorised
ensemble scheme of Higham, SIAM Review 43(3):525, 2001); a batch of many
path-steps may be cut into contiguous ranges of paths, each stepped by its
own kernel run in a forked worker process (``harness._split_paths``), and
since every row is stepped on its own the rows do not depend on the range
that holds them.  Jumps break the smoothness higher-order schemes need, and
every claim verified downstream is a weak or strong limit, so the explicit
scheme is the right tool.  Every simulator of the coupled system enforces
``dt <= epsilon / 10`` (``_check_stable``) because the fast drift scales
like 1/epsilon.

The private kernel ``_euler`` is the one place that knows how a step is
taken; a simulator declares each component's linear part A_c, a drift that
adds the rest F_c, step factors and noise.  Stepping is in place, on one
state array (C, ..., n) with a drift buffer of that shape.  Each step applies
every A_c by one ufunc call (a stacked matmul, a multiply at n = 1), lets
the drift add its nonlinearities (``DriftFn._add``), scales the buffer by
all step factors at once, writes ``s + d * h`` straight into the next path
row or a spare buffer, and adds one noise row per component there.  At one
to a few dozen paths a step costs numpy call overhead, not arithmetic, so
the calls per step are what count.  A component that is the same on every
path of a batch, such as an averaged carrier without slow noise, is stepped
once per batch, as one row, by its own run; the batch's drift and sup read
its row k, which is why the sup hook takes the step index.

An amplitude is applied once, where its increments are drawn, by
``apply_noise``'s rule (``model._lin``, a scalar being the (1, 1) matrix).
Single paths draw their noise before stepping (``noise.sample_increments``),
and ``_euler`` scales that block whole before the loop.  Batches stream
theirs a time chunk at a time from ``noise._path_increments``, which
``_euler`` hands the amplitude and which scales each chunk as it fills it.
``_frozen_fast_run`` steps the frozen-fast equation for
``frozen_fast_batch`` and the manifold burn-in of ``deviation``.

A non-finite value stays non-finite under the step, so divergence is read
once, after the loop, from every component of the final state.  Single-path
trajectories keep their first non-finite row as computed (``diverged_at``)
and NaN after it; batched recorders return NaN on diverged paths, which
ensemble statistics exclude and count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import _lin
from .noise import _path_increments, sample_increments


class DivergedError(RuntimeError):
    """Raised when a simulation required to stay finite diverges."""


@dataclass
class Trajectory:
    """One realized path: time grid plus states."""

    grid: np.ndarray                 # (M+1,)
    states: np.ndarray               # (M+1, n)
    diverged: bool = False
    diverged_at: int | None = None

    @property
    def n(self):
        return self.states.shape[-1]


def make_grid(t_end, dt):
    if not (0 <= t_end < np.inf and 0 < dt < np.inf):
        raise ValueError(f"need finite t_end >= 0 and dt > 0, not t_end={t_end}, dt={dt}")
    m = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    grid = dt * np.arange(m + 1)
    if m > 0:
        grid[-1] = t_end
    return grid


def apply_noise(sigma, incr):
    """Apply a scalar or matrix amplitude to an increment (..., n): a scalar
    is the (1, 1) matrix of ``model._lin``, a scalar multiply at any n."""
    return _lin(np.atleast_2d(sigma), incr)


class _Run(NamedTuple):
    state: np.ndarray             # final state (C, ..., n), NaN on diverged paths
    diverged: np.ndarray          # bool over the path axes
    sup: np.ndarray | None        # running max of ``sup``, NaN on diverged paths
    path: np.ndarray | None       # (C, steps+1, ..., n), a view of the step rows
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


def _euler(state, mats, drift, factors, noise, grid, dt, sup=None, path=False):
    """Advance a stacked state along ``grid``, a ``make_grid`` grid over dt
    or any stretch of it, by explicit Euler steps, in place.

    ``state`` holds one (..., n) array per component, broadcast to a common
    shape and stacked as s (C, ..., n).  Each step stores every component's
    linear part s[c] @ mats[c].T in ``d[c]`` of a buffer d shaped as s, by
    one call on (C, P, n) aliases, a row per path (a single path too);
    ``drift(k, s, d)`` then completes step k's drift in place, reading s and
    keeping a reference to neither.  Component c moves by
    ``d[c] * factors[c]`` (times ``_stretch(grid, dt)`` at the last step)
    plus ``noise[c]``: None, a pair ``(sigma, increments)`` adding
    ``apply_noise(sigma, increments)[k]``, or ``(k, s) -> array``.
    Pre-drawn increments (an ndarray) are scaled here, whole; a stream is
    handed its amplitude once by ``scale(sigma)``, however many components
    read it.  The caller's arrays are never written to.  ``sup(k, s)`` maps
    the state at grid point k to one value per path, whose running max is
    recorded; ``path=True`` records every state.
    """
    s = np.array(np.broadcast_arrays(*state), dtype=float)
    steps, lift = len(grid) - 1, (len(s), math.prod(s.shape[1:-1]), s.shape[-1])
    d, spare = np.empty_like(s), np.empty_like(s)
    s_l, spare_l, d_l = (a.reshape(lift) for a in (s, spare, d))
    # one linear-map call per step, with each component's bits of ``_lin``:
    # at n = 1 a multiply by the column (C, 1, 1) of the scalars, else a
    # matmul by the stack of mats[c].T, each with the strides of A.T
    lin = np.array(mats, dtype=float)
    op, operand = ((np.multiply, lin.reshape(-1, 1, 1)) if lift[-1] == 1
                   else (np.matmul, lin.transpose(0, 2, 1)))
    h = np.reshape(np.array(factors, dtype=float), (-1,) + (1,) * (s.ndim - 1))
    block, streams, terms = _noise_terms(noise, s.shape, steps)
    rows = None
    if path:
        rows_l = np.empty((steps + 1,) + lift)
        rows = rows_l.reshape((steps + 1,) + s.shape)
        rows[0] = s
    best = None if sup is None else np.array(sup(0, s), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            op(s_l, operand, out=d_l)
            drift(k, s, d)
            if k == steps - 1:
                h = h * _stretch(grid, dt)
            d *= h
            # the next state goes straight into its path row, or else into
            # the spare buffer, which then trades places with the state
            nxt, nxt_l = ((spare, spare_l) if rows is None
                          else (rows[k + 1], rows_l[k + 1]))
            np.add(s, d, out=nxt)
            if block is not None:
                nxt += block[k]
            for c, stream in streams:
                part = nxt[c]
                part += stream[k]
            for c, term in terms:
                part = nxt[c]
                part += term(k, s)
            spare, s, spare_l, s_l = s, nxt, s_l, nxt_l
            if sup is not None:
                np.maximum(best, sup(k + 1, s), out=best)
    diverged = ~_finite_rows(s)
    if rows is not None:
        rows = rows.swapaxes(0, 1)
    # a path with a non-finite row ends non-finite, so only then are its
    # rows searched
    at = None if rows is None else np.full(diverged.shape, -1)
    if np.any(diverged):
        s = np.where(diverged[..., None], np.nan, s)
        if best is not None:
            best = np.where(diverged, np.nan, best)
        if rows is not None:
            at = _nan_after_divergence(rows)
    return _Run(s, diverged, best, rows, at)


def _noise_terms(noise, shape, steps):
    """``_euler``'s noise terms for a state (C, ..., n): the pre-drawn ones as
    one scaled block (steps, C, ..., n), -0.0 (the additive identity) on
    other components, or None; the streams, scaled; the state's, as given."""
    block, streams, terms = None, [], []
    for c, t in enumerate(noise):
        if t is None:
            continue
        if callable(t):
            terms.append((c, t))
        elif isinstance(t[1], np.ndarray):
            if block is None:
                block = np.full((steps,) + shape, -0.0)
            block[:, c] = apply_noise(*t)
        else:
            if all(source is not t[1] for _, source in streams):
                t[1].scale(t[0])
            streams.append((c, t[1]))
    return block, tuple(streams), tuple(terms)


def _trajectory(grid, states, diverged_at):
    """Single-path Trajectory flagged from its first non-finite row (-1: none)."""
    at = int(diverged_at)
    return Trajectory(grid, states, at >= 0, at if at >= 0 else None)


def _stretch(grid, dt):
    """The last step of a ``make_grid`` grid over dt: 1.0 when dt divides the
    horizon (within 1e-6, to absorb rounding), else the remainder's ratio,
    which ``make_grid`` puts in (0, 1.5]: round-half-even, and one step for
    any positive horizon."""
    if len(grid) < 2:
        return 1.0
    ratio = (grid[-1] - grid[-2]) / dt
    return 1.0 if abs(ratio - 1.0) <= 1e-6 else ratio


def default_step(t_end, epsilon):
    """The step a run at ``epsilon`` takes when none is given: epsilon / 10
    when it divides t_end, else the longest shorter step that does, so that
    no step of the grid exceeds the guard of ``_check_stable``."""
    dt = epsilon / 10
    grid = make_grid(t_end, dt)
    if t_end == 0 or (len(grid) > 1 and _stretch(grid, dt) == 1.0):
        return dt
    return t_end / math.ceil(t_end / dt)


def _check_stable(grid, dt, epsilon):
    """Refuse steps the fast drift, scaled by 1/epsilon, cannot take; the
    longest step of the grid counts, which may be its stretched last one."""
    longest = dt * max(_stretch(grid, dt), 1.0)
    if longest > epsilon / 10 + 1e-15:
        raise ValueError(
            f"step {longest} violates the stability guard dt <= epsilon/10 = "
            f"{epsilon / 10}")


def simulate_slow_fast(m, t_end, dt, rng=None, slow_incr=None, fast_incr=None):
    """Simulate the coupled system on [0, t_end]; returns (x, y) trajectories.

    Increments may be injected (for coupling experiments); otherwise the slow
    stream is drawn first and the fast stream second from ``rng``.
    """
    grid = make_grid(t_end, dt)
    _check_stable(grid, dt, m.epsilon)
    n = m.n
    if slow_incr is None:
        slow_incr = sample_increments(n, grid, rng, jump=m.jump_slow)
    if fast_incr is None:
        fast_incr = sample_increments(n, grid, rng, jump=m.jump_fast,
                                      speed=1.0 / m.epsilon)

    def drift(k, s, d):
        x, y = s[0], s[1]
        m.f._add(d[0], x, y)
        m.g._add(d[1], x, y)

    noise = ((m.sigma1, slow_incr.d_brownian + slow_incr.d_jump),
             (m.sigma2, fast_incr.d_brownian + fast_incr.d_jump))
    run = _euler((m.x0, m.y0), (m.a, m.b), drift, (dt, dt / m.epsilon), noise, grid,
                 dt, path=True)
    xs, ys = run.path
    return (_trajectory(grid, xs, run.diverged_at),
            _trajectory(grid, ys, run.diverged_at))


def _frozen_fast_run(m, x_frozen, y0, grid, dt, d_fast, path=False):
    """Frozen-fast equation from y0 (..., n), slow argument x_frozen (same
    shape), along a grid over dt with step factor dt, driven by summed fast
    increments (steps, ..., n)."""
    def drift(k, s, d):
        m.g._add(d[0], x_frozen, s[0])

    return _euler((y0,), (m.b,), drift, (dt,), ((m.sigma2, d_fast),), grid, dt, path=path)


def frozen_fast_batch(m, x_frozen, y0, steps, dt, rng, n_paths):
    """Batched frozen-fast stepping; returns states (steps+1, n_paths, n).

    The paths draw their increments from ``rng`` in turn, path 0 first, each
    as one ``sample_increments`` stream, so path i equals the i-th of
    ``n_paths`` successive one-path runs on that generator.  Each path's
    place in that stream is fixed when the stream is built, which leaves
    ``rng`` where those runs would.
    """
    grid = dt * np.arange(steps + 1)
    d_fast = _path_increments(m.n, grid, [rng] * n_paths, jump=m.jump_fast)
    x_frozen, y0 = (np.broadcast_to(np.asarray(v, dtype=float), d_fast.shape[1:])
                    for v in (x_frozen, y0))
    return _frozen_fast_run(m, x_frozen, y0, grid, dt, d_fast, path=True).path[0]
