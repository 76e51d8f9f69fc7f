"""Explicit jump-diffusion time stepping and the core process simulators.

Every simulator is one explicit Euler-Maruyama step on a stacked state, one
(..., n) block per component (slow, fast, averaged, fluctuation, ...):

    s_c <- s_c + drift_c(s) * h_c + sigma_c (dW + dJ)

with h_c = dt, or dt / epsilon for a fast component, and dJ compensated.
When dt does not divide the horizon, ``make_grid`` stretches or shortens
the last step to end on it, and that step's h_c follows (``_stretch``);
``default_step`` picks a step under the guard below whose grid divides the
horizon.  A leading path axis steps a batch of paths at once (the vectorised
ensemble scheme of Higham, SIAM Review 43(3):525, 2001); a batch of many
path-steps may be cut into contiguous ranges of paths, each stepped by its
own kernel run in a forked worker process (``harness._split_paths``), and
since every row is stepped on its own the rows do not depend on the range
that holds them.  The private kernel
``_euler`` owns the time loop, the noise term and the recorders (final
state, running sup, full path); a simulator supplies its drift, step factors
and noise.  Jumps break the smoothness higher-order schemes need, and every
claim verified downstream is a weak or strong limit, so the explicit scheme
is the right tool.  Every simulator of the coupled system enforces
``dt <= epsilon / 10`` (``_check_stable``) because the fast drift scales
like 1/epsilon.

Stepping is in place.  ``_euler`` stacks the components into one state
array (C, ..., n) and owns a drift buffer of that shape, plus a spare state
buffer or the rows of the recorded path.  A simulator's drift writes into
the drift buffer, component by component, through ``model._lin_plus``: the
linear part by one ufunc call with ``out=`` (a matmul, or a scalar multiply
at n = 1), then the nonlinearity added in place by ``DriftFn._add``.  The
kernel scales the drift by every component's step factor at once, writes
``s + d * h`` straight into the next path row or the spare buffer, and adds
the noise there, so the bits are those of ``(s + d * h) + noise``.  No step
allocates a state or builds a list.  At one to a few dozen paths a step
costs numpy call overhead, not arithmetic, so the number of calls per step
is what counts: one stacked update serves all the components.

Single paths draw their noise before stepping (``noise.sample_increments``),
and ``_euler`` scales such a pre-drawn block by its amplitude once, whole,
before the loop.  Batches stream theirs inside the loop, a time chunk at a
time, from ``noise._path_increments``, and each step's rows are scaled into
one buffer by an amplitude bound once per run; so does
``deviation.simulate_truncated_deviation``, a batch of one path.  ``_frozen_fast_run`` steps
the frozen-fast equation for ``frozen_fast_batch`` and the manifold burn-in
of ``deviation``.

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

from .model import _lin_op, _lin_plus
from .noise import _path_increments, rescale_fast, sample_increments


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
    if t_end < 0 or dt <= 0:
        raise ValueError("need t_end >= 0 and dt > 0")
    m = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    grid = dt * np.arange(m + 1)
    if m > 0:
        grid[-1] = t_end
    return grid


def apply_noise(sigma, incr):
    """Apply a scalar or matrix amplitude to an increment (..., n)."""
    op, operand = _amplitude_op(sigma)
    return op(incr, operand)


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


def _euler(state, drift, factors, noise, grid, dt, sup=None, path=False):
    """Advance a stacked state along ``grid``, a ``make_grid`` grid over dt
    or any stretch of it, by explicit Euler steps, in place.

    ``state`` holds one (..., n) array per component, broadcast to a common
    shape and stacked as s (C, ..., n).  ``drift(k, s, d)`` writes step k's
    drift of component c into ``d[c]`` of the buffer d shaped as s: it sets
    every entry, reads s and keeps a reference to neither.  Component c
    moves by ``d[c] * factors[c]``, times ``_stretch(grid, dt)`` at the last
    step, plus its noise term ``noise[c]``: None, a pair
    ``(sigma, increments)`` adding ``apply_noise(sigma, increments)[k]``,
    or a function ``(k, s) -> array`` for noise scaled by the state.  The
    caller's states and increments are never written to.
    ``sup(s)`` maps a state to one value per path, whose running max
    over the grid is recorded; ``path=True`` records every state.
    """
    s = np.array(np.broadcast_arrays(*state), dtype=float)
    steps, stretch = len(grid) - 1, _stretch(grid, dt)
    d, spare = np.empty_like(s), np.empty_like(s)
    h = np.reshape(np.array(factors, dtype=float), (-1,) + (1,) * (s.ndim - 1))
    block, terms = _noise_terms(noise, s.shape, steps)
    rows = None
    if path:
        rows = np.empty((steps + 1,) + s.shape)
        rows[0] = s
    best = None if sup is None else np.array(sup(s), dtype=float)
    last = steps - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            drift(k, s, d)
            if k == last:
                h = h * stretch
            d *= h
            # the next state goes straight into its path row, or else into
            # the spare buffer, which then trades places with the state
            nxt = spare if rows is None else rows[k + 1]
            np.add(s, d, out=nxt)
            if block is not None:
                nxt += block[k]
            for c, term in terms:
                part = nxt[c]
                part += term(k, s, d[c])
            spare, s = s, nxt
            if sup is not None:
                np.maximum(best, sup(s), out=best)
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
    """``_euler``'s noise: the pre-drawn terms as one block (steps, C, ..., n),
    scaled once, whole, with -0.0 (the additive identity) on the other
    components, or None; and the others as ``(c, term)`` pairs, term(k, s,
    scratch) giving component c's noise at step k.  The scratch is the
    component's drift buffer, which the step has used by then: a streamed
    block is scaled row by row into it, by an amplitude bound once."""
    block, terms = None, []
    for c, t in enumerate(noise):
        if t is None:
            continue
        if callable(t):
            terms.append((c, lambda k, s, scratch, t=t: t(k, s)))
        elif isinstance(t[1], np.ndarray):
            if block is None:
                block = np.full((steps,) + shape, -0.0)
            block[:, c] = apply_noise(*t)
        else:
            terms.append((c, _streamed(*t)))
    return block, tuple(terms)


def _streamed(sigma, increments):
    op, operand = _amplitude_op(sigma)
    return lambda k, s, scratch: op(increments[k], operand, out=scratch)


def _amplitude_op(sigma):
    """``apply_noise(sigma, .)`` as a ufunc and its bound operand, for a loop."""
    return (np.multiply, sigma) if np.ndim(sigma) == 0 else _lin_op(np.asarray(sigma))


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
        fast_incr = rescale_fast(n, m.epsilon, grid, rng, jump=m.jump_fast)

    slow, fast = _lin_plus(m.a, m.f._add), _lin_plus(m.b, m.g._add)

    def drift(k, s, d):
        x, y = s
        slow(d[0], x, x, y)
        fast(d[1], y, x, y)

    noise = ((m.sigma1, slow_incr.d_brownian + slow_incr.d_jump),
             (m.sigma2, fast_incr.d_brownian + fast_incr.d_jump))
    run = _euler((m.x0, m.y0), drift, (dt, dt / m.epsilon), noise, grid, dt,
                 path=True)
    xs, ys = run.path
    return (_trajectory(grid, xs, run.diverged_at),
            _trajectory(grid, ys, run.diverged_at))


def _frozen_fast_run(m, x_frozen, y0, grid, dt, d_fast, path=False):
    """Frozen-fast equation from y0 (..., n), slow argument x_frozen (same
    shape), along a grid over dt with step factor dt, driven by summed fast
    increments (steps, ..., n)."""
    fast = _lin_plus(m.b, m.g._add)

    def drift(k, s, d):
        fast(d[0], s[0], x_frozen, s[0])

    return _euler((y0,), drift, (dt,), ((m.sigma2, d_fast),), grid, dt, path=path)


def frozen_fast_batch(m, x_frozen, y0, steps, dt, rng, n_paths):
    """Batched frozen-fast stepping; returns states (steps+1, n_paths, n).

    The paths draw their increments from ``rng`` in turn, path 0 first, each
    as one ``sample_increments`` stream, so path i equals the i-th of
    ``n_paths`` successive one-path runs on that generator.  Each path's
    place in that stream is fixed when the stream is built, which leaves
    ``rng`` where those runs would.
    """
    grid = dt * np.arange(steps + 1)
    d_fast = _path_increments(m.n, grid, n_paths, lambda i: rng, jump=m.jump_fast)
    x_frozen, y0 = (np.broadcast_to(np.asarray(v, dtype=float), d_fast.shape[1:])
                    for v in (x_frozen, y0))
    return _frozen_fast_run(m, x_frozen, y0, grid, dt, d_fast, path=True).path[0]
