"""Driving noise generation: Brownian and compensated-jump increments.

Increments are generated per grid step.  Jumps are simulated exactly: the
event count on the horizon is Poisson, event times are uniform order
statistics, and events are binned to grid steps; the compensator enters as
the deterministic per-step correction ``-rate * mean_size * dt`` so every
jump increment is a martingale difference.

Fast-time rescaling multiplies the Brownian variance and the jump rate by
``1/epsilon``.  Two-sided paths glue an independent negative-time segment to
a positive-time segment with the path anchored at 0 at time 0, which is what
stationary stochastic convolutions integrate against.

Reproducibility contract: each (master_seed, path_index, role) triple derives
an independent substream, and a generator's draw order inside one stream is
fixed (Brownian block first, then jump count, times, sizes).  Ensembles built
from substreams are therefore bit-identical regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# substream roles; values are part of the reproducibility contract
ROLE_SLOW = 0
ROLE_FAST = 1
ROLE_DEV = 2
ROLE_BURN = 3
ROLE_AUX = 4
ROLE_TASK = 5


def substream(master_seed, path_index=0, role=0):
    """Independent generator derived from (master_seed, path_index, role)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(path_index), int(role)))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class IncrementStream:
    """Per-step Brownian and compensated jump increments on a time grid."""

    grid: np.ndarray              # (M+1,) strictly increasing times
    d_brownian: np.ndarray        # (M, n)
    d_jump: np.ndarray            # (M, n), compensated
    jump_events: list = field(default_factory=list)   # [(time, size vector)]

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        m = len(self.grid) - 1
        if self.d_brownian.shape[0] != m or self.d_jump.shape[0] != m:
            raise ValueError("increment arrays must have one row per grid step")

    @property
    def n(self):
        return self.d_brownian.shape[-1]

    @property
    def n_steps(self):
        return len(self.grid) - 1

    @property
    def dt(self):
        return np.diff(self.grid)

    def total(self):
        """Sum of all increments (Brownian + compensated jumps)."""
        return self.d_brownian.sum(axis=0) + self.d_jump.sum(axis=0)


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1:
        raise ValueError("empty grid")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def sample_increments(n, grid, rng, jump=None, var_scale=1.0, rate_scale=1.0):
    """Sample one increment stream on ``grid``.

    Brownian increments are N(0, var_scale * dt) per coordinate; jump events
    arrive at rate ``jump.intensity * rate_scale`` with i.i.d. per-coordinate
    sizes and are compensated at the same rate.
    """
    grid = _check_grid(grid)
    if rng is None:
        raise ValueError("an rng is required to sample increments")
    m = len(grid) - 1
    dts = np.diff(grid)
    d_brownian = rng.normal(0.0, 1.0, size=(m, n)) * np.sqrt(var_scale * dts)[:, None]
    d_jump = np.zeros((m, n))
    events = []
    rate = 0.0 if jump is None else jump.intensity * rate_scale
    if rate > 0 and m > 0:
        span = grid[-1] - grid[0]
        count = rng.poisson(rate * span)
        times = np.sort(rng.uniform(grid[0], grid[-1], size=count))
        sizes = jump.size_dist.sample(rng, (count, n))
        idx = np.clip(np.searchsorted(grid, times, side="right") - 1, 0, m - 1)
        np.add.at(d_jump, idx, sizes)
        d_jump -= rate * jump.mean_size * dts[:, None]
        events = list(zip(times.tolist(), [s for s in sizes]))
    return IncrementStream(grid, d_brownian, d_jump, events)


def rescale_fast(n, epsilon, grid, rng, jump=None):
    """Increment stream of the fast-time driving noise at timescale 1/epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return sample_increments(n, grid, rng, jump=jump,
                             var_scale=1.0 / epsilon, rate_scale=1.0 / epsilon)


@dataclass
class TwoSidedPath:
    """Independent negative and positive increment segments glued at 0."""

    negative: IncrementStream     # grid on [-T_neg, 0]
    positive: IncrementStream     # grid on [0, T]

    def increments(self):
        """Per-step increments (Brownian + compensated jumps) on [-T_neg, T]."""
        return np.concatenate([self.negative.d_brownian + self.negative.d_jump,
                               self.positive.d_brownian + self.positive.d_jump])


def sample_two_sided(n, t_neg, t_pos, grid_step, rng, jump=None,
                     var_scale=1.0, rate_scale=1.0):
    """Sample a two-sided path: negative segment first, then positive."""
    if t_neg < 0 or t_pos < 0:
        raise ValueError("horizons must be nonnegative")

    def segment(t0, t1):
        steps = max(int(round((t1 - t0) / grid_step)), 0)
        grid = t0 + grid_step * np.arange(steps + 1)
        grid[-1] = t1
        if steps == 0:
            grid = np.array([t1])
            return IncrementStream(grid, np.zeros((0, n)), np.zeros((0, n)), [])
        return sample_increments(n, grid, rng, jump=jump,
                                 var_scale=var_scale, rate_scale=rate_scale)

    negative = segment(-t_neg, 0.0)
    positive = segment(0.0, t_pos)
    return TwoSidedPath(negative, positive)
