"""Driving noise generation: Brownian and compensated-jump increments.

Increments are generated per grid step.  Jumps are simulated exactly: the
event count on the horizon is Poisson, event times are uniform order
statistics, and events are binned to grid steps; the compensator enters as
the deterministic per-step correction ``-rate * mean_size * dt`` so every
jump increment is a martingale difference.

A time change runs the process at a ``speed`` c: Brownian variance c dt
and jump rate c times the intensity.  Fast-time rescaling is speed
``1/epsilon``.  Two-sided paths glue an independent negative-time segment to
a positive-time segment with the path anchored at 0 at time 0, which is what
stationary stochastic convolutions integrate against.

Reproducibility contract: each (master_seed, path_index, role) triple
derives an independent substream.  A path draws its jump count, times and
sizes first, then its Brownian block in step order.  ``sample_increments``
draws one path; ``_path_increments`` streams a batch in time chunks to the
same numbers.  A generator serving several paths gives them its stream in
turn, path 0 first: each path's stream position is taken in one pass, with
the first chunk, which draws the path's events and first rows, records the
generator's state at its next rows and draws past them; each later chunk
resumes each path from its recorded state, and the generator is left where
the whole draw leaves it.  A batch of paths [start, start+count)
may be cut into contiguous ranges run in forked worker processes
(``harness._split_paths``); path i still draws from its own
``substream(master_seed, i, role)``.  Ensembles are therefore
bit-identical regardless of worker count, batch size or chunk length.

A chunk holds ``CHUNK_STEPS`` steps, or as many as fit in ``CHUNK_BYTES`` at
the batch's width where that is up to twice as many (``_chunk_steps``), so
a wide batch is drawn within a fixed buffer and a narrow one holds a chunk
small beside its own rows.

A chunk is filled a block of paths at a time: each path draws its rows in
one contiguous call into a small path-major scratch, the block is scaled
there by sqrt(c dt) and copied transposed into the (steps, paths, n)
chunk, so every element is ``z * sqrt(c dt)`` as in ``sample_increments``.
A batch's jump events are drawn with its first chunk and sorted by step
once; each chunk adds, to each cell (step, path) with events, their sum in
the path's time order, and the compensator to every cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# substream roles; values are part of the reproducibility contract
ROLE_SLOW = 0
ROLE_FAST = 1
ROLE_DEV = 2
ROLE_BURN = 3
ROLE_TASK = 5


def substream(master_seed, path_index=0, role=0):
    """Independent generator derived from (master_seed, path_index, role)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(path_index), int(role)))
    return np.random.Generator(np.random.PCG64(ss))


# bytes of the chunk buffer of a wide streamed batch, and the steps of any
# other chunk (``_chunk_steps``); they set the buffer size only, since
# chunks draw the same numbers as whole paths.  20 MB is 256 steps at 1e4
# paths and n = 1; shorter chunks pay more per-path draw calls.
CHUNK_BYTES = 256 * 10**4 * 8
CHUNK_STEPS = 256
# paths drawn per block into a path-major scratch, which holds at most
# _SCRATCH numbers (512 KB): fewer paths when a path's rows are longer
_PATH_BLOCK = 256
_SCRATCH = 1 << 16


def _chunk_steps(count, n, steps):
    """Steps per time chunk of a streamed (steps, count, n) batch: as many as
    fill ``CHUNK_BYTES`` where that is from ``CHUNK_STEPS`` to twice as many,
    else ``CHUNK_STEPS``; at most the whole batch.  So only batches at least
    half as wide as the budget's (5000 to 1e4 numbers a step) take longer
    chunks, which save them per-path draw calls; a narrower batch would gain
    few calls and hold the longer chunk beside its own rows."""
    fit = CHUNK_BYTES // max(count * n * 8, 1)
    return min(fit if CHUNK_STEPS <= fit <= 2 * CHUNK_STEPS else CHUNK_STEPS, steps)


@dataclass
class IncrementStream:
    """Per-step Brownian and compensated jump increments on a time grid."""

    grid: np.ndarray              # (M+1,) strictly increasing times
    d_brownian: np.ndarray        # (M, n)
    d_jump: np.ndarray            # (M, n), compensated
    # structured array of the events, ``time`` (E,) and ``size`` (E, n)
    jump_events: np.ndarray = ()

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        m = len(self.grid) - 1
        if self.d_brownian.shape[0] != m or self.d_jump.shape[0] != m:
            raise ValueError("increment arrays must have one row per grid step")

    @property
    def n(self):
        return self.d_brownian.shape[-1]


def _check_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1:
        raise ValueError("empty grid")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _required(rng):
    """``rng``, or the error every sampler gives when no generator is passed."""
    if rng is None:
        raise ValueError("an rng is required to sample increments")
    return rng


def _draw_jumps(n, grid, rng, jump, rate):
    """One path's events in time order: times (E,), sizes (E, n), steps (E,)."""
    count = rng.poisson(rate * (grid[-1] - grid[0]))
    times = np.sort(rng.uniform(grid[0], grid[-1], size=count))
    sizes = jump.size_dist.sample(rng, (count, n))
    idx = np.clip(np.searchsorted(grid, times, side="right") - 1, 0, len(grid) - 2)
    return times, sizes, idx


def sample_increments(n, grid, rng, jump=None, speed=1.0):
    """Sample one increment stream on ``grid`` of the Levy process run at
    ``speed`` c.

    Brownian increments are N(0, c * dt) per coordinate; jump events arrive
    at rate ``c * jump.intensity`` with i.i.d. per-coordinate sizes and are
    compensated at the same rate.
    """
    grid = _check_grid(grid)
    _required(rng)
    m = len(grid) - 1
    dts = np.diff(grid)
    rate = 0.0 if jump is None or m == 0 else jump.intensity * speed
    d_jump = np.zeros((m, n))
    times, sizes = np.empty(0), np.empty((0, n))
    if rate > 0:
        times, sizes, idx = _draw_jumps(n, grid, rng, jump, rate)
        np.add.at(d_jump, idx, sizes)
        d_jump -= rate * jump.mean_size * dts[:, None]
    events = np.empty(len(times), [("time", float), ("size", float, (n,))])
    events["time"], events["size"] = times, sizes
    d_brownian = rng.standard_normal((m, n)) * np.sqrt(speed * dts)[:, None]
    return IncrementStream(grid, d_brownian, d_jump, events)


class _path_increments:    # lower case, as it is called like a function
    """Summed increments (steps, count, n): path i is the ``sample_increments``
    stream of ``rng_at(i)``, drawn a chunk of ``_chunk_steps`` steps at a time
    as the kernel reads the steps in order.  Paths that share a generator take
    its stream in turn, path 0 first, each from its recorded position."""

    def __init__(self, n, grid, count, rng_at, jump=None, speed=1.0):
        self._grid, self._jump, self._speed = _check_grid(grid), jump, speed
        self.shape = (len(self._grid) - 1, count, n)
        self._gens = [_required(rng_at(i)) for i in range(count)]
        self._buf = np.empty((_chunk_steps(count, n, len(self)), count, n))
        self._rate = 0.0 if jump is None or len(self) == 0 else jump.intensity * speed
        # the drawn chunk's steps; sizes, steps and paths of all events, in
        # step order, freed after the last chunk; with shared generators,
        # each path's generator state at its next normals, and each
        # generator's state after the whole draw
        self._start, self._end, self._events = 0, 0, None
        shared = len({id(g) for g in self._gens}) < count
        self._states, self._ends = [None] * count if shared else None, None

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, k):
        """Step k (count, n), read in step order."""
        if k == self._end:
            self._fill()
        if self._start <= k < self._end:
            return self._buf[k - self._start]
        raise IndexError(f"{k!r}: streamed increments are read in step order")

    def _fill(self):
        lo, hi = self._end, min(self._end + len(self._buf), len(self))
        count, n = self.shape[1:]
        dts = np.diff(self._grid[lo:hi + 1])[:, None, None]
        buf = self._buf[:hi - lo]
        # sqrt(c dt) per element of a path's (steps, n) rows, so that one
        # multiply runs over them contiguously
        scale = np.repeat(np.sqrt(self._speed * dts[:, 0]), n, axis=1)
        # a block of paths at a time, drawn and scaled path-major
        block = max(1, min(_PATH_BLOCK, _SCRATCH // max((hi - lo) * n, 1)))
        scratch = np.empty((min(block, count), hi - lo, n))
        states, jumps, drawn = self._states, lo == 0 and self._rate > 0, []
        if states is not None and lo == 0:
            # the numbers of a path's later chunks, and a scratch to draw
            # past them in
            rest, skip = (len(self) - hi) * n, np.empty(max((hi - lo) * n, 1))
        for j in range(0, count, block):
            part = scratch[:min(block, count - j)]
            # with a shared generator, the first chunk takes each path's
            # events and rows in turn, records the state at its next rows
            # and draws past them; later chunks resume there
            for r, rng in enumerate(self._gens[j:j + len(part)]):
                if states is not None and lo:
                    rng.bit_generator.state = states[j + r]
                elif jumps:
                    drawn.append(_draw_jumps(n, self._grid, rng, self._jump,
                                             self._rate)[1:])
                rng.standard_normal(out=part[r])
                if states is not None:
                    states[j + r] = rng.bit_generator.state
                    if not lo:
                        for k in range(0, rest, len(skip)):
                            rng.standard_normal(out=skip[:rest - k])
            part *= scale
            buf[:, j:j + len(part)] = part.swapaxes(0, 1)
        if states is not None:
            # callers draw on from where the whole draw leaves the generators
            if lo == 0:
                self._ends = [(g.bit_generator, g.bit_generator.state)
                              for g in {id(g): g for g in self._gens}.values()]
            for bits, state in self._ends:
                bits.state = state
        if drawn:
            # events sorted by step once; the stable sort keeps one path's
            # events in a step in their time order, as in its stream
            size, step = (np.concatenate(cols) for cols in zip(*drawn))
            path = np.repeat(np.arange(count), [len(steps) for _, steps in drawn])
            order = np.argsort(step, kind="stable")
            self._events = size[order], step[order], path[order]
        if self._events is not None:
            # buf + (sum - comp) where events fall, the sum taken from 0.0 in
            # event order, and buf + (0.0 - comp) elsewhere, as if adding a
            # whole (steps, count, n) block of compensated jump sums
            size, step, path = self._events
            now = slice(*np.searchsorted(step, (lo, hi)))
            comp = self._rate * self._jump.mean_size * dts
            cells, at = np.unique((step[now] - lo) * count + path[now],
                                  return_inverse=True)
            sums = np.zeros((len(cells), n))
            np.add.at(sums, at, size[now])
            cells = np.divmod(cells, count)
            hit = buf[cells] + (sums - comp[cells[0], 0])
            buf += 0.0 - comp
            buf[cells] = hit
            if hi == len(self):
                self._events = None
        self._start, self._end = lo, hi


def rescale_fast(n, epsilon, grid, rng, jump=None):
    """Increment stream of the fast-time driving noise at timescale 1/epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return sample_increments(n, grid, rng, jump=jump, speed=1.0 / epsilon)


@dataclass
class TwoSidedPath:
    """Independent negative and positive increment segments glued at 0."""

    negative: IncrementStream     # grid on [-T_neg, 0]
    positive: IncrementStream     # grid on [0, T]

    def increments(self):
        """Per-step increments (Brownian + compensated jumps) on [-T_neg, T]."""
        return np.concatenate([self.negative.d_brownian + self.negative.d_jump,
                               self.positive.d_brownian + self.positive.d_jump])


def sample_two_sided(n, t_neg, t_pos, grid_step, rng, jump=None, speed=1.0):
    """Sample a two-sided path: negative segment first, then positive."""
    if t_neg < 0 or t_pos < 0:
        raise ValueError("horizons must be nonnegative")

    def segment(t0, t1):
        steps = max(int(round((t1 - t0) / grid_step)), 0)
        grid = t0 + grid_step * np.arange(steps + 1)
        grid[-1] = t1
        return sample_increments(n, grid, rng, jump=jump, speed=speed)

    negative = segment(-t_neg, 0.0)
    positive = segment(0.0, t_pos)
    return TwoSidedPath(negative, positive)
