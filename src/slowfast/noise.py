"""Driving noise generation: Brownian and compensated-jump increments.

Increments are generated per grid step.  Jumps are simulated exactly: the
event count on the horizon is Poisson, event times are uniform order
statistics, and events are binned to grid steps; the compensator enters as
the deterministic per-step correction ``-rate * mean_size * dt`` so every
jump increment is a martingale difference.

A time change runs the process at a ``speed`` c >= 0: Brownian variance
c dt and jump rate c times the intensity.  Fast-time rescaling is speed
``1/epsilon``.

Reproducibility contract: each (master_seed, path_index, role) triple
derives an independent substream.  A path draws its jump count, times and
sizes first, then its Brownian block in step order.  ``sample_increments``
draws one path; ``_path_increments`` streams a batch in time chunks to the
same numbers.  A generator serving several paths gives them its stream in
turn, path 0 first: when the stream is built, each path draws its events
from it and takes a copy of it standing at the path's normals, and the
generator is drawn past them.  It is then left where the whole draw leaves
it, and what it draws next changes no row.  A batch of paths
[start, start+count) may be cut into contiguous ranges run in forked worker
processes (``harness._split_paths``); path i still draws from its own
``substream(master_seed, i, role)``.  Ensembles are therefore
bit-identical regardless of worker count, batch size or chunk length.
``substream`` is the reference for one generator; a batch derives the
generators of all its paths in one pass (``_substreams``), which hashes
their seeds together in numpy and gives the same streams, draw for draw.

A chunk holds ``CHUNK_STEPS`` steps, or the whole batch where that is
shorter, and is filled a block of paths at a time: each path draws its rows
in one contiguous call into a small path-major scratch, scaled there by
sqrt(c dt), as in ``sample_increments``.  A chunk with jumps first takes
them by ``sample_increments``' rule, in place (zeros, each event's size
added to its cell (step, path) in event order, less the compensator); the
batch's events are drawn when its stream is built and sorted by step once.
A stream the stepping kernel hands an amplitude (``scale``) applies it as
it fills a chunk, so that ``apply_noise`` runs on no row later: a scalar to
each block while in cache, after its normals (and jumps) are in, a matrix
to time slabs of every path, whose rows it multiplies as one row alone.  No
chunk-sized temporary is made.
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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _MASK = 0xca01f9dd, 0x4973f715, 0xffffffff


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The seed words of one PCG64, in place of its SeedSequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _substreams(master_seed, start, count, role):
    """``[substream(master_seed, start + i, role) for i in range(count)]``,
    draw for draw, with every path's seed hashed in one numpy pass.

    A SeedSequence with a spawn key hashes its entropy words into a pool of
    four uint32 words: the seed's words first, padded to four, then each
    spawn key word, mixed into every pool word.  The seed's part is common
    to the batch, so one SeedSequence of the seed alone gives it (and
    refuses a negative seed as ``substream`` does); the path index and role
    words are then mixed into a (4, count) pool in uint32 arithmetic, and
    each PCG64 is seeded from the four uint64 words that
    ``generate_state(4, np.uint64)`` would draw from its pool.  No
    SeedSequence is kept per path.  Indices and roles are below 2**64.
    """
    seed = np.random.SeedSequence(int(master_seed))
    start, count, role = int(start), int(count), int(role)
    # the hash constant after the seed's words: four fill the pool, twelve
    # mix it, and four more per seed word past the fourth
    seed_words = max(1, -(-int(master_seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(seed_words - 4, 0), 1 << 32) & _MASK
    index = np.arange(start, start + count, dtype=np.uint64)
    role_words = max(1, -(-role.bit_length() // 32))
    gens = []
    # indices of one word, then of two: each run hashes as many key words
    for lo, hi, words in ((start, min(start + count, 1 << 32), 1),
                          (max(start, 1 << 32), start + count, 2)):
        if lo >= hi:
            continue
        spawn_key = ((index[lo - start:hi - start], words),
                     (np.full(hi - lo, role, dtype=np.uint64), role_words))
        pool = np.repeat(seed.pool.astype(np.uint32)[:, None], hi - lo, axis=1)
        c = const
        for part, n_words in spawn_key:
            for w in range(n_words):
                word = (part >> np.uint64(32 * w)).astype(np.uint32)
                for dst in range(4):
                    value = word ^ np.uint32(c)
                    c = c * _MULT_A & _MASK
                    value *= np.uint32(c)
                    value ^= value >> np.uint32(16)
                    mixed = pool[dst] * np.uint32(_MIX_L) - value * np.uint32(_MIX_R)
                    mixed ^= mixed >> np.uint32(16)
                    pool[dst] = mixed
        state = np.empty((8, hi - lo), dtype=np.uint64)
        c = _INIT_B
        for i in range(8):
            data = pool[i % 4] ^ np.uint32(c)
            c = c * _MULT_B & _MASK
            data *= np.uint32(c)
            data ^= data >> np.uint32(16)
            state[i] = data
        seeds = np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)
        gens += [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in seeds]
    return gens


# steps of a streamed batch's chunk; it sets the buffer size only, since
# chunks draw the same numbers as whole paths.  Shorter chunks pay more
# per-path draw calls.
CHUNK_STEPS = 256
# paths drawn per block into a path-major scratch, which holds at most
# _SCRATCH numbers (512 KB): fewer paths when a path's rows are longer
_PATH_BLOCK = 256
_SCRATCH = 1 << 16


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


def _check_speed(speed):
    if not speed >= 0:
        raise ValueError(f"speed must be nonnegative, got {speed}")
    return speed


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
    # a draw is at least grid[0]; one that rounds up to grid[-1] is in the
    # last step
    idx = np.searchsorted(grid, times, side="right") - 1
    np.minimum(idx, len(grid) - 2, out=idx)
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
    _check_speed(speed)
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


# the seed words of ``_copy``'s twin, which its copied state overwrites, so
# that no SeedSequence is hashed; as many as any numpy bit generator reads
# (MT19937, 624)
_PLACEHOLDER = np.zeros(624, dtype=np.uint64)


def _copy(rng):
    """A generator of ``rng``'s kind standing where ``rng`` stands."""
    bits = rng.bit_generator
    twin = type(bits)(_SeedWords(_PLACEHOLDER))
    twin.state = bits.state
    return np.random.Generator(twin)


class _path_increments:    # lower case, as it is called like a function
    """Summed increments (steps, len(gens), n): path i is the
    ``sample_increments`` stream of ``gens[i]``, drawn a chunk of
    ``CHUNK_STEPS`` steps at a time as the kernel reads the steps in order.
    Paths that share a generator take its stream in turn, path 0 first, each
    from its own copy."""

    def __init__(self, n, grid, gens, jump=None, speed=1.0):
        self._grid, self._jump, self._speed = _check_grid(grid), jump, _check_speed(speed)
        gens = [_required(rng) for rng in gens]
        self.shape = (len(self._grid) - 1, len(gens), n)
        self._buf = np.empty((min(CHUNK_STEPS, len(self)), len(gens), n))
        self._rate = 0.0 if jump is None or len(self) == 0 else jump.intensity * speed
        # each path's events; a generator that several paths share gives
        # each a copy standing at its normals and is drawn past them
        shared, rows, drawn = len({id(g) for g in gens}) < len(gens), len(self) * n, []
        skip = np.empty(max(min(rows, _SCRATCH), 1)) if shared else None
        for i, rng in enumerate(gens):
            if self._rate > 0:
                drawn.append(_draw_jumps(n, self._grid, rng, jump, self._rate)[1:])
            if shared:
                gens[i] = _copy(rng)
                for k in range(0, rows, len(skip)):
                    rng.standard_normal(out=skip[:rows - k])
        self._gens, self._sigma = gens, None
        # the drawn chunk's steps; sizes, steps and paths of all events, in
        # step order, freed after the last chunk
        self._start, self._end, self._events = 0, 0, None
        if drawn:
            # the stable sort keeps one path's events in a step in their time
            # order, as in its stream
            size, step = (np.concatenate(cols) for cols in zip(*drawn))
            path = np.repeat(np.arange(len(gens)), [len(steps) for _, steps in drawn])
            order = np.argsort(step, kind="stable")
            self._events = size[order], step[order], path[order]

    def __len__(self):
        return self.shape[0]

    def scale(self, sigma):
        """Deliver every row times ``sigma`` by ``integrator.apply_noise``'s
        rule; before the first read."""
        if self._end:
            raise ValueError("a stream is scaled before its first row is read")
        self._sigma = np.atleast_2d(sigma)

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
        jumps = self._events is not None
        if jumps:
            # the compensated jump sums first, as ``sample_increments`` takes
            # them: from 0.0 in event order, less the compensator; the normals
            # are added to them below, and a + b is b + a in IEEE arithmetic
            size, step, path = self._events
            now = slice(*np.searchsorted(step, (lo, hi)))
            buf.fill(0.0)
            np.add.at(buf, (step[now] - lo, path[now]), size[now])
            buf -= self._rate * self._jump.mean_size * dts
            if hi == len(self):
                self._events = None
        # sqrt(c dt) per element of a path's (steps, n) rows, so that one
        # multiply runs over them contiguously
        scale = np.repeat(np.sqrt(self._speed * dts[:, 0]), n, axis=1)
        sigma = self._sigma
        # a scalar amplitude multiplies each block while it is in cache: its
        # scaled normals, or with jumps the sum of jumps and normals
        amp = None if sigma is None or sigma.shape != (1, 1) else sigma[0, 0]
        # a block of paths at a time, drawn and scaled path-major
        block = max(1, min(_PATH_BLOCK, _SCRATCH // max((hi - lo) * n, 1)))
        scratch = np.empty((min(block, count), hi - lo, n))
        for j in range(0, count, block):
            part = scratch[:min(block, count - j)]
            for rng, row in zip(self._gens[j:j + len(part)], part):
                rng.standard_normal(out=row)
            part *= scale
            cols = buf[:, j:j + len(part)]
            if jumps:
                cols += part.swapaxes(0, 1)
                if amp is not None:
                    cols *= amp
            else:
                if amp is not None:
                    part *= amp
                cols[...] = part.swapaxes(0, 1)
        if sigma is not None and amp is None:
            # a matrix on time slabs of every path, so that each step's rows
            # are multiplied as one row alone, with a temporary of one slab
            slab = max(1, _SCRATCH // max(count * n, 1))
            for t in range(0, len(buf), slab):
                buf[t:t + slab] = buf[t:t + slab] @ sigma.T
        self._start, self._end = lo, hi
