"""Streamed batch increments: every row of a batch equals its standalone run.

Batches draw their noise in time chunks of ``noise.CHUNK_STEPS`` steps,
from one generator per path or one shared by all of them, and fill each
chunk a block of ``noise._PATH_BLOCK`` paths at a time.
Neither the chunk length nor the block must change a single bit of any
path, so the checks below run at several chunk lengths (``_chunks`` sets
one), step counts that are not multiples of them, path counts around and
past a block's end, and jump rates high enough that events land in the last
step of a chunk and several events of one path share a step.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import harness, noise
from slowfast.averaging import build_averaged, coupled_error_batch, simulate_averaged
from slowfast.benchmarks import linear_benchmark
from slowfast.deviation import DeviationModel, limit_marginal_samples, simulate_deviation
from slowfast.integrator import make_grid, simulate_slow_fast
from slowfast.model import DriftFn, JumpSpec, SizeDist, SlowFastModel, parse_drift
from slowfast.noise import (ROLE_DEV, ROLE_FAST, ROLE_SLOW, _path_increments,
                            rescale_fast, sample_increments, substream)

EPS, DT = 0.1, 0.01
START = 3          # first path index of the coupled batches below


def _model(n, jumps, matrix_sigma):
    """Linear n-dimensional model (closed-form averaged drift); with jumps,
    about five fast events per step."""
    off = np.eye(n, k=1)
    return SlowFastModel(
        a=-np.eye(n) + 0.2 * off, b=-2.0 * np.eye(n) + 0.3 * off,
        f=DriftFn.linear(fx=0.3 * off.T, fy=np.eye(n) - 0.2 * off),
        g=DriftFn.linear(fx=0.25 * np.eye(n), fy=0.1 * off.T),
        sigma1=0.3, sigma2=np.eye(n) + 0.2 * off if matrix_sigma else 1.0,
        jump_slow=JumpSpec(10.0, SizeDist.uniform(-0.3, 0.3)) if jumps else None,
        jump_fast=JumpSpec(50.0, SizeDist.uniform(-0.4, 0.2)) if jumps else None,
        epsilon=EPS, x0=np.linspace(0.8, -0.4, n), y0=np.linspace(0.4, -0.2, n))


def _chunks(steps):
    """Streamed batches drawn ``steps`` steps at a time, whatever their width."""
    return mock.patch.object(noise, "CHUNK_STEPS", steps)


def _same(batch, single, n):
    if n == 1:
        assert np.array_equal(batch, single)
    else:
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


def _check_rows_equal_single_path_runs(n, jumps, matrix_sigma, chunk, steps, paths,
                                       seed):
    m = _model(n, jumps, matrix_sigma)
    am = build_averaged(m)
    t_end = steps * DT
    grid = make_grid(t_end, DT)
    with _chunks(chunk):
        sup, diff, div = coupled_error_batch(m, am, t_end, DT, seed, START, paths)
        dm = DeviationModel(am.a, 0.5 * np.eye(n), 0.25 * np.eye(n))
        theta = limit_marginal_samples(dm, am, t_end, DT, paths, seed)
    for i in range(paths):
        slow = sample_increments(n, grid, substream(seed, START + i, ROLE_SLOW),
                                 jump=m.jump_slow)
        fast = rescale_fast(n, EPS, grid, substream(seed, START + i, ROLE_FAST),
                            jump=m.jump_fast)
        x, _ = simulate_slow_fast(m, t_end, DT, slow_incr=slow, fast_incr=fast)
        xa = simulate_averaged(am, t_end, DT, slow)
        assert not div[i]
        _same(sup[i], np.max(np.sum((x.states - xa.states) ** 2, axis=-1)), n)
        _same(diff[i], x.states[-1] - xa.states[-1], n)
        # the limit SDE along path i's own carrier, on its deviation substream
        carrier = simulate_averaged(am, t_end, DT, sample_increments(
            n, grid, substream(seed, i, ROLE_SLOW), jump=am.jump_slow))
        ref = simulate_deviation(dm, carrier, t_end, DT, substream(seed, i, ROLE_DEV))
        _same(theta[i], ref.states[-1], n)


@settings(max_examples=16, deadline=None)
@given(n=st.integers(1, 3), jumps=st.booleans(), matrix_sigma=st.booleans(),
       chunk=st.sampled_from([1, 3, 7, noise.CHUNK_STEPS]),
       steps=st.integers(1, 40), paths=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_streamed_rows_equal_single_path_runs(n, jumps, matrix_sigma, chunk, steps,
                                              paths, seed):
    _check_rows_equal_single_path_runs(n, jumps, matrix_sigma, chunk, steps, paths,
                                       seed)


def test_fast_jump_in_the_last_step_of_a_chunk_keeps_rows_equal():
    n, chunk, steps, paths, seed = 1, 7, 22, 2, 13
    m, grid = _model(n, True, False), make_grid(steps * DT, DT)
    # a fast event of the coupled batch falls in the last step of a chunk
    # that another chunk follows
    chunk_ends = set(range(chunk - 1, steps - 1, chunk))
    hit = set()
    for i in range(START, START + paths):
        times = rescale_fast(n, EPS, grid, substream(seed, i, ROLE_FAST),
                             jump=m.jump_fast).jump_events["time"]
        hit |= set((np.searchsorted(grid, times, side="right") - 1).tolist())
    assert chunk_ends & hit
    _check_rows_equal_single_path_runs(n, True, False, chunk, steps, paths, seed)


@pytest.mark.parametrize("chunk", [1, 7])
def test_coupled_batch_does_not_depend_on_chunk_length(chunk):
    m = _model(1, True, False)
    am = build_averaged(m)
    ref = coupled_error_batch(m, am, 0.6, DT, 21, 0, 12)
    with _chunks(chunk):
        got = coupled_error_batch(m, am, 0.6, DT, 21, 0, 12)
    for r, g in zip(ref, got):
        assert np.array_equal(r, g)


def _chunk_bytes(paths, n, steps):
    """Bytes of one chunk buffer of a streamed (steps, paths, n) batch."""
    return min(noise.CHUNK_STEPS, steps) * paths * n * 8


def _unsplit():
    """The whole batch in this process, where tracemalloc sees it."""
    return mock.patch.object(harness, "SPLIT_PATH_STEPS", np.inf)


def test_coupled_batch_memory_stays_within_a_few_chunk_buffers():
    # 4000 paths x 4000 steps: a whole increment block would take 128 MB
    m = linear_benchmark(epsilon=1e-3)
    am = build_averaged(m)
    paths, steps = 4000, 4000
    with _unsplit():
        buffer = _chunk_bytes(paths, m.n, steps)
        assert steps * paths * m.n * 8 > 3 * buffer
        tracemalloc.start()
        try:
            coupled_error_batch(m, am, steps * 1e-4, 1e-4, 5, 0, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * buffer


def test_limit_samples_memory_stays_within_a_few_chunk_buffers():
    # 4000 paths x 1000 steps with slow noise: a recorded carrier path alone
    # would take 32 MB
    m = dataclasses.replace(linear_benchmark(epsilon=1e-3), sigma1=0.3)
    am = build_averaged(m)
    dm = DeviationModel(am.a, np.zeros((1, 1)), 0.25 * np.eye(1))
    paths, steps = 4000, 1000
    with _unsplit():
        buffer = _chunk_bytes(paths, m.n, steps)
        assert steps * paths * m.n * 8 > 3 * buffer
        tracemalloc.start()
        try:
            limit_marginal_samples(dm, am, steps * 1e-3, 1e-3, paths, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * buffer


def test_wide_batch_holds_a_chunk_of_fixed_steps():
    # a forked weak-limit worker's width, 5000 paths at n = 1, over more than
    # 512 steps: its chunk holds CHUNK_STEPS steps beside the paths'
    # generators, under what one 512-step chunk alone would take
    m = linear_benchmark(epsilon=1e-3)
    am = build_averaged(m)
    paths, steps = 5000, 600
    with _unsplit():
        tracemalloc.start()
        try:
            coupled_error_batch(m, am, steps * 1e-4, 1e-4, 5, 0, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 512 * paths * m.n * 8


def _rows(incr):
    """A streamed batch's rows (steps, count, n), read in step order."""
    return np.stack([incr[k].copy() for k in range(len(incr))])


def test_streamed_steps_are_read_in_order():
    grid = make_grid(1.0, 0.1)
    incr = _path_increments(1, grid, 2, lambda i: substream(1, i, ROLE_FAST))
    with _chunks(4):
        stepped = _path_increments(1, grid, 2, lambda i: substream(1, i, ROLE_FAST))
    assert np.array_equal(_rows(stepped), _rows(incr))     # chunks of 4, and one
    with pytest.raises(IndexError):
        stepped[0]                 # its chunk has been overwritten
    fresh = _path_increments(1, grid, 2, lambda i: substream(1, i, ROLE_FAST))
    with pytest.raises(IndexError):
        fresh[3]                   # steps 0-2 are not drawn yet


def _check_rows_equal_streams(grid, paths, jump, chunk, seed):
    with _chunks(chunk):
        incr = _path_increments(1, grid, paths, lambda i: substream(seed, i, ROLE_FAST),
                                jump=jump, speed=1.0 / EPS)
    rows = _rows(incr)
    for i in range(paths):
        ref = rescale_fast(1, EPS, grid, substream(seed, i, ROLE_FAST), jump=jump)
        assert np.array_equal(rows[:, i], ref.d_brownian + ref.d_jump)


@pytest.mark.parametrize("chunk", [1, 7, noise.CHUNK_STEPS])
@pytest.mark.parametrize("jumps", [False, True])
@pytest.mark.parametrize("extra", [-1, 0, 1, noise._PATH_BLOCK + 3])
def test_rows_across_path_blocks_equal_their_streams(chunk, jumps, extra):
    # paths drawn a block at a time, around and past a block's end, over two
    # chunks and a shortened last step
    paths, steps = noise._PATH_BLOCK + extra, 2 * chunk + 5
    grid = make_grid((steps - 0.3) * DT, DT)
    assert len(grid) == steps + 1
    jump = JumpSpec(50.0, SizeDist.uniform(-0.4, 0.2)) if jumps else None
    _check_rows_equal_streams(grid, paths, jump, chunk, 7)


@pytest.mark.parametrize("extra", [-1, 1, noise._PATH_BLOCK + 3])
def test_shared_generator_rows_across_path_blocks_equal_successive_streams(extra):
    # a generator serving every path, in one chunk; 300 steps make a path's
    # rows long enough that a block holds fewer than _PATH_BLOCK paths
    paths, steps = noise._PATH_BLOCK + extra, 300
    assert noise._SCRATCH // steps < noise._PATH_BLOCK
    grid = make_grid(steps * DT, DT)
    jump = JumpSpec(50.0, SizeDist.uniform(-0.4, 0.2))
    rng, one = np.random.default_rng(5), np.random.default_rng(5)
    with _chunks(steps):
        rows = _rows(_path_increments(1, grid, paths, lambda i: rng, jump=jump,
                                      speed=1.0 / EPS))
    for i in range(paths):
        ref = rescale_fast(1, EPS, grid, one, jump=jump)
        assert np.array_equal(rows[:, i], ref.d_brownian + ref.d_jump)


@pytest.mark.parametrize("n", [1, 2])
def test_shared_generator_streams_in_chunks_as_successive_streams(n):
    # one generator serving more paths than a block, read a chunk at a time;
    # a nonzero mean size makes the compensator nonzero
    paths, chunk, steps = noise._PATH_BLOCK + 3, 7, 40
    grid = make_grid(steps * DT, DT)
    jump = JumpSpec(50.0, SizeDist.uniform(-0.4, 0.2))
    assert jump.mean_size != 0.0
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    refs = [rescale_fast(n, EPS, grid, twin, jump=jump) for _ in range(paths)]
    rows = []
    with _chunks(chunk):
        incr = _path_increments(n, grid, paths, lambda i: rng, jump=jump,
                                speed=1.0 / EPS)
        for k in range(len(incr)):
            rows.append(incr[k].copy())
            # from the first chunk on, the generator stands where the
            # successive streams leave it, and what it draws between chunk
            # reads continues its own stream and changes no row
            assert rng.bit_generator.state == twin.bit_generator.state
            assert np.array_equal(rng.random(2), twin.random(2))
    rows, hit = np.stack(rows), set()
    for i, ref in enumerate(refs):
        assert np.array_equal(rows[:, i], ref.d_brownian + ref.d_jump)
        hit |= set((np.searchsorted(grid, ref.jump_events["time"], side="right")
                    - 1).tolist())
    # an event in the last step of a chunk that another chunk follows
    assert set(range(chunk - 1, steps - 1, chunk)) & hit
    assert np.array_equal(rng.random(4), twin.random(4))


def test_several_events_of_a_path_in_one_step_keep_their_order():
    # atoms whose sum depends on the order they are added in; at about 30
    # events per step, many steps hold several events of one path
    jump = JumpSpec(300.0, SizeDist.atoms([0.75, -0.75, 3e-17]))
    paths, steps, seed = noise._PATH_BLOCK + 1, 20, 3
    grid = make_grid(steps * DT, DT)
    sensitive = 0
    for i in range(paths):
        ref = rescale_fast(1, EPS, grid, substream(seed, i, ROLE_FAST), jump=jump)
        step = np.searchsorted(grid, ref.jump_events["time"], side="right") - 1
        for k in np.unique(step):
            sizes = ref.jump_events["size"][step == k, 0]
            sensitive += sum(sizes) != sum(sizes[::-1])
    assert sensitive > 0
    _check_rows_equal_streams(grid, paths, jump, 7, seed)


def _cubic_model():
    """x' = -x + x^3 with strong slow noise: some paths escape past 1 and
    blow up, the others stay finite."""
    return SlowFastModel(a=[[-1.0]], b=[[-2.0]],
                         f=parse_drift(["x1*x1*x1"], 1, lip=1.0, growth=1.0),
                         g=DriftFn.zero(1), sigma1=1.0, sigma2=1.0, epsilon=EPS,
                         x0=[0.8], y0=[0.0])


@pytest.mark.parametrize("make, paths", [
    (lambda: dataclasses.replace(_model(1, False, False), sigma1=0.5), 8),
    (lambda: _model(2, True, True), 7),          # jumps, matrix sigma, odd count
    (lambda: _model(1, True, False), 3),         # fewer paths than CPUs
    (_cubic_model, 9),                           # diverging paths
], ids=["n1-slow-noise", "n2-jumps-matrix-sigma", "fewer-paths-than-cpus",
        "diverging"])
def test_split_rows_equal_the_rows_of_one_run(forks, make, paths):
    m = make()
    am = build_averaged(m)
    dm = DeviationModel(am.a, 0.5 * np.eye(m.n), 0.25 * np.eye(m.n))

    def rows():
        return (*coupled_error_batch(m, am, 2.0, DT, 17, START, paths),
                limit_marginal_samples(dm, am, 2.0, DT, paths, 17))

    with _unsplit():
        ref = rows()
    assert forks.call_count == 0
    got = rows()
    assert forks.call_count == 2 * (min(4, paths) - 1)
    for r, g in zip(ref, got):
        assert np.array_equal(r, g, equal_nan=True)
    div = ref[2]
    if make is _cubic_model:
        assert div.any() and not div.all()
        assert np.isnan(ref[3][:, 0]).any()
