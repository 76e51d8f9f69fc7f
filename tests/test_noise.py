import numpy as np
import pytest

from slowfast.model import JumpSpec, SizeDist
from slowfast.noise import (rescale_fast, sample_increments, sample_two_sided,
                            substream)

UNIF = JumpSpec(5.0, SizeDist.uniform(-0.5, 0.5))
SKEW = JumpSpec(2.0, SizeDist.uniform(0.1, 0.9))
ATOMS = JumpSpec(3.0, SizeDist.atoms([-0.3, 0.2, 0.6], [0.3, 0.4, 0.3]))


def grid_of(t_end, dt):
    return dt * np.arange(int(round(t_end / dt)) + 1)


def test_zero_noise_stream_is_zero():
    incr = sample_increments(1, grid_of(1.0, 0.1), np.random.default_rng(0))
    # no jump spec: jump part identically zero
    assert np.all(incr.d_jump == 0)
    assert incr.jump_events == []


def test_gaussian_increment_variance():
    # sample variance of N(0, dt) increments, dt = 0.01, 1e5 steps
    incr = sample_increments(1, grid_of(1000.0, 0.01), np.random.default_rng(1))
    var = incr.d_brownian.var()
    se = var * np.sqrt(2.0 / incr.n_steps)
    assert abs(var - 0.01) <= 3 * se


@pytest.mark.parametrize("jump", [UNIF, SKEW, ATOMS])
def test_compensated_jumps_are_mean_zero(jump):
    # ensemble mean of the summed compensated increments over [0, 1]
    rng = np.random.default_rng(2)
    g = grid_of(1.0, 0.01)
    totals = np.array([sample_increments(1, g, rng, jump=jump).d_jump.sum()
                       for _ in range(12000)])
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean()) <= 3 * se


def test_jump_events_recorded_and_binned():
    rng = np.random.default_rng(3)
    incr = sample_increments(1, grid_of(1.0, 0.1), rng, jump=UNIF)
    # events rebuild the uncompensated sums step by step
    raw = incr.d_jump + UNIF.intensity * UNIF.mean_size * incr.dt[:, None]
    rebuilt = np.zeros_like(raw)
    for t, size in incr.jump_events:
        k = min(int(t / 0.1), incr.n_steps - 1)
        rebuilt[k] += size
    assert np.allclose(raw, rebuilt, atol=1e-12)


def test_rescale_fast_matches_plain_at_epsilon_one():
    g = grid_of(1.0, 0.01)
    a = sample_increments(1, g, np.random.default_rng(5), jump=UNIF)
    b = rescale_fast(1, 1.0, g, np.random.default_rng(5), jump=UNIF)
    assert np.array_equal(a.d_brownian, b.d_brownian)
    assert np.array_equal(a.d_jump, b.d_jump)


def test_rescale_fast_variance_scaling():
    # Var(dW) = dt / eps, here 0.001 / 0.01 = 0.1
    g = grid_of(100.0, 0.001)
    incr = rescale_fast(1, 0.01, g, np.random.default_rng(6))
    var = incr.d_brownian.var()
    se = var * np.sqrt(2.0 / incr.n_steps)
    assert abs(var - 0.1) <= 3 * se


def test_rescale_fast_jump_rate_scaling():
    # mean total jump count over [0, 1] at epsilon = 0.1 is lambda/eps = 20
    spec = JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5))
    rng = np.random.default_rng(7)
    g = grid_of(1.0, 0.01)
    counts = np.array([len(rescale_fast(1, 0.1, g, rng, jump=spec).jump_events)
                       for _ in range(3000)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 20.0) <= 3 * se


def test_rescale_requires_positive_epsilon():
    with pytest.raises(ValueError):
        rescale_fast(1, 0.0, grid_of(1.0, 0.1), np.random.default_rng(0))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        sample_increments(1, np.array([]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_increments(1, np.array([0.0, 0.0]), np.random.default_rng(0))


def test_two_sided_increments_span_both_segments():
    path = sample_two_sided(1, 2.0, 1.0, 0.01, np.random.default_rng(8), jump=UNIF)
    incr = path.increments()
    assert incr.shape == (300, 1)
    assert np.array_equal(incr[:200], path.negative.d_brownian + path.negative.d_jump)
    assert np.array_equal(incr[200:], path.positive.d_brownian + path.positive.d_jump)


def test_two_sided_empty_negative_segment():
    path = sample_two_sided(1, 0.0, 1.0, 0.01, np.random.default_rng(9))
    assert path.negative.n_steps == 0
    assert path.positive.n_steps == 100


def test_two_sided_segments_independent():
    # empirical covariance between the summed increments on [-1,0] and [0,1]
    rng = np.random.default_rng(10)
    pairs = np.array([
        [p.negative.total()[0], p.positive.total()[0]]
        for p in (sample_two_sided(1, 1.0, 1.0, 0.05, rng) for _ in range(8000))])
    cov = np.cov(pairs.T)[0, 1]
    se = np.sqrt(pairs[:, 0].var() * pairs[:, 1].var() / len(pairs))
    assert abs(cov) <= 3 * se


def test_negative_horizons_rejected():
    with pytest.raises(ValueError):
        sample_two_sided(1, -1.0, 1.0, 0.1, np.random.default_rng(0))


def test_substream_determinism_and_independence():
    a1 = substream(99, 5, 1).normal(size=8)
    a2 = substream(99, 5, 1).normal(size=8)
    b = substream(99, 5, 2).normal(size=8)
    c = substream(99, 6, 1).normal(size=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_stream_bit_identical_for_fixed_seed():
    g = grid_of(1.0, 0.01)
    one = sample_increments(2, g, substream(1234, 0, 0), jump=ATOMS)
    two = sample_increments(2, g, substream(1234, 0, 0), jump=ATOMS)
    assert np.array_equal(one.d_brownian, two.d_brownian)
    assert np.array_equal(one.d_jump, two.d_jump)
