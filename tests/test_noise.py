import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.averaging import build_averaged, estimate_fbar, mixing_diagnostic
from slowfast.benchmarks import linear_benchmark
from slowfast.deviation import (DeviationModel, autocovariance_kernel,
                                simulate_deviation)
from slowfast.integrator import Trajectory, frozen_fast_batch, make_grid
from slowfast.manifold import sample_stationary_paths, tracking_check
import slowfast.manifold as manifold
from slowfast.model import DriftFn, JumpSpec, SizeDist, SlowFastModel
from slowfast.noise import _path_increments, _substreams, sample_increments, substream

UNIF = JumpSpec(5.0, SizeDist.uniform(-0.5, 0.5))
SKEW = JumpSpec(2.0, SizeDist.uniform(0.1, 0.9))
ATOMS = JumpSpec(3.0, SizeDist.atoms([-0.3, 0.2, 0.6], [0.3, 0.4, 0.3]))


def grid_of(t_end, dt):
    return dt * np.arange(int(round(t_end / dt)) + 1)


def test_zero_noise_stream_is_zero():
    incr = sample_increments(1, grid_of(1.0, 0.1), np.random.default_rng(0))
    # no jump spec: jump part identically zero
    assert np.all(incr.d_jump == 0)
    assert len(incr.jump_events) == 0


def test_gaussian_increment_variance():
    # sample variance of N(0, dt) increments, dt = 0.01, 1e5 steps
    incr = sample_increments(1, grid_of(1000.0, 0.01), np.random.default_rng(1))
    var = incr.d_brownian.var()
    se = var * np.sqrt(2.0 / len(incr.d_brownian))
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
    raw = incr.d_jump + UNIF.intensity * UNIF.mean_size * np.diff(incr.grid)[:, None]
    rebuilt = np.zeros_like(raw)
    for t, size in incr.jump_events:
        k = min(int(t / 0.1), len(raw) - 1)
        rebuilt[k] += size
    assert np.allclose(raw, rebuilt, atol=1e-12)


def test_speed_scales_brownian_variance():
    # Var(dW) = speed * dt, here 0.001 / 0.01 = 0.1
    g = grid_of(100.0, 0.001)
    incr = sample_increments(1, g, np.random.default_rng(6), speed=1.0 / 0.01)
    var = incr.d_brownian.var()
    se = var * np.sqrt(2.0 / len(incr.d_brownian))
    assert abs(var - 0.1) <= 3 * se


def test_speed_scales_jump_rate():
    # mean total jump count over [0, 1] at speed 10 is 10 lambda = 20
    spec = JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5))
    rng = np.random.default_rng(7)
    g = grid_of(1.0, 0.01)
    counts = np.array([len(sample_increments(1, g, rng, jump=spec,
                                             speed=1.0 / 0.1).jump_events)
                       for _ in range(3000)])
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 20.0) <= 3 * se


def test_negative_speed_is_refused():
    g = grid_of(1.0, 0.1)
    with pytest.raises(ValueError, match="speed"):
        sample_increments(1, g, np.random.default_rng(0), speed=-1.0)
    with pytest.raises(ValueError, match="speed"):
        _path_increments(1, g, [np.random.default_rng(i) for i in range(2)], speed=-1.0)
    # speed 0, the slow noise of the epsilon = 0 manifold solve, draws none
    incr = sample_increments(1, g, np.random.default_rng(0), jump=UNIF, speed=0.0)
    assert np.all(incr.d_brownian == 0.0) and np.all(incr.d_jump == 0.0)
    assert np.all(_path_increments(1, g, [np.random.default_rng(i) for i in range(2)],
                                   jump=UNIF, speed=0.0)[0] == 0.0)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        sample_increments(1, np.array([]), np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_increments(1, np.array([0.0, 0.0]), np.random.default_rng(0))


def _fast_noise_model(jump=None):
    return SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=DriftFn.zero(1), g=DriftFn.zero(1),
                         sigma1=0.0, sigma2=1.0, jump_fast=jump, epsilon=0.1,
                         x0=[0.0], y0=[0.0])


def _record_draws(monkeypatch):
    """The streams ``sample_stationary_paths`` draws, and the increments its
    convolutions read, in call order."""
    drawn, fed = [], []
    draw, convolve = manifold.sample_increments, manifold._convolve_path
    monkeypatch.setattr(manifold, "sample_increments",
                        lambda *a, **k: drawn.append(draw(*a, **k)) or drawn[-1])
    monkeypatch.setattr(manifold, "_convolve_path",
                        lambda k, dt, incr, s: fed.append(incr) or convolve(k, dt, incr, s))
    return drawn, fed


def test_two_sided_increments_span_both_segments(monkeypatch):
    drawn, fed = _record_draws(monkeypatch)
    sample_stationary_paths(_fast_noise_model(UNIF), 0.1, 2.0, 1.0, 0.01,
                            np.random.default_rng(8))
    (neg, pos), (incr,) = drawn, fed
    # both segments are anchored at time 0
    assert neg.grid[0] == -2.0 and neg.grid[-1] == 0.0 == pos.grid[0]
    assert incr.shape == (300, 1)
    assert np.array_equal(incr[:200], neg.d_brownian + neg.d_jump)
    assert np.array_equal(incr[200:], pos.d_brownian + pos.d_jump)


def test_two_sided_empty_negative_segment(monkeypatch):
    drawn, _ = _record_draws(monkeypatch)
    paths = sample_stationary_paths(_fast_noise_model(), 0.1, 0.0, 1.0, 0.01,
                                    np.random.default_rng(9))
    neg, pos = drawn
    assert len(neg.d_brownian) == 0 and np.array_equal(neg.grid, [0.0])
    assert len(pos.d_brownian) == 100
    assert paths.index0 == 0 and paths.xi[0, 0] == 0.0


def test_two_sided_segments_independent(monkeypatch):
    # empirical covariance between the summed increments on [-1,0] and [0,1]
    # (no jumps, so the Brownian parts)
    drawn, _ = _record_draws(monkeypatch)
    rng, m = np.random.default_rng(10), _fast_noise_model()
    for _ in range(8000):
        sample_stationary_paths(m, 0.1, 1.0, 1.0, 0.05, rng)
    pairs = np.array([[neg.d_brownian.sum(), pos.d_brownian.sum()]
                      for neg, pos in zip(drawn[::2], drawn[1::2])])
    cov = np.cov(pairs.T)[0, 1]
    se = np.sqrt(pairs[:, 0].var() * pairs[:, 1].var() / len(pairs))
    assert abs(cov) <= 3 * se


def test_negative_horizons_rejected():
    for t_neg, t_pos in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="horizons must be nonnegative"):
            sample_stationary_paths(_fast_noise_model(), 0.1, t_neg, t_pos, 0.1,
                                    np.random.default_rng(0))


def test_substream_determinism_and_independence():
    a1 = substream(99, 5, 1).normal(size=8)
    a2 = substream(99, 5, 1).normal(size=8)
    b = substream(99, 5, 2).normal(size=8)
    c = substream(99, 6, 1).normal(size=8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


@settings(max_examples=80, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 4, 2**64 + 4),
                      st.integers(0, 2**200)),
       start=st.one_of(st.integers(0, 40), st.integers(2**32 - 5, 2**32 + 5)),
       count=st.integers(0, 9), role=st.integers(0, 10))
def test_substreams_match_substream_draw_for_draw(seed, start, count, role):
    # seeds of one to seven words, and runs of indices that cross 2**32,
    # where an index takes a second key word
    gens = _substreams(seed, start, count, role)
    assert len(gens) == count
    for i, gen in enumerate(gens):
        ref = substream(seed, start + i, role)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
        assert np.array_equal(gen.uniform(size=3), ref.uniform(size=3))


def test_substreams_refuse_a_negative_seed_as_substream_does():
    with pytest.raises(ValueError) as want:
        substream(-1, 0, 0)
    for count in (0, 3):
        with pytest.raises(ValueError) as got:
            _substreams(-1, 0, count, 0)
        assert str(got.value) == str(want.value)


def test_stream_bit_identical_for_fixed_seed():
    g = grid_of(1.0, 0.01)
    one = sample_increments(2, g, substream(1234, 0, 0), jump=ATOMS)
    two = sample_increments(2, g, substream(1234, 0, 0), jump=ATOMS)
    assert np.array_equal(one.d_brownian, two.d_brownian)
    assert np.array_equal(one.d_jump, two.d_jump)



# every public sampler that draws from a generator it is given
_LIN = linear_benchmark(epsilon=0.1)
_AM = build_averaged(_LIN)
_GRID = make_grid(1.0, 0.1)
NO_RNG = {
    "estimate_fbar": lambda: estimate_fbar(_LIN, [1.0], horizon=20.0, rng=None),
    "mixing_diagnostic":
        lambda: mixing_diagnostic(_LIN, [1.0], [[2.0]], 1.0, 0.01, 100, None),
    "autocovariance_kernel":
        lambda: autocovariance_kernel(_LIN, [1.0], [0.0, 0.1], 1.0, 10.0, 0.01, None),
    "frozen_fast_batch": lambda: frozen_fast_batch(_LIN, [1.0], [0.0], 10, 0.01, None, 2),
    "simulate_deviation":
        lambda: simulate_deviation(DeviationModel(_AM.a, 0.0, 1.0),
                                   Trajectory(_GRID, np.zeros((len(_GRID), 1))),
                                   1.0, 0.1, None),
    "sample_stationary_paths":
        lambda: sample_stationary_paths(_LIN, 0.1, 5.0, 0.0, 0.01, None),
    "tracking_check":
        lambda: tracking_check(_LIN, 0.1, ([0.5], [0.3]), ([0.5], [0.9]), 1.0, 0.01,
                               None),
}


@pytest.mark.parametrize("name", sorted(NO_RNG))
def test_missing_generator_is_a_clear_error(name):
    with pytest.raises(ValueError, match="an rng is required"):
        NO_RNG[name]()
