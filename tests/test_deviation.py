import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import deviation, noise
from slowfast.averaging import (AveragedDrift, AveragedModel, build_averaged,
                                coupled_error_batch, simulate_averaged)
from slowfast.benchmarks import linear_benchmark, tanh_benchmark
from slowfast.deviation import (DeviationModel, _manifold_started_inputs,
                                autocovariance_kernel, build_deviation_model,
                                diffusion_matrix, fbar_derivative,
                                limit_marginal_samples, matrix_sqrt_psd,
                                residual_theta2, simulate_deviation,
                                simulate_truncated_deviation, weak_limit_report)
from slowfast.integrator import (DivergedError, frozen_fast_batch, make_grid,
                                 simulate_slow_fast)
from slowfast.model import DriftFn, JumpSpec, SizeDist, SlowFastModel, parse_drift
from slowfast.noise import ROLE_DEV, ROLE_FAST, ROLE_SLOW, sample_increments, substream

OU_VAR_AT_1 = 0.125 * (1.0 - np.exp(-2.0))     # (Htilde/2a)(1 - e^{-2a})


# -- autocovariance kernel ----------------------------------------------------

def test_kernel_zero_for_y_independent_drift():
    m = linear_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=parse_drift(["x1"], 1), g=m.g,
                      sigma1=0.0, sigma2=1.0, epsilon=m.epsilon, x0=m.x0,
                      y0=m.y0)
    k = autocovariance_kernel(m, [1.0], np.arange(0, 2.01, 0.1), 2.0, 110.0,
                              0.01, np.random.default_rng(0), n_replicas=8)
    assert np.all(k.h == 0.0)


def test_kernel_matches_ou_autocovariance():
    m = linear_benchmark()
    lags = np.arange(0.0, 5.0001, 0.05)
    dt = 0.01
    k = autocovariance_kernel(m, [1.0], lags, 5.0, 505.0, dt,
                              np.random.default_rng(1), n_replicas=16)
    i1 = int(round(1.0 / 0.05))
    # moments of the Euler-stepped OU process y <- (1 - 2 dt) y + dW the
    # estimator samples; they tend to 1/4 and e^{-2}/4 as dt -> 0
    var = 1.0 / (4.0 - 4.0 * dt)
    assert abs(k.h[0, 0, 0] - var) <= 3 * k.stderr[0, 0, 0]
    assert abs(k.h[i1, 0, 0] - var * (1.0 - 2.0 * dt) ** (1.0 / dt)) <= 3 * k.stderr[i1, 0, 0]
    assert k.decayed


def test_kernel_window_precondition():
    m = linear_benchmark()
    with pytest.raises(ValueError, match="window"):
        autocovariance_kernel(m, [1.0], [0.0, 1.0], 1.0, 20.0, 0.01,
                              np.random.default_rng(0))


@pytest.mark.parametrize("burn_in", [-5.0, np.inf, np.nan])
def test_kernel_refuses_a_negative_or_non_finite_burn_in(burn_in):
    # a negative burn-in read the window from the last |burn_in| / dt rows,
    # though the length check passed on horizon - burn_in
    with pytest.raises(ValueError, match="burn_in"):
        autocovariance_kernel(linear_benchmark(), [1.0], [0.0, 1.0], burn_in, 300.0,
                              0.01, np.random.default_rng(0), n_replicas=2)


def test_kernel_refuses_a_lag_off_the_step_grid():
    # 0.05 / 0.7 steps would round every lag to 0; nothing is drawn first
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="whole number of steps"):
        autocovariance_kernel(linear_benchmark(), [1.0], np.arange(0.0, 5.0, 0.05),
                              5.0, 505.0, 0.7, rng)
    assert rng.bit_generator.state == before


def test_kernel_accepts_lags_off_the_grid_by_rounding_error_only():
    # arange's lags carry rounding error; the 1e-9 relative tolerance takes it
    lags = np.arange(0.0, 3.0, 0.05)
    assert not np.array_equal(lags / 0.01, np.round(lags / 0.01))
    k = autocovariance_kernel(linear_benchmark(), [1.0], lags, 1.0, 151.0, 0.01,
                              np.random.default_rng(0), n_replicas=2)
    assert len(k.h) == len(lags)


def test_kernel_refuses_fewer_than_two_replicas():
    # one replica has no spread: its standard errors would be NaN
    with pytest.raises(ValueError, match="n_replicas"):
        autocovariance_kernel(linear_benchmark(), [1.0], [0.0, 0.1], 1.0, 20.0, 0.01,
                              np.random.default_rng(0), n_replicas=1)


def test_kernel_refuses_a_diverged_replica():
    # fast drift +50 blows every replica up: an error, as in estimate_fbar,
    # not a NaN kernel that reads as one not yet decayed
    m = SlowFastModel(a=[[-1.0]], b=[[50.0]], f=DriftFn.linear(fy=[[1.0]]),
                      g=DriftFn.zero(1), sigma2=1.0, x0=[1.0], y0=[0.0])
    with pytest.raises(DivergedError, match="replica diverged"):
        autocovariance_kernel(m, [1.0], np.arange(0.0, 0.51, 0.05), 0.0, 40.0, 0.01,
                              np.random.default_rng(0), n_replicas=2)


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 3))
    last = draw(st.integers(1, 20))
    inner = draw(st.lists(st.integers(1, last), max_size=4))
    lag_steps = sorted({0, last, *inner})
    return n, draw(st.integers(2, 5)), lag_steps, draw(st.integers(0, 2**16))


@settings(max_examples=25, deadline=None)
@given(_kernel_cases())
def test_kernel_matches_per_lag_reference(case):
    n, replicas, lag_steps, seed = case
    rng = np.random.default_rng(seed)
    b = -2.0 * np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n))
    m = SlowFastModel(a=-np.eye(n), b=b,
                      f=DriftFn.saturating(np.ones(n), gy=rng.normal(size=(n, n))),
                      g=DriftFn.zero(n), sigma1=0.0, sigma2=1.0, epsilon=0.1,
                      x0=np.zeros(n), y0=rng.normal(size=n))
    dt, burn_in = 0.01, 0.5
    horizon = burn_in + 0.5 * lag_steps[-1] + 1.0     # over 50 times the last lag
    k = autocovariance_kernel(m, m.x0, dt * np.array(lag_steps), burn_in, horizon, dt,
                              np.random.default_rng(seed), n_replicas=replicas)
    ys = frozen_fast_batch(m, m.x0, m.y0, int(round(horizon / dt)), dt,
                           np.random.default_rng(seed), replicas)[int(round(burn_in / dt)):]
    f_vals = m.f(np.broadcast_to(m.x0, ys.shape), ys)
    centered = f_vals - f_vals.mean(axis=(0, 1))
    t_len = len(centered)
    for i, li in enumerate(lag_steps):
        per_rep = np.zeros((replicas, n, n))
        for p in range(replicas):
            for t in range(t_len - li):
                per_rep[p] += np.outer(centered[t + li, p], centered[t, p])
        per_rep /= t_len - li
        want_h = per_rep.mean(axis=0)
        want_se = 2.0 * per_rep.std(axis=0, ddof=1) / np.sqrt(replicas)  # widened: < 8
        assert np.max(np.abs(k.h[i] - want_h)) <= 1e-12 * np.max(np.abs(want_h))
        assert np.max(np.abs(k.stderr[i] - want_se)) <= 1e-12 * np.max(np.abs(want_se))


def test_kernel_memory_holds_no_extra_window_copy():
    # the levy-tanh benchmark's kernel shape: 24 replicas, n = 2, lags to 3
    m = SlowFastModel(a=-np.eye(2), b=-2.0 * np.eye(2),
                      f=parse_drift(["tanh(y1)", "tanh(y2)"], 2, lip=1.0, growth=1.0),
                      g=parse_drift(["0.2*tanh(x1+y2)", "0.2*tanh(x2-y1)"], 2, lip=0.25,
                                    growth=1.0),
                      sigma1=0.3, sigma2=1.0, epsilon=0.05,
                      jump_fast=JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5)),
                      x0=[0.8, -0.4], y0=[0.4, 0.1])
    lags = np.arange(0.0, 3.0 + 1e-12, 0.05)
    window = 30001 * 24 * 2 * 8                      # T * P * n float64 bytes
    tracemalloc.start()
    try:
        k = autocovariance_kernel(m, m.x0, lags, 3.0, 303.0, 0.01,
                                  np.random.default_rng(0), n_replicas=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(k.lags) == 61
    assert peak <= 3.5 * window


def test_kernel_memory_stays_within_its_path_rows():
    # f is evaluated and centred over the frozen-fast rows themselves, whose
    # noise is streamed in chunks; 6000 window steps are many chunks
    m = SlowFastModel(a=-np.eye(2), b=-2.0 * np.eye(2),
                      f=parse_drift(["tanh(y1)", "tanh(y2)"], 2, lip=1.0, growth=1.0),
                      g=parse_drift(["0.2*tanh(x1+y2)", "0.2*tanh(x2-y1)"], 2, lip=0.25,
                                    growth=1.0),
                      sigma2=1.0, epsilon=0.05,
                      jump_fast=JumpSpec(2.0, SizeDist.uniform(-0.4, 0.2)),
                      x0=[0.8, -0.4], y0=[0.4, 0.1])
    replicas, steps, first = 24, 6100, 100
    assert steps - first >= 8 * noise.CHUNK_STEPS
    rows = (steps + 1) * replicas * m.n * 8          # the recorded paths' bytes
    tracemalloc.start()
    try:
        autocovariance_kernel(m, m.x0, np.arange(0.0, 1.0 + 1e-12, 0.05), first * 0.01,
                              steps * 0.01, 0.01, np.random.default_rng(0),
                              n_replicas=replicas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * rows


def test_diffusion_matrix_zero_kernel():
    m = linear_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=parse_drift(["x1"], 1), g=m.g,
                      sigma1=0.0, sigma2=1.0, epsilon=m.epsilon, x0=m.x0,
                      y0=m.y0)
    k = autocovariance_kernel(m, [1.0], np.arange(0, 2.01, 0.1), 2.0, 110.0,
                              0.01, np.random.default_rng(0), n_replicas=8)
    ht = diffusion_matrix(k)
    assert np.all(ht == 0.0)


def test_diffusion_matrix_ou_value_and_symmetry():
    m = linear_benchmark()
    lags = np.arange(0.0, 5.0001, 0.05)
    k = autocovariance_kernel(m, [1.0], lags, 5.0, 1255.0, 0.01,
                              np.random.default_rng(3), n_replicas=24)
    ht = diffusion_matrix(k)
    assert np.max(np.abs(ht - ht.T)) == 0.0
    assert abs(ht[0, 0] - 0.25) <= 0.05 * 0.25


def test_diffusion_matrix_refuses_undecayed_kernel():
    m = linear_benchmark()
    # lags stop at 0.4 where the autocovariance is still ~0.45 of its peak
    k = autocovariance_kernel(m, [1.0], np.arange(0, 0.41, 0.05), 5.0, 105.0,
                              0.01, np.random.default_rng(4), n_replicas=8)
    assert not k.decayed
    with pytest.raises(ValueError, match="decayed"):
        diffusion_matrix(k)


# -- averaged-drift derivative ------------------------------------------------

def test_fbar_derivative_zero_and_identity():
    m = linear_benchmark()
    am = build_averaged(m)
    assert fbar_derivative(am, [1.0])[0, 0] == 0.0
    ident = AveragedModel(m.a, AveragedDrift(1, "custom", lambda x: x), 0.0,
                          None, m.x0)
    assert fbar_derivative(ident, [2.0])[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_fbar_derivative_quadratic_central_difference():
    m = linear_benchmark()
    quad = AveragedModel(m.a, AveragedDrift(1, "custom", lambda x: x ** 2),
                         0.0, None, m.x0)
    d = fbar_derivative(quad, [3.0])
    assert abs(d[0, 0] - 6.0) < 1e-6


def test_fbar_derivative_rejects_tiny_step():
    # at |x| = 1e9 the difference step FD_STEP is below 1e3 ulps of x
    m = linear_benchmark()
    am = AveragedModel(m.a, AveragedDrift(1, "custom", lambda x: x ** 2),
                       0.0, None, m.x0)
    with pytest.raises(ValueError, match="would cancel"):
        fbar_derivative(am, [1e9])


@pytest.mark.parametrize("n", [1, 2])
def test_fbar_derivative_over_rows_matches_per_row_calls(n, tanh_averaged):
    if n == 1:
        am = tanh_averaged[1]                    # tabulated fbar
    else:
        mix = np.array([[1.0, 0.4], [-0.3, 0.8]])
        am = AveragedModel(-np.eye(2), AveragedDrift(
            2, "custom", lambda x: np.tanh(x @ mix.T) * (1.0 + 0.1 * x)), 0.0,
            None, np.zeros(2))
    rows = np.random.default_rng(n).uniform(-2.5, 2.5, (3, 7, n))
    got = fbar_derivative(am, rows)
    want = np.array([[fbar_derivative(am, r) for r in block] for block in rows])
    assert got.shape == (3, 7, n, n)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # the default Jacobian of build_deviation_model differences all rows at once
    htilde = 0.25 * np.eye(n)
    dm = build_deviation_model(am, htilde)
    got = dm._at(dm._deriv, rows)
    want = np.array([[build_deviation_model(am, htilde, x=r).deriv_const
                      for r in block] for block in rows])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# -- matrix square root -------------------------------------------------------

def test_matrix_sqrt_identity_and_diagonal():
    assert np.allclose(matrix_sqrt_psd(np.eye(2)), np.eye(2))
    s = matrix_sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([2.0, 3.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_matrix_sqrt_reconstructs_random_spd(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    spd = a @ a.T + 0.1 * np.eye(3)
    s = matrix_sqrt_psd(spd)
    assert np.max(np.abs(s - s.T)) < 1e-12
    assert np.max(np.abs(s @ s.T - spd)) < 1e-10


def test_matrix_sqrt_clips_tiny_negatives():
    s = matrix_sqrt_psd(np.array([[1.0, 0.0], [0.0, -5e-11]]))
    assert s[1, 1] == 0.0


def test_matrix_sqrt_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        matrix_sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="eigenvalue"):
        matrix_sqrt_psd(np.array([[-1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_sqrt_rejects_non_finite_entries(bad):
    # the symmetry and eigenvalue checks compare with NaN and pass it; every
    # form of the limit model's diffusion matrix reaches the square root
    htilde = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="non-finite"):
        matrix_sqrt_psd(htilde)
    with pytest.raises(ValueError, match="non-finite"):
        DeviationModel(-np.eye(2), np.zeros((2, 2)), htilde)
    with pytest.raises(ValueError, match="non-finite"):
        build_deviation_model(build_averaged(linear_benchmark()), [[bad]])
    dm = DeviationModel(-np.eye(2), np.zeros((2, 2)), lambda x: htilde)
    with pytest.raises(ValueError, match="non-finite"):
        dm.noise(np.ones(2), np.zeros(2))


# -- limit SDE ----------------------------------------------------------------

def averaged_and_deviation(htilde=0.25):
    m = linear_benchmark()
    am = build_averaged(m)
    dm = build_deviation_model(am, np.array([[htilde]]))
    return m, am, dm


def x_path_for(am, t_end, dt, seed=0):
    grid = make_grid(t_end, dt)
    incr = sample_increments(1, grid, np.random.default_rng(seed))
    return simulate_averaged(am, t_end, dt, incr)


def test_deviation_zero_coefficients_stay_zero():
    m, am, _ = averaged_and_deviation()
    dm = DeviationModel(m.a, np.zeros((1, 1)), np.zeros((1, 1)))
    xp = x_path_for(am, 1.0, 1e-3)
    traj = simulate_deviation(dm, xp, 1.0, 1e-3, np.random.default_rng(1))
    assert np.all(traj.states == 0.0)


def test_deviation_variance_at_one():
    _, am, dm = averaged_and_deviation()
    finals = limit_marginal_samples(dm, am, 1.0, 1e-3, 2500, 2)[:, 0]
    var = finals.var(ddof=1)
    se = var * np.sqrt(2.0 / len(finals))
    assert abs(var - OU_VAR_AT_1) <= 3 * se


def test_deviation_stationary_variance():
    # the same SDE marginal, long horizon
    _, am, dm = averaged_and_deviation()
    finals = limit_marginal_samples(dm, am, 5.0, 2e-3, 4000, 303)[:, 0]
    var = finals.var(ddof=1)
    se = var * np.sqrt(2.0 / len(finals))
    assert abs(var - 0.125) <= 3 * se


def _carrier(am, t_end, dt, master_seed, i):
    """Path i's averaged carrier as limit_marginal_samples realizes it."""
    rng = substream(master_seed, i, ROLE_SLOW)
    incr = sample_increments(am.n, make_grid(t_end, dt), rng, jump=am.jump_slow)
    return simulate_averaged(am, t_end, dt, incr)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 2), callable_jac=st.booleans(), slow=st.booleans(),
       paths=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_limit_samples_match_single_path_runs(n, callable_jac, slow, paths, seed):
    a = -np.eye(n) + 0.2 * np.eye(n, k=1)
    am = AveragedModel(a, AveragedDrift(n, "tanh", np.tanh), 0.3 if slow else 0.0,
                       None, np.linspace(0.8, -0.4, n))
    jac = ((lambda x: np.diag(1.0 - np.tanh(x) ** 2)) if callable_jac
           else 0.5 * np.eye(n))
    htilde = 0.25 * np.eye(n) + 0.05 * (np.ones((n, n)) - np.eye(n))
    dm = DeviationModel(a, jac, htilde)
    t_end, dt = 0.3, 0.01
    samples = limit_marginal_samples(dm, am, t_end, dt, paths, seed)
    for i in range(paths):
        theta = simulate_deviation(dm, _carrier(am, t_end, dt, seed, i), t_end, dt,
                                   substream(seed, i, ROLE_DEV)).states[-1]
        if n == 1:
            assert np.array_equal(samples[i], theta)
        else:
            np.testing.assert_allclose(samples[i], theta, rtol=1e-12, atol=1e-14)


def _quiet(n):
    """A tanh model without slow noise, with fast jumps, and its tabulated
    averaged model: a coupled batch steps one carrier for all its paths."""
    f = parse_drift(["tanh(y1)", "tanh(y2)"][:n], n, lip=1.0, growth=1.0)
    g = parse_drift(["0.2*tanh(x1+y2)", "0.2*tanh(x2-y1)"][:n] if n == 2
                    else ["0.25*tanh(x1)"], n, lip=0.25, growth=1.0)
    m = SlowFastModel(a=(-np.eye(n) + 0.2 * np.eye(n, k=1)).tolist(),
                      b=(-2.0 * np.eye(n) + 0.3 * np.eye(n, k=1)).tolist(), f=f, g=g,
                      sigma1=0.0, sigma2=1.0, epsilon=0.05,
                      x0=[0.8, -0.4][:n], y0=[0.4, 0.1][:n],
                      jump_fast=JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5)))
    am = build_averaged(m, table_axes=[np.linspace(-1.0, 1.0, 3)] * n,
                        rng=np.random.default_rng(4), horizon=6.0)
    return m, am


def _same(got, want, n):
    """Bit for bit at n = 1, within the n = 2 parity bound otherwise."""
    if n == 1:
        return np.array_equal(got, want, equal_nan=True)
    return np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, 2])
def test_shared_carrier_rows_match_single_path_runs(n):
    m, am = _quiet(n)
    t_end, dt, seed, start, count = 0.3, 0.005, 13, 2, 4
    sup, diff, div = coupled_error_batch(m, am, t_end, dt, seed, start, count)
    no_sup, diff_off, div_off = coupled_error_batch(m, am, t_end, dt, seed, start,
                                                    count, _sup=False)
    assert np.all(np.isnan(no_sup)) and not div.any() and not div_off.any()
    grid = make_grid(t_end, dt)
    for i in range(count):
        k = start + i
        slow = sample_increments(n, grid, substream(seed, k, ROLE_SLOW))
        fast = sample_increments(n, grid, substream(seed, k, ROLE_FAST),
                                 jump=m.jump_fast, speed=1.0 / m.epsilon)
        x, _ = simulate_slow_fast(m, t_end, dt, slow_incr=slow, fast_incr=fast)
        xa = simulate_averaged(am, t_end, dt, slow)
        gap = np.max(np.sum((x.states - xa.states) ** 2, axis=-1))
        assert _same(sup[i], gap, n)
        for got in (diff[i], diff_off[i]):
            assert _same(got, x.states[-1] - xa.states[-1], n)

    htilde = 0.25 * np.eye(n) + 0.05 * (np.ones((n, n)) - np.eye(n))
    # a constant Jacobian, and one taken along the carrier
    for dm in (build_deviation_model(am, htilde, x=m.x0),
               build_deviation_model(am, htilde)):
        samples = limit_marginal_samples(dm, am, t_end, 0.01, count, seed)
        for i in range(count):
            theta = simulate_deviation(dm, _carrier(am, t_end, 0.01, seed, i), t_end,
                                       0.01, substream(seed, i, ROLE_DEV))
            assert _same(samples[i], theta.states[-1], n)


def test_diverged_shared_carrier_flags_every_path():
    # the averaged equation blows up while every coupled path stays finite
    m, am = _quiet(1)
    up = AveragedModel(np.array([[50.0]]), am.fbar, 0.0, None, am.x0)
    sup, diff, div = coupled_error_batch(m, up, 16.0, 0.005, 13, 0, 4)
    assert div.all() and np.all(np.isnan(sup)) and np.all(np.isnan(diff))
    assert not coupled_error_batch(m, am, 16.0, 0.005, 13, 0, 4)[2].any()


# -- truncated fluctuation ------------------------------------------------------

@pytest.fixture(scope="module")
def tanh_averaged():
    m = tanh_benchmark()
    am = build_averaged(m, table_axes=[np.linspace(-2, 2, 5)],
                        rng=np.random.default_rng(0), horizon=30.0)
    return m, am


def test_truncation_radius_validation(tanh_averaged):
    m, am = tanh_averaged
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="truncation radius"):
            simulate_truncated_deviation(m, am, 0.1, radius, 1.0, 0.005, 99)


def test_truncated_infinite_radius_matches_ungated(tanh_averaged):
    # inf never gates: the run equals one whose gate stays open on every step
    m, am = tanh_averaged
    a, aux = simulate_truncated_deviation(m, am, 0.1, np.inf, 1.0, 0.005, 99,
                                          return_drive=True)
    b = simulate_truncated_deviation(m, am, 0.1, 1e300, 1.0, 0.005, 99)
    assert np.all(aux["gate"] == 1.0)
    assert np.array_equal(a.states, b.states)


def test_truncated_gate_replay_is_bit_identical(tanh_averaged):
    m, am = tanh_averaged
    radius = 0.02
    traj, aux = simulate_truncated_deviation(m, am, 0.1, radius, 1.0, 0.005,
                                             7, return_drive=True)
    # brute-force gate replay from the recorded drive
    theta = np.zeros(1)
    replay = [theta.copy()]
    for k in range(len(aux["drive"])):
        q = 1.0 if np.linalg.norm(theta) <= radius else 0.0
        assert q == aux["gate"][k]
        theta = theta + (theta @ m.a.T + q * aux["drive"][k]) * 0.005
        replay.append(theta.copy())
    assert np.array_equal(traj.states, np.array(replay))


def test_truncated_exceedance_probability_decreases_in_radius(tanh_averaged):
    m, am = tanh_averaged
    radii = [0.05, 0.1, 0.2]
    exceed = []
    for radius in radii:
        hits = 0
        for i in range(40):
            traj = simulate_truncated_deviation(m, am, 0.1, radius, 0.5,
                                                0.005, 1000, path_index=i)
            hits += float(np.max(np.abs(traj.states)) >= radius)
        exceed.append(hits / 40.0)
    assert exceed[0] >= exceed[1] >= exceed[2]


# -- residual ----------------------------------------------------------------

def test_batched_burn_in_rows_equal_single_path_burn_ins():
    m = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=parse_drift(["tanh(y1)"], 1),
                      g=parse_drift(["0.25*tanh(x1 + y1)"], 1, lip=0.25),
                      sigma1=0.3, sigma2=1.0, epsilon=0.05, x0=[0.8], y0=[0.4],
                      jump_slow=JumpSpec(1.0, SizeDist.uniform(-0.3, 0.3)),
                      jump_fast=JumpSpec(4.0, SizeDist.uniform(-0.5, 0.5)))
    grid, d_fast, d_slow, y_h0 = _manifold_started_inputs(m, 0.2, 0.005, 7, 2, 5)
    assert len(set(y_h0[:, 0])) == 5
    singles = [_manifold_started_inputs(m, 0.2, 0.005, 7, 2 + i, 1) for i in range(5)]
    for i, (g1, _, _, y1) in enumerate(singles):
        assert np.array_equal(g1, grid)
        assert np.array_equal(y1[0], y_h0[i])
    # the streamed increments, read in step order side by side
    for k in range(len(grid) - 1):
        for col, batch in ((1, d_fast), (2, d_slow)):
            assert np.array_equal(batch[k], np.concatenate([s[col][k] for s in singles]))


def test_residual_zero_for_constant_f():
    m = tanh_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=DriftFn.constant([0.3]), g=m.g,
                      sigma1=0.0, sigma2=1.0, epsilon=0.1, x0=m.x0, y0=m.y0)
    rep = residual_theta2(m, 0.1, 1.0, 0.005, 60, 11)
    assert rep.mean_sup_sq == 0.0


def test_residual_zero_when_started_on_manifold():
    m = tanh_benchmark()
    rep = residual_theta2(m, 0.1, 1.0, 0.005, 60, 12, y_on_manifold=True)
    assert rep.mean_sup_sq == 0.0


def test_residual_decreases_with_epsilon():
    m = tanh_benchmark()
    r1 = residual_theta2(m, 0.1, 1.0, 0.005, 300, 13)
    r2 = residual_theta2(m, 0.05, 1.0, 0.0025, 300, 13)
    assert r2.mean_sup_sq <= r1.mean_sup_sq + 2 * np.hypot(r1.stderr, r2.stderr)


# -- weak limit at reduced scale ----------------------------------------------

def test_weak_limit_report_small_scale():
    m = linear_benchmark(epsilon=1e-2)
    am = build_averaged(m)
    dm = build_deviation_model(am, np.array([[0.25]]))
    rep = weak_limit_report(m, am, dm, 1.0, 1e-3, 2000, 515)
    assert rep.passed
    assert abs(rep.theta_mean[0]) <= 3 * rep.theta_mean_se[0]
    assert abs(rep.theta_var[0] - OU_VAR_AT_1) <= 3 * rep.theta_var_se[0]


@pytest.mark.parametrize("side", ["eps", "limit"])
def test_weak_limit_report_leaves_out_and_counts_diverged_paths(side):
    m = linear_benchmark(epsilon=1e-2)
    am = build_averaged(m)
    dm = build_deviation_model(am, np.array([[0.25]]))
    args = (m, am, dm, 1.0, 1e-3, 400, 515)
    clean = weak_limit_report(*args)
    assert clean.passed and clean.diverged_eps == clean.diverged_limit == 0
    # two rows of one side NaN, as diverged paths are
    name = "coupled_error_batch" if side == "eps" else "limit_marginal_samples"
    real = getattr(deviation, name)

    def with_diverged_rows(*a, **k):
        out = real(*a, **k)
        (out[1] if side == "eps" else out)[[0, 5]] = np.nan
        return out

    with mock.patch.object(deviation, name, with_diverged_rows):
        rep = weak_limit_report(*args)
    counts = (2, 0) if side == "eps" else (0, 2)
    assert (rep.diverged_eps, rep.diverged_limit) == counts
    assert not rep.passed
    for field in ("mean_diff", "var_diff", "cdf_distance", "theta_mean", "theta_var"):
        assert np.isfinite(getattr(rep, field)).all()


def _slow_up():
    """Slow drift A = +50: every path of either side blows up."""
    m = SlowFastModel(a=[[50.0]], b=[[-2.0]], f=DriftFn.zero(1), g=DriftFn.zero(1),
                      sigma2=1.0, epsilon=1.0, x0=[1.0], y0=[1.0])
    return m, DeviationModel(m.a, np.zeros((1, 1)), np.eye(1)), 40.0, 0.1, 3


def _limit_up():
    """A stable coupled system whose limit SDE has drift +50."""
    return (linear_benchmark(epsilon=1e-2), DeviationModel([[50.0]], 0, 0.25), 20.0,
            1e-3, 50)


@pytest.mark.parametrize("probe, match", [
    (_slow_up, "3 of 3 coupled paths and 3 of 3 limit paths"),
    (_limit_up, "0 of 50 coupled paths and 50 of 50 limit paths"),
], ids=["slow_up", "limit_up"])
def test_weak_limit_report_refuses_fewer_than_two_finite_samples(probe, match):
    m, dm, t_end, dt, paths = probe()
    with pytest.raises(DivergedError, match=match):
        weak_limit_report(m, build_averaged(m), dm, t_end, dt, paths, 5)


def test_kernel_csv_export(tmp_path, capsys):
    # the kernel and limit-model reports as `slowfast deviate` writes them
    import json
    from slowfast.cli import main
    cfg = {"model": {"a": [[-1.0]], "b": [[-2.0]], "f": {"kind": "linear", "fy": [[1.0]]},
                     "g": {"kind": "zero"}, "sigma2": 1.0, "epsilon": 1e-3,
                     "x0": [1.0], "y0": [0.0]},
           "deviate": {"s_max": 2.0, "lag_step": 0.25, "burn_in": 2.0, "horizon": 110.0,
                       "n_replicas": 8, "t_end": 0.1, "dt_theta": 0.01}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["deviate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["a", "fbar_deriv", "htilde"]
    (kernel_csv,) = tmp_path.glob("*-kernel.csv")
    lines = kernel_csv.read_text().strip().split("\n")
    assert lines[0] == "s,H_11,stderr_11"
    assert len(lines) == len(np.arange(0, 2.01, 0.25)) + 1
    (theta_csv,) = tmp_path.glob("*-theta.csv")
    assert theta_csv.read_text().startswith("t,theta1\n")


def test_kernel_symmetry_two_dimensional():
    f2 = DriftFn.linear(fy=np.eye(2), n=2)
    m2 = SlowFastModel(a=-np.eye(2), b=np.diag([-2.0, -3.0]), f=f2,
                       g=DriftFn.zero(2), sigma1=0.0, sigma2=1.0,
                       epsilon=0.01, x0=[1.0, 0.0], y0=[0.0, 0.0])
    lags = np.arange(0.0, 4.001, 0.1)
    k = autocovariance_kernel(m2, [1.0, 0.0], lags, 4.0, 304.0, 0.01,
                              np.random.default_rng(8), n_replicas=12)
    asym = abs(k.h[0, 0, 1] - k.h[0, 1, 0])
    se = 3.0 * float(np.hypot(k.stderr[0, 0, 1], k.stderr[0, 1, 0]))
    assert asym <= se
    # independent coordinates: stationary variances sigma^2/(2 b_i)
    assert abs(k.h[0, 0, 0] - 0.25) <= 3 * k.stderr[0, 0, 0]
    assert abs(k.h[0, 1, 1] - 1.0 / 6.0) <= 3 * k.stderr[0, 1, 1]
    ht = diffusion_matrix(k)
    assert np.max(np.abs(ht - ht.T)) == 0.0


def test_diffusion_matrix_invariant_to_smax_doubling():
    from dataclasses import replace
    m = linear_benchmark()
    lags = np.arange(0.0, 10.0001, 0.05)
    k10 = autocovariance_kernel(m, [1.0], lags, 5.0, 1005.0, 0.01,
                                np.random.default_rng(9), n_replicas=24)
    half = int(round(5.0 / 0.05)) + 1
    k5 = replace(k10, lags=k10.lags[:half], h=k10.h[:half],
                 stderr=k10.stderr[:half], s_max=5.0)
    h5 = diffusion_matrix(k5)[0, 0]
    h10 = diffusion_matrix(k10)[0, 0]
    assert abs(h10 - h5) <= 0.05 * abs(h5)


def test_deviation_requires_carrier_coverage():
    _, am, dm = averaged_and_deviation()
    short = x_path_for(am, 0.5, 1e-3)
    with pytest.raises(ValueError, match="cover"):
        simulate_deviation(dm, short, 1.0, 1e-3, np.random.default_rng(0))


def test_limit_sampler_with_slow_noise_per_path():
    m = linear_benchmark(epsilon=1e-2)
    m = SlowFastModel(a=m.a, b=m.b, f=m.f, g=m.g, sigma1=0.3, sigma2=1.0,
                      epsilon=m.epsilon, x0=m.x0, y0=m.y0)
    am = build_averaged(m)
    dm = build_deviation_model(am, np.array([[0.25]]))
    samples = limit_marginal_samples(dm, am, 1.0, 5e-3, 60, 42)
    assert samples.shape == (60, 1)
    assert np.all(np.isfinite(samples))
    # the limit coefficients ignore the carrier path here, so the marginal
    # law is unchanged; a loose moment sanity check suffices
    assert abs(samples.mean()) < 0.2
