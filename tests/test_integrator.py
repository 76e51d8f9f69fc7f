import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from slowfast.averaging import (build_averaged, coupled_error_batch,
                                simulate_auxiliary, simulate_averaged)
from slowfast.benchmarks import linear_benchmark
from slowfast.deviation import (DeviationModel, limit_marginal_samples,
                                residual_theta2, simulate_corrected,
                                simulate_deviation,
                                simulate_truncated_deviation)
from slowfast.integrator import (Trajectory, _euler, frozen_fast_batch,
                                 make_grid, simulate_frozen_fast,
                                 simulate_slow_fast)
from slowfast.manifold import tracking_check
from slowfast.model import DriftFn, SlowFastModel
from slowfast.noise import sample_increments


def model(a=-1.0, b=-2.0, f=None, g=None, sigma1=0.0, sigma2=0.0, eps=1.0,
          x0=1.0, y0=1.0):
    return SlowFastModel(a=[[a]], b=[[b]], f=f or DriftFn.zero(1),
                         g=g or DriftFn.zero(1), sigma1=sigma1, sigma2=sigma2,
                         epsilon=eps, x0=[x0], y0=[y0])


# -- the Euler kernel ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), paths=st.integers(1, 4), matrix_sigma=st.booleans(),
       steps=st.integers(0, 25), seed=st.integers(0, 2 ** 32 - 1))
def test_euler_kernel_matches_reference_loop(n, paths, matrix_sigma, steps, seed):
    rng = np.random.default_rng(seed)
    a = -np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = -2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    s1 = 0.3 * rng.standard_normal((n, n)) if matrix_sigma else 0.3
    s2 = rng.standard_normal((n, n)) if matrix_sigma else 1.0
    x0, y0 = rng.standard_normal((2, paths, n))
    dx, dy = 0.1 * rng.standard_normal((2, steps, paths, n))
    dt, h_fast = 0.01, 0.1

    def amp(sigma, d):
        return sigma * d if np.ndim(sigma) == 0 else d @ sigma.T

    def drift(k, s):
        x, y = s
        return x @ a.T + np.tanh(y), y @ b.T + 0.25 * np.sin(x)

    def gap(s):
        return np.sum((s[0] - s[1]) ** 2, axis=-1)

    # one noise term as (sigma, increments), one as a function of the step
    run = _euler((x0, y0), drift, (dt, h_fast),
                 ((s1, dx), lambda k, s: amp(s2, dy[k])), steps, sup=gap, path=True)

    x, y = x0, y0
    xs, ys, best = [x], [y], gap((x, y))
    for k in range(steps):
        x, y = (x + (x @ a.T + np.tanh(y)) * dt + amp(s1, dx[k]),
                y + (y @ b.T + 0.25 * np.sin(x)) * h_fast + amp(s2, dy[k]))
        xs.append(x)
        ys.append(y)
        best = np.maximum(best, gap((x, y)))
    assert np.array_equal(run.path[0], np.array(xs))
    assert np.array_equal(run.path[1], np.array(ys))
    assert np.array_equal(run.state[0], x) and np.array_equal(run.state[1], y)
    assert np.array_equal(run.sup, best)
    assert not run.diverged.any() and np.all(run.diverged_at == -1)


def test_euler_divergence_conventions():
    # y blows up on path 0 only; x = int tanh(y) stays finite on every path,
    # so only the check of every component finds the diverged path
    y0 = np.array([[1.0], [0.0], [1e-200]])

    def drift(k, s):
        return np.tanh(s[1]), 50.0 * s[1]

    run = _euler((np.zeros((3, 1)), y0), drift, (0.1, 0.1), (None, None), 400,
                 sup=lambda s: np.abs(s[0][:, 0]), path=True)
    x, y = np.zeros((3, 1)), y0
    raw = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(400):
            x, y = x + np.tanh(y) * 0.1, y + 50.0 * y * 0.1
            raw.append(y)
    raw = np.array(raw)
    first = int(np.argmax(~np.isfinite(raw[:, 0, 0])))
    assert np.isfinite(x).all() and not np.isfinite(y[0]).all()
    assert list(run.diverged) == [True, False, False]
    assert list(run.diverged_at) == [first, -1, -1]
    assert np.isnan(run.state[0][0]).all() and np.isnan(run.state[1][0]).all()
    assert np.isnan(run.sup[0]) and np.isfinite(run.sup[1:]).all()
    assert np.array_equal(run.path[1][:first + 1, 0], raw[:first + 1, 0])
    assert np.isnan(run.path[0][first + 1:, 0]).all()
    assert np.isnan(run.path[1][first + 1:, 0]).all()
    assert np.array_equal(run.path[1][:, 1:], raw[:, 1:])


# one blow-up model per equation: the slow drift A = +50, or the fast B = +50
SLOW_UP = model(a=50.0, sigma2=1.0)
FAST_UP = model(b=50.0, sigma2=1.0)
GRID = make_grid(40.0, 0.1)


def _rng():
    return np.random.default_rng(3)


def _up_averaged():
    return build_averaged(SLOW_UP)


def _up_deviation():
    return DeviationModel(SLOW_UP.a, np.zeros((1, 1)), np.eye(1))


BLOWUPS = {
    "simulate_slow_fast":
        lambda: simulate_slow_fast(SLOW_UP, 40.0, 0.1, _rng())[0].diverged,
    "simulate_frozen_fast":
        lambda: simulate_frozen_fast(FAST_UP, [0.0], [1.0], 40.0, 0.1, _rng()).diverged,
    "frozen_fast_batch":
        lambda: not np.isfinite(frozen_fast_batch(FAST_UP, [0.0], [1.0], 400, 0.1,
                                                  _rng(), 3)[-1]).any(),
    "simulate_averaged":
        lambda: simulate_averaged(_up_averaged(), 40.0, 0.1,
                                  sample_increments(1, GRID, _rng())).diverged,
    "simulate_auxiliary":
        lambda: all(t.diverged for t in simulate_auxiliary(SLOW_UP, 10.0, 40.0, 0.1,
                                                           _rng(), return_true=True)),
    "coupled_error_batch":
        lambda: coupled_error_batch(SLOW_UP, _up_averaged(), 40.0, 0.1, 5, 0, 3)[2].all(),
    "simulate_deviation":
        lambda: simulate_deviation(_up_deviation(),
                                   Trajectory(GRID, np.zeros((len(GRID), 1))),
                                   40.0, 0.1, _rng()).diverged,
    "residual_theta2":
        lambda: pytest.raises(RuntimeError, residual_theta2, SLOW_UP, 1.0, 40.0,
                              0.1, 3, 5) is not None,
    "simulate_truncated_deviation":
        lambda: simulate_truncated_deviation(SLOW_UP, _up_averaged(), 1.0, None,
                                             40.0, 0.1, 5).diverged,
    "simulate_corrected":
        lambda: simulate_corrected(_up_averaged(), _up_deviation(), 0.5, 40.0, 0.1,
                                   _rng()).diverged,
    "limit_marginal_samples":
        lambda: not np.isfinite(limit_marginal_samples(_up_deviation(), _up_averaged(),
                                                       40.0, 0.1, 3, 5)).any(),
    "tracking_check":
        lambda: not np.isfinite(tracking_check(SLOW_UP, 1.0, ([0.5], [0.3]),
                                               ([0.6], [0.9]), 40.0, 0.1,
                                               rng=_rng()).gap[-1]),
}


@pytest.mark.parametrize("name", sorted(BLOWUPS))
def test_blow_up_is_flagged_by_every_simulator(name):
    assert BLOWUPS[name]()


def test_linear_decay_matches_exponential():
    x, _ = simulate_slow_fast(model(), 1.0, 0.001, np.random.default_rng(0))
    assert abs(x.states[-1, 0] - np.exp(-1.0)) < 2e-3


def test_constant_drift_variation_of_constants():
    f = DriftFn.constant([1.0])
    x, _ = simulate_slow_fast(model(f=f, x0=0.0), 1.0, 0.001,
                              np.random.default_rng(0))
    assert abs(x.states[-1, 0] - (1.0 - np.exp(-1.0))) < 2e-3


def test_matrix_exponential_flow_both_components():
    m = SlowFastModel(a=[[-1.0, 0.5], [0.0, -2.0]], b=[[-2.0, 0.0], [1.0, -3.0]],
                      f=DriftFn.zero(2), g=DriftFn.zero(2), epsilon=0.5,
                      x0=[1.0, -1.0], y0=[0.5, 2.0])
    x, y = simulate_slow_fast(m, 1.0, 0.0005, np.random.default_rng(0))
    x_exact = expm(m.a * 1.0) @ m.x0
    y_exact = expm(m.b * (1.0 / 0.5)) @ m.y0
    assert np.allclose(x.states[-1], x_exact, atol=3e-3)
    assert np.allclose(y.states[-1], y_exact, atol=3e-3)


def test_epsilon_one_matches_plain_sde():
    # at eps = 1 the coupled stepper is an unscaled two-component SDE
    m = model(sigma2=1.0, eps=1.0)
    x, y = simulate_slow_fast(m, 1.0, 0.01, np.random.default_rng(5))
    grid = make_grid(1.0, 0.01)
    rng = np.random.default_rng(5)
    slow = sample_increments(1, grid, rng)
    fast = sample_increments(1, grid, rng)
    ys = [np.array([1.0])]
    for k in range(100):
        ys.append(ys[-1] + (-2.0 * ys[-1]) * 0.01
                  + fast.d_brownian[k] + fast.d_jump[k])
    assert np.allclose(y.states[:, 0], np.array(ys)[:, 0], atol=1e-12)


def test_stability_guard():
    with pytest.raises(ValueError):
        simulate_slow_fast(model(eps=0.01), 1.0, 0.01, np.random.default_rng(0))


def test_determinism_bit_identical():
    m = linear_benchmark(epsilon=0.05)
    x1, y1 = simulate_slow_fast(m, 1.0, 0.005, np.random.default_rng(17))
    x2, y2 = simulate_slow_fast(m, 1.0, 0.005, np.random.default_rng(17))
    assert np.array_equal(x1.states, x2.states)
    assert np.array_equal(y1.states, y2.states)


def test_diverged_flagged_not_silent():
    # unstable drift explodes under the explicit scheme
    m = model(a=50.0, x0=1.0)
    x, _ = simulate_slow_fast(m, 40.0, 0.1, np.random.default_rng(0))
    assert x.diverged
    assert x.diverged_at is not None
    assert np.all(np.isnan(x.states[x.diverged_at + 1:]))


def test_strong_order_one_on_deterministic_problem():
    errs = []
    for dt in (0.01, 0.005):
        x, _ = simulate_slow_fast(model(), 1.0, dt, np.random.default_rng(0))
        errs.append(abs(x.states[-1, 0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 1.8 <= ratio <= 2.2


def test_grid_refinement_consistency_fixed_path():
    # same Brownian path aggregated to the coarse grid: sup difference O(dt)
    m = model(sigma1=1.0, x0=0.5)
    sup_diffs = []
    for dt in (0.02, 0.01, 0.005):
        fine = sample_increments(1, make_grid(1.0, dt / 2), np.random.default_rng(3))
        coarse_bm = fine.d_brownian.reshape(-1, 2, 1).sum(axis=1)
        coarse = sample_increments(1, make_grid(1.0, dt), np.random.default_rng(99))
        coarse.d_brownian = coarse_bm
        coarse.d_jump = np.zeros_like(coarse_bm)
        xc, _ = simulate_slow_fast(m, 1.0, dt, slow_incr=coarse,
                                   fast_incr=sample_increments(1, make_grid(1.0, dt), np.random.default_rng(1)))
        xf, _ = simulate_slow_fast(m, 1.0, dt / 2, slow_incr=fine,
                                   fast_incr=sample_increments(1, make_grid(1.0, dt / 2), np.random.default_rng(1)))
        sup_diffs.append(np.max(np.abs(xc.states[:, 0] - xf.states[::2, 0])))
        assert sup_diffs[-1] <= 0.5 * dt
    assert sup_diffs[0] > sup_diffs[1] > sup_diffs[2]


def test_frozen_fast_ou_stationary_variance():
    m = model(sigma2=1.0)
    traj = simulate_frozen_fast(m, [0.0], [0.0], 400.0, 0.005,
                                np.random.default_rng(21))
    vals = traj.states[traj.grid >= 5.0, 0]
    var = vals.var()
    # correlated samples: effective count ~ T / (2 tau), tau = 1/b
    n_eff = 395.0 / 1.0
    se = var * np.sqrt(2.0 / n_eff)
    assert abs(var - 0.25) <= 3 * se


def test_frozen_fast_deterministic_decay():
    m = model()
    traj = simulate_frozen_fast(m, [0.0], [1.0], 1.0, 0.0005,
                                np.random.default_rng(0))
    assert abs(traj.states[-1, 0] - np.exp(-2.0)) < 2e-3


def test_frozen_fast_constant_drift_mean():
    m = model(g=DriftFn.constant([1.0]), sigma2=1.0)
    traj = simulate_frozen_fast(m, [0.0], [0.0], 400.0, 0.005,
                                np.random.default_rng(4))
    vals = traj.states[traj.grid >= 5.0, 0]
    n_eff = 395.0
    se = vals.std() * np.sqrt(2.0 / n_eff)
    assert abs(vals.mean() - 0.5) <= 3 * se


def test_zero_horizon_single_row():
    x, y = simulate_slow_fast(model(), 0.0, 0.01, np.random.default_rng(0))
    assert len(x.grid) == 1
    assert x.states[0, 0] == 1.0


def test_csv_serialization_17_digits():
    t = Trajectory(np.array([0.0, 0.1]), np.array([[1.0 / 3.0], [2.0 / 3.0]]))
    buf = io.StringIO()
    t.to_csv(buf, label="x")
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x1"
    assert lines[1].split(",")[1] == "0.33333333333333331"
    parsed = float(lines[2].split(",")[1])
    assert parsed == 2.0 / 3.0


def test_second_moment_stable_across_epsilon_halving():
    # E sup_t |x|^2 stays bounded and comparable as the timescale gap widens
    means = []
    for eps in (0.02, 0.01):
        m = linear_benchmark(epsilon=eps)
        sups = []
        for i in range(80):
            x, _ = simulate_slow_fast(m, 1.0, eps / 10.0,
                                      np.random.default_rng(3000 + i))
            sups.append(np.max(np.sum(x.states ** 2, axis=-1)))
        means.append(np.mean(sups))
    assert np.all(np.isfinite(means))
    assert 0.5 <= means[0] / means[1] <= 2.0
