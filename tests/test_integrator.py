import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from slowfast.averaging import build_averaged, coupled_error_batch, simulate_averaged
from slowfast.benchmarks import linear_benchmark
from slowfast.deviation import (DeviationModel, limit_marginal_samples,
                                residual_theta2, simulate_deviation,
                                simulate_truncated_deviation)
from slowfast.integrator import (Trajectory, _check_stable, _euler, _stretch,
                                 apply_noise, default_step, frozen_fast_batch,
                                 make_grid, simulate_slow_fast)
from slowfast.manifold import tracking_check
from slowfast.model import DriftFn, JumpSpec, SizeDist, SlowFastModel, _lin, parse_drift
from slowfast.noise import sample_increments


def model(a=-1.0, b=-2.0, f=None, g=None, sigma1=0.0, sigma2=0.0, eps=1.0,
          x0=1.0, y0=1.0):
    return SlowFastModel(a=[[a]], b=[[b]], f=f or DriftFn.zero(1),
                         g=g or DriftFn.zero(1), sigma1=sigma1, sigma2=sigma2,
                         epsilon=eps, x0=[x0], y0=[y0])


# -- the Euler kernel ----------------------------------------------------------

def adding(fn):
    """The kernel's form of the rest of a drift beyond its linear part,
    (k, s) -> one array per component: each value is added into its drift
    buffer, which holds the linear part."""
    def drift(k, s, d):
        for dc, value in zip(d, fn(k, s)):
            dc += value
    return drift


class Streamed:
    """Increments that are not an ndarray, read a step at a time in order
    (a step again, when components share them); the kernel hands them their
    amplitude, and each row is scaled as read."""

    def __init__(self, block):
        self.block, self.shape, self.next, self.sigma = block, block.shape, 0, None

    def scale(self, sigma):
        assert self.next == 0 and self.sigma is None
        self.sigma = sigma

    def __getitem__(self, k):
        assert k in (self.next - 1, self.next)        # in step order
        self.next = k + 1
        return apply_noise(self.sigma, self.block[k])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), paths=st.sampled_from([None, 1, 4]),
       matrix_sigma=st.booleans(),
       noise=st.sampled_from(["none", "blocks", "mixed", "streamed"]),
       views=st.booleans(), steps=st.integers(0, 25),
       last=st.sampled_from([1.0, 0.6, 1.4]), seed=st.integers(0, 2 ** 32 - 1))
def test_euler_kernel_matches_reference_loop(n, paths, matrix_sigma, noise, views,
                                             steps, last, seed):
    rng = np.random.default_rng(seed)
    a = -np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = -2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    s1 = 0.3 * rng.standard_normal((n, n)) if matrix_sigma else 0.3
    s2 = rng.standard_normal((n, n)) if matrix_sigma else 1.0
    shape = (n,) if paths is None else (paths, n)
    x0, y0 = rng.standard_normal((2,) + shape)
    dx, dy = 0.1 * rng.standard_normal((2, steps) + shape)
    callers = [v.copy() for v in (x0, y0, dx, dy)]
    dt, h_fast = 0.01, 0.1
    # a grid over dt whose last step is ``last`` times dt
    grid = dt * np.arange(steps + 1)
    if steps:
        grid[-1] = grid[-2] + last * dt
    stretch = (grid[-1] - grid[-2]) / dt if steps and last != 1.0 else 1.0

    def amp(sigma, d):
        return sigma * d if np.ndim(sigma) == 0 else d @ sigma.T

    def fn(k, s):
        x, y = s
        if views:          # the drift of each component is the other's state
            return y, x
        return x @ a.T + np.tanh(y), y @ b.T + 0.25 * np.sin(x)

    # the kernel applies the linear parts, and the drift adds the rest
    mats = (np.zeros((n, n)),) * 2 if views else (a, b)

    def rest(k, s):
        x, y = s[0], s[1]
        return (y, x) if views else (np.tanh(y), 0.25 * np.sin(x))

    def noise_y(k, s):     # reads the state the step starts from
        return amp(s2, dy[k]) * (1.0 + 0.1 * np.tanh(s[0]))

    def gap(k, s):     # weighted by the grid point, so k is checked too
        return np.sum((s[0] - s[1]) ** 2, axis=-1) * (1.0 + 0.01 * k)

    def terms():
        return {"none": (None, None), "blocks": ((s1, dx), (s2, dy)),
                "mixed": ((s1, dx), noise_y),
                "streamed": ((s1, Streamed(dx)), noise_y)}[noise]

    run = _euler((x0, y0), mats, adding(rest), (dt, h_fast), terms(), grid, dt,
                 sup=gap, path=True)

    # a pre-drawn block is scaled whole, a streamed one row by row
    x, y = x0, y0
    xs, ys, best = [x], [y], gap(0, (x, y))
    for k in range(steps):
        fx, fy = fn(k, (x, y))
        wx = {"none": None, "streamed": amp(s1, dx[k])}.get(noise, amp(s1, dx)[k])
        wy = {"none": None, "blocks": amp(s2, dy)[k]}.get(noise, noise_y(k, (x, y)))
        hx, hy = (dt * stretch, h_fast * stretch) if k == steps - 1 else (dt, h_fast)
        x, y = (x + fx * hx if wx is None else x + fx * hx + wx,
                y + fy * hy if wy is None else y + fy * hy + wy)
        xs.append(x)
        ys.append(y)
        best = np.maximum(best, gap(k + 1, (x, y)))
    assert np.array_equal(run.path[0], np.array(xs))
    assert np.array_equal(run.path[1], np.array(ys))
    assert np.array_equal(run.state[0], x) and np.array_equal(run.state[1], y)
    assert np.array_equal(run.sup, best)
    assert not run.diverged.any() and np.all(run.diverged_at == -1)
    # the kernel wrote to none of the caller's arrays
    assert all(np.array_equal(v, c) for v, c in zip((x0, y0, dx, dy), callers))

    # without a recorded path the final state and sup are the same
    bare = _euler((x0, y0), mats, adding(rest), (dt, h_fast), terms(), grid, dt,
                  sup=gap)
    assert bare.path is None and bare.diverged_at is None
    assert np.array_equal(bare.state, run.state) and np.array_equal(bare.sup, best)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), comps=st.integers(1, 5),
       paths=st.sampled_from([None, 1, 2, 7]), seed=st.integers(0, 2 ** 32 - 1))
def test_euler_stacked_linear_map_equals_each_components_lin(n, comps, paths, seed):
    # the drift finds every component's linear part in its buffer, the bits
    # of ``_lin`` with that component's own (non-symmetric) matrix
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, n)) for _ in range(comps)]
    shape = (n,) if paths is None else (paths, n)
    state = [rng.standard_normal(shape) for _ in range(comps)]
    seen = []

    def drift(k, s, d):
        seen.append(d.copy())

    run = _euler(state, mats, drift, (1.0,) * comps, (None,) * comps,
                 make_grid(0.02, 0.01), 0.01)
    assert len(seen) == 2 and run.state.shape == (comps,) + shape
    for c in range(comps):
        assert np.array_equal(seen[0][c].reshape(shape), _lin(mats[c], state[c]))


def test_euler_scales_a_shared_stream_once():
    # two components read one stream with one amplitude: it is handed the
    # amplitude once, and both add its row
    dx = np.random.default_rng(1).standard_normal((5, 3, 2))
    sigma = np.array([[1.0, 0.5], [0.0, 2.0]])
    stream = Streamed(dx)
    zero = np.zeros((2, 2))
    run = _euler((np.zeros((3, 2)),) * 2, (zero, zero), lambda k, s, d: None,
                 (0.1, 0.1), ((sigma, stream),) * 2, 0.1 * np.arange(6), 0.1)
    want = np.zeros((3, 2))
    for k in range(5):
        want = want + apply_noise(sigma, dx[k])
    assert np.array_equal(run.state[0], want) and np.array_equal(run.state[1], want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), matrix_sigma=st.booleans(),
       paths=st.sampled_from([None, 1, 3]), steps=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_euler_prescaled_blocks_match_per_step_noise(n, matrix_sigma, paths, steps,
                                                     seed):
    rng = np.random.default_rng(seed)
    a = -np.eye(n) + 0.3 * rng.standard_normal((n, n))
    sigma = rng.standard_normal((n, n)) if matrix_sigma else 0.7
    shape = (n,) if paths is None else (paths, n)
    x0, dx = rng.standard_normal(shape), 0.1 * rng.standard_normal((steps,) + shape)
    caller = dx.copy()

    def drift(k, s):
        return (np.tanh(s[0] @ a.T),)

    run = _euler((x0,), (np.zeros((n, n)),), adding(drift), (0.01,), ((sigma, dx),),
                 0.01 * np.arange(steps + 1), 0.01, path=True)
    assert np.array_equal(dx, caller)            # the caller's block is not scaled
    x, want = x0, [x0]
    for k in range(steps):
        x = x + np.tanh(x @ a.T) * 0.01 + apply_noise(sigma, dx[k])
        want.append(x)
    if n == 1 or not matrix_sigma:
        assert np.array_equal(run.path[0], np.array(want))
    else:
        assert np.max(np.abs(run.path[0] - np.array(want)), initial=0.0) <= \
            1e-12 * np.max(np.abs(want))


def test_euler_divergence_conventions():
    # y blows up on path 0 only; x = int tanh(y) stays finite on every path,
    # so only the check of every component finds the diverged path
    y0 = np.array([[1.0], [0.0], [1e-200]])

    def drift(k, s):       # y's linear part 50 y is the kernel's
        return np.tanh(s[1]), 0.0

    run = _euler((np.zeros((3, 1)), y0), (np.zeros((1, 1)), np.full((1, 1), 50.0)),
                 adding(drift), (0.1, 0.1), (None, None),
                 0.1 * np.arange(401), 0.1, sup=lambda k, s: np.abs(s[0][:, 0]),
                 path=True)
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


def _tracking_blow_up():
    # a diverged run reports a NaN rate, off the envelope, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = tracking_check(SLOW_UP, 1.0, ([0.5], [0.3]), ([0.6], [0.9]), 40.0,
                             0.1, rng=_rng())
    return (not np.isfinite(rep.gap[-1]) and np.isnan(rep.rate_fitted)
            and not rep.under_envelope)


BLOWUPS = {
    "simulate_slow_fast":
        lambda: simulate_slow_fast(SLOW_UP, 40.0, 0.1, _rng())[0].diverged,
    "frozen_fast_batch":
        lambda: not np.isfinite(frozen_fast_batch(FAST_UP, [0.0], [1.0], 400, 0.1,
                                                  _rng(), 3)[-1]).any(),
    "simulate_averaged":
        lambda: simulate_averaged(_up_averaged(), 40.0, 0.1,
                                  sample_increments(1, GRID, _rng())).diverged,
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
        lambda: simulate_truncated_deviation(SLOW_UP, _up_averaged(), 1.0, np.inf,
                                             40.0, 0.1, 5).diverged,
    "limit_marginal_samples":
        lambda: not np.isfinite(limit_marginal_samples(_up_deviation(), _up_averaged(),
                                                       40.0, 0.1, 3, 5)).any(),
    "tracking_check": _tracking_blow_up,
}



@pytest.mark.parametrize("name", sorted(BLOWUPS))
def test_blow_up_is_flagged_by_every_simulator(name):
    assert BLOWUPS[name]()


# every simulator of the coupled system, at step dt on model m
COUPLED = {
    "simulate_slow_fast": lambda m, dt: simulate_slow_fast(m, 0.2, dt, _rng()),
    "coupled_error_batch":
        lambda m, dt: coupled_error_batch(m, build_averaged(m), 0.2, dt, 5, 0, 5),
    "residual_theta2": lambda m, dt: residual_theta2(m, m.epsilon, 0.2, dt, 3, 5),
    "simulate_truncated_deviation":
        lambda m, dt: simulate_truncated_deviation(m, build_averaged(m), m.epsilon,
                                                   np.inf, 0.2, dt, 5),
}


@pytest.mark.parametrize("name", sorted(COUPLED))
def test_stability_guard(name):
    m = linear_benchmark(epsilon=0.01)
    with pytest.raises(ValueError, match="stability guard"):
        COUPLED[name](m, 0.05)
    COUPLED[name](m, 0.001)                     # dt = epsilon / 10 is allowed


def _frozen_model(n, rng, jumps, matrix_sigma):
    g = parse_drift([f"0.2*tanh(x{i + 1} - y{(i + 1) % n + 1})" for i in range(n)],
                    n, lip=0.2, growth=0.2)
    b = -2.0 * np.eye(n) + 0.3 * rng.standard_normal((n, n))
    sigma2 = rng.standard_normal((n, n)) if matrix_sigma else 0.7
    jump = JumpSpec(3.0, SizeDist.uniform(-0.2, 0.4)) if jumps else None
    return SlowFastModel(a=-np.eye(n), b=b, f=DriftFn.zero(n), g=g, sigma2=sigma2,
                         jump_fast=jump, x0=np.zeros(n), y0=np.zeros(n))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), paths=st.integers(1, 3), jumps=st.booleans(),
       matrix_sigma=st.booleans(), steps=st.integers(0, 30),
       seed=st.integers(0, 2 ** 32 - 1))
def test_frozen_fast_batch_equals_successive_single_runs(n, paths, jumps, matrix_sigma,
                                                        steps, seed):
    rng = np.random.default_rng(seed)
    m = _frozen_model(n, rng, jumps, matrix_sigma)
    x, y0 = rng.standard_normal((2, n))
    dt = 0.01
    ys = frozen_fast_batch(m, x, y0, steps, dt, np.random.default_rng(seed + 1), paths)
    one = np.random.default_rng(seed + 1)
    ref = np.concatenate([frozen_fast_batch(m, x, y0, steps, dt, one, 1)
                          for _ in range(paths)], axis=1)
    assert ys.shape == (steps + 1, paths, n)
    if n == 1:
        assert np.array_equal(ys, ref)
    else:
        np.testing.assert_allclose(ys, ref, rtol=1e-12, atol=1e-12)


def test_linear_decay_matches_exponential():
    x, _ = simulate_slow_fast(model(), 1.0, 0.001, np.random.default_rng(0))
    assert abs(x.states[-1, 0] - np.exp(-1.0)) < 2e-3


def test_last_drift_step_is_the_grids_last_step():
    # make_grid(1.0, 0.3) is [0, 0.3, 0.6, 1.0]: the drift of dx = -x steps
    # by 0.3, 0.3 and then 0.4, so x(1) = 0.7 * 0.7 * 0.6
    m = SlowFastModel(a=[[-1.0]], b=[[-1.0]], f=DriftFn.zero(1), g=DriftFn.zero(1),
                      epsilon=10.0, x0=[1.0], y0=[1.0])
    x, y = simulate_slow_fast(m, 1.0, 0.3, np.random.default_rng(0))
    assert x.grid.tolist() == [0.0, 0.3, 0.6, 1.0]
    assert x.states[-1, 0] == pytest.approx(0.7 * 0.7 * 0.6, rel=1e-12)
    # the fast drift steps by 0.03, 0.03 and then 0.04
    assert y.states[-1, 0] == pytest.approx(0.97 * 0.97 * 0.96, rel=1e-12)
    # the stability guard holds the stretched step 0.4, not dt, to epsilon / 10
    with pytest.raises(ValueError, match="stability guard"):
        simulate_slow_fast(m.with_epsilon(3.5), 1.0, 0.3, np.random.default_rng(0))


@pytest.mark.parametrize("t_end", [0.0, 0.002, 1.0, 2.5])
@pytest.mark.parametrize("epsilon", [0.01, 0.03, 0.08, 0.3, 0.7])
def test_default_step_grid_ends_on_t_end_within_the_guard(t_end, epsilon):
    dt = default_step(t_end, epsilon)
    grid = make_grid(t_end, dt)
    _check_stable(grid, dt, epsilon)
    assert grid[-1] == t_end and np.all(np.diff(grid) <= epsilon / 10 + 1e-15)
    assert dt <= epsilon / 10 and _stretch(grid, dt) == 1.0
    if abs(t_end * 10 / epsilon - round(t_end * 10 / epsilon)) < 1e-9:
        assert dt == epsilon / 10        # a dividing step is kept bit for bit


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


def _one_frozen_path(m, y0, steps, dt, seed):
    """One frozen-fast path at x = 0 on ``steps`` steps of dt, with its times."""
    ys = frozen_fast_batch(m, [0.0], y0, steps, dt, np.random.default_rng(seed), 1)
    return dt * np.arange(steps + 1), ys[:, 0, 0]


def test_frozen_fast_ou_stationary_variance():
    m = model(sigma2=1.0)
    t, y = _one_frozen_path(m, [0.0], 80000, 0.005, 21)
    vals = y[t >= 5.0]
    var = vals.var()
    # correlated samples: effective count ~ T / (2 tau), tau = 1/b
    n_eff = 395.0 / 1.0
    se = var * np.sqrt(2.0 / n_eff)
    assert abs(var - 0.25) <= 3 * se


def test_frozen_fast_deterministic_decay():
    _, y = _one_frozen_path(model(), [1.0], 2000, 0.0005, 0)
    assert abs(y[-1] - np.exp(-2.0)) < 2e-3


def test_frozen_fast_constant_drift_mean():
    m = model(g=DriftFn.constant([1.0]), sigma2=1.0)
    t, y = _one_frozen_path(m, [0.0], 80000, 0.005, 4)
    vals = y[t >= 5.0]
    n_eff = 395.0
    se = vals.std() * np.sqrt(2.0 / n_eff)
    assert abs(vals.mean() - 0.5) <= 3 * se


def test_short_horizon_takes_one_step_to_it():
    # a horizon under half a step still ends the grid on it
    for t_end in (0.004, 0.005):
        assert np.array_equal(make_grid(t_end, 0.01), [0.0, t_end])
    x, _ = simulate_slow_fast(linear_benchmark(0.1), 0.004, 0.01,
                              np.random.default_rng(0))
    assert np.array_equal(x.grid, [0.0, 0.004])
    # dx = (-x + y) dt from x0 = 1, y0 = 0, over the one step of 0.004
    assert x.states[-1, 0] == pytest.approx(0.996, abs=1e-15)


def test_zero_horizon_single_row():
    x, y = simulate_slow_fast(model(), 0.0, 0.01, np.random.default_rng(0))
    assert len(x.grid) == 1
    assert x.states[0, 0] == 1.0


def test_csv_serialization_17_digits():
    from slowfast.cli import _trajectory_csv
    t = Trajectory(np.array([0.0, 0.1]), np.array([[1.0 / 3.0], [2.0 / 3.0]]))
    buf = io.StringIO()
    _trajectory_csv(buf, t, "x")
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
