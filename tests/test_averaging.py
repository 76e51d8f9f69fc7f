import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast import averaging
from slowfast.averaging import (_averaged_run, _multilinear, build_averaged,
                                estimate_fbar, mixing_diagnostic, simulate_averaged,
                                strong_error_experiment)
from slowfast.benchmarks import linear_benchmark, tanh_benchmark
from slowfast.deviation import fbar_derivative
from slowfast.integrator import make_grid, simulate_slow_fast
from slowfast.model import DriftFn, JumpSpec, SizeDist, SlowFastModel, parse_drift
from slowfast.noise import _path_increments, sample_increments


def test_fbar_linear_benchmark_is_zero():
    m = linear_benchmark()
    est = estimate_fbar(m, [1.0], horizon=120.0, dt=0.005,
                        rng=np.random.default_rng(3))
    assert abs(est.value[0]) <= 3 * est.stderr[0]


def test_fbar_y_independent_is_exact():
    m = linear_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=parse_drift(["x1"], 1), g=m.g,
                      sigma1=0.0, sigma2=1.0, epsilon=m.epsilon,
                      x0=m.x0, y0=m.y0)
    est = estimate_fbar(m, [0.7], horizon=20.0, dt=0.01,
                        rng=np.random.default_rng(0))
    assert est.value[0] == pytest.approx(0.7, abs=1e-12)
    assert est.stderr[0] == 0.0


def test_fbar_constant_fast_drift_shifts_mean():
    # stationary mean of the frozen-fast state is g/b = 0.5
    m = linear_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=m.f, g=DriftFn.constant([1.0]),
                      sigma1=0.0, sigma2=1.0, epsilon=m.epsilon,
                      x0=m.x0, y0=m.y0)
    est = estimate_fbar(m, [1.0], horizon=120.0, dt=0.005,
                        rng=np.random.default_rng(5))
    assert abs(est.value[0] - 0.5) <= 3 * est.stderr[0]


def test_fbar_invariant_to_fast_initial_condition():
    ests = []
    for y0 in (-3.0, 3.0):
        m = linear_benchmark(y0=y0)
        ests.append(estimate_fbar(m, [1.0], horizon=80.0, dt=0.005,
                                  rng=np.random.default_rng(9)))
    gap = abs(ests[0].value[0] - ests[1].value[0])
    se = np.hypot(ests[0].stderr[0], ests[1].stderr[0])
    assert gap <= 3 * se


def test_fbar_scaling_on_linear_benchmark():
    m = linear_benchmark()
    e1 = estimate_fbar(m, [1.0], horizon=60.0, dt=0.005,
                       rng=np.random.default_rng(21))
    e2 = estimate_fbar(m, [2.0], horizon=60.0, dt=0.005,
                       rng=np.random.default_rng(22))
    gap = abs(e2.value[0] - 2.0 * e1.value[0])
    se = np.hypot(2.0 * e1.stderr[0], e2.stderr[0])
    assert gap <= 3 * se


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 2), points=st.integers(1, 4), jumps=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fbar_points_equal_successive_single_point_calls(n, points, jumps, seed):
    rng = np.random.default_rng(seed)
    f = parse_drift([f"tanh(y{i + 1} + 0.5*x{i + 1})" for i in range(n)], n,
                    lip=1.0, growth=1.0)
    g = parse_drift([f"0.2*tanh(x{i + 1} - y{(i + 1) % n + 1})" for i in range(n)],
                    n, lip=0.2, growth=0.2)
    jump = JumpSpec(3.0, SizeDist.uniform(-0.2, 0.4)) if jumps else None
    m = SlowFastModel(a=-np.eye(n), b=-2.0 * np.eye(n), f=f, g=g, sigma2=0.7,
                      jump_fast=jump, epsilon=1.0, x0=np.zeros(n),
                      y0=rng.standard_normal(n))
    xs = rng.uniform(-1.0, 1.0, size=(points, n))
    kw = dict(burn_in=0.5, horizon=2.0, dt=0.01)
    est = estimate_fbar(m, xs, rng=np.random.default_rng(seed + 1), **kw)
    one = np.random.default_rng(seed + 1)
    ref = [estimate_fbar(m, x, rng=one, **kw) for x in xs]
    value = np.stack([e.value for e in ref])
    stderr = np.stack([e.stderr for e in ref])
    assert est.value.shape == est.stderr.shape == (points, n)
    if points == 1:
        assert np.array_equal(est.value, value)
        assert np.array_equal(est.stderr, stderr)
    else:
        np.testing.assert_allclose(est.value, value, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(est.stderr, stderr, rtol=1e-12, atol=1e-15)


def test_fbar_rejects_points_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="shape"):
        estimate_fbar(linear_benchmark(), [[1.0, 2.0]], rng=np.random.default_rng(0))


def test_fbar_refuses_a_window_shorter_than_its_batches():
    # [0, 0.05] at dt 0.005 holds 11 grid points for 16 batch means, whose
    # standard error would be NaN; 16 points give each batch one
    m, rng = linear_benchmark(), np.random.default_rng(0)
    with pytest.raises(ValueError, match="fbar window"):
        estimate_fbar(m, [1.0], burn_in=0.0, horizon=0.05, rng=rng)
    est = estimate_fbar(m, [1.0], burn_in=0.0, horizon=0.075, rng=rng)
    assert np.all(np.isfinite(est.stderr))


def test_build_averaged_linear_closed_form():
    m = linear_benchmark()
    am = build_averaged(m)
    assert am.fbar.kind == "linear"
    x = np.array([1.3])
    assert am.fbar(x)[0] == pytest.approx(0.0)
    assert am.fbar.deriv_matrix[0, 0] == pytest.approx(0.0)


@pytest.mark.parametrize("f", [DriftFn.zero(2), DriftFn.constant([0.5, -1.0]),
                               DriftFn.linear(fx=[[-0.3, 0.7], [0.1, 0.2]],
                                              const=[1.0, 0.0], n=2)],
                         ids=["zero", "constant", "linear"])
def test_y_free_linear_family_gets_its_exact_jacobian(f):
    # fbar = f(x, .) with Jacobian fx, bit for bit, not central differences
    m = SlowFastModel(a=-np.eye(2), b=-2.0 * np.eye(2), f=f,
                      g=DriftFn.linear(fx=0.5 * np.eye(2), n=2), sigma2=1.0,
                      epsilon=0.01, x0=[1.0, 0.5], y0=[0.0, 0.0])
    fx = f.payload.get("fx", np.zeros((2, 2)))
    am = build_averaged(m)
    assert am.fbar.kind == "y-independent"
    assert np.array_equal(am.fbar.deriv_matrix, fx)
    x = np.array([[0.3, -1.2], [2.0, 0.7]])
    assert np.array_equal(fbar_derivative(am, x), np.broadcast_to(fx, (2, 2, 2)))
    assert np.array_equal(am.fbar(x), f(x, np.zeros_like(x)))


def test_build_averaged_linear_with_coupling():
    # g = 0.5 x - y shifts the fast stationary mean to 0.5 x / 3
    f = DriftFn.linear(fy=[[1.0]], n=1)
    g = DriftFn.linear(fx=[[0.5]], fy=[[-1.0]], n=1)
    m = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=f, g=g, sigma2=1.0,
                      epsilon=0.01, x0=[1.0], y0=[0.0])
    am = build_averaged(m)
    assert am.fbar(np.array([3.0]))[0] == pytest.approx(0.5)
    assert am.fbar.deriv_matrix[0, 0] == pytest.approx(1.0 / 6.0)


def test_build_averaged_tabulated_interpolates():
    m = tanh_benchmark()
    axes = [np.linspace(-1.5, 1.5, 7)]
    am = build_averaged(m, table_axes=axes, rng=np.random.default_rng(2),
                        horizon=150.0)
    assert am.fbar.kind == "tabulated"
    v = am.fbar(np.array([[0.0], [0.8]]))
    assert v.shape == (2, 1)
    # fbar(0) = E tanh(N(0, 1/4)) = 0 up to the table's Monte-Carlo noise
    assert abs(v[0, 0]) < 0.12
    # interpolation reproduces the table nodes exactly
    nodes, values = am.fbar.table
    mid = am.fbar(np.array([nodes[0][3]]))
    assert mid[0] == pytest.approx(values[3], abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(dims=st.integers(1, 3), data=st.data())
def test_tabulated_interpolant_has_scipy_bits(dims, data):
    # non-uniform axes; points past the edges, on nodes, at signed zeros,
    # infinities and NaN
    from scipy.interpolate import RegularGridInterpolator
    node = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    axes = [np.array(sorted(data.draw(st.sets(node, min_size=2, max_size=6))))
            for _ in range(dims)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=[len(ax) for ax in axes] + [dims])
    x = np.stack([rng.choice(np.concatenate([
        ax, [0.0, -0.0, np.inf, -np.inf, np.nan],
        rng.uniform(ax[0] - 2.0, ax[-1] + 2.0, 20)]), 40) for ax in axes], axis=-1)
    with np.errstate(all="ignore"):       # inf - inf, inf * 0 past the edges
        ref = RegularGridInterpolator(axes, values, bounds_error=False,
                                      fill_value=None)(x)
        got = _multilinear(axes, values)(x)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_tabulated_axes_must_increase():
    m = tanh_benchmark()
    for axis in ([0.5], [0.0, 1.0, 1.0], [1.0, 0.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_averaged(m, table_axes=[axis], rng=np.random.default_rng(0))


def test_mixing_rate_linear_benchmark():
    m = linear_benchmark()
    rep = mixing_diagnostic(m, [1.0], [np.array([2.0])], 2.5, 0.005, 2000,
                            np.random.default_rng(4))
    assert rep.eta_declared == pytest.approx(4.0)
    assert abs(rep.eta_empirical - 2.0) <= 0.3


def test_mixing_two_starts_report_the_larger_deviation():
    # the two-start run draws start 1's paths right after start 0's, so it
    # sees the paths of two successive one-start runs on one generator
    m = linear_benchmark()
    args = ([1.0], 1.0, 0.01, 200)
    both = mixing_diagnostic(m, args[0], [np.array([2.0]), np.array([-2.0])],
                             *args[1:], np.random.default_rng(8))
    rng = np.random.default_rng(8)
    first = mixing_diagnostic(m, args[0], [np.array([2.0])], *args[1:], rng)
    second = mixing_diagnostic(m, args[0], [np.array([-2.0])], *args[1:], rng)
    assert np.array_equal(both.times, first.times)
    # the first start wins ties (both start at deviation 2), so the second
    # wins only where it is larger
    later = second.deviations > first.deviations
    assert later.any() and not later[0]
    assert np.array_equal(both.deviations,
                          np.where(later, second.deviations, first.deviations))
    assert np.array_equal(both.noise_floor,
                          np.where(later, second.noise_floor, first.noise_floor))


def test_mixing_curve_zero_for_y_independent_f():
    m = linear_benchmark()
    m = SlowFastModel(a=m.a, b=m.b, f=parse_drift(["x1"], 1, lip=1.0),
                      g=m.g, sigma1=0.0, sigma2=1.0, epsilon=m.epsilon,
                      x0=m.x0, y0=m.y0)
    rep = mixing_diagnostic(m, [1.0], [np.array([2.0])], 1.0, 0.01, 200,
                            np.random.default_rng(4))
    assert np.all(rep.deviations < 1e-12)
    assert np.isnan(rep.eta_empirical)


def test_mixing_eta_declared_formula():
    m = tanh_benchmark()
    rep = mixing_diagnostic(m, [0.5], [np.array([1.0])], 1.0, 0.01, 200,
                            np.random.default_rng(1))
    assert rep.eta_declared == pytest.approx(2.0 * (2.0 - 6.0 * 0.25 ** 2))


def test_mixing_requires_enough_paths():
    with pytest.raises(ValueError):
        mixing_diagnostic(linear_benchmark(), [1.0], [np.array([1.0])],
                          1.0, 0.01, 50, np.random.default_rng(0))


def test_simulate_averaged_pure_decay():
    m = linear_benchmark()
    am = build_averaged(m)
    grid = make_grid(1.0, 0.001)
    incr = sample_increments(1, grid, np.random.default_rng(0))
    traj = simulate_averaged(am, 1.0, 0.001, incr)
    # sigma1 = 0: noise stream multiplies to zero, pure linear decay
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 2e-3


def test_averaged_coincides_with_full_when_f_ignores_y():
    f = parse_drift(["0.5*x1"], 1, lip=0.5)
    m = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=f, g=DriftFn.zero(1),
                      sigma1=1.0, sigma2=1.0, epsilon=0.05, x0=[1.0], y0=[0.5])
    grid = make_grid(1.0, 0.005)
    slow = sample_increments(1, grid, np.random.default_rng(11))
    fast = sample_increments(1, grid, np.random.default_rng(12), speed=20.0)
    x_full, _ = simulate_slow_fast(m, 1.0, 0.005, slow_incr=slow, fast_incr=fast)
    am = build_averaged(m)
    x_avg = simulate_averaged(am, 1.0, 0.005, slow)
    assert np.array_equal(x_full.states, x_avg.states)


def test_simulate_averaged_gaussian_variance():
    # linear SDE dx = -x dt + dw: Var x(1) = (1 - e^{-2})/2
    m = linear_benchmark()
    am = build_averaged(m)
    am = type(am)(am.a, am.fbar, 1.0, None, am.x0)
    rng = np.random.default_rng(14)
    grid = make_grid(1.0, 0.005)
    # 3000 successive streams of one generator, stepped as one batch
    incr = _path_increments(1, grid, [rng] * 3000)
    run = _averaged_run(am, np.broadcast_to(am.x0, (3000, 1)), grid, 0.005,
                        (am.sigma1, incr))
    finals = run.path[0][-1, :, 0]
    var = finals.var(ddof=1)
    target = 0.5 * (1.0 - np.exp(-2.0))
    se = var * np.sqrt(2.0 / len(finals))
    assert abs(var - target) <= 3 * se


def test_strong_error_small_scale():
    m = linear_benchmark()
    report = strong_error_experiment(m, [2.0 ** -4, 2.0 ** -6, 2.0 ** -8],
                                     "eps**(2/3)", 1.0, 120, master_seed=42)
    assert report.slope > 0.25
    assert np.all(np.diff(report.errors) < 0)        # decreasing with epsilon
    assert report.flagged == []
    assert np.all(report.deltas ** 2 < report.epsilons)


def test_strong_error_zero_for_y_independent_f():
    f = parse_drift(["0.5*x1"], 1, lip=0.5)
    m = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=f, g=DriftFn.zero(1),
                      sigma1=0.5, sigma2=1.0, epsilon=1.0, x0=[1.0], y0=[0.5])
    report = strong_error_experiment(m, [2.0 ** -2, 2.0 ** -3, 2.0 ** -4],
                                     None, 1.0, 100, master_seed=7)
    assert np.all(report.errors < 1e-25)
    assert np.isnan(report.slope)


def test_strong_error_validates_input():
    m = linear_benchmark()
    with pytest.raises(ValueError):
        strong_error_experiment(m, [0.1, 0.2], None, 1.0, 120, 0)
    with pytest.raises(ValueError):
        strong_error_experiment(m, [0.2, 0.1], None, 1.0, 10, 0)


def test_strong_error_refuses_two_epsilons_before_stepping(monkeypatch):
    # a rate fit needs three points; the refusal comes before any batch runs
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the refusal")

    monkeypatch.setattr(averaging, "coupled_error_batch", no_batch)
    with pytest.raises(ValueError, match="3 epsilons"):
        strong_error_experiment(linear_benchmark(), [0.1, 0.05], None, 1.0, 120, 0)


@pytest.mark.parametrize("rule", ["eps**(1/2)", lambda e: e ** 0.5])
def test_strong_error_rejects_other_delta_rules(rule):
    # the recorded deltas are eps**(2/3) whatever the rule, so no other rule
    # may be reported under its own name
    with pytest.raises(ValueError, match="delta_rule"):
        strong_error_experiment(linear_benchmark(), [0.2, 0.1, 0.05], rule, 1.0,
                                120, 0)


def test_strong_error_steps_within_the_guard_when_eps_over_10_does_not_divide():
    # eps / 10 = 0.003 does not divide t_end 1; the run steps at 1 / 334
    rep = strong_error_experiment(linear_benchmark(), [0.05, 0.03, 0.02], None, 1.0,
                                  100, 0)
    assert np.all(np.isfinite(rep.errors)) and not rep.diverged.any()


def test_reports_serialize(tmp_path, capsys):
    # the mixing and rate reports as `slowfast average` writes them
    import json
    from slowfast.cli import main
    cfg = {"model": {"a": [[-1.0]], "b": [[-2.0]], "f": {"kind": "linear", "fy": [[1.0]]},
                     "g": {"kind": "zero"}, "sigma2": 1.0, "epsilon": 1e-3,
                     "x0": [1.0], "y0": [0.0]},
           "average": {"horizon": 10.0, "y_list": [[1.0]], "t_mix": 1.0, "dt_mix": 0.01,
                       "n_paths": 200, "epsilons": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6],
                       "t_end": 0.5, "n_paths_rate": 100}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["average", "--config", str(path), "--out", str(tmp_path)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert list(blob) == ["fbar", "fbar_stderr", "mixing", "rate"]
    assert list(blob["mixing"]) == ["eta_declared", "eta_empirical", "n_paths", "curve"]
    assert blob["mixing"]["curve"] and list(blob["mixing"]["curve"][0]) == ["t", "deviation"]
    assert list(blob["rate"]) == ["epsilons", "delta_rule", "deltas", "errors", "stderrs",
                                  "slope", "intercept", "ci", "n_paths", "diverged",
                                  "flagged"]
    assert blob["rate"]["delta_rule"] == "eps**(2/3)"
    (mix_csv,) = tmp_path.glob("*-mixing.csv")
    assert mix_csv.read_text().startswith("t,deviation\n")
    (rate_csv,) = tmp_path.glob("*-rate.csv")
    lines = rate_csv.read_text().strip().split("\n")
    assert lines[0] == "epsilon,error,stderr"
    assert len(lines) == 4


def test_batched_runner_matches_single_path_bitwise():
    from slowfast.averaging import coupled_error_batch
    from slowfast.noise import ROLE_FAST, ROLE_SLOW, substream
    m = linear_benchmark(epsilon=0.05)
    am = build_averaged(m)
    seed, k = 77, 3
    sup_sq, diff_t, div = coupled_error_batch(m, am, 1.0, 0.005, seed, 0, 8)
    grid = make_grid(1.0, 0.005)
    fast = sample_increments(1, grid, substream(seed, k, ROLE_FAST), speed=1.0 / 0.05)
    slow = sample_increments(1, grid, substream(seed, k, ROLE_SLOW))
    x, _ = simulate_slow_fast(m, 1.0, 0.005, slow_incr=slow, fast_incr=fast)
    xa = simulate_averaged(am, 1.0, 0.005, slow)
    manual = np.max(np.sum((x.states - xa.states) ** 2, axis=-1))
    # per-path substreams make ensemble members bit-identical to standalone
    # runs; the sup excludes the k=0 grid point in the batched runner only
    # when the difference there is zero, which it is by construction
    assert manual == sup_sq[k]
    assert diff_t[k, 0] == x.states[-1, 0] - xa.states[-1, 0]
