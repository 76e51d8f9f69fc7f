import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from slowfast.benchmarks import tanh_benchmark
from slowfast.manifold import (_phi1, _recurrence, asymptotic_manifold_h0,
                               contraction_factors, default_gamma,
                               lyapunov_perron_solve, reapply_sweep,
                               sample_stationary_paths, tracking_check)
from slowfast.model import DriftFn, SlowFastModel, validate_model


def plain_model(f=None, g=None, sigma1=0.0, sigma2=0.0, eps=0.1,
                jump_fast=None):
    return SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=f or DriftFn.zero(1),
                         g=g or DriftFn.zero(1), sigma1=sigma1, sigma2=sigma2,
                         jump_fast=jump_fast, epsilon=eps, x0=[0.0], y0=[0.0])


# -- stationary solutions ---------------------------------------------------

def _at_zero(m, eps, t_neg, grid_step, rng, count):
    """eta(0) and xi(0) of ``count`` independent stationary-path samples."""
    paths = [sample_stationary_paths(m, eps, t_neg, 0.0, grid_step, rng)
             for _ in range(count)]
    return (np.array([p.eta[p.index0, 0] for p in paths]),
            np.array([p.xi[p.index0, 0] for p in paths]))


def test_stationary_solution_zero_noise():
    eta0, xi0 = _at_zero(plain_model(), 0.1, 5.0, 0.01, np.random.default_rng(0), 1)
    assert eta0[0] == 0.0 and xi0[0] == 0.0


def test_stationary_fast_variance():
    # OU stationary variance sigma2^2 / (2 b) = 0.25
    _, vals = _at_zero(plain_model(sigma2=1.0), 0.1, 5.0, 0.005,
                       np.random.default_rng(5), 4000)
    var = vals.var(ddof=1)
    se = var * np.sqrt(2.0 / len(vals))
    assert abs(var - 0.25) <= 3 * se


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_stationary_slow_variance_epsilon_free(eps):
    # the epsilon in the kernel and the sqrt(eps) noise scale cancel:
    # variance sigma1^2 / (2 a) = 0.5 for any epsilon
    vals, _ = _at_zero(plain_model(sigma1=1.0, eps=eps), eps, 5.0 / eps, 0.01 / eps,
                       np.random.default_rng(2), 2500)
    var = vals.var(ddof=1)
    se = var * np.sqrt(2.0 / len(vals))
    assert abs(var - 0.5) <= 3 * se


def test_stationary_noise_is_drawn_on_the_returned_grid(monkeypatch):
    import slowfast.manifold as manifold
    drawn, draw = [], manifold.sample_increments
    monkeypatch.setattr(manifold, "sample_increments",
                        lambda *a, **k: drawn.append((a, k)) or draw(*a, **k))
    # 5 / 1.125 = 4.44..., the solver's default t_neg for the tanh benchmark,
    # is not a whole number of steps of 0.005
    paths = sample_stationary_paths(plain_model(sigma1=1.0, sigma2=1.0), 0.1,
                                    5.0 / 1.125, 0.0213, 0.005, np.random.default_rng(0))
    # xi's negative then positive segment, then eta's, at speeds 1 and epsilon
    assert len(drawn) == 4
    assert [k.get("speed") for _, k in drawn] == [1.0, 1.0, 0.1, 0.1]
    assert drawn[0][0][2] is drawn[1][0][2] and drawn[2][0][2] is drawn[3][0][2]
    for (neg, _), (pos, _) in (drawn[:2], drawn[2:]):
        assert neg[1][-1] == 0.0 == pos[1][0]
        grid = np.concatenate([neg[1], pos[1][1:]])
        assert len(grid) == len(paths.grid)
        assert np.max(np.abs(grid - paths.grid)) <= 1e-12
        assert np.max(np.abs(np.diff(grid) - 0.005)) <= 1e-12


@pytest.mark.parametrize("a,b,matrix", [(-1.0, 2.0, "fast matrix B"),
                                         (0.5, -2.0, "slow matrix A")])
def test_stationary_paths_refuse_a_kernel_that_does_not_decay(a, b, matrix):
    m = SlowFastModel(a=[[a]], b=[[b]], f=DriftFn.zero(1), g=DriftFn.zero(1), sigma1=1.0,
                      sigma2=1.0, epsilon=0.1, x0=[0.0], y0=[0.0])
    with pytest.raises(ValueError, match=matrix):
        sample_stationary_paths(m, 0.1, 20.0, 0.0, 0.01, np.random.default_rng(0))


def test_stationary_paths_at_epsilon_zero_ignore_a():
    # the asymptotic solve draws no slow forcing at epsilon 0, whatever A is
    m = SlowFastModel(a=[[0.5]], b=[[-2.0]], f=DriftFn.zero(1), g=DriftFn.zero(1),
                      sigma1=1.0, sigma2=1.0, epsilon=0.1, x0=[0.0], y0=[0.0])
    paths = sample_stationary_paths(m, 0.0, 5.0, 0.0, 0.01, np.random.default_rng(0))
    assert np.all(paths.eta == 0.0) and np.all(np.isfinite(paths.xi))


# -- contraction factors ----------------------------------------------------

def test_contraction_zero_case():
    m = plain_model(f=DriftFn.zero(1), g=DriftFn.zero(1))
    rho, rho_hat = contraction_factors(m, 0.0, 1.0)
    assert rho == 0.0
    assert rho_hat == 0.0


def test_contraction_reference_value():
    # eps Lf/(gamma - eps ga') + Lg/(gb - gamma) = 0.1/0.9 + 0.5 = 0.61111
    f = DriftFn.linear(fy=[[1.0]], n=1)
    g = DriftFn.linear(fy=[[0.5]], n=1)
    m = plain_model(f=f, g=g)
    rho, rho_hat = contraction_factors(m, 0.1, 1.0)
    assert rho == pytest.approx(0.1 / 0.9 + 0.5, abs=1e-12)
    lip = 0.5 / (1.0 - rho)
    assert rho_hat == pytest.approx(rho + 0.1 * 0.5 * lip / 0.9, abs=1e-12)


def test_contraction_band_validation():
    m = plain_model(g=DriftFn.linear(fy=[[0.5]], n=1))
    with pytest.raises(ValueError, match="band"):
        contraction_factors(m, 0.1, 1.6)     # above gb - Lg = 1.5
    with pytest.raises(ValueError, match="band"):
        contraction_factors(m, 0.5, 0.4)     # below eps * ga' = 0.5


def test_negative_epsilon_is_refused():
    m = tanh_benchmark()
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        contraction_factors(m, -0.05, default_gamma(m))
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        lyapunov_perron_solve(m, -0.05, [0.8], rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        tracking_check(m, -0.05, ([0.8], [0.2]), ([0.8], [0.9]), 1.0, 0.01,
                       rng=np.random.default_rng(1))


def test_contraction_uses_backward_growth_rate_of_a():
    # the backward sweep runs e^{-eps A t}, which grows at -min Re eig(A) = 3
    f = DriftFn.linear(fy=np.eye(2), n=2)
    g = DriftFn.linear(fy=0.5 * np.eye(2), n=2)
    m = SlowFastModel(a=np.diag([-1.0, -3.0]), b=-2.0 * np.eye(2), f=f, g=g,
                      sigma1=0.0, sigma2=0.0, epsilon=0.1, x0=[0.0, 0.0],
                      y0=[0.0, 0.0])
    rho, rho_hat = contraction_factors(m, 0.1, 1.0)
    assert rho == pytest.approx(0.1 / (1.0 - 0.3) + 0.5, abs=1e-12)
    lip = 0.5 / (1.0 - rho)
    assert rho_hat == pytest.approx(rho + 0.1 * 0.5 * lip / 0.7, abs=1e-12)
    with pytest.raises(ValueError, match="band"):
        contraction_factors(m, 0.1, 0.25)    # below eps * 3
    assert validate_model(m, np.random.default_rng(0)).gamma_a_rev == pytest.approx(3.0)


def test_default_gamma_centers_band():
    m = tanh_benchmark()
    assert default_gamma(m) == pytest.approx((2.0 - 0.25) / 2.0)


# -- fixed-point solver -----------------------------------------------------

def test_graph_zero_for_zero_g():
    m = plain_model(sigma2=1.0)
    sol = lyapunov_perron_solve(m, 0.1, [0.4], grid_step=0.01, t_neg=5.0,
                                rng=np.random.default_rng(4))
    assert sol.h_value[0] == 0.0
    assert sol.iterations <= 2


def test_graph_constant_g_quadrature_exact():
    m = plain_model(g=DriftFn.constant([1.0]), eps=0.05)
    sol = lyapunov_perron_solve(m, 0.05, [0.3], grid_step=0.005, t_neg=8.0,
                                tol=1e-10, rng=np.random.default_rng(5))
    assert abs(sol.h_value[0] - 0.5) < 1e-6


def test_solver_refuses_rho_ge_one():
    f = DriftFn.linear(fy=[[1.0]], n=1)
    g = DriftFn.linear(fy=[[0.9]], n=1)
    m = plain_model(f=f, g=g)
    # gamma pinned near the top of the band makes Lg/(gb-gamma) close to 1
    with pytest.raises(ValueError, match="rho"):
        lyapunov_perron_solve(m, 0.9, [0.0], gamma=1.05, grid_step=0.01,
                              t_neg=4.0, rng=np.random.default_rng(0))


def test_residual_ratios_bounded_by_rho():
    m = tanh_benchmark()
    sol = lyapunov_perron_solve(m, 0.1, [0.8], grid_step=0.005, t_neg=8.0,
                                tol=1e-10, rng=np.random.default_rng(6))
    ratios = sol.residual_ratios(floor=1e-11)
    assert ratios, "expected at least one usable residual ratio"
    assert max(ratios) <= sol.rho + 0.05


def test_solver_raises_when_it_does_not_converge():
    # no residual is below tol = 0, so every one of the 200 sweeps runs
    with pytest.raises(RuntimeError, match="did not converge in 200 sweeps"):
        lyapunov_perron_solve(tanh_benchmark(), 0.1, [0.8], t_neg=4.0, tol=0.0,
                              rng=np.random.default_rng(6))


def test_solution_invariants_and_reapplication():
    m = tanh_benchmark()
    paths = sample_stationary_paths(m, 0.1, 16.0, 0.0, 0.005,
                                    np.random.default_rng(7))
    sol = lyapunov_perron_solve(m, 0.1, [0.8], grid_step=0.005, t_neg=8.0,
                                paths=paths, tol=1e-9)
    assert sol.rho < 1.0
    assert sol.lip_bound == pytest.approx(
        0.25 / (2.0 - sol.gamma) / (1.0 - sol.rho))
    # doubling the truncation horizon moves the graph value below tol scale
    sol2 = lyapunov_perron_solve(m, 0.1, [0.8], grid_step=0.005, t_neg=16.0,
                                 paths=paths, tol=1e-9)
    assert abs(sol.h_value[0] - sol2.h_value[0]) < 1e-6
    # the converged point is a fixed point: one more sweep stays below 2 tol
    assert reapply_sweep(m, sol, paths) < 2e-9


def test_graph_lipschitz_certificate():
    m = tanh_benchmark()
    paths = sample_stationary_paths(m, 0.1, 8.0, 0.0, 0.005,
                                    np.random.default_rng(8))
    rng = np.random.default_rng(9)
    base = lyapunov_perron_solve(m, 0.1, [0.0], grid_step=0.005, t_neg=8.0,
                                 paths=paths, tol=1e-10)
    for _ in range(20):
        u0, u1 = rng.uniform(-1.5, 1.5, size=2)
        h0 = lyapunov_perron_solve(m, 0.1, [u0], grid_step=0.005, t_neg=8.0,
                                   paths=paths, tol=1e-10).h_value[0]
        h1 = lyapunov_perron_solve(m, 0.1, [u1], grid_step=0.005, t_neg=8.0,
                                   paths=paths, tol=1e-10).h_value[0]
        assert abs(h0 - h1) <= base.lip_bound * abs(u0 - u1) + 1e-9


def test_solver_matrix_case_matches_scalar():
    # diagonal 2-D system decouples into two scalar solves
    f2 = DriftFn.zero(2)
    g2 = DriftFn.constant([1.0, 0.5])
    m2 = SlowFastModel(a=np.diag([-1.0, -1.0]), b=np.diag([-2.0, -4.0]),
                       f=f2, g=g2, sigma1=0.0, sigma2=0.0, epsilon=0.05,
                       x0=[0.0, 0.0], y0=[0.0, 0.0])
    sol = lyapunov_perron_solve(m2, 0.05, [0.2, -0.1], grid_step=0.005,
                                t_neg=8.0, tol=1e-10,
                                rng=np.random.default_rng(10))
    assert abs(sol.h_value[0] - 0.5) < 1e-6
    assert abs(sol.h_value[1] - 0.125) < 1e-6


# -- asymptotic graph --------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_epsilon_zero_solve_keeps_the_slow_profile_at_u0(n):
    # at epsilon = 0 the slow argument is frozen at u0 in every row, bit for
    # bit, though f is nonzero and moves the profile at epsilon > 0
    if n == 1:
        m, u0 = tanh_benchmark(), np.array([0.8])
    else:
        m = SlowFastModel(a=[[-1.0, 0.3], [0.0, -2.0]], b=-2.0 * np.eye(2),
                          f=DriftFn.linear(fy=[[1.0, 0.5], [0.0, 1.0]], n=2),
                          g=DriftFn.linear(fx=0.2 * np.eye(2), fy=0.3 * np.eye(2), n=2),
                          sigma1=0.0, sigma2=1.0, epsilon=0.1, x0=[0.0, 0.0],
                          y0=[0.0, 0.0])
        u0 = np.array([0.7, -0.4])
    paths = sample_stationary_paths(m, 0.0, 8.0, 0.0, 0.005, np.random.default_rng(30))
    sol = lyapunov_perron_solve(m, 0.0, u0, t_neg=8.0, paths=paths)
    assert np.array_equal(sol.u, np.broadcast_to(u0, sol.u.shape))
    assert np.array_equal(asymptotic_manifold_h0(m, u0, t_neg=8.0, paths=paths),
                          sol.h_value)
    moved = lyapunov_perron_solve(m, 0.1, u0, t_neg=8.0, paths=paths).u
    assert not np.array_equal(moved, sol.u)


@pytest.mark.parametrize("t_neg, grid_step", [(5.0, 10.0), (0.002, 0.005)])
def test_solver_refuses_a_window_without_a_grid_step(t_neg, grid_step):
    # t_neg / grid_step rounds to 0 steps: the solve would run on t = 0 alone
    with pytest.raises(ValueError, match="t_neg.*grid_step"):
        lyapunov_perron_solve(plain_model(sigma2=1.0), 0.1, [0.5], grid_step=grid_step,
                              t_neg=t_neg, rng=np.random.default_rng(0))


def test_h0_zero_and_constant_cases():
    m0 = plain_model(sigma2=1.0)
    h0 = asymptotic_manifold_h0(m0, [0.7], grid_step=0.01, t_neg=6.0,
                                rng=np.random.default_rng(11))
    assert h0[0] == 0.0
    mc = plain_model(g=DriftFn.constant([1.0]))
    hc = asymptotic_manifold_h0(mc, [0.7], grid_step=0.005, t_neg=8.0,
                                rng=np.random.default_rng(11), tol=1e-10)
    assert abs(hc[0] - 0.5) < 1e-6


def test_graph_converges_to_h0_as_epsilon_shrinks():
    m = tanh_benchmark()
    paths = sample_stationary_paths(m, 0.1, 8.0, 0.0, 0.005,
                                    np.random.default_rng(12))
    h0 = asymptotic_manifold_h0(m, [0.8], grid_step=0.005, t_neg=8.0,
                                paths=paths, tol=1e-10)
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        sol = lyapunov_perron_solve(m.with_epsilon(eps), eps, [0.8],
                                    grid_step=0.005, t_neg=8.0, paths=paths,
                                    tol=1e-10)
        gaps.append(abs(sol.h_value[0] - h0[0]))
    assert gaps[0] > gaps[1] > gaps[2]


# -- exponential tracking ----------------------------------------------------

def test_tracking_identical_initial_conditions():
    m = tanh_benchmark()
    rep = tracking_check(m, 0.1, ([0.8], [0.2]), ([0.8], [0.2]), 1.0, 0.01,
                         rng=np.random.default_rng(13))
    assert np.all(rep.gap == 0.0)
    assert rep.under_envelope


def test_tracking_linear_rate_matches_gamma_b():
    m = plain_model()
    rep = tracking_check(m, 0.1, ([0.5], [0.3]), ([0.5], [0.9]), 2.0, 0.005,
                         rng=np.random.default_rng(14))
    assert abs(rep.rate_fitted - 2.0) <= 0.2
    assert rep.under_envelope


def test_tracking_tanh_rate_and_envelope():
    m = tanh_benchmark()
    sol = lyapunov_perron_solve(m, 0.1, [0.8], grid_step=0.005, t_neg=8.0,
                                rng=np.random.default_rng(15), tol=1e-10)
    rep = tracking_check(m, 0.1, ([0.8], [sol.h_value[0]]), ([0.8], [0.9]),
                         2.0, 0.005, rng=np.random.default_rng(16))
    assert rep.rate_fitted >= rep.gamma
    assert rep.under_envelope


def test_solver_non_normal_matrix_constant_drift():
    # upper-triangular B: fixed point of the graph map is -B^{-1} c exactly
    b = np.array([[-2.0, 1.0], [0.0, -3.0]])
    c = np.array([1.0, 0.6])
    m = SlowFastModel(a=-np.eye(2), b=b, f=DriftFn.zero(2),
                      g=DriftFn.constant(c), sigma1=0.0, sigma2=0.0,
                      epsilon=0.05, x0=[0.0, 0.0], y0=[0.0, 0.0])
    sol = lyapunov_perron_solve(m, 0.05, [0.2, -0.3], grid_step=0.005,
                                t_neg=8.0, tol=1e-11,
                                rng=np.random.default_rng(17))
    exact = -np.linalg.solve(b, c)
    assert np.max(np.abs(sol.h_value - exact)) < 1e-6


def test_solver_u_profile_constant_f_closed_form():
    # with f = c constant the slow fixed-point profile is
    # u(t) = e^{eps A t} u0 + A^{-1} (e^{eps A t} - I) c for t <= 0
    eps, a, c = 0.1, -1.0, 2.0
    m = SlowFastModel(a=[[a]], b=[[-2.0]], f=DriftFn.constant([c]),
                      g=DriftFn.constant([1.0]), sigma1=0.0, sigma2=0.0,
                      epsilon=eps, x0=[0.0], y0=[0.0])
    sol = lyapunov_perron_solve(m, eps, [0.5], grid_step=0.002, t_neg=8.0,
                                tol=1e-11, rng=np.random.default_rng(18))
    ts = sol.grid
    exact = np.exp(eps * a * ts) * 0.5 + (np.exp(eps * a * ts) - 1.0) * c / a
    assert np.max(np.abs(sol.u[:, 0] - exact)) < 1e-9


# -- whole-array sweep pieces against per-step references ---------------------

def _hurwitz(n, seed):
    """Matrix with every eigenvalue's real part at most -1, non-diagonal at
    n >= 2."""
    m = np.random.default_rng(seed).normal(0.0, 0.5, (n, n))
    return m - (1.0 + np.max(np.linalg.eigvals(m).real)) * np.eye(n)


def _per_step_recurrences(e_mat, c_mat, drive, terminal):
    """The sweeps' forward and backward recurrences, one grid point a step."""
    length, n = drive.shape
    fwd = np.zeros((length + 1, n))
    for k in range(length):
        fwd[k + 1] = fwd[k] @ e_mat.T + drive[k] @ c_mat.T
    bwd = np.zeros((length + 1, n))
    bwd[-1] = terminal
    for j in range(length - 1, -1, -1):
        bwd[j] = bwd[j + 1] @ e_mat.T - drive[j] @ c_mat.T
    return fwd, bwd


def _sweep_recurrences(e_mat, c_mat, drive, terminal):
    """The forward and backward recurrences as the sweeps call them."""
    return (_recurrence(e_mat, c_mat, drive, 0.0),
            _recurrence(e_mat, -c_mat, drive[::-1], terminal)[::-1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_recurrences_match_per_step_loops(n):
    b = _hurwitz(n, n)
    assert np.count_nonzero(b - np.diag(np.diag(b))) == n * (n - 1)
    e_mat, c_mat = expm(0.005 * b), _phi1(b, 0.005)
    rng = np.random.default_rng(10 + n)
    drive, terminal = rng.normal(size=(400, n)), rng.normal(size=n)
    fwd, bwd = _per_step_recurrences(e_mat, c_mat, drive, terminal)
    for got, want in zip(_sweep_recurrences(e_mat, c_mat, drive, terminal),
                         (fwd, bwd)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# lengths 0 to 2000: powers of two and their neighbours, where the doubling
# scan's last pass changes
SCAN_LENGTHS = sorted({0, 1600, 1601, 2000} | {2 ** p + d for p in range(11)
                                               for d in (-1, 0, 1)})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), length=st.one_of(st.sampled_from(SCAN_LENGTHS),
                                             st.integers(0, 2000)),
       rate=st.sampled_from([-2.0, -0.2, 0.0, 0.05]), seed=st.integers(0, 2 ** 16))
def test_scan_recurrences_match_per_step_loops(n, length, rate, seed):
    # E = e^{M dt} with top eigenvalue real part ``rate``: contracting below 0,
    # mildly expanding above (at most e^0.5 over 2000 steps)
    rng = np.random.default_rng(seed)
    mat = rng.normal(0.0, 0.5, (n, n))
    mat -= (np.max(np.linalg.eigvals(mat).real) - rate) * np.eye(n)
    e_mat, c_mat = expm(0.005 * mat), 0.005 * rng.normal(size=(n, n))
    drive, terminal = rng.normal(size=(length, n)), rng.normal(size=n)
    fwd, bwd = _per_step_recurrences(e_mat, c_mat, drive, terminal)
    for got, want in zip(_sweep_recurrences(e_mat, c_mat, drive, terminal),
                         (fwd, bwd)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= \
            1e-12 * np.max(np.abs(want), initial=0.0)


def test_import_leaves_scipy_signal_out():
    # one recurrence serves every dimension, so no linear filter is imported
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, slowfast; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
