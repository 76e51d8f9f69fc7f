"""The two benchmark workloads, each a closed loop of one batch job.

A workload is a pair of functions: ``setup`` builds and validates the model
(timed as set-up), ``run`` makes every call into ``slowfast`` and checks the
outputs (timed as ``wall_s``).  ``run`` derives all of its randomness from
the seed, so two calls with one seed return identical statistics.

Each workload states its path-step count (one explicit step of one path)
from its fixed parameters; ``path_steps_per_s`` divides that count by the
measured time.  Lyapunov-Perron sweeps are fixed-point iterations, not
explicit steps, and are counted by the trace as ``manifold.sweeps``.

Every statistical gate is set so that a correct program fails it on one
seed with probability at most ``FALSE_ALARM``.  The tolerances of
``tests/test_acceptance.py`` (3 standard errors, a CDF test at level 0.01)
suit one fixed seed; at those tolerances a correct program fails
one benchmark run in 25 to 40, and the benchmark is run at many seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

import slowfast as sf
from slowfast import cli

# limit fluctuation variance of the linear model at t = 1 (tests/test_acceptance.py)
THETA_VAR_1 = 0.125 * (1.0 - np.exp(-2.0))
# substream role of the benchmark's own generators, clear of slowfast's roles
ROLE_BENCH = 10
LEVY_TANH_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "levy_tanh.json")

FALSE_ALARM = 1e-6
# two-sided gate on a normal statistic: 4.89 standard errors
Z_GATE = float(stats.norm.isf(FALSE_ALARM / 2))
# estimate_fbar takes its standard error from 16 batch means: Student t with
# 15 degrees of freedom, 7.90 standard errors
T_GATE_FBAR = float(stats.t.isf(FALSE_ALARM / 2, 16 - 1))


@dataclass
class Outcome:
    """Checks of one workload run: (name, passed, value, tolerance) each."""

    checks: list = field(default_factory=list)
    stats: list = field(default_factory=list)

    def check(self, name, ok, value, tol):
        value, tol = float(value), float(tol)
        self.checks.append((name, bool(ok), value, tol))
        self.stats.append(value)


def _steps(t_end, dt):
    return int(round(t_end / dt))


# --- weak-limit: acceptance criterion 5 at full scale ---------------------

def weak_limit_setup(seed, p):
    m = sf.linear_benchmark(epsilon=1e-3)
    report = sf.validate_model(m, rng=np.random.default_rng(seed))
    return {"seed": seed, "model": m, "valid": report.passed, "p": p}


def weak_limit_run(state):
    m, p = state["model"], state["p"]
    out = Outcome()
    out.check("model.validates", state["valid"], 0.0, 0.0)
    am = sf.build_averaged(m)
    dm = sf.build_deviation_model(am, np.array([[0.25]]))
    rep = sf.weak_limit_report(m, am, dm, 1.0, 1e-4, p["paths"],
                               master_seed=state["seed"], dt_limit=1e-3,
                               alpha=FALSE_ALARM)
    # criterion 5's gates of tests/test_acceptance.py, at FALSE_ALARM
    mean, mean_tol = float(rep.theta_mean[0]), Z_GATE * float(rep.theta_mean_se[0])
    out.check("deviation.weak-limit-mean", abs(mean) <= mean_tol, mean, mean_tol)
    var_gap = float(rep.theta_var[0]) - THETA_VAR_1
    var_tol = Z_GATE * float(rep.theta_var_se[0])
    out.check("deviation.weak-limit-variance", abs(var_gap) <= var_tol, var_gap, var_tol)
    dist = float(rep.cdf_distance[0])
    out.check("deviation.weak-limit-cdf", dist < rep.critical_value, dist,
              rep.critical_value)
    return out


def weak_limit_path_steps(p):
    return (_steps(1.0, 1e-4) * p["paths"]        # coupled full/averaged paths
            + _steps(1.0, 1e-3) * p["paths"])     # limit SDE paths


# --- levy-tanh: nonlinear 2-D model with jumps ----------------------------

def levy_tanh_model():
    with open(LEVY_TANH_CONFIG) as fh:
        return cli.model_from_config(json.load(fh))


def levy_tanh_setup(seed, p):
    m = levy_tanh_model()
    report = sf.validate_model(m, rng=np.random.default_rng(seed))
    return {"seed": seed, "model": m, "valid": report.passed, "p": p}


def levy_tanh_run(state):
    m, p, seed = state["model"], state["p"], state["seed"]
    out = Outcome()
    out.check("model.validates", state["valid"], 0.0, 0.0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", "--config", LEVY_TANH_CONFIG, "--seed", str(seed)])
    report = json.loads(buf.getvalue())
    out.check("cli.validate", code == 0 and report["passed"] is True, code, 0)

    def rng(i):
        return sf.substream(seed, i, ROLE_BENCH)

    axis = np.linspace(-1.5, 1.5, 3)
    am = sf.build_averaged(m, table_axes=[axis, axis], rng=rng(0),
                           horizon=p["table_horizon"])

    # odd symmetry of f, g and the noise makes fbar(0) = 0 exactly
    est = sf.estimate_fbar(m, [0.0, 0.0], horizon=p["table_horizon"], rng=rng(1))
    for i in range(2):
        tol = T_GATE_FBAR * float(est.stderr[i])
        out.check(f"averaging.fbar-zero-{i + 1}", abs(est.value[i]) <= tol,
                  est.value[i], tol)

    mix = sf.mixing_diagnostic(m, m.x0, [np.array([1.5, -1.5])], 2.5, 0.005,
                               p["mix_paths"], rng(2), fbar_value=am.fbar(m.x0))
    out.stats.append(float(mix.eta_empirical))

    lags = np.arange(0.0, p["s_max"] + 1e-12, 0.05)
    kernel = sf.autocovariance_kernel(m, m.x0, lags, 3.0, 3.0 + 100.0 * p["s_max"],
                                      0.01, rng(3), n_replicas=24)
    out.check("deviation.kernel-decayed", kernel.decayed, kernel.h[-1, 0, 0],
              kernel.stderr[-1, 0, 0])

    rate = sf.strong_error_experiment(m, p["epsilons"], "eps**(2/3)", 1.0,
                                      p["rate_paths"], seed, am=am)
    out.check("averaging.rate-unflagged", not rate.flagged, len(rate.flagged), 0)
    out.check("averaging.rate-diverged", int(rate.diverged.sum()) == 0,
              rate.diverged.sum(), 0)
    out.stats.append(float(rate.slope))

    paths = sf.sample_stationary_paths(m, m.epsilon, 8.0, 0.0, 0.005, rng(4))
    sol = sf.lyapunov_perron_solve(m, m.epsilon, m.x0, grid_step=0.005,
                                   t_neg=8.0, paths=paths, tol=1e-9)
    # the solver raises when it does not converge
    worst_ratio = max(sol.residual_ratios(floor=1e-8))
    out.check("manifold.residual-contraction", worst_ratio <= sol.rho + 0.05,
              worst_ratio, sol.rho + 0.05)
    pairs = rng(5).uniform(-1.5, 1.5, size=(p["lip_pairs"], 2, 2))
    worst = -np.inf
    for u0, u1 in pairs:
        h0 = sf.lyapunov_perron_solve(m, m.epsilon, u0, grid_step=0.005,
                                      t_neg=8.0, paths=paths, tol=1e-10)
        h1 = sf.lyapunov_perron_solve(m, m.epsilon, u1, grid_step=0.005,
                                      t_neg=8.0, paths=paths, tol=1e-10)
        worst = max(worst, float(np.linalg.norm(h0.h_value - h1.h_value)
                                 - sol.lip_bound * np.linalg.norm(u0 - u1)))
    out.check("manifold.lipschitz-certificate", worst <= 1e-9, worst, 1e-9)

    def task(task_rng, index):
        x, _ = sf.simulate_slow_fast(m, 1.0, 0.005, task_rng)
        return x.states[-1]

    ens = sf.run_ensemble(task, p["ensemble_paths"], seed, task_id="levy-tanh")
    out.check("harness.ensemble-diverged", ens.diverged == 0, ens.diverged, 0)
    out.stats.extend(float(v) for v in ens.outputs.mean(axis=0))
    return out


def levy_tanh_path_steps(p):
    table = 9 * _steps(p["table_horizon"], 0.005)        # tabulated fbar nodes
    fbar0 = _steps(p["table_horizon"], 0.005)
    mixing = _steps(2.5, 0.005) * p["mix_paths"]
    kernel = _steps(3.0 + 100.0 * p["s_max"], 0.01) * 24
    rate = sum(_steps(1.0, e / 10.0) for e in p["epsilons"]) * p["rate_paths"]
    ensemble = _steps(1.0, 0.005) * p["ensemble_paths"]
    return table + fbar0 + mixing + kernel + rate + ensemble


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    path_steps: object
    params: dict                  # scale name -> parameters


WORKLOADS = {w.name: w for w in (
    Workload("weak-limit", weak_limit_setup, weak_limit_run, weak_limit_path_steps,
             {"full": {"paths": 10000}, "smoke": {"paths": 1000}}),
    Workload("levy-tanh", levy_tanh_setup, levy_tanh_run, levy_tanh_path_steps,
             {"full": {"table_horizon": 40.0, "mix_paths": 1000, "s_max": 3.0,
                       "epsilons": (0.08, 0.04, 0.02, 0.01), "rate_paths": 200,
                       "lip_pairs": 3, "ensemble_paths": 200},
              "smoke": {"table_horizon": 10.0, "mix_paths": 200, "s_max": 3.0,
                        "epsilons": (0.08, 0.04, 0.02), "rate_paths": 100,
                        "lip_pairs": 1, "ensemble_paths": 40}}),
)}
