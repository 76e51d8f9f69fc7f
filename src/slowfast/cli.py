"""Command-line entry point: wire JSON configs to experiments and reports.

This is the one module that knows the config format and the artifact
formats; the library returns results and this module writes their fields.
Subcommands: validate | simulate | average | manifold | deviate | verify.
Every command but ``verify`` builds the model from the config's ``model``
block and validates it first, then runs on its own block.  Config blocks
are JSON objects.
Exit codes: 0 ok, 1 usage, config, I/O or run error (one line on stderr),
2 assumption-validation failure, 3 verification failure.  Artifacts land in the output directory as
``<command>-<timestamp>-<seed>.{csv,json}``; identical config and seed give
byte-identical file contents.  Every verification line is printed as
``PASS|FAIL <criterion> <value> <tolerance>`` with the claim named in the
criterion id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import benchmarks
from .averaging import (DELTA_RULE, build_averaged, estimate_fbar, mixing_diagnostic,
                        simulate_averaged, strong_error_experiment)
from .deviation import (autocovariance_kernel, build_deviation_model,
                        diffusion_matrix, matrix_sqrt_psd, simulate_deviation,
                        weak_limit_report)
from .integrator import default_step, make_grid, simulate_slow_fast
from .manifold import lyapunov_perron_solve, tracking_check
from .model import DriftFn, JumpSpec, SizeDist, SlowFastModel, parse_drift, validate_model
from .noise import ROLE_DEV, ROLE_SLOW, sample_increments, substream


class UsageError(Exception):
    pass


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _block(parent, key, default=None):
    """``parent[key]``, which must be a JSON object; ``default`` when the key
    is absent and a default is given."""
    if default is not None and key not in parent:
        return default
    value = parent[key]
    if not isinstance(value, dict):
        raise _ConfigError(f"{key} must be a JSON object, not {value!r}")
    return value


def _drift_from_config(block, n):
    kind = block.get("kind", "expr")
    if kind == "zero":
        return DriftFn.zero(n)
    if kind == "constant":
        return DriftFn.constant(block["value"])
    if kind == "linear":
        return DriftFn.linear(fx=block.get("fx"), fy=block.get("fy"),
                              const=block.get("const"), n=n)
    if kind == "saturating":
        return DriftFn.saturating(block["amp"], gx=block.get("gx"),
                                  gy=block.get("gy"))
    if kind == "expr":
        return parse_drift(block["components"], n, lip=block.get("lip"),
                           growth=block.get("growth"))
    raise _ConfigError(f"unknown drift kind {kind!r}")


def _jump_from_config(blk, key):
    if blk.get(key) is None:
        return None
    block = _block(blk, key)
    size = _block(block, "size")
    if size["kind"] == "uniform":
        dist = SizeDist.uniform(size["low"], size["high"])
    elif size["kind"] == "atoms":
        dist = SizeDist.atoms(size["values"], size.get("probs"))
    else:
        raise _ConfigError(f"unknown jump size kind {size['kind']!r}")
    return JumpSpec(block["intensity"], dist)


def model_from_config(cfg):
    blk = _block(cfg, "model")
    n = int(blk.get("dim", len(np.atleast_2d(blk["a"]))))
    return SlowFastModel(
        a=blk["a"], b=blk["b"],
        f=_drift_from_config(_block(blk, "f"), n),
        g=_drift_from_config(_block(blk, "g"), n),
        sigma1=blk.get("sigma1", 0.0), sigma2=blk.get("sigma2", 0.0),
        jump_slow=_jump_from_config(blk, "jump_slow"),
        jump_fast=_jump_from_config(blk, "jump_fast"),
        epsilon=blk.get("epsilon", 1.0),
        x0=blk.get("x0"), y0=blk.get("y0"))


def _artifact(out_dir, command, seed, ext):
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{command}-{stamp}-{seed}{ext}")


def _report(obj, out_dir, command, seed):
    """Write ``obj`` as the command's JSON artifact and print it on one line;
    a NaN or infinity, not JSON, raises ValueError before any file is written."""
    line = json.dumps(obj, allow_nan=False)
    with open(_artifact(out_dir, command, seed, ".json"), "w") as fh:
        json.dump(obj, fh, indent=2)
    print(line)


def _write_csv(path_or_buf, header, rows):
    """Comma-separated rows at full double precision under one header line."""
    np.savetxt(path_or_buf, rows, fmt="%.17g", delimiter=",", header=header,
               comments="")


def _trajectory_csv(path_or_buf, traj, label):
    header = "t," + ",".join(f"{label}{i + 1}" for i in range(traj.n))
    _write_csv(path_or_buf, header, np.column_stack([traj.grid, traj.states]))


def _fields(result, names):
    """The named fields of a result in the order named, arrays as lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k in names.split() for v in [getattr(result, k)]}


def _simulate(m, blk, seed, out_dir):
    t_end = float(blk.get("t_end", 1.0))
    dt = float(blk.get("dt", default_step(t_end, m.epsilon)))
    x, y = simulate_slow_fast(m, t_end, dt, substream(seed, 0, 0))
    px = _artifact(out_dir, "simulate", seed, "-x.csv")
    py = _artifact(out_dir, "simulate", seed, "-y.csv")
    _trajectory_csv(px, x, "x")
    _trajectory_csv(py, y, "y")
    print(json.dumps({"x_csv": px, "y_csv": py, "diverged": x.diverged}))
    return 0


def _average(m, blk, seed, out_dir):
    rng = np.random.default_rng(seed)
    # the strong-error run goes first, so that its argument checks refuse a
    # bad config before the fbar and mixing work; it draws from its own
    # substreams, not from rng
    rate = None
    if blk.get("epsilons"):
        rate = strong_error_experiment(
            m, blk["epsilons"], blk.get("delta_rule", DELTA_RULE),
            t_end=float(blk.get("t_end", 1.0)),
            n_paths=int(blk.get("n_paths_rate", 200)), master_seed=seed)
    x_point = np.asarray(blk.get("x", m.x0.tolist()), dtype=float)
    est = estimate_fbar(m, x_point, burn_in=blk.get("burn_in"),
                        horizon=float(blk.get("horizon", 60.0)),
                        dt=float(blk.get("dt", 0.005)), rng=rng)
    mix = mixing_diagnostic(m, x_point, blk.get("y_list", [2.0 * np.ones(m.n)]),
                            t_end=float(blk.get("t_mix", 2.5)),
                            dt=float(blk.get("dt_mix", 0.005)),
                            n_paths=int(blk.get("n_paths", 1000)), rng=rng)
    out = {"fbar": est.value.tolist(), "fbar_stderr": est.stderr.tolist(),
           "mixing": {**_fields(mix, "eta_declared eta_empirical n_paths"),
                      "curve": [{"t": float(t), "deviation": float(d)}
                                for t, d in zip(mix.times, mix.deviations)]}}
    # no fit, NaN in the library, is written null: fewer than three curve
    # points above the noise floor, or errors that are all 0
    if np.isnan(mix.eta_empirical):
        out["mixing"]["eta_empirical"] = None
    if rate is not None:
        out["rate"] = {**_fields(rate, "epsilons delta_rule deltas errors stderrs "
                                       "slope intercept"),
                       "ci": [rate.ci_low, rate.ci_high],
                       **_fields(rate, "n_paths diverged flagged")}
        if np.isnan(rate.slope):
            out["rate"].update(slope=None, intercept=None, ci=None)
    _report(out, out_dir, "average", seed)
    if rate is not None:
        _write_csv(_artifact(out_dir, "average", seed, "-rate.csv"),
                   "epsilon,error,stderr",
                   np.column_stack([rate.epsilons, rate.errors, rate.stderrs]))
    _write_csv(_artifact(out_dir, "average", seed, "-mixing.csv"), "t,deviation",
               np.column_stack([mix.times, mix.deviations]))
    return 0


def _manifold(m, blk, seed, out_dir):
    sol = lyapunov_perron_solve(
        m, m.epsilon, blk.get("u0", m.x0.tolist()),
        gamma=blk.get("gamma"), grid_step=float(blk.get("grid_step", 0.005)),
        tol=float(blk.get("tol", 1e-9)), t_neg=blk.get("t_neg"),
        rng=np.random.default_rng(seed))
    _report(_fields(sol, "u0 epsilon gamma h_value rho rho_hat lip_bound "
                         "iterations residuals t_neg converged"),
            out_dir, "manifold", seed)
    n = sol.u.shape[-1]
    header = ("t," + ",".join(f"u{i+1}" for i in range(n)) + ","
              + ",".join(f"v{i+1}" for i in range(n)))
    _write_csv(_artifact(out_dir, "manifold", seed, "-profile.csv"), header,
               np.column_stack([sol.grid, sol.u, sol.v]))
    return 0


def _deviate(m, blk, seed, out_dir):
    # every value is read and checked, and every result computed, before the
    # first artifact is written
    t_end = float(blk.get("t_end", 1.0))
    dt = float(blk.get("dt_theta", 1e-3))
    grid = make_grid(t_end, dt)
    rng = np.random.default_rng(seed)
    am = build_averaged(m, table_axes=blk.get("table_axes"), rng=rng)
    x_point = np.asarray(blk.get("x", m.x0.tolist()), dtype=float)
    k = None
    if "htilde_override" in blk:
        htilde = np.atleast_2d(np.asarray(blk["htilde_override"], dtype=float))
    else:
        lag_step = float(blk.get("lag_step", 0.05))
        if not 0 < lag_step < np.inf:
            raise ValueError(f"lag_step must be positive and finite, not {lag_step}")
        lags = np.arange(0.0, float(blk.get("s_max", 5.0)) + 1e-12, lag_step)
        k = autocovariance_kernel(
            m, x_point, lags, burn_in=float(blk.get("burn_in", 5.0)),
            horizon=float(blk.get("horizon", 505.0)),
            dt=float(blk.get("dt", 0.01)), rng=rng,
            n_replicas=int(blk.get("n_replicas", 24)))
        htilde = diffusion_matrix(k)
    dm = build_deviation_model(am, htilde, x=x_point)
    slow = sample_increments(m.n, grid, substream(seed, 0, ROLE_SLOW), jump=m.jump_slow)
    x_path = simulate_averaged(am, t_end, dt, slow)
    theta = simulate_deviation(dm, x_path, t_end, dt, substream(seed, 0, ROLE_DEV))
    _report({"a": dm.a.tolist(), "fbar_deriv": dm.deriv_const.tolist(),
             "htilde": dm.htilde_const.tolist()}, out_dir, "deviate", seed)
    if k is not None:
        n = k.h.shape[-1]
        names = [f"H_{i+1}{j+1}" for i in range(n) for j in range(n)]
        errs = [f"stderr_{i+1}{j+1}" for i in range(n) for j in range(n)]
        _write_csv(_artifact(out_dir, "deviate", seed, "-kernel.csv"),
                   ",".join(["s"] + names + errs),
                   np.column_stack([k.lags, k.h.reshape(-1, n * n),
                                    k.stderr.reshape(-1, n * n)]))
    _trajectory_csv(_artifact(out_dir, "deviate", seed, "-theta.csv"), theta, "theta")
    return 0


def _verify(seed):
    """Desk-scale reproduction of the convergence and deviation claims."""
    failures = []

    def line(ok, criterion, value, tol):
        print(f"{'PASS' if ok else 'FAIL'} {criterion} {value:.6g} {tol:.6g}")
        if not ok:
            failures.append(criterion)

    rng = np.random.default_rng(seed)

    mb = benchmarks.linear_benchmark()
    est = estimate_fbar(mb, [1.0], horizon=150.0, dt=0.005, rng=rng)
    tol = 3.0 * max(float(est.stderr[0]), 1e-12)
    line(abs(float(est.value[0])) <= tol,
         "averaging.fbar-linear-zero", float(est.value[0]), tol)

    mix = mixing_diagnostic(mb, [1.0], [np.array([2.0])], 2.5, 0.005, 2000, rng)
    line(abs(mix.eta_empirical - 2.0) <= 0.3,
         "averaging.mixing-rate", mix.eta_empirical, 0.3)

    lags = np.arange(0.0, 5.0 + 1e-12, 0.05)
    kernel = autocovariance_kernel(mb, [1.0], lags, 5.0, 1005.0, 0.01, rng)
    # the Euler-stepped OU state y <- (1 - 2 dt) y + dW has stationary
    # variance 1 / (4 - 4 dt), not the continuous-time 1/4
    euler_var = 1.0 / (4.0 - 4.0 * 0.01)
    line(abs(kernel.h[0, 0, 0] - euler_var) <= 3 * kernel.stderr[0, 0, 0],
         "deviation.kernel-variance", float(kernel.h[0, 0, 0]),
         3 * float(kernel.stderr[0, 0, 0]))
    htilde = diffusion_matrix(kernel)
    line(abs(htilde[0, 0] - 0.25) <= 0.05 * 0.25,
         "deviation.diffusion-matrix", float(htilde[0, 0]), 0.0125)

    mg = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=DriftFn.zero(1),
                       g=DriftFn.constant([1.0]), sigma1=0.0, sigma2=0.0,
                       epsilon=0.05, x0=[0.0], y0=[0.0])
    sol = lyapunov_perron_solve(mg, 0.05, [0.3], grid_step=0.005, t_neg=8.0,
                                tol=1e-10, rng=np.random.default_rng(seed))
    line(abs(float(sol.h_value[0]) - 0.5) <= 1e-6,
         "manifold.constant-graph", float(sol.h_value[0]) - 0.5, 1e-6)

    ml = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=DriftFn.zero(1),
                       g=DriftFn.zero(1), sigma1=0.0, sigma2=0.0,
                       epsilon=0.1, x0=[0.0], y0=[0.0])
    tr = tracking_check(ml, 0.1, ([0.5], [0.3]), ([0.5], [0.9]), 2.0, 0.005,
                        rng=np.random.default_rng(seed))
    line(abs(tr.rate_fitted - 2.0) <= 0.2,
         "manifold.tracking-rate", tr.rate_fitted, 0.2)

    spd = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = matrix_sqrt_psd(spd)
    err = float(np.max(np.abs(s @ s.T - spd)))
    line(err < 1e-10, "infra.sqrt-reconstruction", err, 1e-10)

    mw = benchmarks.linear_benchmark(epsilon=1e-2)
    am = build_averaged(mw)
    dm = build_deviation_model(am, np.array([[0.25]]))
    rep = weak_limit_report(mw, am, dm, 1.0, 1e-3, 2000, seed)
    line(bool(rep.passed), "deviation.weak-limit-marginal",
         float(rep.cdf_distance[0]), rep.critical_value)

    return 3 if failures else 0


# the commands past validation: each runs on the validated model and its
# config block
_RUNNERS = {"simulate": _simulate, "average": _average, "manifold": _manifold,
            "deviate": _deviate}


def _fail(prefix, message):
    """Exit status 1, after one ``<prefix>: <message>`` line on stderr."""
    print(f"{prefix}: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = _Parser(prog="slowfast", description=__doc__)
    parser.add_argument("command", choices=sorted(["validate", "verify", *_RUNNERS]))
    parser.add_argument("--config", required=False, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        return _fail("usage error", exc)

    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return _fail("config error", exc)
    elif args.command != "verify":
        return _fail("usage error", "--config is required for this command")
    if not isinstance(cfg, dict):
        return _fail("config error", "the config must be a JSON object")

    if args.seed is not None:
        seed = args.seed
    elif "SEED" in os.environ:
        try:
            seed = int(os.environ["SEED"])
        except ValueError:
            return _fail("usage error",
                         f"SEED must be an integer, not {os.environ['SEED']!r}")
    else:
        seed = cfg.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            return _fail("config error", f"seed must be an integer, not {seed!r}")
    out_dir = args.out if args.out is not None else cfg.get("out", "artifacts")

    try:
        if args.command == "verify":
            return _verify(seed)
        m = model_from_config(cfg)
        report = validate_model(m, rng=np.random.default_rng(seed))
        if args.command == "validate" or not report.passed:
            out = _fields(report, "gamma_a gamma_a_rev gamma_b lip_f_probe "
                                  "lip_g_probe passed")
            # a probe that met a non-finite drift value has no estimate
            for key in ("lip_f_probe", "lip_g_probe"):
                out[key] = out[key] if np.isfinite(out[key]) else None
            out["checks"] = [{"id": c.check_id, "status": c.status,
                              "detail": c.detail} for c in report.checks]
            print(json.dumps(out, indent=2, allow_nan=False))
            return 0 if report.passed else 2
        return _RUNNERS[args.command](m, _block(cfg, args.command, {}), seed, out_dir)
    except _ConfigError as exc:
        return _fail("config error", exc)
    except (KeyError, TypeError, ValueError, OSError, RuntimeError, ArithmeticError,
            MemoryError) as exc:
        # RuntimeError: non-convergence, divergence or a failed worker
        return _fail("error", exc)


if __name__ == "__main__":
    sys.exit(main())
