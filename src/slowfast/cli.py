"""Command-line entry point: wire JSON configs to experiments and reports.

Subcommands: validate | simulate | average | manifold | deviate | verify.
Exit codes: 0 ok, 1 usage or I/O error, 2 assumption-validation failure,
3 verification failure.  Artifacts land in the output directory as
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
from .averaging import (build_averaged, estimate_fbar, mixing_diagnostic,
                        simulate_averaged, strong_error_experiment)
from .deviation import (autocovariance_kernel, build_deviation_model,
                        diffusion_matrix, matrix_sqrt_psd, simulate_deviation,
                        weak_limit_report)
from .integrator import make_grid, simulate_slow_fast
from .manifold import lyapunov_perron_solve, tracking_check
from .model import DriftFn, JumpSpec, SizeDist, SlowFastModel, validate_model
from .noise import sample_increments, substream


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _drift_from_config(block, n):
    kind = block.get("kind", "expr")
    lip = block.get("lip")
    growth = block.get("growth")
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
        return DriftFn.from_expressions(block["components"], n, lip=lip,
                                        growth=growth)
    raise UsageError(f"unknown drift kind {kind!r}")


def _jump_from_config(block):
    if block is None:
        return None
    size = block["size"]
    if size["kind"] == "uniform":
        dist = SizeDist.uniform(size["low"], size["high"])
    elif size["kind"] == "atoms":
        dist = SizeDist.atoms(size["values"], size.get("probs"))
    else:
        raise UsageError(f"unknown jump size kind {size['kind']!r}")
    return JumpSpec(block["intensity"], dist)


def model_from_config(cfg):
    blk = cfg["model"]
    n = int(blk.get("dim", len(np.atleast_2d(blk["a"]))))
    return SlowFastModel(
        a=blk["a"], b=blk["b"],
        f=_drift_from_config(blk["f"], n),
        g=_drift_from_config(blk["g"], n),
        sigma1=blk.get("sigma1", 0.0), sigma2=blk.get("sigma2", 0.0),
        jump_slow=_jump_from_config(blk.get("jump_slow")),
        jump_fast=_jump_from_config(blk.get("jump_fast")),
        epsilon=blk.get("epsilon", 1.0),
        x0=blk.get("x0"), y0=blk.get("y0"))


def _artifact(out_dir, command, seed, ext):
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"{command}-{stamp}-{seed}{ext}")


class _Checks:
    def __init__(self):
        self.failures = 0

    def line(self, ok, criterion, value, tol):
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        print(f"{status} {criterion} {value:.6g} {tol:.6g}")


def cmd_validate(cfg, seed, out_dir, workers):
    m = model_from_config(cfg)
    report = validate_model(m, rng=np.random.default_rng(seed))
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 2


def _require_valid(m, seed):
    report = validate_model(m, rng=np.random.default_rng(seed))
    if not report.passed:
        print(json.dumps(report.to_json(), indent=2))
        return False
    return True


def cmd_simulate(cfg, seed, out_dir, workers):
    m = model_from_config(cfg)
    if not _require_valid(m, seed):
        return 2
    blk = cfg.get("simulate", {})
    t_end = float(blk.get("t_end", 1.0))
    dt = float(blk.get("dt", m.epsilon / 10.0))
    x, y = simulate_slow_fast(m, t_end, dt, substream(seed, 0, 0), seed_tag=seed)
    px = _artifact(out_dir, "simulate", seed, "-x.csv")
    py = _artifact(out_dir, "simulate", seed, "-y.csv")
    x.to_csv(px, label="x")
    y.to_csv(py, label="y")
    print(json.dumps({"x_csv": px, "y_csv": py, "diverged": x.diverged}))
    return 0


def cmd_average(cfg, seed, out_dir, workers):
    m = model_from_config(cfg)
    if not _require_valid(m, seed):
        return 2
    blk = cfg.get("average", {})
    rng = np.random.default_rng(seed)
    x_point = np.asarray(blk.get("x", m.x0.tolist()), dtype=float)
    est = estimate_fbar(m, x_point, burn_in=blk.get("burn_in"),
                        horizon=float(blk.get("horizon", 60.0)),
                        dt=float(blk.get("dt", 0.005)), rng=rng)
    mix = mixing_diagnostic(m, x_point, blk.get("y_list", [2.0 * np.ones(m.n)]),
                            t_end=float(blk.get("t_mix", 2.5)),
                            dt=float(blk.get("dt_mix", 0.005)),
                            n_paths=int(blk.get("n_paths", 1000)), rng=rng)
    out = {"fbar": est.value.tolist(), "fbar_stderr": est.stderr.tolist(),
           "mixing": mix.to_json()}
    if blk.get("epsilons"):
        report = strong_error_experiment(
            m, blk["epsilons"], blk.get("delta_rule", "eps**(2/3)"),
            t_end=float(blk.get("t_end", 1.0)),
            n_paths=int(blk.get("n_paths_rate", 200)), master_seed=seed)
        out["rate"] = report.to_json()
        report.curve_to_csv(_artifact(out_dir, "average", seed, "-rate.csv"))
    mix.curve_to_csv(_artifact(out_dir, "average", seed, "-mixing.csv"))
    path = _artifact(out_dir, "average", seed, ".json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
    print(json.dumps(out))
    return 0


def cmd_manifold(cfg, seed, out_dir, workers):
    m = model_from_config(cfg)
    if not _require_valid(m, seed):
        return 2
    blk = cfg.get("manifold", {})
    sol = lyapunov_perron_solve(
        m, m.epsilon, blk.get("u0", m.x0.tolist()),
        gamma=blk.get("gamma"), grid_step=float(blk.get("grid_step", 0.005)),
        tol=float(blk.get("tol", 1e-9)), t_neg=blk.get("t_neg"),
        rng=np.random.default_rng(seed))
    sol.profile_to_csv(_artifact(out_dir, "manifold", seed, "-profile.csv"))
    path = _artifact(out_dir, "manifold", seed, ".json")
    with open(path, "w") as fh:
        json.dump(sol.to_json(), fh, indent=2)
    print(json.dumps(sol.to_json()))
    return 0


def cmd_deviate(cfg, seed, out_dir, workers):
    m = model_from_config(cfg)
    if not _require_valid(m, seed):
        return 2
    blk = cfg.get("deviate", {})
    rng = np.random.default_rng(seed)
    am = build_averaged(m, table_axes=blk.get("table_axes"), rng=rng)
    x_point = np.asarray(blk.get("x", m.x0.tolist()), dtype=float)
    if "htilde_override" in blk:
        htilde = np.atleast_2d(np.asarray(blk["htilde_override"], dtype=float))
        kernel = None
    else:
        lags = np.arange(0.0, float(blk.get("s_max", 5.0)) + 1e-12,
                         float(blk.get("lag_step", 0.05)))
        kernel = autocovariance_kernel(
            m, x_point, lags, burn_in=float(blk.get("burn_in", 5.0)),
            horizon=float(blk.get("horizon", 505.0)),
            dt=float(blk.get("dt", 0.01)), rng=rng,
            n_replicas=int(blk.get("n_replicas", 24)))
        kernel.to_csv(_artifact(out_dir, "deviate", seed, "-kernel.csv"))
        htilde = diffusion_matrix(kernel)
    dm = build_deviation_model(am, htilde, x=x_point)
    t_end = float(blk.get("t_end", 1.0))
    dt = float(blk.get("dt_theta", 1e-3))
    slow = sample_increments(m.n, make_grid(t_end, dt),
                             np.random.default_rng(seed + 1), jump=m.jump_slow)
    x_path = simulate_averaged(am, t_end, dt, slow)
    theta = simulate_deviation(dm, x_path, t_end, dt, np.random.default_rng(seed + 2))
    theta.to_csv(_artifact(out_dir, "deviate", seed, "-theta.csv"), label="theta")
    path = _artifact(out_dir, "deviate", seed, ".json")
    with open(path, "w") as fh:
        json.dump(dm.to_json(), fh, indent=2)
    print(json.dumps(dm.to_json()))
    return 0


def cmd_verify(cfg, seed, out_dir, workers):
    """Desk-scale reproduction of the convergence and deviation claims."""
    checks = _Checks()
    rng = np.random.default_rng(seed)

    mb = benchmarks.linear_benchmark()
    est = estimate_fbar(mb, [1.0], horizon=150.0, dt=0.005, rng=rng)
    tol = 3.0 * max(float(est.stderr[0]), 1e-12)
    checks.line(abs(float(est.value[0])) <= tol,
                "averaging.fbar-linear-zero", float(est.value[0]), tol)

    mix = mixing_diagnostic(mb, [1.0], [np.array([2.0])], 2.5, 0.005, 2000, rng)
    checks.line(abs(mix.eta_empirical - 2.0) <= 0.3,
                "averaging.mixing-rate", mix.eta_empirical, 0.3)

    lags = np.arange(0.0, 5.0 + 1e-12, 0.05)
    kernel = autocovariance_kernel(mb, [1.0], lags, 5.0, 1005.0, 0.01, rng)
    checks.line(abs(kernel.h[0, 0, 0] - 0.25) <= 3 * kernel.stderr[0, 0, 0],
                "deviation.kernel-variance", float(kernel.h[0, 0, 0]),
                3 * float(kernel.stderr[0, 0, 0]))
    htilde = diffusion_matrix(kernel)
    checks.line(abs(htilde[0, 0] - 0.25) <= 0.05 * 0.25,
                "deviation.diffusion-matrix", float(htilde[0, 0]), 0.0125)

    mg = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=DriftFn.zero(1),
                       g=DriftFn.constant([1.0]), sigma1=0.0, sigma2=0.0,
                       epsilon=0.05, x0=[0.0], y0=[0.0])
    sol = lyapunov_perron_solve(mg, 0.05, [0.3], grid_step=0.005, t_neg=8.0,
                                tol=1e-10, rng=np.random.default_rng(seed))
    checks.line(abs(float(sol.h_value[0]) - 0.5) <= 1e-6,
                "manifold.constant-graph", float(sol.h_value[0]) - 0.5, 1e-6)

    ml = SlowFastModel(a=[[-1.0]], b=[[-2.0]], f=DriftFn.zero(1),
                       g=DriftFn.zero(1), sigma1=0.0, sigma2=0.0,
                       epsilon=0.1, x0=[0.0], y0=[0.0])
    tr = tracking_check(ml, 0.1, ([0.5], [0.3]), ([0.5], [0.9]), 2.0, 0.005,
                        rng=np.random.default_rng(seed))
    checks.line(abs(tr.rate_fitted - 2.0) <= 0.2,
                "manifold.tracking-rate", tr.rate_fitted, 0.2)

    spd = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = matrix_sqrt_psd(spd)
    err = float(np.max(np.abs(s @ s.T - spd)))
    checks.line(err < 1e-10, "infra.sqrt-reconstruction", err, 1e-10)

    mw = benchmarks.linear_benchmark(epsilon=1e-2)
    am = build_averaged(mw)
    dm = build_deviation_model(am, np.array([[0.25]]))
    rep = weak_limit_report(mw, am, dm, 1.0, 1e-3, 2000, seed)
    checks.line(bool(rep.passed), "deviation.weak-limit-marginal",
                float(rep.cdf_distance[0]), rep.critical_value)

    return 0 if checks.failures == 0 else 3


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "average": cmd_average,
    "manifold": cmd_manifold,
    "deviate": cmd_deviate,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = _Parser(prog="slowfast", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default="artifacts")
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    elif args.command != "verify":
        print("usage error: --config is required for this command", file=sys.stderr)
        return 1

    if args.seed is not None:
        seed = args.seed
    elif "SEED" in os.environ:
        seed = int(os.environ["SEED"])
    else:
        seed = int(cfg.get("seed", 0))
    out_dir = args.out if args.out != "artifacts" else cfg.get("out", "artifacts")

    try:
        return _COMMANDS[args.command](cfg, seed, out_dir, args.workers)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
