"""Compare every simulator's outputs between two checkouts on fixed seeds.

    PYTHONPATH=<old checkout>/src python3 tools/parity.py dump old.npz
    PYTHONPATH=src python3 tools/parity.py dump new.npz
    python3 tools/parity.py compare old.npz new.npz

``dump`` runs each simulator on five models and saves its outputs: ``n1``
(1-D tanh model with slow and fast noise and jumps), ``n1lin`` (the linear
benchmark, no slow noise), ``n2s`` (2-D tanh model with jumps, scalar
sigma), ``n2m`` (the same with matrix sigma) and ``n2bm`` (``n2m`` without
jumps), plus blow-up models whose single-path runs must diverge at the same
row.  The ``*/frozen_fast`` keys are one-path ``frozen_fast_batch`` runs,
their ``diverged_at`` the first non-finite row.  The ``*/drift/*`` keys
evaluate each model's f and g, and one expression drift that uses every
function and operator (``n2expr``), in value and in-place form, at fixed
points of shape (n,) and (4, n) with signed zeros, infinities and NaN, and
record the sign bits of the results.
The ``*_long`` keys step batches over more steps than one noise chunk of
``noise.CHUNK_STEPS`` steps, by a count that is not a multiple of it (in
older checkouts, which have the byte budget ``noise.CHUNK_BYTES``, it is
set to 0 for them);
the ``*_wide`` keys (``n1`` and ``n2m``) step 300 paths, more than one block
of paths drawn together (``noise._PATH_BLOCK``), over 40 steps, split across
forked worker processes (``harness.SPLIT_PATH_STEPS`` is set to 0 for them,
where it exists, and the machine has two or more usable CPUs), so comparing
against a checkout without the split checks split rows against one run.
The ``*/frozen_fast_batch_long`` keys (``n1`` and ``n2m``) draw 300 paths
with fast jumps from one generator over 600 steps, so that paths sharing a
generator cover several noise chunks and blocks of paths.
The ``*/kernel/*`` keys run ``autocovariance_kernel`` on a short window,
and the ``*/manifold_long/*`` keys solve on a grid of 1601 points.
The ``cli/*`` keys hold the exit code, the stdout and stderr bytes and each
artifact's bytes of every ``slowfast`` command on two fixed configs
(``n1``, a 1-D linear model with slow noise and fast jumps, and
``levy_tanh``, ``bench/levy_tanh.json`` with a short kernel and a
tabulated fbar), of ``validate`` and ``simulate`` on ``n1`` with an
unstable A (``n1unstable``), and of ``verify --seed 0``; timestamps and
the output directory are masked.
``compare`` requires ``n1*`` and ``cli/*`` outputs to be bit-identical (NaN
equal to NaN) and ``n2*`` outputs to satisfy max|a - b| <= 1e-10 (1 + max|a|).

A change that alters outputs on purpose names the keys in one of two
tables (``fnmatch`` patterns, the first match counts), with its reason:
keys matching ``RESAMPLED`` draw other random numbers and are reported but
not bounded; keys matching ``LAST_BITS`` round differently and are held to
the ``n2`` bound even at n = 1.  A pattern is dropped once both compared
checkouts post-date its change.  Keys present in only one file are listed
and not compared.  Exits 1 when any compared key fails.
"""

from __future__ import annotations

import contextlib
import fnmatch
import io
import json
import os
import re
import sys
import tempfile
from unittest import mock

import numpy as np

N2_RTOL = 1e-10
# key pattern -> why its random numbers differ from checkouts before the change
RESAMPLED = {}
# key pattern -> why it moved in the last bits only
LAST_BITS = {}


def _reason(table, key):
    return next((why for pattern, why in table.items()
                 if fnmatch.fnmatchcase(key, pattern)), None)


def _models():
    from slowfast.model import JumpSpec, SizeDist, SlowFastModel, parse_drift
    from slowfast.benchmarks import linear_benchmark
    jumps = dict(jump_slow=JumpSpec(1.0, SizeDist.uniform(-0.3, 0.3)),
                 jump_fast=JumpSpec(2.0, SizeDist.uniform(-0.5, 0.5)))
    n1 = SlowFastModel(a=[[-1.0]], b=[[-2.0]],
                       f=parse_drift(["tanh(y1)"], 1, lip=1.0, growth=1.0),
                       g=parse_drift(["0.25*tanh(x1)"], 1, lip=0.25, growth=1.0),
                       sigma1=0.3, sigma2=1.0, epsilon=0.05, x0=[0.8], y0=[0.4],
                       **jumps)
    f2 = parse_drift(["tanh(y1)", "tanh(y2)"], 2, lip=1.0, growth=1.0)
    g2 = parse_drift(["0.2*tanh(x1+y2)", "0.2*tanh(x2-y1)"], 2, lip=0.25,
                     growth=1.0)
    common = dict(a=[[-1.0, 0.2], [0.0, -1.0]], b=[[-2.0, 0.3], [0.0, -2.0]],
                  f=f2, g=g2, epsilon=0.05, x0=[0.8, -0.4], y0=[0.4, 0.1], **jumps)
    n2s = SlowFastModel(sigma1=0.3, sigma2=1.0, **common)
    sigmas = dict(sigma1=[[0.3, 0.1], [0.0, 0.2]], sigma2=[[1.0, 0.2], [0.1, 0.8]])
    n2m = SlowFastModel(**sigmas, **common)
    n2bm = SlowFastModel(**sigmas, **dict(common, jump_slow=None, jump_fast=None))
    return {"n1": n1, "n1lin": linear_benchmark(epsilon=0.05), "n2s": n2s,
            "n2m": n2m, "n2bm": n2bm}


def _blowups():
    from slowfast.model import DriftFn, SlowFastModel
    one = SlowFastModel(a=[[50.0]], b=[[-2.0]], f=DriftFn.zero(1), g=DriftFn.zero(1),
                        sigma1=0.1, sigma2=1.0, epsilon=1.0, x0=[1.0], y0=[1.0])
    fast = SlowFastModel(a=[[-1.0]], b=[[50.0]], f=DriftFn.zero(1),
                         g=DriftFn.zero(1), sigma2=1.0, epsilon=1.0, x0=[1.0],
                         y0=[1.0])
    return {"n1up": one, "n1fastup": fast}


def _set_if_present(module, name, value):
    """``module.name`` set to ``value`` inside the block, if the module has
    it; older checkouts may not."""
    if hasattr(module, name):
        return mock.patch.object(module, name, value)
    return contextlib.nullcontext()


def _drift_points(n):
    """Fixed points x, y of shape (4, n): signed zeros, infinities, NaN and
    ordinary values, in a different order for x and y."""
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.7, -1.3, 2.5, -0.2])
    cycle = np.resize(values, 8 * n)
    return cycle[:4 * n].reshape(4, n), cycle[::-1][:4 * n].reshape(4, n)


# small runs of every command; the kernel windows satisfy
# horizon - burn_in >= 50 * s_max
_CLI_BLOCKS = {
    "simulate": {"t_end": 0.5},
    "average": {"horizon": 10.0, "t_mix": 0.5, "n_paths": 100, "t_end": 0.2,
                "epsilons": [0.05, 0.025, 0.0125], "n_paths_rate": 100},
    "manifold": {"t_neg": 2.0},
    "deviate": {"s_max": 2.5, "lag_step": 0.1, "burn_in": 2.0, "horizon": 130.0,
                "n_replicas": 4, "t_end": 0.3, "dt_theta": 0.01},
}


def _cli_configs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    n1 = {"model": {
        "dim": 1, "a": [[-1.0]], "b": [[-2.0]],
        "f": {"kind": "linear", "fy": [[1.0]], "fx": [[0.2]]},
        "g": {"kind": "linear", "fx": [[0.25]]},
        "sigma1": 0.3, "sigma2": 1.0,
        "jump_fast": {"intensity": 2.0,
                      "size": {"kind": "uniform", "low": -0.2, "high": 0.6}},
        "epsilon": 0.05, "x0": [0.8], "y0": [0.4]}, **_CLI_BLOCKS}
    with open(os.path.join(root, "bench", "levy_tanh.json")) as fh:
        levy = json.load(fh)
    levy["manifold"] = _CLI_BLOCKS["manifold"]
    levy["deviate"] = dict(_CLI_BLOCKS["deviate"],
                           table_axes=[[-1.0, 0.0, 1.0]] * 2)
    unstable = dict(n1, model=dict(n1["model"], a=[[0.5]]))
    return {"n1": (n1, ["validate", "simulate", "average", "manifold", "deviate"]),
            "n1unstable": (unstable, ["validate", "simulate"]),
            "levy_tanh": (levy, ["validate", "manifold", "deviate"])}


def _cli_outputs(put):
    """Exit code, stdout, stderr and artifact bytes of each command."""
    from slowfast import cli

    def run(key, argv, out_dir):
        streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
        with (contextlib.redirect_stdout(streams["stdout"]),
              contextlib.redirect_stderr(streams["stderr"])):
            code = cli.main(argv + ["--out", out_dir])
        put(key + "/exit", code)
        for stream, buf in streams.items():
            text = re.sub(r"\d{8}T\d{6}Z", "<stamp>", buf.getvalue())
            put(f"{key}/{stream}", np.frombuffer(text.replace(out_dir, "<out>").encode(),
                                                 dtype=np.uint8))
        for name in sorted(os.listdir(out_dir) if os.path.isdir(out_dir) else []):
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            suffix = re.sub(r"^[a-z]+-\d{8}T\d{6}Z-\d+", "", name)
            put(f"{key}/artifact{suffix}", np.frombuffer(data, dtype=np.uint8))

    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, commands) in _cli_configs().items():
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            for command in commands:
                run(f"cli/{name}/{command}", [command, "--config", path, "--seed", "5"],
                    os.path.join(tmp, name, command))
        run("cli/verify", ["verify", "--seed", "0"], os.path.join(tmp, "verify"))


def dump(path):
    import slowfast as sf
    from slowfast import harness, noise
    from slowfast.averaging import coupled_error_batch
    from slowfast.deviation import limit_marginal_samples
    from slowfast.integrator import frozen_fast_batch, make_grid
    from slowfast.manifold import reapply_sweep
    from slowfast.model import parse_drift
    from slowfast.noise import sample_increments, substream

    out = {}

    def put(key, value):
        out[key] = np.asarray(value, dtype=float)

    def traj(key, t):
        put(key + "/states", t.states)
        put(key + "/diverged_at", -1 if t.diverged_at is None else t.diverged_at)

    def frozen(key, m, steps, dt, gen):
        # one frozen-fast path, flagged at its first non-finite row
        states = frozen_fast_batch(m, m.x0, m.y0, steps, dt, gen, 1)[:, 0]
        bad = ~np.all(np.isfinite(states), axis=-1)
        put(key + "/states", states)
        put(key + "/diverged_at", bad.argmax() if bad.any() else -1)

    def put_drift(name, part, drift):
        # the drift alone, in value and in-place form, at fixed points
        x4, y4 = _drift_points(drift.n)
        for x, y, shape in ((x4[0], y4[0], "single"), (x4, y4, "batch")):
            d = np.full(x.shape, -0.0)
            with np.errstate(all="ignore"):
                value = drift(x, y)
                drift._add(d, x, y)
            for form, got in (("value", value), ("inplace", d)):
                put(f"{name}/drift/{part}/{shape}/{form}", got)
                put(f"{name}/drift/{part}/{shape}/{form}_signbit", np.signbit(got))

    # every function and operator of the expression language
    put_drift("n2expr", "f", parse_drift(["-x1/y1 + exp(-y2)*cos(x2)",
                                          "sin(x1) - -y1*0.5 + x2/1e999 - 2/(y2 - 2.5)"], 2))

    for name, m in _models().items():
        n, eps = m.n, m.epsilon
        put_drift(name, "f", m.f)
        put_drift(name, "g", m.g)
        dt = eps / 10.0
        rng = lambda i: substream(11, i, 9)
        x, y = sf.simulate_slow_fast(m, 0.5, dt, rng(0))
        traj(f"{name}/slow_fast/x", x)
        traj(f"{name}/slow_fast/y", y)
        frozen(f"{name}/frozen_fast", m, 600, 0.005, rng(1))
        put(f"{name}/frozen_fast_batch", frozen_fast_batch(m, m.x0, m.y0, 200, 0.005,
                                                           rng(2), 6))
        if name == "n1lin":
            am = sf.build_averaged(m)
        else:
            axis = np.linspace(-1.0, 1.0, 3)
            am = sf.build_averaged(m, table_axes=[axis] * n, rng=rng(4), horizon=6.0)
        points = m.x0 + np.linspace(-0.5, 0.5, 3)[:, None]
        est = sf.estimate_fbar(m, points, horizon=6.0, rng=rng(12))
        put(f"{name}/fbar_points", [est.value, est.stderr])
        mix = sf.mixing_diagnostic(m, m.x0, [m.y0, 1.0 - m.y0], 1.0, 0.01, 100,
                                   rng(13), fbar_value=am.fbar(m.x0))
        for field in ("times", "deviations", "noise_floor", "eta_empirical"):
            put(f"{name}/mixing/{field}", getattr(mix, field))
        rate = sf.strong_error_experiment(m, [eps, eps / 2, eps / 4], "eps**(2/3)",
                                          0.2, 600, 31, am=am)
        put(f"{name}/rate/errors", rate.errors)
        put(f"{name}/rate/stderrs", rate.stderrs)
        grid = make_grid(0.5, dt)
        incr = sample_increments(n, grid, rng(5), jump=m.jump_slow)
        xa = sf.simulate_averaged(am, 0.5, dt, incr)
        traj(f"{name}/averaged", xa)
        sup, diff, div = coupled_error_batch(m, am, 0.5, dt, 13, 2, 7)
        put(f"{name}/coupled/sup", sup)
        put(f"{name}/coupled/diff", diff)
        put(f"{name}/coupled/div", div)
        # 1300 steps: more than one noise chunk, and not a multiple of one
        with _set_if_present(noise, "CHUNK_BYTES", 0):
            batch = coupled_error_batch(m, am, 1300 * dt, dt, 13, 0, 3)
        for field, value in zip(("sup", "diff", "div"), batch):
            put(f"{name}/coupled_long/{field}", value)
        htilde = 0.25 * np.eye(n) + 0.05 * (np.ones((n, n)) - np.eye(n))
        dm = sf.build_deviation_model(am, htilde, x=m.x0)
        dm_var = sf.build_deviation_model(am, htilde)
        traj(f"{name}/deviation", sf.simulate_deviation(dm, xa, 0.5, dt, rng(7)))
        traj(f"{name}/deviation_var", sf.simulate_deviation(dm_var, xa, 0.5, dt, rng(8)))
        # lags 0 to 0.3: horizon - burn_in must be at least 50 times the last lag
        kern = sf.autocovariance_kernel(m, m.x0, np.arange(0.0, 0.31, 0.05), 0.5, 16.0,
                                        0.01, rng(14), n_replicas=4)
        for field in ("h", "stderr", "fbar_used"):
            put(f"{name}/kernel/{field}", getattr(kern, field))
        rep = sf.residual_theta2(m, eps, 0.3, dt, 6, 17)
        put(f"{name}/theta2", [rep.mean_sup_sq, rep.stderr, rep.n_diverged])
        rep = sf.residual_theta2(m, eps, 0.3, dt, 4, 17, y_on_manifold=True)
        put(f"{name}/theta2_on", [rep.mean_sup_sq, rep.stderr, rep.n_diverged])
        for radius in (0.05, np.inf):
            t, drive = sf.simulate_truncated_deviation(m, am, eps, radius, 0.3, dt, 19,
                                                       path_index=1, return_drive=True)
            put(f"{name}/truncated/{radius}/states", t.states)
            put(f"{name}/truncated/{radius}/drive", drive["drive"])
            put(f"{name}/truncated/{radius}/gate", drive["gate"])
        put(f"{name}/limit", limit_marginal_samples(dm, am, 0.3, 0.01, 5, 23))
        put(f"{name}/limit_var", limit_marginal_samples(dm_var, am, 0.3, 0.01, 5, 23))
        with _set_if_present(noise, "CHUNK_BYTES", 0):
            put(f"{name}/limit_long", limit_marginal_samples(dm, am, 7.0, 0.01, 3, 23))
        if name in ("n1", "n2m"):
            with _set_if_present(harness, "SPLIT_PATH_STEPS", 0):
                wide = coupled_error_batch(m, am, 40 * dt, dt, 13, 0, 300)
                put(f"{name}/limit_wide", limit_marginal_samples(dm, am, 0.4, 0.01,
                                                                 300, 23))
            for field, value in zip(("sup", "diff", "div"), wide):
                put(f"{name}/coupled_wide/{field}", value)
            with _set_if_present(noise, "CHUNK_BYTES", 0):
                put(f"{name}/frozen_fast_batch_long",
                    frozen_fast_batch(m, m.x0, m.y0, 600, 0.005, rng(16), 300))
        tr = sf.tracking_check(m, eps, (m.x0, m.y0), (m.x0, m.y0 + 0.5), 1.0, 0.005,
                               rng=rng(10))
        put(f"{name}/tracking/gap", tr.gap)
        put(f"{name}/tracking/rate", tr.rate_fitted)
        paths = sf.sample_stationary_paths(m, eps, 4.0, 0.0, 0.005, rng(11))
        sol = sf.lyapunov_perron_solve(m, eps, m.x0, t_neg=4.0, paths=paths)
        put(f"{name}/manifold/u", sol.profile.u)
        put(f"{name}/manifold/v", sol.profile.v)
        put(f"{name}/manifold/residuals", sol.residuals)
        put(f"{name}/manifold/reapply", reapply_sweep(m, sol, paths))
        put(f"{name}/manifold/h0", sf.asymptotic_manifold_h0(m, m.x0, t_neg=4.0,
                                                             paths=paths))
        # 1601 grid points, so the n >= 2 recurrences' doubling scan runs past 1024
        paths = sf.sample_stationary_paths(m, eps, 8.0, 0.0, 0.005, rng(15))
        sol = sf.lyapunov_perron_solve(m, eps, m.x0, t_neg=8.0, paths=paths)
        put(f"{name}/manifold_long/u", sol.profile.u)
        put(f"{name}/manifold_long/v", sol.profile.v)
        put(f"{name}/manifold_long/residuals", sol.residuals)
        wl = sf.weak_limit_report(m, am, dm, 0.3, dt, 40, 29, dt_limit=0.01)
        for field in ("mean_diff", "var_diff", "cdf_distance", "theta_mean",
                      "theta_var", "theta_mean_se"):
            put(f"{name}/weak_limit/{field}", getattr(wl, field))

    for name, m in _blowups().items():
        rng = lambda i: substream(5, i, 9)
        x, y = sf.simulate_slow_fast(m, 40.0, 0.1, rng(0))
        traj(f"{name}/slow_fast/x", x)
        traj(f"{name}/slow_fast/y", y)
        frozen(f"{name}/frozen_fast", m, 400, 0.1, rng(1))
        am = sf.AveragedModel(m.a, sf.build_averaged(m).fbar, m.sigma1, None, m.x0)
        incr = sample_increments(1, make_grid(40.0, 0.1), rng(2))
        xa = sf.simulate_averaged(am, 40.0, 0.1, incr)
        traj(f"{name}/averaged", xa)
        dm = sf.DeviationModel(m.a, np.zeros((1, 1)), np.eye(1))
        traj(f"{name}/deviation", sf.simulate_deviation(dm, xa, 40.0, 0.1, rng(3)))
    _cli_outputs(put)
    np.savez(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    failures = 0
    for key in sorted(set(a.files) | set(b.files)):
        if key not in a.files or key not in b.files:
            print(f"ONLY-IN-{'B' if key in b.files else 'A'} {key}")
            continue
        u, v = a[key], b[key]
        if u.shape != v.shape:
            print(f"FAIL {key}: shape {u.shape} vs {v.shape}")
            failures += 1
            continue
        same_nan = np.array_equal(np.isnan(u), np.isnan(v))
        if np.array_equal(u, v, equal_nan=True):
            print(f"ok   {key}: bit-identical")
            continue
        fin = np.isfinite(u) & np.isfinite(v)
        delta = float(np.max(np.abs(u[fin] - v[fin]), initial=0.0))
        why = _reason(RESAMPLED, key)
        if why is not None:
            print(f"RE-SAMPLED {key}: max|d| {delta:.3g}: {why}")
            continue
        scale = 1.0 + float(np.max(np.abs(u[fin]), initial=0.0))
        bound = N2_RTOL * scale
        last_bits = _reason(LAST_BITS, key)
        exact = key.startswith(("n1", "cli/")) and last_bits is None
        ok = (not exact and same_nan
              and np.array_equal(np.isinf(u), np.isinf(v)) and delta <= bound)
        note = ", bit-identity required" if exact else (f": {last_bits}" if last_bits else "")
        print(f"{'ok  ' if ok else 'FAIL'} {key}: max|d| {delta:.3g} (bound {bound:.3g}{note})")
        failures += not ok
    print(f"{failures} failing keys")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
