"""Pin every simulator's outputs on fixed seeds to a committed digest.

    PYTHONPATH=src python3 tools/parity.py check     # this tree against the digest
    PYTHONPATH=src python3 tools/parity.py regen     # rewrite the digest from this tree
    PYTHONPATH=src python3 tools/parity.py dump OUT.npz    # every output, in full

``dump`` runs every simulator on the models of ``_models`` and ``_blowups``,
evaluates each drift at signed zeros, infinities and NaN, and records the
exit code, output and artifact bytes of every ``slowfast`` command on fixed
configs (``cli/*``).  ``regen`` writes its digest to ``DIGEST``: every key's
shape, the sha256 of each ``n1*`` and ``cli/*`` key (-0.0 taken as 0.0 and
every NaN as one NaN), the values of each ``n2*`` key (every ``STRIDE``-th
of a ``*_long`` key) and the provenance (numpy, scipy, Python, platform and
git HEAD).  ``check``, which ``tests/test_parity.py`` runs in tier-1, holds
``n1*`` and ``cli/*`` keys bit-identical and ``n2*`` keys to their
non-finite entries and to max|a - b| <= 1e-10 (1 + max|a|), a the digest's;
a key on one side only fails.  A change that moves outputs on purpose runs
``regen`` and names the moved keys in CHANGES.md.  Numpy does not promise
its Generator streams across versions (NEP 19), so under another numpy
``check`` can fail with no change to the code; its report then says so.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = os.path.join(ROOT, "tests", "data", "parity_digest.npz")
N2_RTOL = 1e-10
HASHED = ("n1", "cli/")
# a prime, so that the values a *_long key keeps cycle through its columns
STRIDE = 199


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
    n2q = SlowFastModel(sigma1=0.0, sigma2=1.0, **dict(common, jump_slow=None))
    return {"n1": n1, "n1lin": linear_benchmark(epsilon=0.05), "n2s": n2s,
            "n2m": n2m, "n2bm": n2bm, "n2q": n2q}


def _blowups():
    from slowfast.model import DriftFn, SlowFastModel
    common = dict(f=DriftFn.zero(1), g=DriftFn.zero(1), sigma2=1.0, epsilon=1.0,
                  x0=[1.0], y0=[1.0])
    return {"n1up": SlowFastModel(a=[[50.0]], b=[[-2.0]], sigma1=0.1, **common),
            "n1fastup": SlowFastModel(a=[[-1.0]], b=[[50.0]], **common)}


# small runs of every command; kernel windows: horizon - burn_in >= 50 s_max
_CLI_BLOCKS = {
    "simulate": {"t_end": 0.5},
    "average": {"horizon": 10.0, "t_mix": 0.5, "n_paths": 100, "t_end": 0.2,
                "epsilons": [0.05, 0.025, 0.0125], "n_paths_rate": 100},
    "manifold": {"t_neg": 2.0},
    "deviate": {"s_max": 2.5, "lag_step": 0.1, "burn_in": 2.0, "horizon": 130.0,
                "n_replicas": 4, "t_end": 0.3, "dt_theta": 0.01},
}


def _cli_configs():
    n1 = {"model": {
        "dim": 1, "a": [[-1.0]], "b": [[-2.0]],
        "f": {"kind": "linear", "fy": [[1.0]], "fx": [[0.2]]},
        "g": {"kind": "linear", "fx": [[0.25]]},
        "sigma1": 0.3, "sigma2": 1.0,
        "jump_fast": {"intensity": 2.0,
                      "size": {"kind": "uniform", "low": -0.2, "high": 0.6}},
        "epsilon": 0.05, "x0": [0.8], "y0": [0.4]}, **_CLI_BLOCKS}
    with open(os.path.join(ROOT, "bench", "levy_tanh.json")) as fh:
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
            suffix = re.sub(r"^[a-z]+-\d{8}T\d{6}Z-\d+", "", name)
            with open(os.path.join(out_dir, name), "rb") as fh:
                put(f"{key}/artifact{suffix}", np.frombuffer(fh.read(), dtype=np.uint8))

    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, commands) in _cli_configs().items():
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            for command in commands:
                run(f"cli/{name}/{command}", [command, "--config", path, "--seed", "5"],
                    os.path.join(tmp, name, command))
        run("cli/verify", ["verify", "--seed", "0"], os.path.join(tmp, "verify"))


def dump():
    """Every output, by key, as float arrays."""
    import slowfast as sf
    from slowfast import harness
    from slowfast.averaging import _slow_increments, coupled_error_batch
    from slowfast.deviation import limit_marginal_samples
    from slowfast.integrator import frozen_fast_batch, make_grid
    from slowfast.manifold import reapply_sweep

    out = {}

    def put(key, value):
        out[key] = np.asarray(value, dtype=float)

    def put_all(prefix, names, values):
        for field, value in zip(names.split(), values):
            put(f"{prefix}/{field}", value)

    def traj(key, t):
        put_all(key, "states diverged_at",
                (t.states, -1 if t.diverged_at is None else t.diverged_at))

    def frozen(key, m, steps, dt, gen):
        # one frozen-fast path, flagged at its first non-finite row
        states = frozen_fast_batch(m, m.x0, m.y0, steps, dt, gen, 1)[:, 0]
        bad = ~np.all(np.isfinite(states), axis=-1)
        put_all(key, "states diverged_at", (states, bad.argmax() if bad.any() else -1))

    def put_drift(name, part, drift):
        # the drift alone, in value and in-place form, at fixed points: signed
        # zeros, infinities, NaN and other values, in another order for y
        cycle = np.resize([0.0, -0.0, np.inf, -np.inf, np.nan, 0.7, -1.3, 2.5, -0.2],
                          8 * drift.n)
        x4, y4 = (c[:4 * drift.n].reshape(4, -1) for c in (cycle, cycle[::-1]))
        for x, y, shape in ((x4[0], y4[0], "single"), (x4, y4, "batch")):
            d = np.full(x.shape, -0.0)
            with np.errstate(all="ignore"):
                value = drift(x, y)
                drift._add(d, x, y)
            put_all(f"{name}/drift/{part}/{shape}", "value value_signbit inplace "
                    "inplace_signbit", (value, np.signbit(value), d, np.signbit(d)))

    # every function and operator of the expression language
    put_drift("n2expr", "f", sf.parse_drift(["-x1/y1 + exp(-y2)*cos(x2)",
                                          "sin(x1) - -y1*0.5 + x2/1e999 - 2/(y2 - 2.5)"], 2))

    for name, m in _models().items():
        n, eps = m.n, m.epsilon
        put_drift(name, "f", m.f)
        put_drift(name, "g", m.g)
        dt = eps / 10.0
        rng = lambda i: sf.substream(11, i, 9)
        for part, t in zip("xy", sf.simulate_slow_fast(m, 0.5, dt, rng(0))):
            traj(f"{name}/slow_fast/{part}", t)
        frozen(f"{name}/frozen_fast", m, 600, 0.005, rng(1))
        put(f"{name}/frozen_fast_batch", frozen_fast_batch(m, m.x0, m.y0, 200, 0.005,
                                                           rng(2), 6))
        am = sf.build_averaged(m) if name == "n1lin" else sf.build_averaged(
            m, table_axes=[np.linspace(-1.0, 1.0, 3)] * n, rng=rng(4), horizon=6.0)
        points = m.x0 + np.linspace(-0.5, 0.5, 3)[:, None]
        est = sf.estimate_fbar(m, points, horizon=6.0, rng=rng(12))
        put(f"{name}/fbar_points", [est.value, est.stderr])
        mix = sf.mixing_diagnostic(m, m.x0, [m.y0, 1.0 - m.y0], 1.0, 0.01, 100,
                                   rng(13), fbar_value=am.fbar(m.x0))
        put_all(f"{name}/mixing", "times deviations noise_floor eta_empirical",
                (mix.times, mix.deviations, mix.noise_floor, mix.eta_empirical))
        rate = sf.strong_error_experiment(m, [eps, eps / 2, eps / 4], "eps**(2/3)",
                                          0.2, 600, 31, am=am)
        put_all(f"{name}/rate", "errors stderrs", (rate.errors, rate.stderrs))
        incr = sf.sample_increments(n, make_grid(0.5, dt), rng(5), jump=m.jump_slow)
        xa = sf.simulate_averaged(am, 0.5, dt, incr)
        traj(f"{name}/averaged", xa)
        put_all(f"{name}/coupled", "sup diff div",
                coupled_error_batch(m, am, 0.5, dt, 13, 2, 7))
        put_all(f"{name}/coupled_nosup", "diff div",
                coupled_error_batch(m, am, 0.5, dt, 13, 2, 7, _sup=False)[1:])
        # 1300 steps: more than one noise chunk, and not a multiple of one
        put_all(f"{name}/coupled_long", "sup diff div",
                coupled_error_batch(m, am, 1300 * dt, dt, 13, 0, 3))
        htilde = 0.25 * np.eye(n) + 0.05 * (np.ones((n, n)) - np.eye(n))
        dm = sf.build_deviation_model(am, htilde, x=m.x0)
        dm_var = sf.build_deviation_model(am, htilde)
        traj(f"{name}/deviation", sf.simulate_deviation(dm, xa, 0.5, dt, rng(7)))
        traj(f"{name}/deviation_var", sf.simulate_deviation(dm_var, xa, 0.5, dt, rng(8)))
        # lags 0 to 0.3: horizon - burn_in must be at least 50 times the last lag
        kern = sf.autocovariance_kernel(m, m.x0, np.arange(0.0, 0.31, 0.05), 0.5, 16.0,
                                        0.01, rng(14), n_replicas=4)
        put_all(f"{name}/kernel", "h stderr fbar_used", (kern.h, kern.stderr,
                                                          kern.fbar_used))
        for suffix, paths, on in (("", 6, False), ("_on", 4, True)):
            rep = sf.residual_theta2(m, eps, 0.3, dt, paths, 17, y_on_manifold=on)
            put(f"{name}/theta2{suffix}", [rep.mean_sup_sq, rep.stderr, rep.n_diverged])
        for radius in (0.05, np.inf):
            t, drive = sf.simulate_truncated_deviation(m, am, eps, radius, 0.3, dt, 19,
                                                       path_index=1, return_drive=True)
            put_all(f"{name}/truncated/{radius}", "states drive gate",
                    (t.states, drive["drive"], drive["gate"]))
        put(f"{name}/limit", limit_marginal_samples(dm, am, 0.3, 0.01, 5, 23))
        put(f"{name}/limit_var", limit_marginal_samples(dm_var, am, 0.3, 0.01, 5, 23))
        put(f"{name}/limit_long", limit_marginal_samples(dm, am, 7.0, 0.01, 3, 23))
        # steps of 1.0, most holding two or more slow jump events of one path
        slow = _slow_increments(m, make_grid(40.0, 1.0), 23, 0, 20)
        if slow is not None:
            put(f"{name}/slow_coarse", [slow[k].copy() for k in range(len(slow))])
        if name in ("n1", "n2m", "n2q"):
            # 300 paths, more than one block drawn together, over forked workers
            with mock.patch.object(harness, "SPLIT_PATH_STEPS", 0):
                put_all(f"{name}/coupled_wide", "sup diff div",
                        coupled_error_batch(m, am, 40 * dt, dt, 13, 0, 300))
                put_all(f"{name}/coupled_wide_nosup", "diff div", coupled_error_batch(
                    m, am, 40 * dt, dt, 13, 0, 300, _sup=False)[1:])
                put(f"{name}/limit_wide", limit_marginal_samples(dm, am, 0.4, 0.01,
                                                                 300, 23))
            # paths sharing one generator over several noise chunks and blocks
            put(f"{name}/frozen_fast_batch_long",
                frozen_fast_batch(m, m.x0, m.y0, 600, 0.005, rng(16), 300))
        tr = sf.tracking_check(m, eps, (m.x0, m.y0), (m.x0, m.y0 + 0.5), 1.0, 0.005,
                               rng=rng(10))
        put_all(f"{name}/tracking", "gap rate", (tr.gap, tr.rate_fitted))
        paths = sf.sample_stationary_paths(m, eps, 4.0, 0.0, 0.005, rng(11))
        sol = sf.lyapunov_perron_solve(m, eps, m.x0, t_neg=4.0, paths=paths)
        put_all(f"{name}/manifold", "u v residuals reapply h0", (
            sol.u, sol.v, sol.residuals, reapply_sweep(m, sol, paths),
            sf.asymptotic_manifold_h0(m, m.x0, t_neg=4.0, paths=paths)))
        # 1601 grid points, so the n >= 2 recurrences' doubling scan runs past 1024
        paths = sf.sample_stationary_paths(m, eps, 8.0, 0.0, 0.005, rng(15))
        sol = sf.lyapunov_perron_solve(m, eps, m.x0, t_neg=8.0, paths=paths)
        put_all(f"{name}/manifold_long", "u v residuals", (sol.u, sol.v, sol.residuals))
        wl = sf.weak_limit_report(m, am, dm, 0.3, dt, 40, 29, dt_limit=0.01)
        fields = "mean_diff var_diff cdf_distance theta_mean theta_var theta_mean_se"
        put_all(f"{name}/weak_limit", fields, [getattr(wl, f) for f in fields.split()])

    for name, m in _blowups().items():
        rng = lambda i: sf.substream(5, i, 9)
        for part, t in zip("xy", sf.simulate_slow_fast(m, 40.0, 0.1, rng(0))):
            traj(f"{name}/slow_fast/{part}", t)
        frozen(f"{name}/frozen_fast", m, 400, 0.1, rng(1))
        am = sf.AveragedModel(m.a, sf.build_averaged(m).fbar, m.sigma1, None, m.x0)
        incr = sf.sample_increments(1, make_grid(40.0, 0.1), rng(2))
        xa = sf.simulate_averaged(am, 40.0, 0.1, incr)
        traj(f"{name}/averaged", xa)
        dm = sf.DeviationModel(m.a, np.zeros((1, 1)), np.eye(1))
        traj(f"{name}/deviation", sf.simulate_deviation(dm, xa, 40.0, 0.1, rng(3)))
    _cli_outputs(put)
    return out


def _sha256(value):
    """sha256 of the bytes, -0.0 taken as 0.0 and every NaN as one NaN."""
    import hashlib
    canon = np.where(np.isnan(value), np.nan, value + 0.0)
    return hashlib.sha256(np.ascontiguousarray(canon).tobytes()).hexdigest()


def _kept(key, value):
    return value.ravel()[::STRIDE] if "_long" in key else value


def _versions():
    import platform
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "platform": platform.platform()}


def regen():
    """Write the digest of a fresh dump."""
    import subprocess
    out = dump()
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    keys = {key: {"shape": value.shape, **({"sha256": _sha256(value)}
                                           if key.startswith(HASHED) else {})}
            for key, value in out.items()}
    meta = {"provenance": {**_versions(), "head": head}, "keys": keys}
    np.savez_compressed(DIGEST, meta=json.dumps(meta), **{
        key: _kept(key, v) for key, v in out.items() if not key.startswith(HASHED)})


def check(out=None):
    """One line per key of ``out`` (a fresh dump by default) that breaks the
    digest, then the provenance and the ``regen`` command; none when all hold."""
    with np.load(DIGEST) as digest:
        meta = json.loads(str(digest["meta"]))
        values = {key: digest[key] for key in digest.files}
    keys, lines, out = meta["keys"], [], dump() if out is None else out
    for key in sorted(set(keys) | set(out)):
        rec, value = keys.get(key), out.get(key)
        if rec is None or value is None:
            why = f"only in the {'dump' if rec is None else 'digest'}"
        elif list(value.shape) != rec["shape"]:
            why = f"shape {value.shape}, digest {tuple(rec['shape'])}"
        elif "sha256" in rec:
            why = None if _sha256(value) == rec["sha256"] else "not bit-identical"
        else:
            a, b = values[key], _kept(key, value)
            fin = np.isfinite(a)
            delta = float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))
            bound = N2_RTOL * (1.0 + float(np.max(np.abs(a[fin]), initial=0.0)))
            ok = delta <= bound and np.array_equal(a[~fin], b[~fin], equal_nan=True)
            why = None if ok else f"max|d| {delta:.3g} (bound {bound:.3g})"
        lines += [f"FAIL {key}: {why}"] if why else []
    if lines:
        recorded, here = meta["provenance"], _versions()
        lines.append(f"{len(lines)} of {len(keys)} keys fail against the digest written "
                     f"at {recorded['head']}")
        lines += [f"{name} {here[name]} here, {recorded[name]} in the digest"
                  for name in here if here[name] != recorded[name]]
        if here["numpy"] != recorded["numpy"]:
            lines.append("numpy does not promise its Generator streams across versions "
                         "(NEP 19, https://numpy.org/neps/nep-0019-rng-policy.html), "
                         "so the draws may move with no change to the code")
        lines.append("if the change is deliberate: PYTHONPATH=src python3 "
                     "tools/parity.py regen, and name the moved keys in CHANGES.md")
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        np.savez(sys.argv[2], **dump())
    elif sys.argv[1:] == ["regen"]:
        regen()
    elif sys.argv[1:] == ["check"]:
        failures = check()
        print("\n".join(failures) or "every key matches the digest")
        sys.exit(1 if failures else 0)
    else:
        sys.exit(__doc__)
