import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast.averaging import build_averaged, simulate_averaged
from slowfast.cli import main, model_from_config
from slowfast.deviation import build_deviation_model, simulate_deviation
from slowfast.exprlang import DriftExprError
from slowfast.integrator import make_grid
from slowfast.model import parse_drift
from slowfast.noise import ROLE_DEV, ROLE_SLOW, sample_increments, substream

LINEAR_CFG = {
    "model": {
        "dim": 1,
        "a": [[-1.0]], "b": [[-2.0]],
        "f": {"kind": "linear", "fy": [[1.0]]},
        "g": {"kind": "zero"},
        "sigma1": 0.0, "sigma2": 1.0,
        "epsilon": 0.01,
        "x0": [1.0], "y0": [0.0],
    },
    "seed": 7,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """``json.loads`` of an artifact or a printed line; NaN and Infinity,
    which Python writes but JSON has no form for, raise ValueError."""
    return json.loads(text, parse_constant=_not_json)


def test_validate_passes_linear_benchmark(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    code = main(["validate", "--config", cfg])
    out = strict_json(capsys.readouterr().out)
    assert code == 0
    assert out["passed"]
    assert out["gamma_b"] == pytest.approx(2.0)


def test_validate_fails_unstable_matrix(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"]["a"] = [[1.0]]
    cfg = write_cfg(tmp_path, cfg_data)
    code = main(["validate", "--config", cfg])
    assert code == 2
    assert not strict_json(capsys.readouterr().out)["passed"]


def test_missing_config_file_is_usage_error(capsys):
    code = main(["validate", "--config", "/nonexistent/f.json"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 1


def _error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip()


def test_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["validate", "--config", str(path)]) == 1
    assert _error_line(capsys).startswith("config error:")


@pytest.mark.parametrize("seed", ["abc", 1.5, True])
def test_non_integer_config_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, seed=seed))
    assert main(["validate", "--config", cfg]) == 1
    assert _error_line(capsys).startswith("config error: seed")


def test_non_integer_seed_variable_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEED", "abc")
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    assert main(["validate", "--config", cfg]) == 1
    assert _error_line(capsys).startswith("usage error: SEED")


@pytest.mark.parametrize("path, value, prefix", [
    (("model",), [], "config error: model"),
    (("model", "f"), 3, "config error: f"),
    (("model", "jump_fast"), 5, "config error: jump_fast"),
    (("model", "jump_fast"), {"intensity": 2.0, "size": 3}, "config error: size"),
    (("model", "dim"), [1], "error: "),
    (("model", "epsilon"), None, "error: "),
    (("model", "f"), {"kind": "expr", "components": 5}, "error: "),
    (("model", "f"), {"kind": "lineer"}, "config error: unknown drift kind"),
    (("model", "jump_fast"), {"intensity": 2.0, "size": {"kind": "normal"}},
     "config error: unknown jump size kind"),
    (("simulate",), [], "config error: simulate"),
    (("simulate",), {"t_end": None}, "error: "),
    (("model", "sigma2"), float("nan"), "error: sigma2"),
    (("model", "sigma1"), float("inf"), "error: sigma1"),
    (("model", "x0"), [None], "error: x0"),
    (("model", "f"), {"kind": "linear", "fy": [[float("inf")]]}, "error: fy"),
], ids=["model", "f", "jump", "jump-size", "dim", "epsilon", "components",
        "drift-kind", "size-kind", "block", "t_end", "nan-sigma2", "infinite-sigma1",
        "null-x0", "infinite-fy"])
def test_malformed_config_is_one_error_line(tmp_path, capsys, path, value, prefix):
    # a block that is not an object, or an unknown kind, is a config error
    # naming it; a value of the wrong JSON type, or a non-finite coefficient,
    # is an error line; none leaves an artifact or warns
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    *parents, key = path
    target = cfg_data
    for p in parents:
        target = target[p]
    target[key] = value
    cfg = write_cfg(tmp_path, cfg_data)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = _error_line(capsys)
    assert "\n" not in err and err.startswith(prefix)
    assert not out.exists() or not os.listdir(out)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command, block", [
    ("simulate", {"t_end": float("inf")}),
    ("manifold", {"grid_step": 0}),
    ("deviate", {"lag_step": 0}),
    ("manifold", {"tol": 0}),
    ("simulate", {"t_end": 1e12, "dt": 1e-3}),
    ("deviate", {"burn_in": -5.0, "horizon": 300.0, "s_max": 1.0, "n_replicas": 2}),
    ("manifold", {"grid_step": 10.0}),
    ("deviate", {"htilde_override": [[float("nan")]]}),
    ("deviate", {"s_max": -1}),
    ("average", {"t_mix": 0}),
    ("average", {"dt_mix": True, "t_mix": 0.5}),
    ("average", {"y_list": [[float("nan")]]}),
    ("average", {"x": [float("inf")]}),
    ("deviate", {"t_end": -1}),
    ("deviate", {"dt_theta": 0}),
    ("deviate", {"x": [float("inf")]}),
    ("deviate", {"s_max": 0.2, "lag_step": 0.1, "burn_in": 1.0, "horizon": 60.0,
                 "n_replicas": 8, "dt": 0.05}),
    ("average", {"epsilons": [-0.05, -0.1, -0.2]}),
    ("average", {"epsilons": [0.2, 0.1, 0.05], "t_end": 0}),
    ("manifold", {"u0": [float("inf")]}),
], ids=["infinite-horizon", "zero-grid-step", "zero-lag-step", "zero-tol",
        "petabyte-grid", "negative-burn-in", "one-point-window", "nan-htilde",
        "no-lags", "one-point-mixing-curve", "boolean-mixing-step", "nan-mixing-start",
        "infinite-fbar-point", "negative-theta-horizon", "zero-theta-step",
        "infinite-kernel-point", "undecayed-kernel", "negative-epsilons",
        "zero-rate-horizon", "infinite-manifold-start"])
def test_run_failure_is_one_error_line(tmp_path, capsys, command, block):
    # a bad horizon, step, burn-in, point, start, epsilon, lag set or
    # diffusion matrix is refused before any artifact is written, and so is
    # a kernel that has not decayed; a solve that does not converge and a
    # grid of 7 PiB, which no machine can allocate, end in one error line
    # too; none warns
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, **{command: block}))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = _error_line(capsys)
    assert "\n" not in err and err.startswith("error: ")
    assert not out.exists() or not os.listdir(out)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_out_flag_takes_precedence_over_the_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_data = dict(LINEAR_CFG, simulate={"t_end": 0.01, "dt": 0.001},
                    out=str(tmp_path / "from_config"))
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg, "--out", "artifacts"]) == 0
    capsys.readouterr()
    assert len(os.listdir(tmp_path / "from_config")) == 2
    assert len(os.listdir(tmp_path / "artifacts")) == 2


@pytest.mark.parametrize("component", ["(" * 199 + "y1" + ")" * 199,
                                       "tanh(" * 210 + "y1" + ")" * 210,
                                       "+".join(["y1"] * 3000)],
                         ids=["parens", "calls", "flat"])
def test_validate_too_deep_expression_is_an_error_line(tmp_path, capsys, component):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"]["f"] = {"kind": "expr", "components": [component], "lip": 1.0,
                              "growth": 1.0}
    assert main(["validate", "--config", write_cfg(tmp_path, cfg_data)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("jump, sigma", [("jump_slow", "sigma1"),
                                         ("jump_fast", "sigma2")])
def test_validate_jumps_on_zero_amplitude_is_an_error_line(tmp_path, capsys, jump,
                                                           sigma):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"].update({sigma: 0.0, jump: {
        "intensity": 2.0, "size": {"kind": "uniform", "low": -0.5, "high": 0.5}}})
    assert main(["validate", "--config", write_cfg(tmp_path, cfg_data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and jump in err and sigma in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_simulate_writes_artifacts_and_is_reproducible(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.5, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    first = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    second = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    a = open(first["x_csv"]).read()
    b = open(second["x_csv"]).read()
    assert a == b                      # same config + seed: identical bytes
    assert a.startswith("t,x1\n0,1\n")


def test_simulate_zero_horizon_single_row(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.0, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    info = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    rows = open(info["x_csv"]).read().strip().split("\n")
    assert len(rows) == 2              # header + initial condition
    assert rows[1].split(",")[1] == "1"


@pytest.mark.parametrize("epsilon", [0.3, 0.7])
def test_simulate_default_step_keeps_the_guard(tmp_path, capsys, epsilon):
    # epsilon / 10 does not divide t_end 1: the default step is the longest
    # one under the guard that does, so the run ends on t_end and is not refused
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"]["epsilon"] = epsilon
    cfg_data["simulate"] = {"t_end": 1.0}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    info = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    t = np.loadtxt(info["x_csv"], delimiter=",", skiprows=1)[:, 0]
    assert t[-1] == 1.0 and np.max(np.diff(t)) <= epsilon / 10 + 1e-15


def test_seed_precedence_flag_env_config(tmp_path, capsys, monkeypatch):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.1, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)

    def x_csv(args):
        assert main(args) == 0
        return open(strict_json(capsys.readouterr().out.strip().split("\n")[-1])["x_csv"]).read()

    base = x_csv(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")])
    monkeypatch.setenv("SEED", "99")
    env = x_csv(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")])
    flagged = x_csv(["simulate", "--config", cfg, "--out", str(tmp_path / "o3"),
                     "--seed", "7"])
    assert env != base                 # env var overrides the config seed
    assert flagged == base             # explicit flag overrides the env var


def test_average_reports_fbar_and_mixing(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["average"] = {"x": [1.0], "horizon": 40.0, "dt": 0.005,
                           "t_mix": 1.5, "n_paths": 400}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    assert abs(out["fbar"][0]) < 0.2
    assert out["mixing"]["eta_declared"] == pytest.approx(4.0)


def test_average_rejects_unknown_delta_rule(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["average"] = {"x": [1.0], "horizon": 10.0, "t_mix": 0.5, "n_paths": 100,
                           "epsilons": [0.2, 0.1, 0.05], "delta_rule": "eps**(1/2)"}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "error: unknown delta_rule 'eps**(1/2)'" in capsys.readouterr().err


def test_average_refuses_a_window_shorter_than_the_fbar_batches(tmp_path, capsys):
    # a NaN standard error is not JSON, so it is an error line, not a report
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["average"] = {"x": [1.0], "horizon": 0.05, "burn_in": 0.0,
                           "t_mix": 0.5, "n_paths": 100}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = _error_line(capsys)
    assert "\n" not in err and err.startswith("error: ") and "fbar window" in err


def _average_artifact(tmp_path, capsys, model, block):
    """The report ``slowfast average`` prints and the one it writes, read
    strictly; they are the same."""
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, model=model, average=block))
    assert main(["average", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    printed = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    (path,) = (tmp_path / "o").glob("*.json")
    assert strict_json(path.read_text()) == printed
    return printed


def test_average_writes_null_where_no_rate_is_fitted(tmp_path, capsys):
    # a mixing start at the stationary mean keeps every curve point under
    # the noise floor; a drift without y couples the two slow paths exactly,
    # so every strong error is 0: neither rate has a fit, and both read null
    block = {"x": [1.0], "horizon": 10.0, "t_mix": 0.5, "n_paths": 100}
    out = _average_artifact(tmp_path, capsys, LINEAR_CFG["model"],
                            dict(block, y_list=0))
    assert out["mixing"]["eta_empirical"] is None
    zero_f = dict(LINEAR_CFG["model"], f={"kind": "zero"})
    (tmp_path / "z").mkdir()
    out = _average_artifact(tmp_path / "z", capsys, zero_f,
                            dict(block, epsilons=[0.2, 0.1, 0.05], t_end=0.1,
                                 n_paths_rate=100))
    assert out["rate"]["errors"] == [0.0, 0.0, 0.0]
    assert [out["rate"][k] for k in ("slope", "intercept", "ci")] == [None] * 3


def test_manifold_command_writes_solution(tmp_path, capsys):
    cfg_data = {
        "model": {
            "dim": 1, "a": [[-1.0]], "b": [[-2.0]],
            "f": {"kind": "zero"},
            "g": {"kind": "constant", "value": [1.0]},
            "sigma1": 0.0, "sigma2": 0.0, "epsilon": 0.05,
            "x0": [0.0], "y0": [0.0],
        },
        "manifold": {"u0": [0.3], "t_neg": 8.0, "tol": 1e-10},
        "seed": 3,
    }
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["manifold", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["h_value"][0] == pytest.approx(0.5, abs=1e-6)
    files = os.listdir(tmp_path / "o")
    assert any(f.endswith("-profile.csv") for f in files)


def test_deviate_with_htilde_override_zero(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["deviate"] = {"htilde_override": [[0.0]], "t_end": 0.5,
                           "dt_theta": 1e-3}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    files = [f for f in os.listdir(tmp_path / "o") if f.endswith("-theta.csv")]
    rows = open(tmp_path / "o" / files[0]).read().strip().split("\n")[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_deviate_refuses_a_single_kernel_replica(tmp_path, capsys):
    # one replica has no spread, so no standard error and no decay test
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["deviate"] = {"n_replicas": 1}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "n_replicas" in _error_line(capsys)


def _refused(tmp_path, capsys, command, block):
    """The one error line of a refused command; it wrote no artifact."""
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, **{command: block}))
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = _error_line(capsys)
    assert "\n" not in err and err.startswith("error: ")
    assert not out.exists() or not os.listdir(out)
    return err


def test_deviate_refuses_a_lag_off_the_step_grid(tmp_path, capsys):
    # 0.05 / 0.7 is no whole number of steps: rounded, every lag would read
    # the lag-0 product, so no kernel CSV is written
    assert "whole number of steps" in _refused(tmp_path, capsys, "deviate", {"dt": 0.7})


def test_deviate_refuses_a_wrong_shape_htilde(tmp_path, capsys):
    err = _refused(tmp_path, capsys, "deviate",
                   {"htilde_override": [[0.25, 0.0], [0.0, 0.25]]})
    assert "htilde" in err and "1 x 1" in err


def test_manifold_reports_the_window_it_solved_on(tmp_path, capsys):
    # t_neg 1.2 rounds to two steps of 0.5: the profile and the report
    # both start at -1.0
    cfg = write_cfg(tmp_path, dict(LINEAR_CFG, manifold={"grid_step": 0.5,
                                                         "t_neg": 1.2}))
    assert main(["manifold", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = strict_json(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["t_neg"] == 1.0
    profile = [f for f in os.listdir(tmp_path / "o") if f.endswith("-profile.csv")]
    rows = np.loadtxt(tmp_path / "o" / profile[0], delimiter=",", skiprows=1)
    assert rows[0, 0] == -1.0 and rows[-1, 0] == 0.0


def test_deviate_grid_step_not_dividing_horizon(tmp_path, capsys):
    # 1.0 / 0.3 is not an integer: the last step is stretched to 0.4 to end at t_end
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["deviate"] = {"htilde_override": [[0.25]], "t_end": 1.0,
                           "dt_theta": 0.3}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    files = [f for f in os.listdir(tmp_path / "o") if f.endswith("-theta.csv")]
    rows = open(tmp_path / "o" / files[0]).read().strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.3, 0.6, 1.0]


def test_deviate_theta_rides_substream_carrier(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"]["sigma1"] = 0.3
    cfg_data["deviate"] = {"htilde_override": [[0.25]], "t_end": 0.5,
                           "dt_theta": 0.01}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    files = [f for f in os.listdir(tmp_path / "o") if f.endswith("-theta.csv")]
    written = np.loadtxt(tmp_path / "o" / files[0], delimiter=",", skiprows=1)
    m = model_from_config(cfg_data)
    am = build_averaged(m)
    dm = build_deviation_model(am, np.array([[0.25]]), x=m.x0)
    slow = sample_increments(1, make_grid(0.5, 0.01), substream(7, 0, ROLE_SLOW))
    carrier = simulate_averaged(am, 0.5, 0.01, slow)
    theta = simulate_deviation(dm, carrier, 0.5, 0.01, substream(7, 0, ROLE_DEV))
    assert np.array_equal(written[:, 1], theta.states[:, 0])


def test_workers_flag_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    assert main(["validate", "--config", cfg, "--workers", "2"]) == 1


def test_model_from_config_expr_drifts():
    cfg = {"model": {
        "dim": 1, "a": [[-1.0]], "b": [[-2.0]],
        "f": {"kind": "expr", "components": ["tanh(y1)"], "lip": 1.0},
        "g": {"kind": "saturating", "amp": [0.25], "gx": [[1.0]]},
        "sigma2": 1.0, "epsilon": 0.1}}
    m = model_from_config(cfg)
    assert m.f.depends_on_y
    assert m.g.lip == pytest.approx(0.25)


def test_verify_command_prints_pass_lines(capsys):
    code = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if l.startswith(("PASS", "FAIL"))]
    assert code == 0
    assert len(lines) >= 7
    assert all(l.startswith("PASS") for l in lines)
    assert any("manifold.constant-graph" in l for l in lines)


# whole drift sources (valid for n = 2), and fragments of sources, valid and not
SOURCES = ["tanh(y1)", "0.5*x2 - y1", "x1/y2", "exp(exp(y1))", "1e999*x1", "-(x2)"]
SOURCE_PIECES = ["x1", "y1", "x2", "y2", "x0", "z1", "tanh", "exp", "log", "(", ")",
                 "+", "-", "*", "/", "2", ".5", "1e999", " ", "'", ";", "["]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 2),
       components=st.lists(st.sampled_from(SOURCES)
                           | st.lists(st.sampled_from(SOURCE_PIECES), max_size=6)
                           .map("".join), min_size=1, max_size=3))
def test_validate_exit_code_matches_the_error_class(n, components):
    try:
        parse_drift(components, n)
        rejected = False
    except DriftExprError:
        rejected = True
    cfg = {"model": {"dim": n, "a": (-np.eye(n)).tolist(), "b": (-2.0 * np.eye(n)).tolist(),
                     "f": {"kind": "expr", "components": components, "lip": 1.0,
                           "growth": 1.0},
                     "g": {"kind": "zero"}, "sigma2": 1.0}}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with (np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(["validate", "--config", path, "--out", tmp])
    has_error_line = any(line.startswith("error: ")
                         for line in err.getvalue().splitlines())
    if rejected:
        assert code == 1 and has_error_line
    else:
        assert code in (0, 2) and not has_error_line
