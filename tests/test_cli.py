import json
import os

import pytest

from slowfast.cli import main, model_from_config

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


def test_validate_passes_linear_benchmark(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINEAR_CFG)
    code = main(["validate", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"]
    assert out["gamma_b"] == pytest.approx(2.0)


def test_validate_fails_unstable_matrix(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["model"]["a"] = [[1.0]]
    cfg = write_cfg(tmp_path, cfg_data)
    code = main(["validate", "--config", cfg])
    assert code == 2
    assert not json.loads(capsys.readouterr().out)["passed"]


def test_missing_config_file_is_usage_error(capsys):
    code = main(["validate", "--config", "/nonexistent/f.json"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", "--config", str(path)]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_simulate_writes_artifacts_and_is_reproducible(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.5, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    first = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    second = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    a = open(first["x_csv"]).read()
    b = open(second["x_csv"]).read()
    assert a == b                      # same config + seed: identical bytes
    assert a.startswith("t,x1\n0,1\n")


def test_simulate_zero_horizon_single_row(tmp_path, capsys):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.0, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    info = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    rows = open(info["x_csv"]).read().strip().split("\n")
    assert len(rows) == 2              # header + initial condition
    assert rows[1].split(",")[1] == "1"


def test_seed_precedence_flag_env_config(tmp_path, capsys, monkeypatch):
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["simulate"] = {"t_end": 0.1, "dt": 0.001}
    cfg = write_cfg(tmp_path, cfg_data)

    def x_csv(args):
        assert main(args) == 0
        return open(json.loads(capsys.readouterr().out.strip().split("\n")[-1])["x_csv"]).read()

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
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert abs(out["fbar"][0]) < 0.2
    assert out["mixing"]["eta_declared"] == pytest.approx(4.0)


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
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
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


def test_deviate_grid_step_not_dividing_horizon(tmp_path, capsys):
    # 1.0 / 0.3 is not an integer: the last step is shortened to end at t_end
    cfg_data = json.loads(json.dumps(LINEAR_CFG))
    cfg_data["deviate"] = {"htilde_override": [[0.25]], "t_end": 1.0,
                           "dt_theta": 0.3}
    cfg = write_cfg(tmp_path, cfg_data)
    assert main(["deviate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    files = [f for f in os.listdir(tmp_path / "o") if f.endswith("-theta.csv")]
    rows = open(tmp_path / "o" / files[0]).read().strip().split("\n")[1:]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.3, 0.6, 1.0]


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
