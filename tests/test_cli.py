import json

import numpy as np
import pytest

from platoonmpc.cli import main


def test_analyze_reports_reference_radius(capsys):
    rc = main(["analyze", "--horizon", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["rho"] - 0.8498) <= 1e-3
    assert len(payload["per_vehicle_blocks"]) == 10
    assert payload["margins"] is None


def test_analyze_multi_stage_margins(capsys):
    rc = main(["analyze", "--horizon", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["rho"] - 0.8376) <= 1e-3
    assert payload["margins"]["matches_two_stage"] is True


def test_simulate_builtin(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "s3-synthetic", "--horizon", "1",
               "--variant", "dr", "--out", str(tmp_path / "out"), "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_dev_first_gap" in out
    assert (tmp_path / "out" / "metrics.json").exists()
    assert (tmp_path / "out" / "plot_results.py").exists()


def test_simulate_trajectory_file(tmp_path, capsys):
    path = tmp_path / "lead.csv"
    rows = ["t,accel"] + [f"{k},{-0.5 if k == 2 else 0.0}" for k in range(10)]
    path.write_text("\n".join(rows) + "\n")
    rc = main(["simulate", "--scenario", "file", "--trajectory", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_simulate_trajectory_file_with_noise(tmp_path, capsys):
    # --noise reaches a file scenario: two seeds realize different controls
    path = tmp_path / "lead.csv"
    path.write_text("t,accel\n" + "".join(f"{k},0.0\n" for k in range(6)))
    controls = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        rc = main(["simulate", "--scenario", "file", "--trajectory", str(path), "--noise",
                   "--seed", seed, "--out", str(out)])
        assert rc == 0
        controls.append((out / "controls.csv").read_text())
    assert controls[0] != controls[1]


def test_solve_once_with_oracle_diff(tmp_path, capsys, monkeypatch):
    # the step program and the Hessian split share one set of stage blocks
    import platoonmpc.cli as cli
    import platoonmpc.problem as problem

    built, stage_blocks = [], cli.stage_blocks

    def counted(*args, **kwargs):
        built.append(args)
        return stage_blocks(*args, **kwargs)

    for module in (cli, problem):
        monkeypatch.setattr(module, "stage_blocks", counted)
    payload = _solve_once(capsys, "--state", _state_file(tmp_path), "--horizon", "1")
    assert payload["converged"] is True
    assert payload["rel_error_vs_oracle"] <= 1e-2
    assert payload["feasible"] is True
    assert len(built) == 1


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _state_file(tmp_path):
    """A ten-vehicle state with jittered gaps, the leader braking."""
    x = np.arange(0.0, -11 * 50.0, -50.0) + np.linspace(0, 0.5, 11)
    return _write_json(tmp_path / "state.json", {"x": sorted(x.tolist(), reverse=True),
                                                 "v": [25.0] * 11, "u0": -1.0})


def _solve_once(capsys, *args):
    assert main(["solve-once", *args]) == 0
    return json.loads(capsys.readouterr().out)


def test_solve_once_config_variant_holds_unless_flag_given(tmp_path, capsys):
    state = _state_file(tmp_path)
    config = _write_json(tmp_path / "cfg.json", {"solver": {"variant": "three-op"}})
    dr = _solve_once(capsys, "--state", state)
    from_config = _solve_once(capsys, "--state", state, "--config", config)
    assert from_config == _solve_once(capsys, "--state", state, "--variant", "three-op")
    assert from_config["iterations"] != dr["iterations"]
    assert _solve_once(capsys, "--state", state, "--config", config, "--variant", "dr") == dr


def test_simulate_config_variant_holds_unless_flag_given(tmp_path, capsys):
    trajectory = tmp_path / "lead.csv"
    trajectory.write_text("t,accel\n" + "".join(f"{k},{-0.5 if k == 2 else 0.0}\n"
                                                 for k in range(6)))
    config = _write_json(tmp_path / "cfg.json", {"solver": {"variant": "three-op"}})

    def iterations(name, *args):
        out = tmp_path / name
        assert main(["simulate", "--scenario", "file", "--trajectory", str(trajectory),
                     "--out", str(out), *args]) == 0
        return json.loads((out / "metrics.json").read_text())["iterations_mean"]

    from_config, default = iterations("config", "--config", config), iterations("default")
    assert from_config == iterations("flag", "--variant", "three-op")
    assert from_config != default
    assert iterations("overridden", "--config", config, "--variant", "dr") == default


def test_solve_once_honours_warmup_start(tmp_path, capsys, monkeypatch):
    # solver.warm_start = "warmup-projection" runs one warm-up sweep and
    # solves from its start, as the closed loop does
    import platoonmpc.cli as cli

    sweeps, warmup = [], cli.warmup_initial_guess

    def counted(*args):
        sweeps.append(args)
        return warmup(*args)

    monkeypatch.setattr(cli, "warmup_initial_guess", counted)
    state = _state_file(tmp_path)
    config = _write_json(tmp_path / "cfg.json", {"solver": {"warm_start": "warmup-projection"}})
    cold = _solve_once(capsys, "--state", state)
    assert sweeps == []
    warm = _solve_once(capsys, "--state", state, "--config", config)
    assert len(sweeps) == 1
    assert warm["converged"] is True and warm["u_star"] != cold["u_star"]


def test_simulate_failure_exit_code(tmp_path, capsys):
    cfg = {"solver": {"tol": 1e-14, "max_iters": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--scenario", "s1", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "failed" in capsys.readouterr().err


def test_custom_config_weights(tmp_path, capsys):
    cfg = {
        "platoon": {"n": 3},
        "weights": {
            "q_gap": [[1.0, 1.0, 1.0]],
            "q_rate": [[1.0, 1.0, 1.0]],
            "q_ride": [[1.0, 1.0, 1.0]],
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["analyze", "--config", str(path), "--horizon", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["per_vehicle_blocks"]) == 3


@pytest.mark.parametrize("cfg, named", [
    ({"solver": {"tolerance": 1e-3}}, "tolerance"),
    ({"solver": {"tol": 1e-3, "parallel": True}}, "parallel"),
    ({"platoon": {"n": 10, "horizn": 2}}, "horizn"),
    ({"solvr": {"tol": 1e-3}, "weight": "default"}, "solvr, weight"),
    ({"solver": {"warmup_tol": 1e-3}}, "warmup_tol"),
    ({"weights": {"q_gap": [[1.0] * 10], "q_rate": [[1.0] * 10]}}, "lacks key.*q_ride"),
    ({"weights": {"q_gap": [[1.0] * 10], "q_rate": [[1.0] * 10], "q_ride": [[1.0] * 10],
                  "q_rde": [[1.0] * 10]}}, "unknown key.*q_rde"),
])
def test_config_unknown_keys_rejected(tmp_path, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=named):
        main(["analyze", "--config", str(path), "--horizon", "1"])
