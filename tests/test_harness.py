import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from platoonmpc.core import LeaderProfile, reference_config
from platoonmpc.harness import ScenarioSpec, emit_results, run_scenario, scenario_builtin
from platoonmpc.solvers import default_params_for_horizon
from platoonmpc.stability import default_weight_schedule


def test_builtin_s1_leader_profile():
    spec = scenario_builtin("s1")
    v = 25.0
    for k in range(55):
        v += spec.leader.accel_at(k)
    assert v == pytest.approx(17.0)  # 25 - 2 * 4
    v_end = 25.0
    for k in range(spec.duration):
        v_end += spec.leader.accel_at(k)
    assert v_end == pytest.approx(25.0)


def test_builtin_s2_period_balance():
    spec = scenario_builtin("s2")
    series = spec.leader.samples
    assert series[:51].sum() == 0.0
    one_period = series[51:55]
    assert one_period.sum() == pytest.approx(0.0)
    assert np.abs(one_period).max() == 1.0
    assert series.sum() == pytest.approx(0.0)  # back to the original speed
    assert np.all(series[101:] == 0.0)


def test_builtin_s3_reproducible():
    a = scenario_builtin("s3-synthetic", seed=5)
    b = scenario_builtin("s3-synthetic", seed=5)
    np.testing.assert_array_equal(a.leader.samples, b.leader.samples)
    c = scenario_builtin("s3-synthetic", seed=6)
    assert not np.array_equal(a.leader.samples, c.leader.samples)
    assert np.abs(a.leader.samples).max() <= 2.0


def test_unknown_scenario():
    with pytest.raises(ValueError):
        scenario_builtin("s9")


def test_constant_leader_equilibrium(tmp_path):
    spec = ScenarioSpec(name="const", cfg=reference_config(), weights=default_weight_schedule(1),
                        leader=LeaderProfile.piecewise([], 12), duration=12,
                        solver=default_params_for_horizon(1))
    res = run_scenario(spec)
    np.testing.assert_allclose(res.spacings, spec.cfg.gap, atol=1e-9)
    np.testing.assert_allclose(res.speeds, 25.0, atol=1e-9)
    np.testing.assert_allclose(res.controls, 0.0, atol=1e-9)
    # emitted series of a constant run have constant columns
    emit_results(res, tmp_path)
    rows = [line.split(",")[1:] for line in
            (tmp_path / "spacings.csv").read_text().splitlines()[1:]]
    assert all(row == rows[0] for row in rows)


def test_emit_results_and_recompute(tmp_path, rng):
    spec = scenario_builtin("s3-synthetic", p=1, seed=1)
    res = run_scenario(spec)
    paths = emit_results(res, tmp_path / "out")
    names = {p.split("/")[-1] for p in map(str, paths)}
    assert names == {"spacings.csv", "speeds.csv", "controls.csv", "metrics.json",
                     "plot_results.py"}

    spac = (tmp_path / "out" / "spacings.csv").read_text().splitlines()
    assert len(spac) == spec.duration + 2  # header + duration+1 rows
    ctrl = (tmp_path / "out" / "controls.csv").read_text().splitlines()
    assert len(ctrl) == spec.duration + 1

    # recompute the headline metric from the emitted file
    rows = [list(map(float, line.split(","))) for line in spac[1:]]
    max_dev = max(abs(r[1] - spec.cfg.gap) for r in rows)
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["max_dev_first_gap"] == pytest.approx(max_dev, rel=1e-12)
    assert metrics["solver"]["rounds_median"] == float(np.median(res.rounds))
    assert metrics["solver"]["floats_median"] == float(np.median(res.floats))


def test_determinism_same_seed_same_files(tmp_path):
    for sub in ("a", "b"):
        spec = scenario_builtin("s3-synthetic", p=1, seed=3, noise=True)
        res = run_scenario(spec)
        emit_results(res, tmp_path / sub)
    for name in ("spacings.csv", "speeds.csv", "controls.csv", "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_agent_stack_built_once_per_run(monkeypatch):
    # the Hessian stacking and its chain layout run once per scenario run,
    # however many steps and solves (here with the warm-up start too)
    import platoonmpc.decomposition as decomposition
    import platoonmpc.harness as harness

    counts = {"stack": 0, "layout": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "decompose_pd", counted("stack", harness.decompose_pd))
    monkeypatch.setattr(decomposition, "AugmentedLayout",
                        counted("layout", decomposition.AugmentedLayout))
    spec = replace(scenario_builtin("s1", p=2, warm_start="warmup-projection"), duration=4)
    res = run_scenario(spec)
    assert (res.warmup_iterations > 0).all() and (res.iterations > 0).all()
    assert counts == {"stack": 1, "layout": 1}


def test_warmup_memory_seeds_the_solve(monkeypatch):
    # under the warm-up start each step's solve starts from the agents'
    # memory after the warm-up projection, and that memory reaches the next
    # step's warm-up: only an agent's first full projection starts cold
    import platoonmpc.harness as harness
    import platoonmpc.solvers as solvers

    returned, seen, cold, in_warmup = [], [], [], [False]
    warmup, solve, qcqp = harness.warmup_initial_guess, harness.solve_variant, solvers.solve_qcqp

    def recorded_warmup(*args):
        in_warmup[0] = True
        out = warmup(*args)
        in_warmup[0] = False
        returned.append(out[2].warm)
        return out

    def recorded_solve(problems, *args, **kwargs):
        seen.append(problems.warm)
        return solve(problems, *args, **kwargs)

    def recorded_qcqp(*args, **kwargs):
        if in_warmup[0]:
            cold.append(kwargs["x0"] is None)
        return qcqp(*args, **kwargs)

    monkeypatch.setattr(harness, "warmup_initial_guess", recorded_warmup)
    monkeypatch.setattr(harness, "solve_variant", recorded_solve)
    monkeypatch.setattr(solvers, "solve_qcqp", recorded_qcqp)
    spec = scenario_builtin("s1", p=5, warm_start="warmup-projection")
    run_scenario(spec)
    assert len(seen) == len(returned) == spec.duration
    assert all(s is r for s, r in zip(seen, returned))
    assert 0 < sum(cold) <= 10


@pytest.mark.parametrize("warm_start", ["prev-solution", "warmup-projection"])
def test_rounds_count_the_protocol(monkeypatch, warm_start):
    # each step's fabric traffic is two rounds and 4(n - 1)p floats per
    # consensus projection, plus the warm-up sweep's 2(n - 1) rounds of p
    # floats under the warm-up start
    import platoonmpc.harness as harness
    import platoonmpc.solvers as solvers

    per_step, project, build = [], solvers._project, harness.build_qcqp

    def counted(*args):
        per_step[-1] += 1
        return project(*args)

    def step_start(*args, **kwargs):
        per_step.append(0)
        return build(*args, **kwargs)

    monkeypatch.setattr(solvers, "_project", counted)
    monkeypatch.setattr(harness, "build_qcqp", step_start)
    res = run_scenario(scenario_builtin("s3-synthetic", p=2, seed=1, warm_start=warm_start))
    n, p = res.commanded.shape[1], 2
    sweep = 2 * (n - 1) if warm_start == "warmup-projection" else 0
    assert len(per_step) == len(res.rounds) and min(per_step) > 0
    assert res.warmup_iterations.tolist() == [sweep] * len(per_step)
    assert res.rounds.tolist() == [2 * k + sweep for k in per_step]
    assert res.floats.tolist() == [4 * (n - 1) * p * k + sweep * p for k in per_step]


def test_noise_free_run_leaves_numpy_random_unloaded():
    # the noise generator is built only when the scenario has noise:
    # loading numpy.random alone adds about 5 MB of resident memory
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from platoonmpc.harness import run_scenario, scenario_builtin\n"
            "run_scenario(replace(scenario_builtin('s1', p=1), duration=3))\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                    os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_s2_consensus_motion():
    # trailing gaps stay at the target through the periodic forcing
    res = run_scenario(scenario_builtin("s2", p=1))
    assert res.metrics["max_dev_other_gaps"] <= 1e-2


def test_s3_noise_robustness_soft_bounds():
    # with the process noise on, the lead gap stays within a meter and the
    # trailing gaps within half a meter on the synthetic oscillation
    res = run_scenario(scenario_builtin("s3-synthetic", p=1, seed=1, noise=True))
    assert res.metrics["max_dev_first_gap"] <= 1.0
    assert res.metrics["max_dev_other_gaps"] <= 0.5


@pytest.mark.parametrize("noise", [False, True])
def test_margins_are_the_spacing_bound(noise):
    # every row of the margins, the initial state's included, is the gap
    # less the safe-spacing bound at its follower's speed
    cfg = reference_config()
    res = run_scenario(scenario_builtin("s3-synthetic", p=1, seed=1, noise=noise))
    assert res.safety_margins.shape == res.spacings.shape == (res.speeds.shape[0], cfg.n)
    for spacing, speed, margin in zip(res.spacings, res.speeds, res.safety_margins):
        v = speed[1:]
        bound = cfg.veh_len + cfg.reaction * v - (v - cfg.v_min) ** 2 / (2.0 * cfg.a_min)
        np.testing.assert_array_equal(margin, spacing - bound)
    # row 0 is the initial state: 50 m gaps at 25 m/s, bound 5 + 25 + 15**2 / 16
    np.testing.assert_array_equal(res.safety_margins[0], 50.0 - (30.0 + 225.0 / 16.0))


def test_trajectory_file_scenario(tmp_path):
    path = tmp_path / "lead.csv"
    rows = ["t,accel"] + [f"{k},{0.2 if 3 <= k <= 4 else 0.0}" for k in range(12)]
    path.write_text("\n".join(rows) + "\n")
    leader = LeaderProfile.from_csv(path, tau=1.0)
    spec = ScenarioSpec(name="file", cfg=reference_config(), weights=default_weight_schedule(1),
                        leader=leader, duration=12, solver=default_params_for_horizon(1))
    res = run_scenario(spec)
    assert res.spacings.shape == (13, 10)
    assert res.metrics["min_safety_margin"] > 0


def test_misspelled_warm_start_raises():
    # each scenario's solver parameters are validated again when built
    with pytest.raises(ValueError, match="warm start"):
        scenario_builtin("s1", p=1, warm_start="warmup")
    with pytest.raises(FrozenInstanceError):
        scenario_builtin("s1", p=1).solver.warm_start = "warmup"


def test_solver_failure_carries_step_index():
    # equilibrium steps converge exactly even at an impossible tolerance;
    # the first transient step (the leader starts braking at k=51) fails
    # and the error names it
    spec = scenario_builtin("s1", p=1)
    spec = replace(spec, solver=replace(spec.solver, tol=1e-14, max_iters=2))
    with pytest.raises(RuntimeError, match="step 51"):
        run_scenario(spec)
