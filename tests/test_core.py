import numpy as np
import pytest

from platoonmpc.core import (LeaderProfile, PlatoonConfig, PlatoonState, WeightSchedule,
                             error_coords, initial_state, reference_config, step_dynamics)

from conftest import accel_gaps, prefix_sum_matrix, small_config


def test_zero_control_coasts():
    cfg = small_config(3, 1)
    state = initial_state(cfg, speed=25.0)
    nxt = step_dynamics(state, np.zeros(3), 0.0, tau=1.0)
    np.testing.assert_allclose(nxt.x, state.x + 25.0)
    np.testing.assert_allclose(nxt.v, 25.0)


def test_braking_step_matches_kinematics():
    # unit sample time, braking at -2 from 25 m/s
    cfg = small_config(3, 1)
    state = initial_state(cfg, speed=25.0)
    nxt = step_dynamics(state, np.full(3, -2.0), 0.0, tau=1.0)
    np.testing.assert_allclose(nxt.v[1:], 23.0)
    np.testing.assert_allclose(nxt.x[1:] - state.x[1:], 24.0)


def test_error_update_matches_position_arithmetic(rng):
    # oracle: recompute gap errors from the stepped positions directly
    cfg = small_config(4, 1)
    gaps = cfg.gap + rng.uniform(-2, 2, 4)
    state = PlatoonState(x=np.concatenate([[0.0], -np.cumsum(gaps)]),
                         v=rng.uniform(15, 25, 5), u0=0.7)
    u = rng.uniform(-2, 1, 4)
    gap_before, rate_before = error_coords(state, cfg)
    gap_after, rate_after = error_coords(step_dynamics(state, u, 0.0, tau=1.0), cfg)
    # the error update the rollout oracle uses, driven by the acceleration gaps
    w = accel_gaps(u, state.u0)
    gap_err = gap_before + rate_before + 0.5 * w
    rate_err = rate_before + w
    np.testing.assert_allclose(gap_err, gap_after, atol=1e-12)
    np.testing.assert_allclose(rate_err, rate_after, atol=1e-12)


def test_dynamics_superposition(rng):
    cfg = small_config(4, 1)
    state = initial_state(cfg, speed=20.0)
    u1 = rng.normal(size=4)
    u2 = rng.normal(size=4)
    a = step_dynamics(state, u1 + u2, 0.0, tau=0.5)
    b = step_dynamics(state, u1, 0.0, tau=0.5)
    # the difference depends only on u2
    dx = a.x - b.x
    dv = a.v - b.v
    np.testing.assert_allclose(dx[1:], 0.5 ** 2 / 2 * u2, atol=1e-12)
    np.testing.assert_allclose(dv[1:], 0.5 * u2, atol=1e-12)


def test_error_coords_equilibrium_and_arithmetic():
    cfg = small_config(2, 1)
    state = initial_state(cfg, speed=25.0)
    gap_err, rate_err = error_coords(state, cfg)
    np.testing.assert_allclose(gap_err, 0.0)
    np.testing.assert_allclose(rate_err, 0.0)

    state = PlatoonState(x=np.array([100.0, 49.0, -3.0]), v=np.array([25.0, 25.0, 25.0]), u0=0.0)
    gap_err, _ = error_coords(state, cfg)
    np.testing.assert_allclose(gap_err, [1.0, 2.0])


def test_accel_gap_identities(rng):
    np.testing.assert_allclose(accel_gaps(np.full(4, 0.3), 0.3), 0.0)
    np.testing.assert_allclose(accel_gaps(np.zeros(2), 1.0), [1.0, 0.0])
    u = rng.normal(size=6)
    u0 = rng.normal()
    w = accel_gaps(u, u0)
    S = prefix_sum_matrix(6)
    np.testing.assert_allclose(u, -S @ w + u0 * np.ones(6), atol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(1, 1)
    with pytest.raises(ValueError):
        PlatoonConfig(n=3, horizon=1, tau=1.0, gap=50, veh_len=5, reaction=0.5,
                      a_min=-8, a_max=1.35, v_min=10, v_max=27.78)  # reaction < tau
    with pytest.raises(ValueError):
        PlatoonConfig(n=3, horizon=1, tau=1.0, gap=50, veh_len=5, reaction=1.0,
                      a_min=1.0, a_max=1.35, v_min=10, v_max=27.78)  # a_min > 0


def test_state_validation():
    with pytest.raises(ValueError):
        PlatoonState(x=np.array([0.0, 10.0, 20.0]), v=np.zeros(3), u0=0.0)  # increasing
    with pytest.raises(ValueError):
        PlatoonState(x=np.array([0.0, -10.0, np.nan]), v=np.zeros(3), u0=0.0)


def test_leader_profiles(tmp_path):
    prof = LeaderProfile.piecewise([(2, 3, -2.0)], 6)
    assert prof.accel_at(1) == 0.0 and prof.accel_at(2) == -2.0 and prof.accel_at(5) == 0.0
    assert prof.accel_at(100) == 0.0

    per = LeaderProfile.periodic([1.0, -1.0], 1, 4, 6)
    np.testing.assert_allclose(per.series(6), [0, 1, -1, 1, -1, 0])

    path = tmp_path / "traj.csv"
    path.write_text("t,accel\n0,0.5\n1,-0.5\n2,0.0\n")
    traj = LeaderProfile.from_csv(path, tau=1.0)
    np.testing.assert_allclose(traj.samples, [0.5, -0.5, 0.0])

    # zero-order hold when resampling per-second data to a finer grid
    fine = LeaderProfile.from_csv(path, tau=0.5)
    np.testing.assert_allclose(fine.samples, [0.5, 0.5, -0.5, -0.5, 0.0])

    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,a\n0,1\n")
        LeaderProfile.from_csv(bad, tau=1.0)
    # times out of order, repeated or not finite: the hold would drop rows
    for times in ("0,2,1", "0,1,1", "0,nan,2", "0,1,inf"):
        bad = tmp_path / "unordered.csv"
        bad.write_text("t,accel\n" + "".join(f"{t},0.5\n" for t in times.split(",")))
        with pytest.raises(ValueError, match="strictly increasing"):
            LeaderProfile.from_csv(bad, tau=1.0)


def test_leader_speed_validation():
    cfg = reference_config()
    prof = LeaderProfile.piecewise([(0, 9, -2.0)], 20)  # 25 -> 5 m/s, below v_min
    with pytest.raises(ValueError):
        prof.validate_speeds(25.0, cfg, 20)
    ok = LeaderProfile.piecewise([(0, 3, -2.0)], 20)
    ok.validate_speeds(25.0, cfg, 20)


def test_weight_schedule_validation(rng):
    with pytest.raises(ValueError):
        WeightSchedule(q_gap=-np.ones((1, 3)), q_rate=np.ones((1, 3)), q_ride=np.ones((1, 3)))
    with pytest.raises(ValueError):
        WeightSchedule(q_gap=np.ones((1, 3)), q_rate=np.ones((1, 3)), q_ride=np.zeros((1, 3)))
    w = WeightSchedule(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))
    assert w.horizon == 2 and w.n == 3
