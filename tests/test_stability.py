import numpy as np
import pytest

import platoonmpc.harness as harness
from platoonmpc.core import WeightSchedule, error_coords, initial_state, \
    reference_config, step_dynamics
from platoonmpc.decomposition import stage_blocks
from platoonmpc.problem import build_qcqp
from platoonmpc.solvers import solve_centralized
from platoonmpc.stability import (build_closed_loop, default_weight_schedule,
                                  eigen_bounds_check, gen_weight_schedule, schur_margin)

from conftest import random_weights, small_config, step_template


def test_reference_spectral_radii():
    m1 = build_closed_loop(reference_config(horizon=1), default_weight_schedule(1))
    assert abs(m1.spectral_radius - 0.8498) <= 1e-3
    for p in (2, 3, 4, 5):
        m = build_closed_loop(reference_config(horizon=p), default_weight_schedule(p))
        assert abs(m.spectral_radius - 0.8376) <= 1e-3


def test_two_stage_schur_stable_random(rng):
    # strictly positive first stage, nonzero nonnegative second stage
    for _ in range(25):
        q1 = rng.uniform(0.2, 5.0, (3, 1))
        q2 = rng.uniform(0.0, 2.0, (3, 1))
        if np.all(q2 == 0):
            q2[0] = 1.0
        w = WeightSchedule(np.hstack([q1[:1].T, q2[:1].T]).reshape(2, 1),
                           np.hstack([q1[1:2].T, q2[1:2].T]).reshape(2, 1),
                           np.vstack([q1[2:3], np.maximum(q2[2:3], 1e-6)]).reshape(2, 1))
        cfg = small_config(2, 2)
        w_full = WeightSchedule(np.repeat(w.q_gap, 2, axis=1),
                                np.repeat(w.q_rate, 2, axis=1),
                                np.repeat(w.q_ride, 2, axis=1))
        m = build_closed_loop(cfg, w_full)
        assert m.spectral_radius < 1.0


def test_two_stage_determinant_identity(rng):
    # the closed-form reduction of the two-stage gain: the determinant of
    # the per-vehicle stage Hessian over tau^4 equals the same positive
    # combination that appears in the reduced one-stage form
    for _ in range(20):
        tau = float(rng.uniform(0.4, 2.0))
        a1, b1, z1 = rng.uniform(0.2, 4.0, 3)
        a2, b2, z2 = rng.uniform(0.0, 2.0, 3)
        w = WeightSchedule(np.array([[a1], [a2]]), np.array([[b1], [b2]]),
                           np.array([[z1], [max(z2, 1e-9)]]))
        H = stage_blocks(w, tau)[0]
        d2 = tau ** 2 / 4 * a2 + b2 + max(z2, 1e-9)
        alpha_p = d2 * a1 + a2 * (2 * b2 + 3 * max(z2, 1e-9))
        beta_p = d2 * b1 + tau ** 2 / 2 * a2 * b2 + max(z2, 1e-9) * (1.5 * tau ** 2 * a2 + b2)
        gamma_p = d2 * z1
        d_prime = np.linalg.det(H) / tau ** 4
        assert d_prime == pytest.approx(tau ** 2 / 4 * alpha_p + beta_p + gamma_p, rel=1e-10)


def test_block_diagonalization_and_radius_consistency(rng):
    cfg = small_config(6, 3)
    w = random_weights(rng, 6, 3, lo=0.1)
    m = build_closed_loop(cfg, w)
    # permutation grouping each vehicle's (gap, rate) pair
    E = np.zeros((2 * cfg.n, 2 * cfg.n))
    for i in range(cfg.n):
        E[i, 2 * i] = 1.0
        E[cfg.n + i, 2 * i + 1] = 1.0
    tilde = E.T @ m.a_closed @ E
    for i in range(cfg.n):
        np.testing.assert_allclose(tilde[2 * i:2 * i + 2, 2 * i:2 * i + 2],
                                   m.vehicle_blocks[i], atol=1e-12)
    off = tilde.copy()
    for i in range(cfg.n):
        off[2 * i:2 * i + 2, 2 * i:2 * i + 2] = 0.0
    assert np.abs(off).max() <= 1e-12
    rho_full = max(abs(np.linalg.eigvals(m.a_closed)))
    assert m.spectral_radius == pytest.approx(rho_full, abs=1e-10)


def test_eigen_bounds_unit_weights():
    cfg = small_config(3, 1)
    w = WeightSchedule(np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 3)))
    m = build_closed_loop(cfg, w)
    report = eigen_bounds_check(m, w)
    assert report["ok"]
    rec = report["vehicles"][0]
    assert rec["kind"] == "complex"
    assert rec["modulus_sq"] == pytest.approx(1.0 / 2.25, abs=1e-12)


def test_eigen_bounds_small_ride_weight_limit():
    cfg = small_config(2, 1)
    for ride in (1e-2, 1e-4, 1e-6):
        w = WeightSchedule(np.ones((1, 2)), np.ones((1, 2)), np.full((1, 2), ride))
        m = build_closed_loop(cfg, w)
        rec = eigen_bounds_check(m, w)["vehicles"][0]
        if rec["kind"] == "complex":
            assert rec["modulus_sq"] == pytest.approx(ride / (0.25 + 1 + ride), abs=1e-12)
    # the complex-pair modulus vanishes with the ride weight
    assert ride / (0.25 + 1 + ride) < 1e-5


def test_eigen_bounds_reference_weights():
    cfg = reference_config(horizon=1)
    w = default_weight_schedule(1)
    m = build_closed_loop(cfg, w)
    report = eigen_bounds_check(m, w)
    assert report["ok"]
    # cross-check the first vehicle's branch against a direct eigensolve
    ev = np.linalg.eigvals(m.vehicle_blocks[0])
    rec = report["vehicles"][0]
    if rec["kind"] == "complex":
        assert abs(ev[0]) ** 2 == pytest.approx(rec["expected"], abs=1e-10)
    else:
        lo, hi = rec["interval"]
        assert all(lo - 1e-10 < e.real < hi + 1e-10 for e in ev)


def test_eigen_bounds_random_draws(rng):
    cfg = small_config(4, 1)
    for _ in range(100):
        w = WeightSchedule(rng.uniform(0.05, 8.0, (1, 4)),
                           rng.uniform(0.05, 8.0, (1, 4)),
                           rng.uniform(0.05, 8.0, (1, 4)))
        report = eigen_bounds_check(build_closed_loop(cfg, w), w, tol=1e-10)
        assert report["ok"]


def test_unconstrained_rollout_matches_closed_loop(rng):
    # run the real solver pipeline with constraints far away and compare
    # the realized errors with the closed-loop recursion, step by step
    cfg = small_config(4, 2)
    cfg = type(cfg)(**{**cfg.__dict__, "a_min": -1e6, "a_max": 1e6,
                       "v_min": 0.0, "v_max": 1e6, "gap": 1000.0})
    w = random_weights(rng, 4, 2, lo=0.1)
    model = build_closed_loop(cfg, w)
    state = initial_state(cfg, speed=500.0, u0=0.0)
    # perturb the platoon a little
    x = state.x.copy()
    x[1:] += rng.uniform(-0.5, 0.5, 4)
    state = type(state)(x=x, v=state.v + rng.uniform(-0.5, 0.5, 5), u0=0.3)

    zz = np.concatenate(error_coords(state, cfg))
    for k in range(200):
        prob = build_qcqp(state, template=step_template(cfg, w))
        u = solve_centralized(prob)
        u_first = u.reshape(4, 2)[:, 0]
        state = step_dynamics(state, u_first, state.u0, cfg.tau)
        zz = model.a_closed @ zz + np.concatenate([
            cfg.tau ** 2 / 2 * model.forcing, cfg.tau * model.forcing]) * 0.3
        np.testing.assert_allclose(np.concatenate(error_coords(state, cfg)), zz, atol=1e-8)


@pytest.mark.parametrize("name, p, seed, noise", [
    ("s1", 1, 0, False), ("s1", 5, 0, False), ("s1", 1, 3, True), ("s3-synthetic", 5, 4, True)])
def test_analyzed_gain_is_the_constraint_free_first_stage(monkeypatch, name, p, seed, noise):
    # on every step of a closed loop, the dense constraint-free minimizer's
    # first-stage acceleration gaps u_{j-1} - u_j, u_{-1} the leader's, are
    # the analyzed feedback K_j (e_j, r_j), plus forcing u0 on the first
    # vehicle; only noise gives the followers sizable gaps
    steps, build = [], harness.build_qcqp

    def recorded(state, template):
        steps.append((state, build(state, template=template)))
        return steps[-1][1]

    monkeypatch.setattr(harness, "build_qcqp", recorded)
    spec = harness.scenario_builtin(name, p=p, seed=seed, noise=noise)
    harness.run_scenario(spec)
    model = build_closed_loop(spec.cfg, spec.weights)
    gaps = []
    for state, prob in steps:
        u = np.linalg.solve(prob.hessian_dense(), -prob.c).reshape(spec.cfg.n, p)[:, 0]
        e, r = error_coords(state, spec.cfg)
        gap = np.concatenate([[state.u0], u[:-1]]) - u
        analyzed = model.gains[:, 0] * e + model.gains[:, 1] * r + model.forcing * state.u0
        np.testing.assert_allclose(gap, analyzed, rtol=0, atol=1e-12)
        gaps.append(gap)
    assert len(steps) == spec.duration
    assert (np.abs(np.array(gaps)[:, 1:]).max() > 1e-2) == noise


def test_schur_margin_zero_scale_reduces_to_two_stage(rng):
    cfg = small_config(3, 4)
    w = random_weights(rng, 3, 4, lo=0.1)
    res = schur_margin(cfg, w, scale_max=4.0)
    assert res.matches_two_stage
    two = build_closed_loop(small_config(3, 2),
                            WeightSchedule(w.q_gap[:2], w.q_rate[:2], w.q_ride[:2]))
    assert res.rho_at_zero == pytest.approx(two.spectral_radius, abs=1e-12)


def test_schur_margin_reference_weights():
    cfg = reference_config(horizon=5)
    res = schur_margin(cfg, default_weight_schedule(5), scale_max=1.0)
    # the decayed tail keeps the loop stable through the nominal scale
    assert res.scale == pytest.approx(1.0)
    assert res.rho_at_scale < 1.0


def test_schur_margin_adversarial_tail(rng):
    # exploratory probe: huge tail weights may or may not break stability;
    # the result only has to be a consistent bisection outcome
    cfg = small_config(3, 3)
    w = random_weights(rng, 3, 3, lo=0.5)
    res = schur_margin(cfg, w, scale_max=3000.0)
    if res.scale < 3000.0:
        rho_above = build_closed_loop(
            cfg, WeightSchedule(np.vstack([w.q_gap[:2], w.q_gap[2:] * (res.scale + 1.0)]),
                                np.vstack([w.q_rate[:2], w.q_rate[2:] * (res.scale + 1.0)]),
                                w.q_ride)).spectral_radius
        assert rho_above >= 1.0 - 1e-6
    assert res.rho_at_scale < 1.0


def test_schedule_factors_and_validation():
    base = np.full(3, 2.0)
    w = gen_weight_schedule(base, base, base, p=3, eta=4.0,
                            kappa_gap=0.0228, kappa_rate=0.0228, kappa_ride=0.0228)
    assert w.q_gap[0, 0] == w.q_rate[0, 0] == w.q_ride[0, 0] == 1.0  # stage one subtracts one
    assert w.q_gap[1, 0] == pytest.approx(2 * 0.0228)        # (s-1)^4 = 1 at s = 2
    assert w.q_gap[2, 0] == pytest.approx(2 * 0.0228 / 16)   # = 0.00285 at s = 3
    with pytest.raises(ValueError):
        gen_weight_schedule(base, base, base, p=2, eta=1.0,
                            kappa_gap=0.1, kappa_rate=0.1, kappa_ride=0.1)


def test_default_schedule_shapes():
    w1 = default_weight_schedule(1)
    assert w1.horizon == 1 and w1.n == 10
    w5 = default_weight_schedule(5)
    assert w5.horizon == 5
    # multi-stage schedules shave one unit off the first stage
    np.testing.assert_allclose(w1.q_gap[0] - w5.q_gap[0], 1.0)
