import numpy as np
import pytest

from platoonmpc.core import PlatoonState, initial_state, prefix_sum_matrix
from platoonmpc.problem import build_qcqp, check_membership, eval_objective
from platoonmpc.solvers import solve_centralized

from conftest import (dense_hessian_oracle, objective_quadratic_part, random_state,
                      random_weights, rollout_objective, small_config)


def hessian_by_polarization(state, cfg, weights):
    """Recover the Hessian from rollout objective evaluations alone."""
    N = cfg.n * cfg.horizon
    H = np.zeros((N, N))
    f0 = rollout_objective(state, cfg, weights, np.zeros(N))
    for i in range(N):
        ei = np.eye(N)[i]
        H[i, i] = rollout_objective(state, cfg, weights, 2 * ei) \
            - 2 * rollout_objective(state, cfg, weights, ei) + f0
        for j in range(i + 1, N):
            ej = np.eye(N)[j]
            H[i, j] = H[j, i] = rollout_objective(state, cfg, weights, ei + ej) \
                - rollout_objective(state, cfg, weights, ei) \
                - rollout_objective(state, cfg, weights, ej) + f0
    return H


def test_single_stage_hessian_closed_form(rng):
    cfg = small_config(4, 1, tau=0.8)
    w = random_weights(rng, 4, 1)
    state = random_state(rng, cfg)
    prob = build_qcqp(state, cfg, w)
    tau = cfg.tau
    Sinv = np.linalg.inv(prefix_sum_matrix(4))
    inner = np.diag(tau ** 2 * (tau ** 2 * w.q_gap[0] / 4 + w.q_rate[0] + w.q_ride[0]))
    expected = Sinv.T @ inner @ Sinv
    np.testing.assert_allclose(prob.hessian_dense(), expected, atol=1e-12)
    # and against pure objective evaluations
    np.testing.assert_allclose(hessian_by_polarization(state, cfg, w), expected, atol=1e-7)


def test_objective_matches_rollout(rng):
    cfg = small_config(3, 2)
    w = random_weights(rng, 3, 2)
    state = random_state(rng, cfg)
    prob = build_qcqp(state, cfg, w)
    for _ in range(5):
        u = rng.normal(size=6)
        lhs = eval_objective(prob, u)
        rhs = objective_quadratic_part(state, cfg, w, u)
        assert lhs == pytest.approx(rhs, rel=1e-10)
    assert eval_objective(prob, np.zeros(6)) == 0.0


def test_objective_homogeneous_in_weights(rng):
    cfg = small_config(3, 2)
    w = random_weights(rng, 3, 2)
    state = random_state(rng, cfg)
    u = rng.normal(size=6)
    v1 = eval_objective(build_qcqp(state, cfg, w), u)
    v2 = eval_objective(build_qcqp(state, cfg, w.scaled(2.0)), u)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_steady_platoon_minimizer_is_zero(rng):
    cfg = small_config(4, 2)
    w = random_weights(rng, 4, 2)
    state = initial_state(cfg, speed=25.0, u0=0.0)
    prob = build_qcqp(state, cfg, w)
    np.testing.assert_allclose(prob.c, 0.0, atol=1e-14)
    u = solve_centralized(prob)
    np.testing.assert_allclose(u, 0.0, atol=1e-10)


def test_hessian_positive_definite_random(rng):
    for _ in range(8):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(1, 6))
        cfg = small_config(n, p)
        w = random_weights(rng, n, p)
        state = random_state(rng, cfg)
        W = build_qcqp(state, cfg, w).hessian_dense()
        assert np.linalg.eigvalsh(W).min() > 0
        np.testing.assert_allclose(W, W.T, atol=1e-12)


def test_block_tridiagonal_sparsity_and_dense_oracle(rng):
    cfg = small_config(5, 3)
    w = random_weights(rng, 5, 3)
    state = random_state(rng, cfg)
    prob = build_qcqp(state, cfg, w)
    W = prob.hessian_dense()
    p = cfg.horizon
    for i in range(cfg.n):
        for j in range(cfg.n):
            if abs(i - j) >= 2:
                blk = W[i * p:(i + 1) * p, j * p:(j + 1) * p]
                assert np.all(blk == 0.0)
    np.testing.assert_allclose(W, dense_hessian_oracle(w, cfg.tau), atol=1e-12)
    np.testing.assert_allclose(prob.hessian_matvec(np.arange(15.0)),
                               W @ np.arange(15.0), atol=1e-10)


def test_linear_term_locality(rng):
    cfg = small_config(5, 2)
    w = random_weights(rng, 5, 2)
    state = random_state(rng, cfg)
    base = build_qcqp(state, cfg, w).c
    p = cfg.horizon

    # perturbing vehicle j's gap and rate changes only slices j-1 and j
    for j in [2, 4]:
        x = state.x.copy()
        v = state.v.copy()
        x[j] -= 0.37
        v[j] += 0.21
        pert = PlatoonState(x=x, v=v, u0=state.u0)
        c2 = build_qcqp(pert, cfg, w).c
        changed = {i for i in range(cfg.n)
                   if not np.allclose(c2[i * p:(i + 1) * p], base[i * p:(i + 1) * p], atol=1e-13)}
        # moving vehicle j perturbs the gaps on both its sides, i.e. error
        # entries j and j+1, so slices j-1, j and j+1 may move
        assert changed <= {j - 2, j - 1, j}

    # leader acceleration enters the first slice only
    pert = PlatoonState(x=state.x, v=state.v, u0=state.u0 + 0.5)
    c2 = build_qcqp(pert, cfg, w).c
    changed = {i for i in range(cfg.n)
               if not np.allclose(c2[i * p:(i + 1) * p], base[i * p:(i + 1) * p], atol=1e-13)}
    assert changed == {0}


def test_membership_steady_platoon_slack():
    cfg = small_config(3, 1)
    state = initial_state(cfg, speed=25.0)
    prob = build_qcqp(state, cfg, random_weights(np.random.default_rng(0), 3, 1))
    rep = check_membership(prob, np.zeros(3))
    assert rep.feasible
    # L + r v - (v - v_min)^2 / (2 a_min) = 44.0625 against a 50 m gap
    np.testing.assert_allclose(rep.safety[:, 0], -5.9375, atol=1e-12)


def test_membership_flags_violations(rng):
    cfg = small_config(3, 1)
    state = initial_state(cfg, speed=25.0)
    prob = build_qcqp(state, cfg, random_weights(rng, 3, 1))
    u = np.zeros(3)
    u[0] = cfg.a_max + 0.1
    rep = check_membership(prob, u)
    assert not rep.feasible and rep.box[0, 0] > 0

    state_fast = initial_state(cfg, speed=cfg.v_max)
    prob = build_qcqp(state_fast, cfg, random_weights(rng, 3, 1))
    rep = check_membership(prob, np.full(3, 0.5))
    assert not rep.feasible and np.all(rep.speed[:, 0] > 0)


def test_weight_validation_and_finiteness(rng):
    cfg = small_config(3, 2)
    w = random_weights(rng, 3, 1)  # wrong horizon
    state = initial_state(cfg, speed=25.0)
    with pytest.raises(ValueError):
        build_qcqp(state, cfg, w)

