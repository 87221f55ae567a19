"""Shared test fixtures and independent oracles.

The oracles here never call the production assembly paths they check:
objective values come from stepping the platoon forward stage by stage,
Hessians from dense permutation products, projections from least squares.
"""

import numpy as np
import pytest

from platoonmpc.core import (PlatoonConfig, PlatoonState, WeightSchedule, error_coords,
                             reference_config)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def prefix_sum_matrix(n):
    """Dense lower-triangular all-ones matrix (cumulative sums)."""
    return np.tril(np.ones((n, n)))


def accel_gaps(u, u0):
    """Differences of control input between adjacent vehicles,
    ``w_i = u_{i-1} - u_i`` with the leader acceleration as ``u_0``."""
    u = np.asarray(u, dtype=float)
    return np.concatenate([[u0], u[:-1]]) - u


def random_weights(rng, n, p, lo=0.0, hi=5.0, ride_lo=0.5):
    """Random schedule satisfying the sign rules (gap/rate >= 0, ride > 0)."""
    return WeightSchedule(
        q_gap=rng.uniform(lo, hi, (p, n)),
        q_rate=rng.uniform(lo, hi, (p, n)),
        q_ride=rng.uniform(ride_lo, hi, (p, n)),
    )


def small_config(n, p, tau=1.0):
    return PlatoonConfig(n=n, horizon=p, tau=tau, gap=50.0, veh_len=5.0, reaction=max(tau, 1.0),
                         a_min=-8.0, a_max=1.35, v_min=10.0, v_max=27.78)


def random_state(rng, cfg, gap_jitter=1.0, speed_lo=18.0, speed_hi=25.0, u0_mag=1.0):
    """Feasible platoon state with comfortable safety slack."""
    n = cfg.n
    gaps = cfg.gap + rng.uniform(-gap_jitter, gap_jitter, n)
    x = np.concatenate([[0.0], -np.cumsum(gaps)])
    v = rng.uniform(speed_lo, speed_hi, n + 1)
    return PlatoonState(x=x, v=v, u0=float(rng.uniform(-u0_mag, u0_mag)))


def rollout_objective(state, cfg, weights, u):
    """Stage-by-stage objective evaluation: simulate the predicted errors
    under the frozen leader acceleration and sum the weighted quadratics.
    Independent of the assembled Hessian/linear-term path."""
    n, p, tau = cfg.n, cfg.horizon, cfg.tau
    u = np.asarray(u, dtype=float).reshape(n, p)
    err = error_coords(state, cfg)
    z, zp = err.gap_err.copy(), err.rate_err.copy()
    e1 = np.zeros(n)
    e1[0] = 1.0
    total = 0.0
    for s in range(p):
        w = accel_gaps(u[:, s], state.u0)
        w_tilde = w - state.u0 * e1
        z = z + tau * zp + 0.5 * tau ** 2 * w
        zp = zp + tau * w
        total += 0.5 * (tau ** 2 * w_tilde @ (weights.q_ride[s] * w_tilde)
                        + z @ (weights.q_gap[s] * z)
                        + zp @ (weights.q_rate[s] * zp))
    return total


def objective_quadratic_part(state, cfg, weights, u):
    """Rollout objective with its control-free constant removed."""
    zero = rollout_objective(state, cfg, weights, np.zeros(cfg.n * cfg.horizon))
    return rollout_objective(state, cfg, weights, u) - zero


def stage_major_permutation(n, p):
    """Permutation with stage-major = E @ vehicle-major."""
    E = np.zeros((n * p, n * p))
    for k in range(p):
        for s in range(1, n + 1):
            E[n * k + s - 1, p * (s - 1) + k] = 1.0
    return E


def dense_hessian_oracle(weights, tau):
    """Dense Hessian via the stage-major route: diagonal stage-coupling
    blocks conjugated by the inverse prefix-sum operator, then permuted to
    vehicle-major order."""
    p, n = weights.horizon, weights.n
    Sinv = np.linalg.inv(prefix_sum_matrix(n))
    theta = np.zeros((n * p, n * p))
    for r in range(1, p + 1):
        for t in range(1, p + 1):
            d = np.zeros(n)
            for s in range(max(r, t), p + 1):
                d += (tau ** 4 / 4.0) * (2 * (s - r) + 1) * (2 * (s - t) + 1) * weights.q_gap[s - 1] \
                    + tau ** 2 * weights.q_rate[s - 1]
            if r == t:
                d = d + tau ** 2 * weights.q_ride[r - 1]
            theta[(r - 1) * n:r * n, (t - 1) * n:t * n] = np.diag(d)
    S_block = np.kron(np.eye(p), Sinv)
    V = S_block.T @ theta @ S_block
    E = stage_major_permutation(n, p)
    return E.T @ V @ E


@pytest.fixture
def ref_cfg():
    return reference_config()
