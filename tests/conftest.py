"""Shared test fixtures and independent oracles.

The oracles here never call the production assembly paths they check:
objective values come from stepping the platoon forward stage by stage,
Hessians from dense permutation products, projections from least squares,
and the splitting solvers' rounds from one unpadded step per agent.
"""

import numpy as np
import pytest

from platoonmpc.core import (PlatoonConfig, PlatoonState, WeightSchedule, error_coords,
                             reference_config)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def step_template(cfg, weights):
    """The run's ``StepTemplate`` over the weights' stage blocks."""
    from platoonmpc.decomposition import stage_blocks
    from platoonmpc.problem import StepTemplate

    return StepTemplate(cfg, weights, stage_blocks(weights, cfg.tau))


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
    z, zp = error_coords(state, cfg)
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


class PerAgentStep:
    """Reference for the batched agent engine: one agent's step on its own
    unpadded slice, as the solvers ran it before the batching.  It reads
    agent i's Hessian block and linear term from the step's problems, lays
    its rows out over its own dimension, takes its closed-form candidate from
    its own inverted prox matrix, and sends only a candidate that breaks a
    row to its full solve: the active-set loop on a stack of one from the
    agent's last full solve of either kind, its memory, which starts as the
    problems' ``warm[i]``, and ``solve_qcqp`` from that point when the loop
    gives up, or from no point when there is none (counted in ``cold``)."""

    def __init__(self, problems, i, rho):
        d = problems.stack.layout.dims[i]
        self.index, self.d, self.rho = i, d, rho
        self.hessian = problems.stack.H[i, :d, :d]
        self.c_tilde = problems.C[i, :d]
        self.prox_mat = np.linalg.inv(rho * self.hessian + np.eye(d))
        self.rows = problems.rows.take(i, d)
        self.fast = self.full = self.cold = 0
        warm = problems.warm[i]
        self.memory = None if warm is None else (warm[0][:d], warm[1])

    def gradient(self, x):
        return self.hessian @ x + self.c_tilde

    def prox(self, y):
        return self._constrained(self.prox_mat @ (y - self.rho * self.c_tilde), "prox subproblem",
                                 lambda: (self.hessian + np.eye(self.d) / self.rho,
                                          self.c_tilde - y / self.rho))

    def project(self, y):
        return self._constrained(y.copy(), "projection", lambda: (np.eye(self.d), -y))

    def _constrained(self, x, kind, objective):
        from platoonmpc.smallqcqp import KKT_TOL, InfeasibleProblem, active_set_loop, solve_qcqp
        from platoonmpc.solvers import ProxSolveError

        if self.rows.values(x).max() <= 1e-11:
            self.fast += 1
            return x
        self.full += 1
        P, q = objective()
        x0, active = self.memory or (None, None)
        if x0 is not None:  # the warm active set, as a stack of one
            x, lam, keys, passed, _, _ = active_set_loop(
                P[None], q[None], self.rows.take(None), x0[None],
                np.array([active], dtype=int), 12, 1e-12 * (1.0 + np.abs(q).max()), KKT_TOL)
            if passed[0]:
                self.memory = (x[0], tuple(keys[0][lam[0] > 0].tolist()))
                return x[0]
        self.cold += x0 is None
        try:
            res = solve_qcqp(P, q, self.rows, x0=x0)
        except InfeasibleProblem as exc:
            raise ProxSolveError(self.index, f"{kind}: {exc}") from exc
        if res.status != "optimal":
            raise ProxSolveError(self.index,
                                 f"{kind} stuck at KKT residual {res.kkt_residual:.2e}")
        self.memory = (res.x, res.active)
        return res.x


def agent_slice(layout, i):
    """Agent i's entries of a layout vector, padding excluded."""
    return slice(i * layout.width, i * layout.width + layout.dims[i])


def per_agent_solve(problems, graph, params, z0=None):
    """The splitting loop with one ``PerAgentStep`` call per agent per
    round, for every variant; returns (u_star, iterations, the agents'
    ``PerAgentStep``s).  The step sizes are the solvers' derived ones,
    from the extreme eigenvalues of the agents' unpadded blocks."""
    from platoonmpc.consensus import AugmentedLayout, _project
    from platoonmpc.solvers import accel_gamma_next

    layout = AugmentedLayout(graph, problems.stack.p)
    agents = [PerAgentStep(problems, i, params.rho) for i in range(graph.n)]
    slices = [agent_slice(layout, i) for i in range(len(agents))]
    L = max(float(np.linalg.norm(a.hessian, 2)) for a in agents)
    accel = params.variant == "three-op-accel"
    if params.variant == "dr":
        def step(i, sl, z, w):
            return z[sl] + 2.0 * params.alpha * (agents[i].prox(2.0 * w[sl] - z[sl]) - w[sl])
    elif params.variant == "three-op":
        gamma = 1.9 / L
        lam = 0.999 * (2.0 - gamma * L / 2.0)

        def step(i, sl, z, w):
            wi = w[sl]
            x = agents[i].project(2.0 * wi - z[sl] - gamma * agents[i].gradient(wi))
            return z[sl] + lam * (x - wi)
    else:
        mut = params.eta * min(float(np.linalg.eigvalsh(a.hessian).min()) for a in agents)
        gamma0 = 1.9 / (L * (1.0 - params.eta))
        gam, v = [gamma0, gamma0], None

        def step(i, sl, z, w):
            v[sl] = (zv[sl] - w[sl]) / gam[0]
            wi = w[sl]
            return agents[i].project(wi - gam[1] * v[sl] - gam[1] * agents[i].gradient(wi))

    z = np.zeros(layout.dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    w = _project(z, layout)
    iterations = 0
    for _ in range(params.max_iters):
        if accel:
            if v is None:
                v = (z - w) / gamma0
            gam[:] = gam[1], accel_gamma_next(gam[1], mut)
            zv = z + gam[0] * v
            w = _project(zv, layout)
        z_new = np.zeros(layout.dim)
        for i, sl in enumerate(slices):
            z_new[sl] = step(i, sl, z, w)
        diffs = [np.linalg.norm(z_new[sl] - z[sl]) for sl in slices]
        z = z_new
        iterations += 1
        if max(diffs) <= params.tol / len(agents):
            break
        if not accel:
            w = _project(z, layout)
    return layout.stack_controls(w), iterations, agents
