import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from platoonmpc.core import PlatoonState, reference_config
from platoonmpc.problem import build_qcqp
from platoonmpc.smallqcqp import InfeasibleProblem, solve_qcqp
from platoonmpc.solvers import _centralized_constraints, solve_centralized
from platoonmpc.stability import (DEFAULT_BASE_GAP_WEIGHTS, DEFAULT_BASE_RATE_WEIGHTS,
                                  DEFAULT_BASE_RIDE_WEIGHTS, default_weight_schedule,
                                  gen_weight_schedule)


@dataclass(frozen=True)
class RankOneRow:
    """One convex row quad (s.x)^2 + b.x + c <= 0, written out for the
    oracles independently of the solver."""

    quad: float
    s: np.ndarray
    b: np.ndarray
    c: float

    def value(self, x):
        return self.quad * float(self.s @ x) ** 2 + float(self.b @ x) + self.c

    def grad(self, x):
        return 2.0 * self.quad * float(self.s @ x) * self.s + self.b

    @property
    def hess(self):
        return 2.0 * self.quad * np.outer(self.s, self.s)

    def rows(self):
        """The row in ``solve_qcqp``'s ``(A, h, S)`` form."""
        return self.b[None], np.array([-self.c]), self.s[None]


def rand_spd(rng, d, scale=1.0):
    A = rng.normal(size=(d, d))
    return scale * (A @ A.T + d * np.eye(d))


def test_unconstrained_closed_form(rng):
    P = rand_spd(rng, 4)
    q = rng.normal(size=4)
    res = solve_qcqp(P, q)
    np.testing.assert_allclose(res.x, np.linalg.solve(P, -q), atol=1e-12)
    assert res.status == "optimal"


def test_inactive_constraints_take_fast_path(rng):
    P = np.eye(2)
    q = np.zeros(2)
    G = np.vstack([np.eye(2), -np.eye(2)])
    h = np.ones(4)
    res = solve_qcqp(P, q, G, h)
    np.testing.assert_allclose(res.x, 0.0, atol=1e-14)
    assert res.iterations == 1


def box_qp_enumeration_oracle(P, q, lo, hi):
    """Exhaustive active-set enumeration over the box faces."""
    d = q.size
    best, best_val = None, np.inf
    for active in itertools.product([None, "lo", "hi"], repeat=d):
        free = [i for i in range(d) if active[i] is None]
        x = np.array([lo[i] if active[i] == "lo" else hi[i] if active[i] == "hi" else 0.0
                      for i in range(d)])
        if free:
            Pf = P[np.ix_(free, free)]
            rhs = -q[free] - P[np.ix_(free, [i for i in range(d) if active[i]])] @ \
                x[[i for i in range(d) if active[i]]]
            x[free] = np.linalg.solve(Pf, rhs)
        if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12):
            val = 0.5 * x @ P @ x + q @ x
            if val < best_val:
                best, best_val = x, val
    return best


def test_box_active_matches_enumeration(rng):
    for _ in range(20):
        P = rand_spd(rng, 2)
        q = rng.normal(size=2) * 5
        lo = np.array([-1.0, -1.0])
        hi = np.array([0.5, 0.5])
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.concatenate([hi, -lo])
        res = solve_qcqp(P, q, G, h)
        oracle = box_qp_enumeration_oracle(P, q, lo, hi)
        np.testing.assert_allclose(res.x, oracle, atol=1e-8)
        assert res.kkt_residual <= 1e-9


def grid_polish_oracle(P, q, quad, bounds=3.0, n_grid=301):
    """Fine grid search over two variables refined by Newton on the active
    constraint (used against quadratically constrained instances).

    With a single convex constraint, either the unconstrained minimizer is
    feasible or the constraint is active at the optimum; the grid argmin
    then seeds Newton on the active KKT equations.
    """
    x_unc = np.linalg.solve(P, -q)
    if quad.value(x_unc) <= 0:
        return x_unc
    xs = np.linspace(-bounds, bounds, n_grid)
    best, best_val = None, np.inf
    for a in xs:
        for b in xs:
            x = np.array([a, b])
            if quad.value(x) <= 0:
                val = 0.5 * x @ P @ x + q @ x
                if val < best_val:
                    best, best_val = x, val
    x = best
    lam = 1.0
    for _ in range(80):
        F = np.concatenate([P @ x + q + lam * quad.grad(x), [quad.value(x)]])
        J = np.zeros((3, 3))
        J[:2, :2] = P + lam * quad.hess
        J[:2, 2] = quad.grad(x)
        J[2, :2] = quad.grad(x)
        sol = np.linalg.solve(J, -F)
        x = x + sol[:2]
        lam = lam + sol[2]
    return x


def test_quadratic_constraint_matches_grid_oracle(rng):
    for _ in range(10):
        P = rand_spd(rng, 2)
        q = rng.normal(size=2) * 3
        quad = RankOneRow(quad=1.0, s=rng.normal(size=2), b=rng.normal(size=2), c=-1.0)
        res = solve_qcqp(P, q, *quad.rows(), quad.quad)
        oracle = grid_polish_oracle(P, q, quad)
        np.testing.assert_allclose(res.x, oracle, atol=1e-6)
        assert res.kkt_residual <= 1e-9


def test_mixed_constraints_kkt_certificate(rng):
    for _ in range(25):
        d = int(rng.integers(2, 8))
        P = rand_spd(rng, d)
        q = rng.normal(size=d) * 4
        G = np.vstack([np.eye(d), -np.eye(d)])
        h = np.concatenate([rng.uniform(0.1, 1.0, d), rng.uniform(0.1, 1.0, d)])
        row = RankOneRow(quad=1.0, s=rng.normal(size=d), b=rng.normal(size=d) * 0.1,
                         c=-rng.uniform(0.5, 2.0))
        A, hq, S = row.rows()
        res = solve_qcqp(P, q, np.vstack([G, A]), np.concatenate([h, hq]),
                         np.vstack([np.zeros_like(G), S]), row.quad)
        assert res.status == "optimal"
        assert res.kkt_residual <= 1e-9
        # primal feasibility double check
        assert (G @ res.x - h).max() <= 1e-9
        assert row.value(res.x) <= 1e-9


def test_warm_active_set_reuse(rng):
    P = rand_spd(rng, 3)
    q = rng.normal(size=3) * 5
    G = np.vstack([np.eye(3), -np.eye(3)])
    h = 0.3 * np.ones(6)
    first = solve_qcqp(P, q, G, h)
    again = solve_qcqp(P, q + 1e-3, G, h, x0=first.x, warm_active=first.active)
    assert again.status == "optimal"
    np.testing.assert_allclose(again.x, solve_qcqp(P, q + 1e-3, G, h).x, atol=1e-8)


def test_infeasible_detection():
    P = np.eye(2)
    q = np.zeros(2)
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    h = np.array([-1.0, -1.0])  # x0 <= -1 and x0 >= 1
    with pytest.raises(InfeasibleProblem):
        solve_qcqp(P, q, G, h)


def centralized_multipliers(prob, tol=1e-10):
    """``solve_centralized``'s solve, returning the multipliers as well."""
    return solve_qcqp(prob.hessian_dense(), prob.c, *_centralized_constraints(prob),
                      prob.constraints.quad, kkt_tol=tol)


def assert_kkt_certificate(prob, x, lam, tol=1e-10):
    """Stationarity, feasibility, dual sign and complementarity of (x, lam)
    over the centralized rows, from the row values of the ``ConstraintSet``
    and the row gradients A + 2 quad (S x) S."""
    cons = prob.constraints
    rows = _centralized_constraints(prob)
    A, _, S = rows
    grads = A + 2.0 * cons.quad * (S @ x)[:, None] * S
    f = cons.values(rows, x)
    assert np.abs(prob.hessian_dense() @ x + prob.c + grads.T @ lam).max() <= tol
    assert f.max() <= tol
    assert lam.min() >= 0.0
    assert np.abs(lam * f).max() <= tol


def test_polish_with_many_weakly_active_rows_reaches_tolerance():
    """Scenario s1 at p = 5, step 106, with the centralized reference as the
    controller and the decay constants (0.228, 0.044, 0.0026).  The polish
    adds one violated row per pass, down to violations of 1e-10, and its
    working set grows to about thirty rows: more passes than its default
    budget.  Newton's default stop (1e-12 (1 + max|q|) = 2.7e-10) also sits
    above the requested 1e-10.  The solve used to end at the barrier point
    with KKT residual 5.6e-2, so ``solve_centralized`` raised."""
    cfg = reference_config(horizon=5)
    weights = gen_weight_schedule(DEFAULT_BASE_GAP_WEIGHTS, DEFAULT_BASE_RATE_WEIGHTS,
                                  DEFAULT_BASE_RIDE_WEIGHTS, 5, 4.0, 0.228, 0.044, 0.0026)
    state = PlatoonState(
        x=np.array([2238.5, 2187.2750878941415, 2137.275087894141, 2087.275087894141,
                    2037.275087894141, 1987.275087894141, 1937.275087894141,
                    1887.275087894141, 1837.275087894141, 1787.275087894141,
                    1737.275087894141]),
        v=np.array([22.0, 21.814330839809415, 21.8143308398095, 21.81433083980949,
                    21.81433083980949, 21.814330839809493, 21.814330839809493,
                    21.814330839809497, 21.814330839809497, 21.814330839809497,
                    21.814330839809497]),
        u0=1.0, k=106)
    prob = build_qcqp(state, cfg, weights)
    x = solve_centralized(prob)

    # independent KKT certificate from the returned multipliers
    res = centralized_multipliers(prob)
    np.testing.assert_allclose(res.x, x, atol=0.0)
    assert_kkt_certificate(prob, x, res.lam)


def test_centralized_interleaved_rows_kkt_certificate(rng):
    """The centralized rows interleave each vehicle's box, speed and safety
    rows.  Random reference states with gaps down to below the braking
    bound make box and safety rows of several vehicles bind in one solve."""
    mixed = 0
    for p in range(1, 6):
        cfg = reference_config(horizon=p)
        weights = default_weight_schedule(p)
        for _ in range(4):
            gaps = rng.uniform(36.0, 52.0, cfg.n)
            state = PlatoonState(x=np.concatenate([[0.0], -np.cumsum(gaps)]),
                                 v=rng.uniform(20.0, 27.0, cfg.n + 1),
                                 u0=float(rng.uniform(-2.0, 1.0)))
            prob = build_qcqp(state, cfg, weights)
            x = solve_centralized(prob)
            res = centralized_multipliers(prob)
            np.testing.assert_array_equal(res.x, x)
            assert_kkt_certificate(prob, x, res.lam)
            # row kind within a vehicle's 5p rows: 0..3 box and speed, 4 safety
            mixed += {0, 4} <= {r % (5 * p) // p for r in res.active}
    assert mixed >= 3
