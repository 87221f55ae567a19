import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from platoonmpc.core import PlatoonState, reference_config
from platoonmpc.problem import build_qcqp
from platoonmpc.smallqcqp import InfeasibleProblem, _barrier, _Rows, row_values, solve_qcqp
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


def vehicle_rows(p, dim, own0, h, prev0=None):
    """One vehicle's 5p rows in ``solve_qcqp``'s form over ``dim`` columns,
    its own controls first and its predecessor's copy next: the box, the
    speed band (tau = 1), then the safe-spacing rows, whose own and
    predecessor coefficients grow by one per stage of lag (own0 + k,
    -(prev0 + k)) and whose S is the cumulative sum."""
    L = np.tri(p)
    lag = np.subtract.outer(np.arange(p), np.arange(p))
    A = np.zeros((5 * p, dim))
    A[:, :p] = np.vstack([np.eye(p), -np.eye(p), L, -L, np.where(lag >= 0, own0 + lag, 0.0)])
    if prev0 is not None:
        A[4 * p:, p:2 * p] = np.where(lag >= 0, -(prev0 + lag), 0.0)
    S = np.zeros((5 * p, dim))
    S[4 * p:, :p] = L
    return A, np.asarray(h, dtype=float), S


def test_phase_one_from_far_starts():
    """The rows of scenario s1 at p = 5, step 50, agent 0 (own block and
    its successor's copy).  The origin is strictly feasible (worst row
    -1.35), yet phase one, started at the unconstrained minimizer -50 * 1
    of P = I, q = 50 * 1, stalled at a worst violation of 1.869e+03 and
    raised InfeasibleProblem.  Far projections onto the same set failed
    alike."""
    A, h, S = vehicle_rows(5, 10, 3.375,
                           np.repeat([1.35, 8.0, 2.780000000000001, 15.0, 5.9375], 5))
    assert (A @ np.zeros(10) - h).max() == -1.35
    for q in [50.0 * np.ones(10)] + [-s * np.ones(10) for s in (10.0, -30.0, 100.0, -300.0)]:
        res = solve_qcqp(np.eye(10), q, A, h, S, 0.0625)
        from_origin = solve_qcqp(np.eye(10), q, A, h, S, 0.0625, x0=np.zeros(10))
        assert res.status == "optimal" and res.kkt_residual <= 1e-9
        np.testing.assert_allclose(res.x, from_origin.x, rtol=0, atol=1e-9)


def test_barrier_from_a_far_feasible_point():
    """Agent 3's first (cold) prox subproblem in the n = 5, p = 3 DR draw of
    ``test_batched_engine_matches_per_agent_oracle``.  Phase one returned
    the feasible point FAR (|x| = 27,659, reachable because the
    predecessor copy only lowers the safety rows); from there the barrier's
    line search found no acceptable step near the boundary, the step was
    taken anyway, and the solve ended at the infeasible point with worst row
    +87.07 (KKT residual 87.1), so the agent raised ProxSolveError."""
    P = np.array([
        [38.74035959228435, 19.51994357600183, 7.1521336523128065, -18.2292726214035,
         -10.20860764231824, -4.138625998973532, -17.128361927064397, -9.31133593368359,
         -3.013507653339275],
        [19.51994357600183, 21.335321540168984, 5.807874981969301, -10.20860764231824,
         -8.763411297135324, -3.44801218657153, -9.31133593368359, -9.189185199217219,
         -2.3598627953977713],
        [7.1521336523128065, 5.807874981969301, 9.836361227994667, -4.138625998973532,
         -3.44801218657153, -4.005407808673565, -3.013507653339275, -2.3598627953977713,
         -2.4482283755046588],
        [-18.2292726214035, -10.20860764231824, -4.138625998973532, 21.636265003842087,
         10.20860764231824, 4.138625998973532, 0.0, 0.0, 0.0],
        [-10.20860764231824, -8.763411297135324, -3.44801218657153, 10.20860764231824,
         12.170403679573916, 3.44801218657153, 0.0, 0.0, 0.0],
        [-4.138625998973532, -3.44801218657153, -4.005407808673565, 4.138625998973532,
         3.44801218657153, 7.412400191112155, 0.0, 0.0, 0.0],
        [-17.128361927064397, -9.31133593368359, -3.013507653339275, 0.0, 0.0, 0.0,
         20.437427921775583, 9.31133593368359, 3.013507653339275],
        [-9.31133593368359, -9.189185199217219, -2.3598627953977713, 0.0, 0.0, 0.0,
         9.31133593368359, 12.498251193928406, 2.3598627953977713],
        [-3.013507653339275, -2.3598627953977713, -2.4482283755046588, 0.0, 0.0, 0.0,
         3.013507653339275, 2.3598627953977713, 5.7572943702158454]])
    q = np.array([-122.07399576927165, -63.74020385950888, -20.398484967071226,
                  0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    speed = (2.577114930666397, 15.202885069333604)
    A, h, S = vehicle_rows(3, 9, 3.4003606336667005,
                           np.concatenate([np.repeat([1.35, 8.0, *speed], 3),
                                           [9.193153990775171, 10.053062052215997,
                                            10.912970113656824]]),
                           prev0=0.5)
    far = np.array([-2.8850612022798643, -1.0918690411153107, 0.021287395955523536,
                    8361.180125380677, -23170.872076074964, 27658.800067857046,
                    11.366106128104057, 6.27293086779636, 1.9583201615630046])
    assert row_values(A, h, S, 0.0625, far).max() < 0
    # the whole central path from there, resumed past the hand-off to the
    # polish, stays strictly feasible
    for x, *_ in _barrier(P, q, _Rows(A, h, S, 0.0625), far):
        assert row_values(A, h, S, 0.0625, x).max() < 0
    cold = solve_qcqp(P, q, A, h, S, 0.0625)
    from_far = solve_qcqp(P, q, A, h, S, 0.0625, x0=far)
    for res in (cold, from_far):
        assert res.status == "optimal" and res.kkt_residual <= 1e-9
    np.testing.assert_allclose(from_far.x, cold.x, rtol=0, atol=1e-9)
