import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from platoonmpc.core import PlatoonState, reference_config
from platoonmpc.problem import StepTemplate, build_qcqp
from platoonmpc.smallqcqp import (KKT_TOL, InfeasibleProblem, _accept, _central_path, _Rows,
                                  active_set_loop, row_values, solve_qcqp)
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
    # the nearby problem from the first solve's point and active rows, as a
    # stack of one through the active-set loop
    moved = q + 1e-3
    x, _, _, passed, res, _ = active_set_loop(
        P[None], moved[None], _Rows(G[None], h[None], np.zeros((1, *G.shape)), 0.0), first.x[None],
        np.array([first.active], dtype=int), 12, 1e-12 * (1.0 + np.abs(moved).max()), KKT_TOL)
    assert passed[0] and res[0] <= 1e-9
    np.testing.assert_allclose(x[0], solve_qcqp(P, moved, G, h).x, atol=1e-8)


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
    f = row_values(*rows, cons.quad, x)
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
        u0=1.0)
    prob = build_qcqp(state, template=StepTemplate(cfg, weights))
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
            prob = build_qcqp(state, template=StepTemplate(cfg, weights))
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
    # the whole central path from there, past the hand-off to the polish
    # and down to its end, m/eta < 1e-10, stays strictly feasible
    for x, eta in _central_path(P, q, _Rows(A, h, S, 0.0625), far, 1.0, 20.0):
        assert row_values(A, h, S, 0.0625, x).max() < 0
        if h.size / eta < 1e-10:
            break
    cold = solve_qcqp(P, q, A, h, S, 0.0625)
    from_far = solve_qcqp(P, q, A, h, S, 0.0625, x0=far)
    for res in (cold, from_far):
        assert res.status == "optimal" and res.kkt_residual <= 1e-9
    np.testing.assert_allclose(from_far.x, cold.x, rtol=0, atol=1e-9)


def random_qcqp(rng, q_scales=(1.0, 10.0, 100.0)):
    """A random strictly convex QCQP in ``solve_qcqp``'s row form (quad 0.5)
    whose origin is strictly interior: P = MM' + 0.1 I, box rows with
    bounds in U(0.5, 3), up to 2d random linear rows and up to d rank-one
    quadratic rows, each with h ~ U(0.1, 2)."""
    d = int(rng.integers(2, 16))
    M = rng.normal(size=(d, d))
    q = rng.normal(size=d) * rng.choice(q_scales)
    n_lin, n_quad = int(rng.integers(0, 2 * d + 1)), int(rng.integers(0, d + 1))
    A = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(n_lin + n_quad, d))])
    h = np.concatenate([rng.uniform(0.5, 3.0, 2 * d), rng.uniform(0.1, 2.0, n_lin + n_quad)])
    S = np.zeros_like(A)
    S[2 * d + n_lin:] = rng.normal(size=(n_quad, d))
    return M @ M.T + 0.1 * np.eye(d), q, A, h, S


def test_far_starts_on_random_qcqps():
    """General random QCQPs, every other one started far outside its rows
    (phase one from there): each solve is optimal and agrees with the
    solve from the strictly interior origin."""
    rng = np.random.default_rng(10)
    for draw in range(200):
        P, q, A, h, S = random_qcqp(rng)
        far = rng.normal(size=q.size) * rng.choice([10.0, 30.0, 100.0, 300.0])
        res = solve_qcqp(P, q, A, h, S, 0.5, x0=far if draw % 2 else None)
        ref = solve_qcqp(P, q, A, h, S, 0.5, x0=np.zeros(q.size))
        for r in (res, ref):
            assert r.status == "optimal" and r.kkt_residual <= 1e-9, draw
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-7, err_msg=str(draw))


def test_large_objectives_solve_optimal():
    """random_qcqp draws with q scaled up to x1000 (seeds 100-109 and
    200-209), and draws all scaled x1000 (seeds 100-104), where the
    barrier's multipliers turn to noise before its path ends: every cold
    solve of a draw with |q| above 250 is optimal, and its point and
    multipliers meet the unscaled problem's KKT conditions relative to |q|."""
    solved = 0
    for seeds, q_scales in (([*range(100, 110), *range(200, 210)], (1.0, 10.0, 100.0, 1000.0)),
                            (range(100, 105), (1000.0,))):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for draw in range(100):
                P, q, A, h, S = random_qcqp(rng, q_scales=q_scales)
                big = np.abs(q).max()
                if big <= 250.0:
                    continue
                res = solve_qcqp(P, q, A, h, S, 0.5)
                assert res.status == "optimal" and res.kkt_residual <= 1e-9, (seed, draw)
                f = row_values(A, h, S, 0.5, res.x)
                stat = P @ res.x + q + _Rows(A, h, S, 0.5).grads(res.x).T @ res.lam
                assert (res.lam >= 0).all() and f.max() <= 1e-9, (seed, draw)
                assert max(np.abs(stat).max(), np.abs(res.lam * f).max()) <= 1e-9 * big, (seed, draw)
                solved += 1
    assert solved >= 1000, solved


def newton_one(P, q, A, h, S, quad, x, tol, lam=None, max_iters=40):
    """Reference: one problem's Newton solve on its working rows (A, h, S)
    from (x, lam), lam zero when not given, with the dense KKT system and
    the per-problem damping loop written out; returns (x, lam)."""
    dim, a = x.size, h.size
    z = np.concatenate([x, np.zeros(a) if lam is None else lam])

    def residual(zz):
        xx, lam = zz[:dim], zz[dim:]
        Sx = S @ xx
        F = np.concatenate([P @ xx + q + A.T @ lam + S.T @ (2.0 * quad * Sx * lam),
                            A @ xx - h + quad * Sx * Sx])
        return F, float(F @ F)

    F, merit = residual(z)
    for _ in range(max_iters):
        if np.abs(F).max() <= tol:
            break
        xx, lam = z[:dim], z[dim:]
        grads = A + (2.0 * quad * (S @ xx))[:, None] * S
        J = np.block([[P + 2.0 * quad * (S.T * lam) @ S, grads.T], [grads, np.zeros((a, a))]])
        dz = np.linalg.solve(J, -F)
        step = 1.0
        for _ in range(30):
            trial = residual(z + step * dz)
            if trial[1] <= merit * (1 - 1e-4 * step) or step < 1e-8:
                break
            step *= 0.5
        z = z + step * dz
        F, merit = trial
    return z[:dim], z[dim:]


def agent_like_stack(rng, k, p, curved):
    """k problems padded to 3p variables with 4 + 2p rows each: two box
    rows, two general linear rows and 2p rows that are rank-one quadratic
    when ``curved``.  Each problem has 2p or 3p real variables and 0 to 4
    working rows (keys padded with -1), no more than its variables, active
    at a point x* with multipliers there that are mostly positive; the
    other rows are slack or violated at x*, and the start is x* moved a
    little."""
    D, m, quad = 3 * p, 4 + 2 * p, 0.5
    P, q = np.tile(np.eye(D), (k, 1, 1)), np.zeros((k, D))
    A, S, h = np.zeros((k, m, D)), np.zeros((k, m, D)), np.zeros((k, m))
    x0, work, dims = np.zeros((k, D)), np.zeros((k, m), dtype=bool), []
    for j in range(k):
        d = int(rng.choice([2 * p, 3 * p]))
        dims.append(d)
        P[j, :d, :d] = rand_spd(rng, d, 0.2)
        c0, c1 = rng.choice(d, size=2, replace=False)
        A[j, 0, c0], A[j, 1, c1] = 1.0, -1.0
        A[j, 2:, :d] = rng.normal(size=(m - 2, d))
        if curved:
            S[j, 4:, :d] = rng.normal(size=(m - 4, d)) / d
        x_star = rng.normal(size=D) * (np.arange(D) < d)
        on = rng.choice(m, size=rng.integers(0, min(4, d) + 1), replace=False)
        work[j, on] = True
        values = A[j] @ x_star + quad * (S[j] @ x_star) ** 2
        h[j] = values + np.where(work[j], 0.0, rng.uniform(-0.05, 1.0, m))
        lam = np.where(work[j], rng.uniform(-0.1, 2.0, m), 0.0)
        grads = A[j] + (2.0 * quad * (S[j] @ x_star))[:, None] * S[j]
        q[j] = -(P[j] @ x_star + grads.T @ lam)
        x0[j] = x_star + 0.01 * rng.normal(size=D) * (np.arange(D) < d)
    a = work.sum(axis=1).max()
    keys = np.array([list(np.flatnonzero(row)) + [-1] * (a - row.sum()) for row in work], dtype=int)
    return P, q, _Rows(A, h, S, quad), x0, keys.reshape(k, a), dims


def test_stacked_newton_matches_single_problems():
    """One pass of the stacked active-set loop (a budget of one), on stacks
    of 1 to 10 problems with 2p or 3p real variables and 0 to 4 working
    rows, linear and curved: each
    problem's Newton point and multipliers match the reference solve of
    that problem alone, unpadded, within 1e-12, and its accept decision
    matches the active-set test written out for that problem."""
    rng = np.random.default_rng(12)
    seen = {"accepted": 0, "rejected": 0, "no rows": 0}
    for draw in range(60):
        k, p = int(rng.integers(1, 11)), int(rng.integers(1, 6))
        P, q, rows, x0, stacked, dims = agent_like_stack(rng, k, p, curved=draw % 3 != 0)
        x, lam, _, accepted, _, _ = active_set_loop(P, q, rows, x0, stacked, 1,
                                                    1e-12 * (1.0 + np.abs(q).max(axis=1)), KKT_TOL)
        for j, d in enumerate(dims):
            keys = stacked[j][stacked[j] >= 0]
            seen["no rows"] += not keys.size
            A, h, S = rows.A[j, :, :d], rows.h[j], rows.S[j, :, :d]
            tol = 1e-12 * (1.0 + np.abs(q[j]).max())
            x_ref, lam_ref = newton_one(P[j, :d, :d], q[j, :d], A[keys], h[keys], S[keys],
                                        rows.quad, x0[j, :d], tol)
            case = (draw, j)
            np.testing.assert_allclose(x[j, :d], x_ref, rtol=0, atol=1e-12, err_msg=str(case))
            assert not x[j, d:].any(), case
            np.testing.assert_allclose(lam[j, :keys.size], np.maximum(lam_ref, 0.0), rtol=0,
                                       atol=1e-12, err_msg=str(case))
            assert not lam[j, keys.size:].any(), case
            full = np.zeros(h.size)
            full[keys] = lam_ref
            # the test: no negative multiplier, no other row violated, and
            # the KKT residual at the clipped multipliers within 1e-9
            f = A @ x_ref - h + rows.quad * (S @ x_ref) ** 2
            clip = np.maximum(full, 0.0)
            grads = A + (2.0 * rows.quad * (S @ x_ref))[:, None] * S
            stat = P[j, :d, :d] @ x_ref + q[j, :d] + grads.T @ clip
            kkt = max(np.abs(stat).max(), f.max(initial=0.0), np.abs(clip * f).max())
            passed = (full.min() >= -1e-10 and np.delete(f, keys).max() <= 1e-11
                      and kkt <= 1e-9)
            assert accepted[j] == passed, case
            seen["accepted" if passed else "rejected"] += 1
    assert min(seen.values()) >= 10, seen
    # the rule's edges on one row x <= 1 in one variable, working: its own
    # value up to the KKT tolerance is no violation; a multiplier below
    # -1e-10, a stationarity residual above kkt_tol or a second violated
    # row fails the test
    P, q = np.eye(1)[None], np.array([[-2.0]])
    one = _Rows(np.array([[[1.0], [1.0]]]), np.array([[1.0, 5.0]]), np.zeros((1, 2, 1)), 0.0)
    x, keys, zero = np.array([[1.0 + 1e-10]]), np.array([[0]]), np.zeros((1, 1))
    for lam, stat, rows, passed in ((1.0, 0.0, one, True), (-1e-9, 0.0, one, False),
                                    (1.0, 1e-6, one, False),
                                    (1.0, 0.0, one._replace(h=np.array([[1.0, 1.0]])), False)):
        got = _accept(P, q, rows, x, keys, np.array([[lam]]), zero + stat, 1e-9)[0]
        assert got.tolist() == [passed], (lam, stat)
    # a padding key reads no row: with the last row violated by 4 off the
    # working set, the KKT residual is still the working row's alone
    passed, _, _, res = _accept(P, q, one._replace(h=np.array([[1.0, -3.0]])), x,
                                np.array([[0, -1]]), np.array([[1.0, 0.0]]), zero, 1e-9)
    assert passed.tolist() == [False] and res[0] < 1e-9, res


def loop_one(P, q, A, h, S, quad, x, keys, budget, tol):
    """Reference: one problem's primal active-set loop, unpadded, with the
    test and the repairs written out.  Each pass is a Newton solve on the
    working rows from the last point and multipliers, then the test; a
    failing problem drops its most negative multiplier, or else adds its
    most violated row off the working set (the last of equal rows) when the
    gradients of the working rows and that row, at x, have full rank, their
    smallest singular value above 1e-12 of the largest, or else gives up.
    Returns (x, multipliers of the last working rows clipped at zero, those
    rows, passed, the repairs made in order, a dependent row's give-up
    named "dependent")."""
    keys, lam, events = list(keys), np.zeros(len(keys)), []
    for done in range(1, budget + 1):
        x, lam = newton_one(P, q, A[keys], h[keys], S[keys], quad, x, tol, lam)
        f = A @ x - h + quad * (S @ x) ** 2
        full = np.zeros(h.size)
        full[keys] = lam
        clip = np.maximum(full, 0.0)
        grads = A + (2.0 * quad * (S @ x))[:, None] * S
        kkt = max(np.abs(P @ x + q + grads.T @ clip).max(), f.max(initial=0.0),
                  np.abs(clip * f).max())
        off = f.copy()
        off[keys] = -np.inf
        last = (x, np.maximum(lam, 0.0), list(keys))
        if full.min() >= -1e-10 and off.max() <= 1e-11 and kkt <= 1e-9:
            return (*last, True, events)
        if done == budget:
            events.append("budget")
        elif lam.min(initial=0.0) < -1e-10:
            j = int(lam.argmin())
            del keys[j]
            lam = np.delete(lam, j)
            events.append("drop")
            continue
        elif off.max() > 1e-11:
            row = int(np.flatnonzero(off == off.max())[-1])
            sv = np.linalg.svd(grads[keys + [row]], compute_uv=False)
            if np.count_nonzero(sv > 1e-12 * sv[0]) <= len(keys):
                events.append("dependent")
                return (*last, False, events)
            j = sum(k < row for k in keys)
            keys.insert(j, row)
            lam = np.insert(lam, j, 0.0)
            events.append("add")
            continue
        else:
            events.append("give up")
        return (*last, False, events)


def test_stacked_loop_matches_single_problems():
    """The stacked active-set loop with its repairs, on seeded stacks whose
    problems drop multipliers, add rows past the stack's first width, start
    from empty working rows, give up with nothing to repair, and run out of
    passes, or would add a row whose gradient depends on the working rows':
    each problem's point and multipliers match the reference loop of that
    problem alone, unpadded, within 1e-12, with the same final working rows
    and the same pass flag, and its padding stays exactly zero.  In a stack
    with one singular Newton system, only that problem is solved by least
    squares: the others match their own runs bit for bit."""
    rng = np.random.default_rng(14)
    seen = dict.fromkeys(["passed", "drop", "add", "give up", "budget", "widened", "empty",
                          "dependent"], 0)
    for draw in range(80):
        k, p = int(rng.integers(1, 11)), int(rng.integers(1, 6))
        P, q, rows, x0, stacked, dims = agent_like_stack(rng, k, p, curved=draw % 3 != 0)
        budget = int(rng.choice([2, 3, 12]))
        if draw % 4 == 0:  # every problem with a working row starts from its first row alone
            stacked = np.where(np.arange(stacked.shape[1]) < 1, stacked, -1)[:, :1]
        # a loose Newton stop leaves some curved problems short of the KKT
        # target with nothing to repair: they give up
        tol = (1e-4 if draw % 5 == 0 else 1e-12) * (1.0 + np.abs(q).max(axis=1))
        x, lam, keys, passed, _, _ = active_set_loop(P, q, rows, x0, stacked, budget, tol, KKT_TOL)
        for j, d in enumerate(dims):
            start = stacked[j][stacked[j] >= 0]
            A, h, S = rows.A[j, :, :d], rows.h[j], rows.S[j, :, :d]
            x_ref, lam_ref, keys_ref, passed_ref, events = loop_one(
                P[j, :d, :d], q[j, :d], A, h, S, rows.quad, x0[j, :d], start, budget, tol[j])
            case = (draw, j, events)
            assert passed[j] == passed_ref, case
            assert keys[j][keys[j] >= 0].tolist() == keys_ref, case
            np.testing.assert_allclose(x[j, :d], x_ref, rtol=0, atol=1e-12, err_msg=str(case))
            assert not x[j, d:].any(), case
            np.testing.assert_allclose(lam[j][keys[j] >= 0], lam_ref, rtol=0, atol=1e-12,
                                       err_msg=str(case))
            assert not lam[j][keys[j] < 0].any(), case
            seen["passed"] += passed_ref
            for event in set(events):
                seen[event] += 1
            seen["widened"] += len(keys_ref) > stacked.shape[1]
            seen["empty"] += not start.size and bool(events)
    assert seen.pop("dependent") >= 4 and min(seen.values()) >= 20, seen

    # problem 1 holds the same row twice: its KKT system is singular
    P, q, rows, x0, stacked, dims = agent_like_stack(rng, 4, 3, curved=False)
    A = rows.A.copy()
    A[1, 1] = A[1, 0]
    rows, keys = rows._replace(A=A), np.array([[0, 1]] * 4)
    tol = 1e-12 * (1.0 + np.abs(q).max(axis=1))
    x, lam, _, _, _, _ = active_set_loop(P, q, rows, x0, keys, 1, tol, KKT_TOL)
    assert np.isfinite(x[1]).all()
    for j in (0, 2, 3):
        one = active_set_loop(P[j:j + 1], q[j:j + 1], _Rows(*(r[j:j + 1] for r in rows[:3]),
                                                           rows.quad),
                              x0[j:j + 1], keys[j:j + 1], 1, tol[j:j + 1], KKT_TOL)
        assert x[j].tobytes() == one[0][0].tobytes() and lam[j].tobytes() == one[1][0].tobytes()
        assert not x[j, dims[j]:].any(), j
