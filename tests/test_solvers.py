import dataclasses

import numpy as np
import pytest

from platoonmpc.consensus import AugmentedLayout, MessageFabric, VehicleGraph
from platoonmpc.core import initial_state
from platoonmpc.decomposition import decompose_pd, stage_blocks
from platoonmpc.problem import build_qcqp, check_membership
from platoonmpc.smallqcqp import InfeasibleProblem
from platoonmpc.solvers import (SOLVERS, ProxSolveError, SolverParams, _AgentBatch,
                                accel_gamma_next, build_local_problems,
                                default_params_for_horizon, prox_local, project_local,
                                solve_centralized, solve_dr, solve_three_op,
                                solve_three_op_accel, warmup_initial_guess)

from conftest import per_agent_solve, random_state, random_weights, small_config

from test_smallqcqp import box_qp_enumeration_oracle


def make_instance(rng, n, p, steady=False):
    cfg = small_config(n, p)
    w = random_weights(rng, n, p)
    state = initial_state(cfg, speed=25.0, u0=0.0) if steady else random_state(rng, cfg)
    prob = build_qcqp(state, cfg, w)
    dec = decompose_pd(stage_blocks(w, cfg.tau))
    graph = VehicleGraph.chain(n)
    return cfg, prob, build_local_problems(prob, dec, graph), graph


def test_default_parameter_table():
    for p, (alpha, rho, tol) in {1: (0.95, 0.3, 1e-3), 2: (0.95, 0.3, 2e-3),
                                 3: (0.95, 0.3, 5e-3), 4: (0.8, 0.1, 7e-3),
                                 5: (0.8, 0.1, 1.25e-2)}.items():
        params = default_params_for_horizon(p)
        assert (params.alpha, params.rho, params.tol) == (alpha, rho, tol)


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(alpha=1.0)
    with pytest.raises(ValueError):
        SolverParams(rho=0.0)
    with pytest.raises(ValueError):
        SolverParams(variant="nope")
    with pytest.raises(ValueError):
        SolverParams(warm_start="guess")
    for bad in ({"max_iters": 0}, {"max_iters": -3}, {"rho": float("nan")},
                {"tol": float("nan")}):
        with pytest.raises(ValueError):
            SolverParams(**bad)


def test_local_problem_layout(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    assert locals_[0].var_order == (0, 1)
    assert locals_[1].var_order == (1, 0, 2)
    assert locals_[3].var_order == (3, 2)

    def prev_blocks(lp, p=2):
        # neighbor-copy blocks that the agent's safety rows read
        safety = _AgentBatch([lp]).rows[0][0, 4 * p:]
        return [b for b in range(1, len(lp.var_order)) if safety[:, b * p:(b + 1) * p].any()]

    assert prev_blocks(locals_[0]) == []
    assert prev_blocks(locals_[1]) == [1]
    assert prev_blocks(locals_[3]) == [1]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_agent_rows_are_local_and_match_membership(rng, n, p):
    # agent i's rows, laid out over (own block, neighbor copies) and padded,
    # are vehicle i's rows of the membership check, read nothing beyond its
    # own block and its copy of the predecessor, and decide feasibility alike
    _, prob, locals_, graph = make_instance(rng, n, p)
    layout = AugmentedLayout(graph, p)
    batch = _AgentBatch(locals_)
    A, _, S = batch.rows
    outcomes = set()
    for scale in (0.1, 1.0, 3.0):
        u = scale * rng.normal(size=n * p)
        Z = batch.pad(layout.scatter_controls(u))
        rep = check_membership(prob, u, tol=1e-11)
        values = prob.constraints.values(batch.rows, Z)
        feasible = batch.feasible(Z)
        for i, lp in enumerate(locals_):
            val = values[i].reshape(5, p)
            np.testing.assert_allclose(val[0:2].max(axis=0), rep.box[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(val[2:4].max(axis=0), rep.speed[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(val[4], rep.safety[i], rtol=0, atol=1e-12)

            other = np.ones(A.shape[-1], dtype=bool)
            for v in ([i] if i == 0 else [i, i - 1]):
                pos = lp.var_order.index(v)
                other[pos * p:(pos + 1) * p] = False
            assert not (A[i][:, other].any() or S[i][:, other].any())

            own_ok = max(rep.box[i].max(), rep.speed[i].max(), rep.safety[i].max()) <= 1e-11
            assert feasible[i] == own_ok
            outcomes.add(own_ok)
        assert feasible.all() == rep.feasible
    assert outcomes == {True, False}


def test_batched_engine_matches_per_agent_oracle(rng):
    # every variant against the per-agent loop it replaced, on draws whose
    # exact solutions have binding box rows and binding safety rows
    binding = {"box": 0, "safety": 0}
    for n in (2, 3, 5, 10):
        for p in range(1, 6):
            cfg = small_config(n, p)
            w = random_weights(rng, n, p)
            state = random_state(rng, cfg, gap_jitter=6.0, speed_lo=24.0, speed_hi=27.0,
                                 u0_mag=2.0)
            prob = build_qcqp(state, cfg, w)
            graph = VehicleGraph.chain(n)
            locals_ = build_local_problems(prob, decompose_pd(stage_blocks(w, cfg.tau)), graph)
            rep = check_membership(prob, solve_centralized(prob))
            binding["box"] += bool((rep.box > -1e-8).any())
            binding["safety"] += bool((rep.safety > -1e-8).any())
            for variant, solve in SOLVERS.items():
                params = default_params_for_horizon(p, variant)
                case = (n, p, variant)
                try:
                    u, iterations, stats = per_agent_solve(locals_, graph, params)
                except ProxSolveError as exc:
                    # a subsolver failure (one draw here: n = 5, p = 3, DR,
                    # agent 3's prox stuck at KKT residual 87) surfaces alike
                    with pytest.raises(ProxSolveError) as err:
                        solve(locals_, graph, params)
                    assert str(err.value) == str(exc), case
                    continue
                got = solve(locals_, graph, params)
                assert got.iterations == iterations, case
                assert got.agent_prox_stats == stats, case
                assert np.linalg.norm(got.u_star - u) <= 1e-12 * np.linalg.norm(u), case
    assert binding["box"] >= 3 and binding["safety"] >= 3, binding


def test_prox_identity_at_feasible_minimizer(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 1, steady=True)
    lp = locals_[1]
    # steady platoon: c = 0, so the origin is the unconstrained minimizer
    # and lies strictly inside the constraint set
    out = prox_local(lp, np.zeros(lp.dim), rho=0.3)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_prox_closed_form_when_inactive(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 2, steady=True)
    lp = locals_[1]
    point = 0.1 * rng.normal(size=lp.dim)
    rho = 0.3
    expected = -np.linalg.inv(rho * lp.hessian + np.eye(lp.dim)) @ \
        (rho * np.concatenate([lp.c_own, np.zeros(lp.dim - lp.horizon)]) - point)
    got = prox_local(lp, point, rho)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_prox_with_active_box_matches_kkt(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 1)
    lp = locals_[0]
    # pull far beyond the acceleration box so the bound becomes active
    point = np.array([50.0, 0.0])
    rho = 0.5
    out = prox_local(lp, point, rho)
    assert out[0] <= lp.constraints.a_max + 1e-9
    # KKT: the projected gradient must vanish on the inactive face
    grad = lp.hessian @ out + np.concatenate([lp.c_own, np.zeros(lp.dim - 1)]) \
        + (out - point) / rho
    assert abs(grad[1]) <= 1e-7
    assert grad[0] <= 0  # pushes against the upper bound


def test_project_local_noop_inside(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 2, steady=True)
    lp = locals_[2]
    y = 0.01 * rng.normal(size=lp.dim)
    np.testing.assert_allclose(project_local(lp, y), y)


def test_empty_local_set_raises_agent_error(rng):
    # crossed speed bounds leave no feasible point; the failure names the agent
    _, prob, locals_, graph = make_instance(rng, 3, 2)
    cons = locals_[1].constraints
    lo, hi = cons.speed_lo.copy(), cons.speed_hi.copy()
    lo[1], hi[1] = 5.0, -5.0
    cons = dataclasses.replace(cons, speed_lo=lo, speed_hi=hi)
    crossed = [dataclasses.replace(lp, constraints=cons) for lp in locals_]
    lp = crossed[1]
    point = np.zeros(lp.dim)
    # inside the batched loop too, where the other agents' candidates stand
    for call in (lambda: prox_local(lp, point, rho=0.3), lambda: project_local(lp, point),
                 lambda: solve_dr(crossed, graph, default_params_for_horizon(2)),
                 lambda: solve_three_op(crossed, graph, SolverParams(variant="three-op"))):
        with pytest.raises(ProxSolveError) as err:
            call()
        assert err.value.agent == lp.index
        assert isinstance(err.value.__cause__, InfeasibleProblem)
    with pytest.raises(ValueError, match="share"):
        solve_dr([locals_[0], lp, locals_[2]], graph, default_params_for_horizon(2))


def test_dr_steady_platoon_stays_put(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2, steady=True)
    rep = solve_dr(locals_, graph, default_params_for_horizon(2))
    assert rep.converged
    np.testing.assert_allclose(rep.u_star, 0.0, atol=1e-8)


def test_dr_matches_centralized(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = default_params_for_horizon(2)
    params.tol = 1e-7
    params.max_iters = 30000
    rep = solve_dr(locals_, graph, params)
    assert rep.converged
    u_ref = solve_centralized(prob)
    assert np.linalg.norm(rep.u_star - u_ref) / np.linalg.norm(u_ref) <= 1e-5


def test_three_op_agrees_with_dr(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    dr_params = default_params_for_horizon(2)
    dr_params.tol = 1e-8
    dr_params.max_iters = 50000
    u_dr = solve_dr(locals_, graph, dr_params).u_star

    p3 = SolverParams(variant="three-op", tol=1e-7, max_iters=60000)
    rep3 = solve_three_op(locals_, graph, p3)
    assert rep3.converged
    assert np.linalg.norm(rep3.u_star - u_dr) / np.linalg.norm(u_dr) <= 1e-4

    pa = SolverParams(variant="three-op-accel", tol=1e-7, max_iters=60000)
    repa = solve_three_op_accel(locals_, graph, pa)
    assert repa.converged
    assert np.linalg.norm(repa.u_star - u_dr) / np.linalg.norm(u_dr) <= 1e-4


def test_three_op_step_size_validation(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 1)
    L = max(np.linalg.norm(lp.hessian, 2) for lp in locals_)
    with pytest.raises(ValueError):
        solve_three_op(locals_, graph, SolverParams(variant="three-op", gamma=2.0 / L))
    with pytest.raises(ValueError):
        solve_three_op(locals_, graph, SolverParams(variant="three-op", lam=2.5))
    with pytest.raises(ValueError):
        solve_three_op_accel(locals_, graph,
                             SolverParams(variant="three-op-accel", eta=0.2,
                                          gamma0=2.0 / (L * 0.8)))


def test_accel_gamma_recursion_fixed_point():
    for gamma in (0.1, 1.0, 7.3):
        assert accel_gamma_next(gamma, 0.0) == pytest.approx(gamma, rel=1e-14)
    # strictly positive curvature shrinks the step
    assert accel_gamma_next(1.0, 0.5) < 1.0


def test_centralized_unconstrained_and_steady(rng):
    cfg, prob, locals_, graph = make_instance(rng, 3, 2)
    # widen every bound so nothing can be active, then compare to -W^-1 c
    u = solve_centralized(prob)
    W = prob.hessian_dense()
    interior = np.linalg.solve(W, -prob.c)
    if check_membership(prob, interior).feasible:
        np.testing.assert_allclose(u, interior, atol=1e-8)

    _, prob2, _, _ = make_instance(rng, 3, 2, steady=True)
    np.testing.assert_allclose(solve_centralized(prob2), 0.0, atol=1e-10)


def test_centralized_box_active_matches_enumeration(rng):
    # two vehicles, single stage, forced against the acceleration box
    cfg, prob, locals_, graph = make_instance(rng, 2, 1)
    W = prob.hessian_dense()
    c = prob.c - np.array([40.0, 40.0])  # drag the minimizer far outside
    prob2 = type(prob)(**{**prob.__dict__, "c": c})
    u = solve_centralized(prob2)
    lo = np.full(2, prob.constraints.a_min)
    hi = np.full(2, prob.constraints.a_max)
    oracle = box_qp_enumeration_oracle(W, c, lo, hi)
    # ignore speed/safety rows when they stay inactive at the oracle point
    rep = check_membership(prob2, oracle)
    if rep.feasible:
        np.testing.assert_allclose(u, oracle, atol=1e-7)


def test_fabric_driver_bit_identical_every_variant(rng, monkeypatch):
    # through the message fabric every variant gives the direct answer bit
    # for bit, at two exchange rounds per consensus projection
    import platoonmpc.solvers as solvers

    _, prob, locals_, graph = make_instance(rng, 4, 2)
    inner = solvers._project
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(solvers, "_project", counted)
    for variant, fn in (("dr", solve_dr), ("three-op", solve_three_op),
                        ("three-op-accel", solve_three_op_accel)):
        params = default_params_for_horizon(2, variant)
        calls.clear()
        base = fn(locals_, graph, params)
        assert base.converged, variant
        projections = len(calls)
        assert projections == base.iterations + (variant == "three-op-accel"), variant

        fabric = MessageFabric(graph)
        via_fabric = fn(locals_, graph, params, fabric=fabric)
        assert np.array_equal(base.u_star, via_fabric.u_star), variant
        assert via_fabric.iterations == base.iterations, variant
        assert fabric.round == 2 * projections, variant


def test_nonconvergence_reported(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = default_params_for_horizon(2)
    params.tol = 1e-12
    params.max_iters = 5
    rep = solve_dr(locals_, graph, params)
    assert not rep.converged
    assert rep.iterations == 5


def test_warmup_feasible_unconstrained_optimum(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    z0, wu_iters = warmup_initial_guess(prob, locals_, graph)
    u_ref = solve_centralized(prob)
    W = prob.hessian_dense()
    interior = np.linalg.solve(W, -prob.c)
    if check_membership(prob, interior).feasible:
        # warm start already sits at the solution: the constrained solve
        # should need only a couple of rounds
        params2 = default_params_for_horizon(2)
        rep = solve_dr(locals_, graph, params2, z0=z0)
        assert rep.iterations <= 5
        assert np.linalg.norm(rep.u_star - u_ref) / np.linalg.norm(u_ref) <= 1e-3
    assert wu_iters >= 1


def test_warmup_zero_state(rng):
    _, prob, locals_, graph = make_instance(rng, 3, 1, steady=True)
    z0, _ = warmup_initial_guess(prob, locals_, graph)
    np.testing.assert_allclose(z0, 0.0, atol=1e-12)


def test_warmup_is_exact_chain_solve(rng):
    # where the dense constraint-free minimizer is feasible, the projection
    # leaves it alone, so the sweep must reproduce it to rounding
    checked = 0
    for n in (2, 3, 5, 10):
        for p in range(1, 6):
            _, prob, locals_, graph = make_instance(rng, n, p)
            z0, rounds = warmup_initial_guess(prob, locals_, graph)
            assert rounds == 2 * (n - 1)
            u = np.linalg.solve(prob.hessian_dense(), -prob.c)
            if check_membership(prob, u).feasible:
                ref = AugmentedLayout(graph, p).scatter_controls(u)
                assert np.linalg.norm(z0 - ref) <= 1e-10 * np.linalg.norm(ref)
                checked += 1
    assert checked >= 3


def test_termination_certificates(rng):
    # at convergence the returned point projects to itself and every
    # agent's proximal map is nearly stationary there
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = default_params_for_horizon(2)
    params.tol = 1e-6
    params.max_iters = 30000
    rep = solve_dr(locals_, graph, params)
    assert rep.converged
    from platoonmpc.consensus import AugmentedLayout, _project
    layout = AugmentedLayout(graph, 2)
    z = rep.z_final
    w = _project(z, layout)
    np.testing.assert_allclose(_project(w, layout), w, atol=1e-14)
    for i in range(graph.n):
        sl = layout.agent_slice(i)
        drift = np.linalg.norm(prox_local(locals_[i], 2 * w[sl] - z[sl], params.rho) - w[sl])
        assert drift <= params.tol


def test_residuals_eventually_decrease(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = default_params_for_horizon(2)
    params.tol = 1e-7
    params.max_iters = 30000
    rep = solve_dr(locals_, graph, params)
    trace = np.asarray(rep.residual_trace)
    assert len(trace) == rep.iterations
    assert trace[-1] <= trace[len(trace) // 2] <= trace.max()


def test_output_feasible_at_tolerance(rng):
    # constraint violations of the returned point scale with the stopping
    # tolerance; a tight solve passes the membership check outright
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = default_params_for_horizon(2)
    params.tol = 1e-7
    params.max_iters = 30000
    rep = solve_dr(locals_, graph, params)
    assert check_membership(prob, rep.u_star, tol=1e-6).feasible


def test_accuracy_level_after_leader_brake():
    # one step into the braking transient of the reference platoon, the
    # distributed answer at default tolerances tracks the reference to the
    # documented order of magnitude
    from platoonmpc.core import reference_config, step_dynamics
    from platoonmpc.stability import default_weight_schedule

    cfg = reference_config(horizon=1)
    w = default_weight_schedule(1)
    state = initial_state(cfg, speed=25.0, u0=-2.0)
    state = step_dynamics(state, np.zeros(10), -2.0, cfg.tau)
    prob = build_qcqp(state, cfg, w)
    dec = decompose_pd(stage_blocks(w, cfg.tau))
    graph = VehicleGraph.chain(10)
    locals_ = build_local_problems(prob, dec, graph)
    rep = solve_dr(locals_, graph, default_params_for_horizon(1))
    u_ref = solve_centralized(prob)
    rel = np.linalg.norm(rep.u_star - u_ref) / np.linalg.norm(u_ref)
    assert rel <= 5e-3  # reported level is a few 1e-4


def test_prox_active_safety_matches_grid_oracle():
    # tight spacing makes the safe-distance quadratic bind inside the prox;
    # the two-variable leading-agent subproblem is checked against a dense
    # grid search refined by Newton on the active constraint
    from platoonmpc.core import PlatoonState
    from test_smallqcqp import RankOneRow, grid_polish_oracle

    cfg = small_config(3, 1)
    # weak objective so the pull point dominates the proximal trade-off
    w = random_weights(np.random.default_rng(5), 3, 1, lo=0.01, hi=0.2, ride_lo=0.05)
    # gap barely above the braking bound at 25 m/s (44.06 m)
    gaps = np.array([44.2, 50.0, 50.0])
    state = PlatoonState(x=np.concatenate([[0.0], -np.cumsum(gaps)]),
                         v=np.full(4, 25.0), u0=0.0)
    prob = build_qcqp(state, cfg, w)
    dec = decompose_pd(stage_blocks(w, cfg.tau))
    lp = build_local_problems(prob, dec, VehicleGraph.chain(3))[0]
    assert lp.dim == 2

    rho = 5.0
    point = np.array([4.0, 1.0])  # accelerating into the tight gap
    got = prox_local(lp, point, rho)

    cons = lp.constraints
    quad = RankOneRow(quad=cons.quad, s=np.array([1.0, 0.0]),
                      b=np.concatenate([cons.own[0, 0], [0.0]]), c=float(cons.const[0, 0]))
    P = lp.hessian + np.eye(2) / rho
    q = np.concatenate([lp.c_own, [0.0]]) - point / rho
    assert quad.value(np.linalg.solve(P, -q)) > 0  # safety genuinely active
    oracle = grid_polish_oracle(P, q, quad)
    np.testing.assert_allclose(got, oracle, atol=1e-6)


def test_prox_stationarity_normal_cone(rng):
    # the prox objective's gradient at the returned point must point out of
    # the feasible set: a small gradient step projects straight back
    _, prob, locals_, graph = make_instance(rng, 3, 1)
    lp = locals_[0]
    point = np.array([50.0, 0.0])  # forces the acceleration bound active
    rho = 0.5
    x = prox_local(lp, point, rho)
    grad = lp.hessian @ x + np.concatenate([lp.c_own, np.zeros(lp.dim - 1)]) + (x - point) / rho
    back = project_local(lp, x - 1e-4 * grad)
    assert np.linalg.norm(back - x) <= 1e-7
