import dataclasses

import numpy as np
import pytest

from platoonmpc.consensus import AugmentedLayout, MessageFabric, VehicleGraph
from platoonmpc.core import initial_state
from platoonmpc.decomposition import decompose_pd, stage_blocks
from platoonmpc.problem import build_qcqp, check_membership
from platoonmpc.smallqcqp import InfeasibleProblem
from platoonmpc.solvers import (SOLVERS, ProxSolveError, SolverParams, _AgentBatch,
                                accel_gamma_next, build_agent_stack, build_local_problems,
                                default_params_for_horizon, solve_centralized, solve_dr,
                                solve_three_op, solve_three_op_accel, warmup_initial_guess)

from conftest import per_agent_solve, random_state, random_weights, small_config

from test_smallqcqp import box_qp_enumeration_oracle


def make_instance(rng, n, p, steady=False):
    cfg = small_config(n, p)
    w = random_weights(rng, n, p)
    state = initial_state(cfg, speed=25.0, u0=0.0) if steady else random_state(rng, cfg)
    prob = build_qcqp(state, cfg, w)
    stack = build_agent_stack(decompose_pd(stage_blocks(w, cfg.tau)))
    return cfg, prob, build_local_problems(prob, stack), VehicleGraph.chain(n)


def agent_map(problems, graph, i, point, rho=None):
    """Agent i's proximal step at ``point`` (with ``rho``) or its projection
    of ``point`` (without), from one batch in which every other agent maps
    the origin."""
    batch = _AgentBatch(problems, graph, rho)
    Y = np.zeros(problems.stack.mask.shape)
    d = problems.stack.layout.dims[i]
    Y[i, :d] = point
    return (batch.prox(Y) if rho is not None else batch.project(Y))[i, :d]


def agent_block(problems, i):
    """Agent i's unpadded Hessian block and linear term."""
    d = problems.stack.layout.dims[i]
    return problems.stack.H[i, :d, :d], problems.C[i, :d]


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
    _, prob, problems, graph = make_instance(rng, 4, 2)
    var_order = problems.stack.layout.var_order
    assert var_order[0] == [0, 1]
    assert var_order[1] == [1, 0, 2]
    assert var_order[3] == [3, 2]

    def prev_blocks(i, p=2):
        # neighbor-copy blocks that the agent's safety rows read
        safety = problems.rows[0][i, 4 * p:]
        return [b for b in range(1, len(var_order[i])) if safety[:, b * p:(b + 1) * p].any()]

    assert prev_blocks(0) == []
    assert prev_blocks(1) == [1]
    assert prev_blocks(3) == [1]
    # the solvers and the warm start refuse a graph of another size
    for call in (lambda g: solve_dr(problems, g, default_params_for_horizon(2)),
                 lambda g: warmup_initial_guess(prob, problems, g)):
        with pytest.raises(ValueError, match="vehicles"):
            call(VehicleGraph.chain(5))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 3])
def test_agent_stack_matches_embedded_blocks(rng, n, p):
    # each stacked block is the agent's block of the embedded full-size
    # matrix, gathered over its own vehicle first, then its neighbors
    dec = decompose_pd(stage_blocks(random_weights(rng, n, p), tau=1.0))
    stack = build_agent_stack(dec)
    D = 3 * p if n > 2 else 2 * p
    assert stack.H.shape == (n, D, D) and stack.mask.shape == (n, D)
    blocks = []
    for i, order in enumerate(stack.layout.var_order):
        idx = np.concatenate([np.arange(v * p, (v + 1) * p) for v in order])
        blocks.append(dec.embedded(i)[np.ix_(idx, idx)])
        d = idx.size
        assert stack.mask[i].sum() == d and stack.mask[i, :d].all()
        assert np.array_equal(stack.H[i, :d, :d], blocks[-1])
        assert not stack.H[i, d:].any() and not stack.H[i, :, d:].any()
    assert stack.L == max(np.linalg.norm(b, 2) for b in blocks)
    assert stack.mu == min(np.linalg.eigvalsh(b).min() for b in blocks)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_agent_rows_are_local_and_match_membership(rng, n, p):
    # agent i's rows, laid out over (own block, neighbor copies) and padded,
    # are vehicle i's rows of the membership check, read nothing beyond its
    # own block and its copy of the predecessor, and decide feasibility alike
    _, prob, problems, graph = make_instance(rng, n, p)
    layout = AugmentedLayout(graph, p)
    A, _, S = problems.rows
    outcomes = set()
    for scale in (0.1, 1.0, 3.0):
        u = scale * rng.normal(size=n * p)
        Z = problems.stack.pad(layout.scatter_controls(u))
        rep = check_membership(prob, u, tol=1e-11)
        values = prob.constraints.values(problems.rows, Z)
        feasible = problems.feasible(Z)
        for i in range(n):
            val = values[i].reshape(5, p)
            np.testing.assert_allclose(val[0:2].max(axis=0), rep.box[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(val[2:4].max(axis=0), rep.speed[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(val[4], rep.safety[i], rtol=0, atol=1e-12)

            other = np.ones(A.shape[-1], dtype=bool)
            for v in ([i] if i == 0 else [i, i - 1]):
                pos = problems.stack.layout.var_order[i].index(v)
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
            locals_ = build_local_problems(
                prob, build_agent_stack(decompose_pd(stage_blocks(w, cfg.tau))))
            rep = check_membership(prob, solve_centralized(prob))
            binding["box"] += bool((rep.box > -1e-8).any())
            binding["safety"] += bool((rep.safety > -1e-8).any())
            for variant, solve in SOLVERS.items():
                params = default_params_for_horizon(p, variant)
                case = (n, p, variant)
                u, iterations, stats = per_agent_solve(locals_, graph, params)
                got = solve(locals_, graph, params)
                assert got.iterations == iterations, case
                assert got.agent_prox_stats == stats, case
                assert np.linalg.norm(got.u_star - u) <= 1e-12 * np.linalg.norm(u), case
    assert binding["box"] >= 3 and binding["safety"] >= 3, binding


def test_prox_identity_at_feasible_minimizer(rng):
    _, prob, problems, graph = make_instance(rng, 3, 1, steady=True)
    # steady platoon: c = 0, so the origin is the unconstrained minimizer
    # and lies strictly inside the constraint set
    out = agent_map(problems, graph, 1, np.zeros(3), rho=0.3)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)


def test_prox_closed_form_when_inactive(rng):
    _, prob, problems, graph = make_instance(rng, 3, 2, steady=True)
    H, c = agent_block(problems, 1)
    point = 0.1 * rng.normal(size=6)
    rho = 0.3
    expected = -np.linalg.inv(rho * H + np.eye(6)) @ (rho * c - point)
    got = agent_map(problems, graph, 1, point, rho)
    np.testing.assert_allclose(got, expected, atol=1e-9)


def test_prox_with_active_box_matches_kkt(rng):
    _, prob, problems, graph = make_instance(rng, 3, 1)
    H, c = agent_block(problems, 0)
    # pull far beyond the acceleration box so the bound becomes active
    point = np.array([50.0, 0.0])
    rho = 0.5
    out = agent_map(problems, graph, 0, point, rho)
    assert out[0] <= problems.constraints.a_max + 1e-9
    # KKT: the projected gradient must vanish on the inactive face
    grad = H @ out + c + (out - point) / rho
    assert abs(grad[1]) <= 1e-7
    assert grad[0] <= 0  # pushes against the upper bound


def test_project_local_noop_inside(rng):
    _, prob, problems, graph = make_instance(rng, 3, 2, steady=True)
    y = 0.01 * rng.normal(size=4)
    np.testing.assert_allclose(agent_map(problems, graph, 2, y), y)


def test_empty_local_set_raises_agent_error(rng):
    # crossed speed bounds leave no feasible point; the failure names the agent
    _, prob, problems, graph = make_instance(rng, 3, 2)
    cons = prob.constraints
    lo, hi = cons.speed_lo.copy(), cons.speed_hi.copy()
    lo[1], hi[1] = 5.0, -5.0
    crossed_prob = dataclasses.replace(
        prob, constraints=dataclasses.replace(cons, speed_lo=lo, speed_hi=hi))
    crossed = build_local_problems(crossed_prob, problems.stack)
    point = np.zeros(6)
    # inside the batched loop too, where the other agents' candidates stand
    for call in (lambda: agent_map(crossed, graph, 1, point, rho=0.3),
                 lambda: agent_map(crossed, graph, 1, point),
                 lambda: solve_dr(crossed, graph, default_params_for_horizon(2)),
                 lambda: solve_three_op(crossed, graph, SolverParams(variant="three-op"))):
        with pytest.raises(ProxSolveError) as err:
            call()
        assert err.value.agent == 1
        assert isinstance(err.value.__cause__, InfeasibleProblem)


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
    z0, wu_iters, _ = warmup_initial_guess(prob, locals_, graph)
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
    z0, _, _ = warmup_initial_guess(prob, locals_, graph)
    np.testing.assert_allclose(z0, 0.0, atol=1e-12)


def test_warmup_is_exact_chain_solve(rng):
    # where the dense constraint-free minimizer is feasible, the projection
    # leaves it alone, so the sweep must reproduce it to rounding
    checked = 0
    for n in (2, 3, 5, 10):
        for p in range(1, 6):
            _, prob, locals_, graph = make_instance(rng, n, p)
            z0, rounds, _ = warmup_initial_guess(prob, locals_, graph)
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
    stack = locals_.stack
    X = _AgentBatch(locals_, graph, params.rho).prox(stack.pad(2 * w - z))
    for i in range(graph.n):
        sl = layout.agent_slice(i)
        assert np.linalg.norm(stack.unpad(X)[sl] - w[sl]) <= params.tol


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
    stack = build_agent_stack(decompose_pd(stage_blocks(w, cfg.tau)))
    rep = solve_dr(build_local_problems(prob, stack), stack.layout.graph,
                   default_params_for_horizon(1))
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
    stack = build_agent_stack(decompose_pd(stage_blocks(w, cfg.tau)))
    problems = build_local_problems(prob, stack)
    H, c = agent_block(problems, 0)
    assert H.shape == (2, 2)

    rho = 5.0
    point = np.array([4.0, 1.0])  # accelerating into the tight gap
    got = agent_map(problems, VehicleGraph.chain(3), 0, point, rho)

    cons = problems.constraints
    quad = RankOneRow(quad=cons.quad, s=np.array([1.0, 0.0]),
                      b=np.concatenate([cons.own[0, 0], [0.0]]), c=float(cons.const[0, 0]))
    P = H + np.eye(2) / rho
    q = c - point / rho
    assert quad.value(np.linalg.solve(P, -q)) > 0  # safety genuinely active
    oracle = grid_polish_oracle(P, q, quad)
    np.testing.assert_allclose(got, oracle, atol=1e-6)


def test_prox_stationarity_normal_cone(rng):
    # the prox objective's gradient at the returned point must point out of
    # the feasible set: a small gradient step projects straight back
    _, prob, problems, graph = make_instance(rng, 3, 1)
    H, c = agent_block(problems, 0)
    point = np.array([50.0, 0.0])  # forces the acceleration bound active
    rho = 0.5
    x = agent_map(problems, graph, 0, point, rho)
    grad = H @ x + c + (x - point) / rho
    back = agent_map(problems, graph, 0, x - 1e-4 * grad)
    assert np.linalg.norm(back - x) <= 1e-7


def test_carried_warm_state_is_read_only(rng):
    # once a first solve has filled the agents' warm sets, solving the same
    # problems twice, the second time through the message fabric, gives the
    # same answer bit for bit and leaves the problems' warm state untouched
    cfg = small_config(5, 3)
    w = random_weights(rng, 5, 3)
    state = random_state(rng, cfg, gap_jitter=6.0, speed_lo=24.0, speed_hi=27.0, u0_mag=2.0)
    prob = build_qcqp(state, cfg, w)
    stack = build_agent_stack(decompose_pd(stage_blocks(w, cfg.tau)))
    graph = VehicleGraph.chain(5)
    params = default_params_for_horizon(3)
    first = solve_dr(build_local_problems(prob, stack), graph, params)
    assert first.prox_full > 0
    locals_ = build_local_problems(prob, stack, warm=first.warm)
    before = [{kind: (x.copy(), active) for kind, (x, active) in warm.items()}
              for warm in locals_.warm]
    assert any(before)

    direct = solve_dr(locals_, graph, params)
    via_fabric = solve_dr(locals_, graph, params, fabric=MessageFabric(graph))
    assert direct.prox_full > 0
    assert direct.u_star.tobytes() == via_fabric.u_star.tobytes()
    for warm, seen in zip(locals_.warm, before):
        assert warm.keys() == seen.keys()
        for kind, (x, active) in warm.items():
            assert x.tobytes() == seen[kind][0].tobytes() and active == seen[kind][1]


def test_warm_started_steps_match_cold_solves(monkeypatch):
    # scenario s1 at p = 5 through the brake, hold and acceleration: every
    # full solve that starts from the agent's previous step (its point and
    # active set), in the stacked warm pass or in solve_qcqp, agrees with a
    # cold solve of the same subproblem
    import platoonmpc.solvers as solvers
    from platoonmpc.harness import run_scenario, scenario_builtin
    from platoonmpc.smallqcqp import solve_qcqp, warm_pass

    made, carried = set(), []  # the bytes of the points made in this step

    def fresh(x0):  # an agent keeps its first 2p or 3p coordinates, p = 5
        return any(x0[:d].tobytes() in made for d in (10, 15))

    def recorded_solve(*args, **kwargs):
        res = solve_qcqp(*args, **kwargs)
        if kwargs["warm_active"] and not fresh(kwargs["x0"]):
            assert res.status == "optimal" and res.kkt_residual <= 1e-9
            carried.append((args, res.x))
        made.add(res.x.tobytes())
        return res

    def recorded_pass(P, q, rows, x0, keys):
        x, lam, accepted = warm_pass(P, q, rows, x0, keys)
        for j in accepted.nonzero()[0]:
            if not fresh(x0[j]):
                carried.append(((P[j], q[j], rows.A[j], rows.h[j], rows.S[j], rows.quad), x[j]))
            made.update(x[j, :d].tobytes() for d in (10, 15))
        return x, lam, accepted

    def counted(*args, **kwargs):
        made.clear()
        return build_qcqp(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_qcqp", recorded_solve)
    monkeypatch.setattr(solvers, "warm_pass", recorded_pass)
    monkeypatch.setattr("platoonmpc.harness.build_qcqp", counted)
    run_scenario(dataclasses.replace(scenario_builtin("s1", p=5), duration=110))
    assert len(carried) >= 20
    for args, x in carried:
        cold = solve_qcqp(*args)
        assert cold.status == "optimal" and cold.kkt_residual <= 1e-9
        np.testing.assert_allclose(x, cold.x, rtol=0, atol=1e-10)


def test_stale_warm_sets_fall_back(rng, monkeypatch):
    # one proximal round in which every agent breaks its upper box rows and
    # holds a warm active set from the round before: the stacked pass takes
    # the current sets, rejects the stale ones, whose agents solve on their
    # own, and every agent's point matches a cold solve of its subproblem
    import platoonmpc.solvers as solvers
    from platoonmpc.smallqcqp import solve_qcqp, warm_pass

    n, p, rho = 5, 3, 0.1
    cfg, prob, problems, graph = make_instance(rng, n, p)
    stack = problems.stack
    Y = stack.pad(stack.layout.scatter_controls(np.full(n * p, 3.0 * cfg.a_max)))
    first = _AgentBatch(problems, graph, rho)
    first.prox(Y)
    assert first.full == [1] * n
    stale = {1, 3}
    lower_box = tuple(range(p, 2 * p))  # rows the push above a_max leaves slack
    warm = [{kind: (x, lower_box if i in stale else active) for kind, (x, active) in w.items()}
            for i, w in enumerate(first.warm)]
    Y = Y + 1e-3 * stack.pad(rng.normal(size=stack.layout.dim))

    passes, solved = [], []

    def recorded_pass(*args):
        out = warm_pass(*args)
        passes.append(out[2])
        return out

    def recorded_solve(*args, **kwargs):
        solved.append(kwargs["warm_active"])
        return solve_qcqp(*args, **kwargs)

    monkeypatch.setattr(solvers, "warm_pass", recorded_pass)
    monkeypatch.setattr(solvers, "solve_qcqp", recorded_solve)
    batch = _AgentBatch(build_local_problems(prob, stack, warm=warm), graph, rho)
    X = batch.prox(Y)
    assert len(passes) == 1
    assert passes[0].tolist() == [i not in stale for i in range(n)]
    assert solved == [lower_box] * len(stale)
    A, h, S = batch.problems.rows
    for i in range(n):
        d = stack.layout.dims[i]
        q = batch.problems.C[i, :d] - Y[i, :d] / rho
        cold = solve_qcqp(stack.H[i, :d, :d] + np.eye(d) / rho, q, A[i, :, :d], h[i], S[i, :, :d],
                          prob.constraints.quad)
        assert cold.status == "optimal"
        np.testing.assert_allclose(X[i, :d], cold.x, rtol=0, atol=1e-10, err_msg=str(i))
        assert batch.warm[i]["prox subproblem"][1] == cold.active, i
