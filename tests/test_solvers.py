import dataclasses

import numpy as np
import pytest

from platoonmpc.consensus import AugmentedLayout, MessageFabric, VehicleGraph
from platoonmpc.core import initial_state
from platoonmpc.decomposition import decompose_pd, stage_blocks
from platoonmpc.problem import StepTemplate, build_qcqp, check_membership
from platoonmpc.smallqcqp import InfeasibleProblem
from platoonmpc.solvers import (SOLVERS, LocalProblems, ProxSolveError, SolverParams,
                                _AgentBatch, accel_gamma_next,
                                build_local_problems, default_params_for_horizon,
                                solve_centralized, solve_dr, solve_three_op,
                                solve_three_op_accel, warmup_initial_guess)

from conftest import (agent_slice, per_agent_solve, random_state, random_weights, small_config,
                      step_template)

from test_smallqcqp import box_qp_enumeration_oracle


def make_instance(rng, n, p, steady=False):
    cfg = small_config(n, p)
    w = random_weights(rng, n, p)
    state = initial_state(cfg, speed=25.0, u0=0.0) if steady else random_state(rng, cfg)
    prob = build_qcqp(state, template=step_template(cfg, w))
    stack = decompose_pd(stage_blocks(w, cfg.tau))
    return cfg, prob, build_local_problems(prob, stack), VehicleGraph(n)


def agent_map(problems, graph, i, point, rho=None):
    """Agent i's proximal step at ``point`` (with ``rho``) or its projection
    of ``point`` (without), from one batch in which every other agent maps
    the origin."""
    batch = _AgentBatch(problems, graph, rho)
    Y = np.zeros(problems.stack.H.shape[:2])
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, 2.5, 100.0])
def test_params_max_iters_must_be_an_integer(value):
    with pytest.raises(ValueError, match="max_iters"):
        SolverParams(max_iters=value)
    assert SolverParams(max_iters=np.int64(7)).max_iters == 7


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
    # the solvers and the warm start refuse a graph (a fabric) of another size
    for call in (lambda g: solve_dr(problems, g, default_params_for_horizon(2)),
                 lambda g: warmup_initial_guess(prob, problems, MessageFabric(g))):
        with pytest.raises(ValueError, match="vehicles"):
            call(VehicleGraph(5))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 3])
def test_agent_stack_matches_embedded_blocks(rng, n, p):
    # each stacked block sits in the embedded full-size matrix over its own
    # vehicle first, then its neighbors, and is zero beyond the agent's
    # coordinates; the extreme eigenvalues come from the unpadded blocks
    stack = decompose_pd(stage_blocks(random_weights(rng, n, p), tau=1.0))
    D = 3 * p if n > 2 else 2 * p
    assert stack.H.shape == (n, D, D) and stack.layout.width == D
    blocks = []
    for i, order in enumerate(stack.layout.var_order):
        idx = np.concatenate([np.arange(v * p, (v + 1) * p) for v in order])
        d = idx.size
        blocks.append(stack.H[i, :d, :d])
        assert np.array_equal(stack.embedded(i)[np.ix_(idx, idx)], blocks[-1])
        assert not stack.H[i, d:].any() and not stack.H[i, :, d:].any()
    assert stack.L == max(np.linalg.norm(b, 2) for b in blocks)
    assert stack.mu == min(np.linalg.eigvalsh(b).min() for b in blocks)
    assert stack.lambda_min.tolist() == [np.linalg.eigvalsh(b).min() for b in blocks]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_agent_rows_are_local_and_match_membership(rng, n, p):
    # agent i's rows, laid out over (own block, neighbor copies) and padded,
    # are vehicle i's rows of the membership check, read nothing beyond its
    # own block and its copy of the predecessor, and decide feasibility alike
    _, prob, problems, graph = make_instance(rng, n, p)
    layout = AugmentedLayout(graph, p)
    A, _, S, _ = problems.rows
    outcomes = set()
    for scale in (0.1, 1.0, 3.0):
        u = scale * rng.normal(size=n * p)
        Z = layout.scatter_controls(u).reshape(n, -1)
        rep = check_membership(prob, u, tol=1e-11)
        values = problems.rows.values(Z)
        failing = problems.failing(Z)[0]
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
            assert (i in failing) != own_ok
            outcomes.add(own_ok)
        assert (not failing) == rep.feasible
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [1, 5])
def test_template_steps_do_not_alias(rng, p):
    # two steps with different states from one run's template: building the
    # second (its agent rows, membership and centralized rows too) changes
    # no array of the first nor the run's stage blocks, prediction and
    # leader column, which are read-only, and each step equals a fresh
    # template's build
    n = 5
    cfg, w = small_config(n, p), random_weights(rng, n, p)
    blocks = stage_blocks(w, cfg.tau)
    stack = decompose_pd(blocks)
    template = StepTemplate(cfg, w, blocks)
    states = [random_state(rng, cfg, u0_mag=2.0) for _ in range(2)]

    def arrays(prob, local):
        return [prob.c, local.C, *prob.rows[:3], *local.rows[:3], *prob.diag, *prob.off,
                *prob.schur]

    shared = [blocks, template.phi, template.T, template.leader]
    assert not any(a.flags.writeable for a in shared)
    first = build_qcqp(states[0], template=template)
    first_local = build_local_problems(first, stack)
    seen = [a.copy() for a in arrays(first, first_local) + shared]
    second = build_qcqp(states[1], template=template)
    second_local = build_local_problems(second, stack)
    check_membership(second, rng.normal(size=n * p))
    second.central_rows()
    assert second.c.tobytes() != first.c.tobytes()
    assert second_local.rows[0].tobytes() != first_local.rows[0].tobytes()
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(arrays(first, first_local) + shared, seen, strict=True))
    for state, prob, local in zip(states, (first, second), (first_local, second_local)):
        fresh = build_qcqp(state, template=step_template(cfg, w))
        fresh_local = build_local_problems(fresh, stack)
        for now, again in zip(arrays(prob, local), arrays(fresh, fresh_local), strict=True):
            assert now.tobytes() == again.tobytes()


def test_all_standing_round_skips_the_full_path(rng):
    # a round in which every candidate stands counts a call and no full
    # solve; a NaN row value still sends its agent to the full path
    n = 4
    _, prob, problems, graph = make_instance(rng, n, 2, steady=True)
    X = np.zeros(problems.stack.H.shape[:2])
    assert problems.failing(X)[0] == []
    batch, sent = _AgentBatch(problems, graph), []
    batch._solve = lambda X, i, kind, objective: sent.append(i)
    batch.project(X)
    assert batch.calls == 1 and batch.full == [0] * n and not sent
    X[2, 1] = np.nan
    assert problems.failing(X)[0] == [2]
    batch.project(X)
    assert batch.calls == 2 and batch.full == [0, 0, 1, 0] and sent == [2]


@pytest.mark.parametrize("p", range(1, 6))
def test_certified_radius_keeps_rows_at_half_their_value(rng, p):
    # about a standing candidate, every row stays at or below half its value
    # on and inside the sphere of its own certified radius (along the row's
    # gradient, along its curvature direction and at random), and every row
    # of the agent within the agent's ball, the smallest of its radii
    n = 4
    _, _, problems, _ = make_instance(rng, n, p)
    A, h, S, quad = problems.rows
    dims = problems.stack.layout.dims
    standing = 0
    for scale in (0.05, 0.3, 1.0):
        X = np.zeros(problems.stack.H.shape[:2])
        for i, d in enumerate(dims):
            X[i, :d] = scale * rng.normal(size=d)
        _, values = problems.failing(X)
        assert values.tobytes() == problems.rows.values(X).tobytes()
        radii = problems.radii(X, values)
        for i in np.flatnonzero(values.max(axis=1) < 0):
            standing += 1
            v, rows = values[i], problems.rows.take(i)
            G = A[i] + 2.0 * quad * (S[i] @ X[i])[:, None] * S[i]
            random = rng.normal(size=(16, X.shape[1]))
            random[:, dims[i]:] = 0.0
            random /= np.linalg.norm(random, axis=1, keepdims=True)
            for j in range(len(v)):
                toward = [u / np.linalg.norm(u) for u in (G[j], S[i, j]) if u.any()]
                unit = np.vstack(toward + [-u for u in toward] + [random])
                for r, checked in ((radii[i, j], [j]), (radii[i].min(), slice(None))):
                    for t in (1.0, rng.uniform(size=(len(unit), 1))):  # on, inside
                        at = rows.values(X[i] + t * r * unit)
                        assert (at[:, checked] <= v[checked] / 2 + 1e-12).all(), (i, j)
    assert standing >= 4, standing


def count_evaluations(monkeypatch):
    """A list that grows by one at every ``LocalProblems.failing`` call."""
    evaluated, failing = [], LocalProblems.failing
    monkeypatch.setattr(LocalProblems, "failing",
                        lambda self, X: evaluated.append(1) or failing(self, X))
    return evaluated


def test_steady_dr_solve_evaluates_rows_in_few_rounds(rng, monkeypatch):
    # candidates that keep standing stay inside their certified ball, so the
    # rows are evaluated in a fraction of the rounds
    _, _, problems, graph = make_instance(rng, 5, 1)
    evaluated = count_evaluations(monkeypatch)
    rep = solve_dr(problems, graph, default_params_for_horizon(1))
    assert rep.converged and rep.prox_full == 0 and rep.iterations >= 50
    assert len(evaluated) <= rep.iterations / 4, (len(evaluated), rep.iterations)


def test_candidate_leaving_the_ball_is_evaluated_again(rng, monkeypatch):
    # inside the ball a round counts its call and evaluates no row; just
    # outside, or with a NaN, or after a failing round dropped the ball,
    # the rows are evaluated again, and decide as they would have
    n = 4
    cfg, _, problems, graph = make_instance(rng, n, 3, steady=True)
    evaluated = count_evaluations(monkeypatch)
    batch, sent = _AgentBatch(problems, graph), []
    batch._solve = lambda X, i, kind, objective: sent.append(i)
    anchor = np.zeros(problems.stack.H.shape[:2])
    anchor[:, :3] = 0.01 * rng.normal(size=(n, 3))
    radius = problems.radii(anchor, problems.failing(anchor)[1]).min()
    step = np.zeros_like(anchor)
    step[1, :3] = rng.normal(size=3)
    step /= np.linalg.norm(step)

    def run(X):
        before = len(evaluated)
        assert np.array_equal(batch.project(X), X, equal_nan=True)
        return len(evaluated) > before

    assert run(anchor) and radius > 0.1
    assert not run(anchor + 0.5 * radius * step)
    assert not run(anchor + (1 - 1e-9) * radius * step)
    moved = anchor + (1 + 1e-9) * radius * step
    assert run(moved) and not run(moved)  # evaluated, and the ball moved there
    with_nan = moved.copy()
    with_nan[2, 0] = np.nan
    assert run(with_nan) and sent == [2]
    assert run(moved) and not run(moved)  # the failing round dropped the ball
    far = moved.copy()
    far[0, 0] = 50.0
    assert run(far) and sent == [2, 0]
    assert run(moved)
    # a candidate that stands only by the 1e-11 tolerance certifies no ball
    # beyond itself: 4e-12 further out its box row reads 1.3e-11 and fails
    edge = moved.copy()
    edge[0, 0] = cfg.a_min - 9e-12
    assert run(edge) and not run(edge)
    edge[0, 0] -= 4e-12
    assert run(edge) and sent == [2, 0, 0]
    assert batch.calls == 13 and batch.full == [2, 0, 1, 0]


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
            prob = build_qcqp(state, template=step_template(cfg, w))
            graph = VehicleGraph(n)
            locals_ = build_local_problems(
                prob, decompose_pd(stage_blocks(w, cfg.tau)))
            rep = check_membership(prob, solve_centralized(prob))
            binding["box"] += bool((rep.box > -1e-8).any())
            binding["safety"] += bool((rep.safety > -1e-8).any())
            for variant, solve in SOLVERS.items():
                params = dataclasses.replace(default_params_for_horizon(p), variant=variant)
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
    cfg, prob, problems, graph = make_instance(rng, 3, 1)
    H, c = agent_block(problems, 0)
    # pull far beyond the acceleration box so the bound becomes active
    point = np.array([50.0, 0.0])
    rho = 0.5
    out = agent_map(problems, graph, 0, point, rho)
    assert out[0] <= cfg.a_max + 1e-9
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
    h = prob.rows.h.copy()
    h[1, 4:8] = -5.0  # vehicle 1's speed band (rows 2p to 4p): 5 <= tau cumsum(u_1) <= -5
    crossed_prob = dataclasses.replace(prob, rows=prob.rows._replace(h=h))
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
    params = dataclasses.replace(default_params_for_horizon(2), tol=1e-7, max_iters=30000)
    rep = solve_dr(locals_, graph, params)
    assert rep.converged
    u_ref = solve_centralized(prob)
    assert np.linalg.norm(rep.u_star - u_ref) / np.linalg.norm(u_ref) <= 1e-5


def test_three_op_agrees_with_dr(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    dr_params = dataclasses.replace(default_params_for_horizon(2), tol=1e-8, max_iters=50000)
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
    lo = np.full(2, cfg.a_min)
    hi = np.full(2, cfg.a_max)
    oracle = box_qp_enumeration_oracle(W, c, lo, hi)
    # ignore speed/safety rows when they stay inactive at the oracle point
    rep = check_membership(prob2, oracle)
    if rep.feasible:
        np.testing.assert_allclose(u, oracle, atol=1e-7)


def test_fabric_driver_bit_identical_every_variant(rng, monkeypatch):
    # through the message fabric every variant gives the direct answer bit
    # for bit, with the same _project calls, and the fabric counts two
    # exchange rounds, 4(n - 1) messages and 4(n - 1)p floats per projection
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
        params = dataclasses.replace(default_params_for_horizon(2), variant=variant)
        calls.clear()
        base = fn(locals_, graph, params)
        assert base.converged, variant
        projections = len(calls)
        assert projections == base.iterations + (variant == "three-op-accel"), variant

        fabric = MessageFabric(graph)
        calls.clear()
        via_fabric = fn(locals_, graph, params, fabric=fabric)
        assert len(calls) == projections, variant
        assert np.array_equal(base.u_star, via_fabric.u_star), variant
        assert via_fabric.iterations == base.iterations, variant
        assert fabric.round == 2 * projections, variant
        assert (fabric.messages, fabric.floats) == (12 * projections, 24 * projections), variant


@pytest.mark.parametrize("n,p", [(3, 1), (5, 3)])
def test_padded_entries_stay_zero(rng, n, p):
    # the iterate lives in the agents' padded stack: the warm-up start and
    # every variant's z_final read exactly 0 on every padded entry, and a
    # start whose padded entries are not zero solves as if they were
    _, prob, locals_, graph = make_instance(rng, n, p)
    pad = locals_.stack.layout.owner < 0
    assert pad.sum() == 2 * p
    z0, _, _ = warmup_initial_guess(prob, locals_, MessageFabric(graph))
    assert (z0[pad] == 0).all()
    dirty = rng.normal(size=pad.size)
    for variant, solve in SOLVERS.items():
        params = dataclasses.replace(default_params_for_horizon(p), variant=variant,
                                     max_iters=50)
        for start in (None, z0, dirty):
            assert (solve(locals_, graph, params, z0=start).z_final[pad] == 0).all(), variant
        assert (solve(locals_, graph, params, z0=dirty).z_final.tobytes()
                == solve(locals_, graph, params, z0=np.where(pad, 0.0, dirty)).z_final.tobytes())


def test_nonconvergence_reported(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = dataclasses.replace(default_params_for_horizon(2), tol=1e-12, max_iters=5)
    rep = solve_dr(locals_, graph, params)
    assert not rep.converged
    assert rep.iterations == 5


def test_warmup_feasible_unconstrained_optimum(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    z0, wu_iters, _ = warmup_initial_guess(prob, locals_, MessageFabric(graph))
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
    z0, _, _ = warmup_initial_guess(prob, locals_, MessageFabric(graph))
    np.testing.assert_allclose(z0, 0.0, atol=1e-12)


def test_warmup_is_exact_chain_solve(rng):
    # where the dense constraint-free minimizer is feasible, the projection
    # leaves it alone, so the sweep must reproduce it to rounding
    checked = 0
    for n in (2, 3, 5, 10):
        for p in range(1, 6):
            _, prob, locals_, graph = make_instance(rng, n, p)
            z0, rounds, _ = warmup_initial_guess(prob, locals_, MessageFabric(graph))
            assert rounds == 2 * (n - 1)
            u = np.linalg.solve(prob.hessian_dense(), -prob.c)
            if check_membership(prob, u).feasible:
                ref = AugmentedLayout(graph, p).scatter_controls(u)
                assert np.linalg.norm(z0 - ref) <= 1e-10 * np.linalg.norm(ref)
                checked += 1
    assert checked >= 3


def test_warmup_messages_carry_p_floats(rng, monkeypatch):
    # the Schur blocks are the run's: forward, each vehicle sends its
    # successor g_i alone, p floats; backward, u_{i+1}, p floats
    sent, send = [], MessageFabric.send

    def recorded(fabric, src, dst, payload):
        sent.append((src, dst, payload.shape))
        return send(fabric, src, dst, payload)

    monkeypatch.setattr(MessageFabric, "send", recorded)
    for n, p in ((2, 1), (5, 3), (10, 5)):
        _, prob, locals_, graph = make_instance(rng, n, p)
        sent.clear()
        fabric = MessageFabric(graph)
        fabric.round = 7  # a run's fabric: the sweep reports its own rounds
        _, rounds, _ = warmup_initial_guess(prob, locals_, fabric)
        assert rounds == 2 * (n - 1) and fabric.round == 7 + rounds
        assert fabric.messages == rounds and fabric.floats == rounds * p
        assert sent == ([(i - 1, i, (p,)) for i in range(1, n)]
                        + [(i + 1, i, (p,)) for i in range(n - 2, -1, -1)])


def test_termination_certificates(rng):
    # at convergence the returned point projects to itself and every
    # agent's proximal map is nearly stationary there
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = dataclasses.replace(default_params_for_horizon(2), tol=1e-6, max_iters=30000)
    rep = solve_dr(locals_, graph, params)
    assert rep.converged
    from platoonmpc.consensus import AugmentedLayout, _project
    layout = AugmentedLayout(graph, 2)
    z = rep.z_final
    w = _project(z, layout)
    np.testing.assert_allclose(_project(w, layout), w, atol=1e-14)
    X = _AgentBatch(locals_, graph, params.rho).prox((2 * w - z).reshape(graph.n, -1)).ravel()
    for i in range(graph.n):
        sl = agent_slice(layout, i)
        assert np.linalg.norm(X[sl] - w[sl]) <= params.tol


def test_residuals_eventually_decrease(rng):
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = dataclasses.replace(default_params_for_horizon(2), tol=1e-7, max_iters=30000)
    rep = solve_dr(locals_, graph, params)
    trace = np.asarray(rep.residual_trace)
    assert len(trace) == rep.iterations
    assert trace[-1] <= trace[len(trace) // 2] <= trace.max()


def test_output_feasible_at_tolerance(rng):
    # constraint violations of the returned point scale with the stopping
    # tolerance; a tight solve passes the membership check outright
    _, prob, locals_, graph = make_instance(rng, 4, 2)
    params = dataclasses.replace(default_params_for_horizon(2), tol=1e-7, max_iters=30000)
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
    prob = build_qcqp(state, template=step_template(cfg, w))
    stack = decompose_pd(stage_blocks(w, cfg.tau))
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
    prob = build_qcqp(state, template=step_template(cfg, w))
    stack = decompose_pd(stage_blocks(w, cfg.tau))
    problems = build_local_problems(prob, stack)
    H, c = agent_block(problems, 0)
    assert H.shape == (2, 2)

    rho = 5.0
    point = np.array([4.0, 1.0])  # accelerating into the tight gap
    got = agent_map(problems, VehicleGraph(3), 0, point, rho)

    A, h, _, quad = problems.rows  # vehicle 0's safety row is row 4p = 4
    quad = RankOneRow(quad=quad, s=np.array([1.0, 0.0]), b=np.array([A[0, 4, 0], 0.0]),
                      c=-float(h[0, 4]))
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
    prob = build_qcqp(state, template=step_template(cfg, w))
    stack = decompose_pd(stage_blocks(w, cfg.tau))
    graph = VehicleGraph(5)
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
    # active set), in the stacked active-set loop or in solve_qcqp after the
    # loop gives up, agrees with a cold solve of the same subproblem
    import platoonmpc.solvers as solvers
    from platoonmpc.harness import run_scenario, scenario_builtin
    from platoonmpc.smallqcqp import active_set_loop, solve_qcqp

    made, carried = set(), []  # the bytes of the points made in this step

    def fresh(x0):  # an agent keeps its first 2p or 3p coordinates, p = 5
        return any(x0[:d].tobytes() in made for d in (10, 15))

    def recorded_solve(*args, **kwargs):
        res = solve_qcqp(*args, **kwargs)
        if kwargs["x0"] is not None and not fresh(kwargs["x0"]):
            assert res.status == "optimal" and res.kkt_residual <= 1e-9
            carried.append((args, res.x))
        made.add(res.x.tobytes())
        return res

    def recorded_loop(P, q, rows, x0, *args):
        out = active_set_loop(P, q, rows, x0, *args)
        x, accepted = out[0], out[3]
        for j in accepted.nonzero()[0]:
            if not fresh(x0[j]):
                carried.append(((P[j], q[j], rows.take(j)), x[j]))
            made.update(x[j, :d].tobytes() for d in (10, 15))
        return out

    def counted(*args, **kwargs):
        made.clear()
        return build_qcqp(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_qcqp", recorded_solve)
    monkeypatch.setattr(solvers, "active_set_loop", recorded_loop)
    monkeypatch.setattr("platoonmpc.harness.build_qcqp", counted)
    run_scenario(dataclasses.replace(scenario_builtin("s1", p=5), duration=110))
    assert len(carried) >= 20
    for args, x in carried:
        cold = solve_qcqp(*args)
        assert cold.status == "optimal" and cold.kkt_residual <= 1e-9
        np.testing.assert_allclose(x, cold.x, rtol=0, atol=1e-10)


def test_stale_warm_sets_are_repaired_in_the_stack(rng, monkeypatch):
    # one proximal round in which every agent breaks its upper box rows and
    # holds a warm active set from the round before: the stacked loop's
    # first pass takes the current sets and rejects the stale ones, its
    # repairs then take those too, no agent calls solve_qcqp, and every
    # agent's point matches a cold solve of its subproblem
    import platoonmpc.solvers as solvers
    from platoonmpc.smallqcqp import active_set_loop, solve_qcqp

    n, p, rho = 5, 3, 0.1
    cfg, prob, problems, graph = make_instance(rng, n, p)
    stack = problems.stack
    Y = stack.layout.scatter_controls(np.full(n * p, 3.0 * cfg.a_max)).reshape(n, -1)
    first = _AgentBatch(problems, graph, rho)
    first.prox(Y)
    assert first.full == [1] * n
    stale = {1, 3}
    lower_box = tuple(range(p, 2 * p))  # rows the push above a_max leaves slack
    warm = [{kind: (x, lower_box if i in stale else active) for kind, (x, active) in w.items()}
            for i, w in enumerate(first.warm)]
    noise, real = np.zeros(stack.layout.dim), stack.layout.owner >= 0
    noise[real] = rng.normal(size=real.sum())
    Y = Y + 1e-3 * noise.reshape(n, -1)

    loops, solved = [], []

    def recorded_loop(P, q, rows, x0, keys, budget, *tols):
        one_pass = active_set_loop(P, q, rows, x0, keys, 1, *tols)[3]
        out = active_set_loop(P, q, rows, x0, keys, budget, *tols)
        loops.append((one_pass, out[3]))
        return out

    def recorded_solve(*args, **kwargs):
        solved.append(kwargs["x0"])
        return solve_qcqp(*args, **kwargs)

    monkeypatch.setattr(solvers, "active_set_loop", recorded_loop)
    monkeypatch.setattr(solvers, "solve_qcqp", recorded_solve)
    batch = _AgentBatch(build_local_problems(prob, stack, warm=warm), graph, rho)
    X = batch.prox(Y)
    assert len(loops) == 1
    assert loops[0][0].tolist() == [i not in stale for i in range(n)]
    assert loops[0][1].all() and not solved
    for i in range(n):
        d = stack.layout.dims[i]
        q = batch.problems.C[i, :d] - Y[i, :d] / rho
        cold = solve_qcqp(stack.H[i, :d, :d] + np.eye(d) / rho, q, batch.problems.rows.take(i, d))
        assert cold.status == "optimal"
        np.testing.assert_allclose(X[i, :d], cold.x, rtol=0, atol=1e-10, err_msg=str(i))
        assert batch.warm[i]["prox subproblem"][1] == cold.active, i
