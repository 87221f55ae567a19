"""All three distributed engines against the centralized reference.

Builds one step program mid-transient, splits it across the vehicles, and
lets each splitting variant run to a tight tolerance.  Every engine only
ever moves neighbor-to-neighbor data; the centralized solve is the
accuracy yardstick.
"""

import numpy as np

from platoonmpc import (SolverParams, build_agent_stack, build_local_problems, build_qcqp,
                        decompose_pd, initial_state, reference_config, solve_centralized,
                        solve_dr, solve_three_op, solve_three_op_accel, stage_blocks,
                        step_dynamics)
from platoonmpc.stability import default_weight_schedule

cfg = reference_config(horizon=2)
weights = default_weight_schedule(2)

# drop the platoon one second into a hard leader brake
state = initial_state(cfg, speed=25.0, u0=-2.0)
state = step_dynamics(state, np.zeros(cfg.n), -2.0, cfg.tau)

prob = build_qcqp(state, cfg, weights)
stack = build_agent_stack(decompose_pd(stage_blocks(weights, cfg.tau)))
graph = stack.layout.graph
locals_ = build_local_problems(prob, stack)

u_ref = solve_centralized(prob)
print("centralized reference computed (tight KKT residual)\n")
print(f"{'variant':>16} {'iterations':>10} {'rel error':>12} {'fast prox':>10} {'full prox':>10}")
for variant, solver in (("dr", solve_dr), ("three-op", solve_three_op),
                        ("three-op-accel", solve_three_op_accel)):
    params = SolverParams(variant=variant, tol=1e-6, max_iters=200000)
    rep = solver(locals_, graph, params)
    rel = np.linalg.norm(rep.u_star - u_ref) / np.linalg.norm(u_ref)
    print(f"{variant:>16} {rep.iterations:>10} {rel:>12.2e} {rep.prox_fast:>10} {rep.prox_full:>10}")

print("\nfirst-stage accelerations (reference):")
print(np.array2string(u_ref.reshape(cfg.n, 2)[:, 0], precision=4))
