"""Platoon-centered car-following MPC with fully distributed solvers.

The package covers the whole pipeline: platoon physics and error
coordinates (``core``), per-step assembly of the constrained program
(``problem``), the prediction model and the split of the coupled Hessian
into per-vehicle blocks (``decomposition``), the consensus subspace and
simulated message fabric (``consensus``), distributed operator-splitting
solvers with a centralized reference (``solvers``), closed-loop stability
analysis and weight design (``stability``), and scenario simulation
(``harness``).
"""

from .consensus import AugmentedLayout, MessageFabric, SimulationFault, VehicleGraph
from .core import (LeaderProfile, PlatoonConfig, PlatoonState, WeightSchedule, error_coords,
                   initial_state, reference_config, step_dynamics)
from .decomposition import AgentStack, decompose_pd, prediction, stage_blocks
from .harness import (SafetyViolation, ScenarioSpec, SimResult, emit_results, run_scenario,
                      scenario_builtin)
from .problem import MembershipReport, QcqpProblem, build_qcqp, check_membership
from .solvers import (LocalProblems, ProxSolveError, SolveReport, SolverParams,
                      build_local_problems, default_params_for_horizon, solve_centralized,
                      solve_dr, solve_three_op, solve_three_op_accel, solve_variant,
                      warmup_initial_guess)
from .stability import (ClosedLoopModel, SchurMarginResult, build_closed_loop,
                        default_weight_schedule, eigen_bounds_check, gen_weight_schedule,
                        schur_margin, stability_report_json)

__version__ = "0.1.0"
