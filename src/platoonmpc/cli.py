"""Command-line front end: scenario simulation, stability analysis, and a
single-step solve with a centralized cross-check."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .core import LeaderProfile, PlatoonConfig, PlatoonState, WeightSchedule, reference_config
from .decomposition import decompose_pd, stage_blocks
from .harness import ScenarioSpec, SafetyViolation, emit_results, run_scenario, scenario_builtin
from .problem import build_qcqp, check_membership
from .solvers import (SolverParams, build_agent_stack, build_local_problems,
                      default_params_for_horizon, solve_centralized, solve_variant)
from .stability import default_weight_schedule, stability_report_json


def _check_keys(section, raw, known):
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise SystemExit(f"config {section} has unknown key(s): {', '.join(unknown)}")


def _load_config(path, horizon):
    """Config JSON mirrors PlatoonConfig + WeightSchedule + SolverParams;
    every section is optional (reference setup otherwise); unknown keys fail."""
    raw = {}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
    _check_keys("top level", raw, ("platoon", "weights", "solver"))
    plat = raw.get("platoon", {})
    _check_keys("section 'platoon'", plat, [f.name for f in fields(PlatoonConfig)])
    cfg = replace(reference_config(horizon=horizon), **plat)
    if horizon is not None and "horizon" not in plat:
        cfg = cfg.with_horizon(horizon)

    w = raw.get("weights", "default")
    if w == "default" or w is None:
        if cfg.n != 10:
            raise SystemExit("the built-in weight schedule covers the ten-vehicle platoon; "
                             "supply weights in the config for other sizes")
        weights = default_weight_schedule(cfg.horizon)
    else:
        weights = WeightSchedule(np.asarray(w["q_gap"], dtype=float),
                                 np.asarray(w["q_rate"], dtype=float),
                                 np.asarray(w["q_ride"], dtype=float))

    s = raw.get("solver", {})
    _check_keys("section 'solver'", s, [f.name for f in fields(SolverParams)])
    return cfg, weights, replace(default_params_for_horizon(cfg.horizon), **s)


def _cmd_simulate(args):
    cfg, weights, params = _load_config(args.config, args.horizon)
    params.variant = args.variant
    if args.warmup:
        params.warm_start = "warmup-projection"
    if args.scenario in ("s1", "s2", "s3-synthetic"):
        spec = scenario_builtin(args.scenario, p=cfg.horizon, variant=args.variant,
                                seed=args.seed, noise=args.noise,
                                warm_start=params.warm_start)
        spec = replace(spec, solver=params)
    else:
        if not args.trajectory:
            raise SystemExit("--scenario file needs --trajectory <csv>")
        leader = LeaderProfile.from_csv(args.trajectory, cfg.tau)
        spec = ScenarioSpec(name="file", leader=leader, duration=leader.samples.size,
                            solver=params, horizon=cfg.horizon, seed=args.seed,
                            noise=None)
    try:
        result = run_scenario(spec, cfg, weights)
    except (SafetyViolation, RuntimeError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    paths = emit_results(result, args.out)
    print(json.dumps(result.metrics, indent=2, sort_keys=True))
    print("wrote:", *paths, sep="\n  ")
    return 0


def _cmd_analyze(args):
    cfg, weights, _ = _load_config(args.config, args.horizon)
    print(stability_report_json(cfg, weights))
    return 0


def _cmd_solve_once(args):
    cfg, weights, params = _load_config(args.config, args.horizon)
    params.variant = args.variant
    with open(args.state) as fh:
        raw = json.load(fh)
    state = PlatoonState(x=np.asarray(raw["x"], dtype=float),
                         v=np.asarray(raw["v"], dtype=float),
                         u0=float(raw.get("u0", 0.0)), k=int(raw.get("k", 0)))
    if state.n != cfg.n:
        raise SystemExit("state size does not match the configuration")
    prob = build_qcqp(state, cfg, weights)
    stack = build_agent_stack(decompose_pd(stage_blocks(weights, cfg.tau)))
    report = solve_variant(build_local_problems(prob, stack), stack.layout.graph, params)
    u_oracle = solve_centralized(prob)
    norm = float(np.linalg.norm(u_oracle))
    rel = float(np.linalg.norm(report.u_star - u_oracle) / norm) if norm > 1e-12 else 0.0
    membership = check_membership(prob, report.u_star, tol=1e-6)
    print(json.dumps({
        "u_star": report.u_star.tolist(),
        "u_oracle": u_oracle.tolist(),
        "iterations": report.iterations,
        "converged": report.converged,
        "residual": report.residual,
        "rel_error_vs_oracle": rel,
        "feasible": bool(membership.feasible),
        "worst_constraint": membership.worst,
    }, indent=2))
    return 0 if report.converged else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="platoon-mpc",
                                     description="platoon car-following MPC simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a closed-loop scenario")
    sim.add_argument("--scenario", required=True,
                     help="s1 | s2 | s3-synthetic | file")
    sim.add_argument("--horizon", type=int, default=1)
    sim.add_argument("--variant", default="dr",
                     choices=["dr", "three-op", "three-op-accel"])
    sim.add_argument("--config", default=None, help="JSON config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--noise", action="store_true")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--warmup", action="store_true",
                     help="use the constraint-free warm start each step")
    sim.add_argument("--trajectory", default=None,
                     help="leader trajectory CSV (header t,accel) for --scenario file")
    sim.set_defaults(fn=_cmd_simulate)

    ana = sub.add_parser("analyze", help="closed-loop stability report")
    ana.add_argument("--config", default=None)
    ana.add_argument("--horizon", type=int, default=1)
    ana.set_defaults(fn=_cmd_analyze)

    once = sub.add_parser("solve-once", help="single-step solve with oracle diff")
    once.add_argument("--state", required=True, help="JSON with x, v, u0, k")
    once.add_argument("--config", default=None)
    once.add_argument("--horizon", type=int, default=1)
    once.add_argument("--variant", default="dr",
                      choices=["dr", "three-op", "three-op-accel"])
    once.set_defaults(fn=_cmd_solve_once)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
