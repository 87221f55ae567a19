"""Command-line front end: scenario simulation, stability analysis, and a
single-step solve with a centralized cross-check."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .consensus import MessageFabric
from .core import LeaderProfile, PlatoonConfig, PlatoonState, WeightSchedule, reference_config
from .decomposition import decompose_pd, stage_blocks
from .harness import (BUILTIN_SCENARIOS, ScenarioSpec, SafetyViolation, emit_results,
                      run_scenario, scenario_builtin, solve_step)
from .problem import StepTemplate, build_qcqp, check_membership
from .solvers import SOLVERS, SolverParams, default_params_for_horizon, solve_centralized
from .stability import default_weight_schedule, stability_report_json


def _check_keys(section, raw, known, required=()):
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise SystemExit(f"{section} has unknown key(s): {', '.join(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise SystemExit(f"{section} lacks key(s): {', '.join(missing)}")


def _load_config(path, base):
    """Config JSON mirrors PlatoonConfig + WeightSchedule + SolverParams;
    every section is optional, the ``platoon`` keys override ``base``, and
    unknown keys fail, as does a weights section without all three weights."""
    raw = {}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
    _check_keys("config top level", raw, ("platoon", "weights", "solver"))
    plat = raw.get("platoon", {})
    _check_keys("config section 'platoon'", plat, [f.name for f in fields(PlatoonConfig)])
    cfg = replace(base, **plat)

    w = raw.get("weights", "default")
    if w == "default" or w is None:
        if cfg.n != 10:
            raise SystemExit("the built-in weight schedule covers the ten-vehicle platoon; "
                             "supply weights in the config for other sizes")
        weights = default_weight_schedule(cfg.horizon)
    else:
        names = [f.name for f in fields(WeightSchedule)]
        _check_keys("config section 'weights'", w, names, required=names)
        weights = WeightSchedule(**w)

    s = raw.get("solver", {})
    _check_keys("config section 'solver'", s, [f.name for f in fields(SolverParams)])
    return cfg, weights, replace(default_params_for_horizon(cfg.horizon), **s)


def _cmd_simulate(args):
    if args.scenario in BUILTIN_SCENARIOS:
        spec = scenario_builtin(args.scenario, p=args.horizon, seed=args.seed, noise=args.noise)
        cfg, weights, params = _load_config(args.config, spec.cfg)
    elif args.trajectory:
        cfg, weights, params = _load_config(args.config, reference_config(horizon=args.horizon))
        leader = LeaderProfile.from_csv(args.trajectory, cfg.tau)
        spec = ScenarioSpec(name="file", cfg=cfg, weights=weights, leader=leader,
                            duration=leader.samples.size, solver=params, seed=args.seed,
                            noise=args.noise)
    else:
        raise SystemExit("--scenario file needs --trajectory <csv>")
    params = replace(params, variant=args.variant or params.variant,
                     warm_start="warmup-projection" if args.warmup else params.warm_start)
    spec = replace(spec, cfg=cfg, weights=weights, solver=params)
    try:
        result = run_scenario(spec)
    except (SafetyViolation, RuntimeError) as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    paths = emit_results(result, args.out)
    print(json.dumps(result.metrics, indent=2, sort_keys=True))
    print("wrote:", *paths, sep="\n  ")
    return 0


def _cmd_analyze(args):
    cfg, weights, _ = _load_config(args.config, reference_config(horizon=args.horizon))
    print(stability_report_json(cfg, weights))
    return 0


def _cmd_solve_once(args):
    cfg, weights, params = _load_config(args.config, reference_config(horizon=args.horizon))
    params = replace(params, variant=args.variant or params.variant)
    with open(args.state) as fh:
        raw = json.load(fh)
    _check_keys("state file", raw, ("x", "v", "u0"), required=("x", "v"))
    state = PlatoonState(x=np.asarray(raw["x"], dtype=float),
                         v=np.asarray(raw["v"], dtype=float),
                         u0=float(raw.get("u0", 0.0)))
    if state.n != cfg.n:
        raise SystemExit("state size does not match the configuration")
    blocks = stage_blocks(weights, cfg.tau)
    prob = build_qcqp(state, template=StepTemplate(cfg, weights, blocks))
    stack = decompose_pd(blocks)
    report, _ = solve_step(prob, stack, MessageFabric(stack.layout.graph), params)
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
                     help=" | ".join((*BUILTIN_SCENARIOS, "file")))
    sim.add_argument("--horizon", type=int, default=1)
    sim.add_argument("--variant", choices=list(SOLVERS),
                     help="solver variant (default: the config's, else dr)")
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
    once.add_argument("--state", required=True, help="JSON with x, v and u0")
    once.add_argument("--config", default=None)
    once.add_argument("--horizon", type=int, default=1)
    once.add_argument("--variant", choices=list(SOLVERS),
                      help="solver variant (default: the config's, else dr)")
    once.set_defaults(fn=_cmd_solve_once)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
