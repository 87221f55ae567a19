"""Closed-loop scenario runner.

Drives the build / solve / step loop: assemble the step program from the
measured state, solve it with the chosen distributed engine, apply the
first-stage accelerations (plus optional process noise), advance the
platoon, and collect spacing, speed, control, and solver statistics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .consensus import MessageFabric
from .core import (LeaderProfile, PlatoonConfig, WeightSchedule, initial_state,
                   reference_config, step_dynamics)
from .decomposition import decompose_pd, stage_blocks
from .problem import StepTemplate, build_qcqp
from .solvers import (SolverParams, build_local_problems, default_params_for_horizon,
                      solve_centralized, solve_variant, warmup_initial_guess)
from .stability import default_weight_schedule

__all__ = [
    "ScenarioSpec",
    "SimResult",
    "SafetyViolation",
    "run_scenario",
    "solve_step",
    "scenario_builtin",
    "emit_results",
]

BUILTIN_SCENARIOS = ("s1", "s2", "s3-synthetic")
V_CRUISE = 25.0  # every run starts with the whole platoon at this speed [m/s]


class SafetyViolation(RuntimeError):
    """A realized trajectory broke the safe-spacing bound."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything ``run_scenario`` reads: the platoon, its horizon included,
    and its weights, the leader's profile, the solver and the noise."""

    name: str
    cfg: PlatoonConfig
    weights: WeightSchedule
    leader: LeaderProfile
    duration: int
    solver: SolverParams
    seed: int = 0
    noise: bool = False
    settle_after: int | None = None

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("duration must be >= 1")

    @property
    def horizon(self) -> int:
        return self.cfg.horizon


@dataclass
class SimResult:
    """Realized trajectories of the run ``spec`` plus per-step solver statistics.

    The run records one state history, positions and ``speeds`` once per
    sample (duration + 1 rows, the initial state first, the leader in
    column 0).  ``spacings[k, i-1]``, the gap ahead of vehicle i at step k,
    and ``safety_margins``, each gap less its follower's safe-spacing
    bound, are derived from it after the loop.  The control series have
    one row per applied step: ``controls`` holds the realized
    accelerations (noise included), ``commanded`` the solver's first-stage
    answer.  ``warmup_iterations`` counts the sequential fabric
    rounds of the warm-up sweep, 2(n - 1) per step under the warm-up start
    and zero otherwise.  ``rounds`` and ``floats`` count each step's traffic
    on the run's message fabric: two rounds and 4(n - 1)p floats per
    consensus projection, plus the sweep's 2(n - 1) rounds of p floats.
    When the centralized oracle runs, ``oracle_first`` holds its applied
    stage and ``rel_errors`` the per-step relative error of the commanded
    stage against it (NaN where the oracle is numerically zero); the
    aggregated metric keeps only steps whose oracle magnitude exceeds one
    percent of the run's peak, where the ratio is meaningful.
    """

    spec: ScenarioSpec
    spacings: np.ndarray
    speeds: np.ndarray
    controls: np.ndarray
    commanded: np.ndarray
    iterations: np.ndarray
    warmup_iterations: np.ndarray
    rounds: np.ndarray
    floats: np.ndarray
    oracle_first: np.ndarray
    rel_errors: np.ndarray
    safety_margins: np.ndarray
    metrics: dict = field(default_factory=dict)


def _metrics(result: SimResult) -> dict:
    spec = result.spec
    dev = np.abs(result.spacings - spec.cfg.gap)
    first = dev[:, 0]
    metrics = {
        "max_dev_first_gap": float(first.max()),
        "max_dev_other_gaps": float(dev[:, 1:].max()),
        "min_safety_margin": float(result.safety_margins.min()),
        "iterations_mean": float(result.iterations.mean()),
        "iterations_median": float(np.median(result.iterations)),
        "duration": int(result.controls.shape[0]),
    }
    # without the oracle every magnitude is NaN, and no step is material
    mags = np.abs(result.oracle_first).max(axis=1)
    material = np.isfinite(result.rel_errors) & (mags > 0.01 * mags.max())
    metrics["rel_error_mean"] = float(result.rel_errors[material].mean()) \
        if material.any() else None
    settle = None
    if spec.settle_after is not None:
        band = first < 0.05
        for k in range(spec.settle_after, first.size):
            if band[k:].all():
                settle = k - spec.settle_after
                break
    metrics["settle_time"] = settle
    return metrics


def solve_step(prob, stack, fabric, params: SolverParams, z_prev=None, warm=None):
    """Solve one step from the warm-up sweep's answer under the warm-up
    start, else from ``z_prev`` (None: a zero start), with the agents'
    memory ``warm``; returns the report and the sweep's rounds (or zero)."""
    problems, sweep = build_local_problems(prob, stack, warm=warm), 0
    if params.warm_start == "warmup-projection":
        z_prev, sweep, problems = warmup_initial_guess(prob, problems, fabric)
    return solve_variant(problems, stack.layout.graph, params, z0=z_prev, fabric=fabric), sweep


def run_scenario(spec: ScenarioSpec, with_oracle: bool = False) -> SimResult:
    """Run one closed-loop scenario.

    Builds the step program at every sample over the run's state-free
    ``StepTemplate``, solves it with the configured distributed engine
    (receding horizon: only the first stage of each vehicle's plan is
    applied) over one message fabric, which counts every round of the run,
    optionally compares each step against the centralized reference, and
    raises SafetyViolation if any realized spacing breaks the safe-distance
    bound.
    """
    cfg = spec.cfg
    spec.leader.validate_speeds(V_CRUISE, cfg, spec.duration)

    blocks = stage_blocks(spec.weights, cfg.tau)
    template = StepTemplate(cfg, spec.weights, blocks)
    stack = decompose_pd(blocks)
    fabric = MessageFabric(stack.layout.graph)
    # built only for noise: importing numpy.random alone costs about 5 MB
    rng = np.random.default_rng(spec.seed) if spec.noise else None

    n, p, T = cfg.n, cfg.horizon, spec.duration
    state = initial_state(cfg, speed=V_CRUISE, u0=spec.leader.accel_at(0))

    positions, speeds = np.zeros((2, T + 1, n + 1))
    positions[0], speeds[0] = state.x, state.v
    controls, commanded = np.zeros((2, T, n))
    iterations, warmups, rounds, floats = np.zeros((4, T), dtype=int)
    oracle_first = np.full((T, n), np.nan)
    rel_errors = np.full(T, np.nan)

    z_prev = warm = None
    for k in range(T):
        sent = fabric.round, fabric.floats
        prob = build_qcqp(state, template=template)
        report, warmups[k] = solve_step(prob, stack, fabric, spec.solver, z_prev, warm)
        rounds[k], floats[k] = fabric.round - sent[0], fabric.floats - sent[1]
        if not report.converged:
            raise RuntimeError(f"solver did not converge at step {k} "
                               f"(residual {report.residual:.3e})")
        z_prev, warm = report.z_final, report.warm
        u_plan = report.u_star.reshape(n, p)
        u_first = u_plan[:, 0].copy()
        commanded[k] = u_first
        if with_oracle:
            u_oracle = solve_centralized(prob)
            first = u_oracle.reshape(n, p)[:, 0]
            oracle_first[k] = first
            norm = np.linalg.norm(first)
            if norm > 1e-12:
                rel_errors[k] = np.linalg.norm(u_first - first) / norm
        if spec.noise:
            # zero-mean normal process noise; the first vehicle sees the most
            noise = rng.normal(0.0, [0.04] + [0.02] * (n - 1))
            u_first = u_first + noise
        state = step_dynamics(state, u_first, spec.leader.accel_at(k + 1), cfg.tau)
        controls[k] = u_first
        iterations[k] = report.iterations
        positions[k + 1], speeds[k + 1] = state.x, state.v

    spacings = -np.diff(positions, axis=1)
    v = speeds[:, 1:]  # each gap less its follower's safe-spacing bound
    bound = cfg.veh_len + cfg.reaction * v - (v - cfg.v_min) ** 2 / (2.0 * cfg.a_min)
    result = SimResult(
        spec=spec, spacings=spacings, speeds=speeds, controls=controls, commanded=commanded,
        iterations=iterations, warmup_iterations=warmups, rounds=rounds, floats=floats,
        oracle_first=oracle_first, rel_errors=rel_errors, safety_margins=spacings - bound)
    result.metrics = _metrics(result)
    if result.safety_margins.min() < -1e-6:
        raise SafetyViolation(
            f"safe-spacing bound violated by {-result.safety_margins.min():.3e} m", result)
    return result


def _synthetic_oscillation(duration: int, seed: int) -> np.ndarray:
    """Seeded mean-reverting acceleration walk bounded by +-2 m/s^2 with the
    implied speed confined to [22, 26] m/s; a stand-in for a recorded
    oscillating trajectory."""
    rng = np.random.default_rng(seed)
    u = np.zeros(duration)
    v = V_CRUISE
    a = 0.0
    for k in range(duration):
        a = np.clip(0.5 * a + rng.normal(0.0, 0.55), -2.0, 2.0)
        a = np.clip(a, 22.0 - v, 26.0 - v)
        u[k] = a
        v += a
    return u


def scenario_builtin(name: str, p: int = 1, seed: int = 0, noise: bool = False,
                     warm_start: str | None = None) -> ScenarioSpec:
    """Built-in scenarios:

    * ``s1``: the leader brakes at -2 for four seconds, holds speed, then
      accelerates at +1 back to 25 m/s.
    * ``s2``: the leader's speed oscillates by +-1 m/s around 25 m/s with a
      four-second period (accelerations +-1) through k = 100.
    * ``s3-synthetic``: 45 s of seeded random-walk accelerations capped at
      +-2 m/s^2; the acceleration limit is raised to 2 m/s^2 to match.
    """
    params = default_params_for_horizon(p)
    if warm_start is not None:
        params = replace(params, warm_start=warm_start)
    cfg, settle_after = reference_config(horizon=p), None
    if name == "s1":
        duration, settle_after = 160, 109
        leader = LeaderProfile.piecewise([(51, 54, -2.0), (101, 108, 1.0)], duration)
    elif name == "s2":
        duration, settle_after = 150, 101
        leader = LeaderProfile.periodic([1.0, -1.0, -1.0, 1.0], 51, 100, duration)
    elif name == "s3-synthetic":
        duration, cfg = 45, replace(cfg, a_max=2.0)
        leader = LeaderProfile(_synthetic_oscillation(duration, seed))
    else:
        raise ValueError(f"unknown scenario {name!r}; expected one of {BUILTIN_SCENARIOS}")
    return ScenarioSpec(name=name, cfg=cfg, weights=default_weight_schedule(p), leader=leader,
                        duration=duration, solver=params, seed=seed, noise=noise,
                        settle_after=settle_after)


_PLOT_STUB = """\
# Plots the emitted scenario series (requires matplotlib).
import csv
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).parent


def load(name):
    with open(here / name, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], [[float(v) for v in r] for r in rows[1:]]
    return header, data


fig, axes = plt.subplots(3, 1, figsize=(8, 10), sharex=True)
for ax, (fname, title) in zip(axes, [("spacings.csv", "spacing [m]"),
                                     ("speeds.csv", "speed [m/s]"),
                                     ("controls.csv", "control [m/s^2]")]):
    header, data = load(fname)
    ks = [r[0] for r in data]
    for col, label in enumerate(header[1:], start=1):
        ax.plot(ks, [r[col] for r in data], label=label, linewidth=0.9)
    ax.set_ylabel(title)
    ax.legend(fontsize=6, ncol=4)
axes[-1].set_xlabel("k [s]")
fig.tight_layout()
fig.savefig(here / "series.png", dpi=150)
print("wrote", here / "series.png")
"""


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def emit_results(result: SimResult, out_dir) -> list:
    """Write spacing/speed/control series, the scalar metrics, and a
    plotting stub into ``out_dir``; returns the created paths."""
    os.makedirs(out_dir, exist_ok=True)
    n = result.spacings.shape[1]
    paths = []

    for name, series, columns in (
            ("spacings", result.spacings, [f"s_{i}_{i+1}" for i in range(n)]),
            ("speeds", result.speeds, [f"v_{i}" for i in range(n + 1)]),
            ("controls", result.controls, [f"u_{i+1}" for i in range(n)])):
        path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(path, ["k"] + columns,
                   [np.concatenate([[k], row]) for k, row in enumerate(series)])
        paths.append(path)

    path = os.path.join(out_dir, "metrics.json")
    payload = dict(result.metrics)
    payload["scenario"] = result.spec.name
    payload["solver"] = {
        "iterations_mean": result.metrics["iterations_mean"],
        "iterations_median": result.metrics["iterations_median"],
        "rel_error_mean": result.metrics["rel_error_mean"],
        "warmup_iterations_median": float(np.median(result.warmup_iterations)),
        "rounds_median": float(np.median(result.rounds)),
        "floats_median": float(np.median(result.floats)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    paths.append(path)

    path = os.path.join(out_dir, "plot_results.py")
    with open(path, "w") as fh:
        fh.write(_PLOT_STUB)
    paths.append(path)
    return paths
