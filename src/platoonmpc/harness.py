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

from .core import (LeaderProfile, PlatoonConfig, WeightSchedule, initial_state,
                   reference_config, step_dynamics)
from .decomposition import decompose_pd, stage_blocks
from .problem import build_qcqp
from .solvers import (SolverParams, build_agent_stack, build_local_problems,
                      default_params_for_horizon, solve_centralized, solve_variant,
                      warmup_initial_guess)
from .stability import default_weight_schedule

__all__ = [
    "NoiseSpec",
    "ScenarioSpec",
    "SimResult",
    "SafetyViolation",
    "run_scenario",
    "scenario_builtin",
    "emit_results",
]

BUILTIN_SCENARIOS = ("s1", "s2", "s3-synthetic")


class SafetyViolation(RuntimeError):
    """A realized trajectory broke the safe-spacing bound."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class NoiseSpec:
    """Normal process noise added to the realized accelerations; the first
    vehicle sees more disturbance than the rest.  Zero mean by default."""

    std_first: float = 0.04
    std_rest: float = 0.02
    mean: float = 0.0

    def __post_init__(self):
        if self.std_first < 0 or self.std_rest < 0:
            raise ValueError("noise standard deviations must be nonnegative")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    leader: LeaderProfile
    duration: int
    solver: SolverParams
    horizon: int = 1
    seed: int = 0
    noise: NoiseSpec | None = None
    v_init: float = 25.0
    settle_after: int | None = None
    a_max_override: float | None = None

    def __post_init__(self):
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class SimResult:
    """Realized trajectories plus per-step solver statistics.

    ``spacings[k, i-1]`` is the gap ahead of vehicle i at step k; series
    include the initial state, so they have duration + 1 rows, while the
    control series has one row per applied step.  ``controls`` holds the
    realized accelerations (noise included), ``commanded`` the solver's
    first-stage answer.  ``warmup_iterations`` counts the sequential fabric
    rounds of the warm-up sweep, 2(n - 1) per step under the warm-up start
    and zero otherwise.  When the centralized oracle runs, ``oracle_first``
    holds its applied stage and ``rel_errors`` the per-step relative error
    of the commanded stage against it (NaN where the oracle is numerically
    zero); the aggregated metric keeps only steps whose oracle magnitude
    exceeds one percent of the run's peak, where the ratio is meaningful.
    """

    spec_name: str
    gap: float
    spacings: np.ndarray
    speeds: np.ndarray
    controls: np.ndarray
    commanded: np.ndarray
    leader_accel: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    warmup_iterations: np.ndarray
    oracle_first: np.ndarray
    rel_errors: np.ndarray
    safety_margins: np.ndarray
    metrics: dict = field(default_factory=dict)


def _safety_margin(spacings_row, speeds_row, cfg: PlatoonConfig) -> np.ndarray:
    v = speeds_row[1:]
    bound = cfg.veh_len + cfg.reaction * v - (v - cfg.v_min) ** 2 / (2.0 * cfg.a_min)
    return spacings_row - bound


def _metrics(spec: ScenarioSpec, result: SimResult) -> dict:
    dev = np.abs(result.spacings - result.gap)
    first = dev[:, 0]
    metrics = {
        "max_dev_first_gap": float(first.max()),
        "max_dev_other_gaps": float(dev[:, 1:].max()) if dev.shape[1] > 1 else 0.0,
        "min_safety_margin": float(result.safety_margins.min()),
        "iterations_mean": float(result.iterations.mean()),
        "iterations_median": float(np.median(result.iterations)),
        "duration": int(result.controls.shape[0]),
    }
    finite = np.isfinite(result.rel_errors)
    if finite.any():
        mags = np.abs(result.oracle_first).max(axis=1)
        material = finite & (mags > 0.01 * mags.max())
        metrics["rel_error_mean"] = float(result.rel_errors[material].mean()) \
            if material.any() else None
    else:
        metrics["rel_error_mean"] = None
    if spec.settle_after is not None:
        settle = None
        band = first < 0.05
        for k in range(spec.settle_after, first.size):
            if band[k:].all():
                settle = k - spec.settle_after
                break
        metrics["settle_time"] = settle
    else:
        metrics["settle_time"] = None
    return metrics


def run_scenario(spec: ScenarioSpec, cfg: PlatoonConfig | None = None,
                 weights: WeightSchedule | None = None,
                 with_oracle: bool = False) -> SimResult:
    """Run one closed-loop scenario.

    Builds the step program at every sample, solves it with the configured
    distributed engine (receding horizon: only the first stage of each
    vehicle's plan is applied), optionally compares each step against the
    centralized reference, and raises SafetyViolation if any realized
    spacing breaks the safe-distance bound.
    """
    cfg = cfg if cfg is not None else reference_config(horizon=spec.horizon)
    if cfg.horizon != spec.horizon:
        raise ValueError("configuration horizon does not match the scenario")
    if spec.a_max_override is not None:
        cfg = replace(cfg, a_max=spec.a_max_override)
    weights = weights if weights is not None else default_weight_schedule(cfg.horizon)
    spec.leader.validate_speeds(spec.v_init, cfg, spec.duration)

    blocks = stage_blocks(weights, cfg.tau)
    stack = build_agent_stack(decompose_pd(blocks))
    graph = stack.layout.graph
    params = spec.solver
    # built only for noise: importing numpy.random alone costs about 5 MB
    rng = np.random.default_rng(spec.seed) if spec.noise is not None else None

    n, p, T = cfg.n, cfg.horizon, spec.duration
    state = initial_state(cfg, speed=spec.v_init, u0=spec.leader.accel_at(0))

    spacings = np.zeros((T + 1, n))
    speeds = np.zeros((T + 1, n + 1))
    controls = np.zeros((T, n))
    commanded = np.zeros((T, n))
    iterations = np.zeros(T, dtype=int)
    warmups = np.zeros(T, dtype=int)
    residuals = np.zeros(T)
    oracle_first = np.full((T, n), np.nan)
    rel_errors = np.full(T, np.nan)
    margins = np.zeros((T + 1, n))

    spacings[0] = -np.diff(state.x)
    speeds[0] = state.v
    margins[0] = _safety_margin(spacings[0], speeds[0], cfg)

    z_prev = warm = None
    for k in range(T):
        prob = build_qcqp(state, cfg, weights, blocks=blocks)
        locals_ = build_local_problems(prob, stack, warm=warm)
        if params.warm_start == "warmup-projection":
            z0, wu_iters, warm = warmup_initial_guess(prob, locals_, graph)
            locals_ = replace(locals_, warm=warm)
            warmups[k] = wu_iters
        else:
            z0 = z_prev  # None at the first step: a zero start
        report = solve_variant(locals_, graph, params, z0=z0)
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
        if spec.noise is not None:
            noise = rng.normal(spec.noise.mean,
                               [spec.noise.std_first] + [spec.noise.std_rest] * (n - 1))
            u_first = u_first + noise
        state = step_dynamics(state, u_first, spec.leader.accel_at(k + 1), cfg.tau)
        controls[k] = u_first
        iterations[k] = report.iterations
        residuals[k] = report.residual
        spacings[k + 1] = -np.diff(state.x)
        speeds[k + 1] = state.v
        margins[k + 1] = _safety_margin(spacings[k + 1], speeds[k + 1], cfg)

    result = SimResult(
        spec_name=spec.name,
        gap=cfg.gap,
        spacings=spacings,
        speeds=speeds,
        controls=controls,
        commanded=commanded,
        leader_accel=spec.leader.series(T),
        iterations=iterations,
        residuals=residuals,
        warmup_iterations=warmups,
        oracle_first=oracle_first,
        rel_errors=rel_errors,
        safety_margins=margins,
    )
    result.metrics = _metrics(spec, result)
    if result.safety_margins.min() < -1e-6:
        raise SafetyViolation(
            f"safe-spacing bound violated by {-result.safety_margins.min():.3e} m", result)
    return result


def _synthetic_oscillation(duration: int, seed: int, a_cap: float = 2.0,
                           v_init: float = 25.0, v_lo: float = 22.0,
                           v_hi: float = 26.0) -> np.ndarray:
    """Seeded mean-reverting acceleration walk bounded by +-a_cap with the
    implied speed confined to [v_lo, v_hi]; a stand-in for a recorded
    oscillating trajectory."""
    rng = np.random.default_rng(seed)
    u = np.zeros(duration)
    v = v_init
    a = 0.0
    for k in range(duration):
        a = np.clip(0.5 * a + rng.normal(0.0, 0.55), -a_cap, a_cap)
        a = np.clip(a, v_lo - v, v_hi - v)
        u[k] = a
        v += a
    return u


def scenario_builtin(name: str, p: int = 1, variant: str = "dr", seed: int = 0,
                     noise: bool = False, warm_start: str | None = None) -> ScenarioSpec:
    """Built-in scenarios:

    * ``s1``: the leader brakes at -2 for four seconds, holds speed, then
      accelerates at +1 back to 25 m/s.
    * ``s2``: the leader's speed oscillates by +-1 m/s around 25 m/s with a
      four-second period (accelerations +-1) through k = 100.
    * ``s3-synthetic``: 45 s of seeded random-walk accelerations capped at
      +-2 m/s^2; the acceleration limit is raised to 2 m/s^2 to match.
    """
    params = default_params_for_horizon(p, variant=variant)
    if warm_start is not None:
        params.warm_start = warm_start
    noise_spec = NoiseSpec() if noise else None
    if name == "s1":
        duration = 160
        leader = LeaderProfile.piecewise(
            [(51, 54, -2.0), (101, 108, 1.0)], duration)
        return ScenarioSpec(name=name, leader=leader, duration=duration, solver=params,
                            horizon=p, seed=seed, noise=noise_spec, settle_after=109)
    if name == "s2":
        duration = 150
        leader = LeaderProfile.periodic([1.0, -1.0, -1.0, 1.0], 51, 100, duration)
        return ScenarioSpec(name=name, leader=leader, duration=duration, solver=params,
                            horizon=p, seed=seed, noise=noise_spec, settle_after=101)
    if name == "s3-synthetic":
        duration = 45
        leader = LeaderProfile.from_samples(_synthetic_oscillation(duration, seed))
        return ScenarioSpec(name=name, leader=leader, duration=duration, solver=params,
                            horizon=p, seed=seed, noise=noise_spec, a_max_override=2.0)
    raise ValueError(f"unknown scenario {name!r}; expected one of {BUILTIN_SCENARIOS}")


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

    path = os.path.join(out_dir, "spacings.csv")
    rows = [np.concatenate([[k], result.spacings[k]]) for k in range(result.spacings.shape[0])]
    _write_csv(path, ["k"] + [f"s_{i}_{i+1}" for i in range(n)], rows)
    paths.append(path)

    path = os.path.join(out_dir, "speeds.csv")
    rows = [np.concatenate([[k], result.speeds[k]]) for k in range(result.speeds.shape[0])]
    _write_csv(path, ["k"] + [f"v_{i}" for i in range(n + 1)], rows)
    paths.append(path)

    path = os.path.join(out_dir, "controls.csv")
    rows = [np.concatenate([[k], result.controls[k]]) for k in range(result.controls.shape[0])]
    _write_csv(path, ["k"] + [f"u_{i+1}" for i in range(n)], rows)
    paths.append(path)

    path = os.path.join(out_dir, "metrics.json")
    payload = dict(result.metrics)
    payload["scenario"] = result.spec_name
    payload["solver"] = {
        "iterations_mean": result.metrics["iterations_mean"],
        "iterations_median": result.metrics["iterations_median"],
        "rel_error_mean": result.metrics["rel_error_mean"],
        "warmup_iterations_median": float(np.median(result.warmup_iterations)),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    paths.append(path)

    path = os.path.join(out_dir, "plot_results.py")
    with open(path, "w") as fh:
        fh.write(_PLOT_STUB)
    paths.append(path)
    return paths
