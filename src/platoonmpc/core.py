"""Platoon physics: configuration, state, error coordinates and leader
motion profiles.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlatoonConfig",
    "PlatoonState",
    "LeaderProfile",
    "WeightSchedule",
    "reference_config",
    "initial_state",
    "step_dynamics",
    "error_coords",
]


@dataclass(frozen=True)
class PlatoonConfig:
    """Physical and horizon parameters of the controlled platoon.

    Attributes
    ----------
    n : int
        Number of controlled vehicles (the uncontrolled lead vehicle is
        index 0 and not counted here).
    horizon : int
        Number of future control stages optimized each step; only the
        first stage is applied (receding horizon).
    tau : float
        Sample time [s].
    gap : float
        Desired constant spacing between adjacent vehicles [m].
    veh_len : float
        Effective vehicle length used in the safety bound [m].
    reaction : float
        Reaction time in the safety bound [s]; must be >= tau.
    a_min, a_max : float
        Deceleration / acceleration bounds [m/s^2]; a_min < 0 < a_max.
    v_min, v_max : float
        Speed bounds [m/s]; 0 <= v_min < v_max.
    """

    n: int
    horizon: int
    tau: float
    gap: float
    veh_len: float
    reaction: float
    a_min: float
    a_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two controlled vehicles")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not (self.a_min < 0 < self.a_max):
            raise ValueError("need a_min < 0 < a_max")
        if not (0 <= self.v_min < self.v_max):
            raise ValueError("need 0 <= v_min < v_max")
        if self.reaction < self.tau:
            raise ValueError("reaction time must be >= tau")
        if self.gap <= 0 or self.veh_len <= 0:
            raise ValueError("gap and veh_len must be positive")


def reference_config(n: int = 10, horizon: int = 1) -> PlatoonConfig:
    """Ten-vehicle reference platoon used by the built-in scenarios."""
    return PlatoonConfig(
        n=n,
        horizon=horizon,
        tau=1.0,
        gap=50.0,
        veh_len=5.0,
        reaction=1.0,
        a_min=-8.0,
        a_max=1.35,
        v_min=10.0,
        v_max=27.78,
    )


@dataclass(frozen=True)
class PlatoonState:
    """Positions and speeds of the lead vehicle (index 0) and n CAVs.

    ``u0`` is the lead vehicle's acceleration over the current sample
    interval [k*tau, (k+1)*tau).
    """

    x: np.ndarray
    v: np.ndarray
    u0: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        if x.ndim != 1 or x.shape != v.shape or x.size < 3:
            raise ValueError("x and v must be 1-d arrays of equal size >= 3")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v)) and np.isfinite(self.u0)):
            raise ValueError("state must be finite")
        if np.any(np.diff(x) >= 0):
            raise ValueError("positions must be strictly decreasing in index")

    @property
    def n(self) -> int:
        return self.x.size - 1


def initial_state(cfg: PlatoonConfig, speed: float = 25.0, u0: float = 0.0) -> PlatoonState:
    """Equally spaced platoon at the desired gap, all at the same speed, the
    leader at position +0.0."""
    return PlatoonState(x=cfg.gap * -np.arange(cfg.n + 1), v=np.full(cfg.n + 1, float(speed)),
                        u0=u0)


def error_coords(state: PlatoonState, cfg: PlatoonConfig):
    """Gap errors and closing rates between adjacent vehicles, the pair
    ``(x_{i-1} - x_i - gap, v_{i-1} - v_i)`` over i = 1..n."""
    return -np.diff(state.x) - cfg.gap, -np.diff(state.v)


def step_dynamics(state: PlatoonState, u: np.ndarray, u0_next: float,
                  tau: float) -> PlatoonState:
    """Advance every vehicle one sample step under double-integrator dynamics.

    The lead vehicle moves with the acceleration stored in ``state.u0``;
    the returned state carries ``u0_next`` as the leader's acceleration for
    the following interval.  No constraint is enforced here; keeping the
    commands admissible is the solver's job.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (state.n,) or not np.all(np.isfinite(u)):
        raise ValueError("u must be a finite vector of length n")
    acc = np.concatenate(([state.u0], u))
    x_new = state.x + tau * state.v + 0.5 * tau ** 2 * acc
    v_new = state.v + tau * acc
    return PlatoonState(x=x_new, v=v_new, u0=float(u0_next))


# -- leader motion profiles -------------------------------------------------

@dataclass(frozen=True)
class LeaderProfile:
    """Lead-vehicle acceleration profile on the sample grid.

    Built by ``piecewise`` (constant-acceleration segments), ``periodic``
    (repeating pattern over a window), ``from_csv`` (a trajectory file), or
    directly from explicit per-step float samples.
    """

    samples: np.ndarray

    def accel_at(self, k: int) -> float:
        if 0 <= k < self.samples.size:
            return float(self.samples[k])
        return 0.0

    def series(self, duration: int) -> np.ndarray:
        out = np.zeros(duration)
        m = min(duration, self.samples.size)
        out[:m] = self.samples[:m]
        return out

    @staticmethod
    def piecewise(segments, duration: int) -> "LeaderProfile":
        """segments: iterable of (k_first, k_last, accel), inclusive ranges."""
        samples = np.zeros(duration)
        for k_first, k_last, acc in segments:
            if not (0 <= k_first <= k_last < duration):
                raise ValueError("segment out of range")
            samples[k_first:k_last + 1] = acc
        return LeaderProfile(samples=samples)

    @staticmethod
    def periodic(pattern, k_first: int, k_last: int, duration: int) -> "LeaderProfile":
        """Repeat ``pattern`` over the inclusive window [k_first, k_last]."""
        pattern = np.asarray(pattern, dtype=float)
        samples = np.zeros(duration)
        for k in range(k_first, min(k_last, duration - 1) + 1):
            samples[k] = pattern[(k - k_first) % pattern.size]
        return LeaderProfile(samples=samples)

    @staticmethod
    def from_csv(path, tau: float) -> "LeaderProfile":
        """Load a trajectory file with header ``t,accel`` and one row per
        step, ``t`` finite and strictly increasing; samples are resampled
        onto the tau grid by zero-order hold."""
        times, accels = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["t", "accel"]:
                raise ValueError("trajectory CSV must have header 't,accel'")
            for row in reader:
                times.append(float(row["t"]))
                accels.append(float(row["accel"]))
        if not times:
            raise ValueError("trajectory CSV is empty")
        times = np.asarray(times)
        accels = np.asarray(accels)
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("trajectory CSV times must be finite and strictly increasing")
        duration = int(np.floor(times[-1] / tau)) + 1
        grid = np.arange(duration) * tau
        idx = np.searchsorted(times, grid, side="right") - 1
        return LeaderProfile(samples=accels[np.clip(idx, 0, None)])

    def validate_speeds(self, v0_init: float, cfg: PlatoonConfig, duration: int) -> None:
        """Check the produced leader speeds stay within (v_min, v_max]."""
        v = v0_init
        for k in range(duration):
            if not (cfg.v_min < v <= cfg.v_max):
                raise ValueError(f"leader speed {v:.3f} leaves ({cfg.v_min}, {cfg.v_max}] at k={k}")
            v += cfg.tau * self.accel_at(k)
        if not (cfg.v_min < v <= cfg.v_max):
            raise ValueError("leader speed leaves bounds at the final step")


# -- per-stage objective weights --------------------------------------------

@dataclass(frozen=True)
class WeightSchedule:
    """Diagonal objective weights per stage and vehicle.

    ``q_gap[s, i]``  penalizes the gap error of vehicle i at stage s+1,
    ``q_rate[s, i]`` penalizes its closing rate, and ``q_ride[s, i]``
    penalizes the acceleration-gap (ride comfort) term.  Gap and rate
    weights must be nonnegative and the ride weights strictly positive;
    these sign conditions make the assembled objective Hessian positive
    definite.
    """

    q_gap: np.ndarray
    q_rate: np.ndarray
    q_ride: np.ndarray

    def __post_init__(self):
        qg = np.atleast_2d(np.asarray(self.q_gap, dtype=float))
        qr = np.atleast_2d(np.asarray(self.q_rate, dtype=float))
        qw = np.atleast_2d(np.asarray(self.q_ride, dtype=float))
        object.__setattr__(self, "q_gap", qg)
        object.__setattr__(self, "q_rate", qr)
        object.__setattr__(self, "q_ride", qw)
        if not (qg.shape == qr.shape == qw.shape):
            raise ValueError("weight arrays must share the shape (stages, vehicles)")
        if not (np.all(np.isfinite(qg)) and np.all(np.isfinite(qr)) and np.all(np.isfinite(qw))):
            raise ValueError("weights must be finite")
        if np.any(qg < 0) or np.any(qr < 0):
            raise ValueError("gap and rate weights must be nonnegative")
        if np.any(qw <= 0):
            raise ValueError("ride weights must be strictly positive")

    @property
    def horizon(self) -> int:
        return self.q_gap.shape[0]

    @property
    def n(self) -> int:
        return self.q_gap.shape[1]

    def scaled(self, factor: float) -> "WeightSchedule":
        return WeightSchedule(self.q_gap * factor, self.q_rate * factor, self.q_ride * factor)
