"""Per-step assembly of the constrained MPC program.

At every sample step the receding-horizon controller minimizes a strongly
convex quadratic in the stacked per-vehicle controls, subject to box and
speed-band rows per vehicle plus one convex quadratic safety constraint per
vehicle and stage.  This module builds that program from the measured
platoon state; nothing here iterates or communicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PlatoonConfig, PlatoonState, WeightSchedule, error_coords
from .decomposition import StageBlocks, assemble_hessian_blocks, stage_blocks

__all__ = [
    "ConstraintSet",
    "QcqpProblem",
    "MembershipReport",
    "build_qcqp",
    "eval_objective",
    "check_membership",
]


@dataclass(frozen=True)
class ConstraintSet:
    """Every constraint row of one step's program, stored per vehicle.

    Vehicle i's rows read only its own controls u_i and its predecessor's
    u_{i-1}, and each is feasible when its value is <= 0:

    * the box ``a_min <= u_i <= a_max``;
    * the speed band ``speed_lo[i] <= tau * cumsum(u_i) <= speed_hi[i]``,
      with per-vehicle offsets ``v_min - v_i(k)`` and ``v_max - v_i(k)``;
    * one safe-spacing row per stage s,
      ``quad * (S u_i)_s^2 + own[i, s] . u_i + prev[i, s] . u_{i-1} + const[i, s]``,
      S the cumulative-sum selector.  The first vehicle's predecessor is
      the uncontrolled leader, whose predicted motion is folded into
      ``const`` (``prev[0]`` is zero).
    """

    tau: float
    a_min: float
    a_max: float
    speed_lo: np.ndarray
    speed_hi: np.ndarray
    quad: float
    own: np.ndarray
    prev: np.ndarray
    const: np.ndarray

    def rows(self, i: int, dim: int, own: int, prev: int | None = None):
        """Vehicle i's rows over ``dim`` columns whose own block starts at
        column ``own`` and whose predecessor block starts at ``prev`` (None
        when the layout has no predecessor block).

        Returns ``(A, h, S)``: row k reads ``A[k] x - h[k] + quad (S[k] x)^2
        <= 0``.  The rows are upper box, lower box, upper speed, lower speed
        (S zero on all four) and safety, p of each.
        """
        p = self.own.shape[-1]
        cols = slice(own, own + p)
        L = np.tril(np.ones((p, p)))
        T = self.tau * L
        A = np.zeros((5 * p, dim))
        A[:, cols] = np.concatenate([np.eye(p), -np.eye(p), T, -T, self.own[i]])
        if prev is not None:
            A[4 * p:, prev:prev + p] = self.prev[i]
        h = np.empty(5 * p)
        h[:p], h[p:2 * p], h[2 * p:3 * p], h[3 * p:4 * p], h[4 * p:] = \
            self.a_max, -self.a_min, self.speed_hi[i], -self.speed_lo[i], -self.const[i]
        S = np.zeros((5 * p, dim))
        S[4 * p:, cols] = L
        return A, h, S

    def values(self, rows, x: np.ndarray) -> np.ndarray:
        """Value of every row laid out by ``rows`` at ``x``."""
        A, h, S = rows
        return A @ x - h + self.quad * (S @ x) ** 2


@dataclass(frozen=True)
class QcqpProblem:
    """One step's convex program in stacked vehicle-major controls.

    The Hessian is stored as its block-tridiagonal pieces (``diag[i]`` and
    ``off[i]`` coupling vehicles i, i+1); ``c`` is partitioned per vehicle.
    """

    n: int
    horizon: int
    diag: tuple
    off: tuple
    c: np.ndarray
    constraints: ConstraintSet

    def c_part(self, i: int) -> np.ndarray:
        p = self.horizon
        return self.c[i * p:(i + 1) * p]

    def hessian_dense(self) -> np.ndarray:
        """Assemble the full Hessian (test/oracle path only)."""
        p, n = self.horizon, self.n
        W = np.zeros((n * p, n * p))
        for i in range(n):
            W[i * p:(i + 1) * p, i * p:(i + 1) * p] = self.diag[i]
            if i + 1 < n:
                W[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = self.off[i]
                W[(i + 1) * p:(i + 2) * p, i * p:(i + 1) * p] = self.off[i].T
        return W

    def hessian_matvec(self, u: np.ndarray) -> np.ndarray:
        p, n = self.horizon, self.n
        u = np.asarray(u, dtype=float).reshape(n, p)
        out = np.zeros_like(u)
        for i in range(n):
            blk = self.diag[i] @ u[i]
            if i + 1 < n:
                blk = blk + self.off[i] @ u[i + 1]
            if i > 0:
                blk = blk + self.off[i - 1].T @ u[i - 1]
            out[i] = blk
        return out.ravel()


def _linear_term(state: PlatoonState, cfg: PlatoonConfig, weights: WeightSchedule) -> np.ndarray:
    """Vehicle-major linear term of the objective.

    Built stage by stage from the predicted gap and rate errors under the
    frozen leader acceleration, then mapped through the transposed
    first-difference operator; only adjacent vehicles' measurements enter
    each vehicle's slice.
    """
    p, n, tau = cfg.horizon, cfg.n, cfg.tau
    err = error_coords(state, cfg)
    z, zp = err.gap_err, err.rate_err
    u0 = state.u0
    e1 = np.zeros(n)
    e1[0] = 1.0

    d = [z + s * tau * zp + 0.5 * tau ** 2 * s ** 2 * u0 * e1 for s in range(1, p + 1)]
    f = [zp + tau * s * u0 * e1 for s in range(1, p + 1)]

    c = np.zeros(n * p)
    for stage in range(1, p + 1):
        m = np.zeros(n)
        for s in range(stage, p + 1):
            m += 0.5 * tau ** 2 * (2 * (s - stage) + 1) * weights.q_gap[s - 1] * d[s - 1] \
                + tau * weights.q_rate[s - 1] * f[s - 1]
        # transposed first-difference: row j reads m[j] - m[j+1]
        g = -(m - np.concatenate([m[1:], [0.0]]))
        c[(stage - 1)::p] = g
    return c


def _constraint_set(state: PlatoonState, cfg: PlatoonConfig) -> ConstraintSet:
    """Box, speed-band and safe-spacing rows of every vehicle."""
    p, tau = cfg.horizon, cfg.tau
    stage = np.arange(1, p + 1)
    # kappa[s-1, j] = (2(s - j) - 1) / 2 weighs control j in the stage-s position
    kappa = np.tril((2 * (stage[:, None] - np.arange(p)) - 1) / 2.0)
    v, v_prev = state.v[1:], state.v[:-1]
    coef = cfg.reaction * tau - tau * (v - cfg.v_min) / cfg.a_min
    # float_power squares through libm pow, like a scalar ``**``; an array's
    # ``** 2`` multiplies and can round the last bit differently
    const = -(state.x[:-1] - state.x[1:])[:, None] - stage * tau * (v_prev - v)[:, None] \
        + cfg.veh_len + (cfg.reaction * v)[:, None] \
        - (np.float_power(v - cfg.v_min, 2) / (2.0 * cfg.a_min))[:, None]
    # The leader prediction freezes its current acceleration, so the first
    # vehicle's predecessor contribution is a constant.
    const[0] -= tau ** 2 * kappa.sum(axis=1) * state.u0
    prev = np.repeat((-tau ** 2 * kappa)[None], cfg.n, axis=0)
    prev[0] = 0.0
    return ConstraintSet(
        tau=tau,
        a_min=cfg.a_min,
        a_max=cfg.a_max,
        speed_lo=cfg.v_min - v,
        speed_hi=cfg.v_max - v,
        quad=-tau ** 2 / (2.0 * cfg.a_min),
        own=coef[:, None, None] * np.tril(np.ones((p, p))) + tau ** 2 * kappa,
        prev=prev,
        const=const,
    )


def build_qcqp(state: PlatoonState, cfg: PlatoonConfig, weights: WeightSchedule,
               blocks: StageBlocks | None = None) -> QcqpProblem:
    """Assemble the step's convex program from the measured state.

    ``blocks`` may carry precomputed stage-coupling Hessians (they depend
    only on the weights and sample time, not on the state).
    """
    if weights.horizon != cfg.horizon or weights.n != cfg.n:
        raise ValueError("weight schedule shape does not match the configuration")
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.v))):
        raise ValueError("state must be finite")
    if blocks is None:
        blocks = stage_blocks(weights, cfg.tau)
    diag, off = assemble_hessian_blocks(blocks)
    c = _linear_term(state, cfg, weights)
    return QcqpProblem(
        n=cfg.n,
        horizon=cfg.horizon,
        diag=tuple(diag),
        off=tuple(off),
        c=c,
        constraints=_constraint_set(state, cfg),
    )


def eval_objective(prob: QcqpProblem, u: np.ndarray) -> float:
    """Quadratic objective value (the state-only constant is dropped)."""
    u = np.asarray(u, dtype=float)
    return 0.5 * float(u @ prob.hessian_matvec(u)) + float(prob.c @ u)


@dataclass(frozen=True)
class MembershipReport:
    """Constraint residuals of a candidate control (values <= 0 feasible).

    ``box`` holds max(a_min - u, u - a_max) per vehicle and stage;
    ``speed`` the band residuals of the cumulative speed change; ``safety``
    the safe-spacing values.  ``feasible`` applies the tolerance uniformly.
    """

    box: np.ndarray
    speed: np.ndarray
    safety: np.ndarray
    tol: float

    @property
    def worst(self) -> float:
        return float(max(self.box.max(), self.speed.max(), self.safety.max()))

    @property
    def feasible(self) -> bool:
        return self.worst <= self.tol


def check_membership(prob: QcqpProblem, u: np.ndarray, tol: float = 1e-8) -> MembershipReport:
    """Evaluate every constraint of the step program at ``u``."""
    p, n, cons = prob.horizon, prob.n, prob.constraints
    u = np.asarray(u, dtype=float).reshape(n, p)
    # each vehicle's rows over its own block and its predecessor's
    window = np.hstack([u, np.vstack([np.zeros((1, p)), u[:-1]])])
    val = np.array([cons.values(cons.rows(i, 2 * p, 0, p), window[i])
                    for i in range(n)]).reshape(n, 5, p)
    return MembershipReport(box=np.maximum(val[:, 0], val[:, 1]),
                            speed=np.maximum(val[:, 2], val[:, 3]), safety=val[:, 4], tol=tol)
