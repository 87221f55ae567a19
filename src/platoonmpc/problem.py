"""Assembly of the constrained MPC program: a per-run part, a per-step part.

At every sample step the receding-horizon controller minimizes a strongly
convex quadratic in the stacked per-vehicle controls, subject to box and
speed-band rows per vehicle plus one convex quadratic safety constraint per
vehicle and stage; nothing here iterates or communicates.  ``StepTemplate``
builds what the state does not change once per run: the Hessian blocks and
their chain's Schur blocks, the prediction (Φ, T) from which the linear
term and the safety rows are read, and one row skeleton in the agents'
columns.  ``build_qcqp`` adds what the measured state sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PlatoonConfig, PlatoonState, WeightSchedule, error_coords
from .decomposition import prediction, stage_blocks
from .smallqcqp import stacked_rows

__all__ = [
    "ConstraintSet",
    "QcqpProblem",
    "StepTemplate",
    "MembershipReport",
    "build_qcqp",
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
      ``quad * (S u_i)_s^2 + own[i, s] . u_i - Φ[s] . u_{i-1} + const[i, s]``,
      S the cumulative-sum selector.  The first vehicle's predecessor is
      the uncontrolled leader, whose predicted motion is folded into
      ``const``.

    ``skeleton`` is the run's read-only (A, S), each (n, 5p, 3p), over every
    vehicle's [own, predecessor, successor] columns: the box, speed and
    predecessor coefficients and the selector, which no state changes.  The
    successor's columns are zero (no row reads u_{i+1}), and so are the
    first vehicle's predecessor columns.
    """

    a_min: float
    a_max: float
    speed_lo: np.ndarray
    speed_hi: np.ndarray
    quad: float
    own: np.ndarray
    const: np.ndarray
    skeleton: tuple

    def rows(self, width: int):
        """Every vehicle's rows over the skeleton's first ``width`` columns.

        Returns ``(A, h, S)`` stacked over the vehicles: row r of vehicle i
        reads ``A[i, r] x - h[i, r] + quad (S[i, r] x)^2 <= 0``.  Each
        vehicle's 5p rows are upper box, lower box, upper speed, lower speed
        (S zero on all four) and safety, p of each.  A is a copy with the
        own safety coefficients written in; S is the skeleton's, read-only.
        """
        A, S = self.skeleton
        p = self.own.shape[-1]
        A = A[..., :width].copy()
        A[:, 4 * p:, :p] = self.own
        h = np.empty(A.shape[:2])
        h[:, :p], h[:, p:2 * p] = self.a_max, -self.a_min
        h[:, 2 * p:3 * p], h[:, 3 * p:4 * p] = self.speed_hi[:, None], -self.speed_lo[:, None]
        h[:, 4 * p:] = -self.const
        return A, h, S[..., :width]


@dataclass(frozen=True)
class QcqpProblem:
    """One step's convex program in stacked vehicle-major controls.

    The Hessian is stored as its block-tridiagonal pieces, stacked: ``diag``
    (n, p, p) and ``off`` (n - 1, p, p), ``off[i]`` coupling vehicles i and
    i+1, with the Schur blocks of its forward elimination,
    ``schur[i] = diag[i] - off[i-1]' schur[i-1]^-1 off[i-1]``; ``c`` is
    partitioned per vehicle.
    """

    n: int
    horizon: int
    diag: np.ndarray
    off: np.ndarray
    schur: np.ndarray
    c: np.ndarray
    constraints: ConstraintSet

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


class StepTemplate:
    """The state-free part of a run's step programs, from the configuration,
    the weights and (optionally precomputed) stacked stage blocks: the
    Hessian's block-tridiagonal pieces and Schur blocks, the prediction
    (Φ, T) and what the linear term reads of it, and the rows' one
    ``skeleton`` (see ``ConstraintSet``).  Every array it builds is
    read-only."""

    def __init__(self, cfg: PlatoonConfig, weights: WeightSchedule, blocks=None):
        if weights.horizon != cfg.horizon or weights.n != cfg.n:
            raise ValueError("weight schedule shape does not match the configuration")
        U = blocks if blocks is not None else stage_blocks(weights, cfg.tau)
        diag, off = U.copy(), -U[1:]
        diag[:-1] += U[1:]
        schur = diag.copy()
        for i in range(1, cfg.n):
            schur[i] -= off[i - 1].T @ np.linalg.solve(schur[i - 1], off[i - 1])
        self.cfg, self.weights, self.diag, self.off, self.schur = cfg, weights, diag, off, schur
        self.phi, self.T = prediction(cfg.horizon, cfg.tau)
        # a constant unit acceleration gap moves the gap error by Φ·1, the rate by tau T·1
        self.lead, self.reach = self.phi.sum(axis=1), cfg.tau * self.T.sum(axis=1)
        self.leader = np.eye(1, cfg.n)[0]  # the leader's acceleration enters vehicle 0 only
        self.quad = -cfg.tau ** 2 / (2.0 * cfg.a_min)
        p, L = cfg.horizon, self.T
        A, S = np.zeros((2, cfg.n, 5 * p, 3 * p))
        A[:, :4 * p, :p] = np.concatenate([np.eye(p), -np.eye(p), cfg.tau * L, -cfg.tau * L])
        A[1:, 4 * p:, p:2 * p] = -self.phi  # the leader (vehicle 0's predecessor) is in const
        S[:, 4 * p:, :p] = L
        self.skeleton = A, S
        for a in (diag, off, schur, self.lead, self.reach, self.leader, A, S):
            a.flags.writeable = False  # shared by every step


def _linear_term(state: PlatoonState, t: StepTemplate) -> np.ndarray:
    """Vehicle-major linear term of the objective.

    ``m = Φ'(q_gap * d) + tau T'(q_rate * r)`` per vehicle, d and r the
    predicted gap and rate errors with no control applied (the leader keeps
    its frozen acceleration), then mapped through the transposed
    first-difference operator; only adjacent vehicles' measurements enter
    each vehicle's slice.
    """
    gap_err, rate_err = error_coords(state, t.cfg)
    leader = t.leader * state.u0
    d = gap_err + t.reach[:, None] * rate_err + t.lead[:, None] * leader
    r = rate_err + t.reach[:, None] * leader
    m = t.phi.T @ (t.weights.q_gap * d) + t.cfg.tau * (t.T.T @ (t.weights.q_rate * r))
    # transposed first-difference: row j reads m[j] - m[j+1]
    return (-(m - np.concatenate([m[:, 1:], np.zeros((len(m), 1))], axis=1))).T.ravel()


def _constraint_set(state: PlatoonState, t: StepTemplate) -> ConstraintSet:
    """Box, speed-band and safe-spacing rows of every vehicle."""
    cfg, tau = t.cfg, t.cfg.tau
    v, v_prev = state.v[1:], state.v[:-1]
    coef = cfg.reaction * tau - tau * (v - cfg.v_min) / cfg.a_min
    # float_power squares through libm pow, like a scalar ``**``; an array's
    # ``** 2`` multiplies and can round the last bit differently
    const = -(state.x[:-1] - state.x[1:])[:, None] - t.reach * (v_prev - v)[:, None] \
        + cfg.veh_len + (cfg.reaction * v)[:, None] \
        - (np.float_power(v - cfg.v_min, 2) / (2.0 * cfg.a_min))[:, None]
    # The leader prediction freezes its current acceleration, so the first
    # vehicle's predecessor contribution is a constant.
    const[0] -= t.lead * state.u0
    return ConstraintSet(a_min=cfg.a_min, a_max=cfg.a_max, speed_lo=cfg.v_min - v,
                         speed_hi=cfg.v_max - v, quad=t.quad,
                         own=coef[:, None, None] * t.T + t.phi, const=const, skeleton=t.skeleton)


def build_qcqp(state: PlatoonState, template: StepTemplate) -> QcqpProblem:
    """Assemble the step's convex program from the measured state over a
    run's ``template``."""
    if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.v))):
        raise ValueError("state must be finite")
    return QcqpProblem(n=template.cfg.n, horizon=template.cfg.horizon, diag=template.diag,
                       off=template.off, schur=template.schur, c=_linear_term(state, template),
                       constraints=_constraint_set(state, template))


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
    val = stacked_rows(*cons.rows(2 * p), cons.quad, window)[0].reshape(n, 5, p)
    return MembershipReport(box=np.maximum(val[:, 0], val[:, 1]),
                            speed=np.maximum(val[:, 2], val[:, 3]), safety=val[:, 4], tol=tol)
