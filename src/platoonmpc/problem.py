"""Assembly of the constrained MPC program: a per-run part, a per-step part.

At every sample step the receding-horizon controller minimizes a strongly
convex quadratic in the stacked per-vehicle controls, subject to box and
speed-band rows per vehicle plus one convex quadratic safety constraint per
vehicle and stage; nothing here iterates or communicates.  ``StepTemplate``
builds what the state does not change once per run: the stage blocks, the
prediction (Φ, T) from which the linear term and the safety rows are read,
and one row skeleton in the agents' columns.  ``build_qcqp`` adds what the
measured state sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PlatoonConfig, PlatoonState, WeightSchedule, error_coords
from .decomposition import prediction
from .smallqcqp import Rows

__all__ = [
    "QcqpProblem",
    "StepTemplate",
    "MembershipReport",
    "build_qcqp",
    "check_membership",
]


@dataclass(frozen=True)
class QcqpProblem:
    """One step's convex program in stacked vehicle-major controls.

    The Hessian is the run's: ``template`` holds its stage blocks U_j.  In
    the gaps delta_j = u_{j-1} - u_j (delta_0 = -u_0) the objective is
    sum_j 1/2 delta_j' U_j delta_j + m_j' delta_j; the step adds ``m``
    (n, p), whose row j reads only vehicle j's and its predecessor's
    measurements (row 0 also the leader's acceleration), and its rows.

    ``rows`` holds every constraint row of the step, a ``Rows`` stack over
    the vehicles, each (5p, 3p) over the vehicle's [own, predecessor,
    successor] columns: row r of vehicle i reads
    ``A[i, r] x - h[i, r] + quad (S[i, r] x)^2 <= 0``, and only its own
    controls u_i and its predecessor's u_{i-1}.  Its 5p rows are p each of:

    * the upper and the lower box, ``a_min <= u_i <= a_max``;
    * the upper and the lower speed band,
      ``v_min - v_i(k) <= tau * cumsum(u_i) <= v_max - v_i(k)``;
    * the safe spacing per stage s,
      ``quad * (S u_i)_s^2 + own_s . u_i - Φ[s] . u_{i-1} + const_s``,
      S the cumulative-sum selector (zero on the other rows) and own and
      const set by the state.  The first vehicle's predecessor is the
      uncontrolled leader, whose predicted motion is folded into const.

    A is the template's skeleton with the own coefficients written in; S is
    the skeleton's, read-only.  The agents read the rows over their
    segments' first columns, and ``central_rows`` over the vehicle-major
    controls.
    """

    template: StepTemplate
    m: np.ndarray
    rows: Rows

    @property
    def c(self) -> np.ndarray:
        """The linear term over the vehicle-major controls, m_{j+1} - m_j."""
        m = self.m
        return (-(m - np.concatenate([m[1:], np.zeros((1, m.shape[1]))]))).ravel()

    def hessian_dense(self) -> np.ndarray:
        """Assemble the full Hessian (test/oracle path only): block
        tridiagonal, diag U_i + U_{i+1}, off[i] = -U_{i+1} coupling i, i+1."""
        U, i = self.template.blocks, np.arange(len(self.m))
        diag, off = U.copy(), -U[1:]
        diag[:-1] += U[1:]
        W = np.zeros((len(i), U.shape[1]) * 2)
        W[i, :, i], W[i[:-1], :, i[1:]], W[i[1:], :, i[:-1]] = diag, off, off.swapaxes(1, 2)
        return W.reshape(U.shape[1] * len(i), -1)

    def central_rows(self) -> Rows:
        """Every vehicle's rows over the vehicle-major columns, for the
        centralized reference and the membership check: the own block to
        the vehicle's own columns, the predecessor's to the block before."""
        n, p = self.template.cfg.n, self.template.cfg.horizon
        i = np.arange(n)
        out = np.zeros((2, n, 5 * p, n, p))
        for M, R in zip(out, (self.rows.A, self.rows.S)):
            M[i, :, i], M[i[1:], :, i[:-1]] = R[..., :p], R[1:, :, p:2 * p]
        return Rows(out[0].reshape(-1, n * p), self.rows.h.ravel(), out[1].reshape(-1, n * p),
                    self.rows.quad)


class StepTemplate:
    """The state-free part of a run's step programs, from the configuration,
    the weights and their stacked stage blocks: ``blocks`` U_j (n, p, p),
    read-only from ``stage_blocks``, which the warm-up sweep solves against
    and ``QcqpProblem.hessian_dense`` assembles; the prediction (Φ, T) and what the linear term reads of it;
    and the rows' one ``skeleton`` (A, S), each (n, 5p, 3p): the box, speed
    and predecessor coefficients and the selector, which no state changes
    (see ``QcqpProblem``).  Every array it builds is read-only."""

    def __init__(self, cfg: PlatoonConfig, weights: WeightSchedule, blocks: np.ndarray):
        if weights.horizon != cfg.horizon or weights.n != cfg.n:
            raise ValueError("weight schedule shape does not match the configuration")
        self.cfg, self.weights, self.blocks = cfg, weights, blocks
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
        for a in (self.lead, self.reach, self.leader, A, S):
            a.flags.writeable = False  # shared by every step


def _linear_term(state: PlatoonState, t: StepTemplate) -> np.ndarray:
    """Each vehicle's linear term in its acceleration gap, (n, p):
    ``m = Φ'(q_gap * d) + tau T'(q_rate * r)``, d and r the vehicle's
    predicted gap and rate errors with no control applied (the leader keeps
    its frozen acceleration).
    """
    gap_err, rate_err = error_coords(state, t.cfg)
    leader = t.leader * state.u0
    d = gap_err + t.reach[:, None] * rate_err + t.lead[:, None] * leader
    r = rate_err + t.reach[:, None] * leader
    return (t.phi.T @ (t.weights.q_gap * d) + t.cfg.tau * (t.T.T @ (t.weights.q_rate * r))).T


def _step_rows(state: PlatoonState, t: StepTemplate) -> Rows:
    """Box, speed-band and safe-spacing rows of every vehicle."""
    cfg, tau, p = t.cfg, t.cfg.tau, t.cfg.horizon
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
    A, S = t.skeleton
    A = A.copy()
    A[:, 4 * p:, :p] = coef[:, None, None] * t.T + t.phi
    h = np.empty(A.shape[:2])
    h[:, :p], h[:, p:2 * p] = cfg.a_max, -cfg.a_min
    h[:, 2 * p:3 * p], h[:, 3 * p:4 * p] = (cfg.v_max - v)[:, None], -(cfg.v_min - v)[:, None]
    h[:, 4 * p:] = -const
    return Rows(A, h, S, t.quad)


def build_qcqp(state: PlatoonState, template: StepTemplate) -> QcqpProblem:
    """Assemble the step's convex program from the measured state over a
    run's ``template``."""
    if state.n != template.cfg.n:  # a PlatoonState is finite and ordered by construction
        raise ValueError("state size does not match the configuration")
    return QcqpProblem(template, _linear_term(state, template), _step_rows(state, template))


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
    cfg = prob.template.cfg
    val = prob.central_rows().values(np.asarray(u, dtype=float)).reshape(cfg.n, 5, cfg.horizon)
    return MembershipReport(box=np.maximum(val[:, 0], val[:, 1]),
                            speed=np.maximum(val[:, 2], val[:, 3]), safety=val[:, 4], tol=tol)
