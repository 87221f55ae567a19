"""One vehicle pair's prediction model, and the split of the coupled
objective Hessian into the agents' padded stack of blocks.

Every predicted quantity of the program, the stage-coupling blocks here,
the linear term and the safety rows in ``problem`` and the closed-loop
gains in ``stability``, derives from one pair of matrices, ``prediction``:
how the acceleration gaps move a vehicle pair's gap error and closing rate
over the horizon.  The central quadratic cost couples all vehicles through
prefix sums of the acceleration gaps, one term per gap (``gap_response``
minimizes each on its own).  After the change of
variables, the Hessian is block tridiagonal and can be written as a sum of
n small positive definite pieces, each touching only a vehicle and its
chain neighbors.  ``decompose_pd`` returns them as the run's ``AgentStack``,
laid out and padded like the consensus iterate: what every agent
optimizes locally in the distributed solvers.
"""

from __future__ import annotations

import numpy as np

from .consensus import AugmentedLayout, VehicleGraph
from .core import WeightSchedule

__all__ = [
    "AgentStack",
    "prediction",
    "stage_blocks",
    "gap_response",
    "decompose_pd",
]


def prediction(p: int, tau: float):
    """The condensed prediction (Φ, T) of one vehicle pair over p stages.

    A change du in the pair's acceleration gaps moves the stage-s gap error
    by ``(Φ du)[s]`` and the closing rate by ``tau * (T du)[s]``:
    Φ[s, j] = tau^2 (2(s - j) + 1) / 2 for j <= s (0-based), and T is the
    lower-triangular all-ones matrix.  Both are read-only.
    """
    s = np.arange(p)
    phi = np.tril(tau ** 2 * (2 * (s[:, None] - s) + 1) / 2.0)
    T = np.tri(p)
    phi.flags.writeable = T.flags.writeable = False
    return phi, T


def _weighed(M: np.ndarray, q: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Stage s's share ``M[s]' q[s, i] N[s]`` for every vehicle i, stacked
    (p, n, ., .); summed over the stages it is ``M' diag(q[:, i]) N``, and
    exactly symmetric when M is N."""
    return np.einsum("sr,st,si->sirt", M, N, q)


def stage_blocks(weights: WeightSchedule, tau: float) -> np.ndarray:
    """The per-vehicle stage-coupling blocks, stacked (n, p, p) and read-only:
    ``U_i = Φ' diag(q_gap,i) Φ + tau^2 (T' diag(q_rate,i) T + diag(q_ride,i))``.

    Raises if a block fails to be positive definite, which signals a weight
    schedule violating the sign rules.
    """
    (phi, T), eye = prediction(weights.horizon, tau), np.eye(weights.horizon)
    # summed stage by stage, ride weights last: every entry rounds in one fixed order
    U = (_weighed(phi, weights.q_gap, phi) + tau ** 2 * _weighed(T, weights.q_rate, T)).sum(0) \
        + tau ** 2 * _weighed(eye, weights.q_ride, eye).sum(0)
    for i, lam in enumerate(np.linalg.eigvalsh(U).min(axis=1)):
        if lam <= 0:
            raise ValueError(f"stage block for vehicle {i} is not positive definite")
    U.flags.writeable = False
    return U


def gap_response(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """-U_j^-1 B_j per vehicle, stacked vehicle-major like ``B`` (n, p, k):
    in the gaps delta_j = u_{j-1} - u_j (delta_0 = -u_0) the constraint-free
    objective is sum_j 1/2 delta_j' U_j delta_j + m_j' delta_j, minimized
    by each vehicle's own delta_j = -U_j^-1 m_j, ``U`` the stage blocks."""
    return -np.linalg.solve(U, B)


class AgentStack:
    """What the agents know for a whole run, as ``decompose_pd`` returns it:
    the chain ``layout`` and every agent's Hessian block over its segment's
    columns (own vehicle first), padded to the layout's ``width`` and
    stacked as ``H`` (n, width, width).  ``deltas`` are the margins handed
    down the chain, ``lambda_min`` each unpadded block's smallest
    eigenvalue, and ``L`` and ``mu`` the largest and smallest eigenvalues
    over the blocks, from which the three-operator step sizes derive.
    """

    def __init__(self, layout: AugmentedLayout, H: np.ndarray, deltas):
        self.layout, self.n, self.p, self.H = layout, layout.graph.n, layout.p, H
        blocks = [Hi[:d, :d] for Hi, d in zip(H, layout.dims)]
        self.deltas = tuple(deltas)
        self.lambda_min = np.array([np.linalg.eigvalsh(block).min() for block in blocks])
        self.L = max(float(np.linalg.norm(block, 2)) for block in blocks)
        self.mu = float(self.lambda_min.min())
        self._prox = {}

    def prox(self, rho: float):
        """The stacked (rho H_i + I)^-1 and H_i + I/rho, built once per rho."""
        if rho not in self._prox:
            eye = np.eye(self.H.shape[-1])
            self._prox[rho] = np.linalg.inv(rho * self.H + eye), self.H + eye / rho
        return self._prox[rho]

    def embedded(self, agent: int) -> np.ndarray:
        """Agent's block embedded into the full (np x np) matrix; the sum over
        agents reproduces the central Hessian (test oracle path)."""
        m, width = self.n * self.p, self.layout.width
        idx = self.layout.owner[agent * width:(agent + 1) * width]  # padding: -1, cut below
        out = np.zeros((m + 1, m + 1))
        out[np.ix_(idx, idx)] = self.H[agent]
        return out[:m, :m]


def decompose_pd(U: np.ndarray) -> AgentStack:
    """Split the Hessian of the stacked stage blocks ``U`` into n positive
    definite locally coupled blocks, returned as the run's agent stack.

    Agent i holds vehicle i and its chain neighbors.  The Hessian is a sum
    of terms: U_0 on vehicle 0, and U_j on the edge (j - 1, j), which weighs
    the acceleration gap u_{j-1} - u_j.  Each term goes half to each of the
    two agents that see all its vehicles.  Positive definiteness is then
    propagated down the chain: each agent hands a margin ``delta`` (half its
    current smallest eigenvalue) on the vehicle pair it shares with the
    next agent to that agent.  Every term and margin is written straight
    into the padded stack at the agents' columns (``layout.positions``);
    each smallest eigenvalue is read with the block's vehicles ascending.
    The sum of the embedded blocks equals the central Hessian exactly.
    """
    n, p = len(U), U.shape[1]
    layout = AugmentedLayout(VehicleGraph(n), p)
    width = layout.width

    def at(a, vs):  # agent a's (vs, vs) block, vs in that order, in the stack's rows
        idx = (np.array([layout.positions[a][v] for v in vs])[:, None] + np.arange(p)).ravel()
        return np.ix_(idx, idx % width)

    # terms[j]: term j's block in each of the two agents that hold all its vehicles
    terms = [(at(0, (0,)), at(1, (0,)))]
    terms += [(at(j - 1, (j - 1, j)), at(j, (j - 1, j))) for j in range(1, n)]
    ascending = [at(a, sorted(order)) for a, order in enumerate(layout.var_order)]
    H = np.zeros((n, width, width))
    rows = H.reshape(-1, width)  # agent a's row r is row a * width + r
    for j, half in enumerate(0.5 * U):
        d = np.array([1.0, -1.0]) if j else np.ones(1)
        # the Kronecker product d d' (x) half, without np.kron's overhead
        term = (np.outer(d, d)[:, None, :, None] * half[:, None]).reshape(len(d) * p, -1)
        for block in terms[j]:
            rows[block] += term

    deltas, eye = [], np.eye(2 * p)
    for a in range(n - 1):
        lam = float(np.linalg.eigvalsh(rows[ascending[a]]).min())
        if lam <= 0:
            raise RuntimeError(f"block {a} lost positive definiteness; margin chain broke "
                               f"(delta={deltas[-1] if deltas else 0.0:.3e})")
        deltas.append(0.5 * lam)
        for sign, block in zip((-1.0, 1.0), terms[a + 1]):  # the pair agents a and a + 1 share
            rows[block] += sign * deltas[-1] * eye

    stack = AgentStack(layout, H, deltas)
    for i, lam in enumerate(stack.lambda_min):
        if lam <= 0:
            raise RuntimeError(f"agent {i} block is not positive definite (lambda_min={lam:.3e})")
    return stack
