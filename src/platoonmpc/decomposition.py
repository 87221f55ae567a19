"""One vehicle pair's prediction model, and the split of the coupled
objective Hessian into per-vehicle blocks.

Every predicted quantity of the program, the stage-coupling blocks here,
the linear term and the safety rows in ``problem`` and the closed-loop
gains in ``stability``, derives from one pair of matrices, ``prediction``:
how the acceleration gaps move a vehicle pair's gap error and closing rate
over the horizon.  The central quadratic cost couples all vehicles through
prefix sums of the acceleration-gap variables.  After the change of
variables, the Hessian is block tridiagonal and can be written as a sum of
n small positive definite pieces, each touching only a vehicle and its
chain neighbors.  Those pieces are what every agent optimizes locally in
the distributed solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import VehicleGraph
from .core import WeightSchedule

__all__ = [
    "LocalHessian",
    "PdDecomposition",
    "prediction",
    "stage_blocks",
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


@dataclass(frozen=True)
class LocalHessian:
    """One agent's positive definite piece of the objective Hessian.

    ``vehicles`` lists the vehicle indices the block couples, in ascending
    order; ``matrix`` is the corresponding symmetric positive definite
    block of size p*len(vehicles).
    """

    vehicles: tuple
    matrix: np.ndarray
    lambda_min: float


@dataclass(frozen=True)
class PdDecomposition:
    parts: tuple
    deltas: tuple
    horizon: int
    n: int

    def embedded(self, agent: int) -> np.ndarray:
        """Agent's block embedded into the full (np x np) matrix; sum over
        agents reproduces the central Hessian (test oracle path)."""
        p = self.horizon
        out = np.zeros((self.n * p, self.n * p))
        part = self.parts[agent]
        for a, ia in enumerate(part.vehicles):
            for b, ib in enumerate(part.vehicles):
                out[ia * p:(ia + 1) * p, ib * p:(ib + 1) * p] = \
                    part.matrix[a * p:(a + 1) * p, b * p:(b + 1) * p]
        return out


def decompose_pd(U: np.ndarray) -> PdDecomposition:
    """Split the Hessian of the stacked stage blocks ``U`` into n positive
    definite locally coupled blocks.

    Agent i holds vehicle i and its chain neighbors.  The Hessian is a sum
    of terms: U_0 on vehicle 0, and U_j on the edge (j - 1, j), which weighs
    the acceleration gap u_{j-1} - u_j.  Each term goes half to each of the
    two agents that see all its vehicles.  Positive definiteness is then
    propagated down the chain: each agent hands a margin ``delta`` (half its
    current smallest eigenvalue) on the vehicle pair it shares with the
    next agent to that agent.  The sum of the embedded blocks equals the
    central Hessian exactly.
    """
    n, p = len(U), U.shape[1]
    graph = VehicleGraph.chain(n)
    vehicles = [tuple(sorted([a, *graph.neighbors(a)])) for a in range(n)]
    mats = [np.zeros((p * len(v), p * len(v))) for v in vehicles]

    def window(a, vs):  # agent a's coordinates of the consecutive vehicles vs
        start = vehicles[a].index(vs[0]) * p
        return slice(start, start + len(vs) * p)

    for j, half in enumerate(0.5 * U):
        vs, d = ((j - 1, j), np.array([1.0, -1.0])) if j else ((0,), np.ones(1))
        # the Kronecker product d d' (x) half, without np.kron's overhead
        term = (np.outer(d, d)[:, None, :, None] * half[:, None]).reshape(len(d) * p, -1)
        for a in (max(j - 1, 0), max(j, 1)):  # the two agents that hold all of vs
            w = window(a, vs)
            mats[a][w, w] += term

    deltas = []
    for a in range(n - 1):
        lam = float(np.linalg.eigvalsh(mats[a]).min())
        if lam <= 0:
            raise RuntimeError(f"block {a} lost positive definiteness; margin chain broke "
                               f"(delta={deltas[-1] if deltas else 0.0:.3e})")
        deltas.append(0.5 * lam)
        for b, sign in ((a, -1.0), (a + 1, 1.0)):
            w = window(b, (a, a + 1))  # the vehicle pair agents a and a + 1 share
            mats[b][w, w] += sign * deltas[-1] * np.eye(2 * p)

    parts = []
    for i, mat in enumerate(mats):
        lam = float(np.linalg.eigvalsh(mat).min())
        if lam <= 0:
            raise RuntimeError(f"agent {i} block is not positive definite (lambda_min={lam:.3e})")
        parts.append(LocalHessian(vehicles=vehicles[i], matrix=mat, lambda_min=lam))
    return PdDecomposition(parts=tuple(parts), deltas=tuple(deltas), horizon=p, n=n)
