"""Splitting of the coupled objective Hessian into per-vehicle blocks.

The central quadratic cost couples all vehicles through prefix sums of the
acceleration-gap variables.  After the change of variables, the Hessian is
block tridiagonal and can be written as a sum of n small positive definite
pieces, each touching only a vehicle and its chain neighbors.  Those pieces
are what every agent optimizes locally in the distributed solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WeightSchedule

__all__ = [
    "StageBlocks",
    "LocalHessian",
    "PdDecomposition",
    "stage_blocks",
    "decompose_pd",
]


@dataclass(frozen=True)
class StageBlocks:
    """Per-vehicle stage-coupling Hessians.

    ``blocks[i]`` is the symmetric p-by-p matrix of stage couplings for
    vehicle i; the full objective Hessian is assembled from sums and
    differences of these.
    """

    blocks: tuple
    tau: float

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def horizon(self) -> int:
        return self.blocks[0].shape[0]


def stage_blocks(weights: WeightSchedule, tau: float) -> StageBlocks:
    """Build the per-vehicle stage-coupling blocks from the weights.

    Entry (r, t) of vehicle i's block collects every stage s >= max(r, t)
    with the kinematic coefficients of a double integrator, plus the ride
    weight on the diagonal.  Raises if a block fails to be positive
    definite, which signals a weight schedule violating the sign rules.
    """
    p, n = weights.horizon, weights.n
    qg, qr, qw = weights.q_gap, weights.q_rate, weights.q_ride
    blocks = []
    for i in range(n):
        U = np.zeros((p, p))
        for r in range(1, p + 1):
            for t in range(r, p + 1):
                acc = 0.0
                for s in range(t, p + 1):
                    acc += (tau ** 4 / 4.0) * (2 * (s - r) + 1) * (2 * (s - t) + 1) * qg[s - 1, i] \
                        + tau ** 2 * qr[s - 1, i]
                U[r - 1, t - 1] = acc
                U[t - 1, r - 1] = acc
            U[r - 1, r - 1] += tau ** 2 * qw[r - 1, i]
        if np.linalg.eigvalsh(U).min() <= 0:
            raise ValueError(f"stage block for vehicle {i} is not positive definite")
        blocks.append(U)
    return StageBlocks(blocks=tuple(blocks), tau=tau)


def assemble_hessian_blocks(sb: StageBlocks):
    """Block-tridiagonal Hessian: returns (diag, off) lists of p-by-p blocks.

    diag[i] couples vehicle i with itself, off[i] couples vehicles i and
    i+1.  Cost is O(n p^2); the dense route survives only in test oracles.
    """
    U = sb.blocks
    n = sb.n
    diag = [U[i] + (U[i + 1] if i + 1 < n else 0.0) for i in range(n)]
    off = [-U[i + 1] for i in range(n - 1)]
    return diag, off


@dataclass(frozen=True)
class LocalHessian:
    """One agent's positive definite piece of the objective Hessian.

    ``vehicles`` lists the vehicle indices the block couples, in ascending
    order; ``matrix`` is the corresponding symmetric positive definite
    block of size p*len(vehicles).
    """

    agent: int
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


def _chain_vehicles(i: int, n: int) -> tuple:
    if i == 0:
        return (0, 1)
    if i == n - 1:
        return (n - 2, n - 1)
    return (i - 1, i, i + 1)


def decompose_pd(sb: StageBlocks) -> PdDecomposition:
    """Split the Hessian into n positive definite locally coupled blocks.

    Each agent's block is half of the tridiagonal mass it shares with its
    chain neighbors; positive definiteness of the end pieces is then
    propagated down the chain by moving a margin ``delta_s`` (half the
    current smallest eigenvalue) from one block to the next.  The sum of
    the embedded blocks equals the central Hessian exactly.
    """
    U = sb.blocks
    n, p = sb.n, sb.horizon
    Ip = np.eye(p)
    Z = np.zeros((p, p))

    if n == 2:
        # Two-vehicle chain: both agents see the whole Hessian; split it in
        # half and shift the margin once.
        W = np.block([[U[0] + U[1], -U[1]], [-U[1], U[1]]])
        half = 0.5 * W
        lam = float(np.linalg.eigvalsh(half).min())
        d1 = 0.5 * lam
        mats = [half - d1 * np.eye(2 * p), half + d1 * np.eye(2 * p)]
        deltas = (d1,)
    else:
        breve = {}
        breve[0] = 0.5 * np.block([[U[0] + U[1], -U[1]], [-U[1], U[1]]])
        breve[1] = 0.5 * np.block([
            [U[0] + U[1], -U[1], Z],
            [-U[1], U[1] + U[2], -U[2]],
            [Z, -U[2], U[2]],
        ])
        for s in range(2, n - 1):
            breve[s] = 0.5 * np.block([
                [U[s], -U[s], Z],
                [-U[s], U[s] + U[s + 1], -U[s + 1]],
                [Z, -U[s + 1], U[s + 1]],
            ])
        breve[n - 1] = 0.5 * np.block([[U[n - 1], -U[n - 1]], [-U[n - 1], U[n - 1]]])

        lead_pad = np.diag(np.r_[np.ones(2 * p), np.zeros(p)])
        tail_pad = np.diag(np.r_[np.zeros(p), np.ones(2 * p)])

        mats = [None] * n
        deltas = []
        lam = float(np.linalg.eigvalsh(breve[0]).min())
        if lam <= 0:
            raise RuntimeError("leading block is not positive definite")
        d_prev = 0.5 * lam
        deltas.append(d_prev)
        mats[0] = breve[0] - d_prev * np.eye(2 * p)
        for s in range(1, n - 1):
            grave = breve[s] + d_prev * lead_pad
            lam = float(np.linalg.eigvalsh(grave).min())
            if lam <= 0:
                raise RuntimeError(f"intermediate block {s} lost positive definiteness; "
                                   f"margin chain broke (delta={d_prev:.3e})")
            d_s = 0.5 * lam
            deltas.append(d_s)
            mats[s] = grave - d_s * tail_pad
            d_prev = d_s
        mats[n - 1] = breve[n - 1] + d_prev * np.eye(2 * p)
        deltas = tuple(deltas)

    parts = []
    for i, mat in enumerate(mats):
        lam = float(np.linalg.eigvalsh(mat).min())
        if lam <= 0:
            raise RuntimeError(f"agent {i} block is not positive definite (lambda_min={lam:.3e})")
        parts.append(LocalHessian(agent=i, vehicles=_chain_vehicles(i, n),
                                  matrix=mat, lambda_min=lam))
    return PdDecomposition(parts=tuple(parts), deltas=deltas, horizon=p, n=n)

