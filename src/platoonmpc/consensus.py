"""Consensus machinery over the platoon's communication chain.

Every agent keeps its own control block plus one copy of each chain
neighbor's block.  The consensus subspace is where all copies agree with
their owners; its orthogonal projection is a per-owner average.  A bulk
synchronous message fabric simulates the exchanges so the solvers can run
without any centralized gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VehicleGraph",
    "AugmentedLayout",
    "MessageFabric",
    "SimulationFault",
    "fabric_project",
]


class SimulationFault(RuntimeError):
    """Raised when the simulated communication round cannot complete."""


@dataclass(frozen=True)
class VehicleGraph:
    """The platoon's communication chain: vehicle i talks to i - 1 and i + 1."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least two nodes")

    @staticmethod
    def chain(n: int) -> "VehicleGraph":
        return VehicleGraph(n=n)

    def neighbors(self, i: int) -> list:
        """The chain neighbors of i, ascending."""
        return [j for j in (i - 1, i + 1) if 0 <= j < self.n]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))


class AugmentedLayout:
    """Deterministic flat layout of the stacked per-agent variables.

    Agent i's segment holds its own p-block first, then copies of each
    neighbor's block in ascending neighbor index.  The fixed ordering pins
    serialization and floating-point summation order across runs.

    One set of index arrays states the layout, the embedding and the
    consensus projection:

    * ``owner``: the vehicle-major control index held at each stacked entry;
    * ``own``: the stacked entries of the owners' blocks, vehicle-major;
    * ``from_prev``: the entries of the copy of vehicle j held by j - 1, j >= 1;
    * ``from_next``: the entries of the copy of vehicle j held by j + 1, j <= n - 2;
    * ``count``: 1 + degree of each vehicle, repeated over the p stages.
    """

    def __init__(self, graph: VehicleGraph, p: int):
        self.graph = graph
        self.p = p
        n = graph.n
        self.var_order = [[i] + graph.neighbors(i) for i in range(n)]
        self.dims = [p * len(v) for v in self.var_order]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        # positions[i][j] = start of agent i's block for vehicle j
        self.positions = [
            {v: self.offsets[i] + a * p for a, v in enumerate(order)}
            for i, order in enumerate(self.var_order)
        ]
        stage = np.arange(p)

        def entries(starts):
            # the p entries of each block starting at ``starts``, in order
            return (np.array(starts)[:, None] + stage).ravel()

        self.owner = entries([v * p for order in self.var_order for v in order])
        self.own = entries([self.positions[i][i] for i in range(n)])
        self.from_prev = entries([self.positions[j - 1][j] for j in range(1, n)])
        self.from_next = entries([self.positions[j + 1][j] for j in range(n - 1)])
        self.count = np.repeat([float(len(order)) for order in self.var_order], p)

    def agent_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def block(self, vec: np.ndarray, i: int, j: int | None = None) -> np.ndarray:
        """Agent i's own block, or its copy of vehicle j when j is given."""
        start = self.positions[i][i if j is None else j]
        return vec[start:start + self.p]

    def stack_controls(self, vec: np.ndarray) -> np.ndarray:
        """Owners' blocks concatenated vehicle-major."""
        return vec[self.own]

    def scatter_controls(self, u: np.ndarray) -> np.ndarray:
        """Embed a vehicle-major control vector consistently (all copies
        equal owners); the result lies in the consensus subspace."""
        return np.asarray(u, dtype=float)[self.owner]


def _project(vec: np.ndarray, layout: AugmentedLayout) -> np.ndarray:
    """Average each owner block with its copies (own block first, then the
    copies in ascending holder index), and hand the averages back."""
    p = layout.p
    avg = vec[layout.own]
    avg[p:] += vec[layout.from_prev]
    avg[:-p] += vec[layout.from_next]
    avg /= layout.count
    return avg[layout.owner]


class MessageFabric:
    """Bulk-synchronous neighbor-to-neighbor message exchange.

    Agents post one message per neighbor each round; the fabric delivers
    messages only along graph edges, so no agent can observe non-neighbor
    data.  A missing message aborts the round.  ``send`` is a round in
    which a single agent speaks to one neighbor.
    """

    def __init__(self, graph: VehicleGraph):
        self.graph = graph
        self.round = 0

    def exchange(self, outgoing: dict) -> dict:
        """outgoing[i][j] = payload from agent i addressed to neighbor j.

        Returns received[i][j] = payload sent by j to i.  Raises
        SimulationFault if any expected message was not posted.
        """
        g = self.graph
        for i in range(g.n):
            posted = outgoing.get(i)
            if posted is None:
                raise SimulationFault(f"agent {i} posted nothing in round {self.round}")
            for j in g.neighbors(i):
                if j not in posted:
                    raise SimulationFault(
                        f"agent {i} did not post a message for neighbor {j} in round {self.round}")
            for j in posted:
                if j not in g.neighbors(i):
                    raise SimulationFault(f"agent {i} attempted to message non-neighbor {j}")
        self.round += 1
        return {i: {j: outgoing[j][i] for j in g.neighbors(i)} for i in range(g.n)}

    def send(self, src: int, dst: int, payload):
        """One round in which only ``src`` speaks, to ``dst``; returns the
        payload as ``dst`` receives it.  Raises SimulationFault unless
        ``dst`` is a chain neighbor of ``src``."""
        if dst not in self.graph.neighbors(src):
            raise SimulationFault(f"agent {src} attempted to message non-neighbor {dst}")
        self.round += 1
        return payload


def fabric_project(vec: np.ndarray, layout: AugmentedLayout, fabric: MessageFabric) -> np.ndarray:
    """Consensus projection computed through the fabric only.

    Phase one sends each agent's copy of a neighbor's block to that
    neighbor; phase two sends the owner averages back so neighbors can
    refresh their copies.  Bit-identical to ``_project`` because the
    averaging order (own block, then ascending holder index) is the same.
    """
    g = layout.graph
    got = fabric.exchange({i: {j: layout.block(vec, i, j) for j in g.neighbors(i)}
                           for i in range(g.n)})
    avg = []
    for j in range(g.n):
        acc = layout.block(vec, j).copy()
        for k in g.neighbors(j):
            acc += got[j][k]
        avg.append(acc / (1 + g.degree(j)))
    got = fabric.exchange({i: dict.fromkeys(g.neighbors(i), avg[i]) for i in range(g.n)})
    return np.concatenate([blk for i in range(g.n)
                           for blk in [avg[i]] + [got[i][j] for j in g.neighbors(i)]])
