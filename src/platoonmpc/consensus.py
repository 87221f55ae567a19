"""Consensus machinery over the vehicle communication graph.

Every agent keeps its own control block plus one copy of each neighbor's
block.  The consensus subspace is where all copies agree with their
owners; its orthogonal projection is a per-owner average.  A bulk
synchronous message fabric simulates the exchanges so the solvers can run
without any centralized gather.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "VehicleGraph",
    "AugmentedLayout",
    "MessageFabric",
    "SimulationFault",
    "exchange_round",
    "fabric_project",
]


class SimulationFault(RuntimeError):
    """Raised when the simulated communication round cannot complete."""


@dataclass(frozen=True)
class VehicleGraph:
    """Undirected, connected communication graph over n agents.

    Must contain every chain edge (i, i+1); extra edges are accepted as
    long as the graph stays undirected and connected.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("graph needs at least two nodes")
        for (a, b) in self.edges:
            if not (0 <= a < b < self.n):
                raise ValueError(f"bad edge ({a}, {b})")
        for i in range(self.n - 1):
            if (i, i + 1) not in self.edges:
                raise ValueError("graph must contain every chain edge (i, i+1)")
        # chain edges already make it connected

    @staticmethod
    def chain(n: int) -> "VehicleGraph":
        return VehicleGraph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))

    def neighbors(self, i: int) -> list:
        out = [b if a == i else a for (a, b) in self.edges if i in (a, b)]
        return sorted(out)

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))


class AugmentedLayout:
    """Deterministic flat layout of the stacked per-agent variables.

    Agent i's segment holds its own p-block first, then copies of each
    neighbor's block in ascending neighbor index.  The fixed ordering pins
    serialization and floating-point summation order across runs.
    """

    def __init__(self, graph: VehicleGraph, p: int):
        self.graph = graph
        self.p = p
        self.var_order = [[i] + graph.neighbors(i) for i in range(graph.n)]
        self.dims = [p * len(v) for v in self.var_order]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        # positions[i][j] = start of agent i's block for vehicle j
        self.positions = [
            {v: self.offsets[i] + a * p for a, v in enumerate(order)}
            for i, order in enumerate(self.var_order)
        ]

    def agent_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i + 1])

    def block(self, vec: np.ndarray, i: int, j: int | None = None) -> np.ndarray:
        """Agent i's own block, or its copy of vehicle j when j is given."""
        start = self.positions[i][i if j is None else j]
        return vec[start:start + self.p]

    def stack_controls(self, vec: np.ndarray) -> np.ndarray:
        """Owners' blocks concatenated vehicle-major."""
        return np.concatenate([self.block(vec, i) for i in range(self.graph.n)])

    def scatter_controls(self, u: np.ndarray) -> np.ndarray:
        """Embed a vehicle-major control vector consistently (all copies
        equal owners); the result lies in the consensus subspace."""
        u = np.asarray(u, dtype=float)
        out = np.zeros(self.dim)
        p = self.p
        for i, order in enumerate(self.var_order):
            for v in order:
                start = self.positions[i][v]
                out[start:start + p] = u[v * p:(v + 1) * p]
        return out


def _owner_averages(vec: np.ndarray, layout: AugmentedLayout) -> list:
    """Average each owner block with all copies of it, ascending index."""
    g = layout.graph
    out = []
    for j in range(g.n):
        acc = layout.block(vec, j).copy()
        for k in g.neighbors(j):
            acc += layout.block(vec, k, j)
        out.append(acc / (1 + g.degree(j)))
    return out


def _project(vec: np.ndarray, layout: AugmentedLayout) -> np.ndarray:
    avg = _owner_averages(vec, layout)
    out = np.empty_like(vec)
    p = layout.p
    for i, order in enumerate(layout.var_order):
        for v in order:
            start = layout.positions[i][v]
            out[start:start + p] = avg[v]
    return out


class MessageFabric:
    """Bulk-synchronous neighbor-to-neighbor message exchange.

    Agents post one message per neighbor each round; the fabric delivers
    messages only along graph edges, so no agent can observe non-neighbor
    data.  A missing message aborts the round.
    """

    def __init__(self, graph: VehicleGraph, trace_path=None):
        self.graph = graph
        self.round = 0
        self._trace = open(trace_path, "w") if trace_path else None

    def close(self):
        if self._trace:
            self._trace.close()
            self._trace = None

    def exchange(self, outgoing: dict) -> dict:
        """outgoing[i][j] = payload from agent i addressed to neighbor j.

        Returns received[i][j] = payload sent by j to i.  Raises
        SimulationFault if any expected message was not posted.
        """
        g = self.graph
        received = {i: {} for i in range(g.n)}
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
        for i in range(g.n):
            for j in g.neighbors(i):
                received[i][j] = outgoing[j][i]
                if self._trace:
                    size = np.asarray(outgoing[j][i][0] if isinstance(outgoing[j][i], tuple)
                                      else outgoing[j][i]).size
                    self._trace.write(json.dumps(
                        {"round": self.round, "src": j, "dst": i, "size": int(size)}) + "\n")
        self.round += 1
        return received


def exchange_round(blocks: dict, graph: VehicleGraph, fabric: MessageFabric | None = None) -> dict:
    """One gather round: each agent sends its own block plus the copy it
    keeps of the destination.

    blocks[i] = (own_i, {j: copy_ij}).  Returns received[i] = {j: (own_j,
    copy_ji)} for each neighbor j of i.
    """
    if fabric is None:
        fabric = MessageFabric(graph)
    outgoing = {}
    for i in range(graph.n):
        if i not in blocks:
            raise SimulationFault(f"agent {i} posted nothing in round {fabric.round}")
        own, copies = blocks[i]
        missing = [j for j in graph.neighbors(i) if j not in copies]
        if missing:
            raise SimulationFault(f"agent {i} posted no copy for neighbors {missing} "
                                  f"in round {fabric.round}")
        strangers = [j for j in copies if j not in graph.neighbors(i)]
        if strangers:
            raise SimulationFault(f"agent {i} holds copies of non-neighbors {strangers}")
        outgoing[i] = {j: (own, copies[j]) for j in graph.neighbors(i)}
    return fabric.exchange(outgoing)


def fabric_project(vec: np.ndarray, layout: AugmentedLayout, fabric: MessageFabric) -> np.ndarray:
    """Consensus projection computed through the fabric only.

    Phase one gathers, at each owner, every copy of its block; phase two
    scatters the owner averages back so neighbors can refresh their
    copies.  Bit-identical to the centralized projection because the
    averaging order (ascending index) is the same.
    """
    g = layout.graph
    blocks = {
        i: (layout.block(vec, i), {j: layout.block(vec, i, j) for j in g.neighbors(i)})
        for i in range(g.n)
    }
    received = exchange_round(blocks, g, fabric)
    avg = []
    for j in range(g.n):
        acc = layout.block(vec, j).copy()
        for k in g.neighbors(j):
            # copy_kj travels from k to j in the gather phase
            acc += received[j][k][1]
        avg.append(acc / (1 + g.degree(j)))
    scatter = {i: {j: avg[i] for j in g.neighbors(i)} for i in range(g.n)}
    got = fabric.exchange(scatter)
    out = np.empty_like(vec)
    p = layout.p
    for i in range(g.n):
        start = layout.positions[i][i]
        out[start:start + p] = avg[i]
        for j in g.neighbors(i):
            start = layout.positions[i][j]
            out[start:start + p] = got[i][j]
    return out
