"""Consensus machinery over the platoon's communication chain.

Every agent keeps its own control block plus one copy of each chain
neighbor's block, padded to a common width (``AugmentedLayout``).  The
consensus subspace is where all copies agree with their owners; its
orthogonal projection is a per-owner average, ``_project``, the one
implementation of the exchange.  A run's message fabric counts its rounds,
messages and floats, with the one-speaker rounds of sequential sweeps, and
checks once per layout that every message crosses a chain edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VehicleGraph",
    "AugmentedLayout",
    "MessageFabric",
    "SimulationFault",
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

    def neighbors(self, i: int) -> list:
        """The chain neighbors of i, ascending."""
        return [j for j in (i - 1, i + 1) if 0 <= j < self.n]


_ZERO = np.zeros(1)  # what an owner index of -1 (padding) reads


class AugmentedLayout:
    """The agents' padded stack, raveled: the layout of the iterate and of
    every per-agent vector.

    Agent i's segment starts at i * ``width`` (the widest agent's count) and
    holds its own p-block first, then copies of each neighbor's block in
    ascending neighbor index, then padding, 0 in every vector this module
    returns.  The fixed ordering pins serialization and floating-point
    summation order across runs.  So every agent i >= 1 holds its
    predecessor's copy in columns [p, 2p) of its segment, and agent 0 holds
    vehicle 1 there: ``ConstraintSet``'s row skeleton, laid out over
    [own, predecessor, successor], serves every agent as it is.

    One set of index arrays states the layout, the embedding and the
    consensus projection:

    * ``owner``: the vehicle-major control index held at each stacked entry,
      -1 on padding;
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
        self.width = max(self.dims)
        self.dim = n * self.width
        # positions[i][j] = start of agent i's block for vehicle j
        self.positions = [{v: i * self.width + a * p for a, v in enumerate(order)}
                          for i, order in enumerate(self.var_order)]
        stage = np.arange(p)

        def entries(starts):
            # the p entries of each block starting at ``starts``, in order
            return (np.array(starts)[:, None] + stage).ravel()

        held = entries([start for at in self.positions for start in at.values()])
        self.owner = np.full(self.dim, -1)
        self.owner[held] = entries([v * p for order in self.var_order for v in order])
        self.own = entries([self.positions[i][i] for i in range(n)])
        self.from_prev = entries([self.positions[j - 1][j] for j in range(1, n)])
        self.from_next = entries([self.positions[j + 1][j] for j in range(n - 1)])
        self.count = np.repeat([float(len(order)) for order in self.var_order], p)

    def stack_controls(self, vec: np.ndarray) -> np.ndarray:
        """Owners' blocks concatenated vehicle-major."""
        return vec[self.own]

    def scatter_controls(self, u: np.ndarray) -> np.ndarray:
        """Embed a vehicle-major control vector consistently (all copies
        equal owners); the result lies in the consensus subspace."""
        return np.concatenate((np.asarray(u, dtype=float), _ZERO))[self.owner]


def _project(vec: np.ndarray, layout: AugmentedLayout) -> np.ndarray:
    """The consensus projection: a gather round brings each owner block's
    copies to the owner, which averages them with its own block (own block
    first, then the copies in ascending holder index), and a scatter round
    hands the averages back.  ``MessageFabric.projection`` counts and
    polices those two rounds."""
    p = layout.p
    avg = vec[layout.own]
    avg[p:] += vec[layout.from_prev]
    avg[:-p] += vec[layout.from_next]
    avg /= layout.count
    return np.concatenate((avg, _ZERO))[layout.owner]


class MessageFabric:
    """A run's bulk-synchronous message fabric: it counts every round,
    message and float, and refuses any message that would leave the chain.

    ``projection`` records one consensus projection, which ``_project``
    computes: a gather round, each copy from its holder to its owner, and a
    scatter round, each average back along the same edges.  ``send`` is a
    round in which a single agent speaks to one neighbor.
    """

    def __init__(self, graph: VehicleGraph):
        self.graph = graph
        self.round = self.messages = self.floats = 0
        self._cost = {}  # layout -> (messages, floats) of one projection, once checked

    def _check(self, edges: set, what: str) -> set:
        for src, dst in sorted(edges):
            if dst not in self.graph.neighbors(src):
                raise SimulationFault(f"agent {src} would {what} non-neighbor {dst}")
        return edges

    def projection(self, layout: AugmentedLayout):
        """Count one consensus projection over ``layout``: two rounds, a
        message per edge and direction in each, a float per exchanged entry.
        On the layout's first projection, raises SimulationFault unless every
        gathered copy goes from its holder to a chain-neighbor owner and every
        average comes back along a gather edge."""
        if layout not in self._cost:
            n, p, holder = layout.graph.n, layout.p, np.arange(layout.dim) // layout.width
            gathered, into = np.r_[layout.from_prev, layout.from_next], np.r_[1:n, :n - 1]
            gather = self._check(set(zip(holder[gathered].tolist(), into.repeat(p).tolist())),
                                 "send a copy to")
            vehicle = layout.owner // p  # -1 on padding
            copies = (vehicle >= 0) & (vehicle != holder)
            scatter = self._check(set(zip(vehicle[copies].tolist(), holder[copies].tolist())),
                                  "send an average to")
            if not scatter <= {(dst, src) for src, dst in gather}:
                raise SimulationFault("an average would return along no gather edge")
            self._cost[layout] = len(gather) + len(scatter), gathered.size + int(copies.sum())
        messages, floats = self._cost[layout]
        self.round += 2
        self.messages += messages
        self.floats += floats

    def send(self, src: int, dst: int, payload):
        """One round in which only ``src`` speaks, to ``dst``; returns the
        payload as ``dst`` receives it.  Raises SimulationFault unless
        ``dst`` is a chain neighbor of ``src``."""
        if dst not in self.graph.neighbors(src):
            raise SimulationFault(f"agent {src} would message non-neighbor {dst}")
        self.round += 1
        self.messages += 1
        self.floats += np.size(payload)
        return payload
