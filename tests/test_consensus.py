from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonmpc.consensus import (AugmentedLayout, MessageFabric, SimulationFault,
                                  VehicleGraph, _project, fabric_project)


def lstsq_projection_oracle(vec, layout):
    """Projection via the explicit parameterization of the consensus
    subspace: stack the embedding matrix and solve least squares."""
    g = layout.graph
    p = layout.p
    B = np.zeros((layout.dim, g.n * p))
    for i, order in enumerate(layout.var_order):
        for v in order:
            start = layout.positions[i][v]
            B[start:start + p, v * p:(v + 1) * p] = np.eye(p)
    coef, *_ = np.linalg.lstsq(B, vec, rcond=None)
    return B @ coef


def test_graph_validation():
    g = VehicleGraph.chain(4)
    assert g.neighbors(0) == [1]
    assert g.neighbors(2) == [1, 3]
    assert g.neighbors(3) == [2]
    with pytest.raises(ValueError):
        VehicleGraph.chain(1)


def test_projection_fixed_point():
    g = VehicleGraph.chain(3)
    layout = AugmentedLayout(g, 2)
    assert layout.dim == 3 * layout.width == 3 * 2 * 3  # three agents, padded to 3p
    u = np.arange(6.0)
    vec = layout.scatter_controls(u)
    np.testing.assert_allclose(_project(vec, layout), vec)


def test_two_agent_average():
    g = VehicleGraph.chain(2)
    layout = AugmentedLayout(g, 1)
    vec = np.zeros(layout.dim)
    vec[layout.positions[0][0]] = 4.0   # owner block of agent 0
    vec[layout.positions[1][0]] = 2.0   # agent 1's copy of it
    out = _project(vec, layout)
    assert out[layout.positions[0][0]] == pytest.approx(3.0)
    assert out[layout.positions[1][0]] == pytest.approx(3.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_projection_properties(n, p, seed):
    rng = np.random.default_rng(seed)
    layout = AugmentedLayout(VehicleGraph.chain(n), p)
    v = rng.normal(size=layout.dim)
    w = rng.normal(size=layout.dim)
    Pv = _project(v, layout)
    # matches the least-squares oracle
    np.testing.assert_allclose(Pv, lstsq_projection_oracle(v, layout), atol=1e-12)
    # idempotent
    np.testing.assert_allclose(_project(Pv, layout), Pv, atol=1e-12)
    # symmetric
    assert np.dot(Pv, w) == pytest.approx(np.dot(v, _project(w, layout)), rel=1e-10, abs=1e-10)
    # non-expansive
    assert np.linalg.norm(Pv) <= np.linalg.norm(v) + 1e-12
    # linear
    a, b = rng.normal(size=2)
    np.testing.assert_allclose(_project(a * v + b * w, layout),
                               a * Pv + b * _project(w, layout), atol=1e-10)


def test_fixed_points_are_exactly_consensus(rng):
    layout = AugmentedLayout(VehicleGraph.chain(4), 2)
    u = rng.normal(size=8)
    vec = layout.scatter_controls(u)
    np.testing.assert_allclose(_project(vec, layout), vec, atol=1e-14)
    # any non-consensus vector moves
    vec2 = vec.copy()
    vec2[layout.positions[1][0]] += 1.0
    assert np.linalg.norm(_project(vec2, layout) - vec2) > 1e-3


def test_exchange_topology_and_isolation():
    g = VehicleGraph.chain(6)
    outgoing = {i: {j: np.array([10.0 * i + j]) for j in g.neighbors(i)} for i in range(6)}
    # plant a sentinel at agent 5
    outgoing[5] = {j: np.array([999.0]) for j in g.neighbors(5)}
    received = MessageFabric(g).exchange(outgoing)
    assert sorted(received[1].keys()) == [0, 2]
    assert sorted(received[2].keys()) == [1, 3]
    for agent in (0, 1, 2, 3):
        seen = [float(v) for msg in received[agent].values() for v in np.atleast_1d(msg)]
        assert 999.0 not in seen
    # a one-speaker round reaches a neighbor only, and a refused one counts no round
    fabric = MessageFabric(g)
    assert fabric.send(2, 3, "payload") == "payload" and fabric.round == 1
    for src, dst in ((0, 2), (5, 0), (3, 3)):
        with pytest.raises(SimulationFault):
            fabric.send(src, dst, "payload")
    assert fabric.round == 1


def test_exchange_missing_post():
    fabric = MessageFabric(VehicleGraph.chain(3))
    outgoing = {0: {1: np.zeros(1)},
                1: {0: np.zeros(1)}}  # agent 1 forgot neighbor 2; agent 2 missing
    with pytest.raises(SimulationFault):
        fabric.exchange(outgoing)
    outgoing = {0: {1: np.zeros(1)},
                1: {0: np.zeros(1), 2: np.zeros(1)},
                2: {0: np.zeros(1), 1: np.zeros(1)}}  # 2 messages non-neighbor 0
    with pytest.raises(SimulationFault):
        fabric.exchange(outgoing)


class CountingFabric(MessageFabric):
    """A fabric that keeps every message posted to it."""

    def __init__(self, graph):
        super().__init__(graph)
        self.posts = []

    def exchange(self, outgoing):
        self.posts.extend(msg for box in outgoing.values() for msg in box.values())
        return super().exchange(outgoing)


CHAINS = list(product(range(2, 7), range(1, 6)))  # (n, p): both chain ends, every horizon


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_padded_entries_are_zero(rng, n, p):
    # the two chain ends hold one neighbor's copy, so on three or more
    # vehicles each pads its segment with p entries; whatever an input holds
    # there, every vector the layout hands back reads exactly 0
    layout = AugmentedLayout(VehicleGraph.chain(n), p)
    width = layout.width
    pad = layout.owner < 0
    ends = [] if n == 2 else [*range(2 * p, width), *range(n * width - p, n * width)]
    assert np.flatnonzero(pad).tolist() == ends
    v = rng.normal(size=layout.dim)
    assert (v[pad] != 0).all()
    for out in (_project(v, layout), fabric_project(v, layout, MessageFabric(layout.graph)),
                layout.scatter_controls(rng.normal(size=n * p))):
        assert out.shape == (layout.dim,) and (out[pad] == 0).all()


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_fabric_projection_bit_identical(rng, n, p):
    g = VehicleGraph.chain(n)
    layout = AugmentedLayout(g, p)
    fabric = CountingFabric(g)
    v = rng.normal(size=layout.dim)
    direct = _project(v, layout)
    via_fabric = fabric_project(v, layout, fabric)
    assert np.array_equal(direct, via_fabric)  # bit-for-bit
    assert fabric.round == 2
    assert len(fabric.posts) == 2 * 2 * (n - 1)  # two phases, two directions per edge
    assert all(np.shape(msg) == (p,) for msg in fabric.posts)  # one block per message
