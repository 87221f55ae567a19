from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonmpc.consensus import (AugmentedLayout, MessageFabric, SimulationFault,
                                  VehicleGraph, _project)
from platoonmpc.decomposition import decompose_pd, stage_blocks
from platoonmpc.problem import build_qcqp, check_membership
from platoonmpc.solvers import build_local_problems

from conftest import agent_slice, random_state, random_weights, small_config, step_template


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
    g = VehicleGraph(4)
    assert g.neighbors(0) == [1]
    assert g.neighbors(2) == [1, 3]
    assert g.neighbors(3) == [2]
    with pytest.raises(ValueError):
        VehicleGraph(1)


def test_projection_fixed_point():
    g = VehicleGraph(3)
    layout = AugmentedLayout(g, 2)
    assert layout.dim == 3 * layout.width == 3 * 2 * 3  # three agents, padded to 3p
    u = np.arange(6.0)
    vec = layout.scatter_controls(u)
    np.testing.assert_allclose(_project(vec, layout), vec)


def test_two_agent_average():
    g = VehicleGraph(2)
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
    layout = AugmentedLayout(VehicleGraph(n), p)
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
    layout = AugmentedLayout(VehicleGraph(4), 2)
    u = rng.normal(size=8)
    vec = layout.scatter_controls(u)
    np.testing.assert_allclose(_project(vec, layout), vec, atol=1e-14)
    # any non-consensus vector moves
    vec2 = vec.copy()
    vec2[layout.positions[1][0]] += 1.0
    assert np.linalg.norm(_project(vec2, layout) - vec2) > 1e-3


def block(vec, layout, i, j=None):
    """Agent i's own block of ``vec``, or its copy of vehicle j when j is given."""
    start = layout.positions[i][i if j is None else j]
    return vec[start:start + layout.p]


def reference_exchange(graph, outgoing, rounds):
    """One bulk-synchronous round, message by message: outgoing[i][j] is
    agent i's payload for neighbor j; returns received[i][j], the payload j
    sent to i.  Every agent must post to each neighbor and to no one else;
    the round's messages are appended to ``rounds`` as one list."""
    for i in range(graph.n):
        assert sorted(outgoing[i]) == graph.neighbors(i), i
    rounds.append([msg for i in range(graph.n) for msg in outgoing[i].values()])
    return {i: {j: outgoing[j][i] for j in graph.neighbors(i)} for i in range(graph.n)}


def reference_project(vec, layout, rounds):
    """The consensus projection computed message by message: each agent
    sends its copy of each neighbor's block to that neighbor, every owner
    averages its own block with the copies in ascending holder index, then
    sends the average back so the neighbors refresh their copies.  Each
    round's messages are appended to ``rounds``."""
    g = layout.graph
    got = reference_exchange(g, {i: {j: block(vec, layout, i, j) for j in g.neighbors(i)}
                                 for i in range(g.n)}, rounds)
    avg = []
    for j in range(g.n):
        acc = block(vec, layout, j).copy()
        for k in g.neighbors(j):
            acc += got[j][k]
        avg.append(acc / (1 + len(g.neighbors(j))))
    got = reference_exchange(g, {i: dict.fromkeys(g.neighbors(i), avg[i])
                                 for i in range(g.n)}, rounds)
    return np.concatenate([blk for i in range(g.n)
                           for blk in [avg[i]] + [got[i][j] for j in g.neighbors(i)]
                           + [np.zeros(layout.width - layout.dims[i])]])


def test_exchange_topology_and_isolation(rng):
    # a projection's two rounds carry a value at most two chain edges: what
    # an agent holds after it reads nothing of agents three or more away
    g = VehicleGraph(6)
    layout = AugmentedLayout(g, 2)
    v = rng.normal(size=layout.dim)
    planted = v.copy()
    planted[agent_slice(layout, 5)] = 999.0  # a sentinel at agent 5
    before, after = _project(v, layout), _project(planted, layout)
    for agent in range(6):
        sl = agent_slice(layout, agent)
        assert np.array_equal(before[sl], after[sl]) == (agent <= 2), agent
    # a pass down the chain is n - 1 one-speaker rounds, each p floats to
    # the next vehicle; a fabric refuses, counting nothing, a pass whose
    # vehicles reach past its own chain
    fabric = MessageFabric(g)
    fabric.forward_pass(layout)
    assert (fabric.round, fabric.messages, fabric.floats) == (5, 5, 10)
    for short in (MessageFabric(VehicleGraph(2)), MessageFabric(VehicleGraph(5))):
        with pytest.raises(SimulationFault):
            short.forward_pass(layout)
        assert (short.round, short.messages, short.floats) == (0, 0, 0)


def test_layout_leaving_the_chain_is_refused():
    # the fabric checks a layout's index arrays at its first projection: a
    # copy gathered from a non-neighbor holder, an average scattered to one,
    # or an average returned along an edge no copy came by raises, and the
    # refused projection counts nothing
    def moved(what):
        layout = AugmentedLayout(VehicleGraph(5), 2)
        if what == "gather":
            # vehicle 3's copy held by agent 2 read from agent 0's own block instead
            layout.from_prev[2 * 2] = layout.positions[0][0]
        elif what == "scatter":
            # agent 0's copy of vehicle 1 relabelled a copy of vehicle 3
            layout.owner[layout.positions[0][1]] = 3 * 2
        else:
            # vehicle 3's copy gathered twice from agent 4, never from agent 2,
            # whose copy still receives the average
            layout.from_prev[2 * 2:3 * 2] = layout.from_next[3 * 2:4 * 2]
        return layout

    for what, match in (("gather", "non-neighbor"), ("scatter", "non-neighbor"),
                        ("return", "no gather edge")):
        fabric = MessageFabric(VehicleGraph(5))
        with pytest.raises(SimulationFault, match=match):
            fabric.projection(moved(what))
        assert (fabric.round, fabric.messages, fabric.floats) == (0, 0, 0)
    fabric = MessageFabric(VehicleGraph(5))
    fabric.projection(AugmentedLayout(VehicleGraph(5), 2))
    assert fabric.round == 2


CHAINS = list(product(range(2, 7), range(1, 6)))  # (n, p): both chain ends, every horizon


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_padded_entries_are_zero(rng, n, p):
    # the two chain ends hold one neighbor's copy, so on three or more
    # vehicles each pads its segment with p entries; whatever an input holds
    # there, every vector the layout hands back reads exactly 0
    layout = AugmentedLayout(VehicleGraph(n), p)
    width = layout.width
    pad = layout.owner < 0
    ends = [] if n == 2 else [*range(2 * p, width), *range(n * width - p, n * width)]
    assert np.flatnonzero(pad).tolist() == ends
    v = rng.normal(size=layout.dim)
    assert (v[pad] != 0).all()
    for out in (_project(v, layout), reference_project(v, layout, []),
                layout.scatter_controls(rng.normal(size=n * p))):
        assert out.shape == (layout.dim,) and (out[pad] == 0).all()


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_fabric_projection_bit_identical(rng, n, p):
    # _project gives the message-by-message projection bit for bit, and the
    # fabric counts its rounds, messages and floats
    g = VehicleGraph(n)
    layout = AugmentedLayout(g, p)
    fabric, rounds = MessageFabric(g), []
    v = rng.normal(size=layout.dim)
    reference = reference_project(v, layout, rounds)
    fabric.projection(layout)
    assert np.array_equal(_project(v, layout), reference)  # bit-for-bit
    assert fabric.round == len(rounds) == 2
    posts = [msg for sent in rounds for msg in sent]
    assert fabric.messages == len(posts) == 2 * 2 * (n - 1)  # two phases, two directions per edge
    assert all(np.shape(msg) == (p,) for msg in posts)  # one block per message
    assert fabric.floats == sum(np.size(msg) for msg in posts) == 4 * (n - 1) * p
    fabric.projection(layout)  # checked once, counted every time
    assert (fabric.round, fabric.messages, fabric.floats) == (4, 8 * (n - 1), 8 * (n - 1) * p)


def chain_program(rng, n, p):
    cfg = small_config(n, p)
    template = step_template(cfg, random_weights(rng, n, p))
    return template, build_qcqp(random_state(rng, cfg), template=template)


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_row_skeleton_matches_agent_columns(rng, n, p):
    # the one row skeleton is laid out over [own, predecessor, successor]:
    # every agent i >= 1 holds its predecessor's copy in columns [p, 2p) of
    # its segment, and agent 0's second block is vehicle 1, over which
    # vehicle 0's rows read zero, as every vehicle's rows do over the third
    layout = AugmentedLayout(VehicleGraph(n), p)
    for i in range(1, n):
        assert layout.positions[i][i - 1] == i * layout.width + p
    assert layout.var_order[0][:2] == [0, 1] and layout.positions[0][1] == p
    template, _ = chain_program(rng, n, p)
    for M in template.skeleton:
        assert not M.flags.writeable and M.shape == (n, 5 * p, 3 * p)
        assert (M[0, :, p:2 * p] == 0).all() and (M[:, :, 2 * p:] == 0).all()


@pytest.mark.parametrize("n,p", CHAINS, ids=[f"n{n}-p{p}" for n, p in CHAINS])
def test_row_readers_agree(rng, n, p):
    # the step rows over each vehicle's [own, predecessor, successor]
    # columns, the agents' segments, the centralized reference's
    # vehicle-major rows and the membership check read the same row values
    # at any plan; the step rows read nothing of the successor's columns
    # nor of the first vehicle's predecessor's, which hold other blocks here
    template, prob = chain_program(rng, n, p)
    problems = build_local_problems(prob, decompose_pd(stage_blocks(template.weights,
                                                                    template.cfg.tau)))
    layout = problems.stack.layout
    for _ in range(3):
        u = rng.normal(size=n * p)
        central = prob.central_rows().values(u).reshape(n, 5 * p)
        U = u.reshape(n, p)
        window = np.hstack([U, np.roll(U, 1, axis=0), np.roll(U, -1, axis=0)])
        agents = layout.scatter_controls(u).reshape(n, layout.width)
        for rows, x in ((prob.rows, window), (problems.rows, agents)):
            np.testing.assert_allclose(rows.values(x), central, rtol=0, atol=1e-12)
        rep, kinds = check_membership(prob, u), central.reshape(n, 5, p)
        np.testing.assert_array_equal(rep.box, np.maximum(kinds[:, 0], kinds[:, 1]))
        np.testing.assert_array_equal(rep.speed, np.maximum(kinds[:, 2], kinds[:, 3]))
        np.testing.assert_array_equal(rep.safety, kinds[:, 4])
