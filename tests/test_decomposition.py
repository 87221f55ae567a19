import numpy as np
import pytest

from platoonmpc.core import WeightSchedule
from platoonmpc.decomposition import decompose_pd, stage_blocks

from conftest import dense_hessian_oracle, random_weights, small_config


def test_single_stage_blocks_are_scalars(rng):
    tau = 0.7
    w = random_weights(rng, 4, 1)
    sb = stage_blocks(w, tau)
    for i, U in enumerate(sb.blocks):
        expected = tau ** 2 * (tau ** 2 * w.q_gap[0, i] / 4 + w.q_rate[0, i] + w.q_ride[0, i])
        assert U.shape == (1, 1)
        assert U[0, 0] == pytest.approx(expected, rel=1e-12)


def test_ride_only_blocks_are_scaled_identity():
    w = WeightSchedule(np.zeros((3, 4)), np.zeros((3, 4)), np.ones((3, 4)))
    sb = stage_blocks(w, tau=2.0)
    for U in sb.blocks:
        np.testing.assert_allclose(U, 4.0 * np.eye(3), atol=1e-14)


def test_block_assembly_matches_dense_oracle(rng):
    for (n, p) in [(2, 2), (5, 3), (3, 1)]:
        w = random_weights(rng, n, p)
        sb = stage_blocks(w, tau=1.0)
        diag = [sb.blocks[i] + (sb.blocks[i + 1] if i + 1 < n else 0) for i in range(n)]
        W = np.zeros((n * p, n * p))
        for i in range(n):
            W[i * p:(i + 1) * p, i * p:(i + 1) * p] = diag[i]
            if i + 1 < n:
                W[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = -sb.blocks[i + 1]
                W[(i + 1) * p:(i + 2) * p, i * p:(i + 1) * p] = -sb.blocks[i + 1]
        np.testing.assert_allclose(W, dense_hessian_oracle(w, 1.0), atol=1e-11)


def test_three_agent_unit_chain_eigen_values():
    # unit stage blocks: the leading half-block is [[1, -.5], [-.5, .5]]
    w = WeightSchedule(np.zeros((1, 3)), np.zeros((1, 3)), np.ones((1, 3)) / 1.0)
    sb = stage_blocks(w, tau=1.0)
    assert sb.blocks[0][0, 0] == pytest.approx(1.0)
    dec = decompose_pd(sb)
    lam_min_lead = (3 - np.sqrt(5)) / 4  # eigen-solve of the 2x2 half block
    assert dec.deltas[0] == pytest.approx(lam_min_lead / 2, rel=1e-12)
    lead = dec.parts[0].matrix
    np.testing.assert_allclose(lead + dec.deltas[0] * np.eye(2),
                               0.5 * np.array([[2.0, -1.0], [-1.0, 1.0]]), atol=1e-14)


@pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (3, 2), (6, 2), (10, 5)])
def test_pd_decomposition_reconstructs_hessian(rng, n, p):
    w = random_weights(rng, n, p)
    sb = stage_blocks(w, tau=1.0)
    dec = decompose_pd(sb)
    W = dense_hessian_oracle(w, 1.0)
    total = sum(dec.embedded(i) for i in range(n))
    assert np.linalg.norm(total - W) <= 1e-10 * np.linalg.norm(W)
    assert len(dec.parts) == n and len(dec.deltas) == n - 1
    for part in dec.parts:
        assert part.lambda_min > 0


def test_topology_respected(rng):
    n, p = 6, 2
    dec = decompose_pd(stage_blocks(random_weights(rng, n, p), tau=1.0))
    for i, part in enumerate(dec.parts):
        allowed = {j for j in (i - 1, i, i + 1) if 0 <= j < n}
        assert set(part.vehicles) <= allowed
        emb = dec.embedded(i)
        for a in range(n):
            for b in range(n):
                if a not in part.vehicles or b not in part.vehicles:
                    assert np.all(emb[a * p:(a + 1) * p, b * p:(b + 1) * p] == 0.0)


def test_scale_equivariance(rng):
    n, p = 4, 2
    w = random_weights(rng, n, p)
    dec1 = decompose_pd(stage_blocks(w, tau=1.0))
    dec2 = decompose_pd(stage_blocks(w.scaled(3.0), tau=1.0))
    for a, b in zip(dec1.parts, dec2.parts):
        np.testing.assert_allclose(3.0 * a.matrix, b.matrix, rtol=1e-12)

