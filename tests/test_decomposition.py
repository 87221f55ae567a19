import numpy as np
import pytest

from platoonmpc import stability
from platoonmpc.core import PlatoonState, WeightSchedule, step_dynamics
from platoonmpc.decomposition import decompose_pd, prediction, stage_blocks

from conftest import dense_hessian_oracle, random_weights, small_config


def test_prediction_matches_the_dynamics(rng):
    # roll a leader and two vehicles forward under random accelerations and
    # under none: each pair's stage gap and rate errors move by Φ du and
    # tau T du, du the pair's acceleration gaps
    for _ in range(30):
        p, tau = int(rng.integers(1, 7)), float(rng.uniform(0.2, 1.5))
        acc = rng.uniform(-1.0, 1.0, (p, 3))
        x0, v0 = np.array([0.0, -150.0, -300.0]), rng.uniform(18.0, 22.0, 3)
        errors = []
        for a in (acc, np.zeros((p, 3))):
            state, run = PlatoonState(x0, v0, u0=a[0, 0]), []
            for s in range(p):
                state = step_dynamics(state, a[s, 1:], a[s + 1, 0] if s + 1 < p else 0.0, tau)
                run.append([-np.diff(state.x), -np.diff(state.v)])
            errors.append(np.array(run))
        gap, rate = (errors[0] - errors[1]).transpose(1, 0, 2)
        phi, T = prediction(p, tau)
        du = acc[:, :-1] - acc[:, 1:]
        np.testing.assert_allclose(gap, phi @ du, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rate, tau * T @ du, rtol=0, atol=1e-12)
        assert not (phi.flags.writeable or T.flags.writeable)


def test_single_stage_blocks_are_scalars(rng):
    tau = 0.7
    w = random_weights(rng, 4, 1)
    for i, U in enumerate(stage_blocks(w, tau)):
        expected = tau ** 2 * (tau ** 2 * w.q_gap[0, i] / 4 + w.q_rate[0, i] + w.q_ride[0, i])
        assert U.shape == (1, 1)
        assert U[0, 0] == pytest.approx(expected, rel=1e-12)


def test_ride_only_blocks_are_scaled_identity():
    w = WeightSchedule(np.zeros((3, 4)), np.zeros((3, 4)), np.ones((3, 4)))
    for U in stage_blocks(w, tau=2.0):
        np.testing.assert_allclose(U, 4.0 * np.eye(3), atol=1e-14)


def test_block_assembly_matches_dense_oracle(rng):
    for (n, p) in [(2, 2), (5, 3), (3, 1)]:
        w = random_weights(rng, n, p)
        U = stage_blocks(w, tau=1.0)
        diag = [U[i] + (U[i + 1] if i + 1 < n else 0) for i in range(n)]
        W = np.zeros((n * p, n * p))
        for i in range(n):
            W[i * p:(i + 1) * p, i * p:(i + 1) * p] = diag[i]
            if i + 1 < n:
                W[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = -U[i + 1]
                W[(i + 1) * p:(i + 2) * p, i * p:(i + 1) * p] = -U[i + 1]
        np.testing.assert_allclose(W, dense_hessian_oracle(w, 1.0), atol=1e-11)


def test_three_agent_unit_chain_eigen_values():
    # unit stage blocks: the leading half-block is [[1, -.5], [-.5, .5]]
    w = WeightSchedule(np.zeros((1, 3)), np.zeros((1, 3)), np.ones((1, 3)) / 1.0)
    U = stage_blocks(w, tau=1.0)
    assert U[0][0, 0] == pytest.approx(1.0)
    dec = decompose_pd(U)
    lam_min_lead = (3 - np.sqrt(5)) / 4  # eigen-solve of the 2x2 half block
    assert dec.deltas[0] == pytest.approx(lam_min_lead / 2, rel=1e-12)
    lead = dec.H[0, :2, :2]
    np.testing.assert_allclose(lead + dec.deltas[0] * np.eye(2),
                               0.5 * np.array([[2.0, -1.0], [-1.0, 1.0]]), atol=1e-14)


@pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (3, 2), (6, 2), (10, 5)])
def test_pd_decomposition_reconstructs_hessian(rng, n, p):
    w = random_weights(rng, n, p)
    dec = decompose_pd(stage_blocks(w, tau=1.0))
    W = dense_hessian_oracle(w, 1.0)
    total = sum(dec.embedded(i) for i in range(n))
    assert np.linalg.norm(total - W) <= 1e-10 * np.linalg.norm(W)
    assert len(dec.H) == n and len(dec.deltas) == n - 1
    assert (dec.lambda_min > 0).all()


def test_topology_respected(rng):
    n, p = 6, 2
    dec = decompose_pd(stage_blocks(random_weights(rng, n, p), tau=1.0))
    for i, vehicles in enumerate(dec.layout.var_order):
        allowed = {j for j in (i - 1, i, i + 1) if 0 <= j < n}
        assert set(vehicles) <= allowed
        emb = dec.embedded(i)
        for a in range(n):
            for b in range(n):
                if a not in vehicles or b not in vehicles:
                    assert np.all(emb[a * p:(a + 1) * p, b * p:(b + 1) * p] == 0.0)


def test_scale_equivariance(rng):
    n, p = 4, 2
    w = random_weights(rng, n, p)
    dec1 = decompose_pd(stage_blocks(w, tau=1.0))
    dec2 = decompose_pd(stage_blocks(w.scaled(3.0), tau=1.0))
    np.testing.assert_allclose(3.0 * dec1.H, dec2.H, rtol=1e-12)



@pytest.mark.parametrize("n,p,broken", [(40, 1, 33), (30, 5, 25), (20, 1, None), (20, 5, None)])
def test_margin_chain_breaks_on_long_platoons(n, p, broken):
    # the reference base weights tiled over n vehicles: the margin handed
    # down the chain halves at every agent until an agent's block is no
    # longer positive definite
    w = stability.gen_weight_schedule(
        *(np.resize(base, n) for base in (stability.DEFAULT_BASE_GAP_WEIGHTS,
                                          stability.DEFAULT_BASE_RATE_WEIGHTS,
                                          stability.DEFAULT_BASE_RIDE_WEIGHTS)),
        p, stability.DEFAULT_DECAY_ETA, stability.DEFAULT_KAPPA_GAP,
        stability.DEFAULT_KAPPA_RATE, stability.DEFAULT_KAPPA_RIDE)
    if broken is None:
        dec = decompose_pd(stage_blocks(w, tau=1.0))
        assert dec.lambda_min.min() > 0
    else:
        with pytest.raises(RuntimeError, match=f"block {broken} .*margin chain broke"):
            decompose_pd(stage_blocks(w, tau=1.0))
