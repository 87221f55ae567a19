"""Acceptance suite: every release criterion with its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Scenario runs are shared across criteria through module-scoped
fixtures; wall-clock budgets are asserted where a criterion pins one.
"""

import time

import numpy as np
import pytest

from platoonmpc.consensus import AugmentedLayout, VehicleGraph, _project
from platoonmpc.core import WeightSchedule, reference_config
from platoonmpc.decomposition import decompose_pd, stage_blocks
from platoonmpc.harness import run_scenario, scenario_builtin
from platoonmpc.problem import StepTemplate, build_qcqp
from platoonmpc.solvers import (SolverParams, build_local_problems, solve_centralized, solve_dr,
                                solve_three_op, solve_three_op_accel)
from platoonmpc.stability import build_closed_loop, default_weight_schedule

from conftest import dense_hessian_oracle, random_state, random_weights, small_config
from test_consensus import lstsq_projection_oracle


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def s1_runs():
    out = {}
    t0 = time.time()
    for p in (1, 5):
        out[p] = run_scenario(scenario_builtin("s1", p=p))
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def s2_run():
    t0 = time.time()
    res = run_scenario(scenario_builtin("s2", p=1))
    return res, time.time() - t0


@pytest.fixture(scope="module")
def s3_noisy_run():
    return run_scenario(scenario_builtin("s3-synthetic", p=1, seed=1, noise=True))


def test_criterion_1_spectral_radius_reproduction():
    t0 = time.time()
    rho1 = build_closed_loop(reference_config(horizon=1),
                             default_weight_schedule(1)).spectral_radius
    rhos = {p: build_closed_loop(reference_config(horizon=p),
                                 default_weight_schedule(p)).spectral_radius
            for p in (2, 3, 4, 5)}
    elapsed = time.time() - t0
    ok = abs(rho1 - 0.8498) <= 1e-3 and all(abs(r - 0.8376) <= 1e-3 for r in rhos.values()) \
        and elapsed < 1.0
    _line(1, ok, f"rho(p=1)={rho1:.4f}, rho(p=2..5)="
                 f"{[f'{rhos[p]:.4f}' for p in (2, 3, 4, 5)]}, {elapsed:.2f}s")
    assert abs(rho1 - 0.8498) <= 1e-3
    for p, r in rhos.items():
        assert abs(r - 0.8376) <= 1e-3, f"p={p}"
    assert elapsed < 1.0


@pytest.mark.parametrize("p", [1, 5])
def test_criterion_2_scenario_1_closed_loop(s1_runs, p):
    m = s1_runs[p].metrics
    ok = s1_runs["elapsed"] < 120.0 and 2.4 <= m["max_dev_first_gap"] <= 2.9 \
        and m["settle_time"] is not None and m["settle_time"] <= 39 \
        and m["max_dev_other_gaps"] <= 1e-2
    _line(2, ok, f"p={p}: dev={m['max_dev_first_gap']:.3f}m settle={m['settle_time']}s "
                 f"rest={m['max_dev_other_gaps']:.1e}; pair runtime {s1_runs['elapsed']:.0f}s")
    assert s1_runs["elapsed"] < 120.0
    assert m["settle_time"] is not None and m["settle_time"] <= 39
    assert m["max_dev_other_gaps"] <= 1e-2
    assert 2.4 <= m["max_dev_first_gap"] <= 2.9, \
        f"p={p}: max first-gap deviation {m['max_dev_first_gap']:.4f} m outside [2.4, 2.9]"


def test_criterion_3_scenario_2_closed_loop(s2_run):
    res, elapsed = s2_run
    dev = np.abs(res.spacings[:, 0] - res.gap)
    forcing_max = float(dev[:101].max())
    decay_at = next((k for k in range(101, dev.size) if np.all(dev[k:] < 0.01)), None)
    within = None if decay_at is None else decay_at - 101
    ok = forcing_max <= 0.25 and within is not None and within <= 30 and elapsed < 120.0
    _line(3, ok, f"forcing max={forcing_max:.3f}m, decay<0.01 after {within}s, "
                 f"runtime {elapsed:.0f}s")
    assert forcing_max <= 0.25
    assert within is not None and within <= 30
    assert elapsed < 120.0


@pytest.mark.parametrize("p,bound", [(1, 1.7e-3), (5, 3.3e-2)])
def test_criterion_4_distributed_accuracy(p, bound):
    """Benchmark accuracy of the distributed answer at the per-horizon
    default tolerances, against the tight centralized reference.

    The per-step relative error compares the applied (first-stage)
    controls; the mean keeps steps whose reference magnitude exceeds one
    percent of the run's peak, because relative error against an
    absolute-tolerance iterative solver is unbounded as the true solution
    decays to zero (any fixed stopping rule produces arbitrarily large
    ratios on the settled tail).  The one-percent cut reproduces the
    documented single-stage accuracy level, and the same definition is
    applied to every horizon.
    """
    res = run_scenario(scenario_builtin("s1", p=p), with_oracle=True)
    mean = res.metrics["rel_error_mean"]
    mags = np.abs(res.oracle_first).max(axis=1)
    material = np.isfinite(res.rel_errors) & (mags > 0.01 * mags.max())
    pooled = float(
        np.linalg.norm(res.commanded[material] - res.oracle_first[material], axis=1).sum()
        / np.linalg.norm(res.oracle_first[material], axis=1).sum())
    ok = mean is not None and mean <= bound
    _line(4, ok, f"p={p}: mean rel err {mean:.2e} over {int(material.sum())} material steps "
                 f"(bound {bound:.1e}; magnitude-pooled {pooled:.2e})")
    assert mean is not None
    assert mean <= bound, \
        f"p={p}: mean applied-stage relative error {mean:.3e} exceeds {bound:.1e}"


def test_criterion_5_oracle_equivalence_three_variants():
    rng = np.random.default_rng(20240501)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        cfg = small_config(n, p)
        w = random_weights(rng, n, p)
        state = random_state(rng, cfg)
        prob = build_qcqp(state, template=StepTemplate(cfg, w))
        graph = VehicleGraph(n)
        stack = decompose_pd(stage_blocks(w, cfg.tau))
        locals_ = build_local_problems(prob, stack)
        u_ref = solve_centralized(prob)
        nrm = max(np.linalg.norm(u_ref), 1e-12)
        for variant, fn in (("dr", solve_dr), ("three-op", solve_three_op),
                            ("three-op-accel", solve_three_op_accel)):
            rep = fn(locals_, graph, SolverParams(variant=variant, tol=1e-7, max_iters=80000))
            assert rep.converged, variant
            worst = max(worst, np.linalg.norm(rep.u_star - u_ref) / nrm)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 300.0
    _line(5, ok, f"50 instances x 3 variants, worst rel err {worst:.2e}, {elapsed:.0f}s")
    assert worst <= 1e-4
    assert elapsed < 300.0


def test_criterion_6_decomposition_exactness():
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    min_lam = np.inf
    cases = [(int(rng.integers(2, 11)), int(rng.integers(1, 6))) for _ in range(18)]
    cases += [(10, 5), (2, 1)]
    for n, p in cases:
        w = random_weights(rng, n, p)
        dec = decompose_pd(stage_blocks(w, tau=1.0))
        W = dense_hessian_oracle(w, 1.0)
        total = sum(dec.embedded(i) for i in range(n))
        worst_rel = max(worst_rel, np.linalg.norm(total - W) / np.linalg.norm(W))
        min_lam = min(min_lam, dec.lambda_min.min())
    ok = worst_rel <= 1e-10 and min_lam > 0
    _line(6, ok, f"worst reconstruction {worst_rel:.2e}, min block eigenvalue {min_lam:.2e}")
    assert worst_rel <= 1e-10
    assert min_lam > 0


def test_criterion_7_consensus_projection():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, 4))
        layout = AugmentedLayout(VehicleGraph(n), p)
        v = rng.normal(size=layout.dim) * rng.uniform(0.1, 10.0)
        Pv = _project(v, layout)
        worst = max(worst, float(np.abs(Pv - lstsq_projection_oracle(v, layout)).max()))
        assert np.allclose(_project(Pv, layout), Pv, atol=1e-12)
        assert np.linalg.norm(Pv) <= np.linalg.norm(v) + 1e-12
    ok = worst <= 1e-12
    _line(7, ok, f"worst deviation from normal-equations oracle {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8_eigenvalue_characterization():
    rng = np.random.default_rng(13)
    n = 4
    cfg = small_config(n, 1)
    worst = 0.0
    for _ in range(100):
        w = WeightSchedule(rng.uniform(0.05, 10.0, (1, n)),
                           rng.uniform(0.05, 10.0, (1, n)),
                           rng.uniform(0.05, 10.0, (1, n)))
        model = build_closed_loop(cfg, w)
        for i, blk in enumerate(model.vehicle_blocks):
            a, b, zt = w.q_gap[0, i], w.q_rate[0, i], w.q_ride[0, i]
            d = a * cfg.tau ** 2 / 4 + b + zt
            ev = np.linalg.eigvals(blk)
            if abs(ev[0].imag) > 0:
                worst = max(worst, abs(abs(ev[0]) ** 2 - zt / d))
            else:
                lo = 1 - (a * cfg.tau ** 2 / 2 + b) / d
                hi = 1 - a * cfg.tau ** 2 / (4 * d)
                for e in ev:
                    assert lo - 1e-10 < e.real < hi + 1e-10
    ok = worst <= 1e-10
    _line(8, ok, f"100 draws, worst complex-modulus error {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_9_safety_invariant(s1_runs, s2_run, s3_noisy_run):
    margins = {
        "s1 p=1": s1_runs[1].safety_margins.min(),
        "s1 p=5": s1_runs[5].safety_margins.min(),
        "s2": s2_run[0].safety_margins.min(),
        "s3 noisy": s3_noisy_run.safety_margins.min(),
    }
    worst = min(margins.values())
    ok = worst >= -1e-6
    _line(9, ok, "min margins " + ", ".join(f"{k}={v:.3f}m" for k, v in margins.items()))
    assert worst >= -1e-6


def test_criterion_10_warm_start_ordering():
    prev = run_scenario(scenario_builtin("s3-synthetic", p=5, seed=1,
                                         warm_start="prev-solution"))
    warm = run_scenario(scenario_builtin("s3-synthetic", p=5, seed=1,
                                         warm_start="warmup-projection"))
    med_prev = float(np.median(prev.iterations))
    med_warm = float(np.median(warm.iterations))
    ok = med_warm <= med_prev
    _line(10, ok, f"median iterations: warmup {med_warm:.0f} vs previous-solution "
                  f"{med_prev:.0f} (warmup sweep median "
                  f"{np.median(warm.warmup_iterations):.0f} sequential message rounds)")
    assert med_warm <= med_prev
