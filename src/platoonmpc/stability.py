"""Closed-loop analysis of the unconstrained receding-horizon controller.

With diagonal weights the closed loop decouples, under a fixed
permutation, into independent 2x2 maps per vehicle acting on its gap error
and closing rate, with gains read off the stage blocks and the prediction
(Φ, T).  This module builds those maps for any horizon, computes spectral
radii, checks the analytic eigenvalue characterization available for a
one-step horizon, probes how far the tail-stage weights can grow before
stability is lost, and generates decaying weight schedules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .core import PlatoonConfig, WeightSchedule
from .decomposition import _weighed, gap_response, prediction, stage_blocks

__all__ = [
    "ClosedLoopModel",
    "SchurMarginResult",
    "build_closed_loop",
    "eigen_bounds_check",
    "schur_margin",
    "gen_weight_schedule",
    "default_weight_schedule",
    "DEFAULT_BASE_GAP_WEIGHTS",
    "DEFAULT_BASE_RATE_WEIGHTS",
    "DEFAULT_BASE_RIDE_WEIGHTS",
]

# Base weight vectors of the ten-vehicle reference platoon (stage one of
# every schedule; later stages decay polynomially).
DEFAULT_BASE_GAP_WEIGHTS = np.array(
    [38.85, 40.2, 41.55, 42.90, 44.25, 45.60, 46.95, 48.30, 49.65, 51.00])
DEFAULT_BASE_RATE_WEIGHTS = np.array(
    [130.61, 136.21, 141.82, 147.42, 153.03, 158.64, 164.24, 169.85, 175.46, 181.06])
DEFAULT_BASE_RIDE_WEIGHTS = np.array(
    [62.0, 74.0, 90.0, 92.0, 106.0, 194.0, 298.0, 402.0, 454.0, 480.0])

# Decay factors applied to the base vectors for stages s >= 2, as
# kappa / (s-1)^4.  The one-stage schedule does not use them (its radius is
# 0.8498).  For p >= 2 they are chosen, from the sweep recorded in
# CHANGES.md, to meet three targets at once: spectral radius 0.8376 at
# p = 2..5 (set by vehicles 1 and 10), a scenario-1 first-gap deviation
# inside [2.4, 2.9] m at p = 5 (set by vehicle 1's loop), and the p = 5
# distributed-accuracy bound of 3.3e-2.
DEFAULT_KAPPA_GAP = 0.06
DEFAULT_KAPPA_RATE = 0.2
DEFAULT_KAPPA_RIDE = 0.0194
DEFAULT_DECAY_ETA = 4.0


@dataclass(frozen=True)
class ClosedLoopModel:
    """Unconstrained closed loop in error coordinates.

    ``gains`` (n, 2) are each vehicle's first-stage feedback on its (gap
    error, closing rate), and ``a_closed`` maps them stacked; ``forcing``
    gives the response to the leader's acceleration (nonzero only for the
    first vehicle).  ``vehicle_blocks`` are the decoupled 2x2 maps, stacked
    (n, 2, 2), and ``eigenvalues`` theirs, (n, 2), whose moduli set each
    vehicle's radius and the spectral radius.
    """

    n: int
    horizon: int
    tau: float
    gains: np.ndarray
    a_closed: np.ndarray
    forcing: np.ndarray
    vehicle_blocks: np.ndarray
    eigenvalues: np.ndarray
    vehicle_radii: np.ndarray
    spectral_radius: float

    def to_report_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "rho": self.spectral_radius,
            "vehicle_radii": self.vehicle_radii.tolist(),
            "per_vehicle_blocks": self.vehicle_blocks.tolist(),
            "eigenvalues": [[ev.real, ev.imag] for ev in self.eigenvalues.ravel().tolist()],
        }


def build_closed_loop(cfg: PlatoonConfig, weights: WeightSchedule) -> ClosedLoopModel:
    """Closed-loop maps of the constraint-free receding-horizon controller.

    Per vehicle, the optimal first-stage acceleration gap is a linear
    feedback read off the stage-coupling Hessian U_i and the gain block
    ``G_i = Φ' diag(q_gap,i) [1, (s+1) tau] + tau T' diag(q_rate,i) [0, 1]``,
    which maps its (gap error, closing rate) to its linear term m_i (in
    the first vehicle's gap to the leader, u0 adds -tau^2 q_ride,0 u0), by
    the warm-up sweep's own solve, ``gap_response``: wherever no row binds,
    this is the controller's answer.  The error dynamics give the full map.
    """
    if weights.horizon != cfg.horizon or weights.n != cfg.n:
        raise ValueError("weight schedule shape does not match the configuration")
    n, p, tau = cfg.n, cfg.horizon, cfg.tau
    hess = stage_blocks(weights, tau)
    phi, T = prediction(p, tau)
    G = (_weighed(phi, weights.q_gap, np.column_stack([np.ones(p), tau * T.sum(axis=1)]))
         + tau * _weighed(T, weights.q_rate, np.outer(np.ones(p), [0.0, 1.0]))).sum(0)
    leader = (-tau ** 2 * np.eye(1, n)[0] * weights.q_ride).T[..., None]  # vehicle 0 only
    first = gap_response(hess, np.concatenate([G, leader], axis=2))[:, 0]
    K, forcing = first[:, :2], first[:, 2]  # each vehicle's (gap, rate) gain
    base = np.array([[1.0, tau], [0.0, 1.0]])
    lever = np.array([phi[0, 0], tau])  # one step's (gap, rate) response to the applied gap
    blocks = base + lever[:, None] * K[:, None, :]
    eigenvalues = np.linalg.eigvals(blocks)
    radii = np.abs(eigenvalues).max(axis=1)
    gain = np.hstack([np.diag(K[:, 0]), np.diag(K[:, 1])])
    a_closed = np.kron(base, np.eye(n)) + np.kron(lever[:, None], np.eye(n)) @ gain
    return ClosedLoopModel(
        n=n, horizon=p, tau=tau, gains=K,
        a_closed=a_closed,
        forcing=forcing,
        vehicle_blocks=blocks,
        eigenvalues=eigenvalues,
        vehicle_radii=radii,
        spectral_radius=float(radii.max()),
    )


def eigen_bounds_check(model: ClosedLoopModel, weights: WeightSchedule,
                       tol: float = 1e-10) -> dict:
    """Analytic eigenvalue characterization for a one-stage horizon.

    For strictly positive weights, each vehicle's 2x2 block has either a
    complex pair of squared modulus ride/(gap*tau^2/4 + rate + ride) or two
    real eigenvalues inside an explicit open interval.  Returns per-vehicle
    records and an overall flag.
    """
    if model.horizon != 1:
        raise ValueError("the analytic eigenvalue bounds apply to a one-stage horizon only")
    if np.any(weights.q_gap <= 0) or np.any(weights.q_rate <= 0):
        raise ValueError("the analytic bounds assume strictly positive weights")
    tau = model.tau
    records = []
    ok = True
    for i, (ev1, ev2) in enumerate(model.eigenvalues.tolist()):
        a = weights.q_gap[0, i]
        b = weights.q_rate[0, i]
        zt = weights.q_ride[0, i]
        d = a * tau ** 2 / 4.0 + b + zt
        if abs(ev1.imag) > 0:
            expected = zt / d
            err = abs(abs(ev1) ** 2 - expected)
            good = err <= tol
            records.append({"vehicle": i, "kind": "complex", "modulus_sq": abs(ev1) ** 2,
                            "expected": expected, "error": err, "ok": good})
        else:
            lo = 1.0 - (a * tau ** 2 / 2.0 + b) / d
            hi = 1.0 - a * tau ** 2 / (4.0 * d)
            good = all(lo - tol < ev.real < hi + tol for ev in (ev1, ev2))
            records.append({"vehicle": i, "kind": "real",
                            "eigenvalues": [ev1.real, ev2.real],
                            "interval": [lo, hi], "ok": good})
        ok = ok and good
    return {"ok": ok, "vehicles": records}


@dataclass(frozen=True)
class SchurMarginResult:
    scale: float
    rho_at_zero: float
    rho_at_scale: float
    matches_two_stage: bool


def _scaled_tail(weights: WeightSchedule, scale: float) -> WeightSchedule:
    qg = weights.q_gap.copy()
    qr = weights.q_rate.copy()
    qg[2:] *= scale
    qr[2:] *= scale
    return WeightSchedule(qg, qr, weights.q_ride)


def schur_margin(cfg: PlatoonConfig, weights: WeightSchedule, scale_max: float = 100.0,
                 tol: float = 1e-4) -> SchurMarginResult:
    """Largest tested scaling of the stage >= 3 gap/rate weights that keeps
    the closed loop Schur stable, found by bisection.

    At scale zero the per-vehicle maps must coincide with the two-stage
    model (the tail stages then only pad the Hessian diagonal).
    """
    if cfg.horizon < 3:
        raise ValueError("margin probing needs a horizon of at least three stages")
    if np.any(weights.q_ride[2:] <= 0):
        raise ValueError("tail ride weights must stay strictly positive")

    zero_tail = _scaled_tail(weights, 0.0)
    model0 = build_closed_loop(cfg, zero_tail)
    two_cfg = replace(cfg, horizon=2)
    two_weights = WeightSchedule(weights.q_gap[:2], weights.q_rate[:2], weights.q_ride[:2])
    model2 = build_closed_loop(two_cfg, two_weights)
    matches = all(
        np.allclose(b0, b2, atol=1e-12)
        for b0, b2 in zip(model0.vehicle_blocks, model2.vehicle_blocks)
    )

    def rho(scale):
        return build_closed_loop(cfg, _scaled_tail(weights, scale)).spectral_radius

    lo, hi = (scale_max, scale_max) if rho(scale_max) < 1.0 else (0.0, scale_max)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if rho(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return SchurMarginResult(scale=lo, rho_at_zero=model0.spectral_radius,
                             rho_at_scale=rho(lo), matches_two_stage=matches)


def gen_weight_schedule(base_gap, base_rate, base_ride, p: int, eta: float,
                        kappa_gap: float, kappa_rate: float, kappa_ride: float) -> WeightSchedule:
    """Decaying schedule: stage s >= 2 scales the base vectors by
    kappa/(s-1)^eta; for multi-stage horizons the first stage subtracts one
    from every base entry, as the reference design does.
    """
    if eta <= 1.0:
        raise ValueError("eta must exceed 1 for a summable tail")
    base_gap = np.asarray(base_gap, dtype=float)
    base_rate = np.asarray(base_rate, dtype=float)
    base_ride = np.asarray(base_ride, dtype=float)
    if p == 1:
        return WeightSchedule(base_gap[None, :], base_rate[None, :], base_ride[None, :])
    qg = [base_gap - 1.0]
    qr = [base_rate - 1.0]
    qw = [base_ride - 1.0]
    for s in range(2, p + 1):
        decay = (s - 1.0) ** eta
        qg.append(kappa_gap / decay * base_gap)
        qr.append(kappa_rate / decay * base_rate)
        qw.append(kappa_ride / decay * base_ride)
    return WeightSchedule(np.vstack(qg), np.vstack(qr), np.vstack(qw))


def default_weight_schedule(p: int) -> WeightSchedule:
    """Built-in schedule of the ten-vehicle reference platoon."""
    return gen_weight_schedule(
        DEFAULT_BASE_GAP_WEIGHTS, DEFAULT_BASE_RATE_WEIGHTS, DEFAULT_BASE_RIDE_WEIGHTS,
        p, DEFAULT_DECAY_ETA, DEFAULT_KAPPA_GAP, DEFAULT_KAPPA_RATE, DEFAULT_KAPPA_RIDE)


def stability_report_json(cfg: PlatoonConfig, weights: WeightSchedule) -> str:
    """JSON stability report: radius, per-vehicle blocks, eigenvalues, and
    the tail-weight margin when the horizon has one."""
    model = build_closed_loop(cfg, weights)
    report = model.to_report_dict()
    if cfg.horizon >= 3 and np.all(weights.q_gap[0] > 0) and np.all(weights.q_rate[0] > 0):
        margin = schur_margin(cfg, weights)
        report["margins"] = {
            "tail_scale": margin.scale,
            "rho_at_zero": margin.rho_at_zero,
            "rho_at_scale": margin.rho_at_scale,
            "matches_two_stage": margin.matches_two_stage,
        }
    else:
        report["margins"] = None
    return json.dumps(report, indent=2)
