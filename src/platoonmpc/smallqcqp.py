"""Dense solver for small strongly convex QCQPs.

Solves  minimize 0.5 x'Px + q'x  subject to one family of rows

    A[k] x - h[k] + quad (S[k] x)^2 <= 0,

with P positive definite and quad >= 0: a row whose S is zero is linear,
any other is a convex rank-one quadratic.  This is the layout of
``problem.ConstraintSet.rows``.  Problems here have at most a few dozen
variables (per-agent proximal steps and the centralized reference solve),
so everything is dense and direct, vectorized over the rows.

Strategy: an unconstrained fast path, then a warm active-set Newton
attempt when the caller supplies a previous active set, then log-barrier
continuation over all rows, and finally an active-set Newton polish that
drives the KKT residual to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["QcqpResult", "InfeasibleProblem", "row_values", "solve_qcqp"]


class InfeasibleProblem(RuntimeError):
    """Raised when phase one certifies an empty (or numerically empty)
    constraint set."""


@dataclass
class QcqpResult:
    """Outcome of ``solve_qcqp``.

    ``lam[k]`` is the multiplier of row k, in the caller's row order, and
    ``active`` the ascending indices of the rows with a positive multiplier
    (a valid ``warm_active`` for a nearby solve).
    """

    x: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int
    status: str
    active: tuple = ()


def row_values(A, h, S, quad, x):
    """Value of every row ``A x - h + quad (S x)^2`` at ``x`` (<= 0 feasible),
    for one row family, or for a stack of them with ``x`` stacked alike."""
    if x.ndim > 1:  # each family times its own point; the 1-D form is the hot one
        x = x[..., None]
        return (A @ x)[..., 0] - h + quad * (S @ x)[..., 0] ** 2
    return A @ x - h + quad * (S @ x) ** 2


class _Rows(NamedTuple):
    A: np.ndarray
    h: np.ndarray
    S: np.ndarray
    quad: float

    def values(self, x):
        return row_values(*self, x)

    def grads(self, x):
        """Row gradients ``A + 2 quad (S x) S``, one per row."""
        return self.A + (2.0 * self.quad * (self.S @ x))[:, None] * self.S

    def curvature(self, w):
        """Weighted sum of the row Hessians, ``2 quad S' diag(w) S``."""
        return 2.0 * self.quad * (self.S.T * w) @ self.S

    def take(self, idx):
        return _Rows(self.A[idx], self.h[idx], self.S[idx], self.quad)


def _kkt_residual(P, q, x, rows, lam):
    stat = P @ x + q + rows.grads(x).T @ lam
    f = rows.values(x)
    feas = float(f.max(initial=0.0))
    comp = float(np.abs(lam * f).max(initial=0.0))
    dual = float((-lam).max(initial=0.0))
    return max(float(np.abs(stat).max()), feas, comp, dual)


def _active_set_newton(P, q, rows, x, lam_map, max_iters=40, tol=None):
    """Newton on the stationarity + active-constraint equations.

    ``lam_map`` maps a row index to a multiplier guess.  The step is damped
    on the residual norm and stops once the residual is at most ``tol``
    (default 1e-12 (1 + max|q|)).  Returns (x, lam_map, iterations).
    """
    if tol is None:
        tol = 1e-12 * (1.0 + float(np.abs(q).max()))
    dim = x.size
    keys = sorted(lam_map)
    m = len(keys)
    act = rows.take(keys)

    def residual(xx, ll):
        grads = act.grads(xx)
        return grads, P @ xx + q + grads.T @ ll, act.values(xx)

    lam = np.array([lam_map[k] for k in keys])
    for it in range(max_iters):
        grads, F1, F2 = residual(x, lam)
        if max(float(np.abs(F1).max()), float(np.abs(F2).max(initial=0.0))) <= tol:
            break
        KKT = np.zeros((dim + m, dim + m))
        KKT[:dim, :dim] = P + act.curvature(lam)
        KKT[:dim, dim:] = grads.T
        KKT[dim:, :dim] = grads
        rhs = -np.concatenate([F1, F2])
        try:
            sol = np.linalg.solve(KKT, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        dx, dlam = sol[:dim], sol[dim:]
        # damp on the residual norm
        merit = float(F1 @ F1) + float(F2 @ F2)
        step = 1.0
        for _ in range(30):
            _, F1t, F2t = residual(x + step * dx, lam + step * dlam)
            if float(F1t @ F1t) + float(F2t @ F2t) <= merit * (1 - 1e-4 * step) or step < 1e-8:
                break
            step *= 0.5
        x = x + step * dx
        lam = lam + step * dlam
    return x, dict(zip(keys, lam)), it + 1


def _phase_one(rows, x0):
    """Find a strictly feasible point by minimizing the worst violation."""
    dim = x0.size
    x = x0.copy()
    worst = float(rows.values(x).max())
    t = worst + 1.0
    kappa = 1.0
    scale = 1.0 + abs(worst)
    for _ in range(60):
        # Newton on kappa*t - sum log(t - f_j)
        for _ in range(50):
            f = rows.values(x)
            worst = float(f.max())
            if worst < -1e-7 * scale:
                return x
            grads = rows.grads(x)
            inv = 1.0 / (t - f)
            KKT = np.zeros((dim + 1, dim + 1))
            KKT[:dim, :dim] = 1e-12 * np.eye(dim) + (grads.T * (inv * inv)) @ grads \
                + rows.curvature(inv)
            KKT[:dim, dim] = KKT[dim, :dim] = -grads.T @ (inv * inv)
            KKT[dim, dim] = float(inv @ inv)
            rhs = -np.concatenate([grads.T @ inv, [kappa - inv.sum()]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
            dx, dt = sol[:dim], sol[dim]
            # keep every log argument positive
            step = 1.0
            for _ in range(60):
                if np.all(t + step * dt - rows.values(x + step * dx) > 0):
                    break
                step *= 0.5
            x, t = x + step * dx, t + step * dt
            if float(np.abs(sol).max()) * step < 1e-12:
                break
        if worst < -1e-7 * scale:
            return x
        kappa *= 10.0
        if kappa > 1e12:
            break
    worst = float(rows.values(x).max())
    if worst < 0:
        return x
    raise InfeasibleProblem(f"constraint set numerically empty (min worst violation {worst:.3e})")


def _barrier(P, q, rows, x):
    """Central-path continuation from a strictly feasible point.

    Returns (x, lam) with multipliers read off the barrier gradient at the
    final weight.
    """
    m = rows.h.size

    def phi(eta, xx):
        f = rows.values(xx)
        if np.any(f >= 0):
            return np.inf
        return eta * (0.5 * float(xx @ P @ xx) + float(q @ xx)) - float(np.log(-f).sum())

    eta = 1.0
    for _ in range(40):
        for _ in range(60):
            grads = rows.grads(x)
            inv = -1.0 / rows.values(x)
            g = eta * (P @ x + q) + grads.T @ inv
            H = eta * P + (grads.T * (inv * inv)) @ grads + rows.curvature(inv)
            try:
                dx = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                dx = -np.linalg.lstsq(H, g, rcond=None)[0]
            decrement = -float(g @ dx)
            if decrement <= 2e-13 * (1 + eta):
                break
            base = phi(eta, x)
            step = 1.0
            for _ in range(60):
                if phi(eta, x + step * dx) <= base - 0.25 * step * decrement:
                    break
                step *= 0.5
            x = x + step * dx
            if step * float(np.abs(dx).max()) < 1e-14:
                break
        if m / eta < 1e-10:
            break
        eta *= 20.0
    return x, -1.0 / (eta * rows.values(x))


def solve_qcqp(P, q, A=None, h=None, S=None, quad=0.0, x0=None, warm_active=None,
               kkt_tol: float = 1e-9) -> QcqpResult:
    """Solve the QCQP to a target KKT residual.

    Parameters
    ----------
    P, q : quadratic objective data, P symmetric positive definite.
    A, h, S, quad : the rows ``A[k] x - h[k] + quad (S[k] x)^2 <= 0``; no
        rows when ``A`` is None, all rows linear when ``S`` is None.
    x0 : optional warm start point.
    warm_active : optional iterable of row indices tried as the initial
        active set before any barrier work.
    kkt_tol : target residual (stationarity, feasibility, complementarity).
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    if A is None:
        A, h = np.zeros((0, q.size)), np.zeros(0)
    rows = _Rows(A, h, np.zeros_like(A) if S is None else S, quad)
    m = h.size
    iterations = 0

    x_unc = np.linalg.solve(P, -q)
    if m == 0 or rows.values(x_unc).max() <= 0:
        return QcqpResult(x=x_unc, lam=np.zeros(m), kkt_residual=0.0, iterations=1,
                          status="optimal")

    def finish(x, lam_map, iters):
        lam = np.zeros(m)
        lam[list(lam_map)] = list(lam_map.values())
        res = _kkt_residual(P, q, x, rows, lam)
        status = "optimal" if res <= kkt_tol else "inaccurate"
        return QcqpResult(x=x, lam=lam, kkt_residual=res, iterations=iters, status=status,
                          active=tuple(sorted(k for k, l in lam_map.items() if l > 0)))

    def try_active_set(x_start, active, iters_budget=12, newton_tol=None):
        """Primal active-set loop: solve, then repair the working set."""
        nonlocal iterations
        lam_map = {k: 0.0 for k in active}
        x = x_start.copy()
        for _ in range(iters_budget):
            x, lam_map, its = _active_set_newton(P, q, rows, x, lam_map, tol=newton_tol)
            iterations += its
            # drop the most negative multiplier, if any
            neg = [(lam, k) for k, lam in lam_map.items() if lam < -1e-10]
            if neg:
                lam_map.pop(min(neg)[1])
                continue
            # add the most violated row, if any
            f = rows.values(x)
            viol = [(f[k], k) for k in np.flatnonzero(f > 1e-11).tolist() if k not in lam_map]
            if viol:
                lam_map[max(viol)[1]] = 0.0
                continue
            result = finish(x, {k: max(l, 0.0) for k, l in lam_map.items()}, iterations)
            return result if result.status == "optimal" else None
        return None

    if warm_active:
        result = try_active_set(x0 if x0 is not None else x_unc, list(warm_active))
        if result is not None:
            return result

    # barrier route
    if x0 is not None and rows.values(x0).max() < -1e-9:
        start = x0
    else:
        start = _phase_one(rows, x0 if x0 is not None else x_unc)
    x, lam = _barrier(P, q, rows, start)
    iterations += 1

    # polish: treat rows with multiplier above slack as active
    active = np.flatnonzero(lam >= -rows.values(x)).tolist()
    result = try_active_set(x, active)
    if result is not None:
        return result
    # fall back to the barrier point with its approximate multipliers
    fallback = finish(x, dict(enumerate(lam)), iterations)
    if fallback.status == "optimal":
        return fallback
    # The polish adds one weakly violated row per pass, so an optimum with
    # many weakly active rows can outlast the default budget, and Newton's
    # default stop, relative to max|q|, can sit above kkt_tol.  Retry with
    # room for every row and a stop below kkt_tol before settling for the
    # barrier point.
    newton_tol = min(1e-12 * (1.0 + float(np.abs(q).max())), 0.1 * kkt_tol)
    result = try_active_set(x, active, iters_budget=m, newton_tol=newton_tol)
    return result if result is not None else fallback
