"""Dense solver for small strongly convex QCQPs.

Solves  minimize 0.5 x'Px + q'x  subject to one family of rows

    A[k] x - h[k] + quad (S[k] x)^2 <= 0,

with P positive definite and quad >= 0: a row whose S is zero is linear,
any other is a convex rank-one quadratic.  This is the layout of
``problem.ConstraintSet.rows``.  Problems here have at most a few dozen
variables (per-agent proximal steps and the centralized reference solve),
so everything is dense and direct, vectorized over the rows.

Strategy: an unconstrained fast path; then, when the caller supplies a
previous active set, a primal active-set loop of Newton solves on the
working rows from the caller's point.  Otherwise, or when that loop fails,
log-barrier continuation over all rows from a strictly feasible point
(phase one finds one from the start clipped into the box rows when the
start is not) hands its point to the same active-set loop, the polish, once
the barrier's active set has held for two continuation steps.  If the
polish fails there, the continuation resumes to its full depth (m/eta <
1e-10) and the polish, the barrier point and a polish with a wider budget
are tried in turn.
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


def _stationarity(P, q, x, rows, lam):
    """Gradient of the Lagrangian at (x, lam), over the rows with a nonzero
    multiplier."""
    on = np.flatnonzero(lam)
    return P @ x + q + rows.take(on).grads(x).T @ lam[on]


def _kkt_residual(stat, lam, f):
    """Worst of stationarity, feasibility, complementarity and dual sign,
    from the Lagrangian gradient ``stat``, the multipliers and the row
    values."""
    feas = float(f.max(initial=0.0))
    comp = float(np.abs(lam * f).max(initial=0.0))
    dual = float((-lam).max(initial=0.0))
    return max(float(np.abs(stat).max()), feas, comp, dual)


def _active_set_newton(P, q, rows, x, keys, lam, tol, max_iters=40):
    """Newton on the stationarity + active-constraint equations.

    ``keys`` are the working rows, ascending, and ``lam`` their multiplier
    guesses.  The unknown is z = (x, lam) and the residual is K z + r, K the
    KKT matrix of the objective and the rows' linear parts, plus the terms
    of the quadratic parts, if any row has one.  The step is damped on the
    residual norm and stops once the residual is at most ``tol``.  Returns
    (x, lam, iterations, stationarity part of the final residual).
    """
    dim = x.size
    A, h, S, quad = rows.take(keys)
    curved = quad != 0.0 and S.any()
    K = np.zeros((dim + len(keys),) * 2)
    K[:dim, :dim] = P
    K[:dim, dim:] = A.T
    K[dim:, :dim] = A
    r = np.concatenate([q, -h])
    J = np.zeros_like(K) if curved else K  # the Jacobian, K itself when every row is linear

    def residual(zz):
        F = K @ zz + r
        if not curved:
            return F, float(F @ F), None
        Sx = S @ zz[:dim]
        F[:dim] += S.T @ (2.0 * quad * Sx * zz[dim:])
        F[dim:] += quad * Sx * Sx
        return F, float(F @ F), Sx

    z = np.concatenate([x, lam])
    F, merit, Sx = residual(z)
    for it in range(max_iters):
        if float(np.abs(F).max()) <= tol:
            break
        if curved:
            grads = A + (2.0 * quad * Sx)[:, None] * S
            J[:dim, :dim] = P + 2.0 * quad * (S.T * z[dim:]) @ S
            J[:dim, dim:] = grads.T
            J[dim:, :dim] = grads
        try:
            dz = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            dz = np.linalg.lstsq(J, -F, rcond=None)[0]
        # damp on the residual norm; the accepted trial is the next iterate
        step = 1.0
        for _ in range(30):
            z_t = z + step * dz
            trial = residual(z_t)
            if trial[1] <= merit * (1 - 1e-4 * step) or step < 1e-8:
                break
            step *= 0.5
        z, (F, merit, Sx) = z_t, trial
    return z[:dim], z[dim:], it + 1, F[:dim]


def _box_clip(rows, x):
    """``x`` clipped into the box rows: the linear rows with one nonzero
    coefficient, each an upper or a lower bound on one coordinate."""
    single = (np.count_nonzero(rows.A, axis=1) == 1) & ~(rows.quad * rows.S).any(axis=1)
    k = np.flatnonzero(single)
    col = np.abs(rows.A[k]).argmax(axis=1)
    coef = rows.A[k, col]
    bound = rows.h[k] / coef
    lo, hi = np.full(x.size, -np.inf), np.full(x.size, np.inf)
    np.maximum.at(lo, col[coef < 0], bound[coef < 0])
    np.minimum.at(hi, col[coef > 0], bound[coef > 0])
    return np.minimum(np.maximum(x, lo), hi)


def _phase_one(rows, x0):
    """Find a strictly feasible point by minimizing the worst violation.

    The basic phase I of S. Boyd & L. Vandenberghe, *Convex Optimization*,
    2004, section 11.4.1: minimize t subject to f_j(x) <= t by barrier
    continuation on kappa t - sum log(t - f_j(x)), starting from ``x0``
    clipped into the box rows with the first kappa scaled to the violation
    (section 11.3.1), and stopping at the first x with every row strictly
    negative.  Each Newton step, its curvature floored so that its
    condition stays bounded, backtracks until that objective falls by a
    fixed share of the predicted decrease (section 9.5), so each centering
    converges from any start.
    """
    dim = x0.size
    x = _box_clip(rows, x0)
    f = rows.values(x)
    worst = float(f.max())
    t = worst + 1.0
    scale = 1.0 + abs(worst)
    kappa = rows.h.size / scale  # m / kappa about the gap to close

    def phi(xx, tt):
        gap = tt - rows.values(xx)
        return kappa * tt - float(np.log(gap).sum()) if (gap > 0).all() else np.inf

    for _ in range(60):
        # Newton on kappa*t - sum log(t - f_j)
        for _ in range(50):
            if worst < -1e-7 * scale:
                return x
            grads = rows.grads(x)
            inv = 1.0 / (t - f)
            KKT = np.zeros((dim + 1, dim + 1))
            H = (grads.T * (inv * inv)) @ grads + rows.curvature(inv)
            # floor the curvature so that the directions no row bends stay finite
            KKT[:dim, :dim] = H + (1e-12 + 1e-9 * np.trace(H) / dim) * np.eye(dim)
            KKT[:dim, dim] = KKT[dim, :dim] = -grads.T @ (inv * inv)
            KKT[dim, dim] = float(inv @ inv)
            rhs = -np.concatenate([grads.T @ inv, [kappa - inv.sum()]])
            try:
                sol = np.linalg.solve(KKT, rhs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
            decrement = float(rhs @ sol)
            if decrement <= 1e-14 * (1.0 + abs(t)):
                break
            dx, dt = sol[:dim], sol[dim]
            base, step = phi(x, t), 1.0
            for _ in range(60):
                if phi(x + step * dx, t + step * dt) <= base - 0.25 * step * decrement:
                    break
                step *= 0.5
            else:
                break  # no descent left at this kappa
            x, t = x + step * dx, t + step * dt
            f = rows.values(x)
            worst = float(f.max())
        if worst < -1e-7 * scale:
            return x
        kappa *= 10.0
        if kappa > 1e12:
            break
    if worst < 0:
        return x
    raise InfeasibleProblem(f"constraint set numerically empty (min worst violation {worst:.3e})")


def _barrier(P, q, rows, x):
    """Central-path continuation from a strictly feasible point.

    Yields (x, lam, f, active): x, the multipliers read off the barrier
    gradient, the row values and the active rows (those whose multiplier is
    at least their slack), first once the active rows have held for two
    continuation steps, and then, when resumed, at the end of the path,
    m/eta < 1e-10.
    A centering ends without moving where its line search finds no step
    that lowers the barrier merit.
    """
    m = rows.h.size

    def phi(eta, xx):
        f = rows.values(xx)
        if np.any(f >= 0):
            return np.inf
        return eta * (0.5 * float(xx @ P @ xx) + float(q @ xx)) - float(np.log(-f).sum())

    eta = 1.0
    held, prev = 0, None
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
            else:
                break  # no step lowers the merit: keep the point
            x = x + step * dx
            if step * float(np.abs(dx).max()) < 1e-14:
                break
        f = rows.values(x)
        lam = -1.0 / (eta * f)
        active = np.flatnonzero(lam >= -f).tolist()
        held = held + 1 if active == prev else 0
        prev = active
        done = m / eta < 1e-10
        if done or held == 2:
            yield x, lam, f, active
        if done:
            return
        eta *= 20.0


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

    def finish(x, lam, f, stat):
        res = _kkt_residual(stat, lam, f)
        return QcqpResult(x=x, lam=lam, kkt_residual=res, iterations=iterations,
                          status="optimal" if res <= kkt_tol else "inaccurate",
                          active=tuple(np.flatnonzero(lam > 0).tolist()))

    newton_tol = 1e-12 * (1.0 + float(np.abs(q).max()))

    def try_active_set(x, active, iters_budget=12, newton_tol=newton_tol):
        """Primal active-set loop: solve, then repair the working set."""
        nonlocal iterations
        keys = sorted(active)
        lam = np.zeros(len(keys))
        for _ in range(iters_budget):
            x, lam, its, stat = _active_set_newton(P, q, rows, x, keys, lam, newton_tol)
            iterations += its
            # drop the most negative multiplier, if any
            if lam.size and lam.min() < -1e-10:
                j = int(lam.argmin())
                del keys[j]
                lam = np.delete(lam, j)
                continue
            # add the most violated row, if any (the last of equals)
            f = rows.values(x)
            viol = f > 1e-11
            viol[keys] = False
            if viol.any():
                idx = np.flatnonzero(viol)
                k = int(idx[f[idx] == f[idx].max()][-1])
                j = int(np.searchsorted(keys, k))
                keys.insert(j, k)
                lam = np.insert(lam, j, 0.0)
                continue
            full = np.zeros(m)
            full[keys] = np.maximum(lam, 0.0)
            if lam.min(initial=0.0) < 0.0:  # a clipped multiplier moves the gradient
                stat = _stationarity(P, q, x, rows, full)
            result = finish(x, full, f, stat)
            return result if result.status == "optimal" else None
        return None

    if warm_active:
        result = try_active_set(x0 if x0 is not None else x_unc, warm_active)
        if result is not None:
            return result

    # barrier route
    if x0 is not None and rows.values(x0).max() < -1e-9:
        start = x0
    else:
        start = _phase_one(rows, x0 if x0 is not None else x_unc)
    iterations += 1
    for x, lam, f, active in _barrier(P, q, rows, start):
        result = try_active_set(x, active)  # the polish
        if result is not None:
            return result
    # fall back to the barrier point with its approximate multipliers
    fallback = finish(x, lam, f, _stationarity(P, q, x, rows, lam))
    if fallback.status == "optimal":
        return fallback
    # The polish adds one weakly violated row per pass, so an optimum with
    # many weakly active rows can outlast the default budget, and Newton's
    # default stop, relative to max|q|, can sit above kkt_tol.  Retry with
    # room for every row and a stop below kkt_tol before settling for the
    # barrier point.
    result = try_active_set(x, active, iters_budget=m,
                            newton_tol=min(newton_tol, 0.1 * kkt_tol))
    return result if result is not None else fallback
