"""Dense solver for small strongly convex QCQPs.

Solves  minimize 0.5 x'Px + q'x  subject to one family of rows

    A[k] x - h[k] + quad (S[k] x)^2 <= 0,

with P positive definite and quad >= 0: a row whose S is zero is linear,
any other is a convex rank-one quadratic.  This is the layout of
``problem.ConstraintSet.rows``.  Problems here have at most a few dozen
variables (per-agent proximal steps and the centralized reference solve),
so everything is dense and direct, vectorized over the rows.

Strategy: without a start point, the unconstrained minimizer, returned when
it is feasible and the start otherwise.  With a previous active set, a
primal active-set loop of Newton solves on the working rows from the
start.  Otherwise, or when that loop fails, one log-barrier central path
serves twice: phase one follows it on the problem of the worst violation
(from the start clipped into the box rows) to a strictly feasible point
when the start is not one, and the barrier over all rows follows it from
there.  The active-set loop, the polish, takes the barrier's point once
its active set has held for two continuation steps, and again at the end
of the path (m/eta < 1e-10), where the barrier point is the last answer.
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


def _central_path(P, q, rows, x, eta, growth, floor=False, inside=None):
    """Log-barrier continuation from the strictly feasible point ``x``.

    Centers on eta (0.5 x'Px + q'x) - sum log(-f_j(x)) by damped Newton,
    yields (x, eta) and grows eta by ``growth``, without end (S. Boyd &
    L. Vandenberghe, *Convex Optimization*, 2004, section 11.3).  Each step
    backtracks until the barrier objective falls by a fixed share of the
    predicted decrease (section 9.5), and a centering ends without moving
    where no step lowers it.  ``floor`` adds 1e-9 of the mean curvature to
    the Hessian, for an objective that leaves some direction unbent; a
    centering also ends once ``inside(x)`` holds.
    """
    dim = x.size

    def phi(eta, xx):
        f = rows.values(xx)
        if np.any(f >= 0):
            return np.inf
        return eta * (0.5 * float(xx @ P @ xx) + float(q @ xx)) - float(np.log(-f).sum())

    while True:
        for _ in range(60):
            if inside is not None and inside(x):
                break
            grads = rows.grads(x)
            inv = -1.0 / rows.values(x)
            g = eta * (P @ x + q) + grads.T @ inv
            H = eta * P + (grads.T * (inv * inv)) @ grads + rows.curvature(inv)
            if floor:
                H += (1e-12 + 1e-9 * np.trace(H) / dim) * np.eye(dim)
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
        yield x, eta
        eta *= growth


def _phase_one(rows, x0):
    """Find a strictly feasible point by minimizing the worst violation.

    The basic phase I of Boyd & Vandenberghe, section 11.4.1: the central
    path of minimize t subject to f_j(x) <= t, from ``x0`` clipped into the
    box rows with the first weight scaled to the violation (section
    11.3.1), stopped at the first x with every row below -1e-7 of that
    scale.  Its objective bends no coordinate that no row touches, hence
    the curvature floor.
    """
    dim = x0.size
    x = _box_clip(rows, x0)
    worst = float(rows.values(x).max())
    scale = 1.0 + abs(worst)

    def inside(y):
        return rows.values(y[:dim]).max() < -1e-7 * scale

    lifted = _Rows(np.hstack([rows.A, -np.ones((rows.h.size, 1))]), rows.h,
                   np.hstack([rows.S, np.zeros((rows.h.size, 1))]), rows.quad)
    e_t = np.zeros(dim + 1)
    e_t[dim] = 1.0
    for y, eta in _central_path(np.zeros((dim + 1, dim + 1)), e_t, lifted,
                                np.append(x, worst + 1.0), rows.h.size / scale, 10.0,
                                floor=True, inside=inside):
        if inside(y) or eta * 10.0 > 1e12:
            break
    worst = float(rows.values(y[:dim]).max())
    if worst < 0:
        return y[:dim]
    raise InfeasibleProblem(f"constraint set numerically empty (min worst violation {worst:.3e})")


def solve_qcqp(P, q, A=None, h=None, S=None, quad=0.0, x0=None, warm_active=None,
               kkt_tol: float = 1e-9) -> QcqpResult:
    """Solve the QCQP to a target KKT residual.

    Parameters
    ----------
    P, q : quadratic objective data, P symmetric positive definite.
    A, h, S, quad : the rows ``A[k] x - h[k] + quad (S[k] x)^2 <= 0``; no
        rows when ``A`` is None, all rows linear when ``S`` is None.
    x0 : optional start point; without one the solve starts from the
        unconstrained minimizer.
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

    if x0 is None or m == 0:
        x0 = np.linalg.solve(P, -q)
        if rows.values(x0).max(initial=0.0) <= 0:
            return QcqpResult(x=x0, lam=np.zeros(m), kkt_residual=0.0, iterations=1,
                              status="optimal")

    def finish(x, lam, f, stat):
        res = _kkt_residual(stat, lam, f)
        return QcqpResult(x=x, lam=lam, kkt_residual=res, iterations=iterations,
                          status="optimal" if res <= kkt_tol else "inaccurate",
                          active=tuple(np.flatnonzero(lam > 0).tolist()))

    newton_tol = 1e-12 * (1.0 + float(np.abs(q).max()))

    def try_active_set(x, active, iters_budget, newton_tol):
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
        result = try_active_set(x0, warm_active, 12, newton_tol)
        if result is not None:
            return result

    # barrier route
    start = x0 if rows.values(x0).max() < -1e-9 else _phase_one(rows, x0)
    iterations += 1
    # The polish adds one weakly violated row per pass, so an optimum with
    # many weakly active rows needs room for every row, and Newton's stop,
    # relative to max|q|, must sit below kkt_tol.
    polish_tol = min(newton_tol, 0.1 * kkt_tol)
    held, prev = 0, None
    for x, eta in _central_path(P, q, rows, start, 1.0, 20.0):
        # the multipliers read off the barrier gradient, and the rows whose
        # multiplier is at least their slack
        f = rows.values(x)
        lam = -1.0 / (eta * f)
        active = np.flatnonzero(lam >= -f).tolist()
        held = held + 1 if active == prev else 0
        prev = active
        done = m / eta < 1e-10
        if done or held == 2:
            result = try_active_set(x, active, m, polish_tol)
            if result is not None:
                return result
        if done:
            return finish(x, lam, f, _stationarity(P, q, x, rows, lam))
