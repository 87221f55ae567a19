"""Dense solver for small strongly convex QCQPs.

Solves  minimize 0.5 x'Px + q'x  subject to one family of rows

    A[k] x - h[k] + quad (S[k] x)^2 <= 0,

with P positive definite and quad >= 0: a row whose S is zero is linear,
any other is a convex rank-one quadratic.  This is the layout of
``problem.ConstraintSet.rows``.  Problems here have at most a few dozen
variables (per-agent proximal steps and the centralized reference solve),
so everything is dense and direct, vectorized over the rows.

Strategy: without a start point, the unconstrained minimizer, returned when
it is feasible and the start otherwise.  Then one log-barrier central path
serves twice: phase one follows it on the problem of the worst violation
(from the start clipped into the box rows) to a strictly feasible point
when the start is not one, and the barrier over all rows follows it from
there.  The primal active-set loop, the polish, takes the barrier's point
once its active set has held for two continuation steps, and again at the
end of the path (m/eta < 1e-10), where the barrier point is the last answer.

``active_set_loop`` runs over a stack of problems padded to common sizes:
each pass is one batched Newton solve on the working rows of the problems
still open and one test, and each problem that fails repairs its working
rows.  A distributed solver's round sends its agents' warm active sets
through it together; the polish sends the barrier's rows as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["QcqpResult", "InfeasibleProblem", "active_set_loop", "row_values", "solve_qcqp"]
KKT_TOL = 1e-9  # the KKT residual a solve must reach, unless the caller sets its own
# |q| above which an objective is solved scaled to unit |q|: random QCQPs end "inaccurate"
# unscaled from about 750; the built-in runs' solves reach 576 and keep their arithmetic.
Q_SCALE = 600.0


class InfeasibleProblem(RuntimeError):
    """Raised when phase one certifies an empty (or numerically empty)
    constraint set."""


@dataclass
class QcqpResult:
    """Outcome of ``solve_qcqp``.

    ``lam[k]`` is the multiplier of row k, in the caller's row order, and
    ``active`` the ascending indices of the rows with a positive multiplier
    (working rows from which ``active_set_loop`` can start a nearby solve).
    """

    x: np.ndarray
    lam: np.ndarray
    kkt_residual: float
    iterations: int
    status: str
    active: tuple = ()


def row_values(A, h, S, quad, x):
    """Value of every row ``A x - h + quad (S x)^2`` of one row family at one
    point ``x`` (<= 0 feasible); ``stacked_rows`` serves stacks."""
    return A @ x - h + quad * (S @ x) ** 2


def stacked_rows(A, h, S, quad, x):
    """(row values, each row's S x) of a stack of row families at ``x``."""
    x = x[..., None]
    Sx = (S @ x)[..., 0]
    return (A @ x)[..., 0] - h + quad * Sx ** 2, Sx


def row_grads(A, S, quad, Sx):
    """Row gradients ``A + 2 quad (S x) S``, from each row's ``S x``."""
    return A + (2.0 * quad * Sx)[..., None] * S


class _Rows(NamedTuple):
    A: np.ndarray
    h: np.ndarray
    S: np.ndarray
    quad: float

    def values(self, x):
        return row_values(*self, x)

    def grads(self, x):
        """Row gradients at x, one per row."""
        return row_grads(self.A, self.S, self.quad, self.S @ x)

    def curvature(self, w):
        """Weighted sum of the row Hessians, ``2 quad S' diag(w) S``."""
        return 2.0 * self.quad * (self.S.T * w) @ self.S


def _solve(J, b):
    """J^-1 b by LU, for one system or a stack; lstsq only for a singular one."""
    try:
        return np.linalg.solve(J, b)
    except np.linalg.LinAlgError:
        if J.ndim > 2:
            return np.array([_solve(Jj, bj) for Jj, bj in zip(J, b)])
        return np.linalg.lstsq(J, b, rcond=None)[0]


def _kkt_residual(stat, lam, f):
    """Worst of stationarity, feasibility and complementarity, per problem of
    a stack, from the Lagrangian gradient, multipliers >= 0 and row values."""
    return np.maximum(np.maximum(np.abs(stat).max(-1), f.max(-1, initial=0.0)),
                      np.abs(lam * f).max(-1, initial=0.0))


def _active_set_newton(P, q, rows, x, keys, lam, tol, max_iters=40):
    """Newton on the stationarity + active-constraint equations of a stack
    of problems: problem j is (P[j], q[j]) over its rows in ``rows``, with
    working rows ``keys[j]``, ascending, and their multiplier guesses
    ``lam[j]``.  The unknown is z = (x, lam) and the residual is K z + r, K
    the KKT matrix of the objective and the working rows' linear parts, plus
    the terms of the quadratic parts, if any row has one.  A key of -1 pads
    the working rows to a common count with a zero row and the equation
    lam = 0, so each step is one batched solve.  Each problem's step is
    damped on its own residual norm, and it stops once that is at most its
    ``tol``.  Returns (x, lam, steps of the slowest problem plus one, the
    stationarity part of the residual)."""
    k, dim = x.shape
    a = keys.shape[1]
    at = np.arange(k)[:, None]
    A, h, S = rows.A[at, keys], rows.h[at, keys], rows.S[at, keys]
    pad = keys < 0
    padded = np.count_nonzero(pad) > 0
    if padded:
        A[pad], h[pad], S[pad] = 0.0, 0.0, 0.0
    quad = rows.quad
    curved = quad != 0.0 and np.count_nonzero(S) > 0
    St = S.transpose(0, 2, 1)
    K = np.zeros((k, dim + a, dim + a))
    K[:, :dim, :dim] = P
    K[:, :dim, dim:] = A.transpose(0, 2, 1)
    K[:, dim:, :dim] = A
    if padded:
        K[:, np.arange(dim, dim + a), np.arange(dim, dim + a)] = pad
    r = np.concatenate([q, -h], axis=1)

    def residual(zz):
        F = (K @ zz[..., None])[..., 0] + r
        if not curved:
            return F, (F * F).sum(axis=1), None
        Sx = (S @ zz[:, :dim, None])[..., 0]
        F[:, :dim] += (St @ (2.0 * quad * Sx * zz[:, dim:])[..., None])[..., 0]
        F[:, dim:] += quad * Sx * Sx
        return F, (F * F).sum(axis=1), Sx

    z = np.concatenate([x, lam], axis=1)
    F, merit, Sx = residual(z)
    J = K.copy() if curved else K  # the Jacobian, K itself when every row is linear
    for it in range(max_iters):
        live = np.abs(F).max(axis=1) > tol
        if not np.count_nonzero(live):  # cheaper than live.any() on a small mask
            break
        if curved:
            grads = row_grads(A, S, quad, Sx)
            J[:, :dim, :dim] = P + 2.0 * quad * (St * z[:, None, dim:]) @ S
            J[:, :dim, dim:] = grads.transpose(0, 2, 1)
            J[:, dim:, :dim] = grads
        dz = _solve(J, -F[..., None])[..., 0]
        # damp each step on its own residual norm, halving down to 2**-27; a
        # converged problem takes step 0, a problem whose trial passes keeps
        # its step, and the last trial is the next iterate
        step = live * 1.0
        for _ in range(28):
            z_t = z + step[:, None] * dz
            F_t, merit_t, Sx_t = residual(z_t)
            ok = merit_t <= merit * (1 - 1e-4 * step)
            if np.count_nonzero(ok) == k:
                break
            step[~ok] *= 0.5
        z, F, merit, Sx = z_t, F_t, merit_t, Sx_t
    return z[:, :dim], z[:, dim:], it + 1, F[:, :dim]


def _accept(P, q, rows, x, keys, lam, stat, kkt_tol):
    """The test of a Newton solve's point, per problem of a stack: no
    multiplier below -1e-10, no row off the working set above 1e-11, and a
    KKT residual within ``kkt_tol`` at the multipliers clipped at zero.
    Returns (passed, the row values off the working set, -inf on it, with a
    last column for the padding keys, clipped multipliers, KKT residual)."""
    at = np.arange(len(x))[:, None]
    f = stacked_rows(*rows, x)[0]
    low = lam.min(axis=1, initial=0.0)
    full = np.maximum(lam, 0.0)
    clipped = low < 0.0
    if np.count_nonzero(clipped):  # a clipped multiplier moves the gradient
        S = rows.S[at, keys]
        grads = row_grads(rows.A[at, keys], S, rows.quad, (S @ x[..., None])[..., 0])
        again = (P @ x[..., None])[..., 0] + q
        again += (grads.transpose(0, 2, 1) @ full[..., None])[..., 0]
        stat = np.where(clipped[:, None], again, stat)
    off = np.concatenate([f, np.zeros_like(f[:, :1])], axis=1)  # padding keys read 0
    res = _kkt_residual(stat, full, off[at, keys])
    off[at, keys] = -np.inf
    passed = (low >= -1e-10) & (off.max(axis=1) <= 1e-11) & (res <= kkt_tol)
    return passed, off, full, res


def active_set_loop(P, q, rows, x, keys, budget, newton_tol, kkt_tol):
    """The primal active-set loop over a stack of problems: problem j is
    (P[j], q[j]) over its rows in ``rows``, a ``_Rows`` of stacked arrays,
    from ``x[j]`` with working rows ``keys[j]`` (ascending, padded with -1).
    Each pass runs one Newton solve of the problems still open, from their
    last points and multipliers, to ``newton_tol`` (per problem or one for
    all), and one test at ``kkt_tol``.  A problem that fails drops its most
    negative multiplier, or else adds its most violated row off the working
    set, the last of equal rows, if its gradient is independent of theirs
    (Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 16.5), or
    else gives up, as it does when still open after ``budget`` passes.
    Returns (x, the multipliers of the last working rows clipped at zero,
    those rows, passed, KKT residual, Newton iterations)."""
    x, lam, its, stat = _active_set_newton(P, q, rows, x, keys, np.zeros(keys.shape), newton_tol)
    passed, off, full, res = _accept(P, q, rows, x, keys, lam, stat, kkt_tol)
    if np.count_nonzero(passed) == len(x):
        return x, full, keys, passed, res, its
    k, m = len(x), off.shape[1] - 1
    out_keys, out_lam = np.full((k, m), -1), np.zeros((k, m))
    out_keys[:, :keys.shape[1]], out_lam[:, :keys.shape[1]] = keys, full
    tol = np.broadcast_to(newton_tol, (k,))
    idx = np.flatnonzero(~passed)
    keys, lam, off = keys[idx], lam[idx], off[idx]
    for _ in range(budget - 1):
        drop = lam.min(axis=1, initial=0.0) < -1e-10
        add = m - 1 - off[:, m - 1::-1].argmax(axis=1)
        keys = np.concatenate([keys, np.where(drop, -1, add)[:, None]], axis=1)
        lam = np.concatenate([lam, np.zeros((len(lam), 1))], axis=1)
        worst = lam.argmin(axis=1)[drop]
        keys[drop, worst], lam[drop, worst] = -1, 0.0
        live = drop | (off.max(axis=1) > 1e-11)  # the others give up
        grow = np.flatnonzero(live & ~drop)
        if grow.size:  # the rank of the working and added rows' gradients at x
            at, on = idx[grow, None], keys[grow]
            S = rows.S[at, on] * (on >= 0)[..., None]
            sv = np.linalg.svd(row_grads(rows.A[at, on] * (on >= 0)[..., None], S, rows.quad,
                                         (S @ x[at[:, 0], :, None])[..., 0]), compute_uv=False)
            rank = np.count_nonzero(sv > 1e-12 * sv[:, :1], axis=1)
            live[grow[rank < np.count_nonzero(on >= 0, axis=1)]] = False
        idx, keys, lam = idx[live], keys[live], lam[live]
        if not idx.size:
            break
        order = np.argsort(np.where(keys < 0, m, keys), axis=1, kind="stable")
        width = np.count_nonzero(keys >= 0, axis=1).max()
        keys, lam = (np.take_along_axis(a, order[:, :width], 1) for a in (keys, lam))
        one = P[idx], q[idx], _Rows(rows.A[idx], rows.h[idx], rows.S[idx], rows.quad)
        x[idx], lam, step_its, stat = _active_set_newton(*one, x[idx], keys, lam, tol[idx])
        ok, off, full, res[idx] = _accept(*one, x[idx], keys, lam, stat, kkt_tol)
        its += step_its
        passed[idx] = ok
        out_keys[idx, :width], out_keys[idx, width:] = keys, -1
        out_lam[idx, :width], out_lam[idx, width:] = full, 0.0
        idx, keys, lam, off = idx[~ok], keys[~ok], lam[~ok], off[~ok]
    return x, out_lam, out_keys, passed, res, its


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
            dx = -_solve(H, g)
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


def solve_qcqp(P, q, A=None, h=None, S=None, quad=0.0, x0=None,
               kkt_tol: float = KKT_TOL) -> QcqpResult:
    """Solve the QCQP to a target KKT residual.

    Parameters
    ----------
    P, q : quadratic objective data, P symmetric positive definite.
    A, h, S, quad : the rows ``A[k] x - h[k] + quad (S[k] x)^2 <= 0``; no
        rows when ``A`` is None, all rows linear when ``S`` is None.
    x0 : optional start point; without one the solve starts from the
        unconstrained minimizer.
    kkt_tol : target residual (stationarity, feasibility, complementarity),
        absolute, so an objective with |q| above ``Q_SCALE`` is solved divided
        by max |q|: same minimizer, multipliers scaled back.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    big = float(np.abs(q).max(initial=0.0))
    if big > Q_SCALE:
        res = solve_qcqp(P / big, q / big, A, h, S, quad, x0, kkt_tol)
        res.lam = res.lam * big
        return res
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

    def finish(x, lam, res):
        return QcqpResult(x=x, lam=lam, kkt_residual=float(res), iterations=iterations,
                          status="optimal" if res <= kkt_tol else "inaccurate",
                          active=tuple(np.flatnonzero(lam > 0).tolist()))

    # barrier route
    start = x0 if rows.values(x0).max() < -1e-9 else _phase_one(rows, x0)
    iterations += 1
    # The polish adds one weakly violated row per pass, so an optimum with
    # many weakly active rows needs room for every row, and Newton's stop,
    # relative to max|q|, must sit below kkt_tol.
    polish_tol = min(1e-12 * (1.0 + float(np.abs(q).max())), 0.1 * kkt_tol)
    one = P[None], q[None], _Rows(A[None], h[None], rows.S[None], quad)
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
            xs, full, keys, passed, res, its = active_set_loop(
                *one, x[None], np.array([active], dtype=int), m, polish_tol, kkt_tol)
            iterations += its
            if passed[0]:
                lam = np.zeros(m + 1)  # padding keys hit the last entry
                lam[keys[0]] = full[0]
                return finish(xs[0], lam[:m], res[0])
        if done:
            return finish(x, lam, _kkt_residual(P @ x + q + rows.grads(x).T @ lam, lam, f))
