"""Distributed operator-splitting solvers for the per-step program.

One loop, ``_iterate``, runs every scheme: a consensus projection over the
vehicle graph, then one batched step in which every agent maps its own
slice of the iterate, the run's ``AgentStack`` raveled, until every agent's
increment is small.  Each control step adds only its linear terms,
constraint rows and the agents' warm memory (``LocalProblems``).
``_AgentBatch`` evaluates every closed-form candidate at once, and the rows
only when a candidate has left the ball its last check certified (safe
screening, El Ghaoui, Viallon & Rabbani, 2012); only an agent whose
candidate breaks a row solves its small QCQP with ``smallqcqp``.
The schemes differ in the candidate:

* ``solve_dr``: relaxed proximal step; each agent's candidate is the
  unconstrained proximal point, kept when its constraints are inactive.
* ``solve_three_op``: forward step on the smooth quadratic plus a
  Euclidean projection onto the local constraint set.
* ``solve_three_op_accel``: the same operators at a momentum point with an
  adaptive step size; the iterate error decays like O(1/(k+1)).

The warm start ``warmup_initial_guess`` needs no loop: one elimination sweep
along the chain and back (2(n - 1) sequential neighbor messages) solves the
constraint-free program exactly; one batched projection then puts each
agent's block into its constraint set.

Agents never read non-neighbor data: every cross-agent value moves through
the consensus projection, ``consensus._project``, or the sweep's messages.
A run's message fabric counts both, and checks that they cross only chain
edges.  A centralized reference solver provides the "true" solution for
accuracy metrics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .consensus import MessageFabric, VehicleGraph, _project
from .decomposition import AgentStack
from .problem import ConstraintSet, QcqpProblem
from .smallqcqp import (KKT_TOL, InfeasibleProblem, _Rows, active_set_loop, row_grads,
                        solve_qcqp, stacked_rows)

__all__ = [
    "SolverParams",
    "SolveReport",
    "LocalProblems",
    "ProxSolveError",
    "default_params_for_horizon",
    "build_local_problems",
    "accel_gamma_next",
    "solve_dr",
    "solve_three_op",
    "solve_three_op_accel",
    "solve_centralized",
    "warmup_initial_guess",
]

_WARM_STARTS = ("prev-solution", "warmup-projection")
_FEASIBLE_TOL = 1e-11  # a candidate whose rows all read at most this stands


class ProxSolveError(RuntimeError):
    """A per-agent proximal subproblem failed; carries the agent index."""

    def __init__(self, agent: int, message: str):
        super().__init__(f"agent {agent}: {message}")
        self.agent = agent


@dataclass(frozen=True)
class SolverParams:
    """Tuning constants of the distributed solvers, validated on
    construction; derive a variant with ``dataclasses.replace``.

    ``tol`` is the global stopping tolerance on consecutive iterates; each
    agent checks its own block against tol/n and the stop flag is combined
    over the graph (an O(diameter) flag flood in a real deployment; the
    simulation treats it as an all-reduce).
    """

    variant: str = "dr"
    alpha: float = 0.95
    rho: float = 0.3
    eta: float = 0.2
    tol: float = 1e-3
    max_iters: int = 5000
    warm_start: str = "prev-solution"

    def __post_init__(self):
        if self.variant not in SOLVERS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.0 < self.rho < np.inf):
            raise ValueError("rho must be positive and finite")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")
        if not (0.0 < self.tol < np.inf):
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.warm_start not in _WARM_STARTS:
            raise ValueError(f"unknown warm start {self.warm_start!r}")


def default_params_for_horizon(p: int, variant: str = "dr") -> SolverParams:
    """Relaxation, proximal weight, and tolerance per horizon length."""
    table = {
        1: (0.95, 0.3, 1e-3),
        2: (0.95, 0.3, 2e-3),
        3: (0.95, 0.3, 5e-3),
        4: (0.8, 0.1, 7e-3),
        5: (0.8, 0.1, 1.25e-2),
    }
    alpha, rho, tol = table.get(p, table[5])
    return SolverParams(variant=variant, alpha=alpha, rho=rho, tol=tol)


@dataclass(frozen=True)
class LocalProblems:
    """One control step's agent data over a run's ``stack``: the padded
    linear terms ``C`` (n, D), the step's constraint set and every agent's
    rows over its segment, ``rows`` (n, 5p, D), the skeleton's first D columns.
    Padded coordinates are zero in every stack and every point, so they add
    nothing to a product or a row value.

    ``warm[i]`` is agent i's memory of its last full subsolve of each kind
    ("prox subproblem", "projection"): the point, padded like ``C``, and
    the active rows, the start of its next full solve of that kind.  Solvers
    read it and never write it; the next step's problems take it from
    ``SolveReport.warm``.
    """

    stack: AgentStack
    C: np.ndarray
    constraints: ConstraintSet
    rows: tuple
    warm: tuple

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return (self.stack.H @ W[..., None])[..., 0] + self.C

    def failing(self, X: np.ndarray):
        """One evaluation of every row at X: the agents i whose X[i] breaks a
        row (NaN does), found with one max when none does, the row values and
        each row's S X, from which ``radii`` reads the ball about X."""
        values, Sx = stacked_rows(*self.rows, self.constraints.quad, X)
        if values.max() <= _FEASIBLE_TOL:
            return [], values, Sx
        return (~(values.max(axis=1) <= _FEASIBLE_TOL)).nonzero()[0].tolist(), values, Sx

    def radii(self, values: np.ndarray, Sx: np.ndarray) -> np.ndarray:
        """Each row's certified radius, (n, 5p), about the X at which
        ``failing`` read ``values`` and ``Sx``: with v the row's value, g its
        gradient norm and c = quad |s|^2, row(X + d) <= v + g |d| + c |d|^2
        exactly, so it stays at or below v/2 for |d| <= 2 sigma / (g +
        sqrt(g^2 + 4 c sigma)), sigma = -v/2; 0 for a row at or above 0."""
        A, _, S = self.rows
        quad = self.constraints.quad
        sigma = np.maximum(-0.5 * values, 0.0)
        G = row_grads(A, S, quad, Sx)
        g = np.sqrt(np.einsum("...k,...k", G, G))
        den = g + np.sqrt(g * g + 4.0 * quad * np.einsum("...k,...k", S, S) * sigma)
        return np.divide(2.0 * sigma, den, out=np.zeros_like(den), where=den > 0)


def build_local_problems(prob: QcqpProblem, stack: AgentStack, warm=None) -> LocalProblems:
    """The step program's per-agent data over the run's agent stack.
    ``warm``, one entry per agent (a previous ``SolveReport.warm``), seeds
    each agent's subsolver memory."""
    n, p = stack.n, stack.p
    if (prob.n, prob.horizon) != (n, p):
        raise ValueError("the step program does not match the agent stack")
    C = np.zeros(stack.H.shape[:2])
    C[:, :p] = prob.c.reshape(n, p)
    return LocalProblems(stack, C, prob.constraints, prob.constraints.rows(C.shape[1]),
                         tuple(warm) if warm is not None else ({},) * n)


class _AgentBatch:
    """One solve's state over a step's ``problems``: the fast and full
    counts, the certified ball and the agents' warm memory.

    ``prox`` and ``project`` map every agent's point at once: each agent's
    closed-form candidate stands when it meets all the agent's rows (the
    fast path); only the agents whose candidate breaks a row solve their
    QCQP.  A round whose rows were evaluated and all stand keeps its
    candidates and that evaluation as the ``ball``, whose radius r, the
    smallest row radius (``LocalProblems.radii``), is computed at its first
    use (a warm-up's one projection never needs it).  A later round with
    sum_i |X_i - anchor_i|^2 <= r^2 stands without evaluating a row; a round
    with a failing agent drops the ball.  Every decision is the one that
    evaluating the rows would make: within the ball each row stays at or
    below half its anchor value, below 0 by far more than its rounding.
    ``warm`` holds each agent's last full solve of each kind, its point and
    active rows: copied from the problems' ``warm`` and updated by every
    full solve, it carries an agent's active set across rounds and, through
    ``SolveReport.warm``, across control steps.  A round's failing agents
    that hold memory of the kind run one stacked active-set loop
    (``smallqcqp.active_set_loop``); an agent that holds none calls
    ``solve_qcqp`` cold, and one whose loop gives up calls it from its warm
    point.  With ``rho``, the proximal maps come from the stack.
    """

    def __init__(self, problems: LocalProblems, graph: VehicleGraph, rho: float | None = None):
        stack = problems.stack
        if graph.n != stack.n:
            raise ValueError(f"graph has {graph.n} vehicles, the agent stack {stack.n}")
        self.problems, self.stack, self.rho = problems, stack, rho
        if rho is not None:
            self.prox_mat, self.prox_hess = stack.prox(rho)
            self.rho_C = rho * problems.C
        self.calls = 0
        self.full = [0] * stack.n
        self.warm = [dict(w) for w in problems.warm]
        self.ball = None  # (anchor, row values, S anchor) of the last all-standing check
        self.radius2 = None  # the ball's squared radius, once computed
        self._eye = np.broadcast_to(np.eye(stack.H.shape[-1]), stack.H.shape)

    def prox(self, Y: np.ndarray) -> np.ndarray:
        """Every agent's proximal step of its objective at Y[i]."""
        C = self.problems.C
        X = (self.prox_mat @ (Y - self.rho_C)[..., None])[..., 0]
        return self._constrained(X, "prox subproblem", lambda i: (
            self.prox_hess[i], C[i] - Y[i] / self.rho))

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Every agent's Euclidean projection of Y[i] onto its constraint set."""
        return self._constrained(Y.copy(), "projection", lambda i: (self._eye[i], -Y[i]))

    def _constrained(self, X, kind, objective):
        """``X`` with each row i that breaks agent i's constraints replaced
        by the minimizer of 1/2 x'Px + q'x over them, (P, q) = objective(i)
        stacked and padded for the agents ``i``."""
        self.calls += 1
        if self.ball is not None:
            anchor, values, Sx = self.ball
            if self.radius2 is None:
                self.radius2 = self.problems.radii(values, Sx).min() ** 2
            d = (X - anchor).ravel()
            if d @ d <= self.radius2:  # every row stands (a NaN is never inside)
                return X
        failing, values, Sx = self.problems.failing(X)
        self.ball = None if failing else (X.copy(), values, Sx)
        self.radius2 = None
        held = [i for i in failing if kind in self.warm[i]]
        taken = self._warm_loop(X, kind, objective, held) if held else ()
        for i in failing:
            self.full[i] += 1
            if i not in taken:
                self._solve(X, i, kind, objective)
        return X

    def _warm_loop(self, X, kind, objective, agents):
        """Run the ``agents``' warm active sets through one stacked loop;
        write the passing agents' points and memory, and return them."""
        memory = [self.warm[i][kind] for i in agents]
        A, h, S = self.problems.rows
        rows = _Rows(A[agents], h[agents], S[agents], self.problems.constraints.quad)
        a = max(len(on) for _, on in memory)
        keys = np.array([on + (-1,) * (a - len(on)) for _, on in memory], dtype=int)
        P, q = objective(agents)
        x, lam, keys, ok, _, _ = active_set_loop(
            P, q, rows, np.array([x for x, _ in memory]), keys, 12,
            1e-12 * (1.0 + np.abs(q).max(axis=1)), KKT_TOL)
        taken = [i for i, passed in zip(agents, ok.tolist()) if passed]
        X[taken] = x = x[ok]
        for i, xi, on in zip(taken, x, np.where(lam[ok] > 0, keys[ok], -1).tolist()):
            self.warm[i][kind] = (xi, tuple(k for k in on if k >= 0))
        return taken

    def _solve(self, X, i, kind, objective):
        d = self.stack.layout.dims[i]
        (P,), (q,) = objective([i])
        A, h, S = self.problems.rows
        x = self.warm[i].get(kind, (None,))[0]
        try:
            res = solve_qcqp(P[:d, :d], q[:d], A[i, :, :d], h[i], S[i, :, :d],
                             self.problems.constraints.quad, x0=None if x is None else x[:d])
        except InfeasibleProblem as exc:
            raise ProxSolveError(i, f"{kind}: {exc}") from exc
        if res.status != "optimal":
            raise ProxSolveError(i, f"{kind} stuck at KKT residual {res.kkt_residual:.2e}")
        X[i, :d] = res.x
        self.warm[i][kind] = (X[i].copy(), res.active)


@dataclass
class SolveReport:
    """Outcome of a distributed solve.

    ``agent_prox_stats[i]`` counts (closed-form fast path, full subsolver)
    proximal evaluations of agent i, and ``warm[i]`` is agent i's subsolver
    memory after the solve (``LocalProblems.warm`` of the next step).
    """

    u_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    prox_fast: int = 0
    prox_full: int = 0
    agent_prox_stats: tuple = ()
    z_final: np.ndarray | None = None
    residual_trace: list = field(default_factory=list)
    warm: tuple = ()


def _iterate(batch, params, step, z0=None, fabric=None, momentum=None):
    """The iteration loop of every splitting scheme.

    Each round projects onto the consensus subspace (one ``_project`` call,
    which ``fabric``, when given, counts), maps every agent's own slice at
    once with ``step(Z, W)``, Z and W the iterate (padding 0, whatever
    ``z0`` holds there) and the projected point reshaped to the agents'
    padded stack, and stops once each agent's increment is at most tol/n.
    The projected point is the current iterate, or ``momentum(z, w)`` when
    given, with ``w`` the previous projection.
    """
    layout = batch.stack.layout

    def project(vec):
        if fabric is not None:
            fabric.projection(layout)
        return _project(vec, layout)

    starts = np.arange(0, layout.dim, layout.width)
    per_agent_tol = params.tol / len(starts)
    z = np.zeros(layout.dim) if z0 is None else np.where(layout.owner < 0, 0.0, z0)
    w = project(z)
    trace = []  # one residual ||z_new - z|| per round
    converged = False
    for _ in range(params.max_iters):
        if momentum is not None:
            w = project(momentum(z, w))
        z_new = step(z.reshape(-1, layout.width), w.reshape(-1, layout.width)).ravel()
        dz = z_new - z
        trace.append(math.sqrt(dz @ dz))  # the flat norm, as np.linalg.norm sums it
        z = z_new
        if math.sqrt(np.add.reduceat(dz * dz, starts).max()) <= per_agent_tol:
            converged = True
            break
        if momentum is None:
            w = project(z)

    full = batch.full
    return SolveReport(
        u_star=layout.stack_controls(w),
        iterations=len(trace),
        residual=trace[-1] if trace else np.inf,
        converged=converged,
        prox_fast=batch.calls * len(full) - sum(full),
        prox_full=sum(full),
        agent_prox_stats=tuple((batch.calls - f, f) for f in full),
        z_final=z,
        residual_trace=trace,
        warm=tuple(batch.warm),
    )


def solve_dr(problems: LocalProblems, graph: VehicleGraph, params: SolverParams, z0=None,
             fabric: MessageFabric | None = None) -> SolveReport:
    """Relaxed proximal splitting over the consensus subspace.

    Each round projects the stacked iterate onto the consensus subspace,
    then every agent applies its proximal map to the reflected point and
    relaxes.  Agents stop once every local increment falls below tol/n.
    """
    batch = _AgentBatch(problems, graph, params.rho)
    two_alpha = 2.0 * params.alpha

    def step(Z, W):
        return Z + two_alpha * (batch.prox(2.0 * W - Z) - W)

    return _iterate(batch, params, step, z0, fabric)


def accel_gamma_next(gamma: float, mut: float) -> float:
    """Step-size recursion of the accelerated scheme; with mut = 0 it
    leaves gamma unchanged."""
    return -mut * gamma ** 2 + np.sqrt((mut * gamma ** 2) ** 2 + gamma ** 2)


def solve_three_op(problems: LocalProblems, graph: VehicleGraph, params: SolverParams,
                   z0=None, fabric: MessageFabric | None = None) -> SolveReport:
    """Forward-backward style splitting with a gradient step on the smooth
    quadratic and a projection onto the local constraint sets."""
    batch = _AgentBatch(problems, graph)
    gamma = 1.9 / problems.stack.L
    lam = 0.999 * (2.0 - gamma * problems.stack.L / 2.0)

    def step(Z, W):
        return Z + lam * (batch.project(2.0 * W - Z - gamma * problems.gradient(W)) - W)

    return _iterate(batch, params, step, z0, fabric)


def solve_three_op_accel(problems: LocalProblems, graph: VehicleGraph, params: SolverParams,
                         z0=None, fabric: MessageFabric | None = None) -> SolveReport:
    """Accelerated variant with the adaptive step-size recursion

        gamma_{k+1} = -mu~ gamma_k^2 + sqrt((mu~ gamma_k^2)^2 + gamma_k^2),

    where mu~ is a fraction of the strong-convexity modulus.  With mu~ = 0
    the recursion leaves gamma unchanged.  Each round projects the momentum
    point z + gamma_k v, v being the last projection's scaled offset."""
    batch, stack = _AgentBatch(problems, graph), problems.stack
    mut = params.eta * stack.mu
    gamma0 = 1.9 / (stack.L * (1.0 - params.eta))

    gam = [gamma0, gamma0]  # (gamma_k, gamma_{k+1}) of the current round
    v = zv = None

    def momentum(z, w):
        nonlocal v, zv
        if v is None:  # first round: w is the projection of the start point
            v = (z - w) / gamma0
        gam[:] = gam[1], accel_gamma_next(gam[1], mut)
        zv = z + gam[0] * v
        return zv

    def step(Z, W):
        nonlocal v
        v = (zv - W.ravel()) / gam[0]
        return batch.project(W - gam[1] * v.reshape(W.shape) - gam[1] * problems.gradient(W))

    return _iterate(batch, params, step, z0, fabric, momentum)


SOLVERS = {
    "dr": solve_dr,
    "three-op": solve_three_op,
    "three-op-accel": solve_three_op_accel,
}


def solve_variant(problems, graph, params, z0=None, **kw) -> SolveReport:
    return SOLVERS[params.variant](problems, graph, params, z0=z0, **kw)


def _centralized_constraints(prob: QcqpProblem):
    """Every vehicle's rows stacked over the vehicle-major columns: its 2p
    window scattered, the own block to its own columns and the
    predecessor's to the block before (the first vehicle's is zero)."""
    n, p = prob.n, prob.horizon
    i = np.arange(n)
    A, h, S = prob.constraints.rows(2 * p)
    out = np.zeros((2, n, 5 * p, n, p))
    for M, R in zip(out, (A, S)):
        M[i, :, i], M[i[1:], :, i[:-1]] = R[..., :p], R[1:, :, p:]
    return out[0].reshape(-1, n * p), h.ravel(), out[1].reshape(-1, n * p)


def solve_centralized(prob: QcqpProblem) -> np.ndarray:
    """Reference solution of the full step program to KKT residual 1e-10."""
    res = solve_qcqp(prob.hessian_dense(), prob.c, *_centralized_constraints(prob),
                     prob.constraints.quad, kkt_tol=1e-10)
    if res.status != "optimal":
        raise RuntimeError(
            f"centralized solve did not reach tolerance (KKT residual {res.kkt_residual:.2e})")
    return res.x


def warmup_initial_guess(prob: QcqpProblem, problems: LocalProblems, fabric: MessageFabric):
    """Initial iterate from the exact constraint-free minimizer.

    W is block tridiagonal along the chain, so the minimizer of 1/2 u'Wu + c'u
    is one block elimination (Golub & Van Loan, *Matrix Computations*, 4th
    ed., section 4.5).  Its Schur blocks S_i = W_ii - B' S_{i-1}^{-1} B,
    B = W_{i-1,i}, read no state: each run computes them once (``prob.schur``).
    Forward, vehicle i receives g_{i-1}, p floats, and keeps
    g_i = -c_i - B' S_{i-1}^{-1} g_{i-1}.  Backward, it receives u_{i+1} and
    solves u_i = S_i^{-1} (g_i - W_{i,i+1} u_{i+1}).  Every message crosses
    one chain edge in a one-speaker round of the run's ``fabric``
    (``MessageFabric.send``); each agent then projects its block onto its
    constraint set, all in one batch, warm-started from ``problems.warm``.
    Returns z0, this sweep's fabric rounds, 2(n - 1), and ``problems`` with
    the agents' memory after the projection, the problems the step solves.
    """
    n, stack, start = prob.n, problems.stack, fabric.round
    batch = _AgentBatch(problems, fabric.graph)
    S, c = prob.schur, prob.c.reshape(n, -1)
    g = [-c[0]]
    for i in range(1, n):
        g_prev = fabric.send(i - 1, i, g[-1])
        g.append(-c[i] - prob.off[i - 1].T @ np.linalg.solve(S[i - 1], g_prev))
    u = [None] * (n - 1) + [np.linalg.solve(S[-1], g[-1])]
    for i in range(n - 2, -1, -1):
        u[i] = np.linalg.solve(S[i], g[i] - prob.off[i] @ fabric.send(i + 1, i, u[i + 1]))

    w = stack.layout.scatter_controls(np.concatenate(u))
    z0 = batch.project(w.reshape(n, -1)).ravel()
    return z0, fabric.round - start, replace(problems, warm=tuple(batch.warm))
