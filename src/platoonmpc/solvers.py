"""Distributed operator-splitting solvers for the per-step program.

One loop, ``_iterate``, runs every scheme: a consensus projection over the
vehicle graph, then one batched step in which every agent maps its own
slice, until every agent's increment is small.  Each agent's step reads
only its own locally coupled data, so the n steps of a round are computed
together.  The data that never changes within a run, the chain layout and
every agent's Hessian block padded to a common width and stacked, with the
proximal maps at each weight rho, is built once per run as an
``AgentStack``; each control step adds only its linear terms, constraint
rows and the agents' warm memory (``LocalProblems``).  ``_AgentBatch``
then evaluates every closed-form candidate and every row at once.  Only an
agent whose candidate breaks one of its rows solves its small QCQP with
``smallqcqp``, starting from its own last full solve, which it keeps
across control steps; the agents of a round that hold such a warm active
set try it together in one stacked Newton solve, the rest one at a time.
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
the consensus projection or the sweep's messages, which the message fabric
carries verbatim.  A centralized reference solver provides the "true"
solution for accuracy metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import AugmentedLayout, MessageFabric, VehicleGraph, _project, fabric_project
from .decomposition import PdDecomposition
from .problem import ConstraintSet, QcqpProblem
from .smallqcqp import InfeasibleProblem, _Rows, solve_qcqp, warm_pass

__all__ = [
    "SolverParams",
    "SolveReport",
    "AgentStack",
    "LocalProblems",
    "ProxSolveError",
    "default_params_for_horizon",
    "build_agent_stack",
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


@dataclass
class SolverParams:
    """Tuning constants of the distributed solvers.

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


class AgentStack:
    """What the agents know for a whole run: the chain ``layout`` (each
    agent's own block first, then its neighbors' copies in ascending index)
    and every agent's Hessian block gathered in that order, padded to the
    widest agent (D = 3p on a chain of three or more) and stacked as ``H``
    (n, D, D).  ``mask`` marks each agent's real coordinates, ``prev`` the
    column of its copy of the predecessor (-1 for the first vehicle), and
    ``L`` and ``mu`` are the largest and smallest eigenvalues over the
    unpadded blocks, from which the three-operator step sizes derive; the
    blocks are positive definite, so ``mu`` is positive.
    """

    def __init__(self, layout: AugmentedLayout, blocks):
        self.layout, self.n, self.p = layout, layout.graph.n, layout.p
        D = max(layout.dims)
        self.mask = np.arange(D) < np.array(layout.dims)[:, None]
        self.H = np.zeros((self.n, D, D))
        for Hi, block in zip(self.H, blocks):
            Hi[:len(block), :len(block)] = block
        self.prev = np.array([order.index(i - 1) * self.p if i else -1
                              for i, order in enumerate(layout.var_order)])
        self.L = max(float(np.linalg.norm(block, 2)) for block in blocks)
        self.mu = min(float(np.linalg.eigvalsh(block).min()) for block in blocks)
        self._prox = {}

    def prox(self, rho: float):
        """The stacked (rho H_i + I)^-1 and H_i + I/rho, built once per rho."""
        if rho not in self._prox:
            eye = np.eye(self.H.shape[-1])
            self._prox[rho] = np.linalg.inv(rho * self.H + eye), self.H + eye / rho
        return self._prox[rho]

    def pad(self, vec: np.ndarray) -> np.ndarray:
        """A stacked-layout vector as the padded (n, D) stack."""
        out = np.zeros(self.mask.shape)
        out[self.mask] = vec
        return out

    def unpad(self, X: np.ndarray) -> np.ndarray:
        return X[self.mask]


def build_agent_stack(dec: PdDecomposition) -> AgentStack:
    """The run's agent stack from the Hessian split: each agent's block,
    listed over its vehicles in ascending order, is gathered own-first."""
    layout = AugmentedLayout(VehicleGraph.chain(dec.n), dec.horizon)
    stage = np.arange(dec.horizon)
    blocks = []
    for part, order in zip(dec.parts, layout.var_order):
        cols = (np.array([part.vehicles.index(v) for v in order])[:, None] * dec.horizon
                + stage).ravel()
        blocks.append(part.matrix[cols[:, None], cols])
    return AgentStack(layout, blocks)


@dataclass(frozen=True)
class LocalProblems:
    """One control step's agent data over a run's ``stack``: the padded
    linear terms ``C`` (n, D), the step's constraint set and every agent's
    rows laid out over (own block, neighbor copies), ``rows`` (n, 5p, D).
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

    def feasible(self, X: np.ndarray) -> np.ndarray:
        """Whether X[i] meets every row of agent i, per agent."""
        return self.constraints.values(self.rows, X).max(axis=1) <= _FEASIBLE_TOL


def build_local_problems(prob: QcqpProblem, stack: AgentStack, warm=None) -> LocalProblems:
    """The step program's per-agent data over the run's agent stack.
    ``warm``, one entry per agent (a previous ``SolveReport.warm``), seeds
    each agent's subsolver memory."""
    n, p = stack.n, stack.p
    if (prob.n, prob.horizon) != (n, p):
        raise ValueError("the step program does not match the agent stack")
    C = np.zeros(stack.mask.shape)
    C[:, :p] = prob.c.reshape(n, p)
    rows = prob.constraints.rows(np.arange(n), C.shape[1], 0, stack.prev)
    return LocalProblems(stack, C, prob.constraints, rows,
                         tuple(warm) if warm is not None else ({},) * n)


class _AgentBatch:
    """One solve's state over a step's ``problems``: the fast and full
    counts, the agents' warm memory and their unpadded rows.

    ``prox`` and ``project`` map every agent's point at once: each agent's
    closed-form candidate stands when it meets all the agent's rows (the
    fast path); only the agents whose candidate breaks a row solve their
    QCQP, on the agent's own unpadded rows (sliced at its first full solve)
    and warm-started from its last full solve of the same kind.  ``warm``
    holds that memory per agent: seeded from the problems' ``warm``
    (copied, so a solve never changes its inputs) and updated by every full
    solve, it carries an agent's active set across rounds and, through
    ``SolveReport.warm``, across control steps.  A round's failing agents
    that hold a warm active set of the kind try it in one stacked Newton
    solve (``smallqcqp.warm_pass``); the rest call ``solve_qcqp`` one at a
    time.  With ``rho``, the proximal maps come from the stack.
    """

    def __init__(self, problems: LocalProblems, graph: VehicleGraph, rho: float | None = None):
        stack = problems.stack
        if graph.n != stack.n:
            raise ValueError(f"graph has {graph.n} vehicles, the agent stack {stack.n}")
        self.problems, self.stack, self.rho = problems, stack, rho
        if rho is not None:
            self.prox_mat, self.prox_hess = stack.prox(rho)
        self.calls = 0
        self.full = [0] * stack.n
        self.warm = [dict(w) for w in problems.warm]
        self._agent_rows = {}
        self._eye = np.broadcast_to(np.eye(stack.H.shape[-1]), stack.H.shape)

    def prox(self, Y: np.ndarray) -> np.ndarray:
        """Every agent's proximal step of its objective at Y[i]."""
        C = self.problems.C
        X = (self.prox_mat @ (Y - self.rho * C)[..., None])[..., 0]
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
        failing = (~self.problems.feasible(X)).nonzero()[0].tolist()
        held = [i for i in failing if self.warm[i].get(kind, (None, ()))[1]]
        taken = self._warm_pass(X, kind, objective, held) if held else ()
        for i in failing:
            self.full[i] += 1
            if i not in taken:
                d = self.stack.layout.dims[i]
                (P,), (q,) = objective([i])
                X[i, :d] = self._solve(i, kind, P[:d, :d], q[:d])
        return X

    def _warm_pass(self, X, kind, objective, agents):
        """Try the ``agents``' warm active sets in one stacked Newton solve;
        write the passing agents' points and memory, and return them."""
        memory = [self.warm[i][kind] for i in agents]
        A, h, S = self.problems.rows
        rows = _Rows(A[agents], h[agents], S[agents], self.problems.constraints.quad)
        a = max(len(on) for _, on in memory)
        keys = np.array([on + (-1,) * (a - len(on)) for _, on in memory])
        x, lam, ok = warm_pass(*objective(agents), rows, np.array([x for x, _ in memory]), keys)
        taken = [i for i, passed in zip(agents, ok.tolist()) if passed]
        X[taken] = x = x[ok]
        for i, xi, on in zip(taken, x, np.where(lam[ok] > 0, keys[ok], -1).tolist()):
            self.warm[i][kind] = (xi, tuple(k for k in on if k >= 0))
        return taken

    def _solve(self, i, kind, P, q):
        d = len(q)
        rows = self._agent_rows.get(i)
        if rows is None:
            A, h, S = self.problems.rows
            rows = self._agent_rows[i] = (A[i, :, :d].copy(), h[i], S[i, :, :d].copy())
        x, active = self.warm[i].get(kind, (None, None))
        try:
            res = solve_qcqp(P, q, *rows, self.problems.constraints.quad,
                             x0=None if x is None else x[:d], warm_active=active)
        except InfeasibleProblem as exc:
            raise ProxSolveError(i, f"{kind}: {exc}") from exc
        if res.status != "optimal":
            raise ProxSolveError(i, f"{kind} stuck at KKT residual {res.kkt_residual:.2e}")
        x = np.zeros(self.stack.mask.shape[1])
        x[:d] = res.x
        self.warm[i][kind] = (x, res.active)
        return res.x


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

    Each round projects onto the consensus subspace (through ``fabric``
    when given), maps every agent's own slice at once with ``step(Z, W)``,
    Z and W the padded stacks of the iterate and the projected point, and
    stops once each agent's increment is at most tol/n.  The projected
    point is the current iterate, or ``momentum(z, w)`` when given, with
    ``w`` the previous projection.
    """
    stack = batch.stack
    layout = stack.layout

    def project(vec):
        return _project(vec, layout) if fabric is None else fabric_project(vec, layout, fabric)

    starts = layout.offsets[:-1]
    per_agent_tol = params.tol / len(starts)
    z = np.zeros(layout.dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    w = project(z)
    Z = stack.pad(z)
    trace = []  # one residual ||z_new - z|| per round
    converged = False
    for _ in range(params.max_iters):
        if momentum is not None:
            w = project(momentum(z, w))
        Z = step(Z, stack.pad(w))
        z_new = stack.unpad(Z)
        dz = z_new - z
        trace.append(math.sqrt(dz @ dz))  # the flat norm, as np.linalg.norm sums it
        z = z_new
        if np.sqrt(np.add.reduceat(dz * dz, starts)).max() <= per_agent_tol:
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
        v = (zv - stack.unpad(W)) / gam[0]
        return batch.project(W - gam[1] * stack.pad(v) - gam[1] * problems.gradient(W))

    return _iterate(batch, params, step, z0, fabric, momentum)


SOLVERS = {
    "dr": solve_dr,
    "three-op": solve_three_op,
    "three-op-accel": solve_three_op_accel,
}


def solve_variant(problems, graph, params, z0=None, **kw) -> SolveReport:
    return SOLVERS[params.variant](problems, graph, params, z0=z0, **kw)


def _centralized_constraints(prob: QcqpProblem):
    """Every vehicle's rows stacked over the vehicle-major columns."""
    n, p = prob.n, prob.horizon
    i = np.arange(n)
    A, h, S = prob.constraints.rows(i, n * p, i * p, (i - 1) * p)
    return A.reshape(-1, n * p), h.ravel(), S.reshape(-1, n * p)


def solve_centralized(prob: QcqpProblem) -> np.ndarray:
    """Reference solution of the full step program to KKT residual 1e-10."""
    res = solve_qcqp(prob.hessian_dense(), prob.c, *_centralized_constraints(prob),
                     prob.constraints.quad, kkt_tol=1e-10)
    if res.status != "optimal":
        raise RuntimeError(
            f"centralized solve did not reach tolerance (KKT residual {res.kkt_residual:.2e})")
    return res.x


def warmup_initial_guess(prob: QcqpProblem, problems: LocalProblems, graph: VehicleGraph):
    """Initial iterate from the exact constraint-free minimizer.

    W is block tridiagonal along the chain, so the minimizer of 1/2 u'Wu + c'u
    is one block elimination (Golub & Van Loan, *Matrix Computations*, 4th
    ed., section 4.5).  Forward, vehicle i receives its predecessor's Schur
    block and vector and keeps S_i = W_ii - B' S_{i-1}^{-1} B and
    g_i = -c_i - B' S_{i-1}^{-1} g_{i-1}, B = W_{i-1,i}.  Backward, it
    receives u_{i+1} and solves u_i = S_i^{-1} (g_i - W_{i,i+1} u_{i+1}).
    Every message crosses one chain edge in a one-speaker fabric round
    (``MessageFabric.send``); each agent then projects its block onto its
    constraint set, all in one batch, warm-started from ``problems.warm``.
    Returns z0, the fabric rounds, 2(n - 1), and the agents' memory after
    the projection, which seeds the step's solve.
    """
    n, fabric, stack = prob.n, MessageFabric(graph), problems.stack
    batch = _AgentBatch(problems, graph)
    S, g = [prob.diag[0]], [-prob.c_part(0)]
    for i in range(1, n):
        S_prev, g_prev = fabric.send(i - 1, i, (S[-1], g[-1]))
        B = prob.off[i - 1]
        S.append(prob.diag[i] - B.T @ np.linalg.solve(S_prev, B))
        g.append(-prob.c_part(i) - B.T @ np.linalg.solve(S_prev, g_prev))
    u = [None] * (n - 1) + [np.linalg.solve(S[-1], g[-1])]
    for i in range(n - 2, -1, -1):
        u[i] = np.linalg.solve(S[i], g[i] - prob.off[i] @ fabric.send(i + 1, i, u[i + 1]))

    w = stack.layout.scatter_controls(np.concatenate(u))
    return stack.unpad(batch.project(stack.pad(w))), fabric.round, tuple(batch.warm)
