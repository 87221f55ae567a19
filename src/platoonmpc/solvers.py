"""Distributed operator-splitting solvers for the per-step program.

One loop, ``_iterate``, runs every scheme: a consensus projection over the
vehicle graph, then one batched step in which every agent maps its own
slice, until every agent's increment is small.  Each agent's step reads
only its own locally coupled data, so the n steps of a round are computed
together: ``_AgentBatch`` pads the agents to a common width, stacks their
Hessians, linear terms and constraint rows, and evaluates every closed-form
candidate and every row at once.  Only an agent whose candidate breaks one
of its rows solves its small QCQP with ``smallqcqp``, starting from its own
last full solve, which it keeps across control steps.  The schemes differ
in the candidate:

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
the consensus projection or the sweep's relay, which the message fabric
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
from .smallqcqp import InfeasibleProblem, solve_qcqp

__all__ = [
    "SolverParams",
    "SolveReport",
    "LocalAgentProblem",
    "ProxSolveError",
    "default_params_for_horizon",
    "build_local_problems",
    "accel_gamma_next",
    "prox_local",
    "project_local",
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
    gamma: float | None = None
    lam: float | None = None
    eta: float = 0.2
    gamma0: float | None = None
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
class LocalAgentProblem:
    """Everything agent i knows: its Hessian block over (own, neighbor
    copies), its slice of the linear term, and the step's constraint set,
    of which it lays out and reads only its own rows (the safe-spacing
    rows read its copy of the predecessor).

    ``warm`` is the agent's memory of its last full subsolve of each kind
    ("prox subproblem", "projection"): the point and the active rows, the
    start of its next full solve of that kind.  Solvers read it and never
    write it; the next step's problems take it from ``SolveReport.warm``.
    """

    index: int
    var_order: tuple
    hessian: np.ndarray
    c_own: np.ndarray
    constraints: ConstraintSet
    warm: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.c_own.size

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]


def build_local_problems(prob: QcqpProblem, dec: PdDecomposition,
                         graph: VehicleGraph, warm=None) -> list:
    """Slice the step program into per-agent problems in augmented layout
    (own block first, neighbor copies in ascending index).  ``warm``, one
    entry per agent (a previous ``SolveReport.warm``), seeds each agent's
    subsolver memory."""
    p = prob.horizon
    stage = np.arange(p)
    out = []
    for i in range(prob.n):
        part = dec.parts[i]
        order = (i, *graph.neighbors(i))
        if set(order) != set(part.vehicles):
            raise ValueError(f"decomposition block of agent {i} does not match the graph")
        # the block lists its vehicles ascending; gather it in own-first order
        cols = (np.array([part.vehicles.index(v) for v in order])[:, None] * p + stage).ravel()
        out.append(LocalAgentProblem(
            index=i,
            var_order=order,
            hessian=part.matrix[cols[:, None], cols],
            c_own=prob.c_part(i).copy(),
            constraints=prob.constraints,
            warm=warm[i] if warm is not None else {},
        ))
    return out


class _AgentBatch:
    """Every agent's step data, padded to the widest agent (D = 3p on a
    chain of three or more) and stacked: Hessians ``H`` (n, D, D), linear
    terms ``C`` (n, D) and constraint ``rows`` (n, 5p, D) laid out over
    (own block, neighbor copies).  Padded coordinates are zero in every
    stack and every point, so they add nothing to a product or a row value.

    ``prox`` and ``project`` map every agent's point at once: each agent's
    closed-form candidate stands when it meets all the agent's rows (the
    fast path); only the agents whose candidate breaks a row solve their
    QCQP, on the agent's own unpadded rows (sliced at its first full solve)
    and warm-started from its last full solve of the same kind.  ``warm``
    holds that memory per agent: seeded from the problems' ``warm``
    (copied, so a solve never changes its inputs) and updated by every full
    solve, it carries an agent's active set across rounds and, through
    ``SolveReport.warm``, across control steps.  With ``rho``, the proximal
    maps (rho H_i + I)^-1 are inverted in one call.
    """

    def __init__(self, problems, rho: float | None = None):
        cons = problems[0].constraints
        if any(lp.constraints is not cons for lp in problems):
            raise ValueError("the agents of one solve must share the step's constraint set")
        p = problems[0].horizon
        dims = np.array([lp.dim for lp in problems])
        n, D = dims.size, dims.max()
        self.problems = problems
        self.mask = np.arange(D) < dims[:, None]
        self.H = np.zeros((n, D, D))
        self.H[self.mask[:, :, None] & self.mask[:, None, :]] = \
            np.concatenate([lp.hessian.ravel() for lp in problems])
        self.C = np.zeros((n, D))
        self.C[:, :p] = [lp.c_own for lp in problems]
        prev = [lp.var_order.index(lp.index - 1) * p if lp.index - 1 in lp.var_order else -1
                for lp in problems]
        self.cons = cons
        self.rows = cons.rows(np.array([lp.index for lp in problems]), D, 0, np.array(prev))
        self.rho = rho
        if rho is not None:
            self.prox_mat = np.linalg.inv(rho * self.H + np.eye(D))
        self.calls = 0
        self.full = [0] * n
        self.warm = [dict(lp.warm) for lp in problems]
        self._agent_rows = {}

    def pad(self, vec: np.ndarray) -> np.ndarray:
        """A stacked-layout vector as the padded (n, D) stack."""
        out = np.zeros(self.mask.shape)
        out[self.mask] = vec
        return out

    def unpad(self, X: np.ndarray) -> np.ndarray:
        return X[self.mask]

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return (self.H @ W[..., None])[..., 0] + self.C

    def prox(self, Y: np.ndarray) -> np.ndarray:
        """Every agent's proximal step of its objective at Y[i]."""
        X = (self.prox_mat @ (Y - self.rho * self.C)[..., None])[..., 0]
        return self._constrained(X, "prox subproblem", lambda i, d: (
            self.problems[i].hessian + np.eye(d) / self.rho, self.C[i, :d] - Y[i, :d] / self.rho))

    def project(self, Y: np.ndarray) -> np.ndarray:
        """Every agent's Euclidean projection of Y[i] onto its constraint set."""
        return self._constrained(Y.copy(), "projection", lambda i, d: (np.eye(d), -Y[i, :d]))

    def feasible(self, X: np.ndarray) -> np.ndarray:
        """Whether X[i] meets every row of agent i, per agent."""
        return self.cons.values(self.rows, X).max(axis=1) <= _FEASIBLE_TOL

    def _constrained(self, X, kind, objective):
        """``X`` with each row i that breaks agent i's constraints replaced
        by the minimizer of 1/2 x'Px + q'x over them, (P, q) = objective(i,
        d_i)."""
        self.calls += 1
        for i in (~self.feasible(X)).nonzero()[0]:
            d = self.problems[i].dim
            X[i, :d] = self._solve(i, kind, *objective(i, d))
        return X

    def _solve(self, i, kind, P, q):
        lp = self.problems[i]
        self.full[i] += 1
        rows = self._agent_rows.get(i)
        if rows is None:
            A, h, S = self.rows
            rows = self._agent_rows[i] = (A[i, :, :lp.dim].copy(), h[i], S[i, :, :lp.dim].copy())
        x0, active = self.warm[i].get(kind, (None, None))
        try:
            res = solve_qcqp(P, q, *rows, self.cons.quad, x0=x0, warm_active=active)
        except InfeasibleProblem as exc:
            raise ProxSolveError(lp.index, f"{kind}: {exc}") from exc
        if res.status != "optimal":
            raise ProxSolveError(lp.index,
                                 f"{kind} stuck at KKT residual {res.kkt_residual:.2e}")
        self.warm[i][kind] = (res.x, res.active)
        return res.x


def prox_local(lp: LocalAgentProblem, point: np.ndarray, rho: float) -> np.ndarray:
    """Proximal step of one agent's objective over its constraint set."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return _AgentBatch([lp], rho).prox(np.asarray(point, dtype=float)[None])[0]


def project_local(lp: LocalAgentProblem, point: np.ndarray) -> np.ndarray:
    """Euclidean projection onto one agent's constraint set."""
    return _AgentBatch([lp]).project(np.asarray(point, dtype=float)[None])[0]


@dataclass
class SolveReport:
    """Outcome of a distributed solve.

    ``agent_prox_stats[i]`` counts (closed-form fast path, full subsolver)
    proximal evaluations of agent i, and ``warm[i]`` is agent i's subsolver
    memory after the solve (``LocalAgentProblem.warm`` of the next step).
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


def _setup(problems, graph, rho=None):
    layout = AugmentedLayout(graph, problems[0].horizon)
    for lp, order in zip(problems, layout.var_order):
        if tuple(order) != lp.var_order:
            raise ValueError("local problem layout does not match the graph")
    return layout, _AgentBatch(problems, rho)


def _iterate(layout, batch, params, step, z0=None, fabric=None, momentum=None):
    """The iteration loop of every splitting scheme.

    Each round projects onto the consensus subspace (through ``fabric``
    when given), maps every agent's own slice at once with ``step(Z, W)``,
    Z and W the padded stacks of the iterate and the projected point, and
    stops once each agent's increment is at most tol/n.  The projected
    point is the current iterate, or ``momentum(z, w)`` when given, with
    ``w`` the previous projection.
    """
    def project(vec):
        return _project(vec, layout) if fabric is None else fabric_project(vec, layout, fabric)

    starts = layout.offsets[:-1]
    per_agent_tol = params.tol / len(starts)
    z = np.zeros(layout.dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    w = project(z)
    Z = batch.pad(z)
    trace = []  # one residual ||z_new - z|| per round
    converged = False
    for _ in range(params.max_iters):
        if momentum is not None:
            w = project(momentum(z, w))
        Z = step(Z, batch.pad(w))
        z_new = batch.unpad(Z)
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


def solve_dr(problems, graph: VehicleGraph, params: SolverParams, z0=None,
             fabric: MessageFabric | None = None) -> SolveReport:
    """Relaxed proximal splitting over the consensus subspace.

    Each round projects the stacked iterate onto the consensus subspace,
    then every agent applies its proximal map to the reflected point and
    relaxes.  Agents stop once every local increment falls below tol/n.
    """
    layout, batch = _setup(problems, graph, params.rho)
    two_alpha = 2.0 * params.alpha

    def step(Z, W):
        return Z + two_alpha * (batch.prox(2.0 * W - Z) - W)

    return _iterate(layout, batch, params, step, z0, fabric)


def accel_gamma_next(gamma: float, mut: float) -> float:
    """Step-size recursion of the accelerated scheme; with mut = 0 it
    leaves gamma unchanged."""
    return -mut * gamma ** 2 + np.sqrt((mut * gamma ** 2) ** 2 + gamma ** 2)


def _lipschitz(problems) -> float:
    # from the unpadded blocks: a padded block's zero rows would add nothing
    # here but would read as lambda_min = 0 in the strong-convexity modulus
    return max(float(np.linalg.norm(lp.hessian, 2)) for lp in problems)


def solve_three_op(problems, graph: VehicleGraph, params: SolverParams, z0=None,
                   fabric: MessageFabric | None = None) -> SolveReport:
    """Forward-backward style splitting with a gradient step on the smooth
    quadratic and a projection onto the local constraint sets."""
    layout, batch = _setup(problems, graph)
    L = _lipschitz(problems)
    gamma = params.gamma if params.gamma is not None else 1.9 / L
    if not (0.0 < gamma < 2.0 / L):
        raise ValueError(f"gamma must lie in (0, {2.0 / L:.6g})")
    lam_bound = 2.0 - gamma * L / 2.0
    lam = params.lam if params.lam is not None else 0.999 * lam_bound
    if not (0.0 < lam < lam_bound):
        raise ValueError(f"lam must lie in (0, {lam_bound:.6g})")

    def step(Z, W):
        return Z + lam * (batch.project(2.0 * W - Z - gamma * batch.gradient(W)) - W)

    return _iterate(layout, batch, params, step, z0, fabric)


def solve_three_op_accel(problems, graph: VehicleGraph, params: SolverParams, z0=None,
                         fabric: MessageFabric | None = None) -> SolveReport:
    """Accelerated variant with the adaptive step-size recursion

        gamma_{k+1} = -mu~ gamma_k^2 + sqrt((mu~ gamma_k^2)^2 + gamma_k^2),

    where mu~ is a fraction of the strong-convexity modulus.  With mu~ = 0
    the recursion leaves gamma unchanged.  Each round projects the momentum
    point z + gamma_k v, v being the last projection's scaled offset."""
    layout, batch = _setup(problems, graph)
    L = _lipschitz(problems)
    mu = min(float(np.linalg.eigvalsh(lp.hessian).min()) for lp in problems)
    if mu <= 0:
        raise ValueError("acceleration needs strongly convex agent objectives")
    mut = params.eta * mu
    g_bound = 2.0 / (L * (1.0 - params.eta))
    gamma0 = params.gamma0 if params.gamma0 is not None else 1.9 / (L * (1.0 - params.eta))
    if not (0.0 < gamma0 < g_bound):
        raise ValueError(f"gamma0 must lie in (0, {g_bound:.6g})")

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
        v = (zv - batch.unpad(W)) / gam[0]
        return batch.project(W - gam[1] * batch.pad(v) - gam[1] * batch.gradient(W))

    return _iterate(layout, batch, params, step, z0, fabric, momentum)


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


def warmup_initial_guess(prob: QcqpProblem, problems, graph: VehicleGraph):
    """Initial iterate from the exact constraint-free minimizer.

    W is block tridiagonal along the chain, so the minimizer of 1/2 u'Wu + c'u
    is one block elimination (Golub & Van Loan, *Matrix Computations*, 4th
    ed., section 4.5).  Forward, vehicle i receives its predecessor's Schur
    block and vector and keeps S_i = W_ii - B' S_{i-1}^{-1} B and
    g_i = -c_i - B' S_{i-1}^{-1} g_{i-1}, B = W_{i-1,i}.  Backward, it
    receives u_{i+1} and solves u_i = S_i^{-1} (g_i - W_{i,i+1} u_{i+1}).
    Every message crosses one chain edge through a ``MessageFabric``; each
    agent then projects its block onto its constraint set, all in one batch.  Returns
    (z0, sequential fabric rounds), the rounds being 2(n - 1).
    """
    n, fabric = prob.n, MessageFabric(graph)

    def relay(src, dst, payload):
        # a round in which only ``src`` speaks; every other message is None
        outgoing = {i: dict.fromkeys(graph.neighbors(i)) for i in range(n)}
        outgoing[src][dst] = payload
        return fabric.exchange(outgoing)[dst][src]

    S, g = [prob.diag[0]], [-prob.c_part(0)]
    for i in range(1, n):
        S_prev, g_prev = relay(i - 1, i, (S[-1], g[-1]))
        B = prob.off[i - 1]
        S.append(prob.diag[i] - B.T @ np.linalg.solve(S_prev, B))
        g.append(-prob.c_part(i) - B.T @ np.linalg.solve(S_prev, g_prev))
    u = [None] * (n - 1) + [np.linalg.solve(S[-1], g[-1])]
    for i in range(n - 2, -1, -1):
        u[i] = np.linalg.solve(S[i], g[i] - prob.off[i] @ relay(i + 1, i, u[i + 1]))

    batch = _AgentBatch(problems)
    w = AugmentedLayout(graph, prob.horizon).scatter_controls(np.concatenate(u))
    return batch.unpad(batch.project(batch.pad(w))), fabric.round
