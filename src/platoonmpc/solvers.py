"""Distributed operator-splitting solvers for the per-step program.

One loop, ``_iterate``, runs every scheme: a consensus projection over the
vehicle graph, then an independent step by each agent on its own slice,
until every agent's increment is small.  The schemes differ in that step:

* ``solve_dr``: relaxed proximal step; each agent solves a small strongly
  convex QCQP, in closed form when its constraints are inactive.
* ``solve_three_op``: forward step on the smooth quadratic plus a
  Euclidean projection onto the local constraint set.
* ``solve_three_op_accel``: the same operators at a momentum point with an
  adaptive step size; the iterate error decays like O(1/(k+1)).
* ``warmup_initial_guess``: the proximal step with the constraints dropped.

Agents never read non-neighbor data: every cross-agent value moves through
the consensus projection, which the message fabric can carry verbatim.  A
centralized reference solver provides the "true" solution for accuracy
metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .consensus import AugmentedLayout, MessageFabric, VehicleGraph, _project, fabric_project
from .decomposition import PdDecomposition
from .problem import ConstraintSet, QcqpProblem
from .smallqcqp import InfeasibleProblem, QuadConstraint, solve_qcqp

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

_WARM_STARTS = ("prev-solution", "warmup-projection", "zero")


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
    warmup_tol: float | None = None

    def __post_init__(self):
        if self.variant not in SOLVERS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must lie in (0, 1)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
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
    return SolverParams(variant=variant, alpha=alpha, rho=rho, tol=tol,
                        warmup_tol=5e-4 if p == 1 else 1e-3)


@dataclass(frozen=True)
class LocalAgentProblem:
    """Everything agent i knows: its Hessian block over (own, neighbor
    copies), its slice of the linear term, and the step's constraint set,
    of which it lays out and reads only its own rows (the safe-spacing
    rows read its copy of the predecessor)."""

    index: int
    var_order: tuple
    hessian: np.ndarray
    c_own: np.ndarray
    constraints: ConstraintSet
    neighbors: tuple

    @property
    def horizon(self) -> int:
        return self.c_own.size

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]


def build_local_problems(prob: QcqpProblem, dec: PdDecomposition,
                         graph: VehicleGraph) -> list:
    """Slice the step program into per-agent problems in augmented layout
    (own block first, neighbor copies in ascending index)."""
    p = prob.horizon
    out = []
    for i in range(prob.n):
        part = dec.parts[i]
        order = tuple([i] + graph.neighbors(i))
        if set(order) != set(part.vehicles):
            raise ValueError(f"decomposition block of agent {i} does not match the graph")
        # permute the block from ascending-vehicle order to own-first order
        idx = [part.vehicles.index(v) for v in order]
        m = len(order)
        perm = np.zeros((m * p, m * p))
        for a, b in enumerate(idx):
            perm[a * p:(a + 1) * p, b * p:(b + 1) * p] = np.eye(p)
        out.append(LocalAgentProblem(
            index=i,
            var_order=order,
            hessian=perm @ part.matrix @ perm.T,
            c_own=prob.c_part(i).copy(),
            constraints=prob.constraints,
            neighbors=tuple(graph.neighbors(i)),
        ))
    return out


def _qcqp_rows(cons: ConstraintSet, rows):
    """``solve_qcqp``'s constraints from rows laid out by ``cons.rows``: the
    linear rows G x <= h and one rank-one quadratic per safety row."""
    A, h, S = rows
    m = 4 * len(h) // 5  # box and speed rows first, then the p safety rows
    quads = [QuadConstraint(Q=2.0 * cons.quad * np.outer(a, a), b=b, c=-float(c))
             for a, b, c in zip(S[m:], A[m:], h[m:])]
    return A[:m], h[:m], quads


class _Agent:
    """Cached per-agent machinery: constraint rows in local coordinates,
    the factorized unconstrained prox map, and active-set warm starts."""

    def __init__(self, lp: LocalAgentProblem, rho: float):
        self.lp = lp
        p, d = lp.horizon, lp.dim
        self.d = d
        self.c_tilde = np.zeros(d)
        self.c_tilde[:p] = lp.c_own
        self.rho = rho
        self.prox_mat = np.linalg.inv(rho * lp.hessian + np.eye(d))
        prev = lp.index - 1
        prev_col = lp.var_order.index(prev) * p if prev in lp.var_order else None
        self.rows = lp.constraints.rows(lp.index, d, 0, prev_col)
        self.fast = self.full = 0
        self._warm = {}

    @cached_property
    def qcqp_rows(self):
        """(G, h, quads) for ``solve_qcqp``, built on the first full solve."""
        return _qcqp_rows(self.lp.constraints, self.rows)

    def feasible(self, x, tol=1e-11) -> bool:
        return self.lp.constraints.values(self.rows, x).max() <= tol

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.lp.hessian @ x + self.c_tilde

    def unconstrained_prox(self, y: np.ndarray) -> np.ndarray:
        return self.prox_mat @ (y - self.rho * self.c_tilde)

    def prox(self, y: np.ndarray) -> np.ndarray:
        return self._constrained(self.unconstrained_prox(y), "prox subproblem",
                                 lambda: (self.lp.hessian + np.eye(self.d) / self.rho,
                                          self.c_tilde - y / self.rho))

    def project(self, y: np.ndarray) -> np.ndarray:
        return self._constrained(y.copy(), "projection", lambda: (np.eye(self.d), -y))

    def _constrained(self, x, kind, objective):
        """``x`` itself when it meets the local constraints (the fast path),
        else the minimizer of 1/2 x'Px + q'x over them, (P, q) = objective(),
        warm-started from the last full solve of the same kind."""
        if self.feasible(x):
            self.fast += 1
            return x
        self.full += 1
        P, q = objective()
        x0, active = self._warm.get(kind, (None, None))
        try:
            res = solve_qcqp(P, q, *self.qcqp_rows, x0=x0, warm_active=active)
        except InfeasibleProblem as exc:
            raise ProxSolveError(self.lp.index, f"{kind}: {exc}") from exc
        if res.status != "optimal":
            raise ProxSolveError(self.lp.index,
                                 f"{kind} stuck at KKT residual {res.kkt_residual:.2e}")
        self._warm[kind] = (res.x, res.active)
        return res.x


def prox_local(lp: LocalAgentProblem, point: np.ndarray, rho: float) -> np.ndarray:
    """Proximal step of one agent's objective over its constraint set."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return _Agent(lp, rho).prox(np.asarray(point, dtype=float))


def project_local(lp: LocalAgentProblem, point: np.ndarray) -> np.ndarray:
    """Euclidean projection onto one agent's constraint set."""
    return _Agent(lp, 1.0).project(np.asarray(point, dtype=float))


@dataclass
class SolveReport:
    """Outcome of a distributed solve.

    ``agent_prox_stats[i]`` counts (closed-form fast path, full subsolver)
    proximal evaluations of agent i.
    """

    u_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    variant: str
    tol: float
    prox_fast: int = 0
    prox_full: int = 0
    agent_prox_stats: tuple = ()
    rel_error_vs_oracle: float | None = None
    z_final: np.ndarray | None = None
    residual_trace: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "variant": self.variant,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "tol": self.tol,
            "prox_fast": self.prox_fast,
            "prox_full": self.prox_full,
            "agent_prox_stats": [list(s) for s in self.agent_prox_stats],
            "rel_error_vs_oracle": self.rel_error_vs_oracle,
            "u_star": self.u_star.tolist(),
        })

    def save_residual_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,residual\n")
            for it, r in enumerate(self.residual_trace, start=1):
                fh.write(f"{it},{r!r}\n")


def _setup(problems, graph, params):
    layout = AugmentedLayout(graph, problems[0].horizon)
    agents = [_Agent(lp, params.rho) for lp in problems]
    for lp, order in zip(problems, layout.var_order):
        if tuple(order) != lp.var_order:
            raise ValueError("local problem layout does not match the graph")
    return layout, agents


def _iterate(layout, agents, params, tol, step, z0=None, fabric=None, momentum=None):
    """The iteration loop of every splitting scheme and of the warm-up.

    Each round projects onto the consensus subspace (through ``fabric``
    when given), maps every agent's own slice with ``step(i, sl, z, w)``,
    and stops once each agent's increment is at most tol/n.  The projected
    point is the current iterate, or ``momentum(z, w)`` when given, with
    ``w`` the previous projection.
    """
    def project(vec):
        return _project(vec, layout) if fabric is None else fabric_project(vec, layout, fabric)

    slices = [layout.agent_slice(i) for i in range(len(agents))]
    per_agent_tol = tol / len(agents)
    z = np.zeros(layout.dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    w = project(z)
    trace = []  # one residual ||z_new - z|| per round
    converged = False
    for _ in range(params.max_iters):
        if momentum is not None:
            w = project(momentum(z, w))
        z_new = np.concatenate([step(i, sl, z, w) for i, sl in enumerate(slices)])
        diffs = [np.linalg.norm(z_new[sl] - z[sl]) for sl in slices]
        trace.append(float(np.linalg.norm(z_new - z)))
        z = z_new
        if max(diffs) <= per_agent_tol:
            converged = True
            break
        if momentum is None:
            w = project(z)

    return SolveReport(
        u_star=layout.stack_controls(w),
        iterations=len(trace),
        residual=trace[-1] if trace else np.inf,
        converged=converged,
        variant=params.variant,
        tol=tol,
        prox_fast=sum(a.fast for a in agents),
        prox_full=sum(a.full for a in agents),
        agent_prox_stats=tuple((a.fast, a.full) for a in agents),
        z_final=z,
        residual_trace=trace,
    )


def solve_dr(problems, graph: VehicleGraph, params: SolverParams, z0=None,
             fabric: MessageFabric | None = None) -> SolveReport:
    """Relaxed proximal splitting over the consensus subspace.

    Each round projects the stacked iterate onto the consensus subspace,
    then every agent applies its proximal map to the reflected point and
    relaxes.  Agents stop once every local increment falls below tol/n.
    """
    layout, agents = _setup(problems, graph, params)
    two_alpha = 2.0 * params.alpha

    def step(i, sl, z, w):
        x = agents[i].prox(2.0 * w[sl] - z[sl])
        return z[sl] + two_alpha * (x - w[sl])

    return _iterate(layout, agents, params, params.tol, step, z0, fabric)


def accel_gamma_next(gamma: float, mut: float) -> float:
    """Step-size recursion of the accelerated scheme; with mut = 0 it
    leaves gamma unchanged."""
    return -mut * gamma ** 2 + np.sqrt((mut * gamma ** 2) ** 2 + gamma ** 2)


def _lipschitz(problems) -> float:
    return max(float(np.linalg.norm(lp.hessian, 2)) for lp in problems)


def solve_three_op(problems, graph: VehicleGraph, params: SolverParams, z0=None,
                   fabric: MessageFabric | None = None) -> SolveReport:
    """Forward-backward style splitting with a gradient step on the smooth
    quadratic and a projection onto the local constraint sets."""
    layout, agents = _setup(problems, graph, params)
    L = _lipschitz(problems)
    gamma = params.gamma if params.gamma is not None else 1.9 / L
    if not (0.0 < gamma < 2.0 / L):
        raise ValueError(f"gamma must lie in (0, {2.0 / L:.6g})")
    lam_bound = 2.0 - gamma * L / 2.0
    lam = params.lam if params.lam is not None else 0.999 * lam_bound
    if not (0.0 < lam < lam_bound):
        raise ValueError(f"lam must lie in (0, {lam_bound:.6g})")

    def step(i, sl, z, w):
        wi = w[sl]
        x = agents[i].project(2.0 * wi - z[sl] - gamma * agents[i].gradient(wi))
        return z[sl] + lam * (x - wi)

    return _iterate(layout, agents, params, params.tol, step, z0, fabric)


def solve_three_op_accel(problems, graph: VehicleGraph, params: SolverParams, z0=None,
                         fabric: MessageFabric | None = None) -> SolveReport:
    """Accelerated variant with the adaptive step-size recursion

        gamma_{k+1} = -mu~ gamma_k^2 + sqrt((mu~ gamma_k^2)^2 + gamma_k^2),

    where mu~ is a fraction of the strong-convexity modulus.  With mu~ = 0
    the recursion leaves gamma unchanged.  Each round projects the momentum
    point z + gamma_k v, v being the last projection's scaled offset."""
    layout, agents = _setup(problems, graph, params)
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

    def step(i, sl, z, w):
        v[sl] = (zv[sl] - w[sl]) / gam[0]
        wi = w[sl]
        return agents[i].project(wi - gam[1] * v[sl] - gam[1] * agents[i].gradient(wi))

    return _iterate(layout, agents, params, params.tol, step, z0, fabric, momentum)


SOLVERS = {
    "dr": solve_dr,
    "three-op": solve_three_op,
    "three-op-accel": solve_three_op_accel,
}


def solve_variant(problems, graph, params, z0=None, **kw) -> SolveReport:
    return SOLVERS[params.variant](problems, graph, params, z0=z0, **kw)


def _centralized_constraints(prob: QcqpProblem):
    """Every vehicle's rows stacked over the vehicle-major columns."""
    n, p, cons = prob.n, prob.horizon, prob.constraints
    parts = [_qcqp_rows(cons, cons.rows(i, n * p, i * p, (i - 1) * p if i else None))
             for i in range(n)]
    G, h, quads = zip(*parts)
    return np.vstack(G), np.concatenate(h), [qc for qs in quads for qc in qs]


def solve_centralized(prob: QcqpProblem, tol: float = 1e-10, x0=None) -> np.ndarray:
    """Reference solution of the full step program to tight KKT residual."""
    G, h, quads = _centralized_constraints(prob)
    res = solve_qcqp(prob.hessian_dense(), prob.c, G, h, quads, x0=x0, kkt_tol=tol)
    if res.status != "optimal":
        raise RuntimeError(
            f"centralized solve did not reach tolerance (KKT residual {res.kkt_residual:.2e})")
    return res.x


def warmup_initial_guess(problems, graph: VehicleGraph, params: SolverParams):
    """Initial iterate from the constraint-free problem.

    Runs the proximal splitting with every constraint set replaced by the
    whole space, where the proximal map has the closed form
    ``(rho W_i + I)^{-1} (y - rho c_i)``, then projects each agent's block
    onto its constraint set once.  Returns (z0, iterations).
    """
    layout, agents = _setup(problems, graph, params)
    wu_tol = params.warmup_tol if params.warmup_tol is not None else params.tol
    two_alpha = 2.0 * params.alpha

    def step(i, sl, z, w):
        x = agents[i].unconstrained_prox(2.0 * w[sl] - z[sl])
        return z[sl] + two_alpha * (x - w[sl])

    report = _iterate(layout, agents, params, wu_tol, step)
    w = _project(report.z_final, layout)
    z0 = np.concatenate([agents[i].project(w[layout.agent_slice(i)]) for i in range(graph.n)])
    return z0, report.iterations
