"""One benchmark workload, run inside a fresh single-threaded process.

``perfbench/run.py`` starts this file; it is not meant to be run by hand.
Modes:

* ``setup``  - import, build the scenario, stop at the first step's
  ``build_qcqp`` call and report the set-up time;
* ``timed``  - untraced closed-loop passes for ``--seconds``; the only
  hooks are the two step timestamps (``build_qcqp`` and ``step_dynamics``
  as the harness looks them up);
* ``traced`` - one pass with the centralized oracle and a span at every
  module boundary, then the message-fabric cross-check.

Everything is measured from outside the package: the hooks rebind, in the
calling module, the names that module looked up, and the counters come
from the ``SolveReport`` and ``QcqpResult`` objects the calls return.
The last stdout line is one JSON object for the launcher.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time starts here, before numpy and platoonmpc load

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import platoonmpc.harness as harness  # noqa: E402
import platoonmpc.solvers as solvers  # noqa: E402
from platoonmpc.consensus import MessageFabric  # noqa: E402

BUILD, STEP = "build", "step"
SOLVER_SPANS = ("solvers.solve", "solvers.warmup")
MIN_PASSES = 2  # the launcher takes each step's median over the repeated passes
REF_LOOP_N = 10_000


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work.  Run before every untraced
    step, it tells how fast the machine is at that moment: on a shared
    machine other tenants slow everything by up to 1.4x for seconds to
    minutes, and the launcher scales step times by this loop's local speed."""
    t = perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i
    return perf_counter() - t


def make_spec(workload: str, seed: int):
    """The scenario of a workload; only the s3 leader walk uses the seed."""
    if workload == "s1-p1":
        return harness.scenario_builtin("s1", p=1)
    if workload == "s1-p5":
        return harness.scenario_builtin("s1", p=5)
    if workload == "s3-p1-warmup":
        return harness.scenario_builtin("s3-synthetic", p=1, seed=seed,
                                        warm_start="warmup-projection")
    raise ValueError(f"unknown workload {workload!r}")


def hook_steps(on_build, on_step):
    """Call ``on_build`` as each step enters ``build_qcqp`` and ``on_step``
    as it enters ``step_dynamics``: the two ends of the step latency."""
    build, step = harness.build_qcqp, harness.step_dynamics

    def build_hook(*args, **kwargs):
        on_build()
        return build(*args, **kwargs)

    def step_hook(*args, **kwargs):
        on_step()
        return step(*args, **kwargs)

    harness.build_qcqp, harness.step_dynamics = build_hook, step_hook


def run_pass(spec, marks, with_oracle=False):
    """One closed-loop pass.  A typed failure of the package (all are
    RuntimeError subclasses) aborts the pass; the steps it did not finish,
    or for a safety violation the steps that broke the bound, are failed."""
    steps = spec.duration
    t = perf_counter()
    try:
        result = harness.run_scenario(spec, with_oracle=with_oracle)
        error, failed = None, 0
    except harness.SafetyViolation as exc:
        result, error = exc.result, f"SafetyViolation: {exc}"
        failed = max(1, int((exc.result.safety_margins[1:].min(axis=1) < -1e-6).sum()))
    except RuntimeError as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
        failed = steps - sum(kind == STEP for kind, _ in marks)
    wall = perf_counter() - t
    kinds = [kind for kind, _ in marks]
    out = {
        "wall_s": wall,
        "steps": steps,
        "failed": failed,
        "error": error,
        "hooks_once_per_step": error is not None or kinds == [BUILD, STEP] * steps,
        "commanded": result.commanded.tolist() if result is not None else None,
    }
    return out, result


def setup_mode(args):
    class SetupDone(Exception):
        pass

    def stop():
        raise SetupDone(perf_counter())

    hook_steps(stop, lambda: None)
    try:
        harness.run_scenario(make_spec(args.workload, args.seed))
    except SetupDone as done:
        return {"setup_s": done.args[0] - _T0, "numpy": np.__version__}
    raise RuntimeError("the first step never called build_qcqp")


def timed_mode(args):
    """Untraced passes: at least two, then more while the slowest pass so
    far still fits in ``--seconds``.  Every pass replays the same inputs."""
    spec = make_spec(args.workload, args.seed)
    marks, refs = [], []

    def on_build():
        refs.append(reference_loop())  # before the timestamp: outside the step
        marks.append((BUILD, perf_counter()))

    hook_steps(on_build, lambda: marks.append((STEP, perf_counter())))
    passes, setup_s, start, slowest = [], None, perf_counter(), 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + slowest <= args.seconds:
        marks.clear()
        refs.clear()
        out, _ = run_pass(spec, marks)
        if setup_s is None and marks:
            setup_s = marks[0][1] - refs[0] - _T0
        if out["error"] is None and out["hooks_once_per_step"]:
            builds = [t for kind, t in marks if kind == BUILD]
            ends = [t for kind, t in marks if kind == STEP]
            out["latencies_ms"] = [(e - b) * 1e3 for b, e in zip(builds, ends)]
            # build to next build, less the next step's reference loop; the
            # last step ends at its step_dynamics call
            out["cycles_ms"] = [(b2 - b1 - r) * 1e3
                                for b1, b2, r in zip(builds, builds[1:], refs[1:])]
            out["cycles_ms"].append(out["latencies_ms"][-1])
            out["ref_ms"] = [r * 1e3 for r in refs]
        passes.append(out)
        slowest = max(slowest, out["wall_s"])
        if out["failed"] or not out["hooks_once_per_step"]:
            break
    return {"setup_s": setup_s, "peak_rss_kb": _peak_rss_kb(), "passes": passes}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, step, attrs];
    ``parent`` is the index of the enclosing span, ``step`` the control
    step the span belongs to (-1 before the first step)."""

    def __init__(self):
        self.spans = []
        self.marks = []
        self.step = -1
        self.recording = True
        self._open = []
        self._step_span = None

    def begin(self, name, t=None):
        """Open a span; returns its index."""
        self.spans.append([name, perf_counter() if t is None else t, None,
                           self._open[-1] if self._open else None, self.step, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index, t=None):
        self.spans[index][2] = perf_counter() if t is None else t
        self._open.pop()

    def wrap(self, module, attr, name, attrs=None):
        """Rebind ``module.attr`` to a spanned call; ``attrs(result, args,
        kwargs, index)`` turns the returned value into the span's counters."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self.recording:
                return inner(*args, **kwargs)
            index = self.begin(name)
            try:
                out = inner(*args, **kwargs)
            finally:
                self.end(index)
            if attrs is not None:
                self.spans[index][5] = attrs(out, args, kwargs, index)
            return out

        setattr(module, attr, traced)

    def begin_step(self):
        t = perf_counter()
        self.marks.append((BUILD, t))
        self.step += 1
        self._step_span = self.begin("harness.step", t)

    def end_step(self):
        t = perf_counter()
        self.marks.append((STEP, t))
        self.end(self._step_span, t)


def install_tracer(tracer, solves):
    """Span every call that crosses a module boundary in one step."""
    def solve_attrs(report, args, kwargs, index):
        solves.append((index, args, kwargs, report))
        return {"iterations": report.iterations, "prox_fast": report.prox_fast,
                "prox_full": report.prox_full,
                "agent_full": [full for _, full in report.agent_prox_stats]}

    for module, attr, name, attrs in (
            (harness, "stage_blocks", "decomposition.stage_blocks", None),
            (harness, "decompose_pd", "decomposition.decompose_pd", None),
            (harness, "build_qcqp", "problem.build_qcqp", None),
            (harness, "build_local_problems", "solvers.build_local_problems", None),
            (harness, "warmup_initial_guess", "solvers.warmup",
             lambda out, a, k, i: {"iterations": out[1]}),
            (harness, "solve_variant", "solvers.solve", solve_attrs),
            (harness, "solve_centralized", "solvers.centralized", None),
            (harness, "step_dynamics", "core.step_dynamics", None),
            (solvers, "_project", "consensus.project", None),
            (solvers, "solve_qcqp", "smallqcqp.solve_qcqp",
             lambda out, a, k, i: {"iterations": out.iterations, "status": out.status})):
        tracer.wrap(module, attr, name, attrs)
    hook_steps(tracer.begin_step, tracer.end_step)


def child_time(spans):
    """Time each span's direct children cover, by parent index."""
    children = defaultdict(float)
    for s in spans:
        if s[2] is not None and s[3] is not None:
            children[s[3]] += s[2] - s[1]
    return children


def layer_metrics(spans, steps, n, p):
    """Per-layer numbers derived from the spans.  A layer whose span never
    fired is None (absent), never zero, so a refactor that bypasses a hook
    does not read as a speed-up.  The one exception is smallqcqp when the
    solves report no full-path prox step: then zero calls is the answer."""
    children = child_time(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s[2] is not None:
            by_name[s[0]].append(i)

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def own(idx):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in idx)

    def fired(idx, value):
        return value if idx else None

    def per_call(idx, scale):
        return fired(idx, scale * total(idx) / max(1, len(idx)))

    def per_step(idx, scale):
        return fired(idx, scale * total(idx) / steps)

    def under_solver(name):
        return [i for i in by_name[name]
                if spans[i][3] is not None and spans[spans[i][3]][0] in SOLVER_SPANS]

    build, local = by_name["problem.build_qcqp"], by_name["solvers.build_local_problems"]
    solve, warm = by_name["solvers.solve"], by_name["solvers.warmup"]
    step_spans = by_name["harness.step"]
    proj = under_solver("consensus.project")
    qcqp = under_solver("smallqcqp.solve_qcqp")
    iters = [spans[i][5]["iterations"] for i in solve]
    wu_iters = [spans[i][5]["iterations"] for i in warm]
    fast = sum(spans[i][5]["prox_fast"] for i in solve)
    full = sum(spans[i][5]["prox_full"] for i in solve)
    agent_full = [sum(col) for col in zip(*(spans[i][5]["agent_full"] for i in solve))]
    qcqp_idle = not qcqp and solve and full == 0
    msgs_per_proj = 2 * 2 * (n - 1)             # 2 rounds of 2(n-1) messages
    floats_per_proj = 2 * (n - 1) * (2 * p + p)  # gather 2p floats, scatter p

    def qcqp_count(value):
        return 0 if qcqp_idle else fired(qcqp, value)

    return {
        "problem.build_qcqp.us": per_call(build, 1e6),
        "problem.build_qcqp.calls": fired(build, len(build)),
        "decomposition.stage_blocks.ms": per_call(by_name["decomposition.stage_blocks"], 1e3),
        "decomposition.decompose_pd.ms": per_call(by_name["decomposition.decompose_pd"], 1e3),
        "solvers.build_local_problems.us": per_call(local, 1e6),
        "solvers.solve.ms_per_step": per_step(solve, 1e3),
        "solvers.self_us_per_iter": fired(solve, 1e6 * own(solve) / max(1, sum(iters))),
        "solvers.iters_per_step": fired(solve, sum(iters) / max(1, len(solve))),
        "solvers.iters_max": fired(solve, max(iters, default=0)),
        "solvers.prox_fast": fired(solve, fast),
        "solvers.prox_full": fired(solve, full),
        "solvers.fast_ratio": fired(solve, fast / max(1, fast + full)),
        "solvers.prox_full_max_agent": fired(solve, max(agent_full, default=0)),
        "solvers.warmup.ms_per_step": per_step(warm, 1e3),
        "solvers.warmup_iters_per_step": fired(warm, sum(wu_iters) / max(1, len(warm))),
        "solvers.centralized.ms_per_call": per_call(by_name["solvers.centralized"], 1e3),
        "consensus.projections": fired(proj, len(proj)),
        "consensus.us_per_call": per_call(proj, 1e6),
        "consensus.ms_per_step": per_step(proj, 1e3),
        "consensus.rounds": fired(proj, 2 * len(proj)),
        "consensus.messages": fired(proj, msgs_per_proj * len(proj)),
        "consensus.floats": fired(proj, floats_per_proj * len(proj)),
        "smallqcqp.calls": qcqp_count(len(qcqp)),
        "smallqcqp.us_per_call": per_call(qcqp, 1e6),
        "smallqcqp.ms_per_step": 0.0 if qcqp_idle else per_step(qcqp, 1e3),
        "smallqcqp.newton_iters": qcqp_count(sum(spans[i][5]["iterations"] for i in qcqp)),
        "smallqcqp.not_optimal": qcqp_count(sum(spans[i][5]["status"] != "optimal"
                                                for i in qcqp)),
        "harness.step_self_ms": fired(step_spans, 1e3 * own(step_spans) / steps),
        "core.step_dynamics.us": per_call(by_name["core.step_dynamics"], 1e6),
    }


def step_shares(spans):
    """Shares of the step spans' time, oracle excluded: ``self`` by layer
    (sums to one), ``inclusive`` by direct child of the step, children's
    own children included (the step's own remainder is ``harness.step``)."""
    children = child_time(spans)

    def counted(i):
        while True:
            if spans[i][0] == "solvers.centralized":
                return False
            if spans[i][3] is None:
                return spans[i][0] == "harness.step"
            i = spans[i][3]

    own, inclusive = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        if s[2] is None or not counted(i):
            continue
        own[s[0]] += s[2] - s[1] - children[i]
        if s[3] is None:
            inclusive[s[0]] += s[2] - s[1] - children[i]
        elif spans[s[3]][3] is None:
            inclusive[s[0]] += s[2] - s[1]
    base = sum(own.values())
    if not base:
        return {"self": {}, "inclusive": {}}
    return {kind: {name: t / base for name, t in sorted(table.items())}
            for kind, table in (("self", own), ("inclusive", inclusive))}


def fabric_crosscheck(spans, solves):
    """Rerun the median-iteration step's solve through the simulated
    message fabric: it must take two rounds per counted projection and give
    a bit-identical answer."""
    if not solves:
        return {"ok": False, "reason": "no solve span fired"}
    idx, args, kwargs, report = sorted(solves, key=lambda s: s[3].iterations)[len(solves) // 2]
    problems, graph, params = args[:3]
    projections = sum(1 for s in spans if s[0] == "consensus.project" and s[3] == idx)
    fabric = MessageFabric(graph)
    again = solvers.solve_dr(problems, graph, params, z0=kwargs.get("z0"), fabric=fabric)
    same = again.u_star.tobytes() == report.u_star.tobytes()
    return {"ok": bool(same and fabric.round == 2 * projections), "step": spans[idx][4],
            "projections": projections, "fabric_rounds": fabric.round,
            "u_star_bit_identical": bool(same)}


def traced_mode(args):
    """One pass with the oracle and a span at every module boundary; the
    spans go to ``--spans``, the derived numbers to the launcher."""
    spec = make_spec(args.workload, args.seed)
    tracer, solves = Tracer(), []
    install_tracer(tracer, solves)
    out, result = run_pass(spec, tracer.marks, with_oracle=True)
    tracer.recording = False
    spans = tracer.spans
    setup_s = tracer.marks[0][1] - _T0 if tracer.marks else None
    n, p = harness.reference_config(horizon=spec.horizon).n, spec.horizon
    out.update({
        "setup_s": setup_s,
        "peak_rss_kb": _peak_rss_kb(),
        "oracle_s": sum(s[2] - s[1] for s in spans
                        if s[0] == "solvers.centralized" and s[2] is not None),
        "layers": layer_metrics(spans, spec.duration, n, p),
        "shares": step_shares(spans),
        "crosscheck": fabric_crosscheck(spans, solves),
        "spans": len(spans),
    })
    rounds = out["layers"]["consensus.rounds"]
    out["rounds_per_step"] = rounds / spec.duration if rounds is not None else None
    if result is not None and out["error"] is None:
        finite = np.isfinite(result.rel_errors)
        mags = np.abs(result.oracle_first).max(axis=1)
        out["rel_err_mean"] = result.metrics["rel_error_mean"]
        out["rel_err_samples"] = int((finite & (mags > 0.01 * mags.max())).sum())
    with open(args.spans, "w") as fh:
        for name, start, end, parent, step, attrs in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "step": step, "workload": args.workload,
                                 "attrs": attrs}) + "\n")
    return out


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="where the traced mode writes its spans (JSONL)")
    args = parser.parse_args()
    mode = {"setup": setup_mode, "timed": timed_mode, "traced": traced_mode}[args.mode]
    print(json.dumps(mode(args)))


if __name__ == "__main__":
    main()
