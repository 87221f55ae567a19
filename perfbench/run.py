"""Closed-loop platoon benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload s1-p5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh single-threaded processes (BLAS and OpenMP
pinned to one thread), one at a time: a few set-up probes, then untraced
passes for ``--seconds``, then one traced pass with the centralized oracle.
The command checks the outputs, prints every end-to-end and per-layer
metric with its unit and sample count, writes the full record and the
spans under ``perfbench/out/``, and ends with one JSON line: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  It exits non-zero when a check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("s1-p1", "s1-p5", "s3-p1-warmup")
DEFAULT_SEED = 1    # drives the s3 leader walk; the s1 workloads take no seed
HELD_OUT_SEED = 7   # re-check a claimed gain on this seed as well
TAU_MS = 1000.0     # sample time: the latency limit of one control step
TAIL_BEYOND = 10    # the tail percentile leaves this many steps of a pass above it
SETUP_PROBES = 5
REF_WINDOW = 10       # steps on each side whose reference loops give a step's local speed
REF_NOMINAL_MS = 0.75  # reference-loop time that the *_norm metrics are scaled to
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "steps_per_s_norm": "1/s",
    "step_ms_p50_norm": "ms",
    "step_ms_tail_norm": "ms",
    "deadline_miss_share": "share",
    "rounds_per_step": "rounds",
    "rel_err_mean": "ratio",
    "failed_step_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "problem.build_qcqp.us": "us",
    "problem.build_qcqp.calls": "count",
    "decomposition.stage_blocks.ms": "ms",
    "decomposition.decompose_pd.ms": "ms",
    "solvers.build_local_problems.us": "us",
    "solvers.solve.ms_per_step": "ms",
    "solvers.self_us_per_iter": "us",
    "solvers.iters_per_step": "iters",
    "solvers.iters_max": "iters",
    "solvers.prox_fast": "count",
    "solvers.prox_full": "count",
    "solvers.fast_ratio": "ratio",
    "solvers.prox_full_max_agent": "count",
    "solvers.warmup.ms_per_step": "ms",
    "solvers.warmup_iters_per_step": "iters",
    "solvers.centralized.ms_per_call": "ms",
    "solvers.rel_err_mean": "ratio",
    "consensus.projections": "count",
    "consensus.us_per_call": "us",
    "consensus.ms_per_step": "ms",
    "consensus.rounds": "computed",
    "consensus.messages": "computed",
    "consensus.floats": "computed",
    "smallqcqp.calls": "count",
    "smallqcqp.us_per_call": "us",
    "smallqcqp.ms_per_step": "ms",
    "smallqcqp.newton_iters": "iters",
    "smallqcqp.not_optimal": "count",
    "harness.step_self_ms": "ms",
    "core.step_dynamics.us": "us",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(root: Path, deadline: float, mode: str, workload: str, seed: int, *extra) -> dict:
    """Run ``workload.py`` in a fresh process and return its JSON line."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} process exited {proc.returncode}\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated percentile, as numpy's default."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def differing_steps(a, b) -> int:
    """Steps whose commanded rows are not bit-identical."""
    if a is None or b is None:
        return 0
    return sum([x.hex() for x in ra] != [x.hex() for x in rb] for ra, rb in zip(a, b))


def environment(root: Path, numpy_version: str, loadavg: float) -> dict:
    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted((root / "src").rglob("*.py")))
    return {"commit": git_commit(root), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "loadavg_1min_at_start": loadavg, "src_lines": src_lines,
            "threads": {var: "1" for var in THREAD_VARS}}


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository or the ref is packed."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """All processes of one workload, the checks, and the derived metrics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    loadavg = os.getloadavg()[0]
    probes = [run_child(root, deadline, "setup", workload, seed) for _ in range(SETUP_PROBES)]
    timed = run_child(root, deadline, "timed", workload, seed, "--seconds", str(seconds))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    traced = run_child(root, deadline, "traced", workload, seed, "--spans", str(spans_path))

    passes = timed["passes"]
    steps = traced["steps"]
    attempted = sum(p["steps"] for p in passes) + steps
    failed = 0
    for p in passes + [traced]:
        failed += p["failed"] if p["hooks_once_per_step"] else p["steps"]
    mismatched = sum(differing_steps(p["commanded"], traced["commanded"]) for p in passes)
    failed += mismatched
    crosscheck = traced["crosscheck"]
    failed += 0 if crosscheck["ok"] else 1
    errors = [p["error"] for p in passes + [traced] if p["error"]]
    checks = {
        "every_pass_finished": not errors,
        "step_hooks_once_per_step": all(p["hooks_once_per_step"] for p in passes + [traced]),
        "commanded_bit_identical_untraced_vs_traced": mismatched == 0,
        "fabric_crosscheck": crosscheck,
    }

    # Every pass replays bit-identical inputs (checked above), so each step
    # has one sample per pass: take the median.  The *_norm metrics first
    # scale every sample by the machine's speed around that step, measured
    # by the reference loop, to the speed at which the loop takes
    # REF_NOMINAL_MS: other tenants of a shared machine slow whole runs.
    timed_ok = [p for p in passes if "latencies_ms" in p]

    def per_step(key, normalized):
        samples = []
        for p in timed_ok:
            values, refs = p[key], p["ref_ms"]
            if normalized:
                values = [v * REF_NOMINAL_MS / statistics.median(
                    refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
                    for k, v in enumerate(values)]
            samples.append(values)
        return [statistics.median(col) for col in zip(*samples)]

    latencies, cycles = per_step("latencies_ms", False), per_step("cycles_ms", False)
    latencies_n, cycles_n = per_step("latencies_ms", True), per_step("cycles_ms", True)
    ref_ms = statistics.median(r for p in timed_ok for r in p["ref_ms"]) if timed_ok else None
    repeats = f"{steps} steps, median of {len(timed_ok)} passes each"
    scaled = f"; scaled to reference loop = {REF_NOMINAL_MS} ms"
    untraced_wall = statistics.median(p["wall_s"] for p in passes)
    setups = [s["setup_s"] for s in probes] + [timed["setup_s"], traced["setup_s"]]
    setups = [s for s in setups if s is not None]
    tail_q = 100.0 * (1.0 - TAIL_BEYOND / steps)

    def metric(value, samples, note):
        return {"value": value, "samples": samples, "note": note}

    end_to_end = {
        "steps_per_s": metric(1e3 * len(cycles) / sum(cycles) if cycles else None,
                              len(cycles), "first step to last; " + repeats),
        "step_ms_p50": metric(statistics.median(latencies) if latencies else None,
                              len(latencies), repeats),
        "step_ms_tail": metric(percentile(latencies, tail_q) if latencies else None,
                               len(latencies),
                               f"p{tail_q:.2f}, {TAIL_BEYOND} steps beyond it; " + repeats),
        "steps_per_s_norm": metric(1e3 * len(cycles_n) / sum(cycles_n) if cycles_n else None,
                                   len(cycles_n), repeats + scaled),
        "step_ms_p50_norm": metric(statistics.median(latencies_n) if latencies_n else None,
                                   len(latencies_n), repeats + scaled),
        "step_ms_tail_norm": metric(percentile(latencies_n, tail_q) if latencies_n else None,
                                    len(latencies_n), f"p{tail_q:.2f}; " + repeats + scaled),
        "deadline_miss_share": metric(
            sum(x > TAU_MS for x in latencies) / len(latencies) if latencies else None,
            len(latencies), f"limit tau = {TAU_MS:.0f} ms; " + repeats),
        "rounds_per_step": metric(traced["rounds_per_step"], steps,
                                  "2 per consensus projection, warm-up included"),
        "rel_err_mean": metric(traced.get("rel_err_mean"), traced.get("rel_err_samples", 0),
                               "traced pass, criterion-4 definition"),
        "failed_step_share": metric(failed / attempted, attempted, "all passes"),
        "setup_s": metric(statistics.median(setups) if setups else None, len(setups),
                          "median over fresh processes"),
        "peak_rss_mb": metric(timed["peak_rss_kb"] / 1024.0, 1, "untraced process"),
    }
    for name, unit in END_TO_END_UNITS.items():
        end_to_end[name]["unit"] = unit

    layers = dict(traced["layers"])
    layers["solvers.rel_err_mean"] = traced.get("rel_err_mean")
    overhead = traced["wall_s"] - traced["oracle_s"] - untraced_wall
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_share"] = overhead / untraced_wall
    per_layer = {name: {"value": layers.get(name), "unit": unit, "samples": steps}
                 for name, unit in LAYER_UNITS.items()}

    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload.startswith("s3"),
        "seconds": seconds,
        "environment": environment(root, probes[0]["numpy"], loadavg),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "step_time_shares": traced["shares"],
        "traced_pass": {"wall_s": traced["wall_s"], "oracle_s": traced["oracle_s"],
                        "untraced_wall_s": untraced_wall, "spans": traced["spans"],
                        "spans_file": str(spans_path.relative_to(root))
                        if spans_path.is_relative_to(root) else str(spans_path)},
        "untraced_passes": len(passes),
        "reference_loop_ms": ref_ms,
    }


def fmt(value):
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(rec: dict) -> None:
    env = rec["environment"]
    seed_note = (f"drives the leader walk; held-out seed {HELD_OUT_SEED}" if rec["seed_used"]
                 else "unused, deterministic")
    print(f"== {rec['workload']}  seed {rec['seed']} ({seed_note})  "
          f"{rec['untraced_passes']} untraced passes + 1 traced")
    print(f"   commit {env['commit']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  load {env['loadavg_1min_at_start']:.2f}  "
          f"src lines {env['src_lines']}  reference loop {fmt(rec['reference_loop_ms'])} ms")
    print(f"   {'end-to-end':<34}{'value':>14}  {'unit':<9}{'samples':>8}")
    for name, m in rec["end_to_end"].items():
        print(f"   {name:<34}{fmt(m['value']):>14}  {m['unit']:<9}{m['samples']:>8}"
              f"  ({m['note']})")
    print(f"   {'per-layer (traced pass)':<34}{'value':>14}  {'unit':<9}{'steps':>8}")
    for name, m in rec["per_layer"].items():
        print(f"   {name:<34}{fmt(m['value']):>14}  {m['unit']:<9}{m['samples']:>8}")
    for kind, shares in rec["step_time_shares"].items():
        listed = "  ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        print(f"   {kind} shares of step time: {listed}")
    for name, value in rec["checks"].items():
        print(f"   check {name}: {value}")
    for error in rec["errors"]:
        print(f"   error: {error}")
    print(f"   correct {rec['correct']}  attempted {rec['attempted']} steps  "
          f"failed {rec['failed']}")


def driver_line(rec: dict, trace: int, spec: dict) -> dict:
    """The last stdout line: the metrics ``BENCHMARK.json`` lists."""
    key, source = ("per_layer", rec["per_layer"]) if trace else ("end_to_end", rec["end_to_end"])
    return {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                    "unit": source[m["name"]]["unit"]} for m in spec[key]}}


def main() -> int:
    parser = argparse.ArgumentParser(description="Closed-loop platoon benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="final JSON line: 0 end-to-end metrics, 1 per-layer metrics")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "platoonmpc" / "__init__.py").is_file():
        print("perfbench: src/platoonmpc not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            rec = measure(root, workload, args.seed, args.seconds)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{workload}-seed{args.seed}.json", "w") as fh:
            json.dump(rec, fh, indent=1)
        print_report(rec)
        ok = ok and rec["correct"]
        print(json.dumps(driver_line(rec, args.trace, spec)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
