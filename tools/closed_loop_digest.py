"""SHA-256 digests of the reference closed-loop runs.

Run from anywhere; it imports the package from the checkout it lives in:

    python3 tools/closed_loop_digest.py

For each run (``s1`` and ``s2`` at p = 1 and 5; ``s3-synthetic`` seed 1 at
p = 1 and 5 with the warm-up start; seed 7 at p = 5) it prints one line of
digests: the ``commanded`` bytes, every step's ``u_star`` bytes, the
per-step DR iterations and warm-up rounds, and every step's per-agent
(fast, full) proximal counts.  Then, for ``s1`` at p = 1 and 5, one
line digests every step's centralized reference answer
(``solve_centralized``), which reads the reference's own constraint rows.
Then, one line per run, the seven above and ``s3-synthetic`` seed 1 at
p = 1 with process noise, digests the series the run returns: spacings,
speeds, safety margins, realized controls, fabric rounds and floats, and
the ``metrics`` dict as sorted JSON.  Last, one line digests the built-in
weight schedules (``default_weight_schedule``) and the stability reports
(``stability_report_json`` of the reference platoon) for p = 1 to 5.
Two checkouts that print the same lines computed the same closed loops,
the same reference answers and the same weight designs, bit for bit.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import platoonmpc.harness as harness  # noqa: E402
from platoonmpc.core import reference_config  # noqa: E402
from platoonmpc.stability import default_weight_schedule, stability_report_json  # noqa: E402

RUNS = (
    ("s1", 1, 0, None),
    ("s1", 5, 0, None),
    ("s2", 1, 0, None),
    ("s2", 5, 0, None),
    ("s3-synthetic", 1, 1, "warmup-projection"),
    ("s3-synthetic", 5, 1, "warmup-projection"),
    ("s3-synthetic", 5, 7, "warmup-projection"),
)
ORACLE_RUNS = (("s1", 1), ("s1", 5))
NOISY_RUN = ("s3-synthetic", 1, 1)
SCHEDULE_HORIZONS = range(1, 6)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


def recording(name, into):
    """Rebind ``harness.<name>`` to a wrapper that appends every answer to ``into``."""
    call = getattr(harness, name)

    def recorded(*args, **kwargs):
        into.append(call(*args, **kwargs))
        return into[-1]

    setattr(harness, name, recorded)


def main():
    reports, answers, results = [], [], []
    recording("solve_variant", reports)
    recording("solve_centralized", answers)
    for name, p, seed, warm_start in RUNS:
        reports.clear()
        result = harness.run_scenario(harness.scenario_builtin(name, p=p, seed=seed,
                                                               warm_start=warm_start))
        label = f"{name} p={p} seed={seed} start={warm_start or 'prev-solution'}"
        results.append((label, result))
        counts = np.array([r.agent_prox_stats for r in reports], dtype=np.int64)
        print(f"{label}: "
              f"commanded {digest(result.commanded)} "
              f"u_star {digest(*(r.u_star for r in reports))} "
              f"iterations {digest(np.array([r.iterations for r in reports], dtype=np.int64))} "
              f"warmup {digest(result.warmup_iterations.astype(np.int64))} "
              f"prox {digest(counts)}")
    for name, p in ORACLE_RUNS:
        answers.clear()
        harness.run_scenario(harness.scenario_builtin(name, p=p), with_oracle=True)
        print(f"{name} p={p} oracle: {len(answers)} answers, "
              f"solve_centralized {digest(*answers)}")
    name, p, seed = NOISY_RUN
    results.append((f"{name} p={p} seed={seed} start=prev-solution noise",
                    harness.run_scenario(harness.scenario_builtin(name, p=p, seed=seed,
                                                                  noise=True))))
    for label, r in results:
        metrics = json.dumps(r.metrics, sort_keys=True).encode()
        print(f"{label} series: spacings {digest(r.spacings)} speeds {digest(r.speeds)} "
              f"margins {digest(r.safety_margins)} controls {digest(r.controls)} "
              f"rounds {digest(r.rounds.astype(np.int64))} "
              f"floats {digest(r.floats.astype(np.int64))} "
              f"metrics {digest(np.frombuffer(metrics, dtype=np.uint8))}")
    schedules = [default_weight_schedule(p) for p in SCHEDULE_HORIZONS]
    reports = [stability_report_json(reference_config(horizon=p), w).encode()
               for p, w in zip(SCHEDULE_HORIZONS, schedules)]
    print(f"weights p={SCHEDULE_HORIZONS[0]}..{SCHEDULE_HORIZONS[-1]}: "
          f"schedule {digest(*(q for w in schedules for q in (w.q_gap, w.q_rate, w.q_ride)))} "
          f"stability {digest(*(np.frombuffer(r, dtype=np.uint8) for r in reports))}")


if __name__ == "__main__":
    main()
