"""Numeric differences between the reference closed loops of two checkouts.

    python3 tools/closed_loop_diff.py OLD NEW

OLD and NEW are the roots of two checkouts.  Each one, in its own
subprocess with its own ``src`` on the path, runs the closed loops of
``closed_loop_digest.py``: its eight built-in runs, ``s1`` at p = 1 under
each three-operator variant, and its two runs with the centralized
reference.  One line per run compares NEW with OLD: the largest absolute
difference of ``commanded`` and of the safety margins, the total DR
iterations old -> new with the number of steps whose count differs, and
the total fabric rounds old -> new; an oracle run adds the largest
absolute difference of the reference's answers (``solve_centralized``).
Where ``closed_loop_digest.py`` says only that a line differs, this says
by how much: two checkouts that compute the same closed loops print zeros
and equal totals everywhere.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from closed_loop_digest import ORACLE_RUNS, RUNS, THREE_OP_VARIANTS, run_label  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Runs with the checkout's own package: argv[1] the runs as JSON, argv[2] the
# .npz it writes.  It reads only names that every checkout has had since
# ``run_scenario`` took its one spec.
WORKER = """
import json, sys
from dataclasses import replace
import numpy as np
import platoonmpc.harness as harness

answers, solve = [], harness.solve_centralized

def recorded(prob):
    answers.append(solve(prob))
    return answers[-1]

harness.solve_centralized = recorded
out = {}
for i, (name, p, seed, start, noise, variant, oracle) in enumerate(json.loads(sys.argv[1])):
    spec = harness.scenario_builtin(name, p=p, seed=seed, noise=noise, warm_start=start)
    if variant is not None:
        spec = replace(spec, solver=replace(spec.solver, variant=variant))
    answers.clear()
    r = harness.run_scenario(spec, with_oracle=oracle)
    out.update({f"{i}/commanded": r.commanded, f"{i}/margins": r.safety_margins,
                f"{i}/iterations": r.iterations, f"{i}/rounds": r.rounds,
                f"{i}/oracle": np.asarray(answers, dtype=float)})
np.savez(sys.argv[2], **out)
"""


def runs():
    """(label, (name, p, seed, start, noise, variant, oracle)) of every compared run."""
    out = [(run_label(*run), (*run, None, False)) for run in RUNS]
    out += [(f"s1 p=1 {variant}", ("s1", 1, 0, None, False, variant, False))
            for variant in THREE_OP_VARIANTS]
    out += [(f"{name} p={p} oracle", (name, p, 0, None, False, None, True))
            for name, p in ORACLE_RUNS]
    return out


def start(checkout, specs, path):
    src = Path(checkout).resolve() / "src"
    if not (src / "platoonmpc").is_dir():
        raise SystemExit(f"{checkout}: no src/platoonmpc")
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"), PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-c", WORKER, json.dumps(specs), path], env=env,
                            stderr=subprocess.PIPE, text=True)


def largest(a, b) -> str:
    return f"{np.abs(a - b).max(initial=0.0):.3g}"


def main():
    if len(sys.argv) != 3:
        raise SystemExit("usage: closed_loop_diff.py OLD NEW")
    compared = runs()
    specs = [spec for _, spec in compared]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{side}.npz") for side in ("old", "new")]
        procs = [start(checkout, specs, path) for checkout, path in zip(sys.argv[1:], paths)]
        for checkout, proc in zip(sys.argv[1:], procs):
            _, err = proc.communicate()
            if proc.returncode != 0:
                raise SystemExit(f"{checkout} failed:\n{err}")
        old, new = (dict(np.load(path)) for path in paths)
    for i, (label, (*_, oracle)) in enumerate(compared):
        o, n = ({key: d[f"{i}/{key}"] for key in ("commanded", "margins", "iterations", "rounds",
                                                  "oracle")} for d in (old, new))
        line = (f"{label}: commanded {largest(o['commanded'], n['commanded'])} "
                f"margins {largest(o['margins'], n['margins'])} "
                f"iterations {o['iterations'].sum()} -> {n['iterations'].sum()} "
                f"({np.count_nonzero(o['iterations'] != n['iterations'])} steps differ) "
                f"rounds {o['rounds'].sum()} -> {n['rounds'].sum()}")
        if oracle:
            line += f" oracle {largest(o['oracle'], n['oracle'])}"
        print(line)


if __name__ == "__main__":
    main()
