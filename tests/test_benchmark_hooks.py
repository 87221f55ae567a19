"""The benchmark's traced mode still finds every package name it rebinds.

``perfbench/workload.py`` measures each layer by rebinding names in
``harness`` and ``solvers`` (``solvers.solve_qcqp``, ``solvers._project``,
``harness.solve_variant``, ...).  A rename there, or a step program built
outside ``build_qcqp`` and ``build_local_problems``, would otherwise surface
only when the benchmark runs; one traced pass of ``s1-p5`` catches it here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_traced_workload_hooks_fire(tmp_path):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--mode", "traced",
         "--workload", "s1-p5", "--seed", "1", "--spans", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["error"] is None
    assert out["hooks_once_per_step"] is True
    assert out["crosscheck"]["ok"] is True, out["crosscheck"]
    # the step program is built through the two hooked names, once per step
    assert out["layers"]["problem.build_qcqp.calls"] == out["steps"]
    assert out["layers"]["solvers.build_local_problems.us"] is not None
