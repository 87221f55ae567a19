"""The benchmark's traced mode still finds every package name it rebinds.

``perfbench/workload.py`` measures each layer by rebinding names in
``harness`` and ``solvers`` (``solvers.solve_qcqp``, ``solvers._project``,
``harness.solve_variant``, ...).  A rename there, or a step program built
outside ``build_qcqp`` and ``build_local_problems``, would otherwise surface
only when the benchmark runs; one traced pass of each benchmark workload
catches it here.  The result line is parsed as strict JSON, so a NaN or
Infinity fails here rather than as a malformed benchmark line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def reject_constant(name):
    """Strict JSON: a NaN or Infinity in the result line is a malformed benchmark line."""
    raise ValueError(f"non-finite constant {name} in the benchmark's result line")


@pytest.mark.parametrize("workload", ["s1-p1", "s1-p5", "s3-p1-warmup"])
def test_traced_workload_hooks_fire(tmp_path, workload):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--mode", "traced",
         "--workload", workload, "--seed", "1", "--spans", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=reject_constant)
    assert out["error"] is None
    assert out["hooks_once_per_step"] is True
    assert out["crosscheck"]["ok"] is True, out["crosscheck"]
    # the step program is built through the two hooked names, once per step
    assert out["layers"]["problem.build_qcqp.calls"] == out["steps"]
    assert out["layers"]["solvers.build_local_problems.us"] is not None
    # the stage blocks and the Hessian split (with the agents' stack) once per run
    names = [json.loads(line)["name"] for line in (tmp_path / "spans.jsonl").open()]
    assert [names.count(f"decomposition.{f}") for f in ("stage_blocks", "decompose_pd")] == [1, 1]
    # a layer whose span never fires reads null, and a null metric fails the
    # benchmark run: smallqcqp's reads null once the solves make full-path
    # steps but never call solve_qcqp
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    absent = [name for name in listed if name in out["layers"]
              and not (isinstance(out["layers"][name], (int, float))
                       and math.isfinite(out["layers"][name]))]
    assert not absent, (
        f"{workload}: per-layer metrics {absent} are not finite numbers; ROADMAP item 1's span "
        "of smallqcqp.active_set_loop must land before any change removes the last cold "
        "solve_qcqp call")
