"""Scenario: synthetic traffic oscillation with process noise.

The leader follows a seeded, mean-reverting acceleration walk (a stand-in
for a recorded oscillating trajectory; acceleration capped at 2 m/s^2) and
every controlled vehicle's realized acceleration is perturbed by zero-mean
normal noise, larger on the first vehicle.  Safe spacing must survive the
disturbances.
"""

import numpy as np

from platoonmpc import run_scenario, scenario_builtin

spec = scenario_builtin("s3-synthetic", p=1, seed=1, noise=True)
res = run_scenario(spec)

leader = spec.leader.samples
print(f"leader acceleration range: [{leader.min():.2f}, {leader.max():.2f}] m/s^2")
print(f"lead gap stays within {res.metrics['max_dev_first_gap']:.2f} m of the target")
print(f"trailing gaps stay within {res.metrics['max_dev_other_gaps']:.2f} m under noise")
print(f"minimum safety margin: {res.metrics['min_safety_margin']:.2f} m (never violated)")

# same seed, same run: the pipeline is fully deterministic
again = run_scenario(scenario_builtin("s3-synthetic", p=1, seed=1, noise=True))
print("byte-identical repeat with the same seed:",
      np.array_equal(res.spacings, again.spacings))
