"""Effect of the constraint-free warm start on solver effort.

On oscillating traffic at a five-stage horizon, seeding each step's solve
from the projected constraint-free solution (computed exactly by one
elimination sweep down the vehicle chain and back) beats reusing the
previous step's iterate.
"""

import numpy as np

from platoonmpc import run_scenario, scenario_builtin

prev = run_scenario(scenario_builtin("s3-synthetic", p=5, seed=1, warm_start="prev-solution"))
warm = run_scenario(scenario_builtin("s3-synthetic", p=5, seed=1, warm_start="warmup-projection"))

print("constrained iterations per step on the oscillating scenario, horizon 5")
print(f"  previous-solution start: median {np.median(prev.iterations):.0f}, "
      f"mean {prev.iterations.mean():.0f}, max {prev.iterations.max()}")
print(f"  warm-start projection:   median {np.median(warm.iterations):.0f}, "
      f"mean {warm.iterations.mean():.0f}, max {warm.iterations.max()}")
print(f"  (warm-up sweep itself: median {np.median(warm.warmup_iterations):.0f} "
      f"sequential neighbor-message rounds per step)")
