"""Scenario: the leader's speed oscillates periodically.

The platoon filters a +-1 m/s speed oscillation of the leader (period
four seconds); only the lead gap responds, and the oscillation dies out
quickly once the forcing stops.
"""

import numpy as np

from platoonmpc import run_scenario, scenario_builtin

spec = scenario_builtin("s2", p=1)
res = run_scenario(spec)

dev = np.abs(res.spacings[:, 0] - spec.cfg.gap)
print(f"lead-gap oscillation during forcing: max {dev[:101].max():.3f} m")
decay = next(k for k in range(101, dev.size) if np.all(dev[k:] < 0.01))
print(f"decays below 1 cm within {decay - 101} s after the forcing ends")
print(f"trailing gaps: max deviation {res.metrics['max_dev_other_gaps'] * 100:.2f} cm")

# speed envelope of the platoon
print(f"speed range across the run: "
      f"[{res.speeds.min():.2f}, {res.speeds.max():.2f}] m/s")
