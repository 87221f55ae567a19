"""How the coupled objective Hessian splits across the platoon.

The quadratic cost couples every vehicle through prefix sums of the
acceleration gaps, yet it decomposes exactly into one positive definite
block per vehicle touching only chain neighbors.  This script shows the
split, its exactness, and the margin chain that keeps every block positive
definite.
"""

import numpy as np

from platoonmpc import decompose_pd, stage_blocks
from platoonmpc.stability import default_weight_schedule

weights = default_weight_schedule(2)
blocks = stage_blocks(weights, tau=1.0)
n, p = len(blocks), blocks.shape[1]
print(f"stage-coupling blocks: {n} vehicles, {p}x{p} each")
print("vehicle 1 block:\n", np.array2string(blocks[0], precision=2))

stack = decompose_pd(blocks)
W = sum(stack.embedded(i) for i in range(n))
print(f"\npositive definite split into {n} agent blocks")
print(f"  margin chain deltas: {np.array2string(np.asarray(stack.deltas), precision=4)}")
print(f"  smallest block eigenvalues: {np.array2string(stack.lambda_min, precision=4)}")

# exactness: the embedded blocks sum back to the full Hessian
dense = np.zeros((n * p, n * p))
diag_blocks = [blocks[i] + (blocks[i + 1] if i + 1 < n else 0) for i in range(n)]
for i in range(n):
    dense[i * p:(i + 1) * p, i * p:(i + 1) * p] = diag_blocks[i]
    if i + 1 < n:
        dense[i * p:(i + 1) * p, (i + 1) * p:(i + 2) * p] = -blocks[i + 1]
        dense[(i + 1) * p:(i + 2) * p, i * p:(i + 1) * p] = -blocks[i + 1]
rel = np.linalg.norm(W - dense) / np.linalg.norm(dense)
print(f"  reconstruction error: {rel:.2e} (relative Frobenius)")
