"""The 4-qubit data-reuploading circuit and its SPSA optimizer.

Builds small states gate by gate, runs the layered circuit, and minimizes a
quadratic with the three-evaluation simultaneous-perturbation estimator.
"""

import json

import numpy as np

from fanetq.critics import CircuitCore
from fanetq.qsim import (
    H_MATRIX,
    SCALING_FNS,
    SpsaState,
    VqcSpec,
    apply_1q,
    apply_cnot,
    spsa_gradient,
    vqc_forward,
    zero_state,
)

# Bell pair from two gates
state = zero_state(2)
state = apply_1q(state, H_MATRIX, 0)
state = apply_cnot(state, 0, 1)
print("Bell state amplitudes:", np.round(state, 4))

# layered circuit: 4L pre-features, scaled to input angles, in; four <Z> expectations out
rng = np.random.default_rng(0)
for L in (1, 2, 3):
    spec = VqcSpec(n_layers=L, scaling_fn="arctan")
    theta = rng.uniform(-np.pi, np.pi, spec.n_theta)
    xi = rng.uniform(0.5, 1.5, spec.n_features)
    feats = rng.uniform(-1, 1, spec.n_features)
    z = vqc_forward(spec, SCALING_FNS[spec.scaling_fn][0](feats * xi), theta)
    print(f"L={L}: {12*L} circuit weights, <Z> = {np.round(z, 4)}")

print("\ncircuit description export:", json.dumps(CircuitCore(VqcSpec(1), np.zeros(12)).to_dict())[:80], "...")

# SPSA: three loss evaluations per gradient estimate, then a step of size a_k
target = rng.uniform(-1, 1, 12)
state = SpsaState(a=0.6, c=0.1, rng=np.random.default_rng(1))
theta = np.zeros(12)
for _ in range(2000):
    step = state.step_size()
    grad, _ = spsa_gradient(lambda th: float(np.sum((th - target) ** 2)), theta, state)
    theta = theta - step * grad
print(f"\nSPSA on a 12-dim quadratic: final loss {float(np.sum((theta-target)**2)):.2e} "
      f"after {state.k} iterations (3 evaluations each)")
