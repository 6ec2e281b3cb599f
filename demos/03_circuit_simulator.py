"""The 4-qubit data-reuploading circuit and its SPSA optimizer.

Builds small states gate by gate, runs the layered circuit, and minimizes a
quadratic with the three-evaluation simultaneous-perturbation estimator.
"""

import json

import numpy as np

from fanetq.qsim import (
    SpsaState,
    VqcSpec,
    apply_gate,
    spsa_gradient,
    vqc_forward,
    zero_state,
)

# Bell pair from two gates
state = zero_state(2)
state = apply_gate(state, "H", (0,))
state = apply_gate(state, "CNOT", (0, 1))
print("Bell state amplitudes:", np.round(state, 4))

# layered circuit: 4L pre-features, scaled to input angles, in; four <Z> expectations out
rng = np.random.default_rng(0)
for L in (1, 2, 3):
    spec = VqcSpec(n_layers=L, scaling_fn="arctan",
                   theta=rng.uniform(-np.pi, np.pi, 12 * L),
                   xi=rng.uniform(0.5, 1.5, 4 * L))
    feats = rng.uniform(-1, 1, 4 * L)
    z = vqc_forward(spec, spec.scaled_angles(feats))
    print(f"L={L}: {12*L} circuit weights, <Z> = {np.round(z, 4)}")

print("\ncircuit description export:", json.dumps(VqcSpec(n_layers=1).to_dict())[:80], "...")

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
