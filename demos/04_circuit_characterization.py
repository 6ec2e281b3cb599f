"""Entanglement capability and expressibility across circuit variants.

Sweeps the six circuit architectures (1-3 reuploading layers, identity or
arctan input scaling) and prints the characterization table.  Identity
scaling keeps the encoding angles spread over full periods (entanglement
above the Haar average of ~0.823 at L=1); arctan squashes them (below).
Each circuit's states are sampled once and both metrics score that
ensemble; the time column covers the sample and both scores.
"""

import time

from fanetq.qmetrics import entanglement_capability, expressibility, meyer_wallach, sample_states
from fanetq.qsim import VqcSpec
import numpy as np

# analytic anchors first
bell = np.zeros(4, complex); bell[0] = bell[3] = 2 ** -0.5
ghz = np.zeros(16, complex); ghz[0] = ghz[15] = 2 ** -0.5
product = np.zeros(16, complex); product[5] = 1.0
print(f"Meyer-Wallach anchors: product={meyer_wallach(product):.3f} "
      f"bell={meyer_wallach(bell):.3f} ghz4={meyer_wallach(ghz):.3f}")

print(f"\n{'circuit':8s} {'Ent':>18s} {'Expr (KL)':>22s}   time")
for L in (1, 2, 3):
    for scaling, suffix in [("identity", "N"), ("arctan", "A")]:
        spec = VqcSpec(n_layers=L, scaling_fn=scaling)
        t0 = time.time()
        batches = sample_states(spec, n_samples=3000, seed=0)  # one ensemble, scored twice
        ent = entanglement_capability(batches)
        expr = expressibility(batches)
        print(f"VQC-{L}{suffix}   {ent.mean:8.4f} +/- {ent.std:.4f} "
              f"{expr.mean:12.6f} +/- {expr.std:.6f}   {time.time()-t0:4.1f}s")
