"""Entanglement capability and expressibility across circuit variants.

Sweeps the six circuit architectures (1-3 reuploading layers, identity or
arctan input scaling) and prints the characterization table.  Identity
scaling keeps the encoding angles spread over full periods (entanglement
above the Haar average of ~0.823 at L=1); arctan squashes them (below).
Each circuit's states are sampled once, in one circuit call over all its
batches, and both metrics score that ensemble: Ent in one Meyer-Wallach call
over the pooled states, Expr in one sweep of real-arithmetic pair fidelities
that bins each batch's pairs and the pooled pairs together.
The time column covers the sample and both scores.
"""

import time

from fanetq.qmetrics import entanglement_capability, expressibility, meyer_wallach_batch, sample_states
from fanetq.qsim import VqcSpec
import numpy as np

# analytic anchors first
bell = np.zeros((1, 4), complex); bell[0, [0, 3]] = 2 ** -0.5
four_qubit = np.zeros((2, 16), complex); four_qubit[0, 5] = 1.0; four_qubit[1, [0, 15]] = 2 ** -0.5  # product, GHZ
(bell_q,), (product_q, ghz_q) = meyer_wallach_batch(bell), meyer_wallach_batch(four_qubit)
print(f"Meyer-Wallach anchors: product={product_q:.3f} bell={bell_q:.3f} ghz4={ghz_q:.3f}")

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
