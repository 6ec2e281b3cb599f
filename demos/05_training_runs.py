"""Train a classical-critic and a quantum-critic agent side by side.

Short desk-scale runs (20k env steps, single seed); the full comparison
campaign runs through the CLI:  fanetq train --solution NN-4 --scenario 4a1s
"""

import numpy as np

from fanetq.critics import build_critic, parity_report
from fanetq.experiments import derive_metrics, export_records, run_training

print("critic weight bookkeeping on 4A1S (CW classical, QW quantum):")
# every compared pair, each solution once: NN-4, VQC-1N, VQC-1A, NN-7, ...
pairs = parity_report("4a1s", 52)
for name in dict.fromkeys(n for row in pairs for n in (row["classical"], row["quantum"])):
    critic = build_critic(name, "4a1s", 52, np.random.default_rng(0))
    print(f"  {name:7s} CW={critic.classical_weights:4d} QW={critic.quantum_weights:3d} TW={critic.total_weights:4d}")

STEPS = 20_000
for solution in ("NN-4", "VQC-1N"):
    print(f"\ntraining {solution} on 4a1s for {STEPS} env steps (seed 0)...")
    records = run_training(solution, "4a1s", [0], STEPS, "demo_runs")
    curve = records[0].curve
    print(f"  eval points: {len(curve)}")
    print(f"  CR trajectory: start {curve[0]['cr_mean']:.1f} -> best "
          f"{max(p['cr_mean'] for p in curve):.1f} -> final {curve[-1]['cr_mean']:.1f}")
    m = derive_metrics(records, cr_rand=60.20)
    cs = "not reached" if m["cs"] is None else f"{m['cs']:.0f}k steps"
    print(f"  MCR={m['mcr']:.2f}  CS threshold {m['threshold']:.2f} -> {cs}")
    paths = export_records(records, "demo_runs/export", fmt="csv", smoothing=0.9)
    print(f"  exported {paths[0]}")
