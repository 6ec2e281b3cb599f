"""Reproduce the random-agent baselines and show how calibration works.

The shipped scenario files freeze a communication range at which
uniform-random agents score the published episode rewards (60.20 on 4A1S,
84.88 on 5A2S).  The calibration below bisects such a range for a synthetic
target on one bank of 400 episodes, a smaller bank than the default 2000.
"""

from fanetq.env import ScenarioConfig
from fanetq.experiments import calibrate, load_scenario, random_baseline_cr

for name, target, tol in [("4a1s", 60.20, 2.0), ("5a2s", 84.88, 3.0)]:
    cfg = load_scenario(name)
    mean, std = random_baseline_cr(cfg, episodes=1000, seed=5)
    print(f"{name}: comm_range={cfg.comm_range}  random CR = {mean:.2f} +/- {std:.2f} "
          f"(target {target} +/- {tol})")

print("\nmini calibration against a synthetic target (CR = 30):")
base = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3)
cfg, sweep = calibrate(base, target_cr=30.0, tolerance=5.0, episodes=400, seed=1)
for row in sweep:
    print(f"  comm_range={row['comm_range']:.6f} episodes={row['episodes']:4d} "
          f"CR={row['cr_mean']:.2f} +/- {row['cr_se']:.2f}")
print(f"calibrated comm_range = {cfg.comm_range}")
