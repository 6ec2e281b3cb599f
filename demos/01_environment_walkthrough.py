"""Walk through one FANET episode step by step.

Shows the world state, the mutual-consent link resolution, path-to-ground
computation, and the global reward, then writes a second episode of the same
world to trajectory_4a1s.jsonl, one {t, positions, links, ptg, reward} per step.
"""

import json

import numpy as np

from fanetq.env import env_step, init_world, path_to_ground
from fanetq.experiments import load_scenario

cfg = load_scenario("4a1s")
print(f"scenario 4a1s: {cfg.n_aircraft} aircraft + {cfg.n_ground} ground station, "
      f"horizon {cfg.horizon}, comm range {cfg.comm_range}")
print(f"observation dim {cfg.obs_dim}, action dim {cfg.action_dim}, "
      f"global obs dim {cfg.global_obs_dim}")

world = init_world(cfg, seed=42)
print("\ninitial positions:")
for i, (pos, vel) in enumerate(zip(world.pos, world.vel)):
    kind = "aircraft" if i < cfg.n_aircraft else "ground"
    print(f"  {kind:8s} {i}: pos=({pos[0]:.3f}, {pos[1]:.3f}) vel=({vel[0]:+.3f}, {vel[1]:+.3f})")

rng = np.random.default_rng(0)
total = 0.0
for t in range(cfg.horizon):
    actions = rng.uniform(0, 1, size=(cfg.n_aircraft, cfg.action_dim))
    world, _, r, done = env_step(world, actions, cfg)
    total += r * cfg.n_aircraft
    if t < 3 or done:
        links = world.links  # symmetric (N, N) boolean adjacency matrix
        ptg = path_to_ground(links, world)
        print(f"\nstep {world.t}: links={np.argwhere(np.triu(links)).tolist()}")
        print(f"  path-to-ground={ptg.tolist()}  reward={r:.3f}")
print(f"\nepisode cumulative reward (CR): {total:.1f} of max {cfg.horizon * cfg.n_aircraft}")

world = init_world(cfg, seed=42)
with open("trajectory_4a1s.jsonl", "w", encoding="utf-8") as fh:
    while world.t < cfg.horizon:
        world, _, r, _ = env_step(world, rng.uniform(0, 1, size=(cfg.n_aircraft, cfg.action_dim)), cfg)
        links, ptg = np.argwhere(np.triu(world.links)).tolist(), path_to_ground(world.links, world).tolist()
        rec = {"t": world.t, "positions": world.pos.tolist(), "links": links, "ptg": ptg, "reward": r}
        fh.write(json.dumps(rec) + "\n")
print("wrote trajectory_4a1s.jsonl (one JSON record per step)")
