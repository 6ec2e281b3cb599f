"""Seeded FANET simulation: one array core for link resolution, connectivity and observations.

Aircraft and ground stations live in a square world; positions advance by
constant per-episode velocities.  Each step every aircraft proposes a
desirability score for every other entity, the top-2 proposals are resolved
into links (mutual consent between aircraft, capacity-limited acceptance at
ground stations), and the global reward is the fraction of aircraft with a
multi-hop path to ground.

Entity ids: aircraft occupy 0 .. n_aircraft-1, ground stations follow.  The
link graph is a symmetric (N, N) boolean adjacency matrix over those ids.

The step functions (resolve_links, path_to_ground, observe_all, env_step,
reward) also take leading batch axes: a batch of episodes that step together
has (..., N, 2) positions, (..., n_aircraft, N-1) proposals and (..., N, N)
links.  Each episode's numbers equal those of its own unbatched run.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation, read_json

ACTION_CLAMP_LOW = 1e-6
ACTION_CLAMP_HIGH = 1.0 - 1e-6
_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class ScenarioConfig:
    """World geometry and episode parameters.

    Distances are in world units (side of the square), velocities in world
    units per step.  ``max_links`` is fixed at 2 by the use case.
    """

    n_aircraft: int
    n_ground: int
    comm_range: float
    horizon: int = 50
    world_side: float = 1.0
    v_max: float = 0.02
    max_links: int = 2

    def __post_init__(self):
        for name in ("n_aircraft", "n_ground", "horizon", "max_links"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("comm_range", "world_side", "v_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.n_aircraft < 1 or self.n_ground < 1:
            raise ConfigError("need at least one aircraft and one ground station")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.comm_range <= 0:
            raise ConfigError("comm_range must be positive")
        if self.world_side <= 0:
            raise ConfigError("world_side must be positive")
        if self.v_max < 0:
            raise ConfigError("v_max must be non-negative")
        if self.max_links != 2:
            raise ConfigError("max_links is fixed at 2")

    @property
    def n_entities(self) -> int:
        return self.n_aircraft + self.n_ground

    @property
    def obs_dim(self) -> int:
        """1 + 3(N-1): own path-to-ground, then (ptg, lk, oc) per other entity."""
        return 1 + 3 * (self.n_entities - 1)

    @property
    def action_dim(self) -> int:
        return self.n_entities - 1

    @property
    def global_obs_dim(self) -> int:
        return self.n_aircraft * self.obs_dim

    def to_dict(self) -> dict:
        return {
            "n_aircraft": int(self.n_aircraft),
            "n_ground": int(self.n_ground),
            "horizon": int(self.horizon),
            "comm_range": float(self.comm_range),
            "world_side": float(self.world_side),
            "v_max": float(self.v_max),
            "max_links": int(self.max_links),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        if set(d) - known:
            raise ConfigError(f"unknown scenario keys: {sorted(set(d) - known)}")
        if required - set(d):
            raise ConfigError(f"missing scenario keys: {sorted(required - set(d))}")
        return cls(**d)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(read_json(path))


@dataclass
class WorldState:
    """Positions/velocities of all entities plus the active link graph.

    ``pos`` and ``vel`` are (..., N, 2); leading axes, if any, index episodes
    that step together and share ``t``.  ``links`` is a symmetric (..., N, N)
    boolean adjacency matrix; it is all False until the first step resolves
    links.  ``offsets`` (..., n_aircraft, N, 2) holds pos[i] - pos[j] from
    every aircraft i to every entity j and ``dist`` their lengths, computed
    once per world for both link resolution and the ``lk`` feature.
    """

    t: int
    pos: np.ndarray  # (..., N, 2)
    vel: np.ndarray  # (..., N, 2)
    n_aircraft: int
    links: np.ndarray | None = None  # (..., N, N) bool
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    dist: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.links is None:
            self.links = np.zeros(self.pos.shape[:-1] + (self.n_entities,), dtype=bool)
        self.offsets = _aircraft_offsets(self.pos, self.n_aircraft)
        self.dist = np.hypot(self.offsets[..., 0], self.offsets[..., 1])

    @property
    def n_entities(self) -> int:
        return self.pos.shape[-2]


def init_world(cfg: ScenarioConfig, seed: int) -> WorldState:
    """Fresh world at t = 0: uniform positions, constant aircraft velocities.

    Identical (cfg, seed) pairs produce bit-identical worlds.
    """
    rng = np.random.default_rng(seed)
    n = cfg.n_entities
    pos = rng.uniform(0.0, cfg.world_side, size=(n, 2))
    vel = np.zeros((n, 2))
    vel[: cfg.n_aircraft] = rng.uniform(-cfg.v_max, cfg.v_max, size=(cfg.n_aircraft, 2))
    return WorldState(t=0, pos=pos, vel=vel, n_aircraft=cfg.n_aircraft)


def clamp_actions(desirability: np.ndarray) -> np.ndarray:
    """Map arbitrary reals into the open interval (0, 1) used by the env."""
    # equal to np.clip, which costs twice as much on arrays this small
    return np.minimum(np.maximum(desirability, ACTION_CLAMP_LOW), ACTION_CLAMP_HIGH)


def _aircraft_offsets(a: np.ndarray, n_aircraft: int) -> np.ndarray:
    """(..., n_aircraft, N, 2) differences a[i] - a[j] from every aircraft i to every entity j."""
    return a[..., :n_aircraft, None, :] - a[..., None, :, :]


@functools.lru_cache(maxsize=None)
def _not_self(n_aircraft: int, n_entities: int) -> np.ndarray:
    """Read-only (n_aircraft, N) mask, False where an aircraft row meets its own entity column."""
    mask = ~np.eye(n_aircraft, n_entities, dtype=bool)
    mask.flags.writeable = False
    return mask


def _top_k(scores: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Mask of the k highest scores along ``axis``; ties go to the lower index.

    An entry's rank is its position in the stable descending sort, read off
    by inverting that permutation.
    """
    return (-scores).argsort(axis=axis, kind="stable").argsort(axis=axis) < k


def resolve_links(world: WorldState, proposals: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Resolve per-aircraft desirability vectors into the (..., N, N) link matrix.

    Row a of ``proposals`` (..., n_aircraft, N-1) scores every other entity in
    ascending id order; its leading axes match the world's.  Each aircraft
    nominates its top ``max_links`` entities, ties to the lower id.
    Aircraft-aircraft edges need both sides to nominate each other and the
    pair to be in range (distance <= comm_range).  Ground stations are not
    agents: each accepts its in-range nominators in decreasing desirability
    order (ties to the lower aircraft id) up to ``max_links``.  NaN has no
    rank and is rejected; +-inf is clamped.
    """
    proposals = np.asarray(proposals, dtype=float)
    n_a, n = cfg.n_aircraft, cfg.n_entities
    batch = world.pos.shape[:-2]
    if proposals.shape != batch + (n_a, n - 1):
        raise ContractViolation(f"proposals must have shape {batch + (n_a, n - 1)}, got {proposals.shape}")
    if np.isnan(proposals).any():
        raise ContractViolation("proposals contain NaN, which has no desirability rank")
    not_self = _not_self(n_a, n)
    desir = np.full(batch + (n_a, n), -np.inf)
    desir[..., not_self] = clamp_actions(proposals).reshape(batch + (-1,))

    # with fewer than max_links candidates the -inf self slot is picked; not_self drops it
    asks = _top_k(desir, cfg.max_links, axis=-1) & not_self & (world.dist <= cfg.comm_range)

    bids = np.where(asks[..., n_a:], desir[..., n_a:], -np.inf)
    accepted = _top_k(bids, cfg.max_links, axis=-2) & asks[..., n_a:]

    links = np.zeros(batch + (n, n), dtype=bool)
    links[..., :n_a, :n_a] = asks[..., :n_a] & np.swapaxes(asks[..., :n_a], -1, -2)
    links[..., :n_a, n_a:] = accepted
    return links | np.swapaxes(links, -1, -2)


def path_to_ground(links: np.ndarray, world: WorldState) -> np.ndarray:
    """Per-entity indicator (..., N): 1 if the entity is a ground station or reaches one.

    Boolean propagation seeded with every ground station.  A shortest path
    to ground visits each aircraft at most once, so n_aircraft rounds reach
    every connected entity.
    """
    # a (..., 1, N) row: reach @ links propagates one hop, as links are symmetric
    reach = np.zeros(links.shape[:-2] + (1, world.n_entities), dtype=bool)
    reach[..., world.n_aircraft :] = True
    for _ in range(world.n_aircraft):
        reach |= reach @ links
    return reach[..., 0, :].astype(int)


def reward(ptg_aircraft: np.ndarray) -> np.ndarray | float:
    """Global reward: mean path-to-ground over the aircraft (last axis), in [0, 1]."""
    return np.asarray(ptg_aircraft).mean(axis=-1)


def _lk_rows(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(..., n_aircraft, N) lk features: fraction of the horizon a pair stays in range.

    Counts steps s in {t, ..., horizon-1} at which the constant-velocity
    extrapolations of aircraft i and entity j are within comm_range,
    normalized by the full horizon; -1 where the pair is not in range now.
    x and y are extrapolated separately and in place, which keeps the
    (steps, ..., n_aircraft, N) temporaries to two.

    In range means hypot(x, y) <= comm_range.  x*x + y*y is within a few
    ulps of the squared distance, so it decides every pair farther than a
    relative 1e-12 from the range; only those near it go through the costly
    hypot, on offsets rebuilt in the same operation order.  When r*r with
    that margin is not a normal float, every pair goes through hypot.
    """
    dp = world.offsets
    dv = _aircraft_offsets(world.vel, cfg.n_aircraft)
    steps = np.arange(0, max(cfg.horizon - world.t, 0), dtype=float).reshape((-1,) + (1,) * (dv.ndim - 1))
    x = steps * dv[..., 0]
    x += dp[..., 0]
    y = steps * dv[..., 1]
    y += dp[..., 1]
    r = float(cfg.comm_range)  # a numpy scalar would warn where r * r overflows
    lo, hi = r * r * (1.0 - 1e-12), r * r * (1.0 + 1e-12)
    if lo < _FLOAT.tiny or hi > _FLOAT.max:
        within = np.hypot(x, y, out=x) <= r
    else:
        with np.errstate(over="ignore"):  # an inf square is out of range, as the distance is
            x *= x
            y *= y
            x += y
        within = x <= lo
        near = x > lo
        near &= x < hi
        if near.any():
            s, *pair = np.nonzero(near)
            xn, yn = (s * dv[..., c][tuple(pair)] + dp[..., c][tuple(pair)] for c in (0, 1))
            within[near] = np.hypot(xn, yn) <= r
    return np.where(world.dist <= r, within.sum(axis=0) / cfg.horizon, -1.0)


def observe_all(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(..., n_aircraft, obs_dim) local observations: [own ptg, then (ptg, lk, oc) per other entity].

    Other entities appear in ascending id order.  ``oc`` maps an entity's
    active connection count linearly so that 0 -> -1, 1 -> 0, 2 -> +1.
    Uses the most recent link graph; at episode start the graph is empty.
    """
    n_a, n = cfg.n_aircraft, cfg.n_entities
    batch = world.pos.shape[:-2]
    ptg = path_to_ground(world.links, world).astype(float)
    block = np.empty(batch + (n_a, n, 3))
    block[..., 0] = ptg[..., None, :]
    block[..., 1] = _lk_rows(world, cfg)
    block[..., 2] = world.links.sum(axis=-2)[..., None, :] - 1.0
    others = block[..., _not_self(n_a, n), :].reshape(batch + (n_a, 3 * (n - 1)))
    return np.concatenate([ptg[..., :n_a, None], others], axis=-1)


def env_step(
    world: WorldState, joint_action: np.ndarray, cfg: ScenarioConfig
) -> tuple[WorldState, np.ndarray, np.ndarray | float, bool]:
    """One environment step of one episode, or of a batch of episodes at the same t.

    Order of effects: advance positions by one velocity step, resolve links
    from the joint action, then build the next observations on the new
    graph; the reward is the mean of the aircraft's own path-to-ground
    entries, one per episode.  Done when t reaches horizon.
    """
    if world.t >= cfg.horizon:
        raise ContractViolation("cannot step a finished episode")
    new = WorldState(
        t=world.t + 1,
        pos=world.pos + world.vel,
        vel=world.vel,
        n_aircraft=world.n_aircraft,
    )
    new.links = resolve_links(new, joint_action, cfg)
    obs = observe_all(new, cfg)
    done = new.t >= cfg.horizon
    return new, obs, reward(obs[..., 0]), done


class FanetEnv:
    """Stateful reset/step wrapper over the functional core, one episode at a time.

    `reset(seed)` starts a fresh episode; `step(actions)` returns
    (observations, reward, done).  Observations are an
    (n_aircraft, obs_dim) array.  Training keeps the episode a rollout
    leaves unfinished in ``world``.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.world: WorldState | None = None

    def reset(self, seed: int) -> np.ndarray:
        self.world = init_world(self.cfg, seed)
        return observe_all(self.world, self.cfg)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float, bool]:
        if self.world is None:
            raise ContractViolation("call reset before step")
        self.world, obs, r, done = env_step(self.world, actions, self.cfg)
        return obs, r, done

    @property
    def t(self) -> int:
        return 0 if self.world is None else self.world.t


EPISODE_BLOCK = 64  # episodes stepped together; bounds the (steps, block, n_aircraft, N) lk temporaries


def stack_worlds(worlds: list[WorldState]) -> WorldState:
    """One world whose leading axis holds ``worlds`` in order; they must share t."""
    return WorldState(
        t=worlds[0].t,
        pos=np.stack([w.pos for w in worlds]),
        vel=np.stack([w.vel for w in worlds]),
        n_aircraft=worlds[0].n_aircraft,
        links=np.stack([w.links for w in worlds]),
    )


def step_episodes(
    world: WorldState, steps: int, cfg: ScenarioConfig, policy
) -> tuple[WorldState, np.ndarray, np.ndarray]:
    """Step a world, one episode or a block of them, ``steps`` times.

    ``policy(obs, t)`` maps the (..., n_aircraft, obs_dim) observations
    before step t to the (..., n_aircraft, action_dim) joint actions.
    Returns the final world, its observations and the (..., steps) rewards.
    """
    obs = observe_all(world, cfg)
    rewards = np.empty(world.pos.shape[:-2] + (steps,))
    for s in range(steps):
        world, obs, rewards[..., s], _ = env_step(world, policy(obs, world.t), cfg)
    return world, obs, rewards


def run_episodes(cfg: ScenarioConfig, seeds, policy) -> np.ndarray:
    """Per-episode CR: connected-aircraft counts summed over the steps of each episode.

    Episodes run in seed order, in blocks of up to EPISODE_BLOCK that step
    together under ``policy``, as in ``step_episodes``.
    """
    seeds = list(seeds)
    crs = np.empty(len(seeds))
    for start in range(0, len(seeds), EPISODE_BLOCK):
        world = stack_worlds([init_world(cfg, seed) for seed in seeds[start : start + EPISODE_BLOCK]])
        _, _, rewards = step_episodes(world, cfg.horizon, cfg, policy)
        # a running sum adds the steps in order, as a step-by-step total does
        crs[start : start + len(rewards)] = np.cumsum(rewards * cfg.n_aircraft, axis=-1)[:, -1]
    return crs


def dump_trajectory(path: str | Path, cfg: ScenarioConfig, seed: int, action_fn) -> None:
    """Write a JSON-lines trajectory: one record per step.

    ``action_fn(obs, t)`` must return the joint action array.  Each record
    holds {t, positions, links, ptg, reward}.
    """
    env = FanetEnv(cfg)
    obs = env.reset(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(cfg.horizon):
            actions = action_fn(obs, t)
            obs, r, done = env.step(actions)
            rec = {
                "t": env.world.t,
                "positions": env.world.pos.tolist(),
                "links": np.argwhere(np.triu(env.world.links)).tolist(),
                "ptg": path_to_ground(env.world.links, env.world).tolist(),
                "reward": r,
            }
            fh.write(json.dumps(rec) + "\n")
            if done:
                break
